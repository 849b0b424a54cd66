"""Exact tests for the piecewise-linear layer: generators, group laws,
canonical forms, fans and serialization."""

import copy
import pickle
import random
from math import gcd

import pytest

from sympt import plcore, words
from sympt.plcore import (
    _MR_EXACT_BELOW,
    MAT_ID,
    Fan,
    Vec,
    PLAut,
    compose_pl,
    cone_covector,
    cone_index,
    cone_parents,
    cone_runs,
    dir_less,
    from_cones,
    from_function,
    generator_pl,
    identity_pl,
    inverse_pl,
    is_prime,
    linear_pl,
    mat_apply,
    mat_inv,
    mat_mul,
    order_pl,
    power,
    primitive,
    product,
    vec_add,
    wedge,
    _sort_ccw,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
)

P = generator_pl("P")
C = generator_pl("C")
I = generator_pl("I")
# the derived letters, folded from their words.EXPANSIONS entries
L = words.evaluate("L", "pl")
U = words.evaluate("U", "pl")
MU = words.evaluate("mu", "pl")

GENS = [P, L, C, I, U, MU]


def ref_P(v):
    a, b = v
    return (b, min(0, b) - a)


def ref_mu(v):
    a, b = v
    return (a - min(0, b), b)


def ref_L(v):
    a, b = v
    return (min(0, a) - b, a)


def lattice_points(radius=6):
    return [
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        if (a, b) != (0, 0)
    ]


# ---------------------------------------------------------------------------
# generator values


def test_wedge_orientation():
    assert wedge((1, 0), (0, 1)) == 1
    assert wedge((0, 1), (1, 0)) == -1
    assert wedge((2, 3), (2, 3)) == 0


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_p_pointwise():
    for v in lattice_points():
        assert P(v) == ref_P(v)
    assert P((1, 0)) == (0, -1)
    assert P((0, 1)) == (1, 0)
    assert P((0, -1)) == (-1, -1)
    assert P((2, -3)) == (-3, -5)


def test_mu_pointwise():
    for v in lattice_points():
        assert MU(v) == ref_mu(v)
    assert MU((2, -3)) == (5, -3)
    assert MU((2, 3)) == (2, 3)
    # the identity above the x-axis, (a, b) -> (a - b, b) below
    assert MU == PLAut(((1, 0), (-1, 0)), (MAT_ID, (1, -1, 0, 1)))


def test_l_is_inverse_of_p():
    assert L == inverse_pl(P)
    assert (L * P).is_identity()
    assert (P * L).is_identity()
    for v in lattice_points():
        assert L(v) == ref_L(v)


def test_c_orbit_of_period_three():
    assert C((1, 0)) == (-1, -1)
    assert C((-1, -1)) == (0, 1)
    assert C((0, 1)) == (1, 0)


def test_linear_generators_are_linear():
    for g in (C, I, U):
        assert g.is_linear
    assert C.matrix() == (-1, 1, -1, 0)
    assert I.matrix() == (0, -1, 1, 0)
    assert U.matrix() == (1, 1, 0, 1)
    assert not P.is_linear
    assert P.breakpoints() == ((-1, 0), (1, 0))
    with pytest.raises(ValueError, match="not globally linear"):
        P.matrix()
    with pytest.raises(ValueError, match="origin"):
        P.matrix_at((0, 0))
    assert P((0, 0)) == (0, 0)


def test_unknown_generator():
    with pytest.raises(ValueError):
        generator_pl("Q")


# ---------------------------------------------------------------------------
# relations


def test_sl2z_relations():
    assert (C ** 3).is_identity()
    assert (I ** 4).is_identity()
    assert (C ** -1 * I ** -2 * C * I ** 2).is_identity()


def test_pcp_equals_i():
    assert P * C * P == I


def test_p_has_order_five():
    assert order_pl(P) == 5
    assert not (P ** 3).is_identity()


def test_theorem_relations():
    assert (I ** 2 * MU) ** 2 == U ** -1
    assert ((I ** -1 * MU) ** 5).is_identity()
    assert ((I * MU) ** 7).is_identity()
    assert I ** -1 * MU == P
    assert MU == I * P


def test_orders():
    assert order_pl(C) == 3
    assert order_pl(I) == 4
    assert order_pl(I * MU) == 7
    assert order_pl(P * I * C) == 7
    assert order_pl(U, 30) is None
    assert order_pl(identity_pl()) == 1


def test_appendix_element_orders():
    # inverse-letter reading of the second and third presentations
    R = P ** 2 * C
    assert order_pl(R) == 4
    assert order_pl(C ** -1 * R) == 5
    A = C * R ** 2
    B = C ** -1 * R ** -1
    X2 = A ** -1 * B * A
    Pp = A ** -1 * R * B
    assert order_pl(Pp) == 5
    assert ((Pp ** 2 * X2 ** -1) ** 3).is_identity()
    assert ((Pp * X2) ** 4).is_identity()
    assert ((X2 ** 2 * Pp ** -2) ** 4).is_identity()


# ---------------------------------------------------------------------------
# group laws, randomized


def random_word(rng, length):
    w = identity_pl()
    for _ in range(length):
        w = w * rng.choice(GENS)
    return w


def test_composition_is_pointwise():
    rng = random.Random(7)
    for _ in range(40):
        f = random_word(rng, rng.randint(1, 5))
        g = random_word(rng, rng.randint(1, 5))
        fg = f * g
        for _ in range(20):
            v = (rng.randint(-50, 50), rng.randint(-50, 50))
            if v == (0, 0):
                continue
            assert fg(v) == f(g(v))


def test_associativity_and_inverses():
    rng = random.Random(11)
    for _ in range(30):
        f = random_word(rng, 3)
        g = random_word(rng, 3)
        h = random_word(rng, 3)
        assert (f * g) * h == f * (g * h)
        assert (f * ~f).is_identity()
        assert (~f * f).is_identity()
        assert ~(f * g) == ~g * ~f


def test_pieces_are_unimodular():
    rng = random.Random(13)
    for _ in range(30):
        f = random_word(rng, rng.randint(1, 6))
        for m in f.mats:
            assert m[0] * m[3] - m[1] * m[2] == 1


def test_power_and_product_keep_the_order_of_factors():
    # strings multiply by concatenation, which is associative but not
    # commutative, so a reordered factor would show
    cat = str.__add__
    for n in range(1, 40):
        assert power("ab", n, cat) == "ab" * n
        factors = [chr(65 + i) for i in range(n)]
        assert product(factors, cat, "") == "".join(factors)
    assert product([], cat, "1") == "1"


def test_identity_and_powers():
    assert P ** 0 == identity_pl()
    assert P ** -2 == (~P) ** 2
    assert P ** 5 == identity_pl()
    assert C ** -1 == C ** 2


def test_homogeneity():
    rng = random.Random(17)
    for _ in range(20):
        f = random_word(rng, 4)
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0):
            continue
        k = rng.randint(1, 5)
        fx, fy = f(v)
        assert f((k * v[0], k * v[1])) == (k * fx, k * fy)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_merges_fake_breaks():
    # same matrix on both sides of a ray collapses to a linear element
    f = PLAut(((1, 0), (-1, 0)), ((0, -1, 1, 0), (0, -1, 1, 0)))
    assert f.is_linear
    assert f == I


def test_canonical_rotation_invariance():
    f = PLAut(((1, 0), (-1, 0)), ((0, 1, -1, 0), (0, 1, -1, 1)))
    g = PLAut(((-1, 0), (1, 0)), ((0, 1, -1, 1), (0, 1, -1, 0)))
    assert f == g == P
    assert hash(f) == hash(g)


def test_equality_is_extensional():
    rng = random.Random(19)
    for _ in range(20):
        f = random_word(rng, 4)
        g = from_function(f, f.rays)
        assert f == g


def test_validation_rejects_bad_pieces():
    with pytest.raises(ValueError):
        PLAut((), ((2, 0, 0, 1),))  # det 2
    with pytest.raises(ValueError):
        # identity and a rotation cannot agree on the shared rays
        PLAut(((1, 0), (-1, 0)), ((1, 0, 0, 1), (0, -1, 1, 0)))


# eight unimodular cones around the origin, and the images of their rays
# going round twice: each piece has det 1 and neighbours agree on their
# shared ray, but the map is not a bijection
_OCTANTS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
            (1, -1))
_TWICE_ROUND = ((1, -1, 0, 1), (1, -1, 1, 0), (-1, -1, 1, 0), (-1, -1, 0, -1),
                (-1, 1, 0, -1), (-1, 1, -1, 0), (1, 1, -1, 0), (1, 1, 0, 1))
_SHEAR = (1, 1, 0, 1)  # fixes the x axis


@pytest.mark.parametrize("rays, mats, message", [
    (((2, 0), (-1, 0)), (MAT_ID, _SHEAR), "ray (2, 0) is not primitive"),
    (((1, 0), (1, 0)), (MAT_ID, _SHEAR), "repeated ray (1, 0)"),
    (generator_pl("P").rays * 2, generator_pl("P").mats * 2,
     "breakpoint rays do not wind once counterclockwise"),
    (_OCTANTS, _TWICE_ROUND,
     "image rays do not wind once; map is not bijective"),
    (((1, 0), (-1, 0)), (MAT_ID,), "rays and mats must have equal length"),
    ((), (MAT_ID, MAT_ID), "linear element must carry exactly one matrix"),
    (((1, 0),), (_SHEAR,), "one breakpoint ray (1, 0) bounds no cone"),
], ids=["non-primitive", "repeated", "winds-twice", "images-wind-twice",
        "unequal-lengths", "linear-two-matrices", "one-ray"])
def test_constructor_refuses_each_malformed_element(rays, mats, message):
    with pytest.raises(ValueError) as exc:
        PLAut(rays, mats)
    assert str(exc.value) == message


def test_from_json_refuses_an_unknown_orientation():
    data = identity_pl().to_json()
    data["orientation"] = "counterclockwise"
    with pytest.raises(ValueError) as exc:
        PLAut.from_json(data)
    assert str(exc.value) == "unknown orientation 'counterclockwise'"


def with_piece(key, value):
    # P's JSON with its first piece's ray or matrix replaced
    data = P.to_json()
    data["pieces"][0][key] = value
    return data


def without_key(key):
    # P's JSON with its first piece's ray or matrix left out
    data = P.to_json()
    del data["pieces"][0][key]
    return data


def first_piece_only():
    # P's JSON cut down to its first piece, one ray and one matrix
    data = P.to_json()
    del data["pieces"][1:]
    return data


SHAPE = ('a PLAut document holds "linear" or non-empty "pieces" with "ray" '
         'and "matrix", got %r')


@pytest.mark.parametrize("data, message", [
    ({"linear": [[1.0, 0], [0, 1]]}, "matrix row must hold integers, got 1.0"),
    ({"linear": [[1, 0], [0, True]]},
     "matrix row must hold integers, got True"),
    ({"linear": [[1, 0, 0], [0, 1]]},
     "matrix row must be a list of 2 integers, got [1, 0, 0]"),
    ({"linear": [[1, 0]]}, "matrix must be a list of 2 rows, got [[1, 0]]"),
    (with_piece("ray", [-1.0, 0]), "ray must hold integers, got -1.0"),
    (with_piece("ray", [-1, False]), "ray must hold integers, got False"),
    (with_piece("ray", [-1, 0, 0]),
     "ray must be a list of 2 integers, got [-1, 0, 0]"),
    (with_piece("matrix", [[1, 0], [0.5, 1]]),
     "matrix row must hold integers, got 0.5"),
    # malformed documents
    ({}, SHAPE % ({},)),
    ({"pieces": []}, SHAPE % ({"pieces": []},)),
    (without_key("ray"), SHAPE % (without_key("ray"),)),
    (without_key("matrix"), SHAPE % (without_key("matrix"),)),
    ([], "a PLAut document is a JSON object, got []"),
    ("P", "a PLAut document is a JSON object, got 'P'"),
    (first_piece_only(), "one breakpoint ray (-1, 0) bounds no cone"),
])
def test_from_json_refuses_each_non_integer_shape(data, message):
    with pytest.raises(ValueError) as exc:
        PLAut.from_json(data)
    assert str(exc.value) == message


def test_from_function_detects_hidden_break():
    f = P * I * U  # breakpoints off the coordinate axes
    assert f.breakpoints() == ((-1, 1), (1, -1))
    assert from_function(f, f.breakpoints()) == f
    with pytest.raises(ValueError):
        from_function(f, [])  # axes alone miss the wall at (1,-1)


def test_cone_covector_solves_integral_cones_only():
    # L(1,0) = 0 and L(1,2) = 2 give L = (0, 1); L(1,2) = 1 needs L_y = 1/2
    assert cone_covector((1, 0), (1, 2), 0, 2) == (0, 1)
    assert cone_covector((1, 0), (1, 2), 0, 1) is None
    # L = (3, -2) on the cone of (2,-1) and (1,3), whose wedge is 7
    assert cone_covector((2, -1), (1, 3), 8, -3) == (3, -2)
    assert cone_covector((2, -1), (1, 3), 8, -2) is None
    assert cone_covector((0, 1), (-1, 0), 5, -4) == (4, 5)


def test_from_cones_checks_each_cone():
    rays = [(1, 0), (0, 1), (-1, -1)]
    mediants = [(1, 1), (-1, 0), (0, -1)]
    assert from_cones(rays, rays, mediants) == identity_pl()
    with pytest.raises(ValueError) as exc:
        from_cones(rays, rays, [(1, 1), (-1, 0), (1, -1)])
    assert str(exc.value) == "hidden breakpoint inside cone (-1, -1),(1, 0)"
    with pytest.raises(ValueError) as exc:
        from_cones(rays, [(2, 0), (0, 1), (-1, -1)], mediants)
    assert str(exc.value) == "piece on cone (1, 0),(0, 1) has det 2, not 1"
    wide = [(1, 0), (1, 2), (-1, -1)]
    with pytest.raises(ValueError) as exc:
        from_cones(wide, [(1, 0), (0, 1), (-1, -1)], [(2, 2), (0, 1), (0, -1)])
    assert str(exc.value) == (
        "map is not integrally linear on cone (1, 0),(1, 2)")


def _from_cones_by_solves(rays, images, mediant_images):
    """from_cones as it was before it kept a matrix: each cone solved."""
    mats = []
    n = len(rays)
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        wa, wb = images[i], images[(i + 1) % n]
        if wedge(a, b) <= 0:
            raise AssertionError("candidate rays out of order")
        top = cone_covector(a, b, wa[0], wb[0])
        bottom = cone_covector(a, b, wa[1], wb[1])
        if top is None or bottom is None:
            raise ValueError("map is not integrally linear on cone %r,%r"
                             % (a, b))
        m = top + bottom
        if plcore.mat_det(m) != 1:
            raise ValueError("piece on cone %r,%r has det %d, not 1"
                             % (a, b, plcore.mat_det(m)))
        if mediant_images[i] != mat_apply(m, vec_add(a, b)):
            raise ValueError("hidden breakpoint inside cone %r,%r" % (a, b))
        mats.append(m)
    return PLAut(tuple(rays), tuple(mats))


def test_from_cones_checks_a_cone_after_a_kept_matrix(monkeypatch):
    solves = [0]

    def counted(*args):
        solves[0] += 1
        return cone_covector(*args)

    monkeypatch.setattr(plcore, "cone_covector", counted)
    # the identity on five rays: cone 0 is solved (two covectors), and
    # each later cone keeps its matrix, which maps its next ray right
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)]
    mediants = [vec_add(r, rays[(i + 1) % 5]) for i, r in enumerate(rays)]
    assert from_cones(rays, rays, mediants) == identity_pl()
    assert solves[0] == 2
    # cone 2 follows the kept matrix of cone 1, which maps its rays right
    # but not its mediant
    solves[0] = 0
    with pytest.raises(ValueError) as exc:
        from_cones(rays, rays, mediants[:2] + [(-1, 2)] + mediants[3:])
    assert str(exc.value) == "hidden breakpoint inside cone (0, 1),(-1, 0)"
    assert solves[0] == 2
    # cone 2 of width 2 follows a kept matrix that misses its next image,
    # and is solved: x/2 in one entry, then det 2
    wide = [(1, 0), (1, 1), (0, 1), (-2, -1)]
    mediants = [vec_add(r, wide[(i + 1) % 4]) for i, r in enumerate(wide)]
    with pytest.raises(ValueError) as exc:
        from_cones(wide, wide[:3] + [(-1, -1)], mediants)
    assert str(exc.value) == (
        "map is not integrally linear on cone (0, 1),(-2, -1)")
    with pytest.raises(ValueError) as exc:
        from_cones(wide, wide[:3] + [(-4, -1)], mediants)
    assert str(exc.value) == "piece on cone (0, 1),(-2, -1) has det 2, not 1"


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_from_cones_refuses_as_the_solve_of_every_cone_did():
    rng = random.Random(227)
    kept = refused = 0
    for _ in range(600):
        f = random_word(rng, rng.randint(1, 6))
        extra = [(rng.randint(-5, 5), rng.randint(-5, 5))
                 for _ in range(rng.randint(0, 6))]
        rays = _sort_ccw({*f.rays, *plcore.AXES,
                          *(primitive(v) for v in extra if v != (0, 0))})
        n = len(rays)
        images = [f(r) for r in rays]
        mediants = [f(vec_add(r, rays[(i + 1) % n]))
                    for i, r in enumerate(rays)]
        which = rng.randrange(4)
        k = rng.randrange(n)
        if which == 1:
            images[k] = vec_add(images[k], rng.choice(
                ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1))))
        elif which == 2:
            mediants[k] = vec_add(mediants[k], rng.choice(
                ((1, 0), (0, -1), (2, 1))))
        elif which == 3:
            images[k] = (2 * images[k][0], images[k][1])
        want = _outcome(_from_cones_by_solves, rays, images, mediants)
        assert _outcome(from_cones, rays, images, mediants) == want, (
            rays, images, mediants)
        kept += want == f
        refused += isinstance(want, tuple)
    assert kept > 100 and refused > 300



# ---------------------------------------------------------------------------
# fans


def test_fan_validation():
    with pytest.raises(ValueError):
        Fan(((1, 0), (0, 1)))  # too few rays
    with pytest.raises(ValueError):
        Fan(((1, 0), (0, 1), (1, 1)))  # does not wind once
    with pytest.raises(ValueError):
        Fan(((2, 0), (0, 1), (-1, -1)))  # non-primitive ray
    # every cone is positive, but the rays go round twice
    with pytest.raises(ValueError, match="wind once"):
        Fan(plcore.AXES * 2)


def test_fan_is_an_immutable_value():
    # equal, hashed and printed by its rays, like a frozen record; copies
    # and pickles come back equal
    fan = Fan(((1, 0), (0, 1), (-1, -1)))
    same = Fan(rays=((1, 0), (0, 1), (-1, -1)))
    other = Fan(((1, 0), (1, 1), (0, 1), (-1, -1)))
    assert fan == same and hash(fan) == hash(same)
    assert fan != other and fan != fan.rays and len({fan, same, other}) == 2
    assert repr(fan) == "Fan(rays=((1, 0), (0, 1), (-1, -1)))"
    for obj in (copy.copy(fan), copy.deepcopy(fan),
                pickle.loads(pickle.dumps(fan))):
        assert type(obj) is Fan and obj == fan
    with pytest.raises(AttributeError):
        fan.rays = other.rays
    with pytest.raises(AttributeError):
        del fan.rays
    with pytest.raises(AttributeError):
        fan.extra = 1
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))


def _one_value_of_each_class():
    from sympt import birational, picard, quantum, thompson, words

    word = words.parse_word("P C I P^-1")
    return [
        Fan(((1, 0), (0, 1), (-1, -1))),
        words.evaluate(word, "pl"),
        birational.X * birational.Y - birational.ONE,
        birational.RationalFn(birational.X, birational.X + birational.Y),
        words.evaluate(word, "bir"),
        picard.QPoly((1, -2, 3)),
        picard.ample_A(),
        picard.random_v_vector(random.Random(4)),
        picard.PicOperator(word),
        words.evaluate(word, "dyadic"),
        words.evaluate(word, "tree"),
        quantum.make_config(5, 11),
        quantum.clock_shift(quantum.make_config(3, 7), 2, 3),
    ]


def _sympt_classes():
    """Every class defined at the top level of a sympt module."""
    import importlib
    import pkgutil

    import sympt

    for info in pkgutil.iter_modules(sympt.__path__, "sympt."):
        module = importlib.import_module(info.name)
        yield from (cls for cls in vars(module).values()
                    if isinstance(cls, type)
                    and cls.__module__ == module.__name__)


@pytest.mark.parametrize("value", _one_value_of_each_class(),
                         ids=lambda value: type(value).__name__)
def test_every_value_copies_pickles_and_refuses_mutation(value):
    # each value class derives from Frozen: a copy or an unpickled value is
    # rebuilt through the constructor, and no attribute can be set, deleted
    # or added
    for obj in (copy.copy(value), copy.deepcopy(value),
                pickle.loads(pickle.dumps(value))):
        assert type(obj) is type(value) and obj == value
    fields = value._fields()
    slot = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, slot, None)
    with pytest.raises(AttributeError):
        delattr(value, slot)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value._fields() == fields


@pytest.mark.parametrize("value", _one_value_of_each_class(),
                         ids=lambda value: type(value).__name__)
def test_every_value_hashes_like_its_copies_or_refuses_by_name(value):
    # a copy or an unpickled twin hashes equal to the value; a class with no
    # cheap canonical hash refuses under its own name, not a field's
    twins = (copy.copy(value), pickle.loads(pickle.dumps(value)))
    try:
        h = hash(value)
    except TypeError as err:
        assert str(err) == "unhashable type: '%s'" % type(value).__name__
        for twin in twins:
            with pytest.raises(TypeError):
                hash(twin)
    else:
        assert [hash(twin) for twin in twins] == [h, h]


def test_the_values_cover_every_frozen_class():
    frozen = {cls for cls in _sympt_classes()
              if issubclass(cls, plcore.Frozen)} - {plcore.Frozen}
    assert {type(value) for value in _one_value_of_each_class()} == frozen
    assert len(frozen) == 13


def test_only_frozen_defines_setattr_or_delattr():
    # an immutable class derives from Frozen instead of hand-rolling the
    # rules; Frozen is the one place that writes a slot
    defining = sorted(
        cls.__qualname__ for cls in _sympt_classes()
        if {"__setattr__", "__delattr__"} & set(vars(cls)))
    assert defining == ["Frozen"]


def test_an_unpickled_operator_acts_like_the_original():
    from sympt import picard, words

    op = picard.PicOperator(words.parse_word("P C P I^-1 P^2"))
    back = pickle.loads(pickle.dumps(op))
    assert back == op and back != picard.PicOperator(op.word[1:])
    rng = random.Random(9)
    for _ in range(5):
        x = picard.random_v_vector(rng)
        assert back(x) == op(x)


def random_unimodular_cone(rng):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(0, 12)):
        m = mat_mul(m, rng.choice(
            [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (0, -1, 1, 0)]))
    return mat_apply(m, (1, 0)), mat_apply(m, (0, 1))


def mediant_descent(u, v, w):
    """Reference: the pair whose mediant is w, one mediant step at a time."""
    while (u[0] + v[0], u[1] + v[1]) != w:
        m = (u[0] + v[0], u[1] + v[1])
        if wedge(m, w) > 0:
            u = m
        else:
            v = m
    return u, v


def test_cone_descent_gives_unimodular_companions():
    rng = random.Random(53)
    for trial in range(600):
        u, v = random_unimodular_cone(rng)
        top = 40 if trial % 2 else 10**12
        p, q = 0, 0
        while gcd(p, q) != 1:
            p, q = rng.randint(1, top), rng.randint(1, top)
        a = (p * u[0] + q * v[0], p * u[1] + q * v[1])
        left, right = cone_parents(u, v, cone_runs(u, v, a))
        assert (left[0] + right[0], left[1] + right[1]) == a
        assert wedge(left, a) == wedge(a, right) == 1
        assert wedge(u, left) >= 0 and wedge(right, v) >= 0
        if top == 40:
            assert (left, right) == mediant_descent(u, v, a)


def test_cone_runs_rejects_bad_input():
    with pytest.raises(ValueError):
        cone_runs((1, 0), (1, 2), (1, 1))  # cone not unimodular
    with pytest.raises(ValueError):
        cone_runs((1, 0), (0, 1), (-1, 1))  # outside the cone
    with pytest.raises(ValueError):
        cone_runs((1, 0), (0, 1), (1, 0))  # on its boundary
    with pytest.raises(ValueError):
        cone_runs((1, 0), (0, 1), (2, 4))  # not primitive


def ref_sort_ccw(rays):
    # the former insertion sort, kept as the ordering oracle
    out = []
    for r in set(rays):
        i = 0
        while i < len(out) and dir_less(out[i], r):
            i += 1
        out.insert(i, r)
    return out


def test_sort_ccw_matches_insertion_sort():
    rng = random.Random(61)
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(300):
        bound = rng.choice((2, 5, 40, 10 ** 6))
        vecs = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(rng.randint(0, 40))]
        rays = [primitive(v) for v in vecs if v != (0, 0)]
        rays += rng.sample(rays, len(rays) // 3) + axes[:rng.randint(0, 4)]
        out = _sort_ccw(rays)
        assert out == ref_sort_ccw(rays)
        assert all(dir_less(a, b) for a, b in zip(out, out[1:]))


def in_sector(a: Vec, b: Vec, v: Vec) -> bool:
    """Is direction v in the half-open sector [a, b), counterclockwise?

    Handles straight and reflex sectors; v need not be primitive.
    """
    if primitive(v) == a:
        return True
    if dir_less(a, b):
        return not dir_less(v, a) and dir_less(v, b)
    return not dir_less(v, a) or dir_less(v, b)


def ref_cone_index(rays, v):
    # the former scan of PLAut.matrix_at, kept as the cone-lookup oracle
    n = len(rays)
    for i in range(n):
        if in_sector(rays[i], rays[(i + 1) % n], v):
            return i
    raise AssertionError("no cone contains %r" % (v,))


def test_cone_index_matches_sector_scan():
    rng = random.Random(67)
    fans = [random_word(rng, rng.randint(1, 6)).rays for _ in range(150)]
    fans = [f for f in fans if f]
    while len(fans) < 250:
        # two rays: one convex or half-turn cone and one reflex cone
        a, b = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in "ab"]
        if a != (0, 0) and b != (0, 0) and primitive(a) != primitive(b):
            fans.append(tuple(_sort_ccw([primitive(a), primitive(b)])))
    fans.append(((1, 0), (-1, 0)))
    # fans of 100 to 300 rays, rotated to start anywhere
    for k in (25, 30, 66):
        fans.append(bump_train(k).rays)
    for _ in range(6):
        vecs = [(rng.randint(-999, 999), rng.randint(-999, 999))
                for _ in range(rng.randint(100, 300))]
        ray_list = _sort_ccw([primitive(v) for v in vecs if v != (0, 0)])
        k = rng.randrange(len(ray_list))
        fans.append(tuple(ray_list[k:] + ray_list[:k]))
    assert sum(len(f) >= 100 for f in fans) == 9
    for rays in fans:
        vecs = [(rng.randint(-20, 20), rng.randint(-20, 20))
                for _ in range(20)]
        vecs += list(rays)  # on a ray
        vecs += [(k * r[0], k * r[1]) for r in rays for k in (2, 7)]
        for v in vecs:
            if v == (0, 0):
                continue
            i = cone_index(rays, v)
            assert i == ref_cone_index(rays, v), (rays, v)
            assert i == cone_index(rays, primitive(v))
        # a ray opens its own cone
        assert [cone_index(rays, r) for r in rays] == list(range(len(rays)))
    assert cone_index(((1, 0), (1, 1)), (1, 0)) == 0
    assert cone_index(((1, 0), (1, 1)), (0, -3)) == 1  # the reflex cone


def bump_train(k, t0=0):
    """An element with 4k + 2 rays: in each cone [a, b] = [(1,t), (1,t+1)]
    for t0 - k <= t < t0 + k, the bump that fixes both walls and sends the
    rays 2a+b, a+b to a+b, a+2b; identity elsewhere.  Neighbouring bumps
    agree across their shared wall, except the two outermost walls."""
    def piece(p, q, p2, q2):
        # the matrix that sends the unimodular pair p, q to p2, q2
        return mat_mul((p2[0], q2[0], p2[1], q2[1]),
                       (q[1], -q[0], -p[1], p[0]))

    rays, mats = [], []
    for t in range(t0 - k, t0 + k):
        a, b = (1, t), (1, t + 1)
        c, d, e = (3, 3 * t + 1), (2, 2 * t + 1), (3, 3 * t + 2)
        rays += [a, c, d]
        mats += [piece(a, c, a, d), piece(c, d, d, e), piece(d, b, e, b)]
    rays.append((1, t0 + k))
    mats.append((1, 0, 0, 1))
    return PLAut(rays, mats)


def ref_compose_pl(f, g):
    # the former composition through from_function, kept as the oracle
    if f.is_linear and g.is_linear:
        return linear_pl(mat_mul(f.mats[0], g.mats[0]))
    ginv = inverse_pl(g)
    hints = list(g.rays) + [ginv(r) for r in f.rays]
    return from_function(lambda v: f(g(v)), hints)


def random_matrix(rng):
    u, v = random_unimodular_cone(rng)
    return (u[0], v[0], u[1], v[1])


def composition_pairs(rng):
    """Pairs (f, g) of each shape the merge has to handle."""
    def conj(m, x):
        return linear_pl(m) * x * linear_pl(mat_inv(m))

    kind = rng.randrange(8)
    if kind == 0:  # both linear
        return linear_pl(random_matrix(rng)), linear_pl(random_matrix(rng))
    if kind == 1:  # one operand linear
        f, g = random_word(rng, rng.randint(1, 8)), linear_pl(random_matrix(rng))
        return (f, g) if rng.random() < 0.5 else (g, f)
    if kind == 2:  # f's rays are g's image rays: M(+-1, 0) = M L(0, -+1)
        m = random_matrix(rng)
        f = linear_pl(random_matrix(rng)) * conj(m, rng.choice((P, MU)))
        g = linear_pl(m) * L * linear_pl(random_matrix(rng))
        assert set(f.rays) <= {g(r) for r in g.rays}
        return f, g
    if kind == 3:  # two-ray fans, whose two cones are half-planes
        return (conj(random_matrix(rng), rng.choice((P, L, MU))),
                conj(random_matrix(rng), rng.choice((P, L, MU))))
    if kind == 4:  # f = g^-1
        g = random_word(rng, rng.randint(1, 10))
        return ~g, g
    if kind == 5:  # U^k P U^-k, large entries
        k = rng.randint(0, 200)
        f = U ** k * P * U ** -k
        g = random_word(rng, rng.randint(1, 6))
        return (f, g) if rng.random() < 0.5 else (g, f)
    if kind == 6:  # many rays
        f = conj(random_matrix(rng), bump_train(rng.randint(1, 8)))
        g = rng.choice((~f, random_word(rng, 6), bump_train(3, 1)))
        return f, g
    return random_word(rng, rng.randint(0, 8)), random_word(rng, rng.randint(0, 8))


def test_compose_matches_from_function_oracle():
    rng = random.Random(71)
    for _ in range(2400):
        f, g = composition_pairs(rng)
        fg = compose_pl(f, g)
        assert fg == ref_compose_pl(f, g), (f, g)
        assert repr(fg) == repr(ref_compose_pl(f, g))
    k = 200
    f = U ** k * P * U ** -k
    assert compose_pl(f, ~f).is_identity()
    assert compose_pl(f, f) == ref_compose_pl(f, f)


def count_dir_less(monkeypatch):
    calls = [0]
    inner = plcore.dir_less

    def counted(u, v):
        calls[0] += 1
        return inner(u, v)

    monkeypatch.setattr(plcore, "dir_less", counted)
    return calls


@pytest.mark.parametrize("f", [U ** 200 * P * U ** -200, bump_train(50)],
                         ids=["conjugated_P", "bump_train"])
def test_compose_is_one_merge(monkeypatch, f):
    # at most a constant times n + m order tests, where from_function sorted
    # and looked up cones; the product with its inverse is the identity,
    # which skips the validation of rays
    g = ~f
    n, m = len(g.rays), len(f.rays)
    calls = count_dir_less(monkeypatch)
    assert compose_pl(f, g).is_identity()
    assert calls[0] <= 2 * (n + m)
    calls[0] = 0
    ff = compose_pl(f, f)
    assert calls[0] <= 5 * (n + m)
    assert ff == ref_compose_pl(f, f)


def test_cone_index_is_a_bisection(monkeypatch):
    rng = random.Random(73)
    rays = bump_train(256).rays
    n = len(rays)
    assert n >= 1000
    bound = 2 * (n - 1).bit_length() + 2  # 2 ceil(log2 n) + 2
    calls = count_dir_less(monkeypatch)
    for v in list(rays) + [(rng.randint(-99, 99), rng.randint(-99, 99))
                           for _ in range(100)] + [(1, -1), (-1, 1)]:
        if v == (0, 0):
            continue
        calls[0] = 0
        cone_index(rays, v)
        assert calls[0] <= bound, v


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        f = random_word(rng, rng.randint(0, 5))
        assert PLAut.from_json(f.to_json()) == f


def test_json_is_clockwise():
    d = P.to_json()
    assert d["orientation"] == "clockwise"
    rays = [tuple(p["ray"]) for p in d["pieces"]]
    # clockwise listing: successive wedges are <= 0 around the circle
    assert rays == [(-1, 0), (1, 0)]
    m = d["pieces"][0]["matrix"]
    assert mat_apply((m[0][0], m[0][1], m[1][0], m[1][1]), (-1, 0)) == P((-1, 0))


def test_json_linear_form():
    d = C.to_json()
    assert d == {"orientation": "clockwise", "linear": [[-1, 1], [-1, 0]]}
    assert PLAut.from_json(d) == C


# ---------------------------------------------------------------------------
# primality

def test_is_prime_agrees_with_sympy_below_20000():
    from sympy import isprime

    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if isprime(n)]


@pytest.mark.parametrize("n", [
    # strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    # Carmichael numbers
    561, 41041,
    # (2^31 + 11) * (the next prime after 2^31 + 10^6)
    4613833553625995599,
    # 2^83 - 1 = 167 * 57912614113275649087721, past the Miller-Rabin bound
    2 ** 83 - 1,
])
def test_is_prime_rejects_pseudoprimes_and_composites(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [
    # birational.PRIMES
    2305843009213693967, 2305843009214693957, 4611686018427388039,
    9223372036854775837,
    2 ** 31 + 11,
    # the Mersenne prime 2^89 - 1, past the Miller-Rabin bound
    2 ** 89 - 1,
])
def test_is_prime_accepts_primes(n):
    assert is_prime(n)


# Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), all three factors
# prime, past the Miller-Rabin bound
CHERNICK_K = (14000240, 14000461, 14000720, 1000000001121)


def test_is_prime_agrees_with_sympy_past_the_bound():
    from sympy import isprime, nextprime

    rng = random.Random(41)
    primes = [nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
              for bits in range(85, 257, 3)]
    semiprimes = [nextprime(rng.getrandbits(bits)) * nextprime(
        rng.getrandbits(170 - bits)) for bits in range(43, 128, 4)]
    carmichael = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                  for k in CHERNICK_K]
    for k in CHERNICK_K:
        assert all(isprime(a * k + 1) for a in (6, 12, 18))
    # composite 2^p - 1 with p prime pass Miller-Rabin to base 2
    mersenne = [2 ** p - 1 for p in (83, 97, 101, 103, 109, 113, 131, 137)]
    odd = [rng.randrange(_MR_EXACT_BELOW, 2 ** 256) | 1 for _ in range(300)]
    cases = primes + semiprimes + carmichael + mersenne + odd
    assert min(cases) >= _MR_EXACT_BELOW
    assert [is_prime(n) for n in cases] == [isprime(n) for n in cases]
    assert all(map(is_prime, primes))
    assert not any(map(is_prime, semiprimes + carmichael + mersenne))
    # the Lucas half of the test is what rejects the base-2 pseudoprimes
    for n in mersenne:
        assert _strong_probable_prime(n, 2)
        assert not _strong_lucas_probable_prime(n)


# the odd composites below 10^5 that pass the strong Lucas test with
# Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569,
                             25199, 40309, 58519, 75077, 97439]


def test_strong_lucas_test_alone():
    from sympy import isprime
    from sympy.ntheory.primetest import is_strong_lucas_prp

    passing = [n for n in range(3, 100000, 2)
               if _strong_lucas_probable_prime(n)]
    assert [n for n in passing if not isprime(n)] == STRONG_LUCAS_PSEUDOPRIMES
    assert passing == [n for n in range(3, 100000, 2)
                       if is_strong_lucas_prp(n)]
    # none of them is a strong pseudoprime to base 2
    assert not any(_strong_probable_prime(n, 2)
                   for n in STRONG_LUCAS_PSEUDOPRIMES)
