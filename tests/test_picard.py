import json
import random
from math import gcd, lcm

import pytest

from sympt import picard, words
from sympt.picard import (
    BreakFn,
    PicVec,
    QPoly,
    ample_A,
    b_vec,
    be_encode,
    chain_vec,
    compose_breakfn,
    cross_basis_report,
    delta_L_action,
    delta_vec,
    e_vec,
    f_prime,
    gamma_action,
    index,
    is_ample,
    is_effective,
    mu_Wq_action,
    mu_Wq_at,
    mu_Wq_inverse,
    mu_be_action,
    mu_p_action,
    mu_p_vector,
    p_basis,
    p_expand,
    p_vec,
    pairing,
    pic_product,
    plpart_vec,
    random_v_vector,
    sigma_v,
    v_membership,
    wedge_form,
    word_acts_as_identity,
    word_operator,
    zero_breakfn,
)
from sympt.plcore import (GEN_MATS, Fan, ccw_key, cone_index, generator_pl,
                          inverse_pl, mat_apply, mat_inv, mat_mul, primitive,
                          wedge)

Q = QPoly((0, 1))
ONE_MINUS_Q = QPoly((1, -1))


def rand_convex(rng):
    """Max of a few integer linear functions, with every crossing ray
    supplied so cone-wise interpolation reproduces the max exactly."""
    ls = [(rng.randint(-3, 3), rng.randint(-3, 3))
          for _ in range(rng.randint(2, 4))]
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            dx, dy = ls[i][0] - ls[j][0], ls[i][1] - ls[j][1]
            if (dx, dy) != (0, 0):
                d = primitive((-dy, dx))
                rays.add(d)
                rays.add((-d[0], -d[1]))
    rays = sorted(rays)
    return BreakFn(rays, [max(a * r[0] + b * r[1] for a, b in ls)
                          for r in rays])


def rand_breakfn(rng):
    # general PL function: difference of two convex ones
    return rand_convex(rng) - rand_convex(rng)


# the fan of test_breakfn_wide_cone_construction_terminates, four of whose
# cones have wedge 7
WIDE_RAYS = [(-5, 3), (-4, 1), (-1, -1), (-1, 0), (-1, 2), (0, -1),
             (0, 1), (1, -2), (1, 0), (1, 1), (4, -1), (5, -3)]


def rand_fan(rng):
    """Rays of a random complete fan, most of whose cones are not
    unimodular."""
    while True:
        vs = [(rng.randint(-4, 4), rng.randint(-4, 4))
              for _ in range(rng.randint(3, 7))]
        rays = sorted({primitive(v) for v in vs if v != (0, 0)}, key=ccw_key)
        try:
            Fan(tuple(rays))
        except ValueError:
            continue
        return rays


def ref_refine(rays, values):
    """The former BreakFn constructor, kept as an oracle: refine the fan to
    a unimodular one by Hirzebruch-Jung rays, interpolating each new value,
    which must be an integer.  Returns the refined rays and the values less
    the linear part that makes them vanish at (1,0) and (0,1)."""
    pairs = sorted(zip(rays, values), key=lambda p: ccw_key(p[0]))
    rays = [r for r, _ in pairs]
    vals = [x for _, x in pairs]
    Fan(tuple(rays))
    i = 0
    while i < len(rays):
        u, fu = rays[i], vals[i]
        w, fw = rays[(i + 1) % len(rays)], vals[(i + 1) % len(rays)]
        d = wedge(u, w)
        if d == 1:
            i += 1
            continue
        # the primitive m inside cone(u, w) with u ^ m = 1 and m ^ w least
        _, s, t = picard.egcd(u[0], u[1])
        m0 = (-t, s)
        shift = (wedge(m0, w) % d - wedge(m0, w)) // d
        m = (m0[0] + shift * u[0], m0[1] + shift * u[1])
        # m = (r*u + w)/d with r = m ^ w, so interpolation forces
        num = fu * wedge(m, w) + fw
        if num % d:
            raise ValueError("function is not integer-valued at %s" % (m,))
        rays.insert(i + 1, m)
        vals.insert(i + 1, num // d)
        i += 1
    a = ref_eval(rays, vals, (1, 0))
    b = ref_eval(rays, vals, (0, 1))
    return rays, [x - a * r[0] - b * r[1] for x, r in zip(vals, rays)]


def ref_eval(rays, vals, v):
    """Linear interpolation on the unimodular fan rays."""
    if v == (0, 0):
        return 0
    k = gcd(*v)
    p = (v[0] // k, v[1] // k)
    i = cone_index(rays, p)
    j = (i + 1) % len(rays)
    return k * (wedge(p, rays[j]) * vals[i] + wedge(rays[i], p) * vals[j])


def ref_indexes(rays, vals):
    """F(u) + F(w) - k F(a) at each ray a of a unimodular fan, from its
    neighbours u + w = k a."""
    out = {}
    n = len(rays)
    for j, a in enumerate(rays):
        u, w = rays[j - 1], rays[(j + 1) % n]
        s = (u[0] + w[0], u[1] + w[1])
        k = s[0] // a[0] if a[0] else s[1] // a[1]
        d = vals[j - 1] + vals[(j + 1) % n] - k * vals[j]
        if d:
            out[a] = d
    return out


def rand_gamma(rng, n=6):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, n)):
        g = GEN_MATS[rng.choice("CI")]
        if rng.random() < 0.5:
            g = mat_inv(g)
        m = mat_mul(g, m)
    return m


def core_word(text):
    return words._core(text)


# ---------------------------------------------------------------------------
# QPoly

def test_qpoly_arithmetic():
    q = QPoly((0, 1))
    assert q * q + 1 - q == QPoly((1, -1, 1))
    assert QPoly((1, 2)).at_one() == 3
    assert (q - q) == 0 and not (q - q)
    assert QPoly((3,)).constant_value() == 3
    with pytest.raises(ValueError):
        q.constant_value()


@pytest.mark.parametrize("n", [0, 3, -2])
def test_constant_qpoly_hashes_like_its_int(n):
    # equal values must hash alike, so a set or dict holds them once
    assert QPoly.const(n) == n and hash(QPoly.const(n)) == hash(n)
    assert len({n, QPoly.const(n)}) == 1
    assert {n: "int", QPoly.const(n): "poly"} == {n: "poly"}
    assert n in {QPoly.const(n)} and QPoly.const(n) in {n}
    assert QPoly((n, 1)) not in {n}


# ---------------------------------------------------------------------------
# BreakFn and the index

def test_ample_function_values_and_indexes():
    A = ample_A()
    assert A((0, -1)) == 1 and A((0, 1)) == 0
    assert A((-2, -3)) == 3 and A((5, 7)) == 0
    assert index(A, (1, 0)) == 1
    assert index(A, (-1, 0)) == 1
    assert index(A, (0, 1)) == 0
    assert A.indexes() == {(1, 0): 1, (-1, 0): 1}


def test_index_requires_primitive_ray():
    with pytest.raises(ValueError):
        index(ample_A(), (2, 0))


def test_index_zero_at_linear_rays_and_additive():
    rng = random.Random(11)
    for _ in range(30):
        F, G = rand_breakfn(rng), rand_breakfn(rng)
        a = primitive((rng.randint(-4, 4), rng.randint(-4, 4) or 1))
        assert index(F + G, a) == index(F, a) + index(G, a)
    lin = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (2, -3, -2, 3))
    assert lin.is_linear()
    for a in [(1, 0), (0, 1), (1, 2), (-3, 1)]:
        assert index(lin, a) == 0


def test_index_shift_independence():
    rng = random.Random(23)
    for _ in range(100):
        F = rand_breakfn(rng)
        a = (0, 0)
        while a == (0, 0):
            a = (rng.randint(-5, 5), rng.randint(-5, 5))
        a = primitive(a)
        vals = {index(F, a, shift=s) for s in (0, 1, 2, 5)}
        assert len(vals) == 1
    # at shift -1 the companions (1, 0), (-1, 0) of a = (0, 1) move across
    # the bends of ample_A, and F(u) + F(w) - k F(a) read 2, not 0
    with pytest.raises(ValueError, match="shift must be at least 0, got -1"):
        index(ample_A(), (0, 1), shift=-1)


def integral_values(rays, rng):
    """Random values on the rays of a fan, each a multiple of every cone's
    wedge, so that every cone's linear form is integral."""
    ccw = sorted(rays, key=ccw_key)
    d = lcm(*(wedge(r, s) for r, s in zip(ccw, ccw[1:] + ccw[:1])))
    return [d * rng.randint(-3, 3) for _ in rays]


def test_unimodular_companions_stay_in_the_cone():
    rng = random.Random(59)
    wide = 0
    for n in range(80):
        if n < 40:
            F = rand_breakfn(rng)
        else:
            rays = rand_fan(rng) if n % 4 else WIDE_RAYS
            F = BreakFn(rays, integral_values(rays, rng))
        picks = [primitive((rng.randint(-10**6, 10**6),
                            rng.randint(-10**6, 10**6) or 1))
                 for _ in range(10)]
        for a in picks + list(F._rays):
            u, w = picard._companions(F, a)
            assert wedge(u, a) == wedge(a, w) == 1
            s = (u[0] + w[0], u[1] + w[1])
            k = s[0] // a[0] if a[0] else s[1] // a[1]
            assert s == (k * a[0], k * a[1])
            # no ray of F lies strictly between u and a or between a and w,
            # so each lies in a cone next to a, where F is linear
            assert not any(wedge(u, r) > 0 and wedge(r, a) > 0
                           for r in F._rays)
            assert not any(wedge(a, r) > 0 and wedge(r, w) > 0
                           for r in F._rays)
            assert F(u) + F(w) - k * F(a) == F.indexes().get(a, 0)
            i = cone_index(F._rays, u)
            wide += wedge(F._rays[i], F._rays[(i + 1) % len(F._rays)]) > 1
    # u lies in a cone of wedge > 1 in 852 of the 1619 cases
    assert wide >= 500


def test_breakfn_matches_the_refinement_oracle():
    rng = random.Random(2027)
    cases = [(WIDE_RAYS, [24, 15, 5, 3, 9, 2, 3, 1, 0, 3, -3, -9])]
    for n in range(100):
        rays = rand_fan(rng) if n % 5 else WIDE_RAYS
        G = rand_breakfn(rng)
        table = G.to_json()
        cases += [(rays, [rng.randint(-6, 6) for _ in rays]),
                  (rays, integral_values(rays, rng)),
                  (rays, [G(r) for r in rays]),
                  ([tuple(r) for r in table["rays"]], table["values"])]
    grid = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    accepted = wide = 0
    for rays, values in cases:
        try:
            ref_rays, ref_vals = ref_refine(rays, values)
        except ValueError:
            with pytest.raises(ValueError, match="not integer-valued"):
                BreakFn(rays, values)
            continue
        F = BreakFn(rays, values)
        assert F.indexes() == ref_indexes(ref_rays, ref_vals)
        assert [F(v) for v in grid] == [ref_eval(ref_rays, ref_vals, v)
                                        for v in grid]
        accepted += 1
        wide += len(ref_rays) > len(set(rays))
    # most accepted fans are not unimodular, and about half the cases are
    # refused
    assert len(cases) == 401
    assert accepted >= 200 and wide >= 200 and len(cases) - accepted >= 150


def test_breakfn_equality_mod_linear():
    A = ample_A()
    # add the linear function x - 2y: same class
    shifted = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (1, -2, -1, 3))
    assert shifted == A
    assert hash(shifted) == hash(A)
    # same function described on a bigger fan
    big = BreakFn(((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
                  (0, 0, 0, 0, 1, 1))
    assert big == A
    assert zero_breakfn() != A
    assert zero_breakfn().is_linear()


def test_breakfn_refinement_and_integrality():
    F = BreakFn(((1, 0), (1, 2), (-1, 0), (0, -1)), (0, 2, 0, 1))
    assert F((1, 1)) == F((1, 1))  # evaluation defined everywhere
    with pytest.raises(ValueError):
        BreakFn(((1, 0), (1, 2), (-1, 0), (0, -1)), (0, 1, 0, 1))


def test_breakfn_wide_cone_construction_terminates():
    # this fan drove a naive mediant refinement into an infinite loop
    rays = WIDE_RAYS
    vals = [24, 15, 5, 3, 9, 2, 3, 1, 0, 3, -3, -9]
    F = BreakFn(rays, vals)
    assert is_ample(F)
    for r, v in zip(rays, vals):
        assert F(r) - v == F(r) - v  # defined; class equality below
    G = BreakFn(rays, [v + 2 * r[0] - r[1] for r, v in zip(rays, vals)])
    assert F == G


def test_breakfn_json_shape_and_roundtrip():
    A = ample_A()
    data = A.to_json()
    assert data == {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                    "values": [0, 0, 0, 1]}
    assert BreakFn.from_json(json.loads(json.dumps(data))) == A
    rng = random.Random(4)
    for _ in range(20):
        F = rand_breakfn(rng)
        assert BreakFn.from_json(F.to_json()) == F


AMPLE_TABLE = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
               "values": [0, 0, 0, 1]}


@pytest.mark.parametrize("cls, data, message", [
    (BreakFn, [1], "a BreakFn document is a JSON object, got [1]"),
    (BreakFn, {"rays": AMPLE_TABLE["rays"]},
     "a BreakFn document holds the keys rays, values, got %r"
     % ({"rays": AMPLE_TABLE["rays"]},)),
    (BreakFn, {**AMPLE_TABLE, "rays": 4}, "rays must be a list of rays, got 4"),
    (PicVec, "e", "a PicVec document is a JSON object, got 'e'"),
    (PicVec, {"terms": {}}, "terms must be a list of term objects, got {}"),
    (PicVec, {"terms": [5]}, "a PicVec term document is a JSON object, got 5"),
    (PicVec, {"terms": [{"family": "e", "arg": [1, 0], "coef": [1]}]},
     "a PicVec term document holds the keys arg, level, got "
     "{'family': 'e', 'arg': [1, 0], 'coef': [1]}"),
    (PicVec, {"terms": [{"family": "plpart", "coef": [1]}]},
     "a PicVec term document holds the keys fn, got "
     "{'family': 'plpart', 'coef': [1]}"),
    (PicVec, {"terms": [{"family": "plpart", "coef": [1], "fn": [1]}]},
     "a BreakFn document is a JSON object, got [1]"),
], ids=["fn-not-object", "fn-missing-key", "fn-non-list", "vec-not-object",
        "vec-non-list", "term-not-object", "term-missing-level",
        "term-missing-fn", "term-fn-not-object"])
def test_from_json_refuses_a_malformed_document(cls, data, message):
    with pytest.raises(ValueError) as exc:
        cls.from_json(data)
    assert str(exc.value) == message


def test_pairing_examples():
    A = ample_A()
    assert pairing(A, {(1, 0): 1}) == 1
    assert pairing(A, {(0, 1): 1}) == 0
    assert pairing(A, {(1, 0): 2, (-1, 0): 3, (0, 1): 7}) == 5
    lin = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (5, -1, -5, 1))
    assert pairing(lin, {(1, 0): 4, (2, 1): 9}) == 0


def test_ample_effective_predicates():
    A = ample_A()
    assert is_ample(A)
    assert not is_ample((-1) * A)
    assert is_ample(zero_breakfn()) and is_effective({})
    assert is_effective({(1, 0): 2, (0, 1): 0})
    assert not is_effective({(1, 0): -1})


def test_convex_functions_are_ample_and_pair_nonnegatively():
    rng = random.Random(5)
    for _ in range(100):
        F = rand_convex(rng)
        assert is_ample(F)
        G = {a: rng.randint(0, 3) for a in F.indexes()}
        assert is_effective(G)
        assert pairing(F, G) >= 0


# ---------------------------------------------------------------------------
# PicVec bookkeeping

def test_picvec_validation():
    with pytest.raises(ValueError):
        b_vec((2, 4))
    with pytest.raises(ValueError):
        delta_vec((1, 0), 0)
    with pytest.raises(ValueError):
        PicVec([(("p", (0, 0)), 1)])
    with pytest.raises(ValueError):
        PicVec([(("nope", (1, 0)), 1)])
    assert e_vec((0, 0)).is_zero()
    assert p_vec((0, 0)).is_zero()


def test_picvec_algebra_and_merging():
    x = b_vec((1, 0)) + b_vec((1, 0)) - 2 * b_vec((1, 0))
    assert x.is_zero()
    y = e_vec((3, 0))  # content 3 along (1,0)
    assert y.coefficient(("e", (1, 0), 3)) == 1
    assert e_vec((-2, 0)) == e_vec((-1, 0), level=2)
    z = Q * delta_vec((1, 0), 1) + delta_vec((1, 0), 1)
    assert z.coefficient(("delta", (1, 0), 1)) == QPoly((1, 1))


def test_plpart_terms_merge_inside_picvec():
    A = ample_A()
    B = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (1, 1, 0, 0))
    assert plpart_vec(A) + plpart_vec(B) == plpart_vec(A + B)
    assert (plpart_vec(A) - plpart_vec(A)).is_zero()
    lin = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (1, -1, -1, 1))
    assert plpart_vec(lin).is_zero()


def test_picvec_json_shape_and_roundtrip():
    x = 2 * delta_vec((0, 1), 3)
    assert x.to_json() == {"terms": [{"family": "delta", "arg": [0, 1],
                                      "level": 3, "coef": [2]}]}
    mixed = (f_prime(ample_A()) + Q * e_vec((2, -4)) - chain_vec((1, 1))
             + p_vec((3, 5)))
    data = json.loads(json.dumps(mixed.to_json()))
    assert PicVec.from_json(data) == mixed


@pytest.mark.parametrize("x, term, text", [
    (b_vec((1, -2)), {"family": "b", "arg": [1, -2], "coef": [1]},
     "(1)*b(1, -2)"),
    (Q * e_vec((2, -4)),
     {"family": "e", "arg": [1, -2], "level": 2, "coef": [0, 1]},
     "(q)*e(1, -2)^2"),
    (-3 * delta_vec((0, 1), 2),
     {"family": "delta", "arg": [0, 1], "level": 2, "coef": [-3]},
     "(-3)*delta(0, 1)^2"),
    (p_vec((2, -4)), {"family": "p", "arg": [2, -4], "coef": [1]},
     "(1)*p(2, -4)"),
    (chain_vec((1, 1)), {"family": "chain", "arg": [1, 1], "coef": [1]},
     "(1)*chain(1, 1)"),
    (2 * plpart_vec(ample_A()),
     {"family": "plpart", "fn": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                 "values": [0, 0, 0, 2]}, "coef": [1]},
     "(1)*plpart[BreakFn((-1, 0):2, (1, 0):2)]"),
], ids=["b", "e", "delta", "p", "chain", "plpart"])
def test_each_family_round_trips_through_json(x, term, text):
    data = x.to_json()
    assert data == {"terms": [term]}
    assert list(data["terms"][0]) == list(term)  # key order
    assert PicVec.from_json(json.loads(json.dumps(data))) == x
    assert repr(x) == "PicVec(%s)" % text


@pytest.mark.parametrize("term, text", [
    ({"family": "b", "arg": [2, 4]}, "ray index must be primitive"),
    ({"family": "chain", "arg": [0, 3]}, "ray index must be primitive"),
    ({"family": "e", "arg": [2, -2], "level": 1},
     "ray index must be primitive"),
    ({"family": "delta", "arg": [0, 0], "level": 1},
     "ray index must be primitive"),
    ({"family": "e", "arg": [1, 0], "level": 0}, "level must be >= 1"),
    ({"family": "p", "arg": [0, 0]}, "p key cannot be the origin"),
    ({"family": "nope", "arg": [1, 0]}, "unknown symbol family 'nope'"),
], ids=["b", "chain", "e", "delta", "e-level", "p", "unknown"])
def test_from_json_refuses_a_malformed_key(term, text):
    with pytest.raises(ValueError, match=text):
        PicVec.from_json({"terms": [{**term, "coef": [1]}]})


def _combination(rng, keys, coeffs):
    return PicVec([(rng.choice(keys), rng.choice(coeffs))
                   for _ in range(rng.randint(1, 4))])


# each map with keys whose images overlap, so that terms merge
QCOEFFS = (1, -2, Q, ONE_MINUS_Q)
LINEAR_MAPS = {
    "mu_be_action": (
        lambda x: mu_be_action(x, (1, 0)),
        [("b", (1, 0)), ("b", (-1, 0)), ("b", (0, -1)), ("b", (1, -1)),
         ("b", (0, 1)), ("e", (1, 0), 1), ("e", (1, 0), 2),
         ("e", (-1, 0), 1)], QCOEFFS),
    "mu_p_vector": (
        lambda x: mu_p_vector(x, (1, 0)),
        [("p", (0, -1)), ("p", (1, -1)), ("p", (2, -1)), ("p", (-2, 0)),
         ("p", (1, 0)), ("p", (1, 1))], QCOEFFS),
    "mu_Wq_at": (
        lambda x: mu_Wq_at(x, (2, -3)),
        [("e", (2, -3), 1), ("e", (-2, 3), 1), ("e", (1, 1), 2),
         ("e", (-1, 0), 1), ("e", (1, -1), 1)], QCOEFFS),
    # plpart coefficients are integers
    "gamma_action": (
        lambda x: gamma_action(x, GEN_MATS["C"]),
        [("b", (1, 0)), ("e", (0, 1), 2), ("delta", (1, 1), 1),
         ("p", (2, 2)), ("chain", (1, -1)), ("plpart", ample_A()),
         ("plpart", BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)),
                            (1, 1, 0, 0)))], (1, -2, 3)),
    "delta_L_action": (
        delta_L_action,
        [("delta", (0, 1), 1), ("delta", (0, 1), 2), ("delta", (0, -1), 1),
         ("delta", (1, 1), 1), ("plpart", ample_A())], (1, -2, 3)),
}


@pytest.mark.parametrize("name", sorted(LINEAR_MAPS))
def test_actions_are_linear(name):
    f, keys, coeffs = LINEAR_MAPS[name]
    rng = random.Random(11)
    overlaps = 0
    for _ in range(40):
        x = _combination(rng, keys, coeffs)
        y = _combination(rng, keys, coeffs)
        c = rng.choice(coeffs)
        fx, fy = f(x), f(y)
        assert f(x + c * y) == fx + c * fy
        overlaps += bool(set(fx.terms) & set(fy.terms))
    assert overlaps >= 10


# ---------------------------------------------------------------------------
# the L-action on towers

def test_L_action_examples():
    for k in (1, 2, 5):
        assert delta_L_action(delta_vec((0, -1), k)) == delta_vec((1, 0), k + 1)
    assert delta_L_action(delta_vec((0, 1), 1)) == (
        -delta_vec((1, 0), 1) + plpart_vec(ample_A()))
    assert delta_L_action(delta_vec((0, 1), 2)) == delta_vec((-1, 0), 1)
    assert delta_L_action(delta_vec((1, 1), 2)) == delta_vec((-1, 1), 2)


def test_L_action_rejects_other_families():
    with pytest.raises(ValueError):
        delta_L_action(b_vec((1, 0)))


def test_L_action_has_order_five():
    vectors = [
        delta_vec((1, 1), 1),
        delta_vec((0, -1), 3),
        delta_vec((0, 1), 1),
        delta_vec((0, 1), 2),
        plpart_vec(ample_A()),
        f_prime(ample_A()),
        delta_vec((2, 1), 2) + 3 * delta_vec((0, 1), 1) - plpart_vec(ample_A()),
    ]
    for x0 in vectors:
        x = x0
        for _ in range(5):
            x = delta_L_action(x)
        assert x == x0


def test_L_action_preserves_products_where_defined():
    a = delta_vec((0, -1), 2)
    assert pic_product(a, a) == -1
    la = delta_L_action(a)
    assert pic_product(la, la) == -1
    x, y = delta_vec((0, 1), 1), delta_vec((0, 1), 2)
    assert pic_product(x, y) == 0
    assert pic_product(delta_L_action(x), delta_L_action(y)) == 0


def test_pic_product_rules():
    assert pic_product(delta_vec((1, 0), 2), delta_vec((1, 0), 2)) == -1
    assert pic_product(delta_vec((1, 0), 1), delta_vec((0, 1), 1)) == 0
    assert pic_product(delta_vec((1, 0), 1), delta_vec((1, 0), 2)) == 0
    A = ample_A()
    assert pic_product(delta_vec((1, 0), 1), plpart_vec(A)) == 0
    assert pic_product(plpart_vec(A), chain_vec((1, 0))) == 1
    assert pic_product(chain_vec((0, 1)), plpart_vec(A)) == 0
    for x, y in [(plpart_vec(A), plpart_vec(A)),
                 (chain_vec((1, 0)), chain_vec((1, 0))),
                 (b_vec((1, 0)), b_vec((1, 0)))]:
        with pytest.raises(ValueError, match="product undefined"):
            pic_product(x, y)


def test_f_prime_and_be_encode():
    A = ample_A()
    assert f_prime(A) == (plpart_vec(A) - delta_vec((1, 0), 1)
                          - delta_vec((-1, 0), 1))
    lin = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (1, 0, -1, 0))
    assert f_prime(lin).is_zero()
    assert be_encode(A) == b_vec((1, 0)) + b_vec((-1, 0))
    assert be_encode(lin).is_zero()
    hinge = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (1, 1, 0, 0))
    assert be_encode(hinge) == (b_vec((1, 0)) + b_vec((0, 1))
                                + b_vec((-1, 0)) + b_vec((0, -1)))


def test_be_encode_checksum_holds_on_random_functions():
    """The multiset of indexes always sums to zero as a lattice vector."""
    rng = random.Random(17)
    for _ in range(50):
        F = rand_breakfn(rng)
        vec = be_encode(F)  # raises internally if the checksum fails
        total = (0, 0)
        for key, c in vec.terms.items():
            a = key[1]
            n = c.constant_value()
            total = (total[0] + n * a[0], total[1] + n * a[1])
        assert total == (0, 0)


def test_f_prime_additive():
    rng = random.Random(31)
    for _ in range(20):
        F, G = rand_breakfn(rng), rand_breakfn(rng)
        assert f_prime(F) + f_prime(G) == f_prime(F + G)


# ---------------------------------------------------------------------------
# sigma and the mutation actions

def test_sigma_values():
    assert sigma_v((0, 1), (1, 0)) == (0, 1)
    assert sigma_v((0, -1), (1, 0)) == (1, -1)
    assert sigma_v((2, 0), (1, 0)) == (1, 0)
    assert sigma_v((-1, 0), (1, 0)) == (-2, 0)
    assert sigma_v((1, 0), (1, 0)) == (0, 0)  # flag value, callers drop it
    with pytest.raises(ValueError):
        sigma_v((0, 0), (1, 0))
    with pytest.raises(ValueError):
        sigma_v((1, 1), (2, 0))


def test_sigma_gamma_conjugation():
    rng = random.Random(2)
    v = (1, 0)
    for _ in range(60):
        m = rand_gamma(rng, 5)
        w = (rng.randint(-4, 4), rng.randint(-4, 4))
        if w == (0, 0):
            continue
        lhs = sigma_v(mat_apply(m, w), mat_apply(m, v))
        s = sigma_v(w, v)
        rhs = mat_apply(m, s) if s != (0, 0) else (0, 0)
        assert lhs == rhs


def test_mu_be_rules():
    v = (1, 0)
    nv = (-1, 0)
    assert mu_be_action(b_vec(v), v) == -b_vec(nv)
    assert mu_be_action(b_vec(nv), v) == e_vec(nv, level=1) + b_vec(nv)
    assert mu_be_action(e_vec(v, level=1), v) == b_vec(v) + b_vec(nv)
    assert mu_be_action(e_vec(v, level=3), v) == e_vec(v, level=2)
    assert mu_be_action(e_vec(nv, level=2), v) == e_vec(nv, level=3)
    # w ^ v > 0: pure index move
    assert mu_be_action(b_vec((0, -1)), v) == b_vec((1, -1))
    # w ^ v < 0: correction weighted by v ^ w
    w = (0, 1)
    img = mu_be_action(b_vec(w), v)
    assert img == b_vec((0, 1)) + wedge(v, w) * b_vec(nv)
    assert wedge(v, w) == 1
    # conjugated placement at v=(0,1)
    assert mu_be_action(b_vec((1, -1)), (0, 1)) == b_vec((1, 0))
    with pytest.raises(ValueError):
        mu_be_action(delta_vec((1, 0), 1), v)


def test_p_basis_values():
    v = (1, 0)
    assert p_basis(1, v) == b_vec(v)
    assert p_basis(2, v) == e_vec(v, level=1) + 2 * b_vec(v)
    assert p_basis(3, v) == (2 * e_vec(v, level=1) + e_vec(v, level=2)
                             + 3 * b_vec(v))
    assert p_expand((0, 0)).is_zero()
    assert p_expand((-2, 0)) == p_basis(2, (-1, 0))
    with pytest.raises(ValueError):
        p_basis(0, v)


def test_mu_p_values():
    v = (1, 0)
    assert mu_p_action(v, v) == -p_vec((-1, 0))
    assert mu_p_action((2, 0), v) == p_vec((1, 0)) - p_vec((-1, 0))
    assert mu_p_action((-3, 0), v) == p_vec((-4, 0)) - p_vec((-1, 0))
    # w ^ v < 0 carries no correction; w ^ v > 0 adds p at -v
    assert mu_p_action((1, 1), v) == p_vec((1, 1))
    assert mu_p_action((0, -1), v) == p_vec((1, -1)) + p_vec((-1, 0))
    img = mu_p_action((0, 1), v)
    assert img == p_vec((0, 1))
    assert img.coefficient(("p", (-1, 0))) == 0


def test_mu_be_matches_p_rule_on_collinear_vectors():
    v = (1, 0)
    for k in (1, 2, 3, 4):
        for sgn in (1, -1):
            w = (sgn * k, 0)
            via_be = mu_be_action(p_expand(w), v)
            expected = PicVec()
            for key, c in mu_p_action(w, v).terms.items():
                expected = expected + c * p_expand(key[1])
            assert via_be == expected


def expand_p_symbols(x):
    # a vector of p symbols in the b/e basis, by p_expand
    out = PicVec()
    for key, c in x.terms.items():
        out = out + c * p_expand(key[1])
    return out


def test_be_and_p_rules_differ_by_the_wedge_term():
    # on one p symbol the b/e rules and the p rule differ by
    # -wedge(w, v) b_{-v}; on x that is -wedge(pi(x), v) b_{-v}, which
    # vanishes on the kernel of pi, where be_encode lands
    v, nv = (1, 0), (-1, 0)
    ws = [(a, b) for a in range(-9, 10) for b in range(-9, 10)
          if (a, b) != (0, 0)]
    assert len(ws) == 360
    for w in ws:
        diff = (mu_be_action(p_expand(w), v)
                - expand_p_symbols(mu_p_action(w, v)))
        assert diff == -wedge(w, v) * b_vec(nv), w


def test_be_encode_intertwines_mu_on_functions_linear_at_v():
    # be_encode(F o mu^-1) = mu_be_action(be_encode(F), v) for F that do
    # not break at +-v, with mu the PL map of the b/e rules
    v, nv = (1, 0), (-1, 0)
    mu_inv = inverse_pl(generator_pl("mu"))
    rng = random.Random(3)
    checked = 0
    for _ in range(400):
        F = rand_breakfn(rng)
        if F.indexes().get(v) or F.indexes().get(nv):
            continue
        checked += 1
        assert (be_encode(compose_breakfn(F, mu_inv))
                == mu_be_action(be_encode(F), v)), F
    assert checked >= 150


def test_cross_basis_report_refuses_more_samples_than_vectors():
    # 80 vectors w != 0 have |w_x|, |w_y| <= 4, and no w is drawn twice
    rep = cross_basis_report(samples=80, seed=3)
    assert len({tuple(e["w"]) for e in rep["samples"]}) == 80
    for samples in (0, 81, 10**6):
        with pytest.raises(ValueError, match="between 1 and 80,"):
            cross_basis_report(samples=samples)


def test_cross_basis_report_structure():
    rep = cross_basis_report(samples=25, seed=1)
    assert rep["vector"] == [1, 0]
    assert len(rep["samples"]) == 25
    assert "conventions" in rep and "note" in rep
    for s in rep["samples"]:
        # the q=1 action always reproduces the p rule
        assert s["wq_matches_p_rule"]
        w = tuple(s["w"])
        if wedge(w, (1, 0)) == 0:
            assert s["be_matches_p_rule"]
        else:
            # orientation mismatch of the correction term, documented
            assert not s["be_matches_p_rule"]
            assert "witness" in s
    assert rep["mismatches"] == sum(
        1 for s in rep["samples"] if not s["be_matches_p_rule"])


# ---------------------------------------------------------------------------
# the W[q] model

def test_wq_action_values():
    assert mu_Wq_action(e_vec((0, 1))) == (
        e_vec((0, 1)) + ONE_MINUS_Q * e_vec((-1, 0)))
    assert mu_Wq_action(e_vec((1, -1))) == (
        e_vec((2, -1)) + Q * e_vec((-1, 0)))
    assert mu_Wq_action(e_vec((1, 0))) == -e_vec((-1, 0))
    assert mu_Wq_action(e_vec((3, 0))) == e_vec((2, 0)) - e_vec((-1, 0))
    with pytest.raises(ValueError):
        mu_Wq_action(b_vec((1, 0)))


def test_wq_action_invertible():
    rng = random.Random(8)
    for _ in range(50):
        x = random_v_vector(rng)
        assert mu_Wq_inverse(mu_Wq_action(x)) == x
        assert mu_Wq_action(mu_Wq_inverse(x)) == x


def ref_wq_at(x, v):
    # the former conjugation by gamma_action on both sides of mu_Wq_action
    if v == (1, 0):
        return mu_Wq_action(x)
    g, s, t = picard.egcd(v[0], v[1])
    m = (v[0], -t, v[1], s)
    return gamma_action(mu_Wq_action(gamma_action(x, mat_inv(m))), m)


def test_wq_mutation_along_a_direction_matches_conjugation():
    rng = random.Random(19)
    checked = 0
    while checked < 400:
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0) or primitive(v) != v:
            continue
        x = random_v_vector(rng, rng.randint(1, 5))
        assert mu_Wq_at(x, v) == ref_wq_at(x, v), (x, v)
        checked += 1
    x = random_v_vector(rng)
    assert mu_Wq_at(x, (1, 0)) == mu_Wq_action(x)
    with pytest.raises(ValueError, match="must be primitive"):
        mu_Wq_at(x, (2, 4))
    with pytest.raises(ValueError, match="needs e terms"):
        mu_Wq_at(b_vec((1, 0)), (0, 1))


def test_v_membership():
    assert v_membership(e_vec((1, 1)) - e_vec((1, 0)) - e_vec((0, 1)))
    assert v_membership(2 * e_vec((1, 0)) - e_vec((2, 0)))
    assert not v_membership(e_vec((1, 0)))
    assert v_membership(e_vec((1, 0)) - e_vec((1, 0)))


def test_v_invariance():
    rng = random.Random(13)
    for _ in range(50):
        x = random_v_vector(rng)
        assert v_membership(x)
        assert v_membership(mu_Wq_action(x))
        assert v_membership(mu_Wq_inverse(x))
        assert v_membership(gamma_action(x, rand_gamma(rng)))


def test_wedge_form_values():
    assert wedge_form(e_vec((1, 0)), e_vec((0, 1))) == 1
    assert wedge_form(e_vec((0, 1)), e_vec((1, 0))) == -1
    x = e_vec((2, 1)) + Q * e_vec((0, -1))
    assert wedge_form(x, x) == 0
    assert wedge_form(e_vec((2, 0)), e_vec((1, 1))) == 2
    with pytest.raises(ValueError):
        wedge_form(b_vec((1, 0)), e_vec((0, 1)))


def test_wedge_preserved_exactly():
    """Invariance in Z[q] under the mutation and under Gamma words."""
    rng = random.Random(21)
    gammas = [rand_gamma(rng) for _ in range(20)]
    for _ in range(50):
        x, y = random_v_vector(rng), random_v_vector(rng)
        w = wedge_form(x, y)
        assert wedge_form(mu_Wq_action(x), mu_Wq_action(y)) == w
        m = gammas[rng.randrange(len(gammas))]
        assert wedge_form(gamma_action(x, m), gamma_action(y, m)) == w


def test_gamma_action_on_families():
    C = GEN_MATS["C"]
    x = (b_vec((1, 0)) + delta_vec((0, 1), 2) + p_vec((2, 3))
         + chain_vec((1, 1)) + plpart_vec(ample_A()))
    y = x
    for _ in range(3):
        y = gamma_action(y, C)
    assert y == x
    I = GEN_MATS["I"]
    assert gamma_action(e_vec((1, 0)), I) == e_vec((0, 1))
    # pull-back on the PL part: A o I^-1 = max(0, x)
    img = gamma_action(plpart_vec(ample_A()), I)
    assert img == plpart_vec(
        BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)), (1, 0, 0, 0)))


# ---------------------------------------------------------------------------
# the word action on V

def test_h_relations_act_as_identity_at_q1():
    for rel in ["C^3", "I^4", "P^5", "P C P I^-1", "C I^2 C^-1 I^-2"]:
        word = core_word(rel)
        report = word_acts_as_identity(word, nvectors=20, seed=0)
        assert report["identity"], rel
        # generic-q behavior is reported, not asserted
        assert "identity_in_Zq" in report["evidence"]
        assert report["evidence"]["vectors"] == 20


def test_h_suite_passes_on_lattice_backend():
    rep = words.check_suite("H", backend="picard",
                            params={"seed": 0, "nvectors": 20})
    assert rep["ok"]
    assert all(r["verdict"] == "pass" for r in rep["results"])


def test_word_operator_composition_and_failure_witness():
    rng = random.Random(3)
    op = word_operator(core_word("P C P"))
    oi = word_operator(core_word("I"))
    for _ in range(10):
        x = random_v_vector(rng)
        assert op(x) == oi(x)
    bad = word_acts_as_identity(core_word("C"), nvectors=8, seed=1)
    assert not bad["identity"]
    assert "witness" in bad["evidence"]
    # the API names its own parameter; the CLI names the --trials flag
    with pytest.raises(ValueError, match="nvectors must be at least 1"):
        word_acts_as_identity(core_word("C"), nvectors=0)


def test_seven_power_detects_kernel_element():
    # (I mu)^7 with mu = I P is trivial in the circle models but moves
    # lattice vectors, mirroring the behavior of the rational maps
    word = (("I", 1), ("I", 1), ("P", 1)) * 7
    report = word_acts_as_identity(word, nvectors=10, seed=5)
    assert not report["identity"]
    five = (("I", -1), ("I", 1), ("P", 1)) * 5
    assert word_acts_as_identity(five, nvectors=10, seed=5)["identity"]


def _reference_mu(x, sign):
    """The canonical mutation (sign 1) or its inverse, term by term in
    PicVec arithmetic."""
    t = e_vec((-sign, 0))
    out = PicVec()
    for (fam, a, k), c in x.terms.items():
        wx, wy = k * a[0], k * a[1]
        if wy > 0:
            img = e_vec((wx, wy)) + (ONE_MINUS_Q * wy) * t
        elif wy < 0:
            img = e_vec((wx - sign * wy, wy)) - (Q * wy) * t
        else:
            img = e_vec((wx - sign, 0)) - t
        out = out + c * img
    return out


def _reference_apply(word, x):
    """The word action letter by letter through the public maps:
    P = I^-1 mu and P^-1 = mu^-1 I, C and I by gamma_action."""
    I = GEN_MATS["I"]
    for sym, exp in reversed(word):
        for _ in range(abs(exp)):
            if sym == "P" and exp > 0:
                x = gamma_action(mu_Wq_action(x), mat_inv(I))
            elif sym == "P":
                x = mu_Wq_inverse(gamma_action(x, I))
            else:
                m = GEN_MATS[sym]
                x = gamma_action(x, m if exp > 0 else mat_inv(m))
    return x


def _reference_identity(word, nvectors=20, seed=0):
    rng = random.Random(seed)
    exact = at_one = True
    witness = None
    for _ in range(nvectors):
        x = random_v_vector(rng)
        y = _reference_apply(word, x)
        exact = exact and y == x
        if y.at_one() != x.at_one():
            at_one = False
            if witness is None:
                witness = {"vector": x.to_json(), "image": y.to_json()}
        assert v_membership(y)
    evidence = {"vectors": nvectors, "identity_at_q1": at_one,
                "identity_in_Zq": exact}
    if witness:
        evidence["witness"] = witness
        evidence["exact"] = True
    return {"identity": at_one, "evidence": evidence}


def _random_q_vector(rng):
    return (random_v_vector(rng) + Q * random_v_vector(rng)
            - (Q * Q) * random_v_vector(rng))


def test_wq_action_matches_picvec_arithmetic():
    rng = random.Random(17)
    for _ in range(100):
        x = _random_q_vector(rng)
        assert mu_Wq_action(x) == _reference_mu(x, 1)
        assert mu_Wq_inverse(x) == _reference_mu(x, -1)


def test_mu_mutation_is_the_word_action_of_mu():
    # mu = I P compiles to the one step mu_Wq_action runs, and mu^-1 to
    # mu_Wq_inverse's; vectors off V make the steps carry
    rng = random.Random(61)
    mu = word_operator(words._core("mu"))
    mu_inv = word_operator(words.word_inverse(words._core("mu")))
    outside = 0
    for _ in range(200):
        x = _random_q_vector(rng) + (
            QPoly((rng.randint(-3, 3), rng.randint(-3, 3)))
            * e_vec((rng.randint(-3, 3), rng.randint(1, 3))))
        outside += not v_membership(x)
        assert mu_Wq_action(x) == mu(x)
        assert mu_Wq_inverse(x) == mu_inv(x)
    assert outside > 150


def test_compiled_operator_matches_letter_by_letter_action():
    rng = random.Random(29)
    for _ in range(100):
        word = tuple((rng.choice("PCI"), rng.choice((-2, -1, 1, 2)))
                     for _ in range(rng.randint(0, 60)))
        x = _random_q_vector(rng)
        # exact equality in Z[q], not only at q = 1
        assert word_operator(word)(x) == _reference_apply(word, x), word


def _qpoly_mutate(raw, sign, m):
    """The mutation kernel on {(a, k): coefficient tuple} with one Z[q]
    list per e_t coefficient, as it stood before the kernel moved to
    integer layers; the oracle for _mutate and the loop _run."""
    m0, m1, m2, m3 = m
    out = {}
    acc = []
    for (a, k), c in raw.items():
        ax = m0 * a[0] + m1 * a[1]
        ay = m2 * a[0] + m3 * a[1]
        if ay > 0:
            out[(ax, ay), k] = c
            picard._add_scaled(acc, k * ay, c, 0)
            picard._add_scaled(acc, -k * ay, c, 1)
        elif ay < 0:
            out[(ax - sign * ay, ay), k] = c
            picard._add_scaled(acc, -k * ay, c, 1)
        else:
            wx = k * ax - sign
            if wx:
                out[(1 if wx > 0 else -1, 0), abs(wx)] = c
            picard._add_scaled(acc, -1, c, 0)
    while acc and not acc[-1]:
        acc.pop()
    if acc:
        out[(-sign, 0), 1] = tuple(acc)
    return out


def _coefficient_tuples(layers):
    """{(a, k): coefficient tuple} of a vector given by q-degree layers."""
    return {key[1:]: c.coeffs
            for key, c in picard._picvec(layers).terms.items()}


def _random_relabel(rng):
    m = picard.MAT_ID
    for _ in range(rng.randint(0, 4)):
        g = GEN_MATS[rng.choice("CI")]
        m = mat_mul(g if rng.random() < 0.5 else mat_inv(g), m)
    return m


def test_integer_kernel_matches_the_qpoly_kernel():
    rng = random.Random(53)
    carried = 0
    for trial in range(400):
        sign = rng.choice((1, -1))
        m = _random_relabel(rng)
        if trial % 2:
            # an integer vector of V: no carry, and the image is in V
            layers = [picard._pack([picard._random_v_terms(rng, 4)],
                                   picard._WIDTH)]
            (image,) = picard._run(layers, ((m, sign),))
            assert picard._index_sum(image) == (0, 0)
        else:
            # q-coefficients, in V or not
            x = _random_q_vector(rng) + (
                QPoly((rng.randint(-3, 3), rng.randint(-3, 3)))
                * e_vec((rng.randint(-3, 3), rng.randint(1, 3))))
            layers = picard._e_layers(x)
            # a layer carries when the y part of its relabelled index sum
            # is nonzero
            carried += any(m[2] * sx + m[3] * sy for sx, sy in
                           map(picard._index_sum, layers))
        want = _qpoly_mutate(_coefficient_tuples(layers), sign, m)
        got = _coefficient_tuples(picard._run(layers, ((m, sign),)))
        assert got == want
    # the carries between layers were exercised
    assert carried > 50


def _v_patch(vectors):
    """A stand-in for picard._v_layer that packs the given vectors."""
    def draw(seed, n, w):
        layer = picard._pack(vectors[:n], w)
        return layer, picard._index_sum(layer)
    return draw


def test_integer_word_action_refuses_a_vector_that_carries(monkeypatch):
    # e_(0,1) is not in V: the first mutation carries -q e_(-1,0), and the
    # image's q^0 part stays outside V.  The patched draws pass the memo
    # by, so the kept draws stay as they were
    word_acts_as_identity(words.parse_word("P^5"))
    kept = picard._v_layer(0, 20, picard._WIDTH)
    word = words.parse_word("I P")
    draw = list(_fresh_v_draw(0, 20))
    for r in (0, 7, 19):
        # one vector of twenty off V is enough, wherever it is packed
        outside = draw[:r] + [{(0, 1, 1): 1}] + draw[r + 1:]
        monkeypatch.setattr(picard, "_v_layer", _v_patch(outside))
        with pytest.raises(AssertionError, match="left the V subspace"):
            word_acts_as_identity(word)
    monkeypatch.undo()
    # the check reads the image: one that leaves V is refused even when
    # the draw is in V, here with e_(0,1) added to vector 7
    run = picard._run

    def off_v(layers, steps, last, sums):
        image, *rest = run(layers, steps, last, sums)
        c, b = image.get((0, 1, 1), (0, 0))
        image[0, 1, 1] = (c + (1 << 7 * picard._WIDTH), max(b, 1))
        return [image, *rest]

    monkeypatch.setattr(picard, "_run", off_v)
    with pytest.raises(AssertionError, match="left the V subspace"):
        word_acts_as_identity(word)
    monkeypatch.undo()
    assert picard._v_layer(0, 20, picard._WIDTH) is kept
    op = word_operator(word)
    assert op(e_vec((0, 1))) != op(e_vec((0, 1))).at_one()


def test_identity_in_zq_agrees_with_identity_at_q1():
    for name in words.list_suites():
        for entry in words.load_suite(name):
            rhs = "1" if entry["rhs"] == "probe" else entry["rhs"]
            word = (words._core(entry["lhs"])
                    + words.word_inverse(words._core(rhs)))
            ev = word_acts_as_identity(word, nvectors=5)["evidence"]
            assert ev["identity_in_Zq"] == ev["identity_at_q1"], entry


def test_suite_evidence_matches_letter_by_letter_action(monkeypatch):
    compiled = picard.word_acts_as_identity
    checked = []

    def both(word, **params):
        got = compiled(word, **params)
        # witness JSON included, byte for byte
        assert json.dumps(got) == json.dumps(
            _reference_identity(word, **params)), word
        checked.append(word)
        return got

    monkeypatch.setattr(picard, "word_acts_as_identity", both)
    suites = words.list_suites()
    assert len(suites) == 7
    for name in suites:
        words.check_suite(name, backend="picard")
    assert len(checked) == sum(len(words.load_suite(n)) for n in suites)


def _fresh_v_draw(seed, n):
    rng = random.Random(seed)
    return tuple(picard._random_v_terms(rng, 3) for _ in range(n))


def _unpacked(layer, n):
    return tuple(picard._digits(layer, r, picard._WIDTH) for r in range(n))


def test_kept_v_vectors_are_a_fresh_draw_and_read_only():
    picard._v_layer.cache_clear()
    for name in words.list_suites():
        words.check_suite(name, backend="picard")
        words.check_suite(name, backend="picard", params={"nvectors": 3})
    # every relation reads the 20 or 3 vectors of seed 0, each drawn once
    info = picard._v_layer.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for n in (20, 3):
        kept, sums = picard._v_layer(0, n, picard._WIDTH)
        assert _unpacked(kept, n) == _fresh_v_draw(0, n)
        assert sums == (0, 0)
        # each bound is the largest magnitude among its symbol's digits
        assert {key: b for key, (_, b) in kept.items()} == {
            key: max(abs(v.get(key, 0)) for v in _fresh_v_draw(0, n))
            for key in kept}
        with pytest.raises(TypeError):
            kept[1, 0, 1] = (1, 1)
    # each seed keeps its own draw
    for seed in (1, 2, 3):
        assert _unpacked(picard._v_layer(seed, 5, picard._WIDTH)[0], 5) == (
            _fresh_v_draw(seed, 5))


def test_v_memo_stays_bounded(monkeypatch):
    word = words._core("P C P I^-1")
    big = 200
    assert picard._V_KEPT < big
    picard._v_layer.cache_clear()
    seeds = range(1000, 1040)
    # a draw of more than _V_KEPT vectors is made afresh and not kept
    for seed in seeds:
        got = word_acts_as_identity(word, nvectors=big, seed=seed)
    assert picard._v_layer.cache_info().currsize == 0
    assert got == _reference_identity(word, big, seeds[-1])
    # shorter draws are kept for the last 32 (seed, n) pairs only
    for seed in seeds:
        word_acts_as_identity(word, nvectors=picard._V_KEPT, seed=seed)
    assert picard._v_layer.cache_info().currsize == 32
    loop = words._core("P I C") * 7
    assert (word_acts_as_identity(loop, nvectors=100, seed=3)
            == _reference_identity(loop, 100, 3))
    # P moves the first vector, so its witness tells the seeds apart
    p = words._core("P")
    for seed in range(3):
        for n in (5, big):
            assert (word_acts_as_identity(p, nvectors=n, seed=seed)
                    == _reference_identity(p, n, seed))
    # a call draws and packs no more vectors than it reads
    drawn = []
    draw = picard._random_v_terms

    def counted(rng, size):
        drawn.append(size)
        return draw(rng, size)

    packed = []
    pack = picard._pack

    def counted_pack(vectors, w):
        packed.append(len(vectors))
        return pack(vectors, w)

    monkeypatch.setattr(picard, "_random_v_terms", counted)
    monkeypatch.setattr(picard, "_pack", counted_pack)
    word_acts_as_identity(word, nvectors=5, seed=2000)
    assert len(drawn) == 5 and packed == [5]


def test_digits_past_the_width_are_read_after_widening(monkeypatch):
    # V vectors scaled by 2^120 have digits past 2^95, so the first run,
    # packed at _WIDTH, cannot be read; the call packs again wider and
    # reads the same witness as the letter-by-letter action
    draw = picard._random_v_terms
    monkeypatch.setattr(picard, "_random_v_terms", lambda rng, size: {
        key: n << 120 for key, n in draw(rng, size).items()})
    runs = []
    run = picard._run
    monkeypatch.setattr(picard, "_run",
                        lambda *args: runs.append(args) or run(*args))
    picard._v_layer.cache_clear()
    try:
        for text in ("P", "P I C P", "P^5"):
            word = words._core(text)
            runs.clear()
            got = word_acts_as_identity(word, nvectors=7, seed=3)
            assert len(runs) == 2, text
            assert json.dumps(got) == json.dumps(
                _reference_identity(word, 7, 3)), text
            assert got["identity"] == (text == "P^5")
    finally:
        picard._v_layer.cache_clear()


def _reduced_word(rng, length):
    word = []
    while len(word) < length:
        letter = (rng.choice("PCI"), rng.choice((1, -1)))
        if not word or word[-1] != (letter[0], -letter[1]):
            word.append(letter)
    return tuple(word)


@pytest.mark.parametrize("length", [80, 160])
def test_long_words_match_the_letter_by_letter_action(length):
    # packed runs of 5, 20 and 65 vectors, the last one not kept, on w and
    # on w w^-1, byte for byte against the reference
    w = _reduced_word(random.Random(length), length)
    for word in (w + words.word_inverse(w), w):
        for n in (5, 20, 65):
            got = word_acts_as_identity(word, nvectors=n, seed=n)
            assert json.dumps(got) == json.dumps(
                _reference_identity(word, n, n)), (n, word)
            assert got["identity"] == (word != w)


@pytest.mark.parametrize("term", [
    b_vec((1, 0)), delta_vec((0, 1), 2), p_vec((2, 3)), chain_vec((1, 1)),
    plpart_vec(ample_A())], ids=lambda v: next(iter(v.terms))[0])
@pytest.mark.parametrize("text", ["P C", "C I^-1"])
def test_operator_refuses_non_e_terms(term, text):
    family = next(iter(term.terms))[0]
    op = word_operator(core_word(text))
    with pytest.raises(ValueError, match="needs e terms, got '%s'" % family):
        op(e_vec((1, 0)) + term)


def test_operator_preserves_v_subspace():
    rng = random.Random(41)
    for _ in range(10):
        letters = [(rng.choice("PCI"), rng.choice((-2, -1, 1, 2)))
                   for _ in range(rng.randint(1, 5))]
        op = word_operator(tuple(letters))
        x = random_v_vector(rng)
        assert v_membership(op(x))


# ---------------------------------------------------------------------------
# cluster mutation

def test_cluster_mutation_matches_lattice_action():
    """At q = 1 the canonical mutation is the cluster mutation at -v of
    the wedge B-matrix: e_w goes to e_s + max(wedge(-v, s), 0) e_(-v) with
    s = sigma_v(w, v), and e_v to -e_(-v)."""
    v = (1, 0)
    nv = (-1, 0)
    ws = [(0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1),
          (2, 1), (1, 2), (-2, 3), (3, -2), (0, 2), (2, -3)]
    for w in ws:
        s = sigma_v(w, v)
        assert mu_Wq_action(e_vec(w)).at_one() == (
            e_vec(s) + max(wedge(nv, s), 0) * e_vec(nv))
    assert mu_Wq_action(e_vec(v)).at_one() == -e_vec(nv)


# ---------------------------------------------------------------------------
# misc plumbing

def test_words_evaluate_returns_operator():
    op = words.evaluate("P C P I^-1", backend="picard")
    x = random_v_vector(random.Random(0))
    assert op(x).at_one() == x.at_one()
    assert "P" in repr(op)


def test_compose_breakfn():
    from sympt.plcore import generator_pl
    A = ample_A()
    # A o P is (a, b) -> max(0, a - min(0, b)), here in canonical form
    # (evaluation subtracts the linear part fixed at the two axes)
    comp = compose_breakfn(A, generator_pl("P"))
    assert comp.indexes() == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
    assert comp((2, -3)) == 3 and comp((-1, 4)) == 1
    assert compose_breakfn(A, generator_pl("C")) != A
