"""Birational layer: exact composition, the symplectic form, randomized word
equality, orbits, and tropicalization."""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from sympt import birational, cli, plcore, words
from sympt.birational import (
    ONE,
    PRIMES,
    X,
    Y,
    ZERO,
    BirMap,
    LaurentPoly,
    RationalFn,
    compose_bir,
    compose_letters,
    generator_bir,
    generator_bir_inverse,
    identity_bir,
    is_symplectic,
    kernel_probe,
    monomial_bir,
    newton_polygon,
    orbit_exact,
    scaling_bir,
    tropicalize,
    word_equals_identity,
    word_letters,
)
from sympt.words import (
    _core, evaluate, list_suites, load_suite, parse_word, word_inverse)

from pl_oracle import from_function

P = generator_bir("P")
C = generator_bir("C")
I = generator_bir("I")
# the derived letters written out; words.evaluate folds them from P, C, I
L = BirMap(RationalFn(ONE + X, Y), RationalFn(X))  # P^-1
U = BirMap(RationalFn(X * Y), RationalFn(Y))  # (x, y) -> (xy, y)
MU = BirMap(RationalFn(X, ONE + Y), RationalFn(Y))  # (x, y) -> (x/(1+y), y)
DERIVED = {"L": L, "U": U, "mu": MU}


# ---------------------------------------------------------------------------
# polynomial layer


def test_laurent_arithmetic():
    p = X + Y
    q = X - Y
    assert p * q == X * X - Y * Y
    assert (p + q) == X * LaurentPoly.const(2)
    assert p ** 2 == X * X + X * Y * LaurentPoly.const(2) + Y * Y
    assert not (p - p)


def test_laurent_power_equals_repeated_product():
    p = X + Y * LaurentPoly.const(-2) + LaurentPoly.monomial(-1, 3, 5)
    want = ONE
    for k in range(10):
        assert p ** k == want, k
        want = want * p
    assert ONE ** 0 == ONE and X ** 0 == ONE
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_laurent_eval():
    p = ONE + X * Y  # 1 + xy
    assert p.eval_exact(Fraction(1, 2), Fraction(3)) == Fraction(5, 2)
    m = PRIMES[0]
    assert p.eval_mod(2, 3, m) == 7
    inv = LaurentPoly.monomial(-1, 0)  # 1/x
    assert inv.eval_mod(2, 1, m) == pow(2, -1, m)


def test_laurent_partials():
    p = LaurentPoly.monomial(2, -1, 3)  # 3 x^2 / y
    assert p.dx() == LaurentPoly.monomial(1, -1, 6)
    assert p.dy() == LaurentPoly.monomial(2, -2, -3)
    assert not ONE.dx()


def test_rationalfn_equality_cross_multiplies():
    a = RationalFn(X * X, X)  # x^2/x
    b = RationalFn(X)
    assert a == b
    assert RationalFn(ONE + X, Y) != RationalFn(ONE + X, X)
    with pytest.raises(ZeroDivisionError):
        RationalFn(X, LaurentPoly())
    with pytest.raises(ValueError, match="cannot be zero"):
        BirMap(RationalFn(X), RationalFn(LaurentPoly(), Y))


def test_immutability():
    with pytest.raises(AttributeError):
        X.terms = {}
    with pytest.raises(AttributeError):
        P.f1 = None


# ---------------------------------------------------------------------------
# generators and composition


def test_generator_formulas():
    two_three = (Fraction(2), Fraction(3))
    assert P.apply_exact(two_three) == (Fraction(3), Fraction(2))
    assert MU.apply_exact(two_three) == (Fraction(1, 2), Fraction(3))
    assert C.apply_exact(two_three) == (Fraction(3, 2), Fraction(1, 2))
    assert I.apply_exact(two_three) == (Fraction(1, 3), Fraction(2))
    assert U.apply_exact(two_three) == (Fraction(6), Fraction(3))


def test_p_inverse():
    assert compose_bir(P, L) == identity_bir()
    assert compose_bir(L, P) == identity_bir()
    assert generator_bir_inverse("P") == L


def test_derived_letters_fold_to_their_formulas():
    for name, g in DERIVED.items():
        assert evaluate(name, "bir") == g, name


def test_generator_inverses():
    for name in ("P", "L", "C", "I", "U", "mu"):
        g, h = evaluate(name, "bir"), evaluate(name + "^-1", "bir")
        assert compose_bir(g, h) == identity_bir() == compose_bir(h, g)


def test_p_squared_formula():
    pp = compose_bir(P, P)
    assert P * P == pp
    assert pp.f1 == RationalFn(ONE + Y, X)
    assert pp.f2 == RationalFn(ONE + X + Y, X * Y)


def test_pcp_equals_i_symbolically():
    assert compose_bir(P, compose_bir(C, P)) == I


def test_p5_is_identity_symbolically():
    p2 = compose_bir(P, P)
    assert compose_bir(p2, compose_bir(p2, P)) == identity_bir()


def test_mu_is_i_after_p():
    assert compose_bir(I, P) == MU


def test_monomial_homomorphism():
    rng = random.Random(5)
    mats = [(-1, 1, -1, 0), (0, -1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)]
    for _ in range(10):
        m1 = rng.choice(mats)
        m2 = rng.choice(mats)
        prod = plcore.mat_mul(m1, m2)
        assert compose_bir(monomial_bir(*m1), monomial_bir(*m2)) == \
            monomial_bir(*prod)


def test_monomial_requires_unimodular():
    with pytest.raises(ValueError):
        monomial_bir(1, 0, 1, 2)
    # determinant -1 is allowed as a birational map, just not symplectic
    swap = monomial_bir(0, 1, 1, 0)
    assert not is_symplectic(swap)


def test_scaling():
    s = scaling_bir(Fraction(3, 2), Fraction(5))
    assert s.apply_exact((2, 1)) == (Fraction(3), Fraction(5))
    with pytest.raises(ValueError):
        scaling_bir(0, 1)
    assert is_symplectic(s)
    assert tropicalize(s).is_identity()


def test_apply_mod_pole_locus():
    p = PRIMES[0]
    with pytest.raises(ZeroDivisionError):
        P.apply_mod((3, p - 1), p)  # 1 + y = 0: image hits the axis
    with pytest.raises(ZeroDivisionError, match="pole locus"):
        MU.apply_mod((3, p - 1), p)  # 1 + y = 0: a pole of x/(1 + y)
    img = P.apply_mod((2, 3), p)
    assert img == (3, (4 * pow(2, -1, p)) % p)


def test_composition_length_cap():
    with pytest.raises(ValueError):
        evaluate("P^9", "bir")
    assert evaluate("P^5", "bir") == identity_bir()


# ---------------------------------------------------------------------------
# reduction to lowest terms

def ref_reduce_fraction(num, den):
    # the former reduction through sympy's gcd, kept as the reference
    import sympy

    if not num:
        return ZERO, ONE
    shift_n = (min(i for i, _ in num.terms), min(j for _, j in num.terms))
    shift_d = (min(i for i, _ in den.terms), min(j for _, j in den.terms))
    x, y = sympy.symbols("x y")
    pn, pd = (sympy.Poly({(i - shift[0], j - shift[1]): c
                          for (i, j), c in poly.terms.items()},
                         x, y, domain="ZZ")
              for poly, shift in ((num, shift_n), (den, shift_d)))
    g = sympy.gcd(pn, pd)
    if not g.is_one:
        pn, pd = pn.exquo(g), pd.exquo(g)
    num, den = (LaurentPoly({(int(i), int(j)): int(c)
                             for (i, j), c in poly.terms()})
                for poly in (pn, pd))
    num = num.shift(shift_n[0] - shift_d[0], shift_n[1] - shift_d[1])
    if len(den.terms) == 1:
        ((di, dj), dc) = next(iter(den.terms.items()))
        if dc in (1, -1):
            return num.shift(-di, -dj) if dc == 1 else (-num).shift(-di, -dj), ONE
    # sympy leaves the sign free; fix it as reduce_fraction does
    if den.terms[min(den.terms)] < 0:
        num, den = -num, -den
    return num, den


def random_laurent(rng, nterms, lo=-3, hi=3, cmax=6):
    return LaurentPoly({(rng.randint(lo, hi), rng.randint(lo, hi)):
                        rng.choice((-1, 1)) * rng.randint(1, cmax)
                        for _ in range(nterms)})


GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def trop_words(n, seed):
    """n seeded trop words of COMPOSE_CAP factors over P, C, I, U and
    their inverses, unimodular mono: maps and torus scalings."""
    rng = random.Random(seed)
    tokens = ["P", "C", "I", "U", "P^-1", "C^-1", "I^-1", "U^-1",
              "mono:0,1,-1,0", "mono:2,1,1,1", "lambda:2,-3", "lambda:3/4,2/3"]
    tokens += ["mono:1,%d,0,1" % k for k in (-4, -2, 3, 5)]
    tokens += ["mono:1,0,%d,1" % k for k in (-5, -3, 2, 4)]
    return [" ".join(rng.choice(tokens)
                     for _ in range(birational.COMPOSE_CAP))
            for _ in range(n)]


def compose_traffic():
    """The distinct (num, den) pairs that compose_bir passes to
    reduce_fraction while bir folds every reduced core word of length <= 5,
    and while the CLI replays 30 seeded trop words of COMPOSE_CAP factors
    and the trop and bir eval goldens: sparse, structured inputs, unlike
    the random ones."""
    seen = []
    reduce_fraction = birational.reduce_fraction

    def record(num, den):
        seen.append((num, den))
        return reduce_fraction(num, den)

    # the fold composes a word's value as its prefix's value after its last
    # letter, so the words of length n + 1 need one composition for each
    # distinct value and last letter of length n
    letters = {(s, e): birational.word_letters([(s, e)])[0]
               for s in "PCI" for e in (1, -1)}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    argvs = [golden[name]["argv"] for name in golden
             if name.startswith("trop.")
             or name in ("eval.PCI.bir", "eval.PUP.bir")]
    argvs += [["trop", "--word", text] for text in trop_words(30, 61)]
    with mock.patch.object(birational, "reduce_fraction", record):
        values = {(json.dumps(g.to_json()), a): g for a, g in letters.items()}
        for _ in range(4):
            longer = {}
            for (_, last), f in values.items():
                for a, g in letters.items():
                    if a != (last[0], -last[1]):
                        h = compose_bir(f, g)
                        longer[json.dumps(h.to_json()), a] = h
            values = longer
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    return list(dict.fromkeys(seen))


def reduction_cases(n):
    rng = random.Random(17)
    c = LaurentPoly.const
    cases = [
        (ZERO, ONE), (ZERO, X + Y), (c(4) * X, c(6)), (c(-4) * X, c(6)),
        (c(6), c(-4)), (c(-1), c(-1)), (c(3), c(5)), (ONE, c(-7) * X * Y),
        (LaurentPoly.monomial(-2, 3, -6), LaurentPoly.monomial(4, -1, 9)),
        ((X + Y) * (ONE + X), (Y - X) * (ONE + X) * c(2)),
        (c(-2) * (ONE + Y), c(6) * X),
        ((ONE + Y) ** 3, (ONE + Y) ** 2 * (ONE + X)),
    ]
    for _ in range(n):
        num = random_laurent(rng, rng.randint(0, 6))
        den = random_laurent(rng, rng.randint(1, 6))
        kind = rng.randrange(4)
        if kind == 0:  # planted powers of 1 + x and 1 + y
            common = (ONE + X) ** rng.randint(0, 3) * \
                (ONE + Y) ** rng.randint(0, 3)
        elif kind == 1:  # integer content
            common = c(rng.choice((-1, 1)) * rng.randint(2, 12))
        elif kind == 2:  # monomial, possibly with a negative coefficient
            common = random_laurent(rng, 1)
        else:
            common = ONE
        cases.append((num * common, den * common))
    return cases + compose_traffic()


def test_reduce_fraction_matches_sympy_reference():
    # reduce_fraction cancels only what a letter can create, so no planted
    # common factor is of any other kind
    for num, den in reduction_cases(400):
        assert birational.reduce_fraction(num, den) == \
            ref_reduce_fraction(num, den), (num, den)
    c = LaurentPoly.const
    assert birational.reduce_fraction(c(4) * X, c(6)) == (c(2) * X, c(3))


def test_reduced_fraction_has_one_sign():
    # the coefficient of the denominator's least exponent pair is positive
    c = LaurentPoly.const
    assert birational.reduce_fraction(c(-3) * Y, c(-1) + c(2) * X) == \
        (c(3) * Y, ONE - c(2) * X)


def test_a_one_letter_word_is_its_generator():
    # the fold starts at the leftmost letter, not at the identity, so a lone
    # letter keeps its generator's spelling: P stays (y, (1 + y)/x)
    for s in "PCI":
        for text, g in ((s, generator_bir(s)),
                        (s + "^-1", generator_bir_inverse(s))):
            assert json.dumps(evaluate(text, "bir").to_json()) == \
                json.dumps(g.to_json()), text


# ---------------------------------------------------------------------------
# symplectic form


def test_generators_are_symplectic():
    for g in (P, C, I, *DERIVED.values()):
        assert is_symplectic(g), g


def test_random_words_are_symplectic():
    rng = random.Random(31)
    names = ["P", "C", "I"]
    for _ in range(8):
        word = " ".join(rng.choice(names) for _ in range(rng.randint(1, 6)))
        assert is_symplectic(evaluate(word, "bir")), word


def test_symplectic_counterexamples():
    assert not is_symplectic(BirMap(RationalFn(X), RationalFn(Y * Y)))
    assert not is_symplectic(BirMap(RationalFn(X), RationalFn(ONE + Y)))
    # with denominators, which the check clears rather than cancels
    assert not is_symplectic(BirMap(RationalFn(X, ONE + Y),
                                    RationalFn(Y * Y)))
    assert not is_symplectic(BirMap(RationalFn(X * (ONE + X), ONE + Y),
                                    RationalFn(Y, ONE + X)))
    assert not is_symplectic(BirMap(RationalFn(Y, ONE + X),
                                    RationalFn(X, ONE + Y)))


# ---------------------------------------------------------------------------
# randomized equality


def test_word_equals_identity_accepts_relations():
    for text in ("C^3", "I^4", "P^5", "C^-1 I^-2 C I^2"):
        word = _core(text)
        verdict = word_equals_identity(word)
        assert verdict["equal"], text
        assert verdict["evidence"]["samples"] == 40  # 20 per prime


def test_word_equals_identity_rejects_nonidentity():
    verdict = word_equals_identity(parse_word("P^3"))
    assert not verdict["equal"]
    wit = verdict["evidence"]["mismatch"]
    assert wit["image"] != wit["point"]


def test_word_equals_cross():
    # a = b exactly when a b^-1 acts as the identity
    assert word_equals_identity(
        parse_word("P C P") + word_inverse(parse_word("I")))["equal"]
    assert not word_equals_identity(
        parse_word("P") + word_inverse(parse_word("I")))["equal"]


def test_error_bound_is_reported():
    verdict = word_equals_identity(parse_word("P^5"))
    bound = verdict["evidence"]["error_bound"]
    assert bound.startswith("2^-")
    assert int(bound[3:]) > 40


def test_a_failing_verdict_is_exact():
    # the generators have integer coefficients, so a point that moves
    # disproves w = 1 over Q: no error bound stands beside the mismatch
    for text in ("P", " ".join(["P I C"] * 7)):
        verdict = word_equals_identity(parse_word(text))
        assert not verdict["equal"]
        ev = verdict["evidence"]
        assert ev["exact"] is True and "mismatch" in ev
        assert "error_bound" not in ev
    ev = word_equals_identity(parse_word("P^5"))["evidence"]
    assert "exact" not in ev and "mismatch" not in ev


def test_prime_size_guard():
    with pytest.raises(ValueError):
        word_equals_identity(parse_word("P^5"), primes=(1000003,))


def test_apply_word_mod_matches_symbolic_composition():
    rng = random.Random(37)
    p = PRIMES[0]
    checked = 0
    for _ in range(60):
        word = [(rng.choice("PCI"), rng.choice((1, -1, 2, -2)))
                for _ in range(rng.randint(1, 6))]
        f = identity_bir()
        for sym, exp in word:
            g = generator_bir(sym) if exp > 0 else generator_bir_inverse(sym)
            for _ in range(abs(exp)):
                f = compose_bir(f, g)
        for _ in range(3):
            point = (rng.randrange(2, p - 1), rng.randrange(2, p - 1))
            try:
                image = _affine(birational._apply_word_mod(
                    words.compile_mod(word), point, p), p)
            except ZeroDivisionError:
                continue
            assert image == f.apply_mod(point, p), word
            checked += 1
    assert checked > 150


def _affine(triple, p):
    """The point (a/d, b/d) mod p of a projective triple (a, b, d)."""
    a, b, d = triple
    inv = pow(d, -1, p)
    return a * inv % p, b * inv % p


def _letter_by_letter(word, point, p):
    """The word's image of point through BirMap.apply_mod, one letter at a
    time, or None where a letter raises ZeroDivisionError."""
    try:
        for sym, exp in reversed(word):
            g = generator_bir(sym) if exp > 0 else generator_bir_inverse(sym)
            for _ in range(abs(exp)):
                point = g.apply_mod(point, p)
    except ZeroDivisionError:
        return None
    return point


def test_apply_word_mod_matches_letter_by_letter_maps():
    # at p = 101 the lines x = -1 and y = -1 are hit often
    rng = random.Random(59)
    p = 101
    raised = moved = 0
    for _ in range(3000):
        word = [(rng.choice("PCI"), rng.choice((1, -1, 2, -2, 3, -3)))
                for _ in range(rng.randint(0, 10))]
        point = (rng.randrange(1, p), rng.randrange(1, p))
        want = _letter_by_letter(word, point, p)
        try:
            got = _affine(birational._apply_word_mod(
                words.compile_mod(word), point, p), p)
        except ZeroDivisionError:
            got = None
        assert got == want, (word, point)
        raised += want is None
        moved += want is not None
    assert raised > 50 and moved > 2000


def _sample_moved_by_inverse(word, primes, per_prime, seed):
    """_sample_moved as it was first written: each image is divided out
    to an affine point and compared with the point it came from."""
    rng = random.Random(seed)
    moved = 0
    witness = None
    for p in primes:
        done = 0
        while done < per_prime:
            point = (rng.randrange(2, p - 1), rng.randrange(2, p - 1))
            try:
                image = _affine(birational._apply_word_mod(
                    words.compile_mod(word), point, p), p)
            except ZeroDivisionError:
                continue
            done += 1
            if image != point:
                moved += 1
                if witness is None:
                    witness = {"prime": p, "point": list(point),
                               "image": list(image)}
    return per_prime * len(primes), moved, witness


def test_sample_moved_matches_inverse_then_compare():
    # at 101 and 103 poles and fixed points are common; half the words are
    # w w^-1, which fixes every point it reaches
    rng = random.Random(71)
    fixed = moved = 0
    for i in range(300):
        word = tuple((rng.choice("PCI"), rng.choice((1, -1, 2, -2)))
                     for _ in range(rng.randint(0, 8)))
        if i % 2:
            word += word_inverse(word)
        primes = (101, 103) if i % 3 else PRIMES[:2]
        got = birational._sample_moved(word, primes, 6, i)
        assert got == _sample_moved_by_inverse(word, primes, 6, i), word
        fixed += got[1] == 0
        moved += got[1] > 0
    assert fixed > 100 and moved > 100


def test_each_prime_is_checked_once():
    birational._is_prime.cache_clear()
    for seed in range(3):
        word_equals_identity(parse_word("P^5"), seed=seed)
    info = birational._is_prime.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_only_an_unbounded_pass_is_refused():
    # the t_rc commutator has 60 core letters and moves a point
    comm = _core("alpha^-1 beta^-1 alpha^-1 beta alpha beta^-1 alpha beta")
    assert sum(abs(e) for _, e in comm) >= 60
    verdict = word_equals_identity(comm)
    assert verdict["equal"] is False
    assert verdict["evidence"]["exact"] is True
    # a pass of the same length has no bound at 2^61 primes
    with pytest.raises(ValueError, match="word too long"):
        word_equals_identity(parse_word("P^30 P^-30"))


def test_determinism():
    a = word_equals_identity(parse_word("P C P I^-1"), seed=7)
    b = word_equals_identity(parse_word("P C P I^-1"), seed=7)
    assert a == b


# ---------------------------------------------------------------------------
# orbits and the kernel probe


def test_lyness_orbit_period_five():
    orb = orbit_exact(P, (2, 3), 5)
    assert orb == [(2, 3), (3, 2), (2, 1), (1, 1), (1, 2), (2, 3)]


def test_lyness_orbit_generic_period_five():
    start = (Fraction(7, 3), Fraction(11, 5))
    orb = orbit_exact(P, start, 5)
    assert orb[5] == orb[0]
    assert len(set(orb[:5])) == 5


def test_kernel_probe_identity_word():
    probe = kernel_probe(parse_word("P^5"), npoints=12)
    assert probe["verdict"] == "identity"
    assert probe["points_moved"] == 0 and "exact" not in probe


def test_kernel_probe_reads_one_moved_point_as_a_disproof(monkeypatch):
    # a word that fixes every other sampled point is still not 1
    calls = itertools.count()

    def half_fixed(word, point, p):
        x, y = point
        return (x, y, 1) if next(calls) % 2 else (y, x, 1)

    monkeypatch.setattr(birational, "_apply_word_mod", half_fixed)
    probe = kernel_probe(parse_word("P^5"), npoints=6)
    assert probe["verdict"] == "nonidentity" and probe["exact"] is True
    assert (probe["points_identity"], probe["points_moved"]) == (3, 3)
    assert probe["witness"]["image"] == probe["witness"]["point"][::-1]


def test_kernel_probe_raises_when_no_point_avoids_the_poles(monkeypatch):
    def always_pole(word, point, p):
        raise ZeroDivisionError

    monkeypatch.setattr(birational, "_apply_word_mod", always_pole)
    with pytest.raises(RuntimeError, match="pole locus"):
        kernel_probe(parse_word("P^5"), npoints=6)


def test_sampling_needs_at_least_one_point():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        word_equals_identity(parse_word("P^5"), trials=0)
    with pytest.raises(ValueError, match="npoints must be at least 1"):
        kernel_probe(parse_word("P^5"), npoints=0)


def test_sampling_rejects_a_composite_modulus():
    composite = (2 ** 31 + 11) * 2148483661  # both factors prime, > 2^61
    for check in (word_equals_identity, kernel_probe):
        with pytest.raises(ValueError, match="p=%d is not prime" % composite):
            check(parse_word("P^5"), primes=(PRIMES[0], composite))


def test_sampling_names_a_letter_outside_the_core_alphabet():
    # a derived letter must be expanded to P, C, I first
    for check in (word_equals_identity, kernel_probe):
        with pytest.raises(ValueError, match="letter 'U'"):
            check((("U", 1),))
        with pytest.raises(ValueError, match="letter 'mu'"):
            check(parse_word("P mu^2"))


def test_kernel_probe_pic7():
    word = _core("P I C") * 7
    probe = kernel_probe(word, npoints=30)
    assert probe["verdict"] in ("identity", "nonidentity")
    # frozen experimental outcome: every sampled point moves
    assert probe["verdict"] == "nonidentity"
    assert probe["points_identity"] == 0
    assert "witness" in probe and probe["exact"] is True


# ---------------------------------------------------------------------------
# tropicalization


def test_json_refuses_non_integer_terms():
    g = generator_bir("P")
    assert BirMap.from_json(json.loads(json.dumps(g.to_json()))) == g
    # int() would read 1.7 as 1 and true as 1
    for bad in (1.7, True):
        for slot in (0, 2):  # an exponent and a coefficient
            data = g.to_json()
            data["f1"]["num"][0][slot] = bad
            with pytest.raises(ValueError) as exc:
                BirMap.from_json(data)
            assert str(exc.value) == (
                "polynomial term must hold integers, got %r" % (bad,))
    data = g.to_json()
    data["f2"]["den"][0].append(0)
    with pytest.raises(ValueError, match="must be a list of 3 integers"):
        BirMap.from_json(data)


@pytest.mark.parametrize("data, message", [
    ("P", "a BirMap document is a JSON object, got 'P'"),
    ({"f1": P.to_json()["f1"]},
     "a BirMap document holds the keys f1, f2, got %r"
     % ({"f1": P.to_json()["f1"]},)),
    ({**P.to_json(), "f2": {"num": 5, "den": [[0, 0, 1]]}},
     "polynomial must be a list of terms, got 5"),
    # 2x written as two terms x + x would otherwise read as the last alone
    ({**P.to_json(),
      "f1": {"num": [[1, 0, 1], [1, 0, 2]], "den": [[0, 0, 1]]}},
     "polynomial repeats an exponent pair, got [[1, 0, 1], [1, 0, 2]]"),
], ids=["not-object", "missing-key", "non-list", "repeated-exponents"])
def test_from_json_refuses_a_malformed_document(data, message):
    with pytest.raises(ValueError) as exc:
        BirMap.from_json(data)
    assert str(exc.value) == message


def test_tropicalize_generators():
    for name in ("P", "L", "C", "I", "U", "mu"):
        assert tropicalize(evaluate(name, "bir")) == evaluate(name, "pl")


def test_tropicalize_p_squared():
    assert tropicalize(compose_bir(P, P)) == plcore.generator_pl("P") ** 2


def test_tropicalize_morphism():
    names = ["P", "C", "I"]
    for a in names:
        for b in names:
            ga, gb = generator_bir(a), generator_bir(b)
            assert tropicalize(compose_bir(ga, gb)) == \
                tropicalize(ga) * tropicalize(gb), (a, b)


def test_tropicalize_min_convention():
    # x/(1+y) must shadow to a - min(0,b), not a - max(0,b)
    trop_mu = tropicalize(MU)
    assert trop_mu((2, -3)) == (5, -3)
    assert trop_mu((2, 3)) == (2, 3)


def test_tropicalize_rejects_non_pl_shadow():
    f = BirMap(RationalFn(X * (ONE + Y)), RationalFn(Y * (ONE + X)))
    with pytest.raises(ValueError):
        tropicalize(f)


# ---------------------------------------------------------------------------
# Newton polygons


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def brute_corners(points):
    """The points on no closed segment between two others and in no
    nondegenerate closed triangle of three others: the corners of their
    convex hull."""
    def on_segment(p, a, b):
        return cross(a, b, p) == 0 and \
            (p[0] - a[0]) * (p[0] - b[0]) + (p[1] - a[1]) * (p[1] - b[1]) <= 0

    def in_triangle(p, a, b, c):
        signs = {(w > 0) - (w < 0)
                 for w in (cross(a, b, p), cross(b, c, p), cross(c, a, p))}
        return cross(a, b, c) != 0 and not {1, -1} <= signs

    return {p for p in points
            if not any(on_segment(p, a, b) for a, b in
                       itertools.combinations(set(points) - {p}, 2))
            and not any(in_triangle(p, a, b, c) for a, b, c in
                        itertools.combinations(set(points) - {p}, 3))}


def newton_cases():
    line = [(k, 2 * k - 1) for k in range(-2, 3)]
    cases = [[(3, -1)], [(0, 0), (2, 1)], line, line[::-1],
             [(1, j) for j in (-3, 0, 4, 5)], [(i, 2) for i in range(4)],
             [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 0)]]
    rng = random.Random(43)
    for _ in range(300):
        cases.append([(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(rng.randint(1, 9))])
    return [LaurentPoly({m: k + 1 for k, m in enumerate(pts)})
            for pts in cases]


def test_newton_polygon_matches_brute_force_hull():
    for poly in newton_cases():
        corners = newton_polygon(poly)
        assert set(corners) == brute_corners(list(poly.terms)), poly
        assert len(set(corners)) == len(corners)
        assert corners[0] == min(poly.terms)
        if len(corners) > 2:  # a strictly convex counterclockwise polygon
            for k in range(len(corners)):
                assert cross(corners[k - 2], corners[k - 1], corners[k]) > 0
    # one exponent, two, and three or more on a line
    assert newton_polygon(LaurentPoly.monomial(3, -1)) == [(3, -1)]
    assert newton_polygon(X + Y) == [(0, 1), (1, 0)]
    assert newton_polygon(ONE + X + X * X + X ** 3) == [(0, 0), (3, 0)]


def ref_tropicalize(f):
    # the former route, kept as the reference: each minimum over every
    # term, probed and solved through the oracle on the fan of the edge
    # normals of both signs, found without the hull: a normal of two
    # exponents is an inner edge normal when both reach the minimum
    polys = (f.f1.num, f.f1.den, f.f2.num, f.f2.den)

    def low(p, v):
        return min(i * v[0] + j * v[1] for i, j in p.terms)

    def shadow(v):
        lows = [low(p, v) for p in polys]
        return (lows[0] - lows[1], lows[2] - lows[3])

    normals = set()
    for p in polys:
        for a, b in itertools.combinations(p.terms, 2):
            for v in ((b[1] - a[1], a[0] - b[0]), (a[1] - b[1], b[0] - a[0])):
                if a[0] * v[0] + a[1] * v[1] == low(p, v):
                    normals |= {v, (-v[0], -v[1])}
    return from_function(shadow, normals)


def trop_or_refusal(trop, f):
    try:
        return trop(f)
    except ValueError as exc:
        return str(exc)


def reference_maps():
    """Random small supports, mostly refused, and composed trop words,
    whose shadows are PL automorphisms unless a factor reverses
    orientation."""
    rng = random.Random(47)
    maps = [BirMap(*(RationalFn(random_laurent(rng, rng.randint(1, 4), -2, 2),
                                random_laurent(rng, rng.randint(1, 4), -2, 2))
                     for _ in range(2)))
            for _ in range(200)]
    return maps + [compose_letters(cli._trop_factors(text))
                   for text in trop_words(30, 53)]


def test_tropicalize_matches_all_pairs_reference():
    accepted = 0
    for f in reference_maps():
        want = trop_or_refusal(ref_tropicalize, f)
        assert trop_or_refusal(tropicalize, f) == want, f
        accepted += not isinstance(want, str)
    assert accepted >= 30


def test_tropicalize_solves_no_cone(monkeypatch):
    # each piece is read off the least corners on its cone: no cone is
    # solved from probed values, and the refusals keep their text
    maps = reference_maps()
    want = [trop_or_refusal(tropicalize, f) for f in maps]
    monkeypatch.setattr(plcore, "cone_covector", mock.Mock(
        side_effect=AssertionError("tropicalize solved a cone")))
    assert [trop_or_refusal(tropicalize, f) for f in maps] == want


# ---------------------------------------------------------------------------
# certificates: every suite relator split at its middle

# the relations that pl, tree and dyadic prove and bir, picard and quantum
# refute
KERNEL_OF_TROP = {
    ("theorem", "(I mu)^7 = 1"),
    ("t_lc", "(C I L)^7 = 1"),
    ("t_rc", "alpha commutes with beta^-1 alpha beta"),
    ("t_abc", "B A^-1 commutes with A^-1 X2 A"),
    ("probe", "(P I C)^7 kernel probe"),
    ("probe", "(I mu)^7 tropical companion"),
}


def test_every_suite_relator_has_a_trop_certificate():
    # write each core relator r = lhs rhs^-1 as u v, split at its middle.
    # trop(u) = trop(v^-1) proves trop(r) = 1 without a PL fold, and the
    # exact comparison of u and v^-1, which cross-multiplies, decides r in
    # bir: each relator of KERNEL_OF_TROP is a nontrivial element of the
    # kernel of trop
    refuse = mock.Mock(side_effect=AssertionError("PL composition"))
    unequal = set()
    count = 0
    with mock.patch.object(plcore, "compose_pl", refuse), \
            mock.patch.object(words, "_pl_ring", refuse):
        for suite in list_suites():
            for entry in load_suite(suite):
                rhs = "1" if entry["rhs"] == "probe" else entry["rhs"]
                letters = [(s, 1 if e > 0 else -1) for s, e in
                           _core(entry["lhs"]) + word_inverse(_core(rhs))
                           for _ in range(abs(e))]
                mid = len(letters) // 2
                u = compose_letters(word_letters(letters[:mid]))
                v_inv = compose_letters(
                    word_letters(word_inverse(letters[mid:])))
                assert tropicalize(u) == tropicalize(v_inv), entry["name"]
                if u != v_inv:
                    unequal.add((suite, entry["name"]))
                count += 1
    assert count == 35
    assert unequal == KERNEL_OF_TROP
