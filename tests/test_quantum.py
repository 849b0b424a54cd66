"""Clock/shift matrix model of the q-commuting substitution maps."""

import copy
import json
import pickle
import random

import pytest

from sympt import birational, quantum, words
from sympt.plcore import is_prime
from sympt.quantum import (
    QConfig,
    QPair,
    SingularSubstitution,
    apply_word,
    clock_shift,
    commutes_q,
    default_prime,
    make_config,
    pair_valid,
    q_apply,
    q_apply_inverse,
    q_relation_check,
    random_pair,
)

CONFIGS = [(1, 101), (3, 7), (5, 11), (7, 29)]
KERNEL_CONFIGS = [(1, 101), (3, 7), (5, 11), (5, 101), (7, 29), (3, 31)]

H_RELATIONS = {
    "C^3": (("C", 3),),
    "I^4": (("I", 4),),
    "P^5": (("P", 5),),
    "PCP I^-1": (("P", 1), ("C", 1), ("P", 1), ("I", -1)),
    "[C, I^2]": (("C", 1), ("I", 2), ("C", -1), ("I", -2)),
}


def sample_pair(cfg, rng):
    return random_pair(cfg, rng)


# ---------------------------------------------------------------------------
# configuration

def test_make_config_picks_exact_order_root():
    cfg = make_config(3, 13)
    assert cfg.q == 3 and pow(3, 3, 13) == 1
    cfg = make_config(5, 11)
    assert pow(cfg.q, 5, 11) == 1 and cfg.q != 1
    assert make_config(1, 101).q == 1


def test_make_config_matches_linear_scan():
    # the root is read off a generator of the order-N subgroup; it must be
    # the same smallest element the scan 1, 2, 3, ... finds
    for p in range(2, 3000):
        if not is_prime(p):
            continue
        for n in range(1, 13):
            if p % n == 1 % n:
                scan = next(q for q in range(1, p)
                            if quantum._mult_order_is(q, n, p))
                assert make_config(n, p).q == scan, (n, p)


def test_make_config_validation():
    with pytest.raises(ValueError, match="positive"):
        make_config(0)
    with pytest.raises(ValueError, match="not prime"):
        make_config(3, 8)
    with pytest.raises(ValueError, match="1 mod N"):
        make_config(3, 11)
    with pytest.raises(ValueError, match="exact order"):
        QConfig(3, 13, 5)


def test_default_prime_congruent_one():
    for n in (1, 2, 3, 5, 7):
        p = default_prime(n)
        assert p % n == 1 % n
    assert default_prime(7) == 113


# ---------------------------------------------------------------------------
# clock and shift

def test_clock_shift_n2_example():
    # N=2, p=5, q=4: XY = 4 YX entrywise
    cfg = QConfig(2, 5, 4)
    pair = clock_shift(cfg, 1, 1)
    assert pair.X == ((1, 0), (0, 4))
    assert pair.Y == ((0, 1), (1, 0))
    assert commutes_q(pair, cfg)


def test_clock_shift_n1_scalars():
    cfg = make_config(1, 101)
    pair = clock_shift(cfg, 2, 3)
    assert pair == QPair(((2,),), ((3,),))
    assert commutes_q(pair, cfg)


def test_clock_shift_rejects_zero_scalars():
    cfg = make_config(3, 7)
    with pytest.raises(ValueError, match="nonzero"):
        clock_shift(cfg, 7, 1)
    with pytest.raises(ValueError, match="nonzero"):
        clock_shift(cfg, 1, 0)


def test_config_and_pair_are_immutable_values():
    # equal, hashed and printed by their fields, like frozen records;
    # copies and pickles come back equal
    cfg = make_config(5, 11)
    assert cfg == QConfig(N=5, p=11, q=3) and hash(cfg) == hash(QConfig(5, 11, 3))
    assert cfg != make_config(5, 31) and cfg != (5, 11, 3)
    assert repr(cfg) == "QConfig(N=5, p=11, q=3)"
    pair = clock_shift(make_config(1, 101), 2, 3)
    same = QPair(X=((2,),), Y=((3,),))
    assert pair == same and hash(pair) == hash(same)
    assert pair != QPair(((3,),), ((2,),)) and pair != (((2,),), ((3,),))
    assert len({pair, same, QPair(((3,),), ((2,),))}) == 2
    assert repr(pair) == "QPair(X=((2,),), Y=((3,),))"
    for value, field in ((cfg, "q"), (pair, "X")):
        for obj in (copy.copy(value), copy.deepcopy(value),
                    pickle.loads(pickle.dumps(value))):
            assert type(obj) is type(value) and obj == value
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert cfg.q == 3 and pair.X == ((2,),)


def test_random_pairs_satisfy_invariant():
    rng = random.Random(0)
    for n, p in CONFIGS:
        cfg = make_config(n, p)
        for _ in range(10):
            assert pair_valid(sample_pair(cfg, rng), cfg)


# ---------------------------------------------------------------------------
# single substitutions

def test_apply_rejects_unknown_generator():
    cfg = make_config(3, 7)
    pair = clock_shift(cfg, 1, 1)
    with pytest.raises(ValueError, match="unknown generator"):
        q_apply("U", pair, cfg)
    with pytest.raises(ValueError, match="unknown generator"):
        q_apply_inverse("mu", pair, cfg)


def test_substitution_preserves_commutation_and_invertibility():
    rng = random.Random(1)
    for n, p in CONFIGS:
        cfg = make_config(n, p)
        done = 0
        while done < 15:
            pair = sample_pair(cfg, rng)
            for s in ("P", "C", "I"):
                try:
                    out = q_apply(s, pair, cfg)
                except SingularSubstitution:
                    continue
                assert commutes_q(out, cfg)
                assert pair_valid(out, cfg)
                done += 1


def test_inverses_roundtrip():
    rng = random.Random(2)
    cfg = make_config(5, 31)
    done = 0
    while done < 20:
        pair = sample_pair(cfg, rng)
        for s in ("P", "C", "I"):
            try:
                assert q_apply_inverse(s, q_apply(s, pair, cfg), cfg) == pair
                assert q_apply(s, q_apply_inverse(s, pair, cfg), cfg) == pair
            except SingularSubstitution:
                continue
            done += 1


def test_singular_substitution_raises():
    # N=1: P inverts 1+y, so y = -1 is singular; same for P^-1 at x = -1
    cfg = make_config(1, 101)
    with pytest.raises(SingularSubstitution):
        q_apply("P", QPair(((2,),), ((100,),)), cfg)
    with pytest.raises(SingularSubstitution):
        q_apply_inverse("P", QPair(((100,),), ((2,),)), cfg)
    # I inverts y
    with pytest.raises(SingularSubstitution):
        q_apply("I", QPair(((2,),), ((0,),)), cfg)


def test_scalar_orbit_has_period_five():
    cfg = make_config(1, 101)
    pair = clock_shift(cfg, 2, 3)
    orbit = [(pair.X[0][0], pair.Y[0][0])]
    for _ in range(5):
        pair = q_apply("P", pair, cfg)
        orbit.append((pair.X[0][0], pair.Y[0][0]))
    assert orbit == [(2, 3), (3, 2), (2, 1), (1, 1), (1, 2), (2, 3)]


def test_degenerates_to_commutative_generators_at_n1():
    """At N=1 (q=1) each substitution is the plain coordinate map."""
    cfg = make_config(1, 101)
    rng = random.Random(7)
    gens = {s: birational.generator_bir(s) for s in ("P", "C", "I")}
    for _ in range(40):
        a, b = rng.randrange(1, 101), rng.randrange(1, 101)
        for s, g in gens.items():
            try:
                out = q_apply(s, QPair(((a,),), ((b,),)), cfg)
            except SingularSubstitution:
                continue
            assert (out.X[0][0], out.Y[0][0]) == g.apply_mod((a, b), 101)


# ---------------------------------------------------------------------------
# words and relations

def test_apply_word_empty_is_identity():
    cfg = make_config(3, 7)
    pair = clock_shift(cfg, 2, 3)
    assert apply_word((), pair, cfg) == pair


def test_apply_word_rightmost_first():
    cfg = make_config(1, 101)
    pair = clock_shift(cfg, 2, 3)
    # "I P" applies P first: (2,3) -> (3,2) -> I -> (51, 3)  (51 = 2^-1 mod 101)
    out = apply_word((("I", 1), ("P", 1)), pair, cfg)
    assert (out.X[0][0], out.Y[0][0]) == (pow(2, -1, 101), 3)


@pytest.mark.parametrize("n,p", CONFIGS)
@pytest.mark.parametrize("name", sorted(H_RELATIONS))
def test_h_relations_hold(n, p, name):
    verdict = quantum.word_acts_as_identity(
        H_RELATIONS[name], N=n, p=p, trials=10, seed=3)
    assert verdict["identity"], verdict["evidence"]
    assert verdict["evidence"]["trials"] == 10


def test_squared_twist_equals_inverse_shear():
    # (I^2 mu)^2 U = 1 with mu = I P and U = C I
    word = (("I", 3), ("P", 1)) * 2 + (("C", 1), ("I", 1))
    for n, p in CONFIGS:
        verdict = quantum.word_acts_as_identity(word, N=n, p=p,
                                                trials=8, seed=5)
        assert verdict["identity"], (n, p, verdict["evidence"])


def test_seven_power_probe_is_nonidentity():
    """(PIC)^7 does not act as the identity on matrix pairs; like the
    commutative rational maps, the model separates it from 1."""
    word = (("P", 1), ("I", 1), ("C", 1)) * 7
    for n, p in ((1, 101), (5, 11)):
        verdict = quantum.word_acts_as_identity(word, N=n, p=p,
                                                trials=10, seed=0)
        assert not verdict["identity"]
        assert verdict["evidence"]["verdict"] == "nonidentity"
        assert verdict["evidence"]["witnesses"]


def test_relation_check_report_shape():
    cfg = make_config(5, 11)
    report = q_relation_check((("P", 5),), cfg, trials=6, seed=0)
    assert report["verdict"] == "identity"
    assert report["witnesses"] == []
    assert report["trials"] == 6
    assert set(report) == {"N", "p", "q", "trials", "singular_resamples",
                           "verdict", "witnesses"}
    report = q_relation_check((("P", 1),), cfg, trials=6, seed=0)
    assert report["verdict"] == "nonidentity"
    assert 1 <= len(report["witnesses"]) <= 3
    w = report["witnesses"][0]
    assert set(w) == {"input", "output"} and w["input"] != w["output"]


def test_the_seed_is_the_only_sampling_setting():
    # the config carries no seed; the callers pass theirs to the RNG
    assert "seed" not in QConfig.__slots__
    cfg = make_config(5, 11)
    word = (("P", 1), ("I", 1), ("C", 1))
    for seed in (0, 4):
        report = q_relation_check(word, cfg, trials=4, seed=seed)
        assert report == quantum.word_acts_as_identity(
            word, N=5, p=11, trials=4, seed=seed)["evidence"]
    assert q_relation_check(word, cfg, trials=4) == q_relation_check(
        word, cfg, trials=4, seed=0)
    assert (q_relation_check(word, cfg, trials=4, seed=0)["witnesses"]
            != q_relation_check(word, cfg, trials=4, seed=4)["witnesses"])
    values = [quantum.evaluate_word(word, {"N": 5, "p": 11, "seed": seed})
              for seed in (0, 4)]
    assert values[0]["input"] != values[1]["input"]
    assert quantum.evaluate_word(word, {"N": 5, "p": 11}) == values[0]


def test_relation_check_inconclusive_when_sampling_exhausted():
    # p=2 has a single nonzero scalar and 1+y = 0, so P never applies
    report = q_relation_check((("P", 1),), make_config(1, 2), trials=3)
    assert report["verdict"] == "inconclusive"
    assert report["trials"] < 3
    assert not quantum.word_acts_as_identity((("P", 1),), N=1, p=2,
                                             trials=3)["identity"]


def test_evaluate_word_report():
    out = quantum.evaluate_word((("P", 5),), {"N": 3, "p": 7, "seed": 1})
    assert out["N"] == 3 and out["p"] == 7
    assert out["input"] == out["output"]
    out = quantum.evaluate_word((("P", 1),), {"N": 3, "p": 7, "seed": 1})
    assert out["input"] != out["output"]
    assert isinstance(out["output"]["X"], list)


def test_words_backend_integration():
    out = words.evaluate("P^5", backend="quantum", params={"N": 3, "p": 7})
    assert out["input"] == out["output"]
    run = words.check_suite("H", backend="quantum",
                            params={"N": 5, "p": 11, "trials": 10, "seed": 0})
    assert run["ok"]
    assert [r["verdict"] for r in run["results"]] == ["pass"] * 5
    assert all(r["witness"]["verdict"] == "identity" for r in run["results"])


def test_words_probe_suite_reports_not_asserts():
    run = words.check_suite("probe", backend="quantum",
                            params={"N": 3, "p": 7, "trials": 5, "seed": 0})
    assert run["ok"]  # probes never count as failures
    for r in run["results"]:
        assert r["verdict"] in ("identity", "nonidentity")
        assert r["note"] == "experimental verdict, not asserted"


# ---------------------------------------------------------------------------
# the word kernel against the letter-by-letter maps

# Reference only: the substitutions written as plain matrix arithmetic, one
# letter at a time, with a fresh inverse and a determinant test per letter.

def _ref_mul(a, b, p):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(ra[k] * cb[k] for k in range(n)) % p for cb in bt)
                 for ra in a)


def _ref_add(a, b, p):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _ref_scale(c, a, p):
    return tuple(tuple((c * x) % p for x in row) for row in a)


def _ref_eye(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _ref_inv(a, p):
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            raise SingularSubstitution("singular substitution")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _ref_det(a, p):
    n = len(a)
    m = [list(row) for row in a]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    return det % p


def _ref_apply(name, pair, cfg):
    p, q = cfg.p, cfg.q
    x, y = pair.X, pair.Y
    if name == "P":
        one_plus_y = _ref_add(_ref_eye(cfg.N), y, p)
        if _ref_det(one_plus_y, p) == 0:
            raise SingularSubstitution("singular substitution")
        return QPair(y, _ref_scale(q, _ref_mul(_ref_inv(x, p), one_plus_y, p), p))
    if name == "C":
        xinv = _ref_inv(x, p)
        return QPair(_ref_scale(q, _ref_mul(xinv, y, p), p),
                     _ref_scale(q, xinv, p))
    if name == "I":
        return QPair(_ref_scale(q, _ref_inv(y, p), p), x)
    raise ValueError("unknown generator %r (expected P, C or I)" % name)


def _ref_apply_inverse(name, pair, cfg):
    p, q = cfg.p, cfg.q
    x, y = pair.X, pair.Y
    if name == "P":
        one_plus_x = _ref_add(_ref_eye(cfg.N), x, p)
        if _ref_det(one_plus_x, p) == 0:
            raise SingularSubstitution("singular substitution")
        return QPair(_ref_scale(q, _ref_mul(one_plus_x, _ref_inv(y, p), p), p), x)
    if name == "C":
        yinv = _ref_inv(y, p)
        return QPair(_ref_scale(q, yinv, p), _ref_mul(yinv, x, p))
    if name == "I":
        return QPair(y, _ref_scale(q, _ref_inv(x, p), p))
    raise ValueError("unknown generator %r (expected P, C or I)" % name)


def _ref_apply_word(word, pair, cfg):
    for sym, exp in reversed(tuple(word)):
        step = _ref_apply if exp > 0 else _ref_apply_inverse
        for _ in range(abs(exp)):
            pair = step(sym, pair, cfg)
    return pair


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularSubstitution:
        return "singular"


def _random_word(rng, max_len):
    return tuple((rng.choice("PCI"), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(rng.randint(1, max_len)))


def _random_matrix(n, p, rng):
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))


def _count_gauss_jordan(monkeypatch):
    """A one-element list counting the kernel's calls of _mat_inv."""
    calls = [0]
    mat_inv = quantum._mat_inv

    def counted(a, p):
        calls[0] += 1
        return mat_inv(a, p)

    monkeypatch.setattr(quantum, "_mat_inv", counted)
    return calls


@pytest.mark.parametrize("n,p", KERNEL_CONFIGS)
def test_kernel_matches_letter_by_letter_maps(n, p, monkeypatch):
    """Same pair out, or SingularSubstitution in the same cases, on
    clock/shift pairs and on arbitrary matrix pairs (often singular, and
    not q-commuting: the maps need only the inverses they take)."""
    cfg = make_config(n, p)
    rng = random.Random(100 * n + p)
    fallbacks = _count_gauss_jordan(monkeypatch)
    singular = 0
    for k in range(120):
        if k % 2:
            pair = random_pair(cfg, rng)
        else:
            pair = QPair(_random_matrix(n, p, rng), _random_matrix(n, p, rng))
        word = _random_word(rng, 40)
        want = _outcome(_ref_apply_word, word, pair, cfg)
        assert _outcome(apply_word, word, pair, cfg) == want, (word, pair)
        singular += want == "singular"
        for s in "PCI":
            assert (_outcome(q_apply, s, pair, cfg)
                    == _outcome(_ref_apply, s, pair, cfg)), (s, pair)
            assert (_outcome(q_apply_inverse, s, pair, cfg)
                    == _outcome(_ref_apply_inverse, s, pair, cfg)), (s, pair)
    assert 0 < singular < 120
    # the arbitrary pairs do not q-commute: their inverses need Gauss-Jordan
    # (at N = 1 every 1 x 1 matrix is a scalar)
    assert (fallbacks[0] > 0) == (n > 1)


@pytest.mark.parametrize("suite", words.list_suites())
def test_relation_reports_match_letter_by_letter_maps(suite, monkeypatch):
    cfg = make_config(5, 101)
    cases = []
    for entry in words.load_suite(suite):
        rhs = "1" if entry["rhs"] == "probe" else entry["rhs"]
        cases.append(words._core(entry["lhs"])
                     + words.word_inverse(words._core(rhs)))
    fallbacks = _count_gauss_jordan(monkeypatch)
    got = [json.dumps(q_relation_check(w, cfg, trials=4, seed=7))
           for w in cases]
    # clock/shift pairs q-commute: every inverse is a power, none by
    # Gauss-Jordan
    assert fallbacks == [0]
    monkeypatch.setattr(quantum, "apply_word", _ref_apply_word)
    assert got == [json.dumps(q_relation_check(w, cfg, trials=4, seed=7))
                   for w in cases]


def test_letter_needing_no_inverse_of_a_singular_member_answers():
    # I inverts only y; P after it needs 1 + x and the new x, not x^-1
    cfg = make_config(3, 7)
    pair = QPair(((1, 2, 3), (2, 4, 6), (0, 0, 1)), clock_shift(cfg, 1, 2).Y)
    assert _ref_det(pair.X, 7) == 0
    for word in ((("I", 1),), (("P", 1), ("I", 1)), (("I", -1), ("C", -1))):
        out = apply_word(word, pair, cfg)
        assert out == _ref_apply_word(word, pair, cfg)
    assert q_apply("I", pair, cfg).Y == pair.X
    with pytest.raises(SingularSubstitution):
        q_apply("C", pair, cfg)


@pytest.mark.parametrize("n,p", [(3, 7), (5, 11)])
def test_long_words_match_letter_by_letter_maps(n, p):
    """200-letter words: long chains of deferred C products meet pairs
    that go singular part of the way through.  At these small p nearly
    every word with P in it meets a singular 1 + y, so half the words are
    over C and I only, which never fail on a clock/shift pair."""
    cfg = make_config(n, p)
    rng = random.Random(n * p + 200)
    singular = 0
    for k in range(16):
        if k % 4 < 2:
            pair = random_pair(cfg, rng)
        else:
            pair = QPair(_random_matrix(n, p, rng), _random_matrix(n, p, rng))
        word = tuple((rng.choice("PCI" if k % 2 else "CI"),
                      rng.choice((-2, -1, 1, 2))) for _ in range(200))
        want = _outcome(_ref_apply_word, word, pair, cfg)
        assert _outcome(apply_word, word, pair, cfg) == want, (word, pair)
        singular += want == "singular"
    assert 0 < singular < 16


@pytest.mark.parametrize("word", [
    (("C", 3000),), (("C", -3000),),
    (("C", 1), ("I", 1)) * 2000, (("I", 1), ("C", -1)) * 2000])
def test_deep_chains_of_deferred_products(word):
    # thousands of unread products hang off one another; forcing them
    # must not recurse
    cfg = make_config(5, 11)
    pair = clock_shift(cfg, 3, 7)
    assert apply_word(word, pair, cfg) == pair


def test_words_equal_to_one_still_invert_the_pair():
    # C^3 = I^4 = 1 on q-commuting pairs, but C^2 and I^2 invert both
    # members: on a singular member the letters raise, so must the kernel
    cfg = make_config(3, 7)
    good = clock_shift(cfg, 2, 3)
    singular = QPair(((1, 2, 3), (2, 4, 6), (0, 0, 1)), good.Y)
    for word in ((("C", 3),), (("C", -3),), (("I", 4),), (("I", -4),)):
        assert apply_word(word, good, cfg) == good
        for pair in (singular, QPair(good.X, singular.X)):
            assert _outcome(_ref_apply_word, word, pair, cfg) == "singular"
            with pytest.raises(SingularSubstitution):
                apply_word(word, pair, cfg)


def test_mat_inv_matches_reference_inverse():
    rng = random.Random(11)
    for p in (2, 3, 7, 11, 101):
        for n in range(1, 8):
            singular = 0
            for _ in range(40):
                # small value ranges make singular matrices common; entries
                # past p and below 0 must be read mod p
                lo, hi = rng.choice(((0, 2), (-p, 2 * p), (0, p)))
                a = tuple(tuple(rng.randrange(lo, hi) for _ in range(n))
                          for _ in range(n))
                want = _outcome(_ref_inv, tuple(tuple(v % p for v in row)
                                                for row in a), p)
                got = _outcome(quantum._mat_inv, a, p)
                if want == "singular":
                    singular += 1
                    assert got == "singular", a
                else:
                    assert tuple(map(tuple, got)) == want, a
            assert singular < 40


def test_kernel_operation_counts(monkeypatch):
    """Each P is one packed product, z = x^-1 (1 + y), and one inversion,
    of z; the first two P of a word also invert the input x and y, which
    they read as x.  At N = 5 an inversion of a member of a q-commuting
    pair is 3 packed products (z^2, z^4, z z^4) and no Gauss-Jordan."""
    cfg = make_config(5, 101)
    pair = clock_shift(cfg, 7, 3)
    calls = {"mul": 0, "inv": 0}
    mul, inv = quantum._Packed.mul, quantum._Packed.inv

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    def counted_inv(self, a):
        calls["inv"] += 1
        return inv(self, a)

    monkeypatch.setattr(quantum._Packed, "mul", counted_mul)
    monkeypatch.setattr(quantum._Packed, "inv", counted_inv)
    fallbacks = _count_gauss_jordan(monkeypatch)
    packed = quantum._packed(5, 101)
    packed.inv(packed.pack(pair.X))
    assert calls == {"mul": 3, "inv": 1}
    for k in (1, 2, 5, 9):
        calls["mul"] = calls["inv"] = 0
        word = (("P", k),)
        assert apply_word(word, pair, cfg) == _ref_apply_word(word, pair, cfg)
        inversions = k + min(k, 2)
        assert calls == {"mul": k + 3 * inversions, "inv": inversions}
    assert fallbacks == [0]
    for name in ("_solve", "_Product", "_force", "_one_plus"):
        assert not hasattr(quantum, name)


# ---------------------------------------------------------------------------
# packed arithmetic

PACKED_PRIMES = (2, 3, 7, 11, 101, 2 ** 61 - 1)


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("n", range(1, 8))
def test_reduction_is_exact_up_to_the_largest_slot_value(n, p):
    """reduce leaves v mod p in every slot for every v below
    V = N (p - 1)^2 + p: the largest value in every slot, and values on
    both sides of multiples of p next to slots that hold V - 1."""
    packed = quantum._Packed(n, p)
    top = n * (p - 1) ** 2 + p - 1
    assert 2 ** packed.t > (top + 1) * p
    assert top * packed.m < 2 ** packed.s
    near = sorted({v for a in (top // p, top // p - 1, 1, 0)
                   for v in (a * p - 1, a * p, a * p + 1, a * p + p - 1)
                   if 0 <= v <= top})
    rng = random.Random(n * 1000 + p % 1000)
    layouts = [[top] * (n * n)]
    for v in near:
        layouts.append([v if k % 2 else top for k in range(n * n)])
        layouts.append([top if k % 2 else v for k in range(n * n)])
    layouts += [[rng.randrange(top + 1) for _ in range(n * n)]
                for _ in range(20)]
    for values in layouts:
        v = sum(x << packed.s * k for k, x in enumerate(values))
        got = packed.unpack(packed.reduce(v))
        assert [x for row in got for x in row] == [x % p for x in values]


def _ref_outcomes(packed, a, b, p):
    pa, pb = packed.pack(a), packed.pack(b)
    assert packed.unpack(pa) == a
    assert packed.unpack(packed.mul(pa, pb)) == _ref_mul(a, b, p)
    try:
        c, r = packed.inv(pa)
    except SingularSubstitution:
        return "singular"
    return _ref_scale(pow(c, -1, p), packed.unpack(r), p)


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("n", range(1, 8))
def test_packed_products_and_inverses_match_the_reference(n, p):
    """On all-(p - 1) matrices, the largest sums a product forms, and on
    matrices reached from clock/shift pairs by random words."""
    packed = quantum._Packed(n, p)
    top = tuple(tuple(p - 1 for _ in range(n)) for _ in range(n))
    assert _ref_outcomes(packed, top, top, p) == _outcome(_ref_inv, top, p)
    if p % n != 1 % n or (n, p) == (1, 2):
        return      # no root of unity of order n, or no nonsingular P
    cfg = make_config(n, p)
    rng = random.Random(n * 31 + p % 1000)
    done = 0
    for _ in range(200):
        pair = random_pair(cfg, rng)
        try:
            pair = apply_word(_random_word(rng, 8), pair, cfg)
        except SingularSubstitution:
            continue
        for a, b in ((pair.X, pair.Y), (pair.Y, pair.X)):
            assert _ref_outcomes(packed, a, b, p) == _ref_inv(a, p)
        done += 1
        if done == 10:
            break
    assert done == 10


def test_commutation_check_compares_like_with_like():
    cfg = make_config(5, 11)
    pair = clock_shift(cfg, 3, 7)
    assert commutes_q(pair, cfg) and pair_valid(pair, cfg)
    swapped = QPair(pair.Y, pair.X)
    assert not commutes_q(swapped, cfg) and not pair_valid(swapped, cfg)


# ---------------------------------------------------------------------------
# N-th powers move by the commutative maps

def _mat_pow(a, n, p):
    out = a
    for _ in range(n - 1):
        out = _ref_mul(out, a, p)
    return out


def _scalar_of(a, p):
    """c when a = c * identity, else None."""
    c = a[0][0]
    return c if a == _ref_scale(c, _ref_eye(len(a)), p) else None


def _classical(word, point, p):
    for sym, exp in reversed(word):
        g = (birational.generator_bir if exp > 0
             else birational.generator_bir_inverse)(sym)
        for _ in range(abs(exp)):
            point = g.apply_mod(point, p)
    return point


@pytest.mark.parametrize("n,p", [(3, 7), (5, 11), (5, 101), (7, 29), (3, 31)])
def test_nth_powers_move_by_the_classical_maps(n, p):
    """For q of exact order N, N odd, X^N and Y^N are central, and by the
    q-binomial theorem P sends (X^N, Y^N) to (Y^N, X^-N (1 + Y^N)) and P^-1
    sends it to ((1 + X^N) Y^-N, X^N): the q = 1 maps.  C and I do so too,
    hence every word does."""
    cfg = make_config(n, p)
    rng = random.Random(n * p)
    done = 0
    while done < 120:
        pair = random_pair(cfg, rng)
        a, b = (_scalar_of(_mat_pow(m, n, p), p) for m in (pair.X, pair.Y))
        assert a and b
        cases = [((("P", 1),), (b, (1 + b) * pow(a, -1, p) % p)),
                 ((("P", -1),), ((1 + a) * pow(b, -1, p) % p, a))]
        word = _random_word(rng, 12)
        cases.append((word, None))
        for w, want in cases:
            try:
                out = apply_word(w, pair, cfg)
            except SingularSubstitution:
                continue
            got = tuple(_scalar_of(_mat_pow(m, n, p), p)
                        for m in (out.X, out.Y))
            assert got == (want or _classical(w, (a, b), p)), (w, pair)
            done += 1
