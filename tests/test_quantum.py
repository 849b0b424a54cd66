"""Clock/shift matrix model of the q-commuting substitution maps."""

import collections
import copy
import itertools
import json
import pickle
import random

import pytest

from sympt import birational, quantum, words
from sympt.plcore import is_prime, power
from sympt.quantum import (
    QConfig,
    QPair,
    SingularSubstitution,
    apply_word,
    clock_shift,
    commutes_q,
    default_prime,
    make_config,
    q_apply,
    q_apply_inverse,
    q_relation_check,
    random_pair,
)

CONFIGS = [(1, 101), (3, 7), (5, 11), (7, 29)]
KERNEL_CONFIGS = [(1, 101), (2, 7), (3, 7), (4, 13), (5, 11), (5, 101),
                  (7, 29), (3, 31)]

H_RELATIONS = {
    "C^3": (("C", 3),),
    "I^4": (("I", 4),),
    "P^5": (("P", 5),),
    "PCP I^-1": (("P", 1), ("C", 1), ("P", 1), ("I", -1)),
    "[C, I^2]": (("C", 1), ("I", 2), ("C", -1), ("I", -2)),
}


def sample_pair(cfg, rng):
    return random_pair(cfg, rng)


def _valid(pair, cfg):
    """Both members invertible and X Y = q Y X."""
    return (_ref_det(pair.X, cfg.p) != 0 and _ref_det(pair.Y, cfg.p) != 0
            and commutes_q(pair, cfg))


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
    with pytest.raises(ValueError, match="positive"):
        QConfig(0, 13, 1)


def test_make_config_keeps_recent_configs_only():
    make_config.cache_clear()
    assert make_config(5) is make_config(5)
    for n in range(1, 80):
        assert make_config(n) == QConfig(n, *_search(n))
    assert make_config.cache_info().currsize == 32
    # a refusal is raised again, never kept
    for _ in range(2):
        with pytest.raises(ValueError, match="not prime"):
            make_config(3, 8)


def _search(n):
    p = quantum.default_prime(n)
    return p, quantum._least_root_of_unity(n, p)


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
            assert _valid(sample_pair(cfg, rng), cfg)


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
                assert _valid(out, cfg)
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
    with pytest.raises(ValueError, match="at least 1"):
        q_relation_check((("P", 5),), cfg, trials=0)


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
    cfg = make_config(1, 2)
    report = q_relation_check((("P", 1),), cfg, trials=3)
    assert report["verdict"] == "inconclusive"
    assert report["trials"] < 3
    assert report["singular_resamples"] == quantum._MAX_RESAMPLES
    assert (report, "singular") == _ref_reports((("P", 1),), cfg, 3, 0)
    assert not quantum.word_acts_as_identity((("P", 1),), N=1, p=2,
                                             trials=3)["identity"]
    with pytest.raises(SingularSubstitution, match="exhausted"):
        quantum.evaluate_word((("P", 1),), {"N": 1, "p": 2})


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
    """The calls of a Gauss-Jordan inverse, as a one-element list: quantum
    has none to call."""
    assert not hasattr(quantum, "_mat_inv")
    return [0]


def _refusal(pair, cfg):
    """What apply_word raises on an arbitrary pair at entry: a pair that
    does not q-commute raises ValueError, then a singular member
    SingularSubstitution; None for a pair it takes."""
    if not quantum.commutes_q(pair, cfg):
        return ValueError
    if _ref_det(pair.X, cfg.p) == 0 or _ref_det(pair.Y, cfg.p) == 0:
        return SingularSubstitution
    return None


def _check_refused(word, pair, cfg):
    """Every entry refuses the arbitrary pair with exactly the class
    _refusal says; returns False when the pair is taken after all."""
    want = _refusal(pair, cfg)
    if want is None:
        return False
    calls = [lambda: apply_word(word, pair, cfg)]
    for s in "PCI":
        calls += [lambda s=s: q_apply(s, pair, cfg),
                  lambda s=s: q_apply_inverse(s, pair, cfg)]
    for call in calls:
        with pytest.raises(want) as info:
            call()
        assert type(info.value) is want
    return True


@pytest.mark.parametrize("n,p", KERNEL_CONFIGS)
def test_kernel_matches_letter_by_letter_maps(n, p, monkeypatch):
    """Same pair out, or SingularSubstitution in the same cases, on
    clock/shift pairs, with no Gauss-Jordan.  An arbitrary matrix pair,
    often singular and not q-commuting, is refused at entry."""
    cfg = make_config(n, p)
    rng = random.Random(100 * n + p)
    fallbacks = _count_gauss_jordan(monkeypatch)
    singular = refused = 0
    for k in range(120):
        if k % 2:
            pair = random_pair(cfg, rng)
        else:
            pair = QPair(_random_matrix(n, p, rng), _random_matrix(n, p, rng))
        word = _random_word(rng, 40)
        if _check_refused(word, pair, cfg):
            refused += 1
            continue
        before = fallbacks[0]
        want = _outcome(_ref_apply_word, word, pair, cfg)
        assert _outcome(apply_word, word, pair, cfg) == want, (word, pair)
        singular += want == "singular"
        for s in "PCI":
            assert (_outcome(q_apply, s, pair, cfg)
                    == _outcome(_ref_apply, s, pair, cfg)), (s, pair)
            assert (_outcome(q_apply_inverse, s, pair, cfg)
                    == _outcome(_ref_apply_inverse, s, pair, cfg)), (s, pair)
        assert fallbacks[0] == before
    assert 0 < singular < 60
    # at N = 1 every pair q-commutes, and only a zero member is refused
    assert (refused > 30) == (n > 1)


def _random_invertible(n, p, rng):
    while True:
        t = _random_matrix(n, p, rng)
        if _ref_det(t, p):
            return t


@pytest.mark.parametrize("n,p", KERNEL_CONFIGS)
def test_conjugated_clock_shift_pairs_match_letter_by_letter_maps(
        n, p, monkeypatch):
    """A pair T (lx clock, ly shift) T^-1, T random and invertible,
    q-commutes but is no clock/shift pair: every member is still inverted
    as a power, with no Gauss-Jordan, and the kernel gives what the
    letter-by-letter maps give.  A q-commuting pair with a zero member is
    refused as singular."""
    cfg = make_config(n, p)
    rng = random.Random(300 * n + p)
    fallbacks = _count_gauss_jordan(monkeypatch)
    answered = 0
    for _ in range(20):
        t = _random_invertible(n, p, rng)
        ti = _ref_inv(t, p)
        base = random_pair(cfg, rng)
        pair = QPair(*(_ref_mul(_ref_mul(t, m, p), ti, p)
                       for m in base._fields()))
        assert commutes_q(pair, cfg)
        for word in [_random_word(rng, 12) for _ in range(3)]:
            want = _outcome(_ref_apply_word, word, pair, cfg)
            assert _outcome(apply_word, word, pair, cfg) == want, (word, pair)
            answered += want != "singular"
        for s in "PCI":
            assert (_outcome(q_apply, s, pair, cfg)
                    == _outcome(_ref_apply, s, pair, cfg)), (s, pair)
            assert (_outcome(q_apply_inverse, s, pair, cfg)
                    == _outcome(_ref_apply_inverse, s, pair, cfg)), (s, pair)
    assert answered and fallbacks == [0]
    clock, shift = clock_shift(cfg, 1, 1)._fields()
    zero = tuple((0,) * n for _ in range(n))
    # J, all ones, and n 1 - J multiply to 0 both ways; their N-th powers
    # are n^(N-1) times themselves, singular but with a nonzero corner
    ones = tuple((1,) * n for _ in range(n))
    rest = _ref_add(_ref_scale(n, _ref_eye(n), p), _ref_scale(-1, ones, p), p)
    for pair in (QPair(zero, shift), QPair(clock, zero), QPair(zero, zero),
                 QPair(ones, rest)):
        assert commutes_q(pair, cfg)
        for word in ((), (("P", 1),), (("C", 3),), (("I", -1),)):
            with pytest.raises(SingularSubstitution):
                apply_word(word, pair, cfg)


def _ref_pair_json(pair):
    return {"X": [list(r) for r in pair.X], "Y": [list(r) for r in pair.Y]}


def _ref_reports(word, cfg, trials, seed):
    """What q_relation_check and evaluate_word report, rebuilt as a loop
    over QPair values: random_pair draws each pair and the letter-by-letter
    maps apply the word.  evaluate_word reports the first draw on which no
    letter goes singular, so one run of draws gives both."""
    rng = random.Random(seed)
    completed = resamples = 0
    witnesses = []
    value = "singular"
    while completed < trials and resamples < quantum._MAX_RESAMPLES:
        pair = random_pair(cfg, rng)
        out = _outcome(_ref_apply_word, word, pair, cfg)
        if out == "singular":
            resamples += 1
            continue
        if not completed:
            value = {"N": cfg.N, "p": cfg.p, "q": cfg.q,
                     "input": _ref_pair_json(pair),
                     "output": _ref_pair_json(out)}
        completed += 1
        if out != pair and len(witnesses) < 3:
            witnesses.append({"input": _ref_pair_json(pair),
                              "output": _ref_pair_json(out)})
    verdict = ("inconclusive" if completed < trials
               else "nonidentity" if witnesses else "identity")
    report = {"N": cfg.N, "p": cfg.p, "q": cfg.q, "trials": completed,
              "singular_resamples": resamples, "verdict": verdict,
              "witnesses": witnesses}
    if verdict == "nonidentity":
        report["exact"] = True
    return report, value


REPORT_CONFIGS = [(1, 101), (4, 101), (5, 101), (7, 29), (5, 2 ** 61 - 1)]


@pytest.mark.parametrize("suite", words.list_suites())
def test_relation_reports_match_letter_by_letter_maps(suite, monkeypatch):
    """The packed sampler reports what random_pair and the letter-by-letter
    maps give: the same draws, resamples and witnesses, byte for byte."""
    cases = []
    for entry in words.load_suite(suite):
        rhs = "1" if entry["rhs"] == "probe" else entry["rhs"]
        cases.append(words._core(entry["lhs"])
                     + words.word_inverse(words._core(rhs)))
    fallbacks = _count_gauss_jordan(monkeypatch)
    for n, p in REPORT_CONFIGS:
        cfg = make_config(n, p)
        params = {"N": n, "p": p, "seed": 7}
        for w in cases:
            report, value = map(json.dumps, _ref_reports(w, cfg, 4, 7))
            got = q_relation_check(w, cfg, 4, 7)
            assert json.dumps(got) == report, (n, p, w)
            got = _outcome(quantum.evaluate_word, w, params)
            assert json.dumps(got) == value, (n, p, w)
    # clock/shift pairs q-commute: every inverse is a power, none by
    # Gauss-Jordan
    assert fallbacks == [0]


def _singular_pairs(cfg):
    """Two q-commuting pairs with one singular member: clock (1 - shift)
    and shift, and clock and (1 - clock) shift.  clock times any
    polynomial in shift q-commutes with shift, and any polynomial in clock
    times shift with clock; 1 - shift and 1 - clock have eigenvalue 0."""
    n, p = cfg.N, cfg.p
    clock, shift = clock_shift(cfg, 1, 1)._fields()
    eye = _ref_eye(n)
    return (QPair(_ref_mul(clock, _ref_add(eye, _ref_scale(-1, shift, p), p),
                           p), shift),
            QPair(clock, _ref_mul(_ref_add(eye, _ref_scale(-1, clock, p), p),
                                  shift, p)))


def test_letter_needing_no_inverse_of_a_singular_member_is_refused():
    # I inverts only y, and P after it needs 1 + x and the new x, not x^-1;
    # the letter-by-letter maps answer, but the kernel carries both
    # inverses from the first step, so it refuses the pair at entry
    cfg = make_config(3, 7)
    pair = _singular_pairs(cfg)[0]
    assert commutes_q(pair, cfg) and _ref_det(pair.X, 7) == 0
    for word in ((("I", 1),), (("P", 1), ("I", 1)), (("I", -1), ("C", -1))):
        assert _outcome(_ref_apply_word, word, pair, cfg) != "singular"
        with pytest.raises(SingularSubstitution):
            apply_word(word, pair, cfg)
    for name in "PCI":
        for step in (q_apply, q_apply_inverse):
            with pytest.raises(SingularSubstitution):
                step(name, pair, cfg)


@pytest.mark.parametrize("n,p", [(3, 7), (5, 11)])
def test_long_words_match_letter_by_letter_maps(n, p):
    """200-letter words on clock/shift pairs that go singular part of the
    way through.  At these small p nearly every word with P in it meets a
    singular 1 + y, so half the words are over C and I only, which never
    fail on a clock/shift pair.  Arbitrary pairs are refused at entry."""
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
        if k % 4 >= 2:
            assert _check_refused(word, pair, cfg), pair
            continue
        want = _outcome(_ref_apply_word, word, pair, cfg)
        assert _outcome(apply_word, word, pair, cfg) == want, (word, pair)
        singular += want == "singular"
    assert 0 < singular < 8


def test_relabels_fold_exactly():
    # the q exponents are exact integers of the run: the relations of C
    # and I hold with g = 0, whatever N and p
    def fold(text):
        return words._fold(words.parse_word(text), quantum._RELABELS)

    assert fold("C^3") == fold("C^-3") == fold("I^4") == fold("I^-4") \
        == quantum._RELABELS.identity
    assert fold("C^2") == quantum._ATOMS["C", -1]
    assert fold("I^3") == quantum._ATOMS["I", -1]
    # U = C I sends (X, Y) to (q^g X Y^n, Y) for n = 1, 2, ...
    cfg = make_config(5, 11)
    pair = clock_shift(cfg, 3, 7)
    for n in (1, 2, 5):
        a, b, c, d, g1, g2 = fold("U^%d" % n)
        assert (a, b, c, d, g2) == (1, n, 0, 1, 0)
        yn = pair.Y
        for _ in range(n - 1):
            yn = _ref_mul(yn, pair.Y, 11)
        want = _ref_scale(pow(cfg.q, g1, 11), _ref_mul(pair.X, yn, 11), 11)
        assert apply_word(words._core("U^%d" % n), pair, cfg).X == want


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
    for word in ((("C", 3),), (("C", -3),), (("I", 4),), (("I", -4),)):
        assert apply_word(word, good, cfg) == good
        for pair in _singular_pairs(cfg):
            assert commutes_q(pair, cfg)
            assert _outcome(_ref_apply_word, word, pair, cfg) == "singular"
            with pytest.raises(SingularSubstitution):
                apply_word(word, pair, cfg)


def _count_products(monkeypatch):
    """A counter of the packed products (_Packed.mul) and checked
    inversions (_Packed.inv) made while it is in place."""
    calls = collections.Counter()
    mul, inv = quantum._Packed.mul, quantum._Packed.inv

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    def counted_inv(self, a):
        calls["inv"] += 1
        return inv(self, a)

    monkeypatch.setattr(quantum._Packed, "mul", counted_mul)
    monkeypatch.setattr(quantum._Packed, "inv", counted_inv)
    return calls


def test_kernel_operation_counts(monkeypatch):
    """apply_word checks X Y = q Y X, 2 packed products, and inverts the
    input X and Y at entry by the checked _Packed.inv, 3 packed products
    each at N = 5 (u^2, u^4, u u^4); the kernel never calls it.  A P step after the identity relabel makes
    q (X^-1 + X^-1 Y), one product, and in P^k the inverse of a step's
    new member is read two steps on, so k - 2 members are inverted, each
    as u^4 / u^N: two products.  In P C^-1 the step's two terms are lone
    members, Y and X, and only the kept member X Y^-1 costs a product."""
    cfg = make_config(5, 101)
    pair = clock_shift(cfg, 7, 3)
    calls = _count_products(monkeypatch)
    fallbacks = _count_gauss_jordan(monkeypatch)
    packed = quantum._packed(5, 101)
    packed.inv(packed.pack(pair.X))
    assert calls == {"mul": 3, "inv": 1}
    for word, products in [((("P", k),), k + 2 * max(k - 2, 0))
                           for k in (1, 2, 5, 9)] + [
                          ((("P", 1), ("C", -1)), 1)]:
        calls.clear()
        assert apply_word(word, pair, cfg) == _ref_apply_word(word, pair, cfg)
        assert calls == {"mul": 8 + products, "inv": 2}, word
    quantum._base(cfg)
    calls.clear()
    report = q_relation_check(H_RELATIONS["P^5"], cfg, 12, 1)
    assert report["verdict"] == "identity" and calls["inv"] == 0
    assert fallbacks == [0]
    for name in ("_solve", "_Product", "_force", "_one_plus", "_inverse"):
        assert not hasattr(quantum, name)


def _suite_words():
    """Each relation of each shipped suite as one core word, lhs rhs^-1."""
    for suite in words.list_suites():
        for entry in words.load_suite(suite):
            rhs = "1" if entry["rhs"] == "probe" else entry["rhs"]
            yield (words._core(entry["lhs"])
                   + words.word_inverse(words._core(rhs)))


def test_suite_product_count_is_pinned(monkeypatch):
    """The packed products of every shipped suite at seeds 0-2 and the
    default configuration, past the clock and shift that _base packs: a
    product added back to the kernel, or a walk past a check's third
    witness, shows here."""
    cfg = make_config(5)
    quantum._base(cfg)
    calls = _count_products(monkeypatch)
    for suite in words.list_suites():
        for seed in range(3):
            words.check_suite(suite, "quantum", {"seed": seed})
    assert calls == {"mul": 27615}


def test_trials_past_the_third_witness_are_not_walked(monkeypatch):
    """Past a check's third witness a trial changes only the counts, and
    the N-th powers alone say whether its draw is singular; the report is
    the one a check that walks every trial gives."""
    walks = []
    apply_packed = quantum._apply_packed

    def counted(*args):
        walks.append(args)
        return apply_packed(*args)

    monkeypatch.setattr(quantum, "_apply_packed", counted)
    # at p = 11, a fifth of the draws or so is singular
    cfg = make_config(5, 11)
    for word in (words._core("P C"), words._core("P^2 I^-1 C P")):
        walks.clear()
        report = q_relation_check(word, cfg, trials=30, seed=7)
        walked, witnesses = len(walks), []
        completed = resamples = 0
        for x, y, walk in quantum._trials(word, cfg, random.Random(7)):
            if walk is None:
                resamples += 1
                continue
            completed += 1
            out = walk()
            if out != (x, y) and len(witnesses) < 3:
                witnesses.append(quantum._pair_json(cfg, x, y))
                moving = completed
            if completed == 30:
                break
        assert resamples and len(witnesses) == 3 and moving < 30
        assert walked == moving
        assert report["verdict"] == "nonidentity"
        assert (report["trials"], report["singular_resamples"]) == (
            completed, resamples)
        assert [w["input"] for w in report["witnesses"]] == witnesses


def _checked_walk(word, x, y, cfg):
    """The word on the packed pair (x, y), letter by letter by the maps of
    the module docstring, every member packed with canonical slots.  Each
    inverse comes from the checked _Packed.inv, which must find
    u u^(N-1) = c 1 and raises SingularSubstitution where u is singular."""
    packed = quantum._packed(cfg.N, cfg.p)
    p, q, one = cfg.p, cfg.q, packed.one
    mul, red = packed.mul, packed.reduce

    def inverse(u):
        c, r = packed.inv(u)
        assert mul(u, r) == c * one
        return red(pow(c, -1, p) * r)

    def times(c, u):
        return red(c * u)

    qi = pow(q, -1, p)
    X, XI, Y, YI = x, inverse(x), y, inverse(y)
    for sym, exp in reversed(word):
        for _ in range(abs(exp)):
            if (sym, exp > 0) == ("P", True):
                z = times(q, mul(XI, red(Y + one)))
                X, XI, Y, YI = Y, YI, z, inverse(z)
            elif sym == "P":
                z = times(q, mul(red(X + one), YI))
                X, XI, Y, YI = z, inverse(z), X, XI
            elif (sym, exp > 0) == ("C", True):
                X, XI, Y, YI = (times(q, mul(XI, Y)), times(qi, mul(YI, X)),
                                times(q, XI), times(qi, X))
            elif sym == "C":
                X, XI, Y, YI = (times(q, YI), times(qi, Y), mul(YI, X),
                                mul(XI, Y))
            elif exp > 0:
                X, XI, Y, YI = times(q, YI), times(qi, Y), X, XI
            else:
                X, XI, Y, YI = Y, YI, times(q, XI), times(qi, X)
    return X, Y


@pytest.mark.parametrize("n,p", KERNEL_CONFIGS)
def test_kernel_inversions_and_refusals_agree_with_the_checked_inverse(
        n, p, monkeypatch):
    """Over every shipped suite, each inversion the kernel makes is the
    checked _Packed.inv's: u u^(N-1) = c 1, found without Gauss-Jordan,
    and 1 / c is the scalar the kernel tracked.  Each draw the kernel
    refuses as singular is one on which a checked inversion, letter by
    letter, raises; on every other draw the two walks agree."""
    cfg = make_config(n, p)
    packed = quantum._packed(n, p)
    power_inverse = quantum._power_inverse
    inversions = []

    def checked(packed_, u, inverse_power):
        c, m = u
        cm, r = packed.inv(m)
        assert r == (power(m, n - 1, packed.mul) if n > 1 else packed.one)
        assert pow(c, n, p) * cm * inverse_power % p == 1
        got = power_inverse(packed_, u, inverse_power)
        assert got == (pow(c * cm, -1, p), r)
        inversions.append(got)
        return got

    monkeypatch.setattr(quantum, "_power_inverse", checked)
    fallbacks = _count_gauss_jordan(monkeypatch)
    refused = 0
    for word in _suite_words():
        for x, y, walk in itertools.islice(
                quantum._trials(word, cfg, random.Random(n * p)), 6):
            out = walk and walk()
            want = _outcome(_checked_walk, word, x, y, cfg)
            assert out == (None if want == "singular" else want), word
            refused += out is None
    assert inversions and fallbacks == [0]
    assert refused, "no draw refused"


def test_a_singular_new_member_that_nothing_inverts_is_still_refused():
    """The last P step's new member is an output: no step inverts it, and
    no product makes its singularity show.  Where it alone is singular,
    the kernel refuses the draw as the letter-by-letter maps do."""
    cfg = make_config(5, 11)
    rng = random.Random(43)
    found = 0
    for _ in range(2000):
        pair = random_pair(cfg, rng)
        rest = _random_word(rng, 6)
        last = (("P", rng.choice((1, -1))),)
        if (_outcome(_ref_apply_word, rest, pair, cfg) == "singular"
                or _outcome(_ref_apply_word, last + rest, pair, cfg)
                != "singular"):
            continue
        steps, _ = words.compile_word(
            last + rest, quantum._RELABELS, quantum._program)
        assert steps[-1][-1] is False       # nothing inverts it
        with pytest.raises(SingularSubstitution):
            apply_word(last + rest, pair, cfg)
        found += 1
    assert found > 10


def test_sampling_stays_packed(monkeypatch):
    """A check packs the clock and shift once per configuration.  No trial
    builds a clock/shift pair or unpacks a matrix; only a witness does."""
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(quantum._Packed, "pack")
    counted(quantum._Packed, "unpack")
    counted(quantum, "clock_shift")
    cfg = make_config(5, 101)
    for trials in (1, 12):
        quantum._base.cache_clear()
        calls.clear()
        report = q_relation_check(H_RELATIONS["PCP I^-1"], cfg, trials, 1)
        assert report["verdict"] == "identity"
        assert report["trials"] == trials
        assert calls == {"pack": 2, "clock_shift": 1}
        calls.clear()
        q_relation_check(H_RELATIONS["P^5"], cfg, trials, 2)
        assert calls == {}
    # P moves every pair: three witnesses, each an input and an output
    report = q_relation_check((("P", 1),), cfg, 12, 3)
    assert report["verdict"] == "nonidentity"
    assert len(report["witnesses"]) == 3
    assert calls == {"unpack": 12}


# ---------------------------------------------------------------------------
# packed arithmetic

PACKED_PRIMES = (2, 3, 7, 11, 101, 2 ** 61 - 1)


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("n", range(1, 8))
def test_reduction_is_exact_up_to_the_largest_slot_value(n, p):
    """reduce leaves v mod p in every slot for every v below
    V = max(N, 2) (p - 1)^2 + p: the largest value in every slot, and
    values on both sides of multiples of p next to slots that hold V - 1."""
    packed = quantum._Packed(n, p)
    top = max(n, 2) * (p - 1) ** 2 + p - 1
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
    assert commutes_q(pair, cfg) and _valid(pair, cfg)
    swapped = QPair(pair.Y, pair.X)
    assert not commutes_q(swapped, cfg) and not _valid(swapped, cfg)
    zero = tuple((0,) * cfg.N for _ in range(cfg.N))
    assert not _valid(QPair(zero, pair.Y), cfg)  # X is singular


def test_a_pair_of_the_wrong_shape_is_refused_by_its_shape():
    """commutes_q, and so every entry, refuses a pair that is not two
    N x N matrices before anything is packed, naming the shape, and not as
    singular."""
    cfg = make_config(2, 103)
    square = clock_shift(cfg, 2, 3)
    cases = [(clock_shift(make_config(3, 103), 2, 3), "X .* 2 x 2.*[3, 3, 3]"),
             (QPair(square.X, ((0, 1), (1, 0, 0))), r"Y .* 2 x 2.*\[2, 3\]"),
             (QPair(((1, 0),), square.Y), r"X .* 2 x 2.*\[2\]")]
    for pair, message in cases:
        for call in (lambda: commutes_q(pair, cfg),
                     lambda: apply_word((("C", 1),), pair, cfg),
                     lambda: q_apply("P", pair, cfg),
                     lambda: q_apply_inverse("I", pair, cfg)):
            with pytest.raises(ValueError, match=message) as info:
                call()
            assert type(info.value) is ValueError


# ---------------------------------------------------------------------------
# N-th powers move by the commutative maps

def _mat_pow(a, n, p):
    out = a
    for _ in range(n - 1):
        out = _ref_mul(out, a, p)
    return out


def _ref_power(a, k, p):
    """a^k for any integer k, a invertible."""
    return _mat_pow(a if k > 0 else _ref_inv(a, p), abs(k), p) if k \
        else _ref_eye(len(a))


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


@pytest.mark.parametrize("n,p", [(2, 7), (3, 7), (4, 13), (5, 11),
                                 (5, 101), (6, 13), (7, 29), (3, 31)])
def test_nth_powers_move_by_the_classical_maps(n, p):
    """For q of exact order N, X^N and Y^N are central scalars; with
    eps = (-1)^(N+1), (q^g X^a Y^b)^N = eps^(ab) X^(Na) Y^(Nb), P sends
    (X^N, Y^N) to (Y^N, X^-N (1 + eps Y^N)) and P^-1 sends it to
    ((1 + eps X^N) Y^-N, X^N).  So (eps X^N, eps Y^N) moves by the q = 1
    maps, under every word."""
    cfg = make_config(n, p)
    eps = (-1) ** (n + 1)
    rng = random.Random(n * p)
    done = 0
    while done < 120:
        pair = random_pair(cfg, rng)
        a, b = (_scalar_of(_mat_pow(m, n, p), p) for m in (pair.X, pair.Y))
        assert a and b
        e, f, g = rng.randint(-3, 3), rng.randint(-3, 3), rng.randrange(n)
        member = _ref_scale(pow(cfg.q, g, p), _ref_mul(
            _ref_power(pair.X, e, p), _ref_power(pair.Y, f, p), p), p)
        assert (_scalar_of(_mat_pow(member, n, p), p)
                == eps ** (e * f) * pow(a, e, p) * pow(b, f, p) % p)
        cases = [((("P", 1),), (b, (1 + eps * b) * pow(a, -1, p) % p)),
                 ((("P", -1),), ((1 + eps * a) * pow(b, -1, p) % p, a))]
        cases.append((_random_word(rng, 12), None))
        for w, want in cases:
            try:
                out = apply_word(w, pair, cfg)
            except SingularSubstitution:
                continue
            if want is None:
                point = _classical(w, (eps * a % p, eps * b % p), p)
                want = tuple(eps * v % p for v in point)
            got = tuple(_scalar_of(_mat_pow(m, n, p), p)
                        for m in (out.X, out.Y))
            assert got == want, (w, pair)
            done += 1
