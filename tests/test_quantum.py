"""Clock/shift matrix model of the q-commuting substitution maps."""

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
