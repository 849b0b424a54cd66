"""Word grammar, expansions, and the relation suites on the exact backends."""

import json
import random
from fractions import Fraction

import pytest

from sympt import birational, picard, plcore, quantum, thompson, words
from sympt.words import (
    ALPHABET,
    BACKENDS,
    EXPANSIONS,
    WordSyntaxError,
    _core,
    check_suite,
    evaluate,
    expand,
    format_word,
    list_suites,
    load_suite,
    parse_word,
    word_inverse,
    word_length,
)


# ---------------------------------------------------------------------------
# grammar


def test_parse_basic():
    assert parse_word("P C P") == (("P", 1), ("C", 1), ("P", 1))
    assert parse_word("I^2 C") == (("I", 2), ("C", 1))
    assert parse_word("mu^-3 X2") == (("mu", -3), ("X2", 1))
    assert parse_word("1") == ()
    assert parse_word("  ") == ()


def test_parse_rejects_unknown_symbol():
    with pytest.raises(WordSyntaxError) as e:
        parse_word("P Q")
    assert e.value.position == 2


def test_parse_rejects_garbage():
    for bad in ("P^", "C^x", "P^0", "2P", "P*C"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


def test_format_round_trip():
    for text in ("P C^-1 I^2", "mu", "alpha^-1 beta X2^3", "1"):
        assert format_word(parse_word(text)) == text


def test_word_inverse():
    w = parse_word("P C^-1 I^2")
    assert word_inverse(w) == (("I", -2), ("C", 1), ("P", -1))
    assert word_inverse(word_inverse(w)) == w
    assert word_length(w) == 4


# ---------------------------------------------------------------------------
# expansion


def test_expand_examples():
    assert format_word(expand(parse_word("I"))) == "P C P"
    assert format_word(expand(parse_word("U"), ("P", "C"))) == "C P C P"
    assert format_word(expand(parse_word("mu"))) == "P C P^2"


def test_expand_to_lc_alphabet():
    # true identities only: I rewrites through P = L^-1, not as L C L
    assert format_word(expand(parse_word("I"), ("L", "C"))) == "L^-1 C L^-1"
    assert format_word(expand(parse_word("P"), ("L", "C"))) == "L^-1"


def test_expand_rejects_other_alphabets():
    with pytest.raises(ValueError):
        expand(parse_word("P"), ("P", "I"))


def test_expansions_are_group_identities():
    # every table entry names the same PL element as its expansion
    for sym, body in EXPANSIONS.items():
        lhs = evaluate(sym, "pl")
        rhs = evaluate(body, "pl")
        assert lhs == rhs, sym


def test_expansion_soundness_on_suite_words():
    for name in list_suites():
        for entry in load_suite(name):
            for text in (entry["lhs"], entry["rhs"]):
                if text in ("1", "probe"):
                    continue
                w = parse_word(text)
                assert evaluate(w, "pl") == evaluate(expand(w), "pl")
                assert evaluate(w, "pl") == evaluate(expand(w, ("L", "C")), "pl")


def rewrite(word, target):
    """The naive reference for _core and expand: replace every letter
    outside target by its expansion, one letter at a time, until none is
    left, then cancel x x^-1 pairs with a stack and regroup runs."""
    def letters(w):
        return [(s, 1 if e > 0 else -1) for s, e in w for _ in range(abs(e))]

    flat = letters(word)
    while any(s not in target for s, _ in flat):
        out = []
        for s, e in flat:
            if s in target:
                out.append((s, e))
            else:
                body = letters(parse_word(EXPANSIONS[s]))
                out += body if e > 0 else [(t, -f) for t, f in reversed(body)]
        flat = out
    stack = []
    for s, e in flat:
        if stack and stack[-1] == (s, -e):
            stack.pop()
        else:
            stack.append((s, e))
    runs = []
    for s, e in stack:
        if runs and runs[-1][0] == s:
            runs[-1][1] += e
        else:
            runs.append([s, e])
    return tuple((s, e) for s, e in runs)


def test_core_and_expand_equal_naive_rewriting():
    rng = random.Random(37)
    cases = [tuple((rng.choice(ALPHABET),
                    rng.choice((1, 2, 3, 7, 11)) * rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 6)))
             for _ in range(400)]
    cases += [parse_word(text) for name in list_suites()
              for entry in load_suite(name)
              for text in (entry["lhs"], entry["rhs"])
              if text not in ("1", "probe")]
    for w in cases:
        assert _core(w) == rewrite(w, {"P", "C", "I"}), w
        pc = rewrite(w, {"P", "C"})
        assert expand(w) == pc, w
        assert expand(w, ("L", "C")) == tuple(
            ("L", -e) if s == "P" else (s, e) for s, e in pc), w


def test_alphabet_is_closed():
    for sym in EXPANSIONS:
        assert sym in ALPHABET
    for sym, body in EXPANSIONS.items():
        for s, _ in parse_word(body):
            assert s in ALPHABET


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_pl():
    assert evaluate("P^5", "pl").is_identity()
    assert evaluate("I mu I mu I mu I mu I mu I mu I mu", "pl").is_identity()
    assert evaluate("P C P", "pl") == plcore.generator_pl("I")
    assert evaluate("mu", "pl") == plcore.generator_pl("mu")
    assert evaluate("L", "pl") == plcore.generator_pl("L")
    assert evaluate("V", "pl") == evaluate("C^-1 I^2", "pl")


def test_evaluate_rejects_unknown_backend():
    with pytest.raises(ValueError):
        evaluate("P", "sage")


def test_rightmost_first_convention():
    # "P C" applies C first: (P∘C)(1,0) = P((-1,-1)) = (-1,0)
    w = evaluate("P C", "pl")
    assert w((1, 0)) == (-1, 0)
    # opposite order differs: C(P(0,1)) = (-1,-1) but (P∘C)(0,1) = (0,-1)
    assert w((0, 1)) == (0, -1)
    assert evaluate("C", "pl")(evaluate("P", "pl")((0, 1))) == (-1, -1)


# ---------------------------------------------------------------------------
# suites


def test_suite_files_present():
    names = list_suites()
    for expected in ("H", "theorem", "t_lc", "t_rc", "t_abc",
                     "consequences", "probe"):
        assert expected in names


def test_unknown_suite():
    with pytest.raises(ValueError):
        load_suite("bogus")


@pytest.mark.parametrize("name", ["../suites/H", "./H", "H.json", "H/..",
                                  "../../../../x"])
def test_load_suite_reads_only_shipped_names(name):
    # a relative path could otherwise reach any .json file, H's included
    with pytest.raises(ValueError) as exc:
        load_suite(name)
    assert str(exc.value).startswith("unknown suite %r (have: " % name)


def test_h_suite_passes_pl():
    report = check_suite("H", "pl")
    assert report["ok"]
    assert [r["verdict"] for r in report["results"]] == ["pass"] * 5


def test_theorem_suite_passes_pl():
    report = check_suite("theorem", "pl")
    assert report["ok"]
    assert all(r["verdict"] == "pass" for r in report["results"])


def test_presentation_suites_pass_pl():
    for name in ("t_lc", "t_rc", "t_abc", "consequences"):
        report = check_suite(name, "pl")
        assert report["ok"], (name, report)


def test_probe_suite_on_pl_reports_identity():
    report = check_suite("probe", "pl")
    assert report["ok"]
    for r in report["results"]:
        assert r["verdict"] == "identity"
        assert r["rhs"] == "probe"


def test_probe_never_fails_suite():
    report = check_suite(
        [{"name": "U probe", "lhs": "U", "rhs": "probe"}], "pl")
    assert report["ok"]
    assert report["results"][0]["verdict"] == "nonidentity"


def test_failing_relation_reports_witness():
    report = check_suite(
        [{"name": "wrong", "lhs": "P^2", "rhs": "1"}], "pl")
    assert not report["ok"]
    res = report["results"][0]
    assert res["verdict"] == "fail"
    w = res["witness"]
    v = tuple(w["point"])
    assert evaluate("P^2", "pl")(v) == tuple(w["lhs_image"])
    assert tuple(w["lhs_image"]) != tuple(w["rhs_image"])


def test_pl_witness_finds_a_thin_cone_far_from_the_origin():
    # the map moves only the cone between (999, 1) and (1000, 1), whose
    # lattice points all have max-norm at least 999; its mediant ray moves
    a = Fraction(1, 2 ** 1001)
    d = thompson.DyadicPL([(a, a), (3 * a / 2, 5 * a / 4),
                           (7 * a / 4, 3 * a / 2), (2 * a, 2 * a)])
    f = thompson.dyadic_to_plaut(d)
    assert words._witness(f, plcore.identity_pl()) == {
        "point": [1999, 2], "lhs_image": [2999, 3], "rhs_image": [1999, 2]}
    assert words._witness(plcore.identity_pl(), f) == {
        "point": [1999, 2], "lhs_image": [1999, 2], "rhs_image": [2999, 3]}


@pytest.mark.parametrize("backend, lhs_value, rhs_value", [
    ("tree", "TreePair((1, 3, 3, 3, 3), (1, 3, 3, 3, 3), 4)",
     "TreePair((1, 2, 2), (1, 2, 2), 2)"),
    ("dyadic", "DyadicPL(0:7/8, 1/2:0, 5/8:1/2)",
     "DyadicPL(0:3/4, 1/2:0, 3/4:1/2)"),
])
def test_failing_circle_relation_reports_both_values(backend, lhs_value,
                                                     rhs_value):
    # a circle model has no lattice point to move, so its witness is the
    # repr of each side
    report = check_suite([{"name": "P = C", "lhs": "P", "rhs": "C"}],
                         backend)
    assert not report["ok"]
    [res] = report["results"]
    assert res["verdict"] == "fail"
    assert res["witness"] == {"lhs_value": lhs_value, "rhs_value": rhs_value}
    assert res["witness"]["lhs_value"] == repr(evaluate("P", backend))


@pytest.mark.parametrize("backend", ["bir", "picard", "quantum"])
def test_a_sampled_model_sees_only_the_params_it_names(backend):
    # one params dict names every sampled model's params; check_relation
    # passes each model only those in its sampling map, so none fails on
    # a keyword it does not take, and the report lists just those
    params = {"trials": 2, "primes": [birational.PRIMES[2]], "nvectors": 2,
              "N": 3, "p": 7, "seed": 1}
    names = set(BACKENDS[backend].sampling.values())
    report = check_suite([{"lhs": "C^3", "rhs": "1"}], backend, params)
    assert report["ok"]
    assert report["params"] == {k: v for k, v in params.items() if k in names}
    assert names < set(params)


def test_a_report_lists_the_params_its_model_read():
    # picard's count is nvectors, so trials and bogus go unread; an exact
    # model reads the seed alone
    report = check_suite("H", "picard", {"trials": 3, "bogus": 1})
    assert report["params"] == {"seed": 0}
    assert {r["witness"]["vectors"] for r in report["results"]} == {20}
    assert check_suite("H", "pl", {"trials": 3})["params"] == {"seed": 0}
    assert check_suite("H", "pl", {"seed": 3})["params"] == {"seed": 3}


def test_report_shape():
    report = check_suite("H", "pl", {"seed": 3})
    assert report["suite"] == "H"
    assert report["backend"] == "pl"
    assert report["params"]["seed"] == 3
    for res in report["results"]:
        assert set(res) >= {"name", "lhs", "rhs", "verdict"}


def _report_json(name, backend, params):
    try:
        return json.dumps(check_suite(name, backend, params))
    except ValueError as exc:  # bir refuses consequences
        return str(exc)


@pytest.mark.parametrize("backend", ["bir", "picard", "quantum"])
def test_sampled_reports_do_not_depend_on_the_memos(backend):
    # the memos keep parsed words, quantum configurations and picard's
    # seeded V vectors; a report is the same with all of them cleared
    # and with all of them kept from the calls before
    for params in ({"seed": 0}, {"seed": 1, "trials": 3, "nvectors": 3}):
        cold = {}
        for name in list_suites():
            for memo in (words.parse_word, quantum.make_config,
                         picard._v_layer):
                memo.cache_clear()
            cold[name] = _report_json(name, backend, params)
        for name in list_suites():
            assert _report_json(name, backend, params) == cold[name], name


# ---------------------------------------------------------------------------
# the fold: powers by repeated squaring, factors in a balanced tree


def _pl_atom(s, e):
    g = plcore.generator_pl(s)
    return g if e > 0 else plcore.inverse_pl(g)


# per model: the value of a core letter to the sign of e, the product and
# the identity.  bir evaluates letter by letter already, from the leftmost
# letter; flat_product starts from the identity instead
FLAT_MODELS = {
    "pl": (_pl_atom, plcore.compose_pl, plcore.identity_pl()),
    "tree": (lambda s, e: thompson.plaut_to_treepair(_pl_atom(s, e)),
             thompson.treepair_compose, thompson.treepair_identity()),
    "dyadic": (lambda s, e: thompson.plaut_to_dyadic(_pl_atom(s, e)),
               thompson.dyadic_compose, thompson.dyadic_identity()),
    "bir": (lambda s, e: birational.generator_bir(s) if e > 0
            else birational.generator_bir_inverse(s),
            birational.compose_bir, birational.identity_bir()),
}


def flat_product(word, backend):
    """The word's value as its core letters multiplied left to right, one
    letter at a time."""
    atom, mul, g = FLAT_MODELS[backend]
    for s, e in _core(word):
        x = atom(s, e)
        for _ in range(abs(e)):
            g = mul(g, x)
    return g


def random_word(rng, factors):
    return tuple((rng.choice(ALPHABET), rng.choice((-3, -2, -1, 1, 2, 3)))
                 for _ in range(factors))


@pytest.mark.parametrize("backend", ("pl", "tree", "dyadic"))
def test_fold_equals_flat_product(backend):
    rng = random.Random(29)
    for _ in range(25):
        word = random_word(rng, rng.randint(1, 4))
        assert evaluate(word, backend) == flat_product(word, backend), word


def test_bir_fold_equals_flat_product_within_its_cap():
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        word = random_word(rng, rng.randint(1, 3))
        if word_length(_core(word)) > 8:
            continue
        assert evaluate(word, "bir") == flat_product(word, "bir"), word
        checked += 1


def test_powers_fold_by_squaring():
    for n in (1, 2, 3, 7, 64, 100, 1001):
        assert evaluate("U^%d" % n, "pl") == plcore.linear_pl((1, n, 0, 1))
        assert evaluate("U^-%d" % n, "pl") == plcore.linear_pl((1, -n, 0, 1))
    # repeated squaring of the derived symbol R, then a balanced product
    assert evaluate("R^7 U^3", "tree") == flat_product(
        parse_word("R^7 U^3"), "tree")


def test_circle_models_fold_without_the_plane_product(monkeypatch):
    # a tree or dyadic value is a product of circle forms of P, C and I,
    # so no suite word, A and B included, goes through compose_pl
    def refuse(f, g):
        raise AssertionError("compose_pl reached")

    rings = (words._circle_ring, words._pl_ring)
    for ring in rings:
        ring.cache_clear()
    monkeypatch.setattr(plcore, "compose_pl", refuse)
    try:
        for suite in list_suites():
            for backend in ("tree", "dyadic"):
                assert check_suite(suite, backend)["ok"], (suite, backend)
    finally:
        for ring in rings:
            ring.cache_clear()
