"""Word grammar, expansions, and the relation suites on the exact backends."""

import json
import random
from fractions import Fraction

import pytest

from sympt import birational, picard, plcore, quantum, thompson, words
from sympt.words import (
    ALPHABET,
    BACKENDS,
    CORE,
    EXPANSIONS,
    MATRICES,
    STEP_BUDGET,
    WordSyntaxError,
    _core,
    check_relation,
    check_suite,
    compile_word,
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
    assert sorted(ALPHABET) == sorted(CORE | EXPANSIONS.keys())
    for sym, body in EXPANSIONS.items():
        for s, _ in parse_word(body):
            assert s in ALPHABET


def test_models_define_the_core_letters_only():
    # every other letter reaches a model as the fold of its expansion
    cfg = quantum.make_config(3, 13)
    pair = quantum.clock_shift(cfg, 2, 3)
    letter_maps = (
        plcore.generator_pl, birational.generator_bir,
        birational.generator_bir_inverse,
        lambda s: quantum.q_apply(s, pair, cfg),
        lambda s: quantum.q_apply_inverse(s, pair, cfg),
        lambda s: picard.word_operator(((s, 1),)),
        lambda s: birational.word_equals_identity(((s, 1),)))
    for s in ALPHABET:
        for letter_map in letter_maps:
            if s in CORE:
                letter_map(s)
            else:
                with pytest.raises(ValueError,
                                   match="unknown generator.*" + repr(s)):
                    letter_map(s)
    for s in EXPANSIONS.keys() - CORE:
        g = evaluate(s, "pl")
        assert g == evaluate(EXPANSIONS[s], "pl"), s
        if word_length(_core(s)) > birational.COMPOSE_CAP:
            with pytest.raises(ValueError, match="capped"):
                evaluate(s, "bir")
            continue
        f = evaluate(s, "bir")
        assert f == evaluate(EXPANSIONS[s], "bir"), s
        assert birational.tropicalize(f) == g, s


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_pl():
    assert evaluate("P^5", "pl").is_identity()
    assert evaluate("I mu I mu I mu I mu I mu I mu I mu", "pl").is_identity()
    assert evaluate("P C P", "pl") == plcore.generator_pl("I")
    # mu: (a, b) -> (a - min(0, b), b), the identity above the x-axis
    assert evaluate("mu", "pl") == plcore.PLAut(
        ((1, 0), (-1, 0)), (plcore.MAT_ID, (1, -1, 0, 1)))
    assert evaluate("L", "pl") == ~plcore.generator_pl("P")
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
            for memo in (words.parse_word, words._core, words.compile_word,
                         quantum.make_config, picard._v_layer):
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
    letter at a time.  The core spelling is the naive rewrite, not _core,
    so no step of the fold under test is read."""
    atom, mul, g = FLAT_MODELS[backend]
    for s, e in rewrite(word, CORE):
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
    # words of unit core letters, of every length modulo 4, whose letters
    # the fold multiplies in chunks of four, each a product of two pairs
    for length in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 17, 32, 63, 64):
        word = tuple((rng.choice(sorted(CORE)), rng.choice((-1, 1)))
                     for _ in range(length))
        assert evaluate(word, backend) == flat_product(word, backend), word
    # unit core words with one factor replaced by a power or a derived
    # letter, so that a chunk of four holds it beside three unit letters
    for _ in range(12):
        word = [(rng.choice(sorted(CORE)), rng.choice((-1, 1)))
                for _ in range(rng.randint(4, 12))]
        word[rng.randrange(len(word))] = rng.choice(
            ((rng.choice(sorted(CORE)), rng.choice((-3, -2, 2, 3))),
             (rng.choice(sorted(EXPANSIONS)), rng.choice((-1, 1)))))
        word = tuple(word)
        assert evaluate(word, backend) == flat_product(word, backend), word
    # unit letters of the whole alphabet beside powers, so that a pair can
    # hold a power, a derived letter or both
    for _ in range(12):
        word = tuple((rng.choice(ALPHABET),
                      rng.choice((-3, -2, -1, -1, 1, 1, 2, 3)))
                     for _ in range(rng.randint(2, 12)))
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


EXACT_PRODUCTS = {"pl": (plcore, "compose_pl"),
                  "tree": (thompson, "treepair_compose"),
                  "dyadic": (thompson, "dyadic_compose")}


def _exact_ring(backend):
    return (words._pl_ring() if backend == "pl"
            else words._circle_ring(backend))


def _unit_core_word(rng, length):
    return tuple((rng.choice(sorted(CORE)), rng.choice((-1, 1)))
                 for _ in range(length))


@pytest.mark.parametrize("backend", sorted(EXACT_PRODUCTS))
def test_a_warm_fold_of_unit_letters_takes_a_quarter_of_the_products(
        backend, monkeypatch):
    # the fold reads each chunk of four unit core letters from the ring,
    # so a word of 4k of them is k kept chunks and k - 1 products of the
    # balanced tree
    owner, name = EXACT_PRODUCTS[backend]
    compose, calls = getattr(owner, name), [0]

    def counted(f, g):
        calls[0] += 1
        return compose(f, g)

    monkeypatch.setattr(owner, name, counted)
    rng = random.Random(47)
    for k in (1, 2, 3, 8, 21, 32):
        word = _unit_core_word(rng, 4 * k)
        value = evaluate(word, backend)
        calls[0] = 0
        assert evaluate(word, backend) == value
        assert calls[0] == k - 1, (word, calls[0])


@pytest.mark.parametrize("backend", sorted(EXACT_PRODUCTS))
def test_a_cold_fold_takes_no_more_products_than_letters(backend):
    # a miss in either table costs the product the balanced tree makes
    # anyway, so a fold into empty tables makes L - 1 products for a word
    # of L unit core letters whose pairs all differ, and never more
    ring, calls = _exact_ring(backend), [0]

    def counted(f, g):
        calls[0] += 1
        return ring.mul(f, g)

    def cold_fold(word):
        cold = words._Ring(ring._atom, ring.identity, counted, ring.inverse)
        calls[0] = 0
        value = words._fold(word, cold)
        assert value == evaluate(word, backend), word
        return calls[0]

    rng = random.Random(59)
    pairs = [(s, e, t, f) for s in sorted(CORE) for e in (-1, 1)
             for t in sorted(CORE) for f in (-1, 1)]
    rng.shuffle(pairs)
    letters = tuple(x for s, e, t, f in pairs for x in ((s, e), (t, f)))
    for length in (*range(1, 14), 17, 31, 32, 33, 64, 72):
        assert cold_fold(letters[:length]) == length - 1, length
    for length in (4, 9, 16, 40, 64):
        assert cold_fold(_unit_core_word(rng, length)) <= length - 1


@pytest.mark.parametrize("backend", sorted(EXACT_PRODUCTS))
def test_the_ring_keeps_only_pairs_of_unit_letters(backend):
    ring = _exact_ring(backend)
    rng = random.Random(53)
    for _ in range(40):
        evaluate(random_word(rng, rng.randint(2, 8)), backend)
        evaluate(_unit_core_word(rng, rng.randint(4, 12)), backend)
    # the one table holds products of two unit letters, at most 26^2,
    # and of four unit core letters, at most 6^4 of them whatever the
    # words, keyed by their factors, in each ring
    free = words._free_ring(CORE)
    for _ in range(10):
        _core(random_word(rng, rng.randint(4, 12)))
        _core(_unit_core_word(rng, rng.randint(4, 12)))
    for kept in (ring._kept, free._kept):
        pairs = [key for key in kept if len(key) == 2]
        quads = [key for key in kept if len(key) == 4]
        assert len(pairs) + len(quads) == len(kept)
        assert pairs and len(pairs) <= (2 * len(ALPHABET)) ** 2 == 676
        assert all(e * e == 1 and s in ALPHABET
                   for key in pairs for s, e in key)
        assert quads and len(quads) <= 6 ** 4 == 1296
        assert all(e * e == 1 and s in CORE for key in quads for s, e in key)
    for key, value in ring._kept.items():
        assert value == flat_product(key, backend), key
    # a power is raised by squaring and never kept; the letters' own
    # expansions are folded first
    for s in ("X2", "beta", "A", "R"):
        evaluate(s, backend)
    before = dict(ring._kept)
    evaluate("X2^5 beta^-2 A^3 R^-7", backend)
    assert ring._kept == before
    # the relabel rings multiply under compile_word's memo, which keeps
    # no product in them; only a test's own _fold of a relabel ring does
    words.compile_word.cache_clear()
    for relabels in (MATRICES, quantum._RELABELS):
        before = dict(relabels._kept)
        for _ in range(20):
            compile_word(_unit_core_word(rng, rng.randint(4, 12)), relabels)
        assert relabels._kept == before


def test_a_circle_fold_past_the_point_budget_is_refused():
    # U^n holds about 2n points in either circle form, and A^n about n:
    # each is refused at the first product past the budget, a dozen or so
    # squarings in, rather than run without bound
    message = ("circle form past the budget of %d points: it holds"
               % thompson.POINT_BUDGET)
    for backend in ("tree", "dyadic"):
        with pytest.raises(ValueError, match=message):
            evaluate("A^-99999999999", backend)
        with pytest.raises(ValueError, match=message):
            check_relation("U^99999999999", "1", backend)
    assert evaluate("U^99999999999") == plcore.linear_pl(
        (1, 99999999999, 0, 1))


@pytest.mark.parametrize("backend", ("tree", "dyadic"))
def test_a_fold_raises_each_power_once(backend, monkeypatch):
    # U^50 is 7 products by squaring, U^-50 its inverse, and two products
    # join the three factors: 9, where a second chain for U^-50 made 16
    owner, name = EXACT_PRODUCTS[backend]
    compose, calls = getattr(owner, name), [0]

    def counted(f, g):
        calls[0] += 1
        return compose(f, g)

    ring = _exact_ring(backend)
    word = parse_word("U^50 P U^-50")
    value = evaluate(word, backend)
    state = {k: dict(v) if isinstance(v, dict) else v
             for k, v in vars(ring).items()}
    monkeypatch.setattr(owner, name, counted)
    assert evaluate(word, backend) == value
    assert calls[0] == 9
    monkeypatch.undo()
    assert value == flat_product(word, backend)
    # the first chain past the budget is refused as before, and neither a
    # fold that returns nor one that raises leaves a power in the ring
    with pytest.raises(ValueError) as exc:
        evaluate("U^99999999999 P U^-99999999999", backend)
    assert str(exc.value) == (
        "circle form past the budget of 16384 points: it holds %d"
        % {"tree": 16388, "dyadic": 16387}[backend])
    assert vars(ring) == state


def test_a_power_and_its_inverse_in_one_fold_equal_their_letters():
    rng = random.Random(61)
    for _ in range(20):
        s = rng.choice(ALPHABET)
        e = rng.choice((2, 3, 5, 8))
        word = [(s, e), (s, -e), (rng.choice(ALPHABET), rng.choice((1, -1)))]
        rng.shuffle(word)
        word.append((s, rng.choice((e, -e))))
        word = tuple(word)
        for backend in ("pl", "tree", "dyadic"):
            assert evaluate(word, backend) == flat_product(word, backend), (
                word, backend)
        assert _core(word) == rewrite(word, CORE), word
        assert expand(word) == rewrite(word, {"P", "C"}), word


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


# ---------------------------------------------------------------------------
# the compiled walk: C and I runs folded once, P steps one at a time


def _count_mat_mul(monkeypatch):
    """A one-element list counting the calls of plcore.mat_mul."""
    calls = [0]
    mat_mul = plcore.mat_mul

    def counted(a, b):
        calls[0] += 1
        return mat_mul(a, b)

    monkeypatch.setattr(plcore, "mat_mul", counted)
    return calls


def test_compiled_walk_is_rightmost_first():
    C, I = plcore.GEN_MATS["C"], plcore.GEN_MATS["I"]
    word = parse_word("C P^2 I^-1 P^-1 C I")
    assert compile_word(word, MATRICES) == (
        ((plcore.mat_mul(C, I), -1), (plcore.mat_inv(I), 1),
         (plcore.MAT_ID, 1)), C)
    assert compile_word((), MATRICES) == ((), plcore.MAT_ID)
    assert compile_word((("C", 0), ("I", 0)), MATRICES) == ((), plcore.MAT_ID)


def test_compile_raises_relabels_by_squaring(monkeypatch):
    calls = _count_mat_mul(monkeypatch)
    words.compile_word.cache_clear()
    # C has order 3, and 3 * 10^10 + 1 = 1 mod 3
    huge = (("C", 3 * 10 ** 10 + 1),)
    assert compile_word(huge, MATRICES) == ((), plcore.GEN_MATS["C"])
    assert calls[0] <= 2 * 35
    assert (compile_word(huge, quantum._RELABELS)
            == compile_word((("C", 1),), quantum._RELABELS))
    calls[0] = 0
    # the relabel ring folds U = C I, (1, 1, 0, 1), to a power by squaring
    assert words._fold(parse_word("U^1000000000"), MATRICES) == (
        1, 10 ** 9, 0, 1)
    assert calls[0] <= 2 * 30 + 1


def test_compiled_powers_equal_their_letters():
    # a factor s^e compiles as |e| factors s^(+-1), in every relabel ring
    # and in picard's program
    rings = ((MATRICES, None), (quantum._RELABELS, None),
             (MATRICES, picard._program))
    for name in list_suites():
        for entry in load_suite(name):
            rhs = "1" if entry["rhs"] == "probe" else entry["rhs"]
            word = _core(entry["lhs"]) + word_inverse(_core(rhs))
            letters = tuple((s, 1 if e > 0 else -1)
                            for s, e in word for _ in range(abs(e)))
            for ring, finish in rings:
                assert (compile_word(word, ring, finish)
                        == compile_word(letters, ring, finish)), word


def _suffix_images(word, point, p):
    """The images of point mod p under the suffixes of word that start at
    each P letter, rightmost first, then under the whole word, each
    through BirMap.apply_mod one letter at a time.  The list ends in None
    at the first letter that raises ZeroDivisionError."""
    out = []
    for s, e in reversed(word):
        g = (birational.generator_bir(s) if e > 0
             else birational.generator_bir_inverse(s))
        for _ in range(abs(e)):
            try:
                point = g.apply_mod(point, p)
            except ZeroDivisionError:
                return out + [None]
            if s == "P":
                out.append(point)
    return out + [point]


def _walk_images(word, point, p):
    """The affine points of the triples walk_mod yields, ending in None
    where it raises ZeroDivisionError."""
    out = []
    try:
        for a, b, d in words.walk_mod(words.compile_mod(word), point, p):
            out.append((a * pow(d, -1, p) % p, b * pow(d, -1, p) % p))
    except ZeroDivisionError:
        out.append(None)
    return out


def test_the_walk_yields_the_letter_by_letter_image_after_each_step():
    # at p = 11 the lines x = -1 and y = -1 are hit often, so many walks
    # meet a pole after one step or more
    p = 11
    # P sends (-2, 1) to (1, -1), on which P has a pole
    assert _walk_images((("P", 2),), (p - 2, 1), p) == [(1, p - 1), None]
    rng = random.Random(83)
    inner = whole = 0
    for _ in range(3000):
        word = tuple((rng.choice("PCI"), rng.choice((1, -1, 2, -2, 3)))
                     for _ in range(rng.randint(0, 10)))
        point = (rng.randrange(1, p), rng.randrange(1, p))
        want = _suffix_images(word, point, p)
        assert _walk_images(word, point, p) == want, (word, point)
        inner += len(want) > 1 and want[-1] is None
        whole += want[-1] is not None
    assert inner > 200 and whole > 2000


def test_a_sampled_check_spells_a_relation_once(monkeypatch):
    # _core keeps the last 256 spellings, so a second check of a relation
    # in a sampled model spells neither side in the free group again
    free_mul, calls = words._free_mul, [0]

    def counted(a, b):
        calls[0] += 1
        return free_mul(a, b)

    monkeypatch.setattr(words, "_free_mul", counted)
    try:
        for backend in ("bir", "picard", "quantum"):
            words._free_ring.cache_clear()
            words._core.cache_clear()
            calls[0] = 0
            first = check_relation("U^3 R", "C I C I C I P^2 C", backend)
            assert calls[0] > 0
            calls[0] = 0
            assert check_relation("U^3 R", "C I C I C I P^2 C",
                                  backend) == first
            assert calls[0] == 0, backend
    finally:
        words._free_ring.cache_clear()
        words._core.cache_clear()


def test_picard_compiles_a_word_once(monkeypatch):
    # the second check of a word reuses its compiled program
    word = parse_word("P C I P^-1 I^-1 C^-1")
    words.compile_word.cache_clear()
    calls = _count_mat_mul(monkeypatch)
    first = picard.word_acts_as_identity(word, nvectors=3)
    assert calls[0] > 0
    calls[0] = 0
    assert picard.word_acts_as_identity(word, nvectors=3) == first
    assert calls[0] == 0


def test_a_sampled_check_compiles_its_commutative_walk_once(monkeypatch):
    # bir walks the compiled word from every sample point, and quantum
    # from every draw's N-th powers, without looking the word up again;
    # quantum's program carries its own commutative walk, so a quantum
    # check compiles its word once, not once more for the walk
    compile_word, calls = words.compile_word, [0]

    def counted(*args):
        calls[0] += 1
        return compile_word(*args)

    monkeypatch.setattr(words, "compile_word", counted)
    word = _core("P C I P^-1 I^-1 C^-1 U^3 R")
    birational.word_equals_identity(word, trials=20)
    assert calls[0] == 1
    quantum.word_acts_as_identity(word, trials=20)
    assert calls[0] == 2


def test_the_step_budget_refuses_before_any_step():
    at_budget = (("P", 2000), ("C", 1), ("P", STEP_BUDGET - 2000))
    steps, _ = compile_word(at_budget, MATRICES)
    assert len(steps) == STEP_BUDGET
    with pytest.raises(ValueError, match="budget of %d steps: it takes %d P "
                       "steps" % (STEP_BUDGET, STEP_BUDGET + 1)):
        compile_word(at_budget + (("P", -1),), MATRICES)
    with pytest.raises(ValueError, match="unknown generator: letter 'U'"):
        compile_word((("U", 1),), MATRICES)
    for backend in ("bir", "picard", "quantum"):
        with pytest.raises(ValueError, match="it takes 99999999999 P steps"):
            check_relation("P^99999999999", "1", backend)
    for backend in ("picard", "quantum"):
        assert check_relation("C^99999999999", "1", backend)[0]


def test_a_spelling_past_the_budget_is_refused_as_it_grows():
    # U^n spells as (C I)^n: 2 * 10^11 factors, were it built.  The
    # spelling is refused at the first product of the fold past the
    # budget, which can hold up to twice the budget, so the message names
    # the budget rather than that product's size
    message = ("budget of %d steps: its spelling holds more than %d "
               "factors" % (STEP_BUDGET, STEP_BUDGET))
    for spell in (_core, lambda w: expand(parse_word(w))):
        with pytest.raises(ValueError, match=message):
            spell("U^99999999999")
    for backend in ("bir", "picard", "quantum"):
        with pytest.raises(ValueError, match=message):
            check_relation("U^99999999999", "1", backend)
    assert len(_core("U^%d" % (STEP_BUDGET // 2))) == STEP_BUDGET
