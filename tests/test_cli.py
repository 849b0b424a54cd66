"""End-to-end checks of the command-line surface: JSON shape, exit codes,
and byte-stable output."""

import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sympt import birational, cli, plcore, thompson, words


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# relations

def test_relations_h_pl():
    code, rep = run_json(["relations", "--suite", "H", "--backend", "pl"])
    assert code == 0
    assert rep["ok"] and len(rep["results"]) == 5
    assert all(r["verdict"] == "pass" for r in rep["results"])


def test_relations_theorem_pl():
    code, rep = run_json(["relations", "--suite", "theorem"])
    assert code == 0 and rep["ok"]


def test_relations_unknown_suite_is_usage_error():
    code, rep = run_json(["relations", "--suite", "bogus"])
    assert code == 2
    assert "unknown suite" in rep["error"]


def test_relations_refuses_a_path_as_suite(tmp_path, capsys):
    # a malformed file reached through a relative path let a traceback out
    (tmp_path / "x.json").write_text("[1]")
    suites = os.path.join(os.path.dirname(words.__file__), "suites")
    name = os.path.relpath(tmp_path / "x", suites)
    assert ".." in name and "/" in name
    code = cli.main(["relations", "--suite", name, "--backend", "pl"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"].startswith("unknown suite %r" % name)


def test_relations_quantum_backend():
    code, rep = run_json(["relations", "--suite", "H", "--backend", "quantum",
                          "--N", "3", "--prime", "7", "--trials", "5"])
    assert code == 0 and rep["ok"]
    assert all(r["witness"]["p"] == 7 for r in rep["results"])


def test_relations_picard_trials_sets_vector_count():
    code, rep = run_json(["relations", "--suite", "H", "--backend", "picard",
                          "--trials", "3"])
    assert code == 0
    assert rep["params"] == {"nvectors": 3, "seed": 0}
    assert all(r["witness"]["vectors"] == 3 for r in rep["results"])


def test_relations_probe_suite_never_fails():
    code, rep = run_json(["relations", "--suite", "probe", "--backend", "pl"])
    assert code == 0
    verdicts = [r["verdict"] for r in rep["results"]]
    assert set(verdicts) <= {"identity", "nonidentity"}


# ---------------------------------------------------------------------------
# equal

def test_equal_pl():
    code, rep = run_json(["equal", "--lhs", "P^5", "--rhs", "1"])
    assert code == 0 and rep["equal"]
    code, rep = run_json(["equal", "--lhs", "P", "--rhs", "1"])
    assert code == 1 and not rep["equal"]


def test_equal_bir_reports_error_bound():
    code, rep = run_json(["equal", "--backend", "bir",
                          "--lhs", "P C P", "--rhs", "I", "--trials", "5"])
    assert code == 0 and rep["equal"]
    assert rep["evidence"]["error_bound"].startswith("2^-")
    assert all(p > 2 ** 61 for p in rep["evidence"]["primes"])


def test_equal_bir_rejects_small_prime():
    code, rep = run_json(["equal", "--backend", "bir", "--lhs", "P^5",
                          "--rhs", "1", "--prime", "101"])
    assert code == 2
    assert "2^61" in rep["error"]


def test_equal_bir_rejects_composite_modulus():
    # (2^31 + 11) * (the next prime after 2^31 + 10^6), above 2^61
    code, rep = run_json(["equal", "--backend", "bir", "--lhs", "P^5",
                          "--rhs", "1", "--prime", "4613833553625995599",
                          "--trials", "3"])
    assert code == 2
    assert rep == {"error": "p=4613833553625995599 is not prime"}


def test_equal_picard_and_quantum():
    code, rep = run_json(["equal", "--backend", "picard",
                          "--lhs", "P C P", "--rhs", "I", "--trials", "5"])
    assert code == 0 and rep["equal"]
    code, rep = run_json(["equal", "--backend", "quantum", "--N", "3",
                          "--prime", "7", "--lhs", "P^5", "--rhs", "1",
                          "--trials", "5"])
    assert code == 0 and rep["equal"]
    assert rep["evidence"]["p"] == 7


def test_equal_bir_sampling_failure_is_json(monkeypatch):
    def always_pole(word, point, p):
        raise ZeroDivisionError

    monkeypatch.setattr(birational, "_apply_word_mod", always_pole)
    code, rep = run_json(["equal", "--backend", "bir", "--lhs", "P",
                          "--rhs", "C", "--trials", "2"])
    assert code == 2
    assert "pole locus" in rep["error"]


# ---------------------------------------------------------------------------
# eval

def test_eval_pl_roundtrip():
    code, rep = run_json(["eval", "--word", "P C"])
    assert code == 0
    assert plcore.PLAut.from_json(rep["value"]) == words.evaluate("P C", "pl")


def test_eval_bir_roundtrip():
    code, rep = run_json(["eval", "--word", "P", "--backend", "bir"])
    assert code == 0
    assert birational.BirMap.from_json(rep["value"]) == \
        birational.generator_bir("P")


def test_eval_tree_and_dyadic_roundtrip():
    for backend, cls in (("tree", thompson.TreePair),
                         ("dyadic", thompson.DyadicPL)):
        code, rep = run_json(["eval", "--word", "C I", "--backend", backend])
        assert code == 0
        assert cls.from_json(rep["value"]) == words.evaluate("C I", backend)


def test_eval_picard_and_quantum():
    code, rep = run_json(["eval", "--word", "P C", "--backend", "picard"])
    assert code == 0
    assert rep["value"]["operator"] == [["P", 1], ["C", 1]]
    code, rep = run_json(["eval", "--word", "P^5", "--backend", "quantum",
                          "--N", "3", "--prime", "7"])
    assert code == 0
    assert rep["value"]["input"] == rep["value"]["output"]


def test_eval_syntax_error():
    code, rep = run_json(["eval", "--word", "P %"])
    assert code == 2 and "bad token" in rep["error"]


# ---------------------------------------------------------------------------
# trop

def test_trop_p_matches_pl_generator():
    code, rep = run_json(["trop", "--word", "P"])
    assert code == 0
    assert plcore.PLAut.from_json(rep) == plcore.generator_pl("P")


def test_trop_morphism_on_a_composite():
    code, rep = run_json(["trop", "--word", "P P"])
    assert code == 0
    want = plcore.generator_pl("P") * plcore.generator_pl("P")
    assert plcore.PLAut.from_json(rep) == want


def test_trop_scaling_is_invisible_and_mono_is_linear():
    code, rep = run_json(["trop", "--word", "lambda:3/2,5"])
    assert code == 0 and rep["linear"] == [[1, 0], [0, 1]]
    code, rep = run_json(["trop", "--word", "mono:1,1,0,1 C"])
    assert code == 0
    assert plcore.PLAut.from_json(rep) == \
        plcore.linear_pl((1, 1, 0, 1)) * plcore.generator_pl("C")


def test_trop_cap_and_grammar_errors():
    code, rep = run_json(["trop", "--word", "P^9"])
    assert code == 2 and "capped at 8" in rep["error"]
    code, rep = run_json(["trop", "--word", "mu"])
    assert code == 2 and "spelled over" in rep["error"]
    code, rep = run_json(["trop", "--word", "mono:1,2"])
    assert code == 2 and "four integers" in rep["error"]


def test_trop_counts_its_factors_before_it_builds_them(monkeypatch):
    built = []
    for name in ("generator_bir", "generator_bir_inverse"):
        real = getattr(birational, name)
        monkeypatch.setattr(birational, name,
                            lambda s, real=real: built.append(s) or real(s))
    code, rep = run_json(["trop", "--word", "P^20000"])
    assert code == 2
    assert rep["error"].startswith(
        "symbolic composition capped at 8 factors; got 20000 ")
    assert len(built) <= 8


def test_trop_equals_the_left_to_right_product():
    # cmd_trop folds its factors from the leftmost one; the shadow must be
    # that of the same product folded from the identity
    rng = random.Random(53)
    tokens = ("P", "C", "I", "U", "P^-1", "C^-1", "I^-1", "U^-1", "P^2",
              "I^-2", "lambda:2,-3", "lambda:1/2,5", "mono:1,1,0,1",
              "mono:0,1,-1,0", "mono:2,1,1,1")
    checked = 0
    while checked < 40:
        text = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 8)))
        try:
            factors = cli._trop_factors(text)
        except ValueError as exc:  # more than COMPOSE_CAP factors
            assert "capped at %d factors" % birational.COMPOSE_CAP in str(exc)
            continue
        total = birational.identity_bir()
        for f in factors:
            total = birational.compose_bir(total, f)
        code, rep = run_json(["trop", "--word", text])
        assert code == 0, (text, rep)
        assert rep == birational.tropicalize(total).to_json(), text
        checked += 1


def test_trop_is_a_morphism_to_pl():
    # over positive scalings every factor is subtraction-free, so trop of
    # the product is the pl product of the letters' shadows: mono: is its
    # linear map and lambda: the identity
    rng = random.Random(59)
    gens = ["P", "C", "I", "U", "P^-1", "C^-1", "I^-1", "U^-1"]
    monos = [(1, k, 0, 1) for k in (-3, -2, 2, 3)] + \
        [(1, 0, k, 1) for k in (-3, -1, 1, 2)] + \
        [(0, 1, -1, 0), (2, 1, 1, 1), (1, -1, 1, 0), (-1, 0, 0, -1)]
    for _ in range(200):
        tokens, want = [], plcore.identity_pl()
        for _ in range(rng.randint(1, birational.COMPOSE_CAP)):
            kind = rng.random()
            if kind < 0.2:
                m = rng.choice(monos)
                tokens.append("mono:%d,%d,%d,%d" % m)
                want = want * plcore.linear_pl(m)
            elif kind < 0.3:
                tokens.append("lambda:%d/%d,%d/%d" % tuple(
                    rng.randint(1, 5) for _ in range(4)))
            else:
                tokens.append(rng.choice(gens))
                want = want * words.evaluate(tokens[-1], "pl")
        text = " ".join(tokens)
        code, rep = run_json(["trop", "--word", text])
        assert code == 0, (text, rep)
        assert plcore.PLAut.from_json(rep) == want, text


# ---------------------------------------------------------------------------
# convert

def test_convert_between_models():
    pl = words.evaluate("P C", "pl")
    code, rep = run_json(["convert", "--word", "P C", "--to", "dyadic"])
    assert code == 0
    assert thompson.DyadicPL.from_json(rep["element"]) == \
        thompson.plaut_to_dyadic(pl)
    code, rep = run_json(["convert", "--word", "P C", "--to", "pl",
                          "--via", "tree"])
    assert code == 0
    assert plcore.PLAut.from_json(rep["element"]) == pl


def test_convert_same_model_is_plain_eval():
    code, rep = run_json(["convert", "--word", "I", "--to", "tree",
                          "--via", "tree"])
    assert code == 0
    assert thompson.TreePair.from_json(rep["element"]) == \
        words.evaluate("I", "tree")


def test_convert_large_power_to_dyadic():
    # U^5000 is 5000 mediant steps deep; the conversion must not recurse
    code, rep = run_json(["convert", "--word", "U^5000", "--to", "dyadic"])
    assert code == 0
    d = thompson.DyadicPL.from_json(rep["element"])
    u = plcore.linear_pl((1, 5000, 0, 1))
    for v in ((1, 0), (-3, 1), (2, -7)):
        assert d(thompson.vector_to_dyadic(v)) == (
            thompson.vector_to_dyadic(u(v)))


def test_convert_via_dyadic_where_the_plane_map_bends_at_no_slope_change():
    # the circle slope does not change where this element's plane map bends
    word = "I C^-1 P^-1 P U^-1 P I^-1 I^-1 I^-1 P P U^-1"
    code, rep = run_json(["convert", "--word", word, "--via", "dyadic",
                          "--to", "pl"])
    assert code == 0
    code, want = run_json(["convert", "--word", word, "--via", "pl",
                           "--to", "pl"])
    assert code == 0
    assert rep["element"] == want["element"]


def test_convert_large_power_to_tree():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    for form in ("tree", "dyadic"):
        proc = subprocess.run(
            [sys.executable, "-m", "sympt.cli", "convert", "--word", "U^1000",
             "--to", form], env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stdout
        out[form] = json.loads(proc.stdout)["element"]
    tp = thompson.TreePair.from_json(out["tree"])
    assert thompson.treepair_to_dyadic(tp) == (
        thompson.DyadicPL.from_json(out["dyadic"]))


def test_integer_past_the_str_digit_limit_prints_in_full(monkeypatch):
    # a 4516-digit numerator, past Python's default int-to-str limit
    num = 2**15000 - 1
    element = thompson.DyadicPL([(0, Fraction(num, 2**15000))])
    monkeypatch.setattr(cli, "cmd_convert", lambda args: (
        {"element": element.to_json()}, 0))
    limit = sys.get_int_max_str_digits()
    try:
        code, out = run(["convert", "--word", "P", "--to", "dyadic"])
        assert code == 0
        assert json.loads(out)["element"]["breakpoints"][0][1] == [num, 15000]
    finally:
        sys.set_int_max_str_digits(limit)


def test_convert_recursion_error_is_json(monkeypatch):
    def too_deep(value):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(thompson, "plaut_to_dyadic", too_deep)
    code, rep = run_json(["convert", "--word", "P", "--to", "dyadic"])
    assert code == 2
    assert "recursion" in rep["error"]


# ---------------------------------------------------------------------------
# mutate

E_VEC = json.dumps({"terms": [{"family": "e", "arg": [1, -1], "level": 1,
                               "coef": [1]}]})


def test_mutate_wq_base_direction():
    code, rep = run_json(["mutate", "--basis", "wq", "--at", "1,0",
                          "--vector", E_VEC])
    assert code == 0
    assert rep["output"]["terms"] == [
        {"arg": [-1, 0], "coef": [0, 1], "family": "e", "level": 1},
        {"arg": [2, -1], "coef": [1], "family": "e", "level": 1},
    ]


def test_mutate_wq_conjugated_direction():
    # moving (0,1) to the base direction conjugates by the quarter turn
    code, rep = run_json(["mutate", "--basis", "wq", "--at", "0,1",
                          "--vector", E_VEC])
    assert code == 0
    assert rep["output"]["terms"] == [
        {"arg": [0, -1], "coef": [0, 1], "family": "e", "level": 1},
        {"arg": [1, 0], "coef": [1], "family": "e", "level": 1},
    ]


def test_mutate_be_and_p():
    bvec = json.dumps({"terms": [{"family": "b", "arg": [0, -1], "coef": [1]}]})
    code, rep = run_json(["mutate", "--basis", "be", "--at", "1,0",
                          "--vector", bvec])
    assert code == 0
    assert rep["output"]["terms"] == [
        {"arg": [1, -1], "coef": [1], "family": "b"}]
    pvec = json.dumps({"terms": [{"family": "p", "arg": [0, -1], "coef": [1]}]})
    code, rep = run_json(["mutate", "--basis", "p", "--at", "1,0",
                          "--vector", pvec])
    assert code == 0
    assert rep["output"]["terms"] == [
        {"arg": [-1, 0], "coef": [1], "family": "p"},
        {"arg": [1, -1], "coef": [1], "family": "p"}]


def test_mutate_usage_errors():
    code, rep = run_json(["mutate", "--basis", "p", "--at", "1,0",
                          "--vector", E_VEC])
    assert code == 2 and "p-family" in rep["error"]
    code, rep = run_json(["mutate", "--basis", "wq", "--at", "0,2",
                          "--vector", E_VEC])
    assert code == 2 and "primitive" in rep["error"]
    # the direction is checked even when no term would read it
    for basis in ("be", "p", "wq"):
        code, rep = run_json(["mutate", "--basis", basis, "--at", "0,2",
                              "--vector", '{"terms": []}'])
        assert code == 2 and "primitive" in rep["error"]
    code, rep = run_json(["mutate", "--basis", "p", "--at", "0,2",
                          "--vector", '{"terms": []}'])
    assert rep == {"error": "ray index must be primitive, got (0, 2)"}
    code, rep = run_json(["mutate", "--basis", "wq", "--at", "1,0"])
    assert code == 2 and "--vector" in rep["error"]
    code, rep = run_json(["mutate", "--basis", "wq", "--at", "1,0",
                          "--vector", '{"terms": [{"family": "e"}]}'])
    assert code == 2 and rep["error"] == (
        "a PicVec term document holds the keys family, coef, "
        "got {'family': 'e'}")


@pytest.mark.parametrize("at", ["0,0", "2,4"])
def test_mutate_refuses_a_direction_alike_in_every_basis(at):
    # each vector is one the basis accepts, so only the direction is wrong
    vectors = {
        "be": {"terms": [{"family": "b", "arg": [0, 1], "coef": [1]}]},
        "p": {"terms": [{"family": "p", "arg": [2, 1], "coef": [1]}]},
        "wq": json.loads(E_VEC)}
    error = "ray index must be primitive, got (%s, %s)" % tuple(at.split(","))
    for basis, vector in vectors.items():
        code, rep = run_json(["mutate", "--basis", basis, "--at", at,
                              "--vector", json.dumps(vector)])
        assert (code, rep) == (2, {"error": error}), basis


def _mutate_term(**term):
    return json.dumps({"terms": [{"arg": [1, 0], "coef": [1], **term}]})


AMPLE_FN = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "values": [0, 0, 0, 1]}


@pytest.mark.parametrize("vector, text", [
    (_mutate_term(family="b", coef=[1.7]), "coef must hold integers"),
    (_mutate_term(family="b", coef=[True]), "coef must hold integers"),
    (_mutate_term(family="b", coef=1), "coef must be a list"),
    (_mutate_term(family="e", level=1.9), "level must hold integers"),
    (_mutate_term(family="e", level=True), "level must hold integers"),
    (_mutate_term(family="b", arg=[True, 0]), "arg must hold integers"),
    (_mutate_term(family="b", arg=[1.0, 0]), "arg must hold integers"),
    (_mutate_term(family="b", arg=[1, 0, 0]), "arg must be a list of 2"),
    (_mutate_term(family="plpart", fn={**AMPLE_FN,
                                       "values": [0, 0, 0, 1.5]}),
     "values must hold integers"),
    (_mutate_term(family="plpart", fn={**AMPLE_FN, "rays": [
        [1, 0], [0, 1], [-1, 0], [0, False]]}), "ray must hold integers"),
    ('{"terms": 5}', "terms must be a list of term objects, got 5"),
    ('[1]', "a PicVec document is a JSON object, got [1]"),
])
def test_mutate_refuses_what_json_integers_cannot_read(vector, text):
    # a float would be truncated and a bool read as 0 or 1
    code, rep = run_json(["mutate", "--basis", "be", "--at", "1,0",
                          "--vector", vector])
    assert code == 2
    assert rep["error"].startswith(text)


def test_mutate_reads_input_file(tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(E_VEC)
    code, rep = run_json(["mutate", "--basis", "wq", "--at", "1,0",
                          "--input", str(path)])
    assert code == 0
    assert rep["input"] == json.loads(E_VEC)


@pytest.mark.parametrize("argv", [
    ["mutate", "--basis", "wq", "--at", "1,0", "--input", "{tmp}/missing"],
    ["mutate", "--basis", "wq", "--at", "1,0", "--input", "{tmp}"],
    ["eval", "--word", "P", "--output", "{tmp}/missing/x.json"],
    ["mutate", "--basis", "wq", "--at", "1,0", "--vector", '{"terms": [1]}'],
    ["orbit", "--start", "1/0,2"],
    ["trop", "--word", "mono:a,1,1,1"],
    ["quantum", "--word", "P", "--N", "-3"],
    ["equal", "--lhs", "P", "--rhs", "P", "--backend", "bir",
     "--prime", "2305843009213693953"],
])
def test_malformed_calls_print_one_json_error(argv, tmp_path, capsys):
    # the only thing that may leave the CLI is one {"error": ...} document
    code = cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert list(json.loads(out)) == ["error"]
    assert err == ""


# ---------------------------------------------------------------------------
# quantum and orbit

@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("backend, name", [
    ("bir", "trials"), ("picard", "trials"), ("quantum", "trials")])
def test_sampled_backends_refuse_an_empty_sample(backend, name, trials):
    # no sample would pass every relation, with a bound of 2^-0 in bir
    code, rep = run_json(["equal", "--lhs", "P", "--rhs", "C", "--backend",
                          backend, "--trials", trials])
    assert code == 2
    assert rep == {"error": "%s must be at least 1, got %s" % (name, trials)}


@pytest.mark.parametrize("flag", [["--trials", "3"], ["--prime", "7"],
                                  ["--N", "3"], ["--seed", "0"]])
@pytest.mark.parametrize("backend", ["pl", "tree", "dyadic"])
@pytest.mark.parametrize("command", [
    ["relations", "--suite", "H"], ["equal", "--lhs", "P C P", "--rhs", "I"],
    ["eval", "--word", "P C"]], ids=["relations", "equal", "eval"])
def test_exact_backends_refuse_sampling_flags(command, backend, flag):
    # nothing is sampled, so a sampling flag would only be echoed
    code, rep = run_json(command + ["--backend", backend] + flag)
    assert code == 2
    assert rep == {"error": "backend %s is exact and takes no sampling "
                            "flag; got %s" % (backend, flag[0])}
    code, _ = run_json(command + ["--backend", backend])
    assert code == 0


@pytest.mark.parametrize("backend, flags, refused", [
    ("picard", ["--prime", "7"], "--prime"),
    ("picard", ["--N", "3"], "--N"),
    ("picard", ["--N", "3", "--prime", "7", "--trials", "2"],
     "--prime or --N"),
    ("bir", ["--N", "3", "--trials", "2"], "--N")])
@pytest.mark.parametrize("command", [
    ["relations", "--suite", "H"], ["equal", "--lhs", "P C P", "--rhs", "I"],
    ["eval", "--word", "P C"]], ids=["relations", "equal", "eval"])
def test_sampled_backends_refuse_flags_they_do_not_read(command, backend,
                                                        flags, refused):
    code, rep = run_json(command + ["--backend", backend] + flags)
    assert code == 2
    assert rep == {"error": "backend %s takes no %s flag" % (backend, refused)}


@pytest.mark.parametrize("backend, flags", [
    ("bir", ["--trials", "3", "--prime", "7", "--seed", "4"]),
    ("bir", ["--prime", str(2**61 - 1)]),
    ("picard", ["--trials", "3", "--seed", "4"]),
    ("picard", ["--seed", "4"])])
def test_eval_refuses_flags_where_it_samples_nothing(backend, flags):
    # eval in bir and picard builds a value and samples nothing, so the
    # flags the backend reads for relations are refused too
    code, rep = run_json(["eval", "--word", "P C", "--backend", backend]
                         + flags)
    assert code == 2
    assert rep == {"error": "backend %s samples nothing in eval and takes no "
                            "sampling flag; got %s"
                   % (backend, ", ".join(flags[::2]))}


# the subcommands without --backend, each on an argv it answers
FIXED_MODEL = {
    "trop": ["trop", "--word", "P"],
    "convert": ["convert", "--word", "P C", "--to", "dyadic"],
    "mutate": ["mutate", "--basis", "wq", "--at", "1,0", "--vector", E_VEC],
    "orbit": ["orbit", "--word", "P", "--start", "2,3", "--steps", "5"],
    "quantum": ["quantum", "--word", "P^5", "--N", "5", "--p", "11"],
}


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("trop", "convert", "mutate", "orbit")
      for flag in (["--backend", "pl"], ["--prime", "7"], ["--trials", "3"],
                   ["--seed", "1"], ["--N", "3"])),
    ("quantum", ["--backend", "pl"])])
def test_subcommands_refuse_flags_they_do_not_take(command, flag, capsys):
    # a flag that a subcommand would ignore is a usage error
    argv = FIXED_MODEL[command]
    assert run(argv)[0] == 0
    with pytest.raises(SystemExit) as err:
        cli.main(argv + flag)
    assert err.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["relations", "--suite", "H", "--backend", "picard", "--tri", "2"],
    ["eval", "--word", "P C", "--backend", "quantum", "--p", "11"]],
    ids=["prefix-of-trials", "quantum-alias-outside-quantum"])
def test_flags_are_taken_only_as_spelled(argv, capsys):
    # argparse would otherwise read --tri as --trials and --p as --prime
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in (
        capsys.readouterr().err)


def test_quantum_takes_p_as_an_alias_of_prime():
    code, rep = run_json(["quantum", "--word", "P^5", "--p", "11"])
    assert code == 0 and rep["p"] == 11
    # P is not the identity, so it exits 1, with a report, not a usage error
    code, rep = run_json(["quantum", "--word", "P", "--p", "11"])
    assert code == 1 and rep["p"] == 11 and rep["verdict"] == "nonidentity"


def test_eval_quantum_reads_its_sampling_flags():
    argv = ["eval", "--word", "P C", "--backend", "quantum"]
    code, default = run_json(argv)
    assert code == 0 and (default["value"]["N"], default["value"]["p"]) == (
        5, 101)
    code, rep = run_json(argv + ["--N", "3", "--prime", "7", "--seed", "4"])
    assert code == 0 and (rep["value"]["N"], rep["value"]["p"]) == (3, 7)
    code, other = run_json(argv + ["--seed", "5"])
    assert code == 0 and other["value"]["input"] != default["value"]["input"]
    # it draws one clock/shift pair, so a sample count would be ignored
    code, rep = run_json(argv + ["--trials", "7"])
    assert code == 2
    assert rep == {"error": "backend quantum takes no --trials flag"}


def test_quantum_identity_report():
    code, rep = run_json(["quantum", "--word", "P^5", "--N", "5", "--p", "11"])
    assert code == 0
    assert rep["verdict"] == "identity" and rep["witnesses"] == []
    assert {"word", "N", "p", "q", "trials", "verdict",
            "witnesses"} <= set(rep)


def test_quantum_nonidentity_exit_code():
    word = " ".join(["P I C"] * 7)
    code, rep = run_json(["quantum", "--word", word, "--N", "3", "--p", "7"])
    assert code == 1
    assert rep["verdict"] == "nonidentity" and rep["witnesses"]


def test_quantum_config_for_a_large_prime_is_fast():
    # the root of unity used to be found by scanning q = 1, 2, 3, ...,
    # about p/N steps; this call did not finish in 8 s
    src = str(Path(__file__).resolve().parent.parent / "src")
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, extra] if extra else [src]))
    p = 1000000000061
    proc = subprocess.run(
        [sys.executable, "-m", "sympt.cli", "quantum", "--word", "P^5",
         "--N", "5", "--p", str(p)],
        env=env, capture_output=True, text=True, timeout=1)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "identity" and rep["p"] == p
    assert pow(rep["q"], 5, p) == 1 and rep["q"] != 1


def test_orbit_five_cycle():
    code, rep = run_json(["orbit", "--word", "P", "--start", "2,3",
                          "--steps", "5"])
    assert code == 0
    assert rep["points"] == [["2", "3"], ["3", "2"], ["2", "1"],
                             ["1", "1"], ["1", "2"], ["2", "3"]]
    code, rep = run_json(["orbit", "--word", "P", "--start", "1/2,3",
                          "--steps", "1"])
    assert code == 0
    assert rep["points"][1] == ["3", "8"]


def test_orbit_pole_is_runtime_failure():
    code, rep = run_json(["orbit", "--word", "P", "--start", "1,-1",
                          "--steps", "1"])
    assert code == 1 and "error" in rep


def test_orbit_refuses_negative_steps():
    code, rep = run_json(["orbit", "--word", "P", "--start", "2,3",
                          "--steps", "-3"])
    assert code == 2
    assert rep == {"error": "steps must be at least 0, got -3"}
    code, rep = run_json(["orbit", "--word", "P", "--start", "2,3",
                          "--steps", "0"])
    assert code == 0 and rep["points"] == [["2", "3"]]


@pytest.mark.parametrize("argv", [
    ["mutate", "--basis", "wq", "--at", "-1,0", "--vector", E_VEC],
    ["mutate", "--basis", "be", "--at", "-2,-1", "--vector", '{"terms": []}'],
    ["orbit", "--start", "-2,3", "--steps", "3"],
    ["orbit", "--word", "C", "--start", "-1/2,-3", "--steps", "2"],
    ["orbit", "--start", "-.5,2", "--steps", "1"]],
    ids=["at-wq", "at-both-negative", "start", "start-rational",
         "start-decimal"])
def test_a_negative_point_may_follow_its_flag_spaced(argv):
    # argparse reads a value such as -1,0 as a flag unless it is joined to
    # its flag; both spellings answer alike
    i = argv.index("--at" if "--at" in argv else "--start")
    joined = argv[:i] + ["%s=%s" % tuple(argv[i:i + 2])] + argv[i + 2:]
    code, out = run(argv)
    assert code == 0 and (code, out) == run(joined)


def test_a_flag_after_start_is_still_a_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["orbit", "--start", "--json"])
    assert err.value.code == 2
    assert "--start: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("word, start", [("C", "0,2"), ("I", "2,0")])
def test_orbit_start_on_an_axis_is_refused(word, start):
    # refused before the Laurent polynomials are evaluated at 0
    code, rep = run_json(["orbit", "--word", word, "--start", start])
    assert code == 1
    assert rep == {"error": "point on a coordinate axis"}


@pytest.mark.parametrize("argv, token", [
    (["orbit", "--start", "1/0,2"], "1/0"),
    (["orbit", "--start", "2,-3/0"], "-3/0"),
    (["trop", "--word", "lambda:1/0,2"], "1/0"),
    (["trop", "--word", "P lambda:3,0/0"], "0/0")])
def test_zero_denominator_is_a_usage_error(argv, token):
    # exit 1 is kept for a pole met by the orbit, not for bad input
    code, rep = run_json(argv)
    assert code == 2
    assert rep == {"error": "zero denominator in %r" % token}


def test_malformed_rationals_keep_their_message():
    for argv, token in ((["orbit", "--start", "x,2"], "x"),
                        (["trop", "--word", "lambda:1/2,a"], "a")):
        code, rep = run_json(argv)
        assert code == 2
        assert rep == {"error": "Invalid literal for Fraction: %r" % token}


# ---------------------------------------------------------------------------
# output conventions

def test_output_is_byte_identical_across_runs():
    argv = ["quantum", "--word", "P^5", "--N", "5", "--p", "11", "--seed", "7"]
    assert run(argv) == run(argv)
    argv = ["equal", "--backend", "bir", "--lhs", "P^5", "--rhs", "1",
            "--trials", "3", "--seed", "1", "--json"]
    assert run(argv) == run(argv)


def test_json_flag_is_single_line():
    _, out = run(["eval", "--word", "C", "--json"])
    assert out.count("\n") == 1 and out.endswith("\n")
    _, pretty = run(["eval", "--word", "C"])
    assert json.loads(out) == json.loads(pretty)
    assert pretty.count("\n") > 1


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    code, out = run(["relations", "--suite", "H", "--output", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["ok"]


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# README

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The sympt calls of README's CLI block, continued lines joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sympt ")]


def test_readme_cli_examples_run(capsys):
    commands = readme_commands()
    assert len(commands) == 12
    for argv in commands:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1), argv
        json.loads(out)  # exactly one JSON document, or this raises
        assert err == ""
