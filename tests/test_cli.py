"""End-to-end checks of the command-line surface: JSON shape, exit codes,
and byte-stable output."""

import contextlib
import io
import json
import os
import random
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


def test_trop_equals_the_left_to_right_product():
    # cmd_trop multiplies its factors in a balanced tree; the shadow must
    # be that of the plain left-to-right composition
    rng = random.Random(53)
    tokens = ("P", "C", "I", "U", "P^-1", "C^-1", "I^-1", "U^-1", "P^2",
              "I^-2", "lambda:2,-3", "lambda:1/2,5", "mono:1,1,0,1",
              "mono:0,1,-1,0", "mono:2,1,1,1")
    checked = 0
    while checked < 40:
        text = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 8)))
        factors = cli._trop_factors(text)
        if len(factors) > cli.TROP_CAP:
            continue
        total = birational.identity_bir()
        for f in factors:
            total = birational.compose_bir(total, f)
        code, rep = run_json(["trop", "--word", text])
        assert code == 0, (text, rep)
        assert rep == birational.tropicalize(total).to_json(), text
        checked += 1


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
    assert code == 2 and "malformed" in rep["error"]


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
    ('{"terms": 5}', "malformed PicVec JSON ('int' object is not iterable)"),
    ('[1]', "malformed PicVec JSON (list indices"),
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


def test_eval_quantum_reads_its_sampling_flags():
    argv = ["eval", "--word", "P C", "--backend", "quantum"]
    code, default = run_json(argv)
    assert code == 0 and (default["value"]["N"], default["value"]["p"]) == (
        5, 101)
    code, rep = run_json(argv + ["--N", "3", "--prime", "7", "--seed", "4"])
    assert code == 0 and (rep["value"]["N"], rep["value"]["p"]) == (3, 7)
    code, other = run_json(argv + ["--seed", "5"])
    assert code == 0 and other["value"]["input"] != default["value"]["input"]


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
