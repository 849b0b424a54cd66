"""Replay recorded CLI calls and compare stdout bytes and exit codes.

The corpus in data/cli_golden.json covers each subcommand that dispatches
on a backend, in every backend, with and without the sampling flags; the
benchmark's own CLI corpus in perfbench/expected/cli.json is replayed too.

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]

re-records the named entries of CORPUS (all of them when no name is given)
from the current code.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sympt import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
BENCH = ROOT / "perfbench" / "expected" / "cli.json"

BACKENDS = ("pl", "tree", "dyadic", "bir", "picard", "quantum")
BIR_PRIMES = ["--prime", "4611686018427388039", "--prime",
              "9223372036854775837"]


def _terms(*terms):
    """PicVec JSON from (family, arg[, level[, coef]]) tuples; coef
    defaults to [1]."""
    out = []
    for fam, arg, *rest in terms:
        term = {"family": fam, "arg": arg}
        if rest:
            term["level"] = rest[0]
        term["coef"] = rest[1] if len(rest) > 1 else [1]
        out.append(term)
    return json.dumps({"terms": out})


CORPUS = {
    **{"relations.H.%s" % b: ["relations", "--suite", "H", "--backend", b]
       for b in BACKENDS},
    **{"equal.PCP.%s" % b: ["equal", "--lhs", "P C P", "--rhs", "I",
                            "--backend", b] for b in BACKENDS},
    **{"eval.PC.%s" % b: ["eval", "--word", "P C", "--backend", b]
       for b in BACKENDS},
    **{"equal.unequal.%s" % b: ["equal", "--lhs", "P", "--rhs", "C",
                                "--backend", b] for b in BACKENDS},
    "relations.probe.pl": ["relations", "--suite", "probe"],
    "relations.probe.picard.seed": ["relations", "--suite", "probe",
                                    "--backend", "picard", "--seed", "3"],
    "relations.theorem.bir": ["relations", "--suite", "theorem",
                              "--backend", "bir"],
    "relations.t_rc.bir": ["relations", "--suite", "t_rc", "--backend",
                           "bir"],
    # an exact backend refuses every sampling flag, naming the ones given
    "relations.H.pl.flags": ["relations", "--suite", "H", "--trials", "3",
                             "--prime", "7", "--seed", "3"],
    "relations.H.pl.seed": ["relations", "--suite", "H", "--seed", "0"],
    "equal.PCP.tree.prime": ["equal", "--lhs", "P C P", "--rhs", "I",
                             "--backend", "tree", "--prime", "7"],
    "eval.PC.dyadic.N": ["eval", "--word", "P C", "--backend", "dyadic",
                         "--N", "3"],
    "relations.H.bir.trials": ["relations", "--suite", "H", "--backend",
                               "bir", "--trials", "5", "--seed", "3"],
    "relations.H.bir.prime": ["relations", "--suite", "H", "--backend",
                              "bir", "--trials", "4"] + BIR_PRIMES,
    "relations.H.picard.trials": ["relations", "--suite", "H", "--backend",
                                  "picard", "--trials", "3"],
    # a sampled backend refuses the sampling flags it does not read
    "relations.H.picard.prime_N": ["relations", "--suite", "H", "--backend",
                                   "picard", "--prime", "7", "--N", "3"],
    "relations.H.bir.N": ["relations", "--suite", "H", "--backend", "bir",
                          "--N", "3"],
    "relations.H.quantum.flags": ["relations", "--suite", "H", "--backend",
                                  "quantum", "--N", "3", "--prime", "7",
                                  "--trials", "5", "--seed", "3"],
    "relations.H.quantum.last_prime": ["relations", "--suite", "H",
                                       "--backend", "quantum", "--prime",
                                       "31", "--prime", "11"],
    "equal.PCP.bir.flags": ["equal", "--lhs", "P C P", "--rhs", "I",
                            "--backend", "bir", "--trials", "5",
                            "--seed", "3"] + BIR_PRIMES,
    "equal.PCP.picard.trials": ["equal", "--lhs", "P C P", "--rhs", "I",
                                "--backend", "picard", "--trials", "3",
                                "--seed", "3"],
    "equal.PCP.quantum.flags": ["equal", "--lhs", "P C P", "--rhs", "I",
                                "--backend", "quantum", "--N", "3",
                                "--prime", "7", "--trials", "4",
                                "--seed", "3"],
    "equal.bir.small_prime": ["equal", "--lhs", "P^5", "--rhs", "1",
                              "--backend", "bir", "--prime", "101"],
    "eval.PC.quantum.flags": ["eval", "--word", "P C", "--backend",
                              "quantum", "--N", "3", "--prime", "7",
                              "--seed", "3"],
    "eval.bir.cap": ["eval", "--word", "P^9", "--backend", "bir"],
    "quantum.flags": ["quantum", "--word", "P^5", "--N", "3", "--p", "7",
                      "--trials", "4", "--seed", "3"],
    "quantum.default": ["quantum", "--word", "P^4"],
    # 2^61 - 1 is 1 mod 3, 5 and 7: wide matrix entries at N = 7
    "quantum.wide_prime": ["quantum", "--word", "P^5", "--N", "7", "--p",
                           str(2 ** 61 - 1)],
    "relations.theorem.quantum.wide_prime": [
        "relations", "--suite", "theorem", "--backend", "quantum", "--N",
        "7", "--prime", str(2 ** 61 - 1)],
    # an even order of q, and q = 1
    "relations.H.quantum.even_N": ["relations", "--suite", "H", "--backend",
                                   "quantum", "--N", "4", "--prime", "13"],
    "relations.consequences.quantum.N1": [
        "relations", "--suite", "consequences", "--backend", "quantum",
        "--N", "1", "--prime", "101"],
    "convert.PC.tree.pl": ["convert", "--word", "P C", "--via", "tree",
                           "--to", "pl"],
    "convert.PC.tree.dyadic": ["convert", "--word", "P C", "--via", "tree",
                               "--to", "dyadic"],
    "convert.PC.dyadic.pl": ["convert", "--word", "P C", "--via", "dyadic",
                             "--to", "pl"],
    "trop.PCIPU": ["trop", "--word", "P C I P U"],
    "trop.P5": ["trop", "--word", "P P P P P"],
    "trop.at_cap": ["trop", "--word", "P P P P P P P P"],
    "trop.cap": ["trop", "--word", "P^9"],
    "trop.lambda": ["trop", "--word", "lambda:2,3 P C lambda:1/2,1/3"],
    "trop.lambda.negative": ["trop", "--word",
                             "lambda:4,6 P U P^-1 lambda:1/4,-1/6"],
    "trop.mono": ["trop", "--word", "mono:1,1,0,1 P mono:1,-1,0,1"],
    # two 8-factor words whose products once reduced slowly
    "trop.mono.shears": ["trop", "--word",
                         "mono:1,0,4,1 P^-1 mono:1,3,0,1 lambda:3/4,2/3 I "
                         "mono:1,2,0,1 P^-1 mono:1,5,0,1"],
    "trop.lambda.shear": ["trop", "--word",
                          "P^-1 U^-1 lambda:-5/4,4/4 mono:1,0,6,1 U^-1 "
                          "P^-1 P^-1 U^-1"],
    # wide supports: the Newton polygons have few corners but many terms
    "trop.mono.wide": ["trop", "--word",
                       "mono:1,0,5,1 mono:2,1,1,1 mono:2,1,1,1 P I "
                       "mono:2,1,1,1 P^-1 I^-1"],
    "eval.PCI.bir": ["eval", "--word", "P C I", "--backend", "bir"],
    "eval.PUP.bir": ["eval", "--word", "P U P", "--backend", "bir"],
    "orbit.P": ["orbit", "--word", "P", "--start", "1,2", "--steps", "5"],
    "orbit.pole": ["orbit", "--word", "P", "--start", "1,-1", "--steps",
                   "3"],
    # mu = x/(1+y): y = -1 is a pole of the first step
    "orbit.mu.pole": ["orbit", "--word", "mu", "--start", "2,-1", "--steps",
                      "2"],
    "orbit.start.three": ["orbit", "--word", "P", "--start", "1,2,3"],
    # a negative point spaced from its flag, not read as a flag
    "orbit.start.negative": ["orbit", "--word", "P", "--start", "-2,3",
                             "--steps", "3"],
    "trop.lambda.one": ["trop", "--word", "lambda:2"],
    "eval.empty.bir": ["eval", "--word", "1", "--backend", "bir"],
    # a huge exponent: 3 divides the first, and C^3 = 1, so it answers at
    # once; the other two pass the step budget and are refused before
    # any step runs
    "equal.huge.C.quantum": ["equal", "--lhs", "C^99999999999", "--rhs",
                             "1", "--backend", "quantum"],
    "equal.huge.P.picard": ["equal", "--lhs", "P^99999999999", "--rhs",
                            "1", "--backend", "picard"],
    "equal.huge.U.bir": ["equal", "--lhs", "U^99999999999", "--rhs", "1",
                         "--backend", "bir"],
    # a circle form past the point budget: U^n's plane form has a ray
    # whose point needs n + 1 binary digits, refused before it is walked,
    # and the circle folds of U^n and A^n are refused at the first product
    # past the budget
    "convert.huge.U.tree": ["convert", "--word", "U^99999999999", "--to",
                            "tree"],
    "eval.huge.U.tree": ["eval", "--word", "U^99999999999", "--backend",
                         "tree"],
    "eval.huge.A.dyadic": ["eval", "--word", "A^99999999999", "--backend",
                           "dyadic"],
    # the images of b(1,0), b(-1,0) and e(1,0)^1 merge at b(-1,0)
    "mutate.be": ["mutate", "--basis", "be", "--at", "1,0", "--vector",
                  _terms(("b", [1, 0]), ("b", [-1, 0]), ("e", [1, 0], 1),
                         ("b", [0, -1]))],
    # each term adds p(-1,0), which ends with coefficient 3
    "mutate.p": ["mutate", "--basis", "p", "--at", "1,0", "--vector",
                 _terms(("p", [0, -1]), ("p", [1, -1]), ("p", [2, -1]))],
    "mutate.wq.conjugated": [
        "mutate", "--basis", "wq", "--at", "2,-3", "--vector",
        _terms(("e", [1, 1], 2, [0, -1, 1]), ("e", [-1, 0], 1, [2, 0, 1]))],
    "mutate.p.refused": ["mutate", "--basis", "p", "--at", "1,0",
                         "--vector", _terms(("e", [1, 0], 1))],
    "mutate.wq.bad_point": ["mutate", "--basis", "wq", "--at", "1",
                            "--vector", _terms()],
    "mutate.wq.negative": ["mutate", "--basis", "wq", "--at", "-1,0",
                           "--vector", _terms(("e", [1, -1], 1))],
}


def _cases():
    cases = []
    for path in (GOLDEN, BENCH):
        for name, entry in json.loads(path.read_text()).items():
            cases.append(pytest.param(entry, id="%s:%s" % (path.stem, name)))
    return cases


@pytest.mark.parametrize("entry", _cases())
def test_cli_output_matches_recording(entry, capsys):
    code = cli.main(entry["argv"])
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit"]


def test_corpus_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CORPUS)


def record(names) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names or CORPUS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(CORPUS[name])
        golden[name] = {"argv": CORPUS[name], "exit": code,
                        "stdout": buf.getvalue()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
