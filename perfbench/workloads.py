"""The four benchmark workloads.

A workload is built from the seed alone.  Building it does the whole set-up
that ``setup_s`` measures: the sympt imports (sympy included), loading the
recorded answers, making the inputs and one untimed warm-up op per backend,
so that lazy imports land in set-up and not in the first timed op.  After
that, ``pass_ops(k)`` gives the ops of pass k in a seeded order; every op
carries its own check against the recorded or mathematically known answer.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from clock import cpu_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

BACKENDS = ("pl", "tree", "dyadic", "bir", "picard", "quantum")
CIRCLE = ("pl", "tree", "dyadic")

# bir refuses these suites today: its 2^61 primes give no bound for their
# long words.  They are listed as skipped, never timed.
BIR_REFUSED = ("t_rc", "t_abc", "consequences")
BIR_MAX_CORE = 60

SWEEP_LENGTHS = (10, 20, 40, 80, 160)
WORDS_PER_LENGTH = 4
# Samples per randomized identity check in the word sweep.  The sweep is
# about the per-letter cost, so a few samples per word keep picard from
# drowning the other backends while every verdict is still checked.
SWEEP_SAMPLES = 5
POWERS = (12, 25, 50, 100)
CONJUGATE_POWERS = (12, 25, 50)


def cli_corpus() -> list[tuple[str, list[str]]]:
    """(name, argv) of the sympt CLI calls timed by cli_cold."""
    vector = ('{"terms": [{"family": "e", "arg": [1, -1], "level": 1, '
              '"coef": [1]}]}')
    return [
        ("relations.pl", ["relations", "--suite", "H", "--backend", "pl"]),
        ("relations.quantum",
         ["relations", "--suite", "H", "--backend", "quantum"]),
        ("relations.picard",
         ["relations", "--suite", "H", "--backend", "picard"]),
        ("equal.bir",
         ["equal", "--lhs", "P C P", "--rhs", "I", "--backend", "bir"]),
        ("eval.pl", ["eval", "--word", "P C", "--backend", "pl"]),
        ("convert.dyadic", ["convert", "--word", "P C", "--to", "dyadic"]),
        ("trop", ["trop", "--word", "P"]),
        ("mutate.wq", ["mutate", "--basis", "wq", "--at", "1,0",
                       "--vector", vector]),
        ("quantum", ["quantum", "--word", "P^5", "--N", "5", "--p", "11"]),
        ("orbit", ["orbit", "--word", "P", "--start", "2,3", "--steps", "5"]),
    ]


def cli_env() -> dict:
    """Environment of a CLI call: the package is found through PYTHONPATH,
    as in a clean checkout where sympt is not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env=None):
    """One ``python -m sympt.cli`` call; returns (exit code, stdout text)."""
    proc = subprocess.run([sys.executable, "-m", "sympt.cli", *argv],
                          cwd=ROOT, env=env or cli_env(), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout


def suite_report(report) -> dict:
    """The verdicts of one check_suite report that the matrix records."""
    out = {"verdicts": [r["verdict"] for r in report["results"]],
           "ok": report["ok"]}
    if report["backend"] == "picard":
        out["identity_in_Zq"] = [r["witness"]["identity_in_Zq"]
                                 for r in report["results"]]
    if report["backend"] == "quantum":
        out["quantum_verdicts"] = [r["witness"]["verdict"]
                                   for r in report["results"]]
    return out


def random_core_word(rng: random.Random, length: int):
    """Freely reduced word of the given length over P, C, I and inverses."""
    letters = [(s, e) for s in ("P", "C", "I") for e in (1, -1)]
    word: list[tuple[str, int]] = []
    while len(word) < length:
        letter = rng.choice(letters)
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return tuple(word)


@dataclass
class Op:
    """One timed operation.

    run() does the work; check(result), when given, returns None when the
    answer is right and a reason otherwise.  Ops of one pass with the same
    ``agree`` key must also return equal results (the circle models of one
    word).  ``row`` names the scaling row the latency belongs to.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None] | None = None
    row: str | None = None
    agree: object = None


def _expect(value, what):
    return lambda result: None if result == value else "%s: got %r" % (
        what, result)


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[Op] = []
        self.skipped: list[dict] = []
        self.import_s = 0.0
        if self.in_process:
            self._import_layers()
        self.setup()

    def _import_layers(self):
        # birational pulls in sympy at import time; it is imported last and
        # alone so that the time of that import can be reported
        global words, plcore, thompson, picard, quantum, birational
        from sympt import picard, plcore, quantum, thompson, words
        t = cpu_s()
        from sympt import birational
        self.import_s = cpu_s() - t

    def setup(self):
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def pass_ops(self, k: int) -> list[Op]:
        """The ops built by setup(), in the order of pass k."""
        ops = list(self.ops)
        self._rng(k).shuffle(ops)
        return ops

    def _rng(self, k: int) -> random.Random:
        return random.Random("%s/%d/%d" % (self.name, self.seed, k))

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else (
            resource.RUSAGE_CHILDREN)
        return resource.getrusage(who).ru_maxrss / 1024.0


class SuiteMatrix(Workload):
    """Every shipped suite x backend pair that answers today, checked
    against the recorded verdict matrix.  The pairs are those recorded, so
    a suite or backend that starts to answer later is not timed until the
    benchmark records it."""

    name = "suite_matrix"

    def setup(self):
        self.expected = json.loads((EXPECTED / "verdicts.json").read_text())
        self.ops = [self._op(*key.split("/")) for key in sorted(self.expected)]
        self.skipped = [{"op": "%s/bir" % s, "reason":
                         "bir refuses: word too long for a meaningful bound "
                         "at 2^61 primes"} for s in BIR_REFUSED]

    def _op(self, suite, backend) -> Op:
        key = "%s/%s" % (suite, backend)
        return Op(key, lambda: suite_report(words.check_suite(suite, backend)),
                  _expect(self.expected[key], "verdicts"))

    def warmup_ops(self):
        return [self._op("H", b) for b in BACKENDS]


class WordSweep(Workload):
    """Random freely reduced core words of growing length: the circle models
    must agree on w, the randomized models must find w w^-1 the identity.

    The word pool is one fixed draw and the seed only orders the ops: the
    cost of one word varies by a coefficient of variation of 0.2 to 0.45
    from word to word, so a pool drawn per seed would move ops_per_s by
    about 10% between seeds.
    """

    name = "word_sweep"

    def setup(self):
        self.skipped = [{"op": "bir/L%d" % n, "reason":
                         "bir refuses: core word w w^-1 of length %d >= %d "
                         "has no meaningful bound at 2^61 primes"
                         % (2 * n, BIR_MAX_CORE)}
                        for n in SWEEP_LENGTHS if 2 * n >= BIR_MAX_CORE]
        rng = random.Random("word_sweep/pool")
        self.ops = [op for n in SWEEP_LENGTHS for _ in range(WORDS_PER_LENGTH)
                    for op in self._ops(rng, n)]

    @staticmethod
    def _ops(rng, n) -> list[Op]:
        w = random_core_word(rng, n)
        ww = w + words.word_inverse(w)
        s = rng.randrange(1 << 30)
        ops = [
            Op("pl/L%d" % n, lambda: thompson.plaut_to_dyadic(
                words.evaluate(w, "pl")), row="pl.L%d" % n, agree=w),
            Op("tree/L%d" % n, lambda: thompson.treepair_to_dyadic(
                words.evaluate(w, "tree")), row="tree.L%d" % n, agree=w),
            Op("dyadic/L%d" % n, lambda: words.evaluate(w, "dyadic"),
               row="dyadic.L%d" % n, agree=w),
            Op("picard/L%d" % n, lambda: picard.word_acts_as_identity(
                ww, nvectors=SWEEP_SAMPLES, seed=s)["evidence"],
               _identity_evidence, "picard.L%d" % n),
            Op("quantum/L%d" % n, lambda: quantum.word_acts_as_identity(
                ww, trials=SWEEP_SAMPLES, seed=s)["evidence"]["verdict"],
               _expect("identity", "quantum verdict"), "quantum.L%d" % n),
        ]
        if 2 * n < BIR_MAX_CORE:
            ops.append(Op("bir/L%d" % n, lambda: birational.word_equals_identity(
                ww, trials=SWEEP_SAMPLES, seed=s)["equal"],
                _expect(True, "bir equal"), "bir.L%d" % n))
        return ops

    def warmup_ops(self):
        return self._ops(random.Random("word_sweep/warmup"), SWEEP_LENGTHS[0])


def _identity_evidence(evidence):
    if evidence["identity_at_q1"] and evidence["identity_in_Zq"]:
        return None
    return "picard: w w^-1 not the identity: %r" % (evidence,)


class PowerSweep(Workload):
    """U^n and U^n P U^-n, both signs, in the three circle models, with the
    pl<->dyadic round trip and the closed form of pl(U^n).  The inputs are
    fixed; the seed orders the ops."""

    name = "power_sweep"

    def setup(self):
        self.skipped = [{"op": "U^5000", "reason":
                         "past the reach of the mediant walk: "
                         "vector_to_dyadic((5000, 1)) raises, "
                         "convert ends in RecursionError"}]
        self.ops = [op for n in POWERS for e in (n, -n)
                    for op in self._ops("n", e)]
        self.ops += [op for n in CONJUGATE_POWERS for e in (n, -n)
                     for op in self._ops("c", e)]

    @staticmethod
    def _ops(kind, e) -> list[Op]:
        if kind == "n":
            text = "U^%d" % e
            closed = plcore.linear_pl((1, e, 0, 1))
        else:
            text = "U^%d P U^%d" % (e, -e)
            closed = None
        row = "%s%d" % (kind, abs(e))
        return [
            Op("pl/" + text, lambda: _pl_round_trip(text, closed),
               row="pl." + row, agree=text),
            Op("tree/" + text, lambda: thompson.treepair_to_dyadic(
                words.evaluate(text, "tree")), row="tree." + row, agree=text),
            Op("dyadic/" + text, lambda: words.evaluate(text, "dyadic"),
               row="dyadic." + row, agree=text),
        ]

    def warmup_ops(self):
        return self._ops("n", POWERS[0]) + self._ops("c", CONJUGATE_POWERS[0])


def _pl_round_trip(text, closed):
    """pl value of text in dyadic form, after checking that it survives the
    pl -> dyadic -> pl round trip and, for U^n, equals its closed form."""
    value = words.evaluate(text, "pl")
    dyadic = thompson.plaut_to_dyadic(value)
    if thompson.dyadic_to_plaut(dyadic) != value:
        raise ValueError("pl -> dyadic -> pl round trip changed the element")
    if closed is not None and value != closed:
        raise ValueError("pl(U^n) differs from its closed form %r" % (closed,))
    return dyadic


class CliCold(Workload):
    """A fixed corpus of ``python -m sympt.cli`` calls, one process each,
    checked byte for byte against the recorded JSON and exit codes."""

    name = "cli_cold"
    in_process = False

    def setup(self):
        expected = json.loads((EXPECTED / "cli.json").read_text())
        env = cli_env()
        self.ops = [
            Op(name, lambda argv=argv: list(run_cli(argv, env)),
               _expect([expected[name]["exit"], expected[name]["stdout"]],
                       "exit code and stdout"),
               row="cli." + name.split(".", 1)[0])
            for name, argv in cli_corpus()]

    def warmup_ops(self):
        return self.ops[:1]


WORKLOADS = {w.name: w for w in (SuiteMatrix, WordSweep, PowerSweep, CliCold)}
