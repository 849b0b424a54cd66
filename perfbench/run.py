"""Benchmark of sympt: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload suite_matrix --seed 1 --seconds 21 --trace 0

Run from the root of a checkout; the package is taken from ./src, so sympt
need not be installed.  Load is a closed loop with one client: each op
starts after the previous one ends.  Ops come in passes (one pass is the
whole input set of the workload in a seeded order, about PASS_S seconds),
and a run measures --seconds / PASS_S whole passes.  Times are CPU times,
scaled to a reference CPU speed (see clock.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the passes
untraced and then half traced, and prints the per-layer metrics, the
scaling rows and the tracing overhead; the spans go to
perfbench/out/trace_<workload>.json.

Every answer is checked.  The last line of output is one JSON object with
keys correct, attempted, failed and metrics; the exit code is 1 when any
answer was wrong.
"""

from __future__ import annotations

from clock import (REFERENCE_EVERY_S, REFERENCE_S, REFERENCE_WINDOW_S, cpu_s,
                   reference_s)

HARNESS_START = cpu_s()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402

import workloads  # noqa: E402
from workloads import (BIR_MAX_CORE, CONJUGATE_POWERS, HERE,  # noqa: E402
                       POWERS, ROOT, SRC, SWEEP_LENGTHS, cli_corpus, cli_env)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MiB"))
# set-up is timed this many times per run (this process plus fresh
# processes) and reported as the median
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Every workload's pass took about this long when the benchmark was defined
# (2-vCPU shared virtual machine, Python 3.11.7).  A run measures a fixed
# number of passes, not a wall-clock span: the tail percentile depends on how
# many passes a run holds, and there a pass varied by 10-15% from run to
# run, enough to flip the count of passes that fit a fixed span.
PASS_S = 7.0


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    out = [
        ("words.check_suite.calls", "count"), ("words.check_suite.self_s", "s"),
        ("words.evaluate.calls", "count"), ("words.evaluate.self_s", "s"),
        ("thompson.cfp_generators.calls", "count"),
        ("plcore.compose_pl.calls", "count"), ("plcore.compose_pl.busy_s", "s"),
        ("plcore.inverse_pl.calls", "count"), ("plcore.breakpoints.max", "count"),
    ]
    for f in ("dyadic_compose", "treepair_compose", "plaut_to_dyadic",
              "dyadic_to_plaut", "vector_to_dyadic", "dyadic_to_vector"):
        out += [("thompson.%s.calls" % f, "count"),
                ("thompson.%s.busy_s" % f, "s")]
    out += [("thompson.denominator_bits.max", "bit"),
            ("thompson.tree_leaves.max", "count"),
            ("birational.word_equals_identity.calls", "count"),
            ("birational.word_equals_identity.busy_s", "s"),
            ("birational.apply_mod.calls", "count"),
            ("birational.pole_rejections", "count"),
            ("birational.sample_yield", "1")]
    for f in ("compose_bir", "reduce_fraction"):
        out += [("birational.%s.calls" % f, "count"),
                ("birational.%s.busy_s" % f, "s")]
    out += [("birational.import_s", "s"),
            ("picard.word_acts_as_identity.calls", "count"),
            ("picard.word_acts_as_identity.busy_s", "s"),
            ("picard.PicOperator.call.busy_s", "s")]
    for f in ("gamma_action", "mu_Wq_action", "mu_Wq_inverse", "v_membership"):
        out += [("picard.%s.calls" % f, "count"), ("picard.%s.busy_s" % f, "s")]
    out += [("picard.picvec_built", "count"), ("picard.terms.max", "count"),
            ("quantum.word_acts_as_identity.calls", "count"),
            ("quantum.word_acts_as_identity.busy_s", "s")]
    for f in ("q_apply", "q_apply_inverse"):
        out += [("quantum.%s.calls" % f, "count"), ("quantum.%s.busy_s" % f, "s")]
    out += [("quantum.singular_resamples", "count"),
            ("quantum.make_config.busy_s", "s"),
            ("cli.interpreter_s", "s"), ("cli.import_s", "s")]
    subcommands = dict.fromkeys(n.split(".", 1)[0] for n, _ in cli_corpus())
    out += [("cli.%s.p50_ms" % c, "ms") for c in subcommands]
    out += [("cli.compute_share", "1")]
    out += [("%s.self_share" % layer, "1") for layer in
            ("words", "plcore", "thompson", "birational", "picard", "quantum")]
    out += [("trace.untraced_ops_per_s", "1/s"), ("trace.ops_per_s", "1/s"),
            ("trace.overhead_ops_per_s", "1/s")]
    for b in ("pl", "tree", "dyadic", "picard", "quantum", "bir"):
        out += [("%s.L%d.p50_ms" % (b, n), "ms") for n in SWEEP_LENGTHS
                if b != "bir" or 2 * n < BIR_MAX_CORE]
    for b in ("pl", "tree", "dyadic"):
        out += [("%s.n%d.p50_ms" % (b, n), "ms") for n in POWERS]
        out += [("%s.c%d.p50_ms" % (b, n), "ms") for n in CONJUGATE_POWERS]
    return out


class Phase:
    """Latencies, failures and CPU-speed references of one timed phase."""

    def __init__(self):
        # (CPU time at the start, CPU seconds, scaling row) of each timed op
        self.samples: list[tuple[float, float, str | None]] = []
        # (CPU time, CPU seconds) of each reference loop
        self.references: list[tuple[float, float]] = []
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.passes = 0

    def run_ops(self, ops, tracer=None, timed=True) -> None:
        """Run, time and check one pass of ops."""
        groups: dict[object, list] = defaultdict(list)
        for op in ops:
            if timed and (not self.references or cpu_s()
                          - self.references[-1][0] >= REFERENCE_EVERY_S):
                self.references.append((cpu_s(), reference_s()))
            t = cpu_s()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    result = tracer.call("op", op.run)
                error = None
            except Exception as exc:  # every error of the program is a failure
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            dt = cpu_s() - t
            self.attempted += 1
            if timed:
                self.samples.append((t, dt, op.row))
            if error is None and op.check is not None:
                error = op.check(result)
            if error is None and op.agree is not None:
                groups[op.agree].append((op, result))
            if error is not None:
                self._fail(op.name, error)
        for members in groups.values():
            first = members[0][1]
            for op, result in members[1:]:
                if not result == first:
                    self._fail(op.name, "circle models disagree with %s"
                               % members[0][0].name)

    def _fail(self, name, error):
        self.failed += 1
        self.failures.setdefault(name, error[:300])

    def timed(self, workload, passes, tracer=None) -> None:
        start = time.perf_counter()
        for k in range(passes):
            self.run_ops(workload.pass_ops(k), tracer)
        self.passes = passes
        self.elapsed = time.perf_counter() - start

    @property
    def latencies(self) -> list[float]:
        """CPU seconds of each timed op."""
        return [dt for _, dt, _ in self.samples]

    def scaled(self) -> list[float]:
        """Latencies at the reference speed: each scaled by REFERENCE_S over
        the median reference loop within REFERENCE_WINDOW_S of CPU time."""
        times = [t for t, _ in self.references]
        loops = [s for _, s in self.references]
        out = []
        for t, dt, _ in self.samples:
            near = loops[bisect.bisect_left(times, t - REFERENCE_WINDOW_S):
                         bisect.bisect_right(times, t + REFERENCE_WINDOW_S)]
            out.append(dt * REFERENCE_S / statistics.median(near or loops))
        return out

    def rows(self) -> dict[str, list[float]]:
        """Scaled latencies by scaling row."""
        out = defaultdict(list)
        for (_, _, row), dt in zip(self.samples, self.scaled()):
            if row:
                out[row].append(dt)
        return out

    def ops_per_s(self) -> float:
        """Ops per CPU second of op time, at the reference speed."""
        return len(self.samples) / sum(self.scaled())


def passes(seconds) -> int:
    """Whole passes that fill about this many seconds at this commit."""
    return max(1, round(seconds / PASS_S))


def quantile(xs, q) -> float:
    """Harrell-Davis estimate of the q-quantile of the samples xs.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution, instead of one order statistic.
    The op mix of a workload is a few clusters of very different latencies,
    and a single order statistic jumps between neighbours of a cluster from
    run to run; on recorded runs this estimate cut the quartile spread of the
    tail from 0.22 to 0.15 and of the median from 0.17 to 0.14.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    # weight of xs[i]: the Beta mass on [i/n, (i+1)/n], by Simpson's rule
    steps = 16
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h)
                    for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and its estimate; the maximum when there are too few samples."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return 100.0, max(latencies)
    q = (n - TAIL_BEYOND) / n
    return 100.0 * q, quantile(latencies, q)


def child_setup_s(workload, seed) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("set-up in a fresh process failed: %s"
                           % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def child_cpu_s(argv) -> float:
    t = cpu_s()
    subprocess.run(argv, cwd=ROOT, env=cli_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return cpu_s() - t


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "sympy": metadata.version("sympy"),
            "pythonpath": "src"}


def layer_metrics(workload, tracer, untraced: Phase, traced: Phase) -> dict:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    summary = tracer.summarize()
    rows = untraced.rows()
    names = summary["names"]
    counts, maxima = tracer.counts, tracer.maxima
    values = {}
    for metric, _ in per_layer_names():
        head, _, field = metric.rpartition(".")
        if head in names and field in ("calls", "busy_s", "self_s"):
            values[metric] = names[head][field]
        elif field == "p50_ms" and head in rows:
            values[metric] = 1000 * statistics.median(rows[head])
        elif field == "max":
            values[metric] = maxima.get(head, 0)
        else:
            values[metric] = counts.get(metric, 0)
    attempts = counts.get("birational.sample_attempts", 0)
    values["birational.sample_yield"] = (
        (attempts - counts.get("birational.pole_rejections", 0)) / attempts
        if attempts else 0)
    values["birational.import_s"] = workload.import_s
    root = summary["root_s"]
    for layer, own in summary["layer_self_s"].items():
        values[layer + ".self_share"] = own / root if root else 0
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.overhead_ops_per_s"] = (untraced.ops_per_s()
                                          - traced.ops_per_s())
    if not workload.in_process:
        values["cli.interpreter_s"] = statistics.median(
            child_cpu_s([sys.executable, "-c", "pass"]) for _ in range(5))
        # about all of a call is this import, so the share is near 0 and
        # can read slightly negative from run-to-run noise
        values["cli.import_s"] = statistics.median(
            child_cpu_s([sys.executable, "-c", "import sympt.cli"])
            for _ in range(5))
        call = statistics.median(untraced.latencies)
        values["cli.compute_share"] = (call - values["cli.import_s"]) / call
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=21)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print its set-up time, exit")
    args = parser.parse_args(argv)

    if not (SRC / "sympt" / "__init__.py").is_file():
        print("sympt sources not found under %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = Phase()
    warm.run_ops(workload.warmup_ops(), timed=False)
    setup_s = cpu_s() - HARNESS_START
    if args.setup_only:
        if warm.failed:
            print(json.dumps(warm.failures), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_s}))
        return 0

    phases = [warm]
    if args.trace == 0:
        main_phase = Phase()
        main_phase.timed(workload, passes(args.seconds))
        phases.append(main_phase)
        peak_rss = workload.peak_rss_mb()
        setups = [setup_s] + [child_setup_s(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        scaled, raw = main_phase.scaled(), main_phase.latencies
        percentile, tail_s = tail(scaled)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": main_phase.ops_per_s(),
            "op_p50_ms": 1000 * quantile(scaled, 0.5),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
        detail = {"setup_s_samples": setups,
                  "op_tail_ms": {"percentile": percentile,
                                 "samples": len(scaled),
                                 "beyond": min(TAIL_BEYOND, len(scaled) - 1)},
                  "passes": main_phase.passes,
                  "reference_loop": {
                      "median_s": statistics.median(
                          s for _, s in main_phase.references),
                      "samples": len(main_phase.references)},
                  "unscaled_cpu": {"ops_per_s": len(raw) / sum(raw),
                                   "op_p50_ms": 1000 * quantile(raw, 0.5),
                                   "op_tail_ms": 1000 * tail(raw)[1]},
                  "timed_wall_s": main_phase.elapsed,
                  "wall_ops_per_s": len(raw) / main_phase.elapsed}
    else:
        import tracer as tracing
        untraced = Phase()
        untraced.timed(workload, passes(args.seconds / 2))
        tracer = tracing.Tracer()
        if workload.in_process:
            tracing.install(tracer)
        traced = Phase()
        traced.timed(workload, passes(args.seconds / 2), tracer)
        phases += [untraced, traced]
        metrics = layer_metrics(workload, tracer, untraced, traced)
        units = dict(per_layer_names())
        tracer.write(HERE / "out" / ("trace_%s.json" % args.workload))
        detail = {"passes": [untraced.passes, traced.passes],
                  "spans": len(tracer.spans)}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = {}
    for p in phases:
        failures.update(p.failures)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "machine": machine(),
                   "failed_ratio": {"value": failed / attempted, "unit": "1"},
                   "failures": failures, "skipped": workload.skipped})

    for name, value in metrics.items():
        print("%-42s %14.6g %s" % (name, value, units[name]))
    print("%-42s %14.6g %s" % ("failed_ratio", failed / attempted, "1"))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
