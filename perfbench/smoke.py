"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one pass (--seconds 1), untraced and traced, and
checks that each run exits 0, reports no failed op, and emits exactly the
metrics BENCHMARK.json names, with their units.  Then checks two refusals:
a copy whose recorded CLI answer was altered must exit non-zero with the
op named as failed, and a directory holding only BENCHMARK.json and the
benchmark must exit non-zero without printing a result.  Scratch copies go
under perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def copy_benchmark(dest: Path, with_src: bool) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc, result = run(ROOT, w["name"], trace)
            where = "%s --trace %d" % (w["name"], trace)
            if proc.returncode != 0 or result is None:
                problems.append("%s: exit %d\n%s" % (
                    where, proc.returncode, proc.stderr[-2000:]))
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (where, sorted(set(units.items())
                                                 ^ set(wanted[trace].items()))))
            if result["failed"] or not result["correct"]:
                problems.append("%s: %d of %d ops failed" % (
                    where, result["failed"], result["attempted"]))
            print("ok  %-28s attempted %d" % (where, result["attempted"]),
                  flush=True)

    tampered = OUT / "tampered"
    copy_benchmark(tampered, with_src=True)
    cli_json = tampered / "perfbench" / "expected" / "cli.json"
    answers = json.loads(cli_json.read_text())
    answers["trop"]["stdout"] += " "
    cli_json.write_text(json.dumps(answers))
    proc, result = run(tampered, "cli_cold", 0)
    if proc.returncode == 0 or not result or result["correct"] or (
            "trop" not in proc.stdout):
        problems.append("altered CLI answer was not reported as failed")
    else:
        print("ok  altered answer refused", flush=True)

    bare = OUT / "bare"
    copy_benchmark(bare, with_src=False)
    proc, _ = run(bare, "suite_matrix", 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("benchmark without the program did not refuse")
    else:
        print("ok  refused without the program", flush=True)

    for path in (tampered, bare):
        shutil.rmtree(path)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
