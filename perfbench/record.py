"""Record the answers the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected/verdicts.json (the suite x backend verdict matrix
as check_suite reports it with its default parameters) and
perfbench/expected/cli.json (exit code and stdout of every cli_cold call).
Before writing, it checks the matrix against the cross-model state the
project has established; if that check fails nothing is written, because a
changed verdict is a finding to explain, not data to record.
"""

from __future__ import annotations

import json
import sys

from workloads import (BACKENDS, BIR_REFUSED, CIRCLE, EXPECTED, SRC,
                       cli_corpus, run_cli, suite_report)

# The only relations that fail, and only outside the pl/tree/dyadic models.
KNOWN_FAILURES = {
    ("theorem", "(I mu)^7 = 1"),
    ("t_lc", "(C I L)^7 = 1"),
    ("t_rc", "alpha commutes with beta^-1 alpha beta"),
    ("t_abc", "B A^-1 commutes with A^-1 X2 A"),
}


def cross_model_problems(reports) -> list[str]:
    problems = []
    for (suite, backend), report in reports.items():
        for r in report["results"]:
            if r["rhs"] == "probe":
                want = "identity" if backend in CIRCLE else "nonidentity"
            elif backend in CIRCLE or (suite, r["name"]) not in KNOWN_FAILURES:
                want = "pass"
            else:
                want = "fail"
            if r["verdict"] != want:
                problems.append("%s/%s %r: %s, expected %s" % (
                    suite, backend, r["name"], r["verdict"], want))
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    from sympt import words

    reports = {(suite, backend): words.check_suite(suite, backend)
               for suite in words.list_suites() for backend in BACKENDS
               if not (backend == "bir" and suite in BIR_REFUSED)}
    problems = cross_model_problems(reports)
    if problems:
        print("verdict matrix differs from the known cross-model state:",
              *problems, sep="\n  ", file=sys.stderr)
        return 1
    verdicts = {"%s/%s" % key: suite_report(report)
                for key, report in reports.items()}
    cli = {}
    for name, argv in cli_corpus():
        code, out = run_cli(argv)
        if run_cli(argv) != (code, out):
            print("%s: output is not reproducible" % name, file=sys.stderr)
            return 1
        cli[name] = {"argv": argv, "exit": code, "stdout": out}
    EXPECTED.mkdir(exist_ok=True)
    for name, doc in (("verdicts.json", verdicts), ("cli.json", cli)):
        (EXPECTED / name).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("recorded %d suite x backend pairs and %d CLI calls"
          % (len(verdicts), len(cli)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
