"""Cold start: a CLI call loads sympy only for symbolic composition.

The pytest process has sympy loaded already, so each check runs in a fresh
interpreter.  The calls are those of the benchmark corpus in
perfbench/expected/cli.json, whose outputs are compared byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench" / "expected" / "cli.json"

# Runs argv lists from stdin through cli.main in one interpreter; prints,
# per call, stdout, exit code and the sympt and sympy modules loaded by then.
_SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("sympt", "sympy"))
import sympt.cli
at_import = loaded()
calls = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sympt.cli.main(argv)
    calls.append([buf.getvalue(), code, loaded()])
print(json.dumps({"loaded": at_import, "calls": calls}))
"""

CLI_MODULES = ["sympt", "sympt.cli", "sympt.plcore", "sympt.words"]


def _fresh_run(argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def test_only_symbolic_composition_loads_sympy():
    corpus = json.loads(BENCH.read_text())
    names = sorted(corpus, key=lambda n: corpus[n]["argv"][0] == "trop")
    assert corpus[names[-1]]["argv"] == ["trop", "--word", "P"]
    run = _fresh_run([corpus[n]["argv"] for n in names])
    assert run["loaded"] == CLI_MODULES
    for name, (out, code, modules) in zip(names, run["calls"]):
        assert (out, code) == (corpus[name]["stdout"], corpus[name]["exit"])
        assert ("sympy" in modules) == (name == "trop"), name


def test_dyadic_convert_loads_only_the_circle_models():
    corpus = json.loads(BENCH.read_text())
    argv = corpus["convert.dyadic"]["argv"]
    assert argv == ["convert", "--word", "P C", "--to", "dyadic"]
    [(out, code, modules)] = _fresh_run([argv])["calls"]
    assert (out, code) == (corpus["convert.dyadic"]["stdout"],
                           corpus["convert.dyadic"]["exit"])
    assert modules == sorted(CLI_MODULES + ["sympt.thompson"])
