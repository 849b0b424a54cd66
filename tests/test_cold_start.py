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
# per call, stdout, exit code and whether sympy was loaded afterwards.
_SCRIPT = """
import contextlib, io, json, sys
import sympt.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("sympt", "sympy"))
calls = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sympt.cli.main(argv)
    calls.append([buf.getvalue(), code, "sympy" in sys.modules])
print(json.dumps({"loaded": loaded, "calls": calls}))
"""


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
    assert run["loaded"] == ["sympt", "sympt.cli", "sympt.plcore",
                             "sympt.words"]
    for name, (out, code, sympy_loaded) in zip(names, run["calls"]):
        assert (out, code) == (corpus[name]["stdout"], corpus[name]["exit"])
        assert sympy_loaded == (name == "trop"), name
