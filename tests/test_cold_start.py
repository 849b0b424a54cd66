"""Cold start: no CLI call loads sympy, each loads only its models, and
none loads the stdlib modules sympt could do without.

The pytest process has sympy loaded already, so each check runs in a fresh
interpreter.  The calls are those of the benchmark corpus in
perfbench/expected/cli.json and of the golden corpus in
tests/data/cli_golden.json, whose outputs are compared byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench" / "expected" / "cli.json"
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

# Runs argv lists from stdin through cli.main in one interpreter; prints,
# per call, stdout, exit code and the modules loaded by then.  A blocked
# module is held as None in sys.modules and is not loaded.
_SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m, mod in sys.modules.items() if mod is not None)
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

# Stdlib a CLI call can do without: dataclasses (which loads inspect, ast
# and dis), fractions (decimal and numbers), importlib.resources and
# typing.  Together they would cost each call tens of milliseconds.
CONVENIENCE = ["dataclasses", "decimal", "fractions", "importlib.resources",
               "inspect", "typing"]


def _ours(modules):
    return [m for m in modules if m.split(".")[0] in ("sympt", "sympy")]


def _fresh_run(argvs, prelude="", flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", prelude + _SCRIPT],
                          env=env, input=json.dumps(argvs),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _replay_corpus(prelude=""):
    """Every recorded call in one fresh interpreter, outputs checked."""
    entries = [entry for path in (BENCH, GOLDEN)
               for entry in json.loads(path.read_text()).values()]
    assert {e["argv"][0] for e in entries} == {
        "relations", "equal", "eval", "trop", "convert", "mutate", "quantum",
        "orbit"}
    run = _fresh_run([e["argv"] for e in entries], prelude)
    assert _ours(run["loaded"]) == CLI_MODULES
    for entry, (out, code, _) in zip(entries, run["calls"]):
        assert (out, code) == (entry["stdout"], entry["exit"]), entry["argv"]
    return entries, run["calls"]


def test_no_subcommand_loads_sympy():
    for entry, (_, _, modules) in zip(*_replay_corpus()):
        assert not [m for m in modules if m.split(".")[0] == "sympy"], \
            entry["argv"]


def test_every_subcommand_answers_with_sympy_unimportable():
    # any import of sympy raises ImportError, which cli.main does not catch
    _replay_corpus('import sys; sys.modules["sympy"] = None\n')


@pytest.mark.parametrize("name,model", [
    ("convert.dyadic", "sympt.thompson"),
    ("relations.quantum", "sympt.quantum"),
    ("mutate.wq", "sympt.picard"),
])
def test_a_call_loads_only_its_own_model(name, model):
    # so a model that starts importing another one (quantum or picard
    # importing birational, say) fails here by name
    entry = json.loads(BENCH.read_text())[name]
    [(out, code, modules)] = _fresh_run([entry["argv"]])["calls"]
    assert (out, code) == (entry["stdout"], entry["exit"])
    assert _ours(modules) == sorted(CLI_MODULES + [model])


def test_start_up_loads_no_convenience_stdlib():
    # -S: without site, whose .pth files can load some of these first and
    # so hide them
    golden = json.loads(GOLDEN.read_text())
    names = ["relations.H.%s" % b for b in ("pl", "quantum", "picard")]
    run = _fresh_run([golden[n]["argv"] for n in names], flags=["-S"])
    assert not [m for m in CONVENIENCE if m in run["loaded"]]
    for name, (out, code, modules) in zip(names, run["calls"]):
        assert (out, code) == (golden[name]["stdout"], golden[name]["exit"])
        assert not [m for m in CONVENIENCE if m in modules], name
