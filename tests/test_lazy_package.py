"""The package namespace is lazy: importing ``dualshare`` or ``dualshare.cli``
runs no computation module, and each command runs only the modules it uses.

A submodule that has not run yet sits in ``sys.modules`` as a lazy module;
its type becomes ``types.ModuleType`` when its body runs.  Each footprint is
read in a fresh interpreter, since the test process has loaded everything.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualshare

ROOT = Path(__file__).resolve().parent.parent

_REPORT = """
import types
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.startswith("dualshare") and type(mod) is types.ModuleType)),
      file=sys.stderr)
"""
_RUN_CLI = """
from dualshare import cli
sys.argv = ["dualshare", *json.loads(sys.argv[1])]
try:
    cli.main()
except SystemExit as exc:
    if exc.code:
        raise
"""


def _executed(cwd, body: str, *argv: str) -> set[str]:
    """Names of the dualshare modules whose bodies ran in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + body + _REPORT, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


def _run(cwd, *args: str) -> set[str]:
    return _executed(cwd, _RUN_CLI, json.dumps(args))


@pytest.mark.parametrize("statement", ["import dualshare", "import dualshare.cli"])
def test_import_runs_no_computation_module(tmp_path, statement):
    executed = _executed(tmp_path, statement)
    assert executed <= {"dualshare", "dualshare.cli", "dualshare.errors"}, executed


def test_commands_run_only_the_modules_they_use(tmp_path):
    cube = _run(tmp_path, "dual-and", "--n", "4", "--d", "2", "--out", "wit.json")
    shares = _run(tmp_path, "sample-shares", "--witness", "wit.json", "--secret", "+1",
                  "--count", "3")
    pw = _run(tmp_path, "symcheb", "pw", "--n", "16", "--K", "2", "--w", "1",
              "--check", "truncation", "--k", "1")
    degree = _run(tmp_path, "approx-degree", "--f", "maj", "--n", "8")
    weight = _run(tmp_path, "weight-bound", "--f", "maj", "--n", "8", "--K", "4")
    assert (tmp_path / "wit.json").is_file()
    for executed in (cube, shares):
        assert "dualshare.dualand" in executed, executed
        assert not executed & {f"dualshare.{m}" for m in
                               ("simplex", "approxlab", "symcheb", "certify", "weightdeg")}
    assert {"dualshare.symcheb", "dualshare.certify"} <= pw, pw
    assert not pw & {f"dualshare.{m}" for m in
                     ("simplex", "approxlab", "dualand", "weightdeg", "boolcube")}
    # both reach symcheb through approxlab, and neither makes a Sturm decision
    assert "dualshare.symcheb" in degree and "dualshare.weightdeg" in weight, (degree, weight)
    for executed in (degree, weight):
        assert "dualshare.certify" not in executed, executed


def test_every_public_name_is_its_home_modules_object():
    for name, home in dualshare._EXPORTS.items():
        module = importlib.import_module(f"dualshare.{home}")
        assert getattr(dualshare, name) is getattr(module, name), name


def test_all_is_the_export_map_plus_version():
    assert dualshare.__all__ == sorted([*dualshare._EXPORTS, "__version__"])


def test_readme_library_sketch_import_resolves():
    readme = (ROOT / "README.md").read_text()
    statement = re.search(r"^from dualshare import \(.*?\)$", readme, re.M | re.S).group(0)
    namespace: dict = {}
    exec(statement, namespace)
    assert namespace["build_witness"] is importlib.import_module("dualshare.dualand").build_witness


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(dualshare, "no_such_name")
    with pytest.raises(ImportError):
        exec("from dualshare import no_such_name", {})
