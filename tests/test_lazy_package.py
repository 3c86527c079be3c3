"""The package namespace is lazy: importing ``dualshare`` or ``dualshare.cli``
runs no computation module, and each command runs only the modules it uses.
The package needs nothing outside the standard library.

A submodule that has not run yet sits in ``sys.modules`` as a lazy module;
its type becomes ``types.ModuleType`` when its body runs.  Each footprint is
read in a fresh interpreter, since the test process has loaded everything.
"""

import ast
import importlib
import json
import os
import re
import runpy
import shutil
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


_REPORT_ALL = """
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def _executed(cwd, body: str, *argv: str, report: str = _REPORT) -> set[str]:
    """Names of the dualshare modules whose bodies ran in a fresh interpreter
    (with ``report=_REPORT_ALL``, of every module in ``sys.modules``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + body + report, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


def _run(cwd, *args: str) -> set[str]:
    return _executed(cwd, _RUN_CLI, json.dumps(args))


@pytest.mark.parametrize("statement", ["import dualshare", "import dualshare.cli"])
def test_import_runs_no_computation_module(tmp_path, statement):
    executed = _executed(tmp_path, statement)
    assert executed <= {"dualshare", "dualshare.cli", "dualshare.errors"}, executed


_DIST = json.dumps({"n": 4, "weight_probs": ["1/2", "0/1", "0/1", "0/1", "1/2"]})
_PRED = json.dumps({"n": 8, "values": [0, 0, 0, 1, 1, 1, 1, 1, 1]})
_BASE = {"dualshare", "dualshare.cli", "dualshare.errors"}

# every kind of job the benchmark runs -> (its command line, the package
# modules it runs beyond the three base modules)
_FOOTPRINTS = {
    "dual-and": (["dual-and", "--n", "4", "--d", "2", "--out", "w.json"],
                 {"cmd_dualand", "dualand", "boolcube", "serialize"}),
    "dual-and-weights": (["dual-and", "--n", "4", "--weights", "1,1,2,2", "--d", "3",
                          "--out", "w.json"], {"cmd_dualand", "dualand", "boolcube", "serialize"}),
    # the witness is read and checked from the file alone: nothing beyond the
    # handler, the reader and sampler (dualand) and the checker (boolcube)
    "sample-shares-csv": (["sample-shares", "--witness", "wit.json", "--secret", "+1",
                           "--format", "csv", "--out", "s.csv"],
                          {"cmd_dualand", "dualand", "boolcube", "serialize"}),
    "sample-shares-json": (["sample-shares", "--witness", "wit.json", "--secret", "-1",
                            "--out", "s.json"],
                           {"cmd_dualand", "dualand", "boolcube", "serialize"}),
    "symcheb-truncation": (["symcheb", "pw", "--n", "64", "--K", "2", "--w", "1", "--check",
                            "truncation", "--k", "1"],
                           {"cmd_symcheb", "symcheb", "certify", "ratpoly", "serialize"}),
    "symcheb-bounded": (["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check",
                         "bounded"], {"cmd_symcheb", "symcheb", "certify", "ratpoly", "serialize"}),
    # the circle identity is decided at 2K+1 points, with no Sturm decision
    "symcheb-circle": (["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check",
                        "circle", "--eps", "1/10"],
                       {"cmd_symcheb", "symcheb", "ratpoly", "serialize"}),
    # the exponential's brackets live in boolcube, beside the ramp bound
    "symcheb-product-cap": (["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check",
                             "product-cap", "--eps", "1/100"],
                            {"cmd_symcheb", "symcheb", "ratpoly", "boolcube", "serialize"}),
    # the weight grid lives in ratpoly, so neither approx-degree nor weight-bound runs symcheb
    "approx-degree": (["approx-degree", "--f", "and", "--n", "20"],
                      {"cmd_degree", "approxlab", "simplex", "ratpoly", "serialize"}),
    "ramp-finite": (["ramp", "--k", "2", "--K", "4", "--n", "16", "--finite"],
                    {"cmd_ramp", "approxlab", "simplex", "ratpoly", "symcheb", "boolcube",
                     "serialize"}),
    # the block-placement polynomials are multiplied by ratpoly's integer kernel
    "consolidate": (["consolidate", "--dist", "d.json", "--t", "2"],
                    {"cmd_ramp", "approxlab", "ratpoly", "boolcube", "serialize"}),
    "indist-check": (["indist-check", "--dist1", "d.json", "--dist2", "d.json", "--k", "1",
                      "--K", "2"], {"cmd_ramp", "boolcube", "serialize"}),
    "weight-bound": (["weight-bound", "--f", "maj", "--n", "8", "--K", "4"],
                     {"cmd_degree", "weightdeg", "approxlab", "simplex", "ratpoly", "boolcube",
                      "serialize"}),
    "weight-bound-json": (["weight-bound", "--f", "pred.json", "--K", "4"],
                          {"cmd_degree", "weightdeg", "approxlab", "simplex", "ratpoly",
                           "boolcube", "serialize"}),
}


@pytest.mark.parametrize("kind", list(_FOOTPRINTS))
def test_each_benchmark_job_kind_runs_exactly_its_modules(tmp_path, kind):
    """A command that compiles a module it does not need fails here."""
    (tmp_path / "d.json").write_text(_DIST)
    (tmp_path / "pred.json").write_text(_PRED)
    args, modules = _FOOTPRINTS[kind]
    if args[0] == "sample-shares":
        _run(tmp_path, "dual-and", "--n", "4", "--weights", "1,1,2,2", "--d", "3",
             "--out", "wit.json")
    assert _run(tmp_path, *args) == _BASE | {f"dualshare.{m}" for m in modules}


def test_serialize_imports_no_file_type_module():
    """Every command runs ``serialize``; the codecs of the witness and the
    distribution files live with their types, so it imports neither."""
    tree = ast.parse((ROOT / "src" / "dualshare" / "serialize.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
            names.update((getattr(node, "module", None) or "").split("."))
    assert not names & {"dualand", "boolcube"}, names


@pytest.mark.parametrize("args, handler", [
    (["dual-and", "--n", "4", "--d", "2"], "cmd_dualand"),
    (["sample-shares", "--witness", "wit.json", "--secret", "+1"], "cmd_dualand"),
    (["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1"], "cmd_symcheb"),
    (["approx-degree", "--f", "maj", "--n", "8"], "cmd_degree"),
    (["weight-bound", "--f", "maj", "--n", "8", "--K", "4"], "cmd_degree"),
    (["ramp", "--k", "1", "--K", "2"], "cmd_ramp"),
    (["consolidate", "--dist", "d.json", "--t", "2"], "cmd_ramp"),
    (["indist-check", "--dist1", "d.json", "--dist2", "d.json", "--k", "1"], "cmd_ramp"),
])
def test_each_command_runs_only_its_own_handler_module(tmp_path, args, handler):
    (tmp_path / "d.json").write_text(_DIST)
    _run(tmp_path, "dual-and", "--n", "4", "--d", "2", "--out", "wit.json")
    handlers = {name for name in _run(tmp_path, *args) if name.startswith("dualshare.cmd_")}
    assert handlers == {f"dualshare.{handler}"}, (args, handlers)


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["--list-commands"], [],
                                  ["ramp", "--help"], ["symcheb", "pw", "--help"]])
def test_help_version_and_schema_run_no_handler_or_computation_module(tmp_path, args):
    """The help lines and the schema live in the command table itself."""
    assert _run(tmp_path, *args) == {"dualshare", "dualshare.cli", "dualshare.errors"}


def test_no_package_module_imports_cli():
    """``python -m dualshare.cli`` runs cli as ``__main__``; a module that
    imported ``dualshare.cli`` would compile and run it a second time."""
    offenders = []
    for path in sorted((ROOT / "src" / "dualshare").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # a relative import is under dualshare
                base = ".".join(filter(None, ["dualshare" * bool(node.level), node.module]))
                names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if any(name == "dualshare.cli" or name.startswith("dualshare.cli.")
                   for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_commands_load_only_the_standard_library(tmp_path):
    """Against a bare interpreter, which may already hold site hooks' modules."""
    bare = _executed(tmp_path, "", report=_REPORT_ALL)
    for args in (["dual-and", "--n", "4", "--d", "2", "--out", "wit.json"],
                 ["sample-shares", "--witness", "wit.json", "--secret", "+1"],
                 ["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1", "--check", "bounded"],
                 ["weight-bound", "--f", "maj", "--n", "8", "--K", "4"],
                 ["ramp", "--k", "1", "--K", "2", "--n", "32", "--finite"],
                 ["--list-commands"], ["ramp", "--help"]):
        added = _executed(tmp_path, _RUN_CLI, json.dumps(args), report=_REPORT_ALL) - bare
        assert "dualshare.cli" in added, args
        outside = {name for name in added if name.split(".")[0] not in
                   {*sys.stdlib_module_names, "dualshare"}}
        assert not outside, (args, outside)
        # dataclasses imports inspect, and with it ast, dis and tokenize
        heavy = added & {"dataclasses", "inspect"}
        assert not heavy, (args, heavy)


def _absolute_imports():
    """(file:line, top-level module) of every absolute import in the package."""
    for path in sorted((ROOT / "src" / "dualshare").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name.split(".")[0]


def test_package_imports_only_the_standard_library():
    offenders = [(where, top) for where, top in _absolute_imports()
                 if top not in {*sys.stdlib_module_names, "dualshare"}]
    assert not offenders, offenders
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_does_not_import_dataclasses():
    """Plain classes with ``__slots__`` cost a command nothing to create; a
    ``@dataclass`` costs importing ``dataclasses`` and ``exec`` per class."""
    offenders = [where for where, top in _absolute_imports() if top == "dataclasses"]
    assert not offenders, offenders


@pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
@pytest.mark.parametrize("short", dualshare._LAZY_SUBMODULES)
def test_every_lazy_module_body_runs_without_error(short):
    """A lazy module's body runs when one of its names is first read, in
    whatever command reads it.  Run each body here, where any exception
    fails the test."""
    runpy.run_module(f"dualshare.{short}")


# a command that runs each computation module's body; a lazy module missing
# here fails its case below with a KeyError
_COMMAND_USING = {
    "ratpoly": ["approx-degree", "--f", "maj", "--n", "8"],
    "simplex": ["approx-degree", "--f", "maj", "--n", "8"],
    "approxlab": ["approx-degree", "--f", "maj", "--n", "8"],
    "serialize": ["approx-degree", "--f", "maj", "--n", "8"],
    "certify": ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check", "bounded"],
    "symcheb": ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check", "bounded"],
    "boolcube": ["dual-and", "--n", "4", "--d", "2", "--out", "wit.json"],
    "dualand": ["dual-and", "--n", "4", "--d", "2", "--out", "wit.json"],
    "weightdeg": ["weight-bound", "--f", "maj", "--n", "8", "--K", "4"],
}


@pytest.mark.parametrize("short", dualshare._LAZY_SUBMODULES)
def test_an_exception_in_a_lazy_module_body_fails_the_command(tmp_path, short):
    """A module body that raises must fail the command that loads it.  An
    import statement that runs a lazy body (``from .simplex import name``)
    would drop the exception and run on with the half-run module."""
    shutil.copytree(ROOT / "src" / "dualshare", tmp_path / "dualshare",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "dualshare" / f"{short}.py", "a") as fh:
        fh.write('\nraise RuntimeError("boom")\n')
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "dualshare.cli", *_COMMAND_USING[short]],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode != 0, proc.stdout
    assert "boom" in proc.stderr


# a command that imports each handler module; a handler module missing here
# fails its case below with a KeyError
_COMMAND_HANDLED_BY = {
    "cmd_dualand": ["dual-and", "--n", "4", "--d", "2"],
    "cmd_symcheb": ["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1"],
    "cmd_degree": ["approx-degree", "--f", "maj", "--n", "8"],
    "cmd_ramp": ["ramp", "--k", "1", "--K", "2"],
}


@pytest.mark.parametrize("short", sorted(
    path.stem for path in (ROOT / "src" / "dualshare").glob("cmd_*.py")))
def test_an_exception_in_a_handler_module_body_fails_the_command(tmp_path, short):
    """The command table imports a handler module when its command is
    dispatched; an exception in that module's body must fail the command."""
    shutil.copytree(ROOT / "src" / "dualshare", tmp_path / "dualshare",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "dualshare" / f"{short}.py", "a") as fh:
        fh.write('\nraise RuntimeError("boom")\n')
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "dualshare.cli", *_COMMAND_HANDLED_BY[short]],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode != 0, proc.stdout
    assert "boom" in proc.stderr


def test_package_imports_lazy_modules_as_modules():
    """``from .<lazy module> import name`` runs that module's body inside the
    import statement, which drops any exception the body raises; the package
    writes ``from . import <module>`` and reads the name qualified."""
    offenders = []
    for path in sorted((ROOT / "src" / "dualshare").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module if node.level else node.module.removeprefix("dualshare.")
                if module in dualshare._LAZY_SUBMODULES:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


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
