"""Checks on the package's source as a whole.

Import graph: `from lorentzbilliards.cli import main` loads only the
package, `errors`, `metric` and `cli`, and each subcommand imports the
library modules it runs inside its own function, so a fresh interpreter
compiles no module the subcommand does not need (bytecode is not always
cached).  scipy stays out of the package's imports: only
`circle.point_on_level` imports it, when it is called, so of the
subcommands only `circle-phase` pays for scipy.optimize.  And every error
type in `errors.py` but the base is raised somewhere in the package, so no
type outlives the code that raised it."""
import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lorentzbilliards

SRC = Path(lorentzbilliards.__file__).resolve().parent
MODULES = ["lorentzbilliards.cli"] + [
    f"lorentzbilliards.{m.name}" for m in pkgutil.iter_modules([str(SRC)])
]
# appended to a child's code: its last stdout line is the JSON list of the
# package modules it loaded (by short name, "" for the package itself) and
# whether it loaded scipy
LOADED = (
    "import json, sys\n"
    "roots = [m.split('.') for m in sys.modules]\n"
    "print(json.dumps([sorted(''.join(r[1:]) for r in roots if r[0] == 'lorentzbilliards'),"
    " any(r[0] == 'scipy' for r in roots)]))\n"
)
CLI_IMPORT = ["", "cli", "errors", "metric"]
# subcommand, the benchmark suite's small arguments, output flags, and the
# library modules it loads beyond CLI_IMPORT
SUBCOMMAND_LOADS = [
    ("billiard", ["--bounces", "100"], ["--out"], ["billiard", "output", "surface_flow"]),
    ("circle-phase", ["--grid", "8", "--orbit-len", "20"],
     ["--out-csv", "--out-svg", "--out-orbit-svg"], ["circle", "output"]),
    ("confocal-count", ["--grid", "12"], ["--out-csv", "--out-svg"], ["confocal", "output"]),
    ("geodesic", ["--length", "0.5"], ["--out"],
     ["billiard", "confocal", "output", "quadric_flow", "surface_flow"]),
    ("revolution", ["--length", "1"], ["--out"], ["output", "revolution", "surface_flow"]),
    ("diameters", ["--starts", "10"], ["--out"], ["billiard", "output", "surface_flow", "variational"]),
    ("caustic", ["--grid", "180"], ["--out-csv", "--out-svg"],
     ["billiard", "output", "surface_flow", "variational"]),
    ("eigen-sweep", ["--count", "20"], ["--out"], ["lines", "output"]),
    ("checks", [], [], ["billiard", "circle", "confocal", "revolution", "surface_flow"]),
]


def _child(code: str, *argv: str, cwd=None) -> list[str]:
    """Run `code` in a fresh interpreter on the package's source; its stdout
    lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_importing_the_package_loads_no_scipy():
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _child(code) == ["[]"]


def test_importing_the_cli_loads_no_library_module():
    (last,) = _child("from lorentzbilliards.cli import main\n" + LOADED)
    assert json.loads(last) == [CLI_IMPORT, False]


@pytest.mark.parametrize(
    "command, args, outputs, loads", SUBCOMMAND_LOADS, ids=[e[0] for e in SUBCOMMAND_LOADS]
)
def test_each_subcommand_loads_only_its_modules(tmp_path, command, args, outputs, loads):
    argv = [command, *args]
    for i, flag in enumerate(outputs):
        argv += [flag, str(tmp_path / f"out{i}")]
    code = (
        "import sys\n"
        "from lorentzbilliards.cli import main\n"
        "if main(sys.argv[1:]) != 0:\n"
        "    sys.exit(1)\n" + LOADED
    )
    last = _child(code, *argv, cwd=tmp_path)[-1]
    assert json.loads(last) == [sorted(CLI_IMPORT + loads), command == "circle-phase"]


def test_point_on_level_holds_the_only_scipy_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node.name, node) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                owner = [name for name, f in scopes if node in ast.walk(f)]
                found.append((path.stem, owner))
    assert found == [("circle", ["point_on_level"])]


def _raised_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised_in_the_package():
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    assert "LorentzBilliardError" in defined
    assert defined - {"LorentzBilliardError"} - raised == set()
