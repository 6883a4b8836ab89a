"""Checks on the package's source as a whole.  scipy stays out of the
package's imports: only `circle.point_on_level` imports it, when it is
called, so every other CLI subcommand starts without paying for
scipy.optimize.  And every error type in `errors.py` but the base is raised
somewhere in the package, so no type outlives the code that raised it."""
import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import lorentzbilliards

SRC = Path(lorentzbilliards.__file__).resolve().parent
MODULES = ["lorentzbilliards.cli"] + [
    f"lorentzbilliards.{m.name}" for m in pkgutil.iter_modules([str(SRC)])
]


def test_importing_the_package_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
