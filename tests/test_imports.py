"""Every name a catqm module or test file imports is used in that file,
and loading the command line pulls in no heavy dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "catqm"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def _loaded(probe: str, package: str) -> str:
    """The modules of the package that a fresh interpreter holds after
    running the probe, as printed by it."""
    probe += (f"; print(sorted(m for m in sys.modules "
              f"if m == {package!r} or m.startswith({package + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, cwd=TESTS.parent)
    return out.stdout.strip()


def test_cli_and_runner_load_without_scipy():
    assert _loaded("import sys, catqm.cli, catqm.runner", "scipy") == "[]"


def test_algebra_cell_runs_without_numpy_ma():
    probe = ("import sys; from catqm.runner import load_config, run; "
             "run('algebra', load_config('configs/tree_aab.json'))")
    assert _loaded(probe, "numpy.ma") == "[]"
