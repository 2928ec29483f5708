"""Every name a catqm module or test file imports is used in that file,
every private helper and every public function of a catqm module is used
by the package itself (but for a listed few), and loading the command line
pulls in no heavy dependency."""

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


def private_definitions(tree: ast.Module) -> set[str]:
    """Single-underscore names a module defines at its top level or directly
    in a class body: functions, classes and simple assignments."""
    out = set()
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if name.startswith("_") and not name.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def package_trees() -> tuple[dict[str, ast.Module], set[str]]:
    """The parsed catqm modules by file name, and every name they read."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    return trees, set().union(*map(referenced_names, trees.values()))


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper that only tests reach is dead weight in the package
    trees, used = package_trees()
    defined = {(name, module) for module, tree in trees.items()
               for name in private_definitions(tree)}
    assert len(defined) > 50
    assert sorted(d for d in defined if d[0] not in used) == []


# public functions that the package itself never calls, with the reason
# each one stays
PUBLIC_WITHOUT_CALLER = {
    ("canonical_body", "runner.py"):
        "the canonical body form that the pinned BODY_DIGESTS hash",
}


def test_every_public_function_has_a_caller_in_the_package():
    # a public function that only tests reach is dead weight too, unless it
    # is listed above with its reason
    trees, used = package_trees()
    defined = {(node.name, module) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")}
    assert len(defined) > 50
    uncalled = sorted(d for d in defined if d[0] not in used)
    assert uncalled == sorted(PUBLIC_WITHOUT_CALLER)


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


def test_cli_and_runner_load_without_dataclasses():
    # each dataclass definition execs its generated methods at import, which
    # every command line call pays; records are NamedTuples or plain classes
    assert _loaded("import sys, catqm.cli, catqm.runner", "dataclasses") == "[]"


def test_algebra_cell_runs_without_numpy_ma():
    probe = ("import sys; from catqm.runner import load_config, run; "
             "run('algebra', load_config('configs/tree_aab.json'))")
    assert _loaded(probe, "numpy.ma") == "[]"
