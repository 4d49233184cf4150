import ast
import os
from collections import Counter
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "psimoments").glob("*.py"))


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level _private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if re.match(r"_[^_]", name))


def _references(node: ast.AST) -> Counter:
    """Names read under a node, bare or as attributes (``sweep._grid``)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        or isinstance(n, ast.Attribute)
    )


def test_no_dead_private_definitions():
    # the companion of test_no_unused_imports: a private name no code reads
    # is dead; uses inside its own definition (recursion) do not count
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}:{node.lineno} {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if used[name] == _references(node)[name]
    ]
    assert not dead, f"private definitions referenced nowhere in src/: {dead}"


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # tuning constants stay constants: no module reads os.environ or getenv
    reads = sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name) and node.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ENVIRONMENT_READS for a in node.names))
    )
    assert not reads, f"{path.name}: environment read on lines {reads}"


def _runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imports_are_declared(path):
    # every absolute import is stdlib, psimoments itself, or a declared dependency
    allowed = set(sys.stdlib_module_names) | {"psimoments"} | _runtime_dependencies()
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            imported.add((node.lineno, node.module.split(".")[0]))
    undeclared = sorted((line, name) for line, name in imported if name not in allowed)
    assert not undeclared, f"{path.name}: undeclared imports (line, name): {undeclared}"


def test_import_loads_no_scipy():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import sys, psimoments; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
