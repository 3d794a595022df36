"""What the package imports and what it offers. The runtime needs only NumPy
and the standard library: every CLI run starts with `import solvaq.cli`, and
SciPy alone used to be most of its start-up time. Every library name has a
use outside the tests, and the README's Python API runs as written."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_cli_import_loads_no_scipy_and_no_process_pool():
    probe = "import sys, solvaq.cli; print('\\n'.join(sys.modules))"
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(done.stdout.split())
    assert "solvaq.cli" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert "concurrent.futures.process" not in loaded


def test_no_module_imports_scipy():
    offenders = []
    for path in sorted((SRC / "solvaq").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders


def _python_blocks(markdown: str) -> str:
    """The fenced ```python blocks of a Markdown text, joined."""
    return "\n".join(re.findall(r"```python\n(.*?)```", markdown, flags=re.S))


def _library_names():
    """(place, name, node, path) for every top-level function and class under
    src/solvaq and every non-dunder method or property of those classes."""
    for path in sorted((SRC / "solvaq").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.relative_to(SRC)}:{node.name}", node.name, node, path
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{path.relative_to(SRC)}:{node.name}.{item.name}", item.name, item, path


def _name_uses(tree: ast.AST):
    """(name, line) of every Name, Attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno


def test_every_library_name_is_used_outside_the_tests():
    """Each function, class, method and property of the package is used by
    the package itself, by the benchmark, or by the README's Python API;
    code that only the tests call belongs in tests/."""
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "solvaq").rglob("*.py"))}
    sources.update({path: path.read_text(encoding="utf-8")
                    for path in sorted((ROOT / "bench").glob("*.py"))})
    sources[ROOT / "README.md"] = _python_blocks(
        (ROOT / "README.md").read_text(encoding="utf-8")
    )
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, text in sources.items():
        for name, line in _name_uses(ast.parse(text)):
            uses.setdefault(name, []).append((path, line))
    unused = [
        place
        for place, name, node, path in _library_names()
        if not any(
            where != path or not node.lineno <= line <= node.end_lineno
            for where, line in uses.get(name, [])
        )
    ]
    assert not unused


def test_readme_python_api_runs(tmp_path):
    """The README's Python API block runs verbatim, as from the repo root (a
    scratch directory that holds the repo's configs/, so the files the block
    writes land there), and prints a finite SQD energy."""
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    block = _python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    energy = float(done.stdout.split()[0])
    assert math.isfinite(energy) and energy < 0.0
