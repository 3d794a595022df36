"""The runtime needs only NumPy and the standard library: every CLI run
starts with `import solvaq.cli`, and SciPy alone used to be most of its
start-up time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
