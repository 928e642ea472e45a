"""The runtime imports numpy only; scipy is a test oracle."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _imported_top_levels(path: Path) -> set:
    """Top-level names of every absolute import in a module, including
    imports nested inside functions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }
    assert declared == {"numpy"}
    modules = sorted((SRC / "tvbounds").glob("*.py"))
    assert modules
    for path in modules:
        third_party = _imported_top_levels(path) - set(sys.stdlib_module_names) - {"tvbounds"}
        assert third_party <= declared, f"{path.name} imports undeclared {sorted(third_party - declared)}"


def test_cli_commands_load_no_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "from tvbounds import cli\n"
        "codes = [cli.main(['certificate', '--family', 'nonlinear-ar', '--gap', '1']),\n"
        "         cli.main(['repro', '--skip-mc'])]\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}

