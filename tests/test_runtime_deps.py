"""The runtime imports numpy only; scipy is a test oracle."""

import ast
import inspect
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


def _unused_imports(path: Path) -> list:
    """Names a module imports but never reads and does not list in
    ``__all__`` (pyflakes' unused-import check, which is not installed)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((SRC / "tvbounds").glob("*.py"))
    assert modules
    unused = {path.name: _unused_imports(path) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_module_catches_every_exception():
    # a catch-all handler reports a bug as a bad input or a failed simulation
    broad = []
    for path in sorted((SRC / "tvbounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                caught = [] if node.type is None else getattr(node.type, "elts", [node.type])
                names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
                if node.type is None or names & {"Exception", "BaseException"}:
                    broad.append(f"{path.name}:{node.lineno}")
    assert broad == []
    # an OSError of a second file writer in the CLI would escape the exit codes
    # as a traceback; every write goes through _emit, every read of parameters
    # through _load_params
    tree = ast.parse((SRC / "tvbounds" / "cli.py").read_text(encoding="utf-8"))
    opens = sorted(
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"
    )
    assert opens == ["_emit", "_load_params"]


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



def test_curve_workers_run_on_threads_not_processes(tmp_path):
    # 140_000 paths make two chunks, so two workers share four jobs
    script = (
        "import json, sys\n"
        "from tvbounds import cli\n"
        "code = cli.main(['curve', '--family', 'ar1', '--a', '0.5', '--sigma', '1', '--x0', '0',\n"
        "                 '--x0p', '1', '--n-max', '2', '--paths', '140000', '--workers', '2',\n"
        "                 '--seed', '1', '--out', 'curve.csv'])\n"
        "print(json.dumps({'code': code,\n"
        "                  'process': sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
        "                                    or m == 'concurrent.futures.process')}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "process": []}
    assert (tmp_path / "curve.csv").read_text(encoding="utf-8").count("\n") == 3


def test_docs_list_only_the_modules_that_exist():
    # README's module list names files; the package docstring's Submodules
    # list names what tvbounds/__init__.py imports, plus the cli entry point
    named = set(re.findall(r"src/tvbounds/(\w+)\.py", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert named
    assert sorted(n for n in named if not (SRC / "tvbounds" / f"{n}.py").is_file()) == []
    tree = ast.parse((SRC / "tvbounds" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    assert imported
    submodules = ast.get_docstring(tree).split("Submodules\n----------\n", 1)[1]
    assert set(re.findall(r"^(\w+)$", submodules, re.M)) == imported | {"cli"}


def test_readme_names_every_certificate_constructor():
    # the family table's last column: each family's certificate method, and
    # the one bounds constructor without a chain, each with its parameter names
    from tvbounds import bounds, models

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\|.*\| `((?:models|bounds)\.[\w.]+)\((.*)\)` \|$", text, re.M)
    listed = {name: [arg.split("=")[0].strip() for arg in args.split(",")] for name, args in rows}
    expected = {
        f"models.{cls.__name__}.certificate": list(inspect.signature(cls.certificate).parameters)[1:]
        for cls in models.FAMILIES.values()
    }
    expected.update(
        (f"bounds.{name}", list(inspect.signature(getattr(bounds, name)).parameters))
        for name in bounds.__all__ if name.endswith("_certificate")
    )
    assert listed == expected