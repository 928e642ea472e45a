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
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11; the other tests here run on 3.10 too
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


def _run_python(script: str, cwd) -> str:
    """Stdout of ``script`` in a fresh interpreter that imports tvbounds from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_commands_load_no_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "from tvbounds import cli\n"
        "codes = [cli.main(['certificate', '--family', 'nonlinear-ar', '--gap', '1']),\n"
        "         cli.main(['repro', '--skip-mc'])]\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    result = json.loads(_run_python(script, tmp_path).splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}


# the curve simulator, the dataset reader and the modules only they import
CURVE_AND_DATA = ("tvbounds.tvlab", "tvbounds.data", "concurrent.futures", "csv")
# and what a closed-form command does without: code generation and introspection
CLOSED_FORM_ABSENT = (*CURVE_AND_DATA, "dataclasses", "inspect")
GARCH = '{"alpha2":0.13,"beta2":0.1266,"gamma2":0.7922,"z":{"dist":"normal","mu":0,"sigma":1}}'


@pytest.mark.parametrize("argv,absent", [
    ([], CLOSED_FORM_ABSENT),
    (["certificate", "--family", "garch", "--params", GARCH, "--x0", "0.1", "--x0p", "-0.1",
      "--s20", "0.0001", "--s20p", "0.01"], CLOSED_FORM_ABSENT),
    (["iters", "--family", "location-gibbs", "--params", '{"j":31,"s":295.4374194}', "--gap", "18.12198",
      "--epsilon", "0.01"], CLOSED_FORM_ABSENT),
    (["certificate", "--family", "nonlinear-ar", "--gap", "1"], (*CLOSED_FORM_ABSENT, "numpy._core")),
    (["repro", "--seed", "1"], ("tvbounds.tvlab", "concurrent.futures")),  # repro reads the girth data
], ids=["import", "certificate", "iters", "certificate-nonlinear-ar", "repro"])
def test_cold_commands_load_only_the_modules_they_run(tmp_path, argv, absent):
    # certificate and iters are closed-form arithmetic: their latency is start-up
    script = (
        "import json, sys\n"
        "from tvbounds import cli\n"
        f"code = cli.main({argv!r}) if {argv!r} else 0\n"
        f"print(json.dumps({{'code': code, 'loaded': [m for m in {absent!r} if m in sys.modules]}}))\n"
    )
    assert json.loads(_run_python(script, tmp_path).splitlines()[-1]) == {"code": 0, "loaded": []}


# a valid certificate of each family whose constants are closed forms or pinned
CLOSED_FORM = {
    "nonlinear-ar": ["--gap", "1"],
    "ar1": ["--a", "0.5", "--sigma", "1", "--x0", "0", "--x0p", "1"],
    "larch": ["--params", '{"beta0":1,"beta1":0.5,"z":{"dist":"chi-square","nu":1}}', "--x0", "0.01",
              "--x0p", "1.21"],
    "asym-arch": ["--params", '{"a":0.5,"b":3,"c":5}', "--x0", "0", "--x0p", "5"],
    "garch": ["--params", GARCH, "--x0", "0.1", "--x0p", "-0.1", "--s20", "0.0001", "--s20p", "0.01"],
    "location-gibbs": ["--params", '{"j":31,"s":295.4374194}', "--gap", "18.12198"],
    "regression-gibbs": ["--params", '{"k":333,"p":4,"c_stat":26123}', "--gap", "1000"],
    "independent-coordinates": ["--params", '{"amplitude":0.46,"rate":0.5,"d":100,"gap":1}'],
}


def test_closed_form_commands_never_import_numpy(tmp_path):
    # numpy sits in sys.modules as a first-use stub from the import on, so
    # 'numpy' in sys.modules proves nothing; numpy._core is what importing it
    # loads first, as the script's last lines check
    argvs = [[cmd, "--family", family, *flags, *extra] for family, flags in CLOSED_FORM.items()
             for cmd, extra in (("certificate", []), ("iters", ["--epsilon", "0.01"]))]
    script = (
        "import json, sys\n"
        "from tvbounds import cli\n"
        "loaded = ['numpy._core'] if 'numpy._core' in sys.modules else []\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        f"loaded += [m for m in ('numpy._core', *{CURVE_AND_DATA!r}) if m in sys.modules]\n"
        "import numpy\n"
        "numpy.ndarray\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded, 'marker': 'numpy._core' in sys.modules}))\n"
    )
    result = json.loads(_run_python(script, tmp_path).splitlines()[-1])
    assert result == {"codes": [0] * len(argvs), "loaded": [], "marker": True}


def test_tvlab_loads_numpy_before_its_threads_do(tmp_path):
    # the first-use stub's load takes no lock, so importing tvlab loads numpy
    # on the importing thread; a 2-worker curve, the first to use numpy
    # after that, then writes the 1-worker CSV
    curve = ["curve", "--family", "ar1", "--a", "0.5", "--sigma", "1", "--x0", "0", "--x0p", "1",
             "--n-max", "3", "--paths", "140000", "--seed", "1"]
    script = (
        "import json, sys, types\n"
        "import tvbounds.tvlab\n"
        "loaded = 'numpy._core' in sys.modules and type(sys.modules['numpy']) is types.ModuleType\n"
        "from tvbounds import cli\n"
        f"codes = [cli.main({curve!r} + ['--workers', str(w), '--out', f'w{{w}}.csv']) for w in (2, 1)]\n"
        "print(json.dumps({'loaded': loaded, 'codes': codes}))\n"
    )
    assert json.loads(_run_python(script, tmp_path).splitlines()[-1]) == {"loaded": True, "codes": [0, 0]}
    two = (tmp_path / "w2.csv").read_text(encoding="utf-8")
    assert two == (tmp_path / "w1.csv").read_text(encoding="utf-8") and two.count("\n") == 4


def test_lazy_submodules_load_on_first_use(tmp_path):
    script = (
        "import json, sys\n"
        "import tvbounds\n"
        "before = [m for m in ('tvbounds.tvlab', 'tvbounds.data') if m in sys.modules]\n"
        "names = [tvbounds.tvlab.simulate_tv_curve.__name__, tvbounds.data.builtin_dataset.__name__]\n"
        "try:\n"
        "    tvbounds.nonexistent\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'before': before, 'names': names, 'missing': missing}))\n"
    )
    assert json.loads(_run_python(script, tmp_path).splitlines()[-1]) == {
        "before": [],
        "names": ["simulate_tv_curve", "builtin_dataset"],
        "missing": "module 'tvbounds' has no attribute 'nonexistent'",
    }


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
    assert json.loads(_run_python(script, tmp_path).splitlines()[-1]) == {"code": 0, "process": []}
    assert (tmp_path / "curve.csv").read_text(encoding="utf-8").count("\n") == 3


def test_docs_list_only_the_modules_that_exist():
    # README's module list names files; the package docstring's Submodules
    # list names what tvbounds/__init__.py imports or loads on first use,
    # plus the cli entry point
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
    # and the submodules it loads on first use
    imported |= {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_LAZY_SUBMODULES"
        for name in ast.literal_eval(node.value)
    }
    submodules = ast.get_docstring(tree).split("Submodules\n----------\n", 1)[1]
    assert set(re.findall(r"^(\w+)$", submodules, re.M)) == imported | {"cli"}


def test_readme_names_every_certificate_constructor():
    # the family table's last column: each family's certificate method, with its parameter names
    from tvbounds import models

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\|.*\| `(models\.[\w.]+)\((.*)\)` \|$", text, re.M)
    listed = {name: [arg.split("=")[0].strip() for arg in args.split(",")] for name, args in rows}
    expected = {
        f"models.{cls.__name__}.certificate": list(inspect.signature(cls.certificate).parameters)[1:]
        for cls in models.FAMILIES.values()
    }
    assert listed == expected