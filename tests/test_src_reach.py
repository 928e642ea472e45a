"""`src/` carries only what the package, its benchmark or its demos run:
code that only tests reach belongs in ``tests/oracles.py``."""

import ast
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

from tvbounds import cli, models

from test_cli import FAMILY_CASES

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted((ROOT / "src" / "tvbounds").glob("*.py"))
# what may reach a src/ name: src/ itself, the benchmark and the demos, never tests/
READERS = [*SRC_MODULES, *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]


def _references(node) -> Counter:
    """How often each name is read under ``node``, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _symbols(path: Path):
    """(symbol, name, definition) for each name in the module's ``__all__``
    (its top-level definition, None when it is imported) and each non-dunder
    method of a class defined in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    exported = defined.get("__all__")
    for name in ast.literal_eval(exported.value) if exported else ():
        yield f"{path.stem}.{name}", name, defined.get(name)
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                yield f"{path.stem}.{cls.name}.{method.name}", method.name, method


def test_every_public_name_and_method_is_reached_outside_tests():
    reached = Counter()
    for path in READERS:
        reached += _references(ast.parse(path.read_text(encoding="utf-8")))
    symbols = [s for path in SRC_MODULES for s in _symbols(path)]
    assert len(symbols) > 100
    unreached = [
        symbol
        for symbol, name, definition in symbols
        if reached[name] == (_references(definition)[name] if definition else 0)
    ]
    assert unreached == [], f"reached only from tests (move to tests/oracles.py): {unreached}"


def test_every_family_method_runs_under_a_command():
    # the name check above cannot see a method that only tests call when
    # another class has a method of that name: run `certificate` for every
    # --family choice and a small `curve` for every scalar family, and
    # record each function entered
    tree = ast.parse(Path(models.__file__).read_text(encoding="utf-8"))
    methods = {}  # code object -> "Class.method"
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                fn = vars(getattr(models, cls.name))[node.name]
                methods[getattr(fn, "fget", fn).__code__] = f"{cls.name}.{node.name}"
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for family, (params, starts) in FAMILY_CASES.items():
                codes.append(cli.main(["certificate", "--family", family, "--params", json.dumps(params)]))
                if starts is not None:
                    codes.append(cli.main([
                        "curve", "--family", family, "--params", json.dumps(params), "--x0", str(starts[0]),
                        "--x0p", str(starts[1]), "--n-max", "2", "--paths", "1000", "--workers", "1",
                    ]))
        finally:
            sys.setprofile(None)
    assert codes and set(codes) == {0}
    assert len(methods) > 20
    assert sorted(name for code, name in methods.items() if code not in entered) == []
