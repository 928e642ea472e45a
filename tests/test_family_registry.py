"""Each chain family is described once: by its class in ``models``, found
through ``models.FAMILIES``, which also builds its certificate.  Code that
compares a value against a family tag re-describes the family somewhere
else, so no module may do it.

Each noise law is described once in the same way: by its class in
``stochastics``, found through ``stochastics.DISTS``, which owns its
density, moments and support.  Code that tests a law's type re-describes
the law somewhere else, so no module may do it either."""

import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from tvbounds import bounds, cli, models, stochastics

SRC = Path(__file__).resolve().parents[1] / "src" / "tvbounds"
TAGS = set(models.FAMILIES)
LAWS = {cls.__name__ for cls in stochastics.DISTS.values()}


def _string_constants(node) -> list:
    """String literals of a comparison operand (a tuple, list or set of
    literals counts for each of its elements)."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [n.value for n in items if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _tag_comparisons(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        tags = {s for op in operands for s in _string_constants(op)} & TAGS
        found += [f"{path.name}:{node.lineno} compares against {tag!r}" for tag in sorted(tags)]
    return found


def test_no_module_compares_against_a_family_tag():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _tag_comparisons(path)] == []


def test_every_tagged_family_class_is_registered():
    # every record class models defines with a tag, chain or not (ar-d, independent-coordinates)
    tagged = {
        cls.family: cls
        for cls in vars(models).values()
        if isinstance(cls, type) and issubclass(cls, stochastics.Record) and cls.__module__ == models.__name__
        and hasattr(cls, "family")
    }
    assert tagged == models.FAMILIES


def test_scalar_families_draw_through_their_noise_law():
    # Family.draw samples ``z`` through the hooked stochastics.sample, and so
    # does the Gibbs pair's draw on _Gibbs; the vector family does not draw
    assert [tag for tag, cls in models.FAMILIES.items() if "draw" in vars(cls)] == []


def test_the_drift_fit_goes_through_the_sampler(monkeypatch, trees):
    # the benchmark counts and times draws at stochastics.sample; the bits are
    # those of the laws' own draws, as before the hook saw them
    j, _, s = trees
    gibbs = models.LocationGibbsTau(j, s)
    gx, gy = stochastics.NoiseStream(1).generator(), stochastics.NoiseStream(1).generator()
    gibbs.x_law.draw(gy, 10)
    expected_fit = float(((gibbs.x_law.draw(gx, 10) * gibbs.y_law.draw(gy, 10)) ** 2).sum()) / 10
    tags, sample = [], stochastics.sample
    monkeypatch.setattr(stochastics, "sample", lambda dist, *args: tags.append(dist.tag) or sample(dist, *args))
    assert bounds.mc_location_drift_fit(gibbs, stochastics.NoiseStream(1), 10) == expected_fit
    assert tags == ["gamma", "gamma", "inverse-gamma"]


def test_every_scalar_family_steps_into_a_required_out():
    # a family certified in closed form only has no step
    steps = [cls.step for cls in models.FAMILIES.values() if issubclass(cls, models.Family)]
    assert len(steps) == len(models.FAMILIES) - 2
    for fn in (*steps, models.step):
        assert inspect.signature(fn).parameters["out"].default is inspect.Parameter.empty, fn


@pytest.mark.parametrize("record", [models.ARNormalD(0.5 * np.eye(2), np.eye(2)),
                                    models.IndependentCoordinates(0.46, 0.5, 100)], ids=lambda r: r.family)
def test_a_closed_form_family_is_a_certificate_record_with_no_chain_api(record):
    # isinstance(model, Family) is the one test of a chain, and a closed-form
    # family offers no chain method it cannot run
    assert isinstance(record, stochastics.Record) and not isinstance(record, models.Family)
    chain_api = ("draw", "step", "make_state", "start_state", "observable", "state_ndim")
    assert [name for name in chain_api if hasattr(record, name)] == []


def test_every_family_builds_its_own_certificate():
    assert [tag for tag, cls in models.FAMILIES.items() if "certificate" not in vars(cls)] == []


def _law_type_tests(path: Path) -> list:
    """``isinstance`` calls whose class argument names a ``DISTS`` class."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in classes}
        found += [f"{path.name}:{node.lineno} tests for {name}" for name in sorted(names & LAWS)]
    return found


def test_families_and_laws_are_frozen_value_records(capsys):
    law = stochastics.Gamma(2.0, 3.0)
    with pytest.raises(AttributeError):
        law.shape = 1.0
    with pytest.raises(AttributeError):
        del law.rate
    assert repr(law) == "Gamma(shape=2.0, rate=3.0)" and law._fields == ("shape", "rate")
    # equal fields, however bound and with defaults filled: equal records, equal hashes
    same = stochastics.Gamma(rate=3.0, shape=2.0)
    assert law == same and hash(law) == hash(same)
    garch = models.GARCH(0.13, 0.1266, 0.7922)
    assert garch == models.GARCH(0.13, 0.1266, 0.7922, stochastics.Normal(0.0, 1.0))
    assert hash(garch) == hash(models.GARCH(alpha2=0.13, beta2=0.1266, gamma2=0.7922))
    # records of different types differ, whatever their fields
    assert law != stochastics.InverseGamma(2.0, 3.0) and models.NonlinearAR() != bounds.DriftSpec(0.5, 1, 0)
    # ar-d holds arrays, so it compares by identity
    ard = models.ARNormalD(np.eye(2), np.eye(2))
    assert ard == ard and ard != models.ARNormalD(np.eye(2), np.eye(2)) and hash(ard) == object.__hash__(ard)
    # too many arguments, or one given twice, raise TypeError as a call would
    for bad in (lambda: stochastics.Normal(0.0, 1.0, 2.0), lambda: stochastics.Normal(0.0, mu=1.0)):
        with pytest.raises(TypeError):
            bad()
    # a missing or an unknown key of a noise law in --params exits 2 naming it
    # (test_cli covers a family's own keys)
    for z, key in (({"dist": "gamma", "shape": 2}, "rate"), ({"dist": "chi-square", "nu": 1, "mu": 0}, "mu")):
        params = json.dumps({"beta0": 1, "beta1": 0.5, "z": z, "gap": 1})
        code = cli.main(["certificate", "--family", "larch", "--params", params])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "") and key in captured.err, captured.err


def test_no_module_tests_the_type_of_a_noise_law():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _law_type_tests(path)] == []


def test_every_noise_law_describes_itself():
    for tag, cls in stochastics.DISTS.items():
        assert isinstance(cls.positive, bool), tag
        assert "log_density" in vars(cls) and "abs_moment" in vars(cls), tag


def test_every_positive_law_gives_its_log_scale_height():
    # a certificate on the log scale (LARCH) reads sup_x e^x f(e^x) off the law
    assert [tag for tag, cls in stochastics.DISTS.items() if cls.positive and "log_scale_sup" not in vars(cls)] == []


def test_each_certificate_reads_its_validated_family():
    # each family writes its own C and D from its fields, checked once in its
    # __post_init__: models calls no bounds *_certificate constructor, and
    # bounds exports none
    tree = ast.parse((SRC / "models.py").read_text(encoding="utf-8"))
    calls = [
        f"models.py:{node.lineno} calls bounds.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "bounds" and node.func.attr.endswith("_certificate")
    ]
    assert calls == []
    assert [name for name in bounds.__all__ if name.endswith("_certificate")] == []


def _contraction_raises(path: Path) -> list:
    """Each ``raise NoContractionError`` in ``path``, as module:enclosing top-level definition."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc).split(".")[-1] == "NoContractionError":
                    found.append(f"{path.stem}:{getattr(top, 'name', node.lineno)}")
    return found


def test_only_the_certificate_checks_contraction():
    # BoundCertificate is the one gate for D < 1: a family computes D and leaves the check to it
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in _contraction_raises(path)]
    assert hits == ["bounds:BoundCertificate"]


def test_bounds_imports_nothing_from_models():
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert [name for name in names if name.split(".")[-1] == "models"] == []
