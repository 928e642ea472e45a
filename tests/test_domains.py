"""Each record class declares its fields' numeric domains once, in its
``domains`` map, and ``stochastics.Record`` enforces them on every
construction: a value outside a domain raises ParameterError naming
``<Class> <field>``, and the CLI reports it as exit 2."""

import json
import math

import pytest

from tvbounds import bounds, cli, models, stochastics
from tvbounds.errors import ParameterError
from tvbounds.stochastics import finite, finite_nonnegative, finite_positive, integral

# a valid construction of every noise law, every chain family and the
# certificate, as JSON would give it, and the domains each declares
VALID = {
    stochastics.Normal: {"mu": 0.5, "sigma": 2.0},
    stochastics.ChiSquare: {"nu": 3.0},
    stochastics.Gamma: {"shape": 2.0, "rate": 3.0},
    stochastics.InverseGamma: {"shape": 16.5, "rate": 3.0},
    models.NonlinearAR: {},
    models.ARNormal1D: {"a": 0.5, "sigma": 1.0},
    models.ARNormalD: {"a": [[0.5, 0.0], [0.0, 0.5]], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    models.LocationGibbsTau: {"j": 31, "s": 295.4374194},
    models.RegressionGibbsSigma: {"k": 333, "p": 4, "c_stat": 26123.0},
    models.LARCH: {"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}},
    models.AsymARCH: {"a": 0.5, "b": 3.0, "c": 5.0},
    models.GARCH: {"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922},
    bounds.BoundCertificate: {"c": 1.0, "d": 0.5, "n0": 0, "gap": 1.0},
}
DOMAINS = {
    stochastics.Normal: {"mu": finite, "sigma": finite_positive},
    stochastics.ChiSquare: {"nu": finite_positive},
    stochastics.Gamma: {"shape": finite_positive, "rate": finite_positive},
    stochastics.InverseGamma: {"shape": finite_positive, "rate": finite_positive},
    models.NonlinearAR: {},
    models.ARNormal1D: {"a": finite, "sigma": finite_positive},
    models.ARNormalD: {},  # matrices: checked whole in __post_init__
    models.LocationGibbsTau: {"j": integral, "s": finite_positive},
    models.RegressionGibbsSigma: {"k": integral, "p": integral, "c_stat": finite_positive},
    models.LARCH: {"beta0": finite_positive, "beta1": finite_positive},
    models.AsymARCH: {"a": finite, "b": finite, "c": finite},
    models.GARCH: {"alpha2": finite_positive, "beta2": finite_nonnegative, "gamma2": finite_nonnegative},
    bounds.BoundCertificate: {"c": finite_nonnegative, "d": finite, "n0": integral, "gap": finite_nonnegative,
                              "exp_offset": integral, "exp_step": integral},
}
# what each validator rejects beyond NaN, +-inf and a bool
OUTSIDE = {finite: [], finite_positive: [0.0, -1.0], finite_nonnegative: [-1.0], integral: [2.5]}
CASES = [
    pytest.param(cls, field, value, id=f"{cls.__name__}-{field}-{value}")
    for cls, domains in DOMAINS.items()
    for field, check in domains.items()
    for value in [math.nan, math.inf, -math.inf, True, *OUTSIDE[check]]
]


def _build(cls, kwargs):
    if "z" in kwargs:
        kwargs = {**kwargs, "z": stochastics.dist_from_dict(kwargs["z"])}
    return cls(**kwargs)


def test_every_law_family_and_the_certificate_declares_its_domains():
    assert set(VALID) == set(DOMAINS) == {*stochastics.DISTS.values(), *models.FAMILIES.values(),
                                          bounds.BoundCertificate}
    for cls, domains in DOMAINS.items():
        assert cls.domains == domains, cls.__name__
        _build(cls, VALID[cls])


@pytest.mark.parametrize("cls,field,value", CASES)
def test_a_value_outside_its_domain_names_the_class_and_field(cls, field, value):
    with pytest.raises(ParameterError, match=f"^{cls.__name__} {field} must be "):
        _build(cls, {**VALID[cls], field: value})


def _certificate_params(cls, field, value):
    """(family, --params object) passing ``value`` as ``field`` of ``cls``
    through ``certificate --params``, or None where no key reaches the field:
    a law as the asym-arch noise, the certificate's D and gap as the
    independent-coordinates rate and gap."""
    if cls in stochastics.DISTS.values():
        return "asym-arch", {**VALID[models.AsymARCH], "z": {"dist": cls.tag, **VALID[cls], field: value}}
    if cls is bounds.BoundCertificate:
        key = {"d": "rate", "gap": "gap"}.get(field)
        if key is None:
            return None
        return "independent-coordinates", {"amplitude": 0.46, "rate": 0.5, "d": 100, "gap": 1, key: value}
    return cls.family, {**VALID[cls], field: value}


@pytest.mark.parametrize("cls,field,value", [case for case in CASES if _certificate_params(*case.values)])
def test_a_value_outside_its_domain_exits_2_through_certificate_params(capsys, cls, field, value):
    family, params = _certificate_params(cls, field, value)
    code = cli.main(["certificate", "--family", family, "--params", json.dumps(params)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cls.__name__} {field} must be ") and len(err.splitlines()) == 1, err

