import numpy as np
import pytest

from tvbounds import data
from tvbounds.bounds import BoundCertificate
from tvbounds.stochastics import NoiseStream


@pytest.fixture
def stream():
    return NoiseStream(20260809)


@pytest.fixture(scope="session")
def trees():
    """(J, y_bar, S) of the embedded girth sample."""
    return data.location_stats(data.builtin_dataset("trees-girth"))


@pytest.fixture
def rng():
    return np.random.default_rng(991)


def _certificate_from_dict(d: dict) -> BoundCertificate:
    """The certificate that ``bounds.certificate_to_dict`` wrote as ``d``;
    the round-trip tests use it to check that the JSON form loses no field."""
    exp = d.get("exponent", {})
    return BoundCertificate(
        c=d["C"],
        d=d["D"],
        n0=d["n0"],
        gap=d["gap"],
        family=d["family"],
        notes=tuple(d["notes"]),
        exp_offset=exp.get("offset", 0),
        exp_step=exp.get("step", 1),
        details=d.get("details", {}),
    )
