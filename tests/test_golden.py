"""Golden digests: the SHA-256 of small TV-curve CSVs at fixed seeds, of
the ``certificate`` JSON of every ``--family`` choice and of the
``dataset-stats`` JSON.

The other curve tests check self-consistency (reruns, worker counts), so
a silent change to the random bit stream, the binning or the estimator
would pass them.  These digests pin the exact output instead.  A
deliberate change to any of those must regenerate the digests and say
so in CHANGES.md.
"""

import hashlib
import json
import math

import pytest

from test_cli import FAMILY_CASES
from tvbounds import cli, models
from tvbounds.stochastics import ChiSquare, NoiseStream, Normal
from tvbounds.tvlab import simulate_tv_curve

PATHS = 20_000

# family: (model, x0, x0', n_max, bin_width, seed, s20, s20', sha256 of to_csv())
CASES = {
    "ar1": (
        models.ARNormal1D(0.5, math.sqrt(0.75)), 0.0, 1.0, 8, 0.01, 101, None, None,
        "3477a45538f1757f837a548dc94b37452cf43465e3e0acf062ed9bb9636fc660",
    ),
    "nonlinear-ar": (
        models.NonlinearAR(), 1.0, 2.0, 8, 0.01, 102, None, None,
        "58129c955cade211247cd1f46cdc48fc2e350524ed24e0426fcf6903ce20736c",
    ),
    "larch": (
        models.LARCH(1.0, 0.5, ChiSquare(1)), 0.01, 1.21, 10, 0.01, 103, None, None,
        "013a046250d6335a972e6ac1f14d54e9ef47ccf59dd37e6528b9f7597f292db0",
    ),
    "asym-arch": (
        models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)), 0.0, 5.0, 10, 0.001, 104, None, None,
        "4c277b2c74d8d009f0d9dbdcc3e399c0f9f57fd9435d2bcdd84f583f3da23822",
    ),
    "garch": (
        models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)), 0.1, -0.1, 10, 0.01, 105, 0.0001, 0.01,
        "7f66b88fd7e14aa8d0f2b2cb6d2165417e2e1c8fde010b7d21b0c514068a9b34",
    ),
    "location-gibbs": (
        models.LocationGibbsTau(31, 295.43741935483877), 1.0, 20.0, 5, 0.05, 106, None, None,
        "3519b53599a9f58ed6e5b40570b5f8a2ca8f5ec155d11bf91fbda34def3b4408",
    ),
    "regression-gibbs": (
        models.RegressionGibbsSigma(333, 4, 26123.0), 1.0, 1001.0, 4, 0.05, 107, None, None,
        "ba678a34996cae687706532f7c79d8334aaa57193f2ac481b34e7aa57b089e43",
    ),
}

# 140_000 paths make two chunks, so the cross-chunk merge is pinned too
TWO_CHUNK_DIGEST = "d4d1f8e5c705aa83591293f9a07696fc11ebee9fffdd2eb5800a6a7437ac3eb5"


def _digest(curve) -> str:
    return hashlib.sha256(curve.to_csv().encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(CASES))
def test_curve_csv_golden_digest(family):
    model, x0, x0p, n_max, w, seed, s20, s20p, expected = CASES[family]
    curve = simulate_tv_curve(model, x0, x0p, n_max, PATHS, w, NoiseStream(seed),
                              s20=s20, s20_prime=s20p)
    assert _digest(curve) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_two_chunk_curve_golden_digest(workers):
    model = models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    curve = simulate_tv_curve(model, 0.1, -0.1, 3, 140_000, 0.01, NoiseStream(108),
                              workers=workers, s20=0.0001, s20_prime=0.01)
    assert _digest(curve) == TWO_CHUNK_DIGEST


# --family choice -> sha256 of the `certificate` JSON text for its
# test_cli.FAMILY_CASES parameters
CERTIFICATE_DIGESTS = {
    "ar1": "8c587c4173ce96306aa0c5999153928429185e2ebfdb20d491dabf9081df793a",
    "nonlinear-ar": "f8985021a5c0cc48217e90c44c8b13cd6a22cda5ab9ea122730172b9c725a860",
    "ar-d": "d3801c93ffe8655a15d10f4ea5a29ef81ae2c6fbdffa31488f236b5c80dfee9f",
    "independent-coordinates": "45f54f8a4a41ff2bd4e49e105d906836118c28d30112338937c981091aee87df",
    "location-gibbs": "83e918d8f7fefbd28558f6e202d50da7a973437f3d947ed03b6f509cdbfaead0",
    "regression-gibbs": "0568e03b823c868e17715b91527416e8463d4ce3e4df729205c130278db47bc0",
    "larch": "32c143f3e2e7da2ae60c844f69dbda01223ea5998ba2d5f7ebc7a50148f352da",
    "asym-arch": "c3b7f5daa85f6ab178aa092984ec18d12ba056e3ec294684c4391e066e8c99d4",
    "garch": "6a5a03528de7722207fcf5787e62657e58bce94055b46d793ed36ca48cbad01a",
}


@pytest.mark.parametrize("family", sorted(CERTIFICATE_DIGESTS))
def test_certificate_json_golden_digest(capsys, family):
    params, _ = FAMILY_CASES[family]
    assert cli.main(["certificate", "--family", family, "--params", json.dumps(params)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CERTIFICATE_DIGESTS[family]


def test_certificate_digests_cover_every_family_choice():
    assert set(CERTIFICATE_DIGESTS) == set(FAMILY_CASES)


# dataset -> sha256 of the `dataset-stats` JSON text; "toy" is the
# intercept-only CSV of test_cli.test_dataset_stats_regression_toy
DATASET_STATS_DIGESTS = {
    "trees-girth": "0f243d7877a4e7352a11aecfaaa1b4dc18216e9d5c93c305ff79398793ff8732",
    "toy": "c5b0d3dfeacdbff3030597f326c01064c461e9f9f9ad8cc03068b10063a685a0",
}


@pytest.mark.parametrize("dataset", sorted(DATASET_STATS_DIGESTS))
def test_dataset_stats_json_golden_digest(tmp_path, capsys, dataset):
    if dataset == "toy":
        csv = tmp_path / "toy.csv"
        csv.write_text("y,one\n1.0,1\n2.0,1\n3.0,1\n", encoding="utf-8")
        argv = ["--csv", str(csv), "--y-column", "y", "--x-columns", "one", "--prior-lambda", "1e-12"]
    else:
        argv = ["--builtin", dataset]
    assert cli.main(["dataset-stats", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DATASET_STATS_DIGESTS[dataset]
