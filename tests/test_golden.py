"""Golden digests: the SHA-256 of small TV-curve CSVs at fixed seeds, of
the Gibbs families' ``full_step`` output, of the ``certificate`` JSON of
every ``--family`` choice, of the ``dataset-stats`` JSON and of the
``repro`` table and its JSON.

The other curve tests check self-consistency (reruns, worker counts), so
a silent change to the random bit stream, the binning or the estimator
would pass them.  These digests pin the exact output instead.  A
deliberate change to any of those must regenerate the digests and say
so in CHANGES.md.
"""

import hashlib
import json
import math

import numpy as np
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
        "bc030ea1c320e754b31b9582717498c03608cbfc2a5e829d2599b851a185e10d",
    ),
    "nonlinear-ar": (
        models.NonlinearAR(), 1.0, 2.0, 8, 0.01, 102, None, None,
        "4d81ec3f371b86ebfae23626d58fe5f945de01aee3a67703e6d980256a1335b1",
    ),
    "larch": (
        models.LARCH(1.0, 0.5, ChiSquare(1)), 0.01, 1.21, 10, 0.01, 103, None, None,
        "aec6ff8a4d1392292c2d3ae1b623a32ec1c6340577fc028425dc4960e9f96040",
    ),
    "asym-arch": (
        models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)), 0.0, 5.0, 10, 0.001, 104, None, None,
        "8396de22e63ddf0f525ac79a8efb6aaa2c97adbb6e84ea0b145efefbc8b9ce7e",
    ),
    "garch": (
        models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)), 0.1, -0.1, 10, 0.01, 105, 0.0001, 0.01,
        "56570414ad84fa41b18c84289969b4b81c9f0f2bdb31efe449867e35aec81e1a",
    ),
    "location-gibbs": (
        models.LocationGibbsTau(31, 295.43741935483877), 1.0, 20.0, 5, 0.05, 106, None, None,
        "34201126d6845a7ee5dcd5e5c77919057140fb7069b2a8f37ced16ad2b40b3cd",
    ),
    "regression-gibbs": (
        models.RegressionGibbsSigma(333, 4, 26123.0), 1.0, 1001.0, 4, 0.05, 107, None, None,
        "62c7fa48b8337b6067444c29bbe5af5cdd581b0a61251146fe2e25fa34b67b3a",
    ),
}

# 140_000 paths make two chunks, so the cross-chunk merge is pinned too
TWO_CHUNK_DIGEST = "4ce85a9dc828c19e9b8bac93d0f3d1cf6e52a4616272654edb07ee05a9ff7c63"


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


# 300_000 paths make three chunks, the last one partial; at width 0.001
# each chunk occupies tail cells the others lack, so the merge of cells
# present in only some parts is pinned too
MULTI_CHUNK_DIGEST = "8e337b9cb72ff85a25340a0b3df06dc93af56a61a478ba04204cbf2ab01c6135"


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_chunk_curve_golden_digest(workers):
    model = models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0))
    curve = simulate_tv_curve(model, 0.0, 5.0, 5, 300_000, 0.001, NoiseStream(109), workers=workers)
    assert _digest(curve) == MULTI_CHUNK_DIGEST


# family: (model, sha256 of full_step's reduced value then first coordinate,
# as little-endian float64, from the state grid STATE_GRID and NoiseStream(110))
FULL_STEP_CASES = {
    "location-gibbs": (
        models.LocationGibbsTau(31, 295.43741935483877, 13.2484),
        "6a48191e96f93a9241b423e2163bab513166de9d99484d5c674a30034407c2b8",
    ),
    "regression-gibbs": (
        models.RegressionGibbsSigma(333, 4, 26123.0, 0.5, 0.25),
        "81ee7a141dab436097ff987d6c5e6ce52b1637bb3496910f9e8354416d38e1b1",
    ),
}
STATE_GRID = np.geomspace(0.5, 2000.0, 1000)


@pytest.mark.parametrize("family", sorted(FULL_STEP_CASES))
def test_full_step_golden_digest(family):
    model, expected = FULL_STEP_CASES[family]
    reduced, (first, _) = model.full_step(STATE_GRID, NoiseStream(110))
    assert hashlib.sha256(np.concatenate([reduced, first]).astype("<f8").tobytes()).hexdigest() == expected


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


# sha256 of the `repro --seed 11` table on stdout and of its `--out` JSON,
# Monte-Carlo row included, with the delay dataset absent
REPRO_DIGESTS = {
    "stdout": "c3d8a3ca01c8b2a280d43c9713ae24df28f4562d02535da16a6a27e3def07d2b",
    "json": "cade6f5ee21bafba85a1f34117aa4ebe0104faeb970a160a32015a7a444c641d",
}


def test_repro_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no data/phd-delay.csv here
    monkeypatch.delenv(cli.PHD_DELAY_ENV, raising=False)
    assert cli.main(["repro", "--seed", "11", "--out", "rows.json"]) == 0
    digests = {
        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
        "json": hashlib.sha256((tmp_path / "rows.json").read_bytes()).hexdigest(),
    }
    assert digests == REPRO_DIGESTS
