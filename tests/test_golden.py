"""Golden digests: the SHA-256 of small TV-curve CSVs at fixed seeds, of
each noise law's draws, of the Gibbs full-sweep oracle's output, of
the ``certificate`` JSON of every ``--family`` choice, of the
``dataset-stats`` JSON and of the ``repro`` table and its JSON.

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

from oracles import full_step
from test_cli import FAMILY_CASES
from tvbounds import cli, models, tvlab
from tvbounds.stochastics import ChiSquare, Gamma, InverseGamma, NoiseStream, Normal, sample
from tvbounds.tvlab import simulate_tv_curve

PATHS = 20_000

# family: (model, x0, x0', n_max, bin_width, seed, s20, s20', sha256 of to_csv())
CASES = {
    "ar1": (
        models.ARNormal1D(0.5, math.sqrt(0.75)), 0.0, 1.0, 8, 0.01, 101, None, None,
        "a880be9f547ddffb690afe8a53bdbba0566420622b2eef3e25b388e7ecead8cd",
    ),
    "nonlinear-ar": (
        models.NonlinearAR(), 1.0, 2.0, 8, 0.01, 102, None, None,
        "946fe50377f487c6e1dbfd9a508da01b1b53eb1992689f809e3619a248039839",
    ),
    "larch": (
        models.LARCH(1.0, 0.5, ChiSquare(1)), 0.01, 1.21, 10, 0.01, 103, None, None,
        "6016648a10704d43085e28fc8322ca3691048be862badb64017cef9ae9318ba1",
    ),
    "asym-arch": (
        models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)), 0.0, 5.0, 10, 0.001, 104, None, None,
        "b92601ecfa022e7e45c869402f62ec7f11f3590267b44bc5b007c85467e91df9",
    ),
    "garch": (
        models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)), 0.1, -0.1, 10, 0.01, 105, 0.0001, 0.01,
        "adbfcfe705a837587677a79d723a3d489fa752b2b19457629b8929d10ad6c164",
    ),
    "location-gibbs": (
        models.LocationGibbsTau(31, 295.43741935483877), 1.0, 20.0, 5, 0.05, 106, None, None,
        "dcc0defbb2c5018054c88e8b46a1743556500035408db885a4dc4d14d7c6f50b",
    ),
    "regression-gibbs": (
        models.RegressionGibbsSigma(333, 4, 26123.0), 1.0, 1001.0, 4, 0.05, 107, None, None,
        "c36dc0035c5e2b3bf483c8bd831014744dacef3237dbdb8418c3e492b06ea73d",
    ),
}

# 140_000 paths make two chunks, so the cross-chunk merge is pinned too
TWO_CHUNK_DIGEST = "8e39040cb28c90727021f78ec5674b96bb143763273f45fead55a394ec1a9406"


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
MULTI_CHUNK_DIGEST = "017392dcc1d0d6ce8f4c45fda45095d77a5e5d26eeae88f7c9c48f34ff3085c7"


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_chunk_curve_golden_digest(workers):
    model = models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0))
    curve = simulate_tv_curve(model, 0.0, 5.0, 5, 300_000, 0.001, NoiseStream(109), workers=workers)
    assert _digest(curve) == MULTI_CHUNK_DIGEST


def _record_folds(monkeypatch):
    """Wrap ``tvlab._tally`` to record, for every fold, whether the histogram
    it folds into holds cells yet and whether it takes the sort branch."""
    folds = []
    tally = tvlab._tally

    def recording(cells, lo, hi, tallied_cells, *rest, **kwargs):
        span = hi - lo + 1
        if tallied_cells.size:
            span = max(hi, int(tallied_cells[-1])) - min(lo, int(tallied_cells[0])) + 1
        folds.append((tallied_cells.size > 0, span > tvlab._SPAN_PER_VALUE * (cells.size + tallied_cells.size)))
        return tally(cells, lo, hi, tallied_cells, *rest, **kwargs)

    monkeypatch.setattr(tvlab, "_tally", recording)
    return folds


# the heavy LARCH tail at width 1e-4: from iteration 3 each copy of the full
# first chunk spans more than 8 cells per value, so whichever folds first
# into an iteration's empty histogram sorts, and so do the folds after it
SORT_BRANCH_DIGEST = "18026d7e6df77568e4d7f13ca1484395c3a89d3f44ba1ff641aefe5f53d3f87c"


@pytest.mark.parametrize("workers", [1, 2])
def test_sort_branch_curve_golden_digest(monkeypatch, workers):
    folds = _record_folds(monkeypatch)
    model = models.LARCH(1.0, 0.5, ChiSquare(1))
    curve = simulate_tv_curve(model, 0.01, 1.21, 6, 140_000, 1e-4, NoiseStream(110), workers=workers)
    assert _digest(curve) == SORT_BRANCH_DIGEST
    assert (False, True) in folds and (True, True) in folds  # sorts into an empty and a running histogram


# at width 1e-4 the three chunks (the last one partial) of this LARCH curve
# also fold into non-empty running histograms through the sort branch
SORT_FOLD_DIGEST = "566a2e2c1c1fe2294a63e7f0af68999f4ba168af3b249d7feefe8e480edb5941"


@pytest.mark.parametrize("workers", [1, 2])
def test_sort_branch_fold_golden_digest(monkeypatch, workers):
    folds = _record_folds(monkeypatch)
    model = models.LARCH(1.0, 0.5, ChiSquare(1))
    curve = simulate_tv_curve(model, 0.01, 1.21, 4, 300_000, 1e-4, NoiseStream(111), workers=workers)
    assert _digest(curve) == SORT_FOLD_DIGEST
    assert (True, True) in folds


# family: (model, (beta_tilde1, a_inv_11), sha256 of full_step's reduced value
# then first coordinate, as little-endian float64, from the state grid
# STATE_GRID and NoiseStream(110))
FULL_STEP_CASES = {
    "location-gibbs": (
        models.LocationGibbsTau(31, 295.43741935483877), (13.2484, 1 / 31),
        "b42db564db1bf29de7abb4ae7f5807b8d3a51b4d9f0060884462432ef12cc58e",
    ),
    "regression-gibbs": (
        models.RegressionGibbsSigma(333, 4, 26123.0), (0.5, 0.25),
        "4cd0a6d6d7f1a4dd4474a5ba9d313df61a7bed386bcbaddd34a2aebcb2f06256",
    ),
}
STATE_GRID = np.geomspace(0.5, 2000.0, 1000)


@pytest.mark.parametrize("family", sorted(FULL_STEP_CASES))
def test_full_step_golden_digest(family):
    model, coordinate, expected = FULL_STEP_CASES[family]
    reduced, (first, _) = full_step(model, STATE_GRID, NoiseStream(110), *coordinate)
    assert hashlib.sha256(np.concatenate([reduced, first]).astype("<f8").tobytes()).hexdigest() == expected


# law -> sha256 of 1,000 draws from NoiseStream(112), as little-endian
# float64: pins the generator and each law's sampler at their own layer
SAMPLER_DIGESTS = {
    "normal": (Normal(0.0, 1.0), "e7cd3bd71197499039af67a8e928fac4c242a74b23ab83865cb0e591e43c459c"),
    "chi-square": (ChiSquare(1), "9e77867c59492302730ac94eeedaf0993f3415af8639887c2fb5f29a7d6cdb62"),
    "gamma": (Gamma(3.0, 2.0), "efc216eb5779045c92ff1a0353bce56adf526c4dcd6bb3f694515e1ebc00b1eb"),
    "inverse-gamma": (InverseGamma(16.5, 147.7), "e371b46ee6bc607dfb4e92a64540362d6e58f4b0128f72006e513ee2a380e9a0"),
}


@pytest.mark.parametrize("law", sorted(SAMPLER_DIGESTS))
def test_sampler_golden_digest(law):
    dist, expected = SAMPLER_DIGESTS[law]
    draws = sample(dist, NoiseStream(112).generator(), size=1000)
    assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == expected


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


# positive noise law of LARCH(1, 1/2) -> sha256 of its `certificate` JSON
# text at gap 1: pins the log-scale density height of each law's shape
LARCH_NOISE_DIGESTS = {
    # D = 1/2 * 3/2 = 0.75; height 27 e^-3 / Gamma(3) = 0.672125423
    "gamma": ({"dist": "gamma", "shape": 3.0, "rate": 2.0},
              "e1512b3544bc6147cf26e73f85dad93d0724be6d829e73ce0b14d7067ba2aabd"),
    "inverse-gamma": ({"dist": "inverse-gamma", "shape": 3.0, "rate": 2.0},
                      "e33c69f459b972ce238b5d12cc316cf1600c5eea431628ee7ba40274eeb30c66"),
}


@pytest.mark.parametrize("law", sorted(LARCH_NOISE_DIGESTS))
def test_larch_certificate_json_golden_digest(capsys, law):
    z, expected = LARCH_NOISE_DIGESTS[law]
    params = {"beta0": 1.0, "beta1": 0.5, "z": z, "gap": 1.0}
    assert cli.main(["certificate", "--family", "larch", "--params", json.dumps(params)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


@pytest.mark.parametrize("command", [["certificate"], ["iters", "--epsilon", "0.01"]], ids=["certificate", "iters"])
def test_larch_with_gamma_noise_at_d_exactly_one_exits_2(capsys, command):
    # beta1 E|Z| = 1/2 * 2/1 = 1 exactly: the chain does not contract.  This
    # law had the gamma golden digest while E|Z| rounded to 1.9999999999999996.
    params = {"beta0": 1.0, "beta1": 0.5, "z": {"dist": "gamma", "shape": 2.0, "rate": 1.0}, "gap": 1.0}
    assert cli.main([*command[:1], "--family", "larch", "--params", json.dumps(params), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chain does not contract" in captured.err


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
# with the delay dataset absent; the table is closed form, the same for any seed
REPRO_DIGESTS = {
    "stdout": "63abb4e1a9e309b6a8102ccb3aee7a137b1af64ee103f2f0f3926877497fd0b7",
    "json": "8a41f3a3f592b89e14d2410c9304d6520e9cdc4ffdfbd45f7def7745ca8ff47f",
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
