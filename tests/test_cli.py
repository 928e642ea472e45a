import json
import math

import numpy as np
import pytest

from tvbounds.cli import main, reproduction_rows

GARCH_PARAMS = json.dumps(
    {"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922, "z": {"dist": "normal", "mu": 0, "sigma": 1}}
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certificate_ar1(capsys):
    code, out, _ = run(
        capsys, "certificate", "--family", "ar1", "--a", "0.5", "--sigma", "0.8660254037844386", "--gap", "1"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["D"] == 0.5
    assert cert["C"] == pytest.approx(math.sqrt(2 / (3 * math.pi)), rel=1e-8)


def test_certificate_garch_reference_values(capsys):
    code, out, _ = run(
        capsys, "certificate", "--family", "garch", "--params", GARCH_PARAMS,
        "--x0", "0.1", "--x0p", "-0.1", "--s20", "0.0001", "--s20p", "0.01",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["details"]["coefficient"] == pytest.approx(0.2456, abs=5e-4)
    assert cert["D"] == pytest.approx(math.sqrt(0.9188), rel=1e-8)


def test_certificate_zero_gap(capsys):
    code, out, _ = run(capsys, "certificate", "--family", "ar1", "--a", "0.5", "--sigma", "1.0", "--gap", "0")
    assert code == 0
    assert json.loads(out)["gap"] == 0.0


def test_certificate_missing_parameter_exits_2(capsys):
    code, _, err = run(capsys, "certificate", "--family", "ar1", "--a", "0.5")
    assert code == 2
    assert err.startswith("error:")


def test_certificate_no_contraction_exits_2(capsys):
    code, _, err = run(capsys, "certificate", "--family", "ar1", "--a", "1.5", "--sigma", "1.0", "--gap", "1")
    assert code == 2
    assert "contract" in err


def test_iters_location(capsys, trees):
    j, _, s = trees
    code, out, _ = run(
        capsys, "iters", "--family", "location-gibbs",
        "--params", json.dumps({"j": j, "s": s}), "--gap", "18.12198", "--epsilon", "0.01",
    )
    assert code == 0
    assert out.strip() == "4"


def test_iters_garch(capsys):
    code, out, _ = run(
        capsys, "iters", "--family", "garch", "--params", GARCH_PARAMS,
        "--x0", "0.1", "--x0p", "-0.1", "--s20", "0.0001", "--s20p", "0.01", "--epsilon", "0.01",
    )
    assert code == 0
    assert out.strip() == "77"


def test_iters_general_vector_ar_from_params_file(tmp_path, capsys):
    d = 100
    a = (
        np.diag(np.full(d, 0.5))
        + np.diag(np.full(d - 1, 0.125), 1)
        + np.diag(np.full(d - 1, 0.125), -1)
    )
    pf = tmp_path / "ar100.json"
    pf.write_text(
        json.dumps({"a": a.tolist(), "sigma": a.tolist(), "x0": [1.0] * d, "x0p": [0.0] * d}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "iters", "--family", "ar-d", "--params-file", str(pf), "--epsilon", "0.01")
    assert code == 0
    assert out.strip() == "56"


def test_curve_larch_has_bound_column(tmp_path, capsys):
    out = tmp_path / "larch.csv"
    code, _, _ = run(
        capsys, "curve", "--family", "larch",
        "--params", json.dumps({"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}}),
        "--x0", "0.01", "--x0p", "1.21", "--n-max", "4", "--paths", "20000",
        "--bin-width", "0.01", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    # bound column populated and geometric with rate 1/2
    bounds_col = [float(r[1]) for r in rows]
    assert bounds_col[0] == pytest.approx(0.120985362 * 1.2, rel=1e-6)
    # CSV values carry 9 significant digits
    for a, b in zip(bounds_col, bounds_col[1:]):
        assert b == pytest.approx(a / 2, rel=1e-7)


def test_iters_independent_coordinates(capsys):
    code, out, _ = run(
        capsys, "iters", "--family", "independent-coordinates",
        "--params", json.dumps({"amplitude": math.sqrt(2 / (3 * math.pi)), "rate": 0.5, "d": 100, "gap": 1.0}),
        "--epsilon", "0.01",
    )
    assert code == 0
    assert out.strip() == "13"


def test_curve_writes_csv_and_is_worker_invariant(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = [
        "curve", "--family", "ar1", "--params", json.dumps({"a": 0.5, "sigma": math.sqrt(0.75)}),
        "--x0", "0", "--x0p", "1", "--n-max", "3", "--paths", "140000",
        "--bin-width", "0.01", "--seed", "42",
    ]
    code1, _, _ = run(capsys, *base, "--workers", "1", "--out", str(out1))
    code2, _, _ = run(capsys, *base, "--workers", "3", "--out", str(out2))
    assert code1 == code2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "n,bound,bound_clamped,tv_sim,tv_exact,mc_se"


def test_curve_invalid_initial_state_exits_2(capsys, trees):
    j, _, s = trees
    code, _, err = run(
        capsys, "curve", "--family", "location-gibbs",
        "--params", json.dumps({"j": j, "s": s}),
        "--x0", "-1", "--x0p", "2", "--n-max", "2", "--paths", "100", "--seed", "1",
    )
    assert code == 2
    assert err.startswith("error:")


def test_curve_single_path_exits_zero(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, _, _ = run(
        capsys, "curve", "--family", "ar1", "--params", json.dumps({"a": 0.5, "sigma": 1.0}),
        "--x0", "0", "--x0p", "1", "--n-max", "2", "--paths", "1", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_curve_diverging_chain_exits_3(capsys):
    code, out, err = run(
        capsys, "curve", "--family", "ar1", "--a", "3", "--sigma", "1",
        "--x0", "0", "--x0p", "1", "--n-max", "40", "--paths", "2000",
    )
    assert code == 3
    assert out == ""
    assert "diverged at iteration" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ONESHOT_SEED", "4242")
    out1 = tmp_path / "env.csv"
    out2 = tmp_path / "flag.csv"
    base = [
        "curve", "--family", "ar1", "--params", json.dumps({"a": 0.5, "sigma": 1.0}),
        "--x0", "0", "--x0p", "1", "--n-max", "2", "--paths", "5000",
    ]
    assert run(capsys, *base, "--out", str(out1))[0] == 0
    assert run(capsys, *base, "--seed", "4242", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dataset_stats_builtin(capsys):
    code, out, _ = run(capsys, "dataset-stats", "--builtin", "trees-girth")
    assert code == 0
    stats = json.loads(out)
    assert stats["J"] == 31
    assert stats["certificate_constants"]["K_closed_form"] == pytest.approx(13.74027, abs=0.01)


def test_dataset_stats_regression_toy(tmp_path, capsys):
    p = tmp_path / "toy.csv"
    p.write_text("y,one\n1.0,1\n2.0,1\n3.0,1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "dataset-stats", "--csv", str(p), "--y-column", "y",
        "--x-columns", "one", "--prior-lambda", "1e-12",
    )
    assert code == 0
    stats = json.loads(out)
    # intercept-only design: C equals the centered sum of squares
    assert stats["C_stat"] == pytest.approx(2.0, abs=1e-6)


def test_dataset_stats_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "dataset-stats", "--csv", "/no/such/file.csv", "--y-column", "y")
    assert code == 2
    assert err.startswith("error:")


def test_repro_rows_and_verdicts(capsys):
    rows = reproduction_rows(seed=1, skip_mc=True)
    verdicts = {r["name"]: r["verdict"] for r in rows}
    assert not [n for n, v in verdicts.items() if v == "MISMATCH"]
    flagged = [n for n, v in verdicts.items() if v == "FLAG"]
    assert any("drift lambda" in n for n in flagged)
    assert any("LARCH first n" in n for n in flagged)
    assert any("stationary-gap" in n for n in flagged)


def test_repro_command_exits_zero(capsys, tmp_path):
    out = tmp_path / "repro.json"
    code, text, _ = run(capsys, "repro", "--skip-mc", "--out", str(out))
    assert code == 0
    assert "verdict" in text
    assert json.loads(out.read_text())


def test_repro_writes_comparison_curves(capsys, tmp_path):
    curves = tmp_path / "curves"
    code, _, _ = run(
        capsys, "repro", "--skip-mc", "--seed", "5", "--curves", str(curves), "--paths", "5000"
    )
    assert code == 0
    written = sorted(p.name for p in curves.glob("*.csv"))
    assert written == [
        "curve-ar1.csv",
        "curve-asym-arch.csv",
        "curve-garch.csv",
        "curve-larch-squared.csv",
    ]
    header = (curves / "curve-ar1.csv").read_text().splitlines()[0]
    assert header == "n,bound,bound_clamped,tv_sim,tv_exact,mc_se"
