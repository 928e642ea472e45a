import argparse
import json
import math
import re

import numpy as np
import pytest

from tvbounds import cli, models, tvlab
from tvbounds.cli import build_certificate, main, reproduction_rows
from tvbounds.errors import DomainError, IngestionError, NoContractionError, ParameterError, SimulationError, StateError
from tvbounds.stochastics import NoiseStream

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


def test_iters_out_writes_the_count_to_the_file(tmp_path, capsys):
    out = tmp_path / "it.txt"
    argv = ["iters", "--family", "ar1", "--a", "0.5", "--sigma", "1", "--gap", "1", "--epsilon", "0.01"]
    assert run(capsys, *argv) == (0, "7\n", "")
    assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text(encoding="utf-8") == "7\n"


def test_iters_survives_a_gap_whose_product_with_c_overflows(capsys):
    # C * gap = inf, but log C + log gap is finite: bound_eval first drops
    # below 0.01 at n = 1033
    argv = ["iters", "--family", "ar1", "--a", "0.5", "--sigma", "0.1", "--gap", "1e308", "--epsilon", "0.01"]
    assert run(capsys, *argv) == (0, "1033\n", "")


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


@pytest.mark.parametrize("command", [["certificate"], ["iters", "--epsilon", "0.01"]])
def test_independent_coordinates_without_gap_exits_2(capsys, command):
    # no gap and no starts to default it from
    params = {"amplitude": math.sqrt(2 / (3 * math.pi)), "rate": 0.5, "d": 100}
    code, out, err = run(capsys, command[0], "--family", "independent-coordinates", "--params", json.dumps(params),
                         *command[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "gap" in err


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


def test_seed_is_read_from_no_environment_variable(tmp_path, capsys, monkeypatch):
    # --seed is the one way to set a seed: ONESHOT_SEED, once its fallback, changes nothing
    out1 = tmp_path / "plain.csv"
    out2 = tmp_path / "env.csv"
    base = [
        "curve", "--family", "ar1", "--params", json.dumps({"a": 0.5, "sigma": 1.0}),
        "--x0", "0", "--x0p", "1", "--n-max", "2", "--paths", "5000", "--workers", "1",
    ]
    monkeypatch.delenv("ONESHOT_SEED", raising=False)
    assert run(capsys, *base, "--out", str(out1))[0] == 0
    monkeypatch.setenv("ONESHOT_SEED", "4242")
    assert run(capsys, *base, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "--family", "ar1", "--a", "0.5", "--sigma", "1", "--gap", "1"],
        ["iters", "--family", "ar1", "--a", "0.5", "--sigma", "1", "--gap", "1", "--epsilon", "0.01"],
        ["dataset-stats", "--builtin", "trees-girth"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_taken_only_by_commands_that_draw(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "3"])
    assert exc.value.code == 2


def test_dataset_stats_builtin(capsys):
    code, out, _ = run(capsys, "dataset-stats", "--builtin", "trees-girth")
    assert code == 0
    stats = json.loads(out)
    assert stats["J"] == 31
    assert stats["certificate_constants"]["K_closed_form"] == pytest.approx(13.74027, abs=0.01)


@pytest.mark.parametrize("text,flags", [
    pytest.param("y\n1.0\n2.5\n4.0\n3.0\n", [], id="location"),
    pytest.param("y,one\n1.0,1\n2.0,1\n3.0,1\n", ["--x-columns", "one", "--prior-lambda", "1"], id="regression"),
])
def test_dataset_stats_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys, text, flags):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, which must not become part of the first header
    outs = []
    for name, bom in (("plain.csv", ""), ("bom.csv", "\ufeff")):
        (tmp_path / name).write_text(bom + text, encoding="utf-8")
        code, out, err = run(capsys, "dataset-stats", "--csv", str(tmp_path / name), "--y-column", "y", *flags)
        assert code == 0 and err == "", err
        outs.append(out)
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("flag,value", [
    ("--csv", "/nonexistent.csv"), ("--y-column", "nope"), ("--x-columns", "a,b"), ("--prior-lambda", "-3"),
])
def test_dataset_stats_builtin_rejects_the_csv_flags(capsys, flag, value):
    # the builtin dataset would otherwise be read with the flag ignored
    code, out, err = run(capsys, "dataset-stats", "--builtin", "trees-girth", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: --builtin takes no {flag}\n"


def test_dataset_stats_location_csv_rejects_prior_lambda(tmp_path, capsys):
    # a location dataset has no prior: the flag was dropped with exit 0
    p = tmp_path / "loc.csv"
    p.write_text("y\n1.0\n2.0\n4.0\n", encoding="utf-8")
    code, out, err = run(capsys, "dataset-stats", "--csv", str(p), "--y-column", "y", "--prior-lambda", "-3")
    assert code == 2 and out == ""
    assert err == "error: location data (no x_columns) takes no prior precision (prior_lambda)\n"


def test_dataset_stats_rejects_an_infinite_prior_lambda(tmp_path, capsys):
    # an infinite prior precision was reported as a rank-deficient design matrix
    p = tmp_path / "toy.csv"
    p.write_text("y,one\n1.0,1\n2.0,1\n3.0,1\n", encoding="utf-8")
    code, out, err = run(capsys, "dataset-stats", "--csv", str(p), "--y-column", "y", "--x-columns", "one",
                         "--prior-lambda", "inf")
    assert code == 2 and out == ""
    assert err == "error: RegressionData prior_lambda must be finite and > 0, got inf\n"


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
    # each CSV is what `curve` writes for that chain on stream 9000 + its sorted index
    for i, (stem, cfg) in enumerate(sorted(cli.FIGURE_CURVES.items())):
        starts = [arg for key in cli.START_KEYS if key in cfg for arg in (f"--{key}", str(cfg[key]))]
        out = tmp_path / f"{stem}.csv"
        code, _, _ = run(
            capsys, "curve", "--family", cfg["family"], "--params", json.dumps(cfg["params"]), *starts,
            "--n-max", str(cfg["n_max"]), "--paths", "5000", "--seed", "5", "--stream-id", str(9000 + i),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (curves / f"{stem}.csv").read_bytes(), stem


def test_repro_curves_simulation_failure_exits_3(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise SimulationError("chain diverged at iteration 1")

    monkeypatch.setattr(tvlab, "simulate_tv_curve", diverge)
    code, _, err = run(capsys, "repro", "--skip-mc", "--curves", str(tmp_path / "curves"), "--paths", "10")
    assert code == 3
    assert err == "error: simulation failed: chain diverged at iteration 1\n"


# one run of every subcommand, all but the --out flag
OUT_CASES = {
    "certificate": ["--family", "ar1", "--a", "0.5", "--sigma", "1", "--gap", "1"],
    "iters": ["--family", "ar1", "--a", "0.5", "--sigma", "1", "--gap", "1", "--epsilon", "0.01"],
    "curve": ["--family", "ar1", "--a", "0.5", "--sigma", "1", "--x0", "0", "--x0p", "1", "--n-max", "1",
              "--paths", "100", "--seed", "1"],
    "dataset-stats": ["--builtin", "trees-girth"],
    "repro": ["--skip-mc"],
}


def test_out_cases_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(OUT_CASES) == set(sub.choices)


def test_family_choices_are_the_registry_in_its_order():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("certificate", "iters", "curve"):
        family = next(a for a in sub.choices[command]._actions if a.dest == "family")
        assert tuple(family.choices) == tuple(models.FAMILIES), command
    with pytest.raises(ParameterError, match=rf"\(choose from {', '.join(models.FAMILIES)}\)$"):
        build_certificate("brownian", {})


@pytest.mark.parametrize("command", sorted(OUT_CASES))
def test_out_in_a_missing_directory_exits_2_before_any_output(tmp_path, capsys, command):
    # repro would otherwise print its whole table before failing to open the file
    code, out, err = run(capsys, command, *OUT_CASES[command], "--out", str(tmp_path / "missing" / "out.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "missing" in err, err
    assert not (tmp_path / "missing").exists()


def test_repro_curves_on_a_regular_file_exits_2_before_the_table(tmp_path, capsys):
    existing = tmp_path / "curves"
    existing.write_text("keep\n", encoding="utf-8")
    code, out, err = run(capsys, "repro", "--skip-mc", "--curves", str(existing), "--paths", "10")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert existing.read_text(encoding="utf-8") == "keep\n"


# --family choice -> (certificate parameters, curve start points x0, x0');
# no start points where the family has no scalar chain, so `curve` exits 2
FAMILY_CASES = {
    "ar1": ({"a": 0.5, "sigma": math.sqrt(0.75), "gap": 1.0}, (0.0, 1.0)),
    "nonlinear-ar": ({"gap": 1.0}, (1.0, 2.0)),
    "ar-d": ({"a": [[0.5, 0.125], [0.125, 0.5]], "sigma": [[1.0, 0.0], [0.0, 1.0]],
              "x0": [1.0, 1.0], "x0p": [0.0, 0.0]}, None),
    "independent-coordinates": ({"amplitude": math.sqrt(2 / (3 * math.pi)), "rate": 0.5, "d": 100, "gap": 1.0},
                                None),
    "location-gibbs": ({"j": 31, "s": 295.43741935483877, "gap": 18.12198}, (1.0, 20.0)),
    "regression-gibbs": ({"k": 333, "p": 4, "c_stat": 26123.0, "gap": 1000.0}, (1.0, 1001.0)),
    "larch": ({"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}, "gap": 1.2}, (0.01, 1.21)),
    "asym-arch": ({"a": 0.5, "b": 3.0, "c": 5.0, "gap": 5.0}, (0.0, 5.0)),
    "garch": ({"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922, "x0": 0.1, "x0p": -0.1,
               "s20": 0.0001, "s20p": 0.01}, (0.1, -0.1)),
}


def test_every_family_choice_builds_a_certificate_and_a_curve(capsys):
    assert set(FAMILY_CASES) == set(models.FAMILIES)
    for family, (params, starts) in FAMILY_CASES.items():
        code, out, err = run(capsys, "certificate", "--family", family, "--params", json.dumps(params))
        assert code == 0, (family, err)
        assert 0 <= json.loads(out)["D"] < 1, family
        x0, x0p = starts or (0.0, 1.0)
        code, out, err = run(
            capsys, "curve", "--family", family, "--params", json.dumps(params), "--x0", str(x0), "--x0p", str(x0p),
            "--n-max", "3", "--paths", "2000", "--seed", "1", "--workers", "1",
        )
        if starts is None:
            assert code == 2 and err.startswith("error:"), (family, err)
        else:
            assert code == 0, (family, err)
            assert len(out.splitlines()) == 4, family


AR_D = {"a": [[0.5, 0.125], [0.125, 0.5]], "sigma": [[1.0, 0.0], [0.0, 1.0]], "x0": [1.0, 1.0], "x0p": [0.0, 0.0]}
ASYM_GAMMA_100 = {"a": 0.005, "b": 3.0, "c": 5.0, "z": {"dist": "gamma", "shape": 100, "rate": 1}, "jensen": False}
# E|Z| = 0.4 exists and E Z^2 does not
ASYM_INV_GAMMA_15 = {"a": 0.5, "b": 3, "c": 5, "z": {"dist": "inverse-gamma", "shape": 1.5, "rate": 0.2}, "gap": 5}


def test_asym_arch_exact_rate_needs_no_second_moment(capsys):
    # D = |a| E|Z| = 0.2 and C = |a|/|c| = 0.1 (log_scale_sup 0.46 <= 2); the
    # certificate exited 2 on the Jensen relaxation's missing E Z^2
    params = json.dumps({**ASYM_INV_GAMMA_15, "jensen": False})
    code, out, err = run(capsys, "certificate", "--family", "asym-arch", "--params", params)
    assert code == 0, err
    cert = json.loads(out)
    assert (cert["C"], cert["D"], cert["details"]) == (0.1, 0.2, {"d_exact": 0.2})


# `curve` takes every chain family, `certificate` and `iters` every --family
# choice; the curve cases keep their bare family ids.  The Gibbs families do
# not take the full sweep's coordinates, which no output reads
UNKNOWN_KEY_CASES = [pytest.param("curve", family, "bogus", id=family) for family in sorted(models.FAMILIES)] + [
    pytest.param(command, family, "bogus", id=f"{command}-{family}")
    for command in ("certificate", "iters")
    for family in sorted(models.FAMILIES)
] + [
    pytest.param(command, family, key, id=f"{command}-{family}-{key}")
    for command in ("curve", "certificate", "iters")
    for family, key in (("location-gibbs", "y_bar"), ("regression-gibbs", "beta_tilde1"),
                        ("regression-gibbs", "a_inv_11"))
]


@pytest.mark.parametrize("command,family,key", UNKNOWN_KEY_CASES)
def test_curve_rejects_unknown_model_key(capsys, command, family, key):
    params, starts = FAMILY_CASES[family]
    x0, x0p = starts or (0.0, 1.0)
    extra = {
        "curve": ["--x0", str(x0), "--x0p", str(x0p), "--n-max", "1", "--paths", "100", "--seed", "1"],
        "certificate": [],
        "iters": ["--epsilon", "0.01"],
    }[command]
    code, out, err = run(
        capsys, command, "--family", family, "--params", json.dumps({**params, key: 3}), *extra
    )
    assert code == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize("command,family,params", [
    ("certificate", "ar1", {"a": 0.5, "sigma": 0, "gap": 1}),
    ("certificate", "ar1", {"a": 0.5, "sigma": -1.0, "gap": 1}),
    ("certificate", "location-gibbs", {"j": 31.7, "s": 295.0, "gap": 1}),
    ("iters", "regression-gibbs", {"k": 333, "p": 4.5, "c_stat": 26123.0, "gap": 1}),
    ("certificate", "independent-coordinates", {"amplitude": 0.46, "rate": 0.5, "d": 100.5, "gap": 1}),
    ("certificate", "larch", {"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}, "m": 1.9,
                              "gap": 1}),
    ("certificate", "asym-arch", {"a": 0.5, "b": 3.0, "c": 5.0, "jensen": "no", "gap": 1}),
    ("curve", "location-gibbs", {"j": 31, "s": 0}),
    ("certificate", "ar1", {"a": "0.5", "sigma": 1, "gap": 1}),
    ("certificate", "ar1", {"a": 0.5, "sigma": 1e-320, "gap": 1}),
    ("iters", "ar1", {"a": 0.5, "sigma": 1, "gap": math.inf}),
    ("certificate", "ar1", {"a": 0.5, "sigma": True, "gap": 1}),
    ("curve", "asym-arch", {"a": "0.5", "b": 3.0, "c": 5.0}),
    ("certificate", "asym-arch", {"a": 0.5, "b": True, "c": 5.0, "gap": 1}),
    ("certificate", "larch", {"beta0": True, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}, "gap": 1}),
    ("iters", "garch", {"alpha2": True, "beta2": 0.1266, "gamma2": 0.7922, "x0": 0.1, "x0p": -0.1,
                        "s20": 0.0001, "s20p": 0.01}),
    ("certificate", "location-gibbs", {"j": 31, "s": True, "gap": 1}),
    ("certificate", "regression-gibbs", {"k": 333, "p": 4, "c_stat": True, "gap": 1}),
    ("certificate", "ar-d", {**AR_D, "a": [[0.5, 0.2], [0.0, 0.5]]}),
    ("certificate", "ar-d", {**AR_D, "a": [[0.5, 0.1]]}),
    ("certificate", "ar-d", {**AR_D, "a": [[0.5, math.nan], [math.nan, 0.5]]}),
    ("certificate", "ar-d", {**AR_D, "sigma": [[1.0, 2.0], [2.0, 4.0]]}),
    ("certificate", "ar-d", {**AR_D, "sigma": [[1.0, 0.0], [0.0, 1e-13]]}),
    ("certificate", "ar-d", {**AR_D, "x0": [1, 2, 3], "x0p": [0, 0, 0]}),
    ("certificate", "ar-d", {**AR_D, "x0": 1, "x0p": 0}),
    # C = |a|/|c| needs a log|Z| density no higher than 2: Gamma(100, 1) peaks at 3.99, and from
    # 400 vs 400.01 its exact TV_1/dist is 0.00199 against C = 0.001
    ("certificate", "asym-arch", {**ASYM_GAMMA_100, "gap": 1}),
    ("iters", "asym-arch", {**ASYM_GAMMA_100, "gap": 1}),
    # Gamma(1e20, 1e20) peaks at sqrt(1e20 / (2 pi)) = 3.99e9, which a^a e^-a / Gamma(a) cancelled to 1
    ("certificate", "asym-arch", {"a": 0.5, "b": 3, "c": 5, "z": {"dist": "gamma", "shape": 1e20, "rate": 1e20},
                                  "gap": 1}),
    ("certificate", "asym-arch", {"a": 0.5, "b": 3.0, "c": 5.0, "z": {"dist": "normal", "mu": 0.5, "sigma": 1.0},
                                  "gap": 1}),
    ("certificate", "asym-arch", {**ASYM_INV_GAMMA_15, "jensen": True}),  # the Jensen D needs E Z^2
    # a float overflow in a certificate formula: x0^2, and E Z^2 = sigma^2
    ("certificate", "garch", {"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922, "x0": 1e200, "x0p": 0,
                              "s20": 1, "s20p": 1}),
    ("certificate", "asym-arch", {"a": 0.5, "b": 3, "c": 5, "z": {"dist": "normal", "mu": 0, "sigma": 1e200},
                                  "gap": 1}),
])
def test_parameter_outside_the_family_domain_exits_2(capsys, command, family, params):
    extra = {"certificate": [], "iters": ["--epsilon", "0.01"],
             "curve": ["--x0", "1", "--x0p", "2", "--n-max", "1", "--paths", "100"]}[command]
    code, out, err = run(capsys, command, "--family", family, "--params", json.dumps(params), *extra)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and "no bound column" not in err


@pytest.mark.parametrize("command,family,params,named", [
    ("certificate", "independent-coordinates", {"amplitude": True, "rate": False, "d": 100, "gap": True}, "True"),
    ("certificate", "independent-coordinates", {"amplitude": 0.46, "rate": False, "d": 100, "gap": 1}, "False"),
    ("iters", "independent-coordinates", {"amplitude": 0.46, "rate": "0.5", "d": 100, "gap": 1}, "'0.5'"),
    ("certificate", "independent-coordinates", {"amplitude": 0.46, "rate": 0.5, "d": 100, "gap": True}, "True"),
    ("certificate", "ar1", {"a": 0.5, "sigma": 1, "gap": True}, "True"),
    ("iters", "ar1", {"a": 0.5, "sigma": 1, "gap": "1"}, "'1'"),
    ("certificate", "garch", {**FAMILY_CASES["garch"][0], "x0": True}, "True"),
    ("certificate", "garch", {**FAMILY_CASES["garch"][0], "s20": True}, "True"),
    ("certificate", "garch", {**FAMILY_CASES["garch"][0], "s20": "a"}, "'a'"),
    ("certificate", "ar-d", {**AR_D, "x0": [True, 0]}, "[True, 0]"),
    ("certificate", "ar-d", {**AR_D, "x0": [math.nan, 0]}, "[nan, 0]"),
    ("certificate", "nonlinear-ar", {"d_squared": "0.5", "gap": 1}, "'0.5'"),
])
def test_certificate_key_that_is_not_a_number_exits_2(capsys, command, family, params, named):
    # certificate keys and starts are not model fields, so the certificate
    # and the start check reject bools, strings and non-finite values
    extra = ["--epsilon", "0.01"] if command == "iters" else []
    code, out, err = run(capsys, command, "--family", family, "--params", json.dumps(params), *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and f"got {named}" in err, err


CURVE_AR1 = ["curve", "--family", "ar1", "--a", "0.5", "--sigma", "1", "--x0p", "1", "--n-max", "1", "--paths", "100"]
CURVE_GARCH = ["curve", "--family", "garch", "--params", GARCH_PARAMS, "--x0", "0.1", "--x0p", "-0.1",
               "--s20p", "0.01", "--n-max", "1", "--paths", "100"]


def test_curve_reports_only_simulation_errors_as_failures(monkeypatch):
    # a bug inside the simulation propagates; only SimulationError exits 3
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(tvlab, "simulate_tv_curve", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        main([*CURVE_AR1, "--x0", "0"])


def test_curve_paths_of_2_31_exit_2_before_any_job(monkeypatch, capsys):
    # each copy's count in a histogram cell must stay below 2**31
    def no_job(*args, **kwargs):
        raise AssertionError("a chunk job ran")

    monkeypatch.setattr(NoiseStream, "substream", no_job)
    code, out, err = run(capsys, *CURVE_AR1[:-1], "2147483648", "--x0", "0")
    assert code == 2 and out == ""
    assert "n_paths < 2**31" in err


def test_repro_rejects_paths_below_1_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value itself
        main(["repro", "--skip-mc", "--paths", "0", "--curves", "curves", "--out", "rows.json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "rows.json").exists() and not (tmp_path / "curves").exists()


X0_NOT_A_NUMBER = json.dumps({"a": 0.5, "sigma": 1, "x0": "abc", "x0p": 1})


@pytest.mark.parametrize("argv", [
    pytest.param([*CURVE_AR1, "--x0", "nan"], id="x0-nan"),
    pytest.param([*CURVE_AR1, "--x0", "inf"], id="x0-inf"),
    pytest.param([*CURVE_GARCH, "--s20", "nan"], id="s20-nan"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--seed", "-5"], id="seed-negative"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--stream-id", "-1"], id="stream-id-negative"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--workers", "0"], id="curve-workers-0"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--workers", "-3"], id="curve-workers-negative"),
    pytest.param(["repro", "--skip-mc", "--workers", "0"], id="repro-workers-0"),
    pytest.param(["repro", "--skip-mc", "--workers", "-3"], id="repro-workers-negative"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--bin-width", "inf"], id="bin-width-inf"),
    pytest.param(["curve", "--family", "ar1", "--params", X0_NOT_A_NUMBER, "--paths", "10", "--n-max", "1"],
                 id="curve-x0-not-a-number"),
    pytest.param(["certificate", "--family", "ar1", "--params", X0_NOT_A_NUMBER], id="certificate-x0-not-a-number"),
    pytest.param(["iters", "--family", "ar1", "--params", X0_NOT_A_NUMBER, "--epsilon", "0.5"],
                 id="iters-x0-not-a-number"),
    pytest.param(["curve", "--family", "asym-arch", "--params", json.dumps({"a": "0.5", "b": 3, "c": 5}),
                  "--x0", "0", "--x0p", "1", "--no-bound", "--paths", "100", "--n-max", "1"],
                 id="curve-coefficient-not-a-number"),
    pytest.param(["curve", "--family", "ar1", "--params", json.dumps({"a": 0.5, "sigma": 1, "x0": True, "x0p": 1}),
                  "--paths", "10", "--n-max", "1"], id="curve-x0-true"),
    pytest.param(["iters", "--family", "ar1", "--params",
                  json.dumps({"a": 0.5, "sigma": 1, "x0": False, "x0p": True}), "--epsilon", "0.01"],
                 id="iters-starts-bool"),
    pytest.param(["certificate", "--family", "larch", "--params",
                  json.dumps({"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": True}, "gap": 1})],
                 id="certificate-noise-nu-true"),
    pytest.param(["certificate", "--family", "asym-arch", "--params",
                  json.dumps({"a": 0.5, "b": 3.0, "c": 5.0, "z": {"dist": "normal", "mu": False, "sigma": True},
                              "gap": 1})], id="certificate-noise-mu-sigma-bool"),
])
def test_bad_run_input_exits_2_before_simulating(capsys, argv):
    # a started chunk would fail on a non-finite state or a bad stream with exit 3
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2, err
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["--params", "[1, 2]"], id="params-array"),
    pytest.param(["--params", '"x"'], id="params-string"),
    pytest.param(["--params-file", "pairs.json"], id="params-file-pairs"),
])
def test_params_must_be_a_json_object(tmp_path, monkeypatch, capsys, argv):
    # a file of [key, value] pairs would otherwise be read as a dict
    (tmp_path / "pairs.json").write_text('[["a", 0.5], ["sigma", 1]]', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "certificate", "--family", "ar1", "--gap", "1", *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("family,params,name", [
    pytest.param("asym-arch", {"a": math.nan, "b": 3.0, "c": 5.0}, "a", id="asym-arch-a-nan"),
    pytest.param("garch", {"alpha2": 0.13, "beta2": math.inf, "gamma2": 0.7922}, "beta2", id="garch-beta2-inf"),
    pytest.param("ar1", {"a": math.nan, "sigma": 1.0}, "a", id="ar1-a-nan"),
    pytest.param("larch", {"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": math.inf}}, "nu",
                 id="larch-nu-inf"),
])
def test_non_finite_coefficient_exits_2(capsys, family, params, name):
    # JSON NaN and Infinity slip past the families' order checks (inf >= 0
    # holds, and `a` has none); unchecked, the chain runs and exits 3
    code, out, err = run(capsys, "curve", "--family", family, "--params", json.dumps(params), "--x0", "0.1",
                         "--x0p", "1", "--s20", "0.01", "--s20p", "0.01", "--no-bound", "--paths", "100",
                         "--n-max", "1", "--seed", "1")
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and name in err and "finite" in err


LARCH_CHI2 = json.dumps({"beta0": 1, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}})


@pytest.mark.parametrize("argv", [
    # C = beta1/beta0 sup f_{log Z} bounds the Lipschitz constant of
    # log(beta0 + beta1 x) only for x >= 0; this curve's simulated TV at
    # n = 1 (0.62) sits far above its bound (0.23)
    pytest.param(["curve", "--family", "larch", "--params", LARCH_CHI2, "--x0", "-1.9", "--x0p", "0",
                  "--n-max", "3", "--paths", "1000", "--workers", "1"], id="curve-larch-negative-start"),
    pytest.param(["certificate", "--family", "larch", "--params", LARCH_CHI2, "--x0", "-1.9", "--x0p", "0"],
                 id="certificate-larch-negative-start"),
    pytest.param(["iters", "--family", "larch", "--params", LARCH_CHI2, "--x0", "0", "--x0p", "-1.9",
                  "--epsilon", "0.01"], id="iters-larch-negative-start"),
    # E[Z^2] = 2e-400 underflows to 0, which gave D = 0: immediate coupling
    pytest.param(["certificate", "--family", "asym-arch", "--params",
                  '{"a":0.5,"b":3,"c":5,"z":{"dist":"gamma","shape":1,"rate":1e200},"gap":1}'],
                 id="asym-arch-moment-underflows"),
    # E|Z| underflows to 0, which divided C = D/(alpha E|Z|) by zero
    pytest.param(["certificate", "--family", "garch", "--params",
                  '{"alpha2":0.13,"beta2":0.1266,"gamma2":0.7922,"z":{"dist":"gamma","shape":1e-30,"rate":1e300}}',
                  "--x0", "0.1", "--x0p", "-0.1", "--s20", "0.01", "--s20p", "0.02"], id="garch-moment-underflows"),
])
def test_start_outside_the_state_space_or_moment_underflow_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("starts,match", [
    ({"x0": "abc", "x0p": 1}, "start x0 must be a number"),
    ({"x0": 0, "x0p": [1, "q"]}, "start x0p must be a number"),
    ({"x0": [1, 2], "x0p": [1, 2, 3]}, r"start x0 must be a number.*got \[1, 2\]"),
])
def test_default_gap_names_the_bad_start(starts, match):
    with pytest.raises(ParameterError, match=match):
        build_certificate("ar1", {"a": 0.5, "sigma": 1, **starts})


@pytest.mark.parametrize("command,extra", [("certificate", []), ("iters", ["--epsilon", "0.5"])])
def test_gap_defaults_to_start_distance_in_every_command(capsys, command, extra):
    starts = ["--x0", "0", "--x0p", "2"]
    outs = [
        run(capsys, command, "--family", "ar1", "--a", "0.5", "--sigma", "1", *gap, *extra)
        for gap in (starts, ["--gap", "2"])
    ]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


@pytest.mark.parametrize("family,params,starts", [
    ("asym-arch", {"a": 0.5, "b": 3.0, "c": 5.0}, ["--x0", "0", "--x0p", "5"]),
    ("garch", {"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922},
     ["--x0", "0.1", "--x0p", "-0.1", "--s20", "0.0001", "--s20p", "0.01"]),
])
def test_curve_default_noise_is_standard_normal(tmp_path, capsys, family, params, starts):
    # the model and the certificate share one default z = N(0, 1)
    csvs = []
    for p in (params, {**params, "z": {"dist": "normal", "mu": 0.0, "sigma": 1.0}}):
        out = tmp_path / "curve.csv"
        code, _, err = run(
            capsys, "curve", "--family", family, "--params", json.dumps(p), *starts,
            "--n-max", "3", "--paths", "2000", "--seed", "1", "--workers", "1", "--out", str(out),
        )
        assert code == 0, err
        assert "no bound column" not in err
        csvs.append(out.read_text())
    assert csvs[0] == csvs[1]
    assert csvs[0].splitlines()[-1].split(",")[1] != ""


def _exit_code_and_streams(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    pytest.param(["curve", "--family", "ar1", "--a", "0.5", "--sigma", "1", "--x0p", "1"], id="curve-without-x0"),
    pytest.param(["certificate", "--family", "ar1", "--params", "{bad"], id="params-not-json"),
    pytest.param(["certificate", "--family", "ar1", "--params-file", "missing.json"], id="params-file-missing"),
    pytest.param(["dataset-stats", "--csv", "F"], id="dataset-stats-csv-without-y-column"),
    pytest.param(["dataset-stats"], id="dataset-stats-without-a-source"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--stream-id", "-1"], id="curve-stream-id-negative"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--n-max", "0"], id="curve-n-max-0"),
    pytest.param([*CURVE_AR1, "--x0", "0", "--paths", "0"], id="curve-paths-0"),
])
def test_rejected_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit_code_and_streams(capsys, argv)
    assert code == 2, err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert out == ""


AR1_SIGMA2_STARTS = ["--family", "ar1", "--a", "0.5", "--sigma", "1", "--x0", "0", "--x0p", "1",
                     "--s20", "-5", "--s20p", "3"]
INDEPENDENT = json.dumps({"amplitude": 0.46, "rate": 0.5, "d": 100, "gap": 1})


@pytest.mark.parametrize("argv,key", [
    # only a certificate that takes the sigma^2 starts (garch) accepts them
    pytest.param(["certificate", *AR1_SIGMA2_STARTS], "s20", id="certificate-ar1-s20"),
    pytest.param(["iters", *AR1_SIGMA2_STARTS, "--epsilon", "0.01"], "s20", id="iters-ar1-s20"),
    pytest.param(["curve", *AR1_SIGMA2_STARTS, "--n-max", "1", "--paths", "100", "--workers", "1", "--seed", "1"],
                 "s20", id="curve-ar1-s20"),
    pytest.param(["iters", "--family", "larch", "--params", LARCH_CHI2, "--x0", "0", "--x0p", "1", "--s20p", "1",
                  "--epsilon", "0.01"], "s20p", id="iters-larch-s20p"),
    # independent-coordinates has no chain, so no start to default its gap from
    pytest.param(["certificate", "--family", "independent-coordinates", "--params", INDEPENDENT,
                  "--x0", "1", "--x0p", "3"], "x0", id="certificate-independent-x0"),
    pytest.param(["iters", "--family", "independent-coordinates", "--params", INDEPENDENT, "--s20", "1",
                  "--epsilon", "0.01"], "s20", id="iters-independent-s20"),
])
def test_start_key_the_family_does_not_take_exits_2(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and re.search(rf"\b{key}\b", err), err


GARCH_STARTS = {"x0": "0.1", "x0p": "-0.1", "s20": "0.0001", "s20p": "0.01"}


@pytest.mark.parametrize("missing,start", [("s20", "x0"), ("s20p", "x0p")])
@pytest.mark.parametrize("command", [["certificate"], ["curve", "--n-max", "1", "--paths", "100", "--seed", "1"]],
                         ids=["certificate", "curve"])
def test_garch_start_without_its_sigma2_names_the_missing_key(capsys, command, missing, start):
    starts = [arg for key, value in GARCH_STARTS.items() if key != missing for arg in (f"--{key}", value)]
    code, out, err = run(capsys, command[0], "--family", "garch", "--params", GARCH_PARAMS, *starts, *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: GARCH start {start} needs its sigma^2 start {missing}\n"


@pytest.mark.parametrize("argv", [
    # a = 1.5 has no certificate: checked after it, the stream id came with a note line
    pytest.param(["curve", "--family", "ar1", "--a", "1.5", "--sigma", "1", "--x0", "0", "--x0p", "1",
                  "--stream-id", "-1"], id="stream-id-negative"),
    pytest.param([*CURVE_GARCH, "--s20", "-1"], id="garch-s20-negative"),
])
def test_bad_stream_or_start_fails_before_the_certificate_and_the_jobs(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate_tv_curve called")

    monkeypatch.setattr(tvlab, "simulate_tv_curve", no_simulation)
    code, out, err = _exit_code_and_streams(capsys, argv)
    assert code == 2, err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["--seed", "-3"], id="seed-negative"),
    pytest.param(["--seed", str(2**128)], id="seed-2-128"),
])
def test_bad_seed_fails_before_the_table_and_the_curves_directory(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit_code_and_streams(capsys, ["repro", "--skip-mc", "--curves", "D", *argv])
    assert code == 2, err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert out == ""
    assert not (tmp_path / "D").exists()


def test_every_exit_2_error_is_a_parameter_error():
    # main maps ParameterError to exit 2 and SimulationError to exit 3, nothing else
    assert all(issubclass(cls, ParameterError) for cls in (DomainError, IngestionError, NoContractionError, StateError))
    assert not issubclass(SimulationError, ParameterError)


ASYM_NORMAL_HALF = {"a": 0.5, "b": 3.0, "c": 5.0, "z": {"dist": "normal", "mu": 0.5, "sigma": 1.0}}


@pytest.mark.parametrize("family,params,starts", [
    pytest.param("ar1", {"a": 1.5, "sigma": 1.0}, ["--x0", "0", "--x0p", "1"], id="ar1-no-contraction"),
    pytest.param("asym-arch", ASYM_NORMAL_HALF, ["--x0", "0", "--x0p", "1"], id="asym-arch-normal-mu-half"),
    pytest.param("asym-arch", ASYM_GAMMA_100, ["--x0", "400", "--x0p", "600"], id="asym-arch-gamma-100"),
])
def test_curve_without_a_certificate_writes_a_note_and_the_simulated_columns(tmp_path, capsys, family, params,
                                                                              starts):
    # NoContractionError and DomainError certificates follow one rule: a note, empty bound columns, exit 0
    base = ["curve", "--family", family, "--params", json.dumps(params), *starts, "--n-max", "3", "--paths", "2000",
            "--seed", "1", "--workers", "1", "--bin-width", "0.5"]
    code, out, err = run(capsys, *base, "--out", str(tmp_path / "bound.csv"))
    assert code == 0 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("note: no bound column ("), err
    code, _, err = run(capsys, *base, "--no-bound", "--out", str(tmp_path / "plain.csv"))
    assert code == 0 and err == ""
    rows, plain = ([line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]
                   for name in ("bound.csv", "plain.csv"))
    assert len(rows) == 3
    assert all(r[1] == r[2] == "" for r in rows)
    assert [[r[0], *r[3:]] for r in rows] == [[r[0], *r[3:]] for r in plain]


def test_curve_of_a_family_without_a_chain_says_so_before_asking_for_starts(capsys):
    code, out, err = run(capsys, "curve", "--family", "independent-coordinates", "--params", INDEPENDENT)
    assert code == 2 and out == ""
    assert err == "error: family 'independent-coordinates' has no chain to simulate\n"


@pytest.mark.parametrize("params,starts", [
    pytest.param({k: v for k, v in AR_D.items() if k not in ("x0", "x0p")}, ["--x0", "1", "--x0p", "0"],
                 id="scalar-starts"),
    pytest.param(AR_D, [], id="vector-starts"),
])
def test_curve_of_ar_d_says_it_has_no_chain(capsys, params, starts):
    # ar-d is certified in closed form only, refused by the same rule as independent-coordinates
    code, out, err = run(capsys, "curve", "--family", "ar-d", "--params", json.dumps(params), *starts,
                         "--n-max", "1", "--paths", "100")
    assert code == 2 and out == ""
    assert err == "error: family 'ar-d' has no chain to simulate\n"


@pytest.mark.parametrize("starts,message", [
    pytest.param(["--x0", "1e300", "--x0p", "1"], "start x0 = 1e+300 out of histogram range at bin width 0.01",
                 id="x0-1e300"),
    pytest.param(["--x0", "0", "--x0p", "1", "--bin-width", "1e-300"],
                 "start x0p = 1.0 out of histogram range at bin width 1e-300", id="bin-width-1e-300"),
])
def test_curve_start_beyond_the_histogram_exits_2_before_any_job(monkeypatch, capsys, starts, message):
    # a start whose cell |x| / bin width reaches 2**62 is bad input, not a diverged chain
    def no_job(*args, **kwargs):
        raise AssertionError("a chunk job ran")

    monkeypatch.setattr(NoiseStream, "substream", no_job)
    code, out, err = run(capsys, "curve", "--family", "ar1", "--a", "0.5", "--sigma", "1", *starts, "--n-max", "2",
                         "--paths", "10")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command,extra", [
    ("certificate", []),
    ("iters", ["--epsilon", "0.01"]),
    ("curve", ["--n-max", "1", "--paths", "100", "--seed", "1"]),
])
def test_list_start_of_a_scalar_family_exits_2_with_one_error_in_every_command(capsys, command, extra):
    # the start check is one function, so every command reads the start alike
    params = json.dumps({"a": 0.5, "sigma": 1, "x0": [1, 2], "x0p": [0, 0]})
    code, out, err = run(capsys, command, "--family", "ar1", "--params", params, *extra)
    assert code == 2 and out == ""
    assert err == "error: start x0 must be a number, finite and not bool, got [1, 2]\n"


@pytest.mark.parametrize("x0,gap", [("1e-200", 1e-200), ("1e200", 1e200)])
def test_default_gap_is_the_start_distance_at_extreme_starts(capsys, x0, gap):
    # |x0 - x0'| neither underflows to a zero bound nor overflows to inf through a square
    base = ["certificate", "--family", "ar1", "--a", "0.5", "--sigma", "1"]
    code, out, err = run(capsys, *base, "--x0", x0, "--x0p", "0")
    assert code == 0 and err == ""
    assert json.loads(out)["gap"] == gap
    assert (code, out, err) == run(capsys, *base, "--gap", x0)


@pytest.mark.parametrize("z", [
    {"dist": "gamma", "shape": 100, "rate": 1},
    {"dist": "normal", "mu": 0.5, "sigma": 1},
    {"dist": "inverse-gamma", "shape": 0.5, "rate": 1},
    {"dist": "inverse-gamma", "shape": 1.5, "rate": 1},
], ids=["gamma-100", "normal-mu-half", "inverse-gamma-without-mean", "inverse-gamma-without-variance"])
def test_asym_arch_at_a_0_certifies_immediate_coupling_for_any_noise(capsys, z):
    # at a = 0 the chain forgets its start in one step, so neither the log|Z|
    # height rule nor a moment of Z applies
    params = json.dumps({"a": 0, "b": 3, "c": 5, "z": z})
    code, out, err = run(capsys, "certificate", "--family", "asym-arch", "--params", params, "--gap", "1")
    assert code == 0, err
    cert = json.loads(out)
    assert cert["C"] == 0 and cert["D"] == 0
    assert cert["details"] == {"d_exact": 0.0, "d_jensen": 0.0}
    code, out, err = run(capsys, "iters", "--family", "asym-arch", "--params", params, "--gap", "1",
                         "--epsilon", "0.01")
    assert (code, out) == (0, "1\n"), err


HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize("command,extra", [
    ("certificate", []),
    ("iters", ["--epsilon", "0.01"]),
    ("curve", ["--n-max", "1", "--paths", "100", "--seed", "1"]),
])
@pytest.mark.parametrize("family,params,name", [
    pytest.param("ar1", {"a": 0.5, "sigma": 1, "x0": HUGE, "x0p": 0}, "x0", id="start"),
    pytest.param("garch", {"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922, "x0": 0.1, "x0p": -0.1,
                           "s20": HUGE, "s20p": 0.01}, "s20", id="garch-sigma2-start"),
    pytest.param("ar1", {"a": HUGE, "sigma": 1, "x0": 0, "x0p": 1}, "a", id="model-field"),
    pytest.param("asym-arch", {"a": 0.5, "b": 3, "c": 5, "z": {"dist": "gamma", "shape": HUGE, "rate": 1},
                               "x0": 0, "x0p": 1}, "shape", id="dist-parameter"),
    pytest.param("location-gibbs", {"j": HUGE, "s": 3, "x0": 1, "x0p": 2}, "j", id="gibbs-j"),
])
def test_json_integer_too_large_for_a_float_exits_2_in_every_command(capsys, command, extra, family, params, name):
    code, out, err = run(capsys, command, "--family", family, "--params", json.dumps(params), *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and re.search(rf"\b{name}\b", err), err
