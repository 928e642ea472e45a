"""Batch front door.

Subcommands:

* ``certificate``  build a bound certificate, print it as JSON
* ``iters``        smallest n with bound below epsilon
* ``curve``        simulate a TV curve, write the CSV
* ``dataset-stats`` sufficient statistics (and derived constants) of a dataset
* ``repro``        replay every built-in worked example against its
                   recorded reference value and print a verdict table

Exit codes: 0 success, 2 parameter/ingestion problems, 3 simulation
failure.  ``ONESHOT_SEED`` is honored as the seed fallback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bounds, data, models, tvlab
from .errors import DomainError, IngestionError, NoContractionError, ParameterError, StateError
from .stochastics import ChiSquare, InverseGamma, Normal, NoiseStream, density, dist_from_dict

DEFAULT_SEED = 20260809
PHD_DELAY_ENV = "TVBOUNDS_PHD_DELAY_CSV"

CERT_FAMILIES = (
    "ar1",
    "nonlinear-ar",
    "ar-d",
    "independent-coordinates",
    "location-gibbs",
    "regression-gibbs",
    "larch",
    "asym-arch",
    "garch",
)


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _round9(obj):
    if isinstance(obj, float):
        return float(_fmt9(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ONESHOT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"ONESHOT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _load_params(args) -> dict:
    params = {}
    if getattr(args, "params_file", None):
        try:
            with open(args.params_file, "r", encoding="utf-8") as fh:
                params.update(json.load(fh))
        except OSError as exc:
            raise IngestionError(f"cannot open params file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise IngestionError(f"params file is not valid JSON: {exc}") from None
    if getattr(args, "params", None):
        try:
            params.update(json.loads(args.params))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"--params is not valid JSON: {exc}") from None
    # convenience flags override the JSON blob
    for flag in ("a", "sigma", "gap", "x0", "x0p", "s20", "s20p", "epsilon"):
        v = getattr(args, flag, None)
        if v is not None:
            params[flag] = v
    return params


def _need(params: dict, *names):
    missing = [n for n in names if n not in params]
    if missing:
        raise ParameterError(f"missing parameter(s): {', '.join(missing)}")
    return [params[n] for n in names]


def _dist_of(params: dict, default=None):
    z = params.get("z", default)
    if z is None:
        raise ParameterError("missing noise distribution 'z'")
    return dist_from_dict(z) if isinstance(z, dict) else z


def build_certificate(family: str, params: dict) -> bounds.BoundCertificate:
    """Shared certificate construction for ``certificate``/``iters``/``repro``."""
    if family == "ar1":
        a, sigma, gap = _need(params, "a", "sigma", "gap")
        return bounds.ar_normal_1d_certificate(a, sigma, gap)
    if family == "nonlinear-ar":
        (gap,) = _need(params, "gap")
        d2 = params.get("d_squared")
        if d2 is None:
            search = {
                name: cast(params[key])
                for key, name, cast in (
                    ("grid", "grid", int), ("range", "half_range", float), ("min_separation", "min_separation", float)
                )
                if key in params
            }
            d = bounds.nonlinear_ar_D(**search)
            d2 = d * d
        return bounds.nonlinear_ar_certificate(gap, d2)
    if family == "ar-d":
        a, sigma, x0, x0p = _need(params, "a", "sigma", "x0", "x0p")
        return bounds.ar_normal_d_certificate(
            np.asarray(a, dtype=float), np.asarray(sigma, dtype=float),
            np.asarray(x0, dtype=float), np.asarray(x0p, dtype=float),
        )
    if family == "independent-coordinates":
        amplitude, rate, d, gap = _need(params, "amplitude", "rate", "d", "gap")
        return bounds.independent_coordinates_certificate(amplitude, rate, int(d), gap)
    if family == "location-gibbs":
        j, s, gap = _need(params, "j", "s", "gap")
        return bounds.location_gibbs_certificate(int(j), s, gap)
    if family == "regression-gibbs":
        k, p, c_stat, gap = _need(params, "k", "p", "c_stat", "gap")
        return bounds.regression_gibbs_certificate(int(k), int(p), c_stat, gap)
    if family == "larch":
        beta0, beta1, gap = _need(params, "beta0", "beta1", "gap")
        return bounds.larch_certificate(
            beta0, beta1, _dist_of(params), int(params.get("m", 1)), gap
        )
    if family == "asym-arch":
        a, b, c, gap = _need(params, "a", "b", "c", "gap")
        return bounds.asym_arch_certificate(
            a, b, c, _dist_of(params, {"dist": "normal", "mu": 0.0, "sigma": 1.0}),
            gap, jensen=bool(params.get("jensen", True)),
        )
    if family == "garch":
        alpha2, beta2, gamma2, x0, x0p, s20, s20p = _need(
            params, "alpha2", "beta2", "gamma2", "x0", "x0p", "s20", "s20p"
        )
        return bounds.garch_certificate(
            alpha2, beta2, gamma2,
            _dist_of(params, {"dist": "normal", "mu": 0.0, "sigma": 1.0}),
            x0, x0p, s20, s20p,
        )
    raise ParameterError(f"unknown certificate family '{family}' (choose from {', '.join(CERT_FAMILIES)})")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_certificate(args) -> int:
    cert = build_certificate(args.family, _load_params(args))
    _emit(json.dumps(_round9(bounds.certificate_to_dict(cert)), indent=2) + "\n", args.out)
    return 0


def cmd_iters(args) -> int:
    params = _load_params(args)
    eps = params.pop("epsilon", None)
    if eps is None:
        raise ParameterError("missing --epsilon")
    cert = build_certificate(args.family, params)
    print(bounds.iterations_to_epsilon(cert, float(eps)))
    return 0


def cmd_curve(args) -> int:
    params = _load_params(args)
    for k in ("x0", "x0p"):
        if k not in params:
            raise ParameterError(f"missing --{k}")
    non_model_keys = (
        "x0", "x0p", "s20", "s20p", "gap", "epsilon", "jensen", "m",
        "grid", "range", "min_separation", "d_squared",
    )
    model_params = {k: v for k, v in params.items() if k not in non_model_keys}
    model = models.model_from_dict({"family": args.family, "params": model_params})
    cert = None
    if not args.no_bound:
        try:
            cert = build_certificate(args.family, _curve_cert_params(args.family, params))
        except (ParameterError, NoContractionError) as exc:
            print(f"note: no bound column ({exc})", file=sys.stderr)
    stream = NoiseStream(_seed_from(args), args.stream_id)
    try:
        curve = tvlab.simulate_tv_curve(
            model,
            params["x0"],
            params["x0p"],
            n_max=args.n_max,
            n_paths=args.paths,
            bin_width=args.bin_width,
            stream=stream,
            certificate=cert,
            workers=args.workers,
            s20=params.get("s20"),
            s20_prime=params.get("s20p"),
        )
    except (ParameterError, DomainError, StateError):
        raise
    except Exception as exc:  # simulation failure -> exit 3
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return 3
    _emit(curve.to_csv(), args.out)
    return 0


def _curve_cert_params(family: str, params: dict) -> dict:
    p = dict(params)
    if family == "garch":
        return p
    if "gap" not in p and "x0" in p and "x0p" in p:
        x0, x0p = np.asarray(p["x0"], dtype=float), np.asarray(p["x0p"], dtype=float)
        p["gap"] = float(np.linalg.norm(np.atleast_1d(x0 - x0p)))
    return p


def cmd_dataset_stats(args) -> int:
    if args.builtin:
        ds = data.builtin_dataset(args.builtin)
    elif args.csv:
        if not args.y_column:
            raise ParameterError("--csv requires --y-column")
        xcols = args.x_columns.split(",") if args.x_columns else None
        ds = data.load_csv(args.csv, args.y_column, xcols, args.prior_lambda)
    else:
        raise ParameterError("need --builtin or --csv")
    if isinstance(ds, data.LocationData):
        j, y_bar, s = data.location_stats(ds)
        out = {
            "kind": "location",
            "J": j,
            "y_bar": y_bar,
            "S": s,
            "certificate_constants": {
                "D": 1.0 / j,
                "K_closed_form": bounds.location_k_closed_form(j, s),
                "K_mode_height": bounds.inverse_gamma_mode_height((j - 1) / 2, s / 2),
            },
        }
    else:
        a, beta_tilde, c_stat = data.regression_stats(ds)
        k, p = ds.x.shape
        out = {
            "kind": "regression",
            "k": k,
            "p": p,
            "condition_A": float(np.linalg.cond(a)),
            "C_stat": c_stat,
            "beta_tilde": beta_tilde.tolist(),
            "certificate_constants": {
                "D": p / (k + p - 2),
                "K_mode_height": bounds.inverse_gamma_mode_height((k + 2 * p) / 2, c_stat / 2),
            },
        }
    _emit(json.dumps(_round9(out), indent=2) + "\n", args.out)
    return 0


def reproduction_rows(seed: int, skip_mc: bool = False) -> list:
    """Every built-in worked example: computed value vs recorded reference.

    Rows where the recorded reference is known to disagree with the
    computation carry verdict FLAG (the disagreement is the documented
    finding, not an error).
    """
    rows = []

    def row(name, reference, computed, tol, note="", flag=False):
        ok = abs(computed - reference) <= tol
        verdict = "FLAG" if flag else ("OK" if ok else "MISMATCH")
        rows.append(
            {
                "name": name,
                "reference": reference,
                "computed": computed,
                "tolerance": tol,
                "verdict": verdict,
                "note": note,
            }
        )

    # regression Gibbs (k=333, p=4)
    d_reg = 4 / 335
    row("regression D = p/(k+p-2)", 0.0119403, d_reg, 5e-8)
    cert_ref = bounds.BoundCertificate(c=0.06816454, d=d_reg, n0=0, gap=1000.0, family="regression-gibbs")
    row(
        "regression bound at n=3 (gap 1000)",
        0.00972,
        bounds.bound_eval(cert_ref, 3).raw,
        1e-4,
        note="below 0.01 from n=3 on",
    )
    phd_csv = os.environ.get(PHD_DELAY_ENV, os.path.join("data", "phd-delay.csv"))
    if os.path.exists(phd_csv):
        ds = data.load_csv(
            phd_csv, "delay", ["age", "age2", "sex", "child"], prior_lambda=1.0
        )
        _, _, c_stat = data.regression_stats(ds)
        row(
            "regression K (delay dataset, k=333, p=4)",
            0.0682,
            bounds.inverse_gamma_mode_height((333 + 8) / 2, c_stat / 2),
            5e-3,
            note=f"C = {c_stat:.6g}, prior precision 1.0",
        )
    else:
        alpha, beta = (333 + 2 * 4) / 2, 26123.0 / 2
        ig = InverseGamma(alpha, beta)
        mode = beta / (alpha + 1)
        oracle = bounds.golden_section_max(lambda x: density(ig, x), mode / 3, mode * 3)
        row(
            "regression K formula vs numeric maximization (dataset absent)",
            oracle,
            bounds.inverse_gamma_mode_height(alpha, beta),
            1e-8 * oracle,
            note="delay dataset not supplied; validated the mode-height formula instead",
        )

    # location Gibbs (tree girth data)
    j, _, s = data.location_stats(data.builtin_dataset("trees-girth"))
    k_closed = bounds.location_k_closed_form(j, s)
    row("location K (closed form, girth data)", 13.74027, k_closed, 0.05)
    cert_loc = bounds.location_gibbs_certificate(j, s, gap=18.12198)
    row(
        "location iterations to TV < 0.01",
        4,
        bounds.iterations_to_epsilon(cert_loc, 0.01),
        0,
        note="gap 18.12198",
    )
    row(
        "location K mode-height variant",
        k_closed * ((j + 1) / s) ** 2,
        cert_loc.details["c_mode_height"],
        1e-9,
        note="closed form and mode height differ by ((J+1)/S)^2; both carried",
        flag=True,
    )

    # location drift constants
    fit = bounds.location_drift_constants(j, s)
    row(
        "location drift lambda (recorded 0.6583702 vs moment product)",
        0.6583702,
        fit.lam,
        1e-7,
        note="moment product E[X^2]E[Y^2] = 3/(J(J-2)); recorded value not reproducible",
        flag=True,
    )
    if not skip_mc:
        quad, _, _ = bounds.mc_location_drift_fit(j, s, fit.h, NoiseStream(seed, 771))
        row(
            "location drift lambda, Monte-Carlo quadratic fit",
            fit.lam,
            quad,
            0.02 * fit.lam,
            note="independent draws at 20 grid points",
        )
    ref_drift = bounds.DriftSpec(0.6583702, 106.3874, 0.5248723)
    row(
        "location stationary-gap bound (recorded constants)",
        18.12198,
        bounds.drift_expected_distance(ref_drift, abs(1 + 0.5248723)),
        1e-6,
        note="direct evaluation gives 19.17; recorded value kept as-is",
        flag=True,
    )

    # nonlinear AR
    d_nl = bounds.nonlinear_ar_D()
    row(
        "nonlinear AR two-step D (grid sup)",
        0.813,
        d_nl,
        0.005,
        note="full Cauchy-Schwarz envelope sup (no separation cutoff) is 0.8182",
    )
    cert_nl = bounds.nonlinear_ar_certificate(gap=1.0, d_squared=0.661)
    row(
        "nonlinear AR bound at n=20 (rate 0.661 pinned)",
        0.00635220727,
        bounds.bound_eval(cert_nl, 20).raw,
        1e-9,
        note="below 0.01 at n=20",
    )

    # AR(1) normal, exact vs bound
    first_exact = min(n for n in range(1, 20) if tvlab.tv_exact_ar_normal(0.0, 1.0, n) < 0.01)
    row("AR(1) first n with exact TV < 0.01", 6, first_exact, 0)
    cert_ar1 = bounds.ar_normal_1d_certificate(0.5, math.sqrt(0.75), gap=1.0)
    row("AR(1) first n with bound < 0.01", 7, bounds.iterations_to_epsilon(cert_ar1, 0.01), 0)

    # independent coordinates in dimension 100
    cert_ind = bounds.independent_coordinates_certificate(math.sqrt(2 / (3 * math.pi)), 0.5, 100)
    row("independent-100 bound at n=14", 0.0028, bounds.bound_eval(cert_ind, 14).raw, 1e-4,
        note="below 0.01 at the recorded n=14")
    row("independent-100 first n with bound < 0.01", 13, bounds.iterations_to_epsilon(cert_ind, 0.01), 0)

    # general vector AR in dimension 100 (tridiagonal example)
    d_mat = 100
    a_mat = (
        np.diag(np.full(d_mat, 0.5))
        + np.diag(np.full(d_mat - 1, 0.125), 1)
        + np.diag(np.full(d_mat - 1, 0.125), -1)
    )
    cert_ard = bounds.ar_normal_d_certificate(a_mat, a_mat, np.ones(d_mat), np.zeros(d_mat))
    row("vector-AR-100 rate max|eig|", 0.7498791, cert_ard.d, 1e-6)
    row(
        "vector-AR-100 coefficient",
        98782.31,
        cert_ard.c,
        0.01 * 98782.31,
        note="matches with Sigma = A; Sigma = sqrt(A) would give 60579 (convention recorded)",
    )
    row("vector-AR-100 first n with bound < 0.01", 56, bounds.iterations_to_epsilon(cert_ard, 0.01), 0)

    # LARCH squared chain
    cert_larch = bounds.larch_certificate(1.0, 0.5, ChiSquare(1), m=1, gap=1.2)
    row("LARCH coefficient C", 1 / math.sqrt(8 * math.pi * math.e), cert_larch.c, 1e-9)
    row("LARCH contraction D", 0.5, cert_larch.d, 1e-12)
    row(
        "LARCH first n with bound < 0.01 (recorded claim: 3)",
        3,
        bounds.iterations_to_epsilon(cert_larch, 0.01),
        0,
        note="computation gives 5 (gap 1.2; even with gap 1 the crossing is n=5)",
        flag=True,
    )

    # asymmetric ARCH
    cert_asym = bounds.asym_arch_certificate(0.5, 3.0, 5.0, Normal(0.0, 1.0), gap=5.0)
    row("asym-ARCH bound at n=7 (= 0.5^7)", 0.5**7, bounds.bound_eval(cert_asym, 7).raw, 1e-15)
    row("asym-ARCH first n with bound < 0.01", 7, bounds.iterations_to_epsilon(cert_asym, 0.01), 0,
        note=f"exact (non-Jensen) D would be {cert_asym.details['d_exact']:.6g}")

    # GARCH
    cert_g = bounds.garch_certificate(
        0.13, 0.1266, 0.7922, Normal(0.0, 1.0), x0=0.1, x0_prime=-0.1, s20=0.0001, s20_prime=0.01
    )
    row("GARCH coefficient", 0.2456, cert_g.details["coefficient"], 5e-4)
    row("GARCH contraction D", math.sqrt(0.9188), cert_g.d, 1e-9)
    row("GARCH first n with bound < 0.01", 77, bounds.iterations_to_epsilon(cert_g, 0.01), 0)

    return rows


FIGURE_CURVES = {
    "curve-ar1": dict(
        family="ar1", params={"a": 0.5, "sigma": math.sqrt(0.75)},
        x0=0.0, x0p=1.0, n_max=10,
    ),
    "curve-larch-squared": dict(
        family="larch", params={"beta0": 1.0, "beta1": 0.5, "z": {"dist": "chi-square", "nu": 1}},
        x0=0.01, x0p=1.21, n_max=10,
    ),
    "curve-asym-arch": dict(
        family="asym-arch", params={"a": 0.5, "b": 3.0, "c": 5.0, "z": {"dist": "normal", "mu": 0.0, "sigma": 1.0}},
        x0=0.0, x0p=5.0, n_max=10,
    ),
    "curve-garch": dict(
        family="garch",
        params={"alpha2": 0.13, "beta2": 0.1266, "gamma2": 0.7922, "z": {"dist": "normal", "mu": 0.0, "sigma": 1.0}},
        x0=0.1, x0p=-0.1, s20=0.0001, s20p=0.01, n_max=30,
    ),
}


def write_figure_curves(directory, seed, n_paths, workers=1):
    """Simulate the four built-in comparison curves (bound vs simulated
    TV) and write one CSV per chain into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for idx, (stem, cfg) in enumerate(sorted(FIGURE_CURVES.items())):
        params = dict(cfg["params"])
        full = {**params, "x0": cfg["x0"], "x0p": cfg["x0p"]}
        if "s20" in cfg:
            full.update(s20=cfg["s20"], s20p=cfg["s20p"])
        cert = build_certificate(cfg["family"], _curve_cert_params(cfg["family"], full))
        model = models.model_from_dict({"family": cfg["family"], "params": params})
        curve = tvlab.simulate_tv_curve(
            model, cfg["x0"], cfg["x0p"], n_max=cfg["n_max"], n_paths=n_paths,
            bin_width=0.01, stream=NoiseStream(seed, 9000 + idx),
            certificate=cert, workers=workers,
            s20=cfg.get("s20"), s20_prime=cfg.get("s20p"),
        )
        path = os.path.join(directory, stem + ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(curve.to_csv())
        written.append(path)
    return written


def cmd_repro(args) -> int:
    rows = reproduction_rows(_seed_from(args), skip_mc=args.skip_mc)
    name_w = max(len(r["name"]) for r in rows) + 2
    print(f"{'worked example':<{name_w}}{'reference':>14}{'computed':>16}{'verdict':>10}  note")
    for r in rows:
        print(
            f"{r['name']:<{name_w}}{_fmt9(float(r['reference'])):>14}"
            f"{_fmt9(float(r['computed'])):>16}{r['verdict']:>10}  {r['note']}"
        )
    bad = [r for r in rows if r["verdict"] == "MISMATCH"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_round9(rows), fh, indent=2)
            fh.write("\n")
    if args.curves:
        for path in write_figure_curves(args.curves, _seed_from(args), args.paths, args.workers):
            print(f"wrote {path}")
    print(f"\n{len(rows)} checks: {len(bad)} mismatched, "
          f"{sum(r['verdict'] == 'FLAG' for r in rows)} flagged (known discrepancies)")
    return 1 if bad else 0


def _add_common_cert_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=CERT_FAMILIES)
    p.add_argument("--params", help="inline JSON parameter object")
    p.add_argument("--params-file", help="path to a JSON parameter file")
    p.add_argument("--a", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--gap", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--x0p", type=float)
    p.add_argument("--s20", type=float)
    p.add_argument("--s20p", type=float)
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tvbounds", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certificate", help="build a bound certificate")
    _add_common_cert_flags(p)
    p.set_defaults(fn=cmd_certificate)

    p = sub.add_parser("iters", help="iterations until the bound drops below epsilon")
    _add_common_cert_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(fn=cmd_iters)

    p = sub.add_parser("curve", help="simulate a TV curve and write CSV")
    _add_common_cert_flags(p)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--bin-width", type=float, default=0.01)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--stream-id", type=int, default=0)
    p.add_argument("--no-bound", action="store_true", help="skip the analytic bound column")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("dataset-stats", help="sufficient statistics of a dataset")
    p.add_argument("--builtin", help="builtin dataset name (trees-girth)")
    p.add_argument("--csv", help="CSV path")
    p.add_argument("--y-column")
    p.add_argument("--x-columns", help="comma-separated design columns (regression)")
    p.add_argument("--prior-lambda", type=float)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_dataset_stats)

    p = sub.add_parser("repro", help="replay the worked examples against reference values")
    p.add_argument("--out", help="also write the table as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--skip-mc", action="store_true", help="skip the Monte-Carlo drift oracle")
    p.add_argument("--curves", metavar="DIR", help="also write the four comparison-curve CSVs here")
    p.add_argument("--paths", type=int, default=100_000, help="paths per comparison curve")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_repro)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, DomainError, IngestionError, NoContractionError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
