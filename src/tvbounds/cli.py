"""Batch front door.

Subcommands:

* ``certificate``  build a bound certificate, print it as JSON
* ``iters``        smallest n with bound below epsilon
* ``curve``        simulate a TV curve, write the CSV
* ``dataset-stats`` sufficient statistics (and derived constants) of a dataset
* ``repro``        replay every built-in worked example against its
                   recorded reference value and print a verdict table

Exit codes: 0 success, 1 a ``repro`` row mismatched, 2 parameter,
ingestion or output-path problems, 3 simulation failure.  ``curve`` and
``repro`` take ``--seed``, the one way to set their seed.  Every chain
takes the starts ``x0`` and ``x0p``, and ``s20`` and ``s20p`` only where
its certificate does (garch); any other start key exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# tvlab and data are imported by the commands that use them, and numpy on
# first use, so certificate and iters start without the curve simulator, the
# dataset reader and numpy
from . import bounds, models
from ._lazy import lazy_import
from .errors import IngestionError, ParameterError, SimulationError
from .stochastics import InverseGamma, NoiseStream, density

np = lazy_import("numpy")

DEFAULT_SEED = 20260809
PHD_DELAY_ENV = "TVBOUNDS_PHD_DELAY_CSV"
# the start points: every chain takes x0 and x0p, and s20 and s20p where its certificate does
START_KEYS = ("x0", "x0p", "s20", "s20p")

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
    """``--seed``, else the default, checked by NoiseStream."""
    return NoiseStream(DEFAULT_SEED if args.seed is None else args.seed).seed


def _json_object(text: str, what: str, error) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{what} must hold a JSON object, not a {type(obj).__name__}")
    return obj


def _load_params(args) -> dict:
    params = {}
    if getattr(args, "params_file", None):
        try:
            with open(args.params_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IngestionError(f"cannot open params file: {exc}") from None
        params.update(_json_object(text, "params file", IngestionError))
    if getattr(args, "params", None):
        params.update(_json_object(args.params, "--params", ParameterError))
    # convenience flags override the JSON blob
    for flag in ("a", "sigma", "gap", *START_KEYS):
        v = getattr(args, flag, None)
        if v is not None:
            params[flag] = v
    return params


def _split(family: str, params: dict):
    """The model of ``family`` and a function building its certificate from
    ``params``: the certificate's keyword parameters take their keys, every
    other key but a start is a model field (so an unknown key raises
    ParameterError), and ``gap`` defaults to |x0 - x0'|.  Once the model is
    built, a start key raises ParameterError unless the certificate takes
    it or it is x0 or x0p of a chain, and each start of a chain is checked
    by ``model.start_state`` (ar-d's by its certificate), so a bad one
    fails here, whatever the command.  A float overflow in the
    certificate's formula is a ParameterError naming the family."""
    cls = models.FAMILIES.get(family)
    if cls is None:
        raise ParameterError(f"unknown certificate family '{family}' (choose from {', '.join(models.FAMILIES)})")
    code = cls.certificate.__code__  # its parameter names, self first, then its locals
    keys = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
    fields = {k: v for k, v in params.items() if k not in keys and k not in START_KEYS}
    model = models.model_from_dict({"family": family, "params": fields})
    chain = isinstance(model, models.Family)
    for key in [k for k in START_KEYS if k in params and k not in keys and not (chain and k in ("x0", "x0p"))]:
        raise ParameterError(f"family '{family}' takes no start {key}")
    for x, s2 in (("x0", "s20"), ("x0p", "s20p")):
        if chain and x in params:
            model.start_state(params[x], params.get(s2), (x, s2))
    options = {k: v for k, v in params.items() if k in keys}
    if "gap" in keys and "gap" not in params and "x0" in params and "x0p" in params:
        # a family whose certificate takes gap takes scalar starts or none
        options["gap"] = abs(float(params["x0"]) - float(params["x0p"]))

    def certify() -> bounds.BoundCertificate:
        try:
            return model.certificate(**options)
        except TypeError as exc:
            raise ParameterError(f"bad certificate parameters for family '{family}': {exc}") from None
        except OverflowError:  # a float power past 1e308 in the family's formula
            raise ParameterError(f"the certificate of family '{family}' overflows a float here") from None

    return model, certify


def build_certificate(family: str, params: dict) -> bounds.BoundCertificate:
    """Shared certificate construction for ``certificate``/``iters``/``repro``."""
    return _split(family, params)[1]()


def _emit(text: str, out_path) -> None:
    """Write ``text`` to the file ``out_path`` (stdout when None), the one
    file writer of every command; an OSError becomes a ParameterError."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _check_outputs(args) -> None:
    """Before any work, fail on an ``--out`` file outside a writable
    directory and make the ``repro --curves`` directory."""
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ParameterError(f"cannot write {args.out}: not a file in a writable directory")
    if getattr(args, "curves", None):
        try:
            os.makedirs(args.curves, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot make directory {args.curves}: {exc.strerror or exc}") from None


def cmd_certificate(args) -> int:
    cert = build_certificate(args.family, _load_params(args))
    _emit(json.dumps(_round9(bounds.certificate_to_dict(cert)), indent=2) + "\n", args.out)
    return 0


def cmd_iters(args) -> int:
    cert = build_certificate(args.family, _load_params(args))
    _emit(f"{bounds.iterations_to_epsilon(cert, args.epsilon)}\n", args.out)
    return 0


def _curve(family, params, out, n_max, n_paths, bin_width, stream, workers, bound=True) -> None:
    """Build the chain of ``family`` from ``params``, certify it, simulate
    its TV curve from the starts x0 and x0p and write the CSV to ``out``:
    the one curve path of ``curve`` and ``repro --curves``.  A certificate
    that cannot be built leaves the bound columns empty, with one ``note:``
    line on stderr."""
    from . import tvlab

    model, certify = _split(family, params)
    if not isinstance(model, models.Family):
        raise ParameterError(f"family '{family}' has no chain to simulate")
    for k in ("x0", "x0p"):
        if k not in params:
            raise ParameterError(f"missing --{k}")
    cert = None
    if bound:
        try:
            cert = certify()
        except ParameterError as exc:
            print(f"note: no bound column ({exc})", file=sys.stderr)
    curve = tvlab.simulate_tv_curve(
        model, params["x0"], params["x0p"], n_max=n_max, n_paths=n_paths, bin_width=bin_width, stream=stream,
        certificate=cert, workers=workers, s20=params.get("s20"), s20_prime=params.get("s20p"),
    )
    _emit(curve.to_csv(), out)


def cmd_curve(args) -> int:
    _curve(args.family, _load_params(args), args.out, args.n_max, args.paths, args.bin_width, args.stream,
           args.workers, bound=not args.no_bound)
    return 0


def cmd_dataset_stats(args) -> int:
    from . import data

    if args.builtin:
        for flag in ("csv", "y_column", "x_columns", "prior_lambda"):
            if getattr(args, flag) is not None:
                raise ParameterError(f"--builtin takes no --{flag.replace('_', '-')}")
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
        cert = models.LocationGibbsTau(j, s).certificate(gap=1.0)
        out = {
            "kind": "location",
            "J": j,
            "y_bar": y_bar,
            "S": s,
            "certificate_constants": {
                "D": cert.d,
                "K_closed_form": cert.c,
                "K_mode_height": cert.details["c_mode_height"],
            },
        }
    else:
        a, beta_tilde, c_stat = data.regression_stats(ds)
        k, p = ds.x.shape
        cert = models.RegressionGibbsSigma(k, p, c_stat).certificate(gap=1.0)
        out = {
            "kind": "regression",
            "k": k,
            "p": p,
            "condition_A": float(np.linalg.cond(a)),
            "C_stat": c_stat,
            "beta_tilde": beta_tilde.tolist(),
            "certificate_constants": {"D": cert.d, "K_mode_height": cert.c},
        }
    _emit(json.dumps(_round9(out), indent=2) + "\n", args.out)
    return 0


def reproduction_rows(seed: int, skip_mc: bool = False) -> list:
    """Every built-in worked example: computed value vs recorded reference.

    Rows where the recorded reference is known to disagree with the
    computation carry verdict FLAG (the disagreement is the documented
    finding, not an error).
    """
    from . import data

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
    d_reg = models.RegressionGibbsSigma(333, 4, 26123.0).certificate(gap=1000.0).d
    row("regression D = p/(k+p-2)", 0.0119403, d_reg, 5e-8)
    # the bound row pairs that D with the recorded coefficient
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
    loc = models.LocationGibbsTau(j, s)
    cert_loc = loc.certificate(gap=18.12198)
    row("location K (closed form, girth data)", 13.74027, cert_loc.c, 0.05)
    row(
        "location iterations to TV < 0.01",
        4,
        bounds.iterations_to_epsilon(cert_loc, 0.01),
        0,
        note="gap 18.12198",
    )
    row(
        "location K mode-height variant",
        cert_loc.c * ((j + 1) / s) ** 2,
        cert_loc.details["c_mode_height"],
        1e-9,
        note="closed form and mode height differ by ((J+1)/S)^2; both carried",
        flag=True,
    )

    # location drift constants
    drift = bounds.location_drift_constants(j, s)
    row(
        "location drift lambda (recorded 0.6583702 vs moment product)",
        0.6583702,
        drift.lam,
        1e-7,
        note="moment product E[X^2]E[Y^2] = 3/(J(J-2)); recorded value not reproducible",
        flag=True,
    )
    if not skip_mc:
        row(
            "location drift lambda, Monte-Carlo quadratic fit",
            drift.lam,
            bounds.mc_location_drift_fit(loc, NoiseStream(seed, 771)),
            0.02 * drift.lam,
            note="one shared draw set at all 20 grid values (common random numbers)",
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
    cert_nl = models.NonlinearAR().certificate(gap=1.0, d_squared=0.661)
    row(
        "nonlinear AR bound at n=20 (rate 0.661 pinned)",
        0.00635220727,
        bounds.bound_eval(cert_nl, 20).raw,
        1e-9,
        note="below 0.01 at n=20",
    )

    # AR(1) normal, exact vs bound
    model_ar1, cert_ar1 = _figure_chain("curve-ar1")
    first_exact = min(n for n in range(1, 20) if model_ar1.exact_tv(0.0, 1.0, n) < 0.01)
    row("AR(1) first n with exact TV < 0.01", 6, first_exact, 0)
    row("AR(1) first n with bound < 0.01", 7, bounds.iterations_to_epsilon(cert_ar1, 0.01), 0)

    # independent coordinates in dimension 100
    cert_ind = models.IndependentCoordinates(math.sqrt(2 / (3 * math.pi)), 0.5, 100).certificate(1.0)
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
    cert_ard = models.ARNormalD(a_mat, a_mat).certificate(np.ones(d_mat), np.zeros(d_mat))
    row("vector-AR-100 rate max|eig|", 0.7498791, cert_ard.d, 1e-6)
    row(
        "vector-AR-100 coefficient",
        98782.31,
        cert_ard.c,
        0.01 * 98782.31,
        note="matches with Sigma = A; Sigma = sqrt(A) would give 60579 (convention recorded)",
    )
    row("vector-AR-100 first n with bound < 0.01", 56, bounds.iterations_to_epsilon(cert_ard, 0.01), 0)

    # LARCH squared chain (gap |1.21 - 0.01| = 1.2)
    cert_larch = _figure_chain("curve-larch-squared")[1]
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
    cert_asym = _figure_chain("curve-asym-arch")[1]
    row("asym-ARCH bound at n=7 (= 0.5^7)", 0.5**7, bounds.bound_eval(cert_asym, 7).raw, 1e-15)
    row("asym-ARCH first n with bound < 0.01", 7, bounds.iterations_to_epsilon(cert_asym, 0.01), 0,
        note=f"exact (non-Jensen) D would be {cert_asym.details['d_exact']:.6g}")

    # GARCH
    cert_g = _figure_chain("curve-garch")[1]
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


def _figure_params(stem: str) -> dict:
    """The ``curve`` parameters of the comparison curve ``stem``, starts included."""
    cfg = FIGURE_CURVES[stem]
    return {**cfg["params"], **{k: cfg[k] for k in START_KEYS if k in cfg}}


def _figure_chain(stem: str):
    """The model and certificate of the comparison curve ``stem``, built
    the way ``curve`` builds them."""
    model, certify = _split(FIGURE_CURVES[stem]["family"], _figure_params(stem))
    return model, certify()


def write_figure_curves(directory, seed, n_paths, workers=1):
    """Simulate the four built-in comparison curves (bound vs simulated
    TV) and write one CSV per chain into ``directory``, each as ``curve``
    writes it on stream 9000 + its sorted index."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for idx, (stem, cfg) in enumerate(sorted(FIGURE_CURVES.items())):
        path = os.path.join(directory, stem + ".csv")
        _curve(cfg["family"], _figure_params(stem), path, cfg["n_max"], n_paths, 0.01, NoiseStream(seed, 9000 + idx),
               workers)
        written.append(path)
    return written


def cmd_repro(args) -> int:
    rows = reproduction_rows(args.seed, skip_mc=args.skip_mc)
    name_w = max(len(r["name"]) for r in rows) + 2
    print(f"{'worked example':<{name_w}}{'reference':>14}{'computed':>16}{'verdict':>10}  note")
    for r in rows:
        print(
            f"{r['name']:<{name_w}}{_fmt9(float(r['reference'])):>14}"
            f"{_fmt9(float(r['computed'])):>16}{r['verdict']:>10}  {r['note']}"
        )
    bad = [r for r in rows if r["verdict"] == "MISMATCH"]
    if args.out:
        _emit(json.dumps(_round9(rows), indent=2) + "\n", args.out)
    if args.curves:
        for path in write_figure_curves(args.curves, args.seed, args.paths, args.workers):
            print(f"wrote {path}")
    print(f"\n{len(rows)} checks: {len(bad)} mismatched, "
          f"{sum(r['verdict'] == 'FLAG' for r in rows)} flagged (known discrepancies)")
    return 1 if bad else 0


_WORKERS_HELP = (
    "threads in this process that simulate a curve, one job per 2**17-path chunk and copy; "
    "each extra worker costs one job's working set, not one interpreter, and the output "
    "is byte-identical for any worker count"
)


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {n}")
    return n


def _add_common_cert_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=models.FAMILIES)
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
    p.add_argument("--n-max", type=_at_least_one, default=10)
    p.add_argument("--paths", type=_at_least_one, default=100_000)
    p.add_argument("--bin-width", type=float, default=0.01)
    p.add_argument("--workers", type=_at_least_one, default=os.cpu_count() or 1, help=_WORKERS_HELP)
    p.add_argument("--seed", type=int)
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
    p.set_defaults(fn=cmd_dataset_stats)

    p = sub.add_parser("repro", help="replay the worked examples against reference values")
    p.add_argument("--out", help="also write the table as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--skip-mc", action="store_true", help="skip the Monte-Carlo drift oracle")
    p.add_argument("--curves", metavar="DIR", help="also write the four comparison-curve CSVs here")
    p.add_argument("--paths", type=_at_least_one, default=100_000, help="paths per comparison curve")
    p.add_argument("--workers", type=_at_least_one, default=1, help=_WORKERS_HELP)
    p.set_defaults(fn=cmd_repro)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args:  # curve and repro: a bad seed fails before any file is made
            args.seed = _seed_from(args)
        if "stream_id" in args:  # curve: a bad stream id, too, fails before the certificate
            args.stream = NoiseStream(args.seed, args.stream_id)
        _check_outputs(args)
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
