"""Command-line surface: step-size tables, runs, predictions, sampling reports.

Commands
--------
gamma-max   step-size thresholds, per sampling scheme
run         Monte Carlo trajectories as CSV
predict     closed-form risk curves as CSV
sampling    scheme comparison (gains, thresholds, measured risks)
plot        render a run/predict CSV as a log-log SVG
ingest      parse a data file and print its summary report

Configuration comes from flags plus an optional ``key = value`` manifest
file (flags override the file).  Outputs are deterministic for a given
manifest and master seed.  Exit status: 0 success, 1 usage error, 2 data
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import asymptotics, engine, sampling, stepsize
from .dataio import export_csv, ingest
from .errors import (
    DataFormatError,
    DimensionError,
    SchemeError,
    SingularOperatorError,
    SpecError,
)
from .moments import ProblemSpec, atom_coords, compute_moments
from .svg import Series, render_loglog_svg

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

SCHEME_NAMES = ("uniform", "bias-opt", "variance-opt", "class-weighted")
MODES = engine.MODES + ("all",)
FORMATS = ("csv-dense", "csv", "libsvm-sparse", "libsvm")


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _number(kind, text: str, what: str):
    """``kind(text)`` (int or float); a usage error when the text is not one."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{what} must be {noun}, got {text!r}") from None


def parse_spec_descriptor(text: str, seed: int = 0) -> ProblemSpec:
    """Build a synthetic spec from a compact descriptor.

    Grammar: ``gaussian:key=value,...`` with keys d (required), spectrum
    (``uniform`` | ``1/i`` | colon-separated eigenvalues), sigma, wstar and
    w0 (``zeros`` | ``ones`` | ``random``), seed (for the random vectors).
    Example: ``gaussian:d=25,spectrum=1/i,sigma=1``.
    """
    name, _, rest = text.partition(":")
    if name != "gaussian":
        raise UsageError(f"unknown spec family {name!r} (only 'gaussian' is built in)")
    opts = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise UsageError(f"bad spec option {item!r}, expected key=value")
            k, v = item.split("=", 1)
            opts[k.strip()] = v.strip()
    if "d" not in opts:
        raise UsageError("gaussian spec needs d=<dim>")
    d = _number(int, opts["d"], "spec option d")
    if d < 1:
        raise UsageError(f"spec option d must be at least 1, got {d}")
    spectrum = opts.get("spectrum", "uniform")
    if spectrum == "uniform":
        eig = np.ones(d)
    elif spectrum == "1/i":
        eig = 1.0 / np.arange(1, d + 1)
    else:
        eig = np.array([_number(float, v, "spectrum value") for v in spectrum.split(":")])
        if len(eig) != d:
            raise UsageError(f"spectrum lists {len(eig)} values for d={d}")
    if "seed" in opts:
        seed = _number(int, opts["seed"], "spec option seed")
    rng = np.random.default_rng(seed)

    def vec(kind: str) -> np.ndarray:
        if kind == "zeros":
            return np.zeros(d)
        if kind == "ones":
            return np.ones(d)
        if kind == "random":
            return rng.standard_normal(d)
        raise UsageError(f"vector spec must be zeros|ones|random, got {kind!r}")

    w_star = vec(opts.get("wstar", "random"))
    w0 = vec(opts.get("w0", "zeros"))
    sigma = _number(float, opts.get("sigma", "1.0"), "spec option sigma")
    return ProblemSpec.gaussian(np.diag(eig), w_star=w_star, w0=w0, sigma=sigma)


def _load_manifest(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"manifest file {path!r} does not exist")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"manifest line {lineno}: expected key = value")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


_LIST_KEYS = {"gamma", "scheme"}
_INT_KEYS = {"n_max", "points", "replicates", "seed", "dim"}
# Manifest values skip argparse, so the flags' choices are checked here.
_CHOICE_KEYS = {"mode": MODES, "format": FORMATS, "scheme": SCHEME_NAMES}


def _check_choice(key: str, value: str) -> None:
    choices = _CHOICE_KEYS.get(key)
    if choices is not None and value not in choices:
        raise UsageError(f"manifest key {key!r} must be one of "
                         f"{', '.join(choices)}, got {value!r}")


def _merge_manifest(args: argparse.Namespace) -> None:
    if not getattr(args, "manifest", None):
        return
    values = _load_manifest(args.manifest)
    for key, raw in values.items():
        if not hasattr(args, key):
            raise UsageError(f"manifest key {key!r} is not a recognized option")
        if getattr(args, key) is not None:
            continue  # flags override the manifest
        if key in _LIST_KEYS:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if key == "gamma":
                parts = [_number(float, p, f"manifest key {key!r}") for p in parts]
            for part in parts:
                _check_choice(key, part)
            setattr(args, key, parts)
        elif key in _INT_KEYS:
            setattr(args, key, _number(int, raw, f"manifest key {key!r}"))
        else:
            _check_choice(key, raw)
            setattr(args, key, raw)


def _resolve_spec(args) -> ProblemSpec:
    if getattr(args, "data", None):
        if not os.path.exists(args.data):
            raise DataFormatError(f"data file {args.data!r} does not exist")
        spec, _ = ingest(args.data, args.format or "csv-dense", dim=getattr(args, "dim", None))
        return spec
    if getattr(args, "spec", None):
        stray = [key for key in ("format", "dim") if getattr(args, key, None) is not None]
        if stray:
            raise UsageError(f"--spec takes no {' or '.join(stray)} (given by flag or "
                             "manifest); those describe a --data file")
        return parse_spec_descriptor(args.spec, seed=args.seed or 0)
    raise UsageError("one of --spec or --data is required")


def _count(args, key: str, default: int) -> int:
    """A count option: ``default`` when unset, a usage error below 1."""
    value = default if getattr(args, key) is None else getattr(args, key)
    if value < 1:
        raise UsageError(f"--{key.replace('_', '-')} must be positive")
    return value


def _n_schedule(args) -> list[int]:
    n_max, points = _count(args, "n_max", 1000), _count(args, "points", 20)
    lo = min(10, n_max)
    grid = np.unique(np.round(np.logspace(np.log10(lo), np.log10(n_max), points)).astype(int))
    sched = [int(v) for v in grid if v >= 1]
    if not sched or sched[-1] != n_max:
        sched.append(n_max)
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise UsageError("n schedule must be strictly increasing")
    return sched


def _scheme_cells(spec: ProblemSpec, names: list[str]):
    """Resolve scheme names into (name, spec_for_runs, scheme_or_None)."""
    cells = []
    for name in names:
        if name == "uniform":
            cells.append((name, spec, None))
        elif name == "bias-opt":
            cells.append((name, spec, sampling.optimal_bias_scheme(spec)))
        elif name == "variance-opt":
            cells.append((name, spec, sampling.optimal_variance_scheme(spec)))
        elif name == "class-weighted":
            cells.append((name, engine.class_weighted_spec(spec), None))
        else:
            raise UsageError(f"unknown scheme {name!r} (choose from {', '.join(SCHEME_NAMES)})")
    return cells


def _cell_moments(spec: ProblemSpec, run_spec: ProblemSpec, scheme, coords):
    """Moments of one scheme cell; ``coords`` is ``atom_coords(spec)``, shared
    by every atom Gram on ``spec`` itself."""
    if scheme is None:
        return compute_moments(run_spec, coords if run_spec is spec else None)
    return sampling.resampled_moments(spec, scheme, coords=coords)


def _run_grid(grid) -> list:
    """Trajectories of ``(key, config, run_spec, scheme)`` cells, in order.

    Cells on one spec, whatever their schemes, are stepped in one lockstep
    engine call; a derived spec (class-weighted) gets a call of its own.
    """
    by_spec = {}
    for k, cell in enumerate(grid):
        by_spec.setdefault(id(cell[2]), []).append(k)
    trajs = [None] * len(grid)
    for ks in by_spec.values():
        runs = engine.run_cells(grid[ks[0]][2], [grid[k][1] for k in ks],
                                scheme=[grid[k][3] for k in ks])
        for k, traj in zip(ks, runs):
            trajs[k] = traj
    return trajs


def cmd_gamma_max(args) -> int:
    spec = _resolve_spec(args)
    cells = _scheme_cells(spec, args.scheme or ["uniform"])
    coords = atom_coords(spec) if any(cell[1] is spec for cell in cells) else None
    rows = []
    for name, run_spec, scheme in cells:
        report = stepsize.step_size_report(_cell_moments(spec, run_spec, scheme, coords))
        g_max = report.gamma_max
        rows.append([
            name,
            g_max,
            report.gamma_max_det,
            report.trace_bound,
            report.mu,
            report.mu_t(g_max / 2.0),
        ])
        # Free this scheme's moments and spectral frame before the next is built.
        del report
    header = ["scheme", "gamma_max", "gamma_max_det", "trace_bound", "mu",
              "mu_T_at_half_gamma_max"]
    for row in rows:
        print("  ".join(f"{h}={_fmt(v)}" for h, v in zip(header, row)))
    if args.out:
        _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _resolve_spec(args)
    gammas = args.gamma
    if not gammas:
        raise UsageError("--gamma is required for run")
    schedule = _n_schedule(args)
    names = args.scheme or ["uniform"]
    replicates = _count(args, "replicates", 100)
    modes = [args.mode] if args.mode else ["total"]
    if modes == ["all"]:
        modes = list(engine.MODES)
    configs = [
        engine.RunConfig(gamma=gamma, n=schedule[-1], replicates=replicates, mode=mode,
                         seed=args.seed or 0, record_at=tuple(schedule))
        for gamma in gammas
        for mode in modes
    ]
    cells = _scheme_cells(spec, names)
    grid = [(name, config, run_spec, scheme)
            for name, run_spec, scheme in cells for config in configs]
    trajs = _run_grid(grid)
    rows = []
    for (name, config, _, _), traj in zip(grid, trajs):
        gamma, mode = config.gamma, config.mode
        for i, n in enumerate(traj.iterations):
            rows.append([int(n), gamma, name, mode, traj.risk[i], traj.standard_error[i], ""])
        if traj.diverged:
            rows.append([traj.diverged_at, gamma, name, mode, "", "", "diverged"])
            print(
                f"warning: gamma={gamma:g} scheme={name} mode={mode} diverged at "
                f"n={traj.diverged_at} (replicate {traj.diverged_replicate}, "
                f"norm {traj.diverged_norm:.3g})",
                file=sys.stderr,
            )
    header = ["n", "gamma", "scheme", "mode", "risk", "stderr", "flag"]
    _write_csv(args.out or "-", header, rows)
    return EXIT_OK


def cmd_predict(args) -> int:
    spec = _resolve_spec(args)
    gammas = args.gamma
    if not gammas:
        raise UsageError("--gamma is required for predict")
    schedule = _n_schedule(args)
    moments = compute_moments(spec)
    header = ["n", "bias_exact", "bias_leading", "bias_bound", "variance_exact",
              "variance_leading", "variance_bound", "small_gamma_bias",
              "small_gamma_variance"]
    out_paths = []
    for gi, gamma in enumerate(gammas):
        model = asymptotics.CovarianceModel(moments, gamma)
        rows = []
        overflowed = False
        for n in schedule:
            rep = model.report(n)
            bias_ex, var_ex = rep.bias_risk_exact, rep.variance_risk_exact
            if not np.isfinite(bias_ex):
                bias_ex, overflowed = None, True
            if var_ex is not None and not np.isfinite(var_ex):
                var_ex, overflowed = None, True
            rows.append([
                n,
                bias_ex,
                rep.bias_risk_leading,
                rep.bias_remainder_bound,
                var_ex,
                rep.variance_risk_leading,
                rep.variance_remainder_bound,
                rep.small_gamma_bias,
                rep.small_gamma_variance,
            ])
        # Stability depends on gamma alone: every report of it agrees.
        if rep.bias_risk_leading is None:
            print(
                f"warning: gamma={gamma:g} is at or beyond the stability threshold; "
                "leading-term columns are left empty",
                file=sys.stderr,
            )
        if not model.t_invertible:
            print(
                f"warning: gamma={gamma:g} makes T singular; the variance_exact column "
                "is left empty",
                file=sys.stderr,
            )
        # Only this gamma's rows use its model: free its D x D arrays before the next.
        del model
        if overflowed:
            print(
                f"warning: gamma={gamma:g} exact values overflowed at large n; "
                "those cells are left empty",
                file=sys.stderr,
            )
        if args.out and args.out != "-":
            path = args.out
            if len(gammas) > 1:
                root, ext = os.path.splitext(args.out)
                path = f"{root}_g{gi}{ext or '.csv'}"
            out_paths.append(path)
            _write_csv(path, header, rows)
        else:
            _write_csv("-", header, rows)
    for path in out_paths:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def cmd_sampling(args) -> int:
    if args.mode == "all":
        raise UsageError("sampling measures one mode (bias, variance or total), not all")
    if args.gamma and len(args.gamma) > 1:
        raise UsageError("sampling takes at most one --gamma")
    spec = _resolve_spec(args)
    names = args.scheme or ["uniform", "bias-opt", "variance-opt"]
    schedule = _n_schedule(args)
    measure_at = sorted({schedule[len(schedule) // 2], schedule[-1]})
    replicates = _count(args, "replicates", 200)
    coords = atom_coords(spec)
    base_moments = compute_moments(spec, coords)
    _, base_var_limit = asymptotics.small_gamma_equivalents(base_moments, 1.0, 1)
    base_gamma_max = stepsize.gamma_max(base_moments)
    header = (["scheme", "variance_gain", "gamma_max", "predicted_bias_gain"]
              + [f"measured_risk_n{n}" for n in measure_at]
              + [f"measured_stderr_n{n}" for n in measure_at])
    rows, grid = [], []
    for name in names:
        try:
            cells = _scheme_cells(spec, [name])
        except SchemeError as exc:
            print(f"warning: scheme {name!r} skipped: {exc}", file=sys.stderr)
            continue
        name, run_spec, scheme = cells[0]
        if scheme is None and run_spec is spec:
            m = base_moments
        else:
            m = _cell_moments(spec, run_spec, scheme, coords)
        g_max = stepsize.gamma_max(m)
        _, var_limit = asymptotics.small_gamma_equivalents(m, 1.0, 1)
        gain = var_limit / base_var_limit if base_var_limit > 0 else 1.0
        pred_bias_gain = sampling.bias_gain(base_gamma_max, g_max)
        gamma_run = (args.gamma[0] if args.gamma else 0.5 * g_max)
        config = engine.RunConfig(
            gamma=gamma_run, n=measure_at[-1], replicates=replicates,
            mode=args.mode or "total", seed=args.seed or 0,
            record_at=tuple(measure_at),
        )
        rows.append([name, gain, g_max, pred_bias_gain])
        try:
            engine.check_stream(run_spec, scheme)
        except SchemeError as exc:
            print(f"warning: scheme {name!r} not simulated, measured columns left empty: "
                  f"{exc}", file=sys.stderr)
        else:
            grid.append((len(rows) - 1, config, run_spec, scheme))
    del coords  # the engine does not need the (N, D) array
    measured = {cell[0]: traj for cell, traj in zip(grid, _run_grid(grid))}
    for k, row in enumerate(rows):
        traj = measured.get(k)
        risk_by_n = err_by_n = {}
        if traj is not None:
            risk_by_n = dict(zip((int(v) for v in traj.iterations), traj.risk))
            err_by_n = dict(zip((int(v) for v in traj.iterations), traj.standard_error))
        row += ([risk_by_n.get(n) for n in measure_at]
                + [err_by_n.get(n) for n in measure_at])
    _write_csv(args.out or "-", header, rows)
    return EXIT_OK


def cmd_plot(args) -> int:
    if not args.csv or not os.path.exists(args.csv):
        raise DataFormatError(f"csv file {args.csv!r} does not exist")
    with open(args.csv, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError("csv file is empty")
    header = lines[0].split(",")
    if "n" not in header:
        raise DataFormatError("csv needs an 'n' column")
    cols = {name: i for i, name in enumerate(header)}
    records = [ln.split(",") for ln in lines[1:]]
    series: list[Series] = []
    if {"gamma", "scheme", "mode", "risk"} <= set(cols):
        keyed: dict[tuple, Series] = {}
        for rec in records:
            risk = rec[cols["risk"]]
            if risk == "":
                continue
            key = (rec[cols["gamma"]], rec[cols["scheme"]], rec[cols["mode"]])
            if key not in keyed:
                label = f"gamma={key[0]} {key[1]} {key[2]}"
                keyed[key] = Series(label=label, xs=[], ys=[])
                series.append(keyed[key])
            keyed[key].xs.append(float(rec[cols["n"]]))
            keyed[key].ys.append(float(risk))
    else:
        for name, idx in cols.items():
            if name == "n":
                continue
            xs = [float(r[cols["n"]]) for r in records if idx < len(r) and r[idx] != ""]
            ys = [float(r[idx]) for r in records if idx < len(r) and r[idx] != ""]
            if xs:
                series.append(Series(label=name, xs=xs, ys=ys))
    render_loglog_svg(series, args.out or "plot.svg",
                      title=os.path.basename(args.csv))
    return EXIT_OK


def cmd_ingest(args) -> int:
    if not args.data:
        raise UsageError("--data is required for ingest")
    if not os.path.exists(args.data):
        raise DataFormatError(f"data file {args.data!r} does not exist")
    spec, report = ingest(args.data, args.format or "csv-dense", dim=args.dim)
    for line in report.lines():
        print(line)
    if args.out:
        export_csv(spec, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avlms",
        description="Averaged constant-step-size LMS analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gamma=True):
        p.add_argument("--spec", help="synthetic spec descriptor, e.g. gaussian:d=25,spectrum=1/i,sigma=1")
        p.add_argument("--data", help="path to a data file")
        p.add_argument("--format", choices=list(FORMATS),
                       help="data file format (default csv-dense)")
        p.add_argument("--dim", type=int, help="declared dimension for sparse files")
        if gamma:
            p.add_argument("--gamma", type=float, action="append", help="step-size (repeatable)")
        p.add_argument("--n-max", type=int, dest="n_max", help="largest iterate count")
        p.add_argument("--points", type=int, help="points in the log-spaced n schedule")
        p.add_argument("--replicates", type=int, help="Monte Carlo replicates")
        p.add_argument("--mode", choices=list(MODES))
        p.add_argument("--scheme", action="append", choices=list(SCHEME_NAMES),
                       help="sampling scheme (repeatable)")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--manifest", help="key = value manifest file; flags override it")

    common(sub.add_parser("gamma-max", help="step-size thresholds per scheme"), gamma=False)
    common(sub.add_parser("run", help="Monte Carlo trajectories to CSV"))
    common(sub.add_parser("predict", help="closed-form risk curves to CSV"))
    common(sub.add_parser("sampling", help="sampling-scheme comparison CSV"))
    p_plot = sub.add_parser("plot", help="render a CSV as a log-log SVG")
    p_plot.add_argument("csv", help="CSV produced by run or predict")
    p_plot.add_argument("--out", help="output SVG path (default plot.svg)")
    common(sub.add_parser("ingest", help="parse a data file and print its report"), gamma=False)
    return parser


_COMMANDS = {
    "gamma-max": cmd_gamma_max,
    "run": cmd_run,
    "predict": cmd_predict,
    "sampling": cmd_sampling,
    "plot": cmd_plot,
    "ingest": cmd_ingest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _merge_manifest(args)
        if not all(0 < gamma < np.inf for gamma in getattr(args, "gamma", None) or ()):
            raise UsageError("gamma values must be positive and finite")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SingularOperatorError, SchemeError, SpecError, DimensionError,
            np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
