"""Command-line surface: step-size tables, runs, predictions, sampling reports.

Commands
--------
gamma-max   step-size thresholds, per sampling scheme
run         Monte Carlo trajectories as CSV
predict     closed-form risk curves as CSV
sampling    scheme comparison (gains, thresholds, measured risks)
plot        render a run/predict CSV as a log-log SVG
ingest      parse a data file and print its summary report

Each command is configured by its flags alone; a file of flags is read by
the shell (``avlms run $(cat run.args)``).  A command takes only the
options it reads, and at most one of --spec and --data.  Every usage error
is one ``error: ...`` line on stderr.  Outputs are deterministic for given
flags and master seed.
Exit status: 0 success, 1 usage error, 2 data error, 3 numerical error,
4 out of memory.  A reader that closes stdout early (``avlms predict ...
--out - | head -1``) is not an error: the command stops writing, stdout
is pointed at os.devnull and the status is 0.

:func:`main` may be called any number of times in one process: the
argument parser is built once, and each call parses into a fresh
namespace, so nothing carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import asymptotics, engine, sampling, stepsize
from .dataio import FORMATS, export_csv, ingest
from .errors import (
    DataFormatError,
    DimensionError,
    SchemeError,
    SingularOperatorError,
    SpecError,
)
from .moments import ProblemSpec
from .operators import MAX_DIM
from .svg import Series, render_loglog_svg

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC, EXIT_MEMORY = 0, 1, 2, 3, 4

MODES = engine.MODES + ("all",)
# Each scheme name and the builder of its scheme on a spec (None: uniform).
SCHEMES = {
    "uniform": lambda spec: None,
    "bias-opt": sampling.optimal_bias_scheme,
    "variance-opt": sampling.optimal_variance_scheme,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise UsageError: one ``error:`` line, like any other.
    A flag is its whole name: no prefix abbreviates it.
    Sub-parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


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
    """``kind(text)`` (int or float); a usage error when the text is not one,
    or is not finite."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{what} must be {noun}, got {text!r}") from None
    if kind is float and not np.isfinite(value):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return value


def _checked(kind, what: str, rule: str, ok):
    """A parser of one option's text (an argparse ``type``): ``kind(text)``
    when ``ok`` holds for it, else a usage error naming ``what`` and ``rule``."""

    def parse(text: str):
        value = _number(kind, text, what)
        if not ok(value):
            raise UsageError(f"{what} must be {rule}, got {value}")
        return value

    return parse


_SPEC_KEYS = ("d", "spectrum", "sigma", "wstar", "w0", "seed")


def parse_spec_descriptor(text: str, seed: int = 0) -> ProblemSpec:
    """Build a synthetic spec from a compact descriptor.

    Grammar: ``gaussian:key=value,...`` with keys d (required), spectrum
    (``uniform`` | ``1/i`` | colon-separated eigenvalues), sigma, wstar and
    w0 (``zeros`` | ``ones`` | ``random``), seed (for the random vectors),
    each at most once.  Example: ``gaussian:d=25,spectrum=1/i,sigma=1``.
    """
    name, _, rest = text.partition(":")
    if name != "gaussian":
        raise UsageError(f"unknown spec family {name!r} (only 'gaussian' is built in)")
    opts = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise UsageError(f"bad spec option {item!r}, expected key=value")
            k, v = (part.strip() for part in item.split("=", 1))
            if k not in _SPEC_KEYS or k in opts:
                raise UsageError(f"{'repeated' if k in opts else 'unknown'} spec option {k!r} "
                                 f"(the keys are {', '.join(_SPEC_KEYS)})")
            opts[k] = v
    if "d" not in opts:
        raise UsageError("gaussian spec needs d=<dim>")
    d = _checked(int, "spec option d", f"from 1 to {MAX_DIM}",
                 lambda d: 1 <= d <= MAX_DIM)(opts["d"])
    spectrum = opts.get("spectrum", "uniform")
    if spectrum == "uniform":
        eig = np.ones(d)
    elif spectrum == "1/i":
        eig = 1.0 / np.arange(1, d + 1)
    else:
        eig = np.array([_number(float, v, "spectrum value") for v in spectrum.split(":")])
        if len(eig) != d:
            raise UsageError(f"spectrum lists {len(eig)} values for d={d}")
        if eig.min() <= 0:
            raise UsageError(f"spectrum values must be positive, got {spectrum!r}")
    if "seed" in opts:
        seed = _number(int, opts["seed"], "spec option seed")
    if seed < 0:
        raise UsageError(f"spec seed must be nonnegative, got {seed}")
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
    sigma = _checked(float, "spec option sigma", "nonnegative",
                     lambda s: s >= 0)(opts.get("sigma", "1.0"))
    return ProblemSpec.gaussian(np.diag(eig), w_star=w_star, w0=w0, sigma=sigma)


def _ingest(args):
    """The spec and report of the ``--data`` file, read as ``--format``."""
    if not os.path.exists(args.data):
        raise DataFormatError(f"data file {args.data!r} does not exist")
    return ingest(args.data, args.format or FORMATS[0])


def _resolve_spec(args) -> ProblemSpec:
    if args.spec and args.data:
        raise UsageError("give one of --spec or --data, not both")
    if args.data:
        return _ingest(args)[0]
    if args.spec:
        if args.format is not None:
            raise UsageError("--spec takes no --format; a format describes a --data file")
        return parse_spec_descriptor(args.spec, seed=args.seed or 0)
    raise UsageError("one of --spec or --data is required")


def _n_max(text: str) -> int:
    """``--n-max``: positive, and at most the int64 range the schedule is cast to."""
    n_max = _checked(int, "--n-max", "positive", lambda n: n >= 1)(text)
    top = np.iinfo(np.int64).max
    if n_max > top:
        raise UsageError(f"--n-max must be at most {top}")
    return n_max


def _n_schedule(args) -> list[int]:
    n_max, points = args.n_max or 1000, args.points or 20
    if points == 1:
        return [n_max]
    lo = min(10, n_max)
    grid = np.unique(np.round(np.logspace(np.log10(lo), np.log10(n_max), points)))
    # Below n_max every grid point fits an int64; n_max itself closes the schedule.
    sched = [int(v) for v in grid if 1 <= v < n_max]
    if not sched or sched[-1] != n_max:
        sched.append(n_max)
    return sched


def _scheme_cells(spec: ProblemSpec, names: list[str]):
    """Resolve scheme names into (name, scheme_or_None) pairs; a scheme that
    cannot apply to ``spec`` raises ``SchemeError``."""
    return [(name, SCHEMES[name](spec)) for name in names]


def _warn_diverged(name: str, cell, traj) -> None:
    """Warn on stderr, in one line, when ``traj``, the run of ``cell`` under
    the scheme named ``name``, diverged."""
    if traj.diverged:
        print(f"warning: gamma={cell.gamma:g} scheme={name} mode={cell.mode} diverged at "
              f"n={traj.diverged_at} (replicate {traj.diverged_replicate}, "
              f"norm {traj.diverged_norm:.3g})", file=sys.stderr)


def cmd_gamma_max(args) -> int:
    spec = _resolve_spec(args)
    cells = _scheme_cells(spec, args.scheme or ["uniform"])
    moments = sampling.moment_sets(spec, [scheme for _, scheme in cells])
    rows = []
    for (name, _), m in zip(cells, moments):
        g_max = stepsize.gamma_max(m)
        rows.append([
            name,
            g_max,
            stepsize.gamma_max_det(m),
            stepsize.trace_step_bound(m),
            m.mu,
            stepsize.smallest_t_eigenvalue(m, g_max / 2.0),
        ])
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
    replicates = args.replicates or 100
    modes = [args.mode] if args.mode else ["total"]
    if modes == ["all"]:
        modes = list(engine.MODES)
    grid = [(name, engine.Cell(gamma, mode, scheme))
            for name, scheme in _scheme_cells(spec, names) for gamma in gammas for mode in modes]
    trajs = engine.run_cells(spec, [cell for _, cell in grid], schedule[-1], replicates,
                             args.seed or 0, schedule)
    rows = []
    for (name, cell), traj in zip(grid, trajs):
        gamma, mode = cell.gamma, cell.mode
        for i, n in enumerate(traj.iterations):
            rows.append([int(n), gamma, name, mode, traj.risk[i], traj.standard_error[i], ""])
        if traj.diverged:
            rows.append([traj.diverged_at, gamma, name, mode, "", "", "diverged"])
        _warn_diverged(name, cell, traj)
    header = ["n", "gamma", "scheme", "mode", "risk", "stderr", "flag"]
    _write_csv(args.out or "-", header, rows)
    return EXIT_OK


def cmd_predict(args) -> int:
    spec = _resolve_spec(args)
    gammas = args.gamma
    if not gammas:
        raise UsageError("--gamma is required for predict")
    schedule = _n_schedule(args)
    moments = sampling.moment_sets(spec, [None])[0]
    header = ["n", "bias_exact", "bias_leading", "bias_bound", "variance_exact",
              "variance_leading", "variance_bound", "small_gamma_bias",
              "small_gamma_variance"]
    out_paths = []
    for gi, gamma in enumerate(gammas):
        # A gamma near the float range overflows T and its powers: the cells
        # that overflow are left empty and warned of below, in one line.
        with np.errstate(over="ignore", invalid="ignore"):
            model = asymptotics.CovarianceModel(moments, gamma)
            horizons = model.risks(schedule)
        stable = model.stable
        rows = []
        overflowed = False
        for n, risks in zip(schedule, horizons):
            bias_ex, var_ex = risks.bias_exact, risks.variance_exact
            if not np.isfinite(bias_ex):
                bias_ex, overflowed = None, True
            if var_ex is not None and not np.isfinite(var_ex):
                var_ex, overflowed = None, True
            rows.append([
                n,
                bias_ex,
                risks.bias_leading,
                model.bias_remainder_bound(n) if stable else None,
                var_ex,
                risks.variance_leading,
                model.variance_remainder_bound(n) if stable else None,
                *asymptotics.small_gamma_equivalents(moments, gamma, n),
            ])
        if not stable:
            print(
                f"warning: gamma={gamma:g} is at or beyond the stability threshold; "
                "leading-term columns are left empty",
                file=sys.stderr,
            )
        if not np.isfinite(model.tau).all():
            print(
                f"warning: gamma={gamma:g} overflows T; the variance_exact column is left empty",
                file=sys.stderr,
            )
        elif not model.t_invertible:
            print(
                f"warning: gamma={gamma:g} makes T singular; the variance_exact column "
                "is left empty",
                file=sys.stderr,
            )
        # Only this gamma's rows use its model: free its T eigenvectors (D x D on
        # an atom set) before the next.
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
    replicates = args.replicates or 200
    header = (["scheme", "variance_gain", "gamma_max", "predicted_bias_gain"]
              + [f"measured_risk_n{n}" for n in measure_at]
              + [f"measured_stderr_n{n}" for n in measure_at])
    schemes, simulated = [], []
    for name in names:
        try:
            schemes += _scheme_cells(spec, [name])
        except SchemeError as exc:
            print(f"warning: scheme {name!r} skipped: {exc}", file=sys.stderr)
            continue
        try:
            engine.check_stream(spec, schemes[-1][1])
        except SchemeError as exc:
            print(f"warning: scheme {name!r} not simulated, measured columns left empty: "
                  f"{exc}", file=sys.stderr)
            simulated.append(False)
        else:
            simulated.append(True)
    base, *moments = sampling.moment_sets(spec, [None, *(scheme for _, scheme in schemes)])
    base_gamma_max, base_var_limit = stepsize.gamma_max(base), base.hinv_traces[1]
    rows, grid = [], []
    for k, ((name, scheme), m) in enumerate(zip(schemes, moments)):
        g_max, var_limit = stepsize.gamma_max(m), m.hinv_traces[1]
        gain = var_limit / base_var_limit if base_var_limit > 0 else 1.0
        gamma_run = (args.gamma[0] if args.gamma else 0.5 * g_max)
        cell = engine.Cell(gamma_run, args.mode or "total", scheme)
        rows.append([name, gain, g_max, (base_gamma_max / g_max) ** 2])
        if simulated[k]:
            grid.append((k, cell))
    measured = {}
    if grid:  # run_cells refuses an empty grid
        trajs = engine.run_cells(spec, [cell for _, cell in grid], measure_at[-1], replicates,
                                 args.seed or 0, measure_at)
        measured = {k: (cell, traj) for (k, cell), traj in zip(grid, trajs)}
    for k, row in enumerate(rows):
        risk_by_n = err_by_n = {}
        if k in measured:
            cell, traj = measured[k]
            _warn_diverged(row[0], cell, traj)
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
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise DataFormatError("csv file is empty")
    header = lines[0][1].split(",")
    if "n" not in header:
        raise DataFormatError("csv needs an 'n' column")
    cols = {name: i for i, name in enumerate(header)}
    # Short rows read as empty cells.
    records = [(k, ln.split(",") + [""] * len(header)) for k, ln in lines[1:]]

    def number(line: int, rec: list[str], name: str) -> float:
        try:
            return float(rec[cols[name]])
        except ValueError:
            raise DataFormatError(f"column {name!r} holds {rec[cols[name]]!r}, not a number",
                                  line=line) from None

    series: list[Series] = []
    if {"gamma", "scheme", "mode", "risk"} <= set(cols):
        keyed: dict[tuple, Series] = {}
        for line, rec in records:
            if rec[cols["risk"]] == "":
                continue
            key = (rec[cols["gamma"]], rec[cols["scheme"]], rec[cols["mode"]])
            if key not in keyed:
                label = f"gamma={key[0]} {key[1]} {key[2]}"
                keyed[key] = Series(label=label, xs=[], ys=[])
                series.append(keyed[key])
            keyed[key].xs.append(number(line, rec, "n"))
            keyed[key].ys.append(number(line, rec, "risk"))
    else:
        for name, idx in cols.items():
            rows = [(line, rec) for line, rec in records if rec[idx] != ""]
            if name != "n" and rows:
                series.append(Series(label=name, xs=[number(*row, "n") for row in rows],
                                     ys=[number(*row, name) for row in rows]))
    render_loglog_svg(series, args.out or "plot.svg",
                      title=os.path.basename(args.csv))
    return EXIT_OK


def cmd_ingest(args) -> int:
    if not args.data:
        raise UsageError("--data is required for ingest")
    spec, report = _ingest(args)
    for line in report.lines():
        print(line)
    if args.out:
        export_csv(spec, args.out)
        if args.out != "-":
            print(f"wrote {args.out}")
    return EXIT_OK


# Every option of the data commands: its flag and add_argument keywords.
_OPTIONS = {
    "--spec": dict(help="synthetic spec descriptor, e.g. gaussian:d=25,spectrum=1/i,sigma=1"),
    "--data": dict(help="path to a data file"),
    "--format": dict(choices=FORMATS, help=f"data file format (default {FORMATS[0]})"),
    "--gamma": dict(type=_checked(float, "--gamma", "positive", lambda g: g > 0),
                    action="append", help="step-size (repeatable)"),
    "--n-max": dict(type=_n_max, help="largest iterate count"),
    "--points": dict(type=_checked(int, "--points", "positive", lambda n: n >= 1),
                     help="points in the log-spaced n schedule"),
    "--replicates": dict(type=_checked(int, "--replicates", "positive", lambda n: n >= 1),
                         help="Monte Carlo replicates"),
    "--mode": dict(choices=MODES),
    "--scheme": dict(action="append", choices=SCHEMES, help="sampling scheme (repeatable)"),
    "--seed": dict(type=_checked(int, "--seed", "nonnegative", lambda s: s >= 0),
                   help="master seed (default 0)"),
    "--out": dict(help="output path ('-' for stdout)"),
}
_SPEC_OPTIONS = ("--spec", "--data", "--format")
# The options each data command reads; any other is a usage error.
_COMMAND_OPTIONS = {
    "gamma-max": (*_SPEC_OPTIONS, "--scheme", "--seed", "--out"),
    "run": tuple(_OPTIONS),
    "predict": (*_SPEC_OPTIONS, "--gamma", "--n-max", "--points", "--seed", "--out"),
    "sampling": tuple(_OPTIONS),
    "ingest": ("--data", "--format", "--out"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: the one place that
    says what each option accepts.  Parsing leaves it unchanged: every
    ``parse_args`` call fills a new namespace and copies the append
    options' defaults."""
    parser = _Parser(
        prog="avlms",
        description="Averaged constant-step-size LMS analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> None:
        p = sub.add_parser(name, help=text)
        for flag in _COMMAND_OPTIONS[name]:
            p.add_argument(flag, **_OPTIONS[flag])

    command("gamma-max", "step-size thresholds per scheme")
    command("run", "Monte Carlo trajectories to CSV")
    command("predict", "closed-form risk curves to CSV")
    command("sampling", "sampling-scheme comparison CSV")
    p_plot = sub.add_parser("plot", help="render a CSV as a log-log SVG")
    p_plot.add_argument("csv", help="CSV produced by run or predict")
    p_plot.add_argument("--out", help="output SVG path (default plot.svg)")
    command("ingest", "parse a data file and print its report")
    return parser


_COMMANDS = {
    "gamma-max": cmd_gamma_max,
    "run": cmd_run,
    "predict": cmd_predict,
    "sampling": cmd_sampling,
    "plot": cmd_plot,
    "ingest": cmd_ingest,
}


def _silence_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that flushing what
    is left in its buffer (at exit, say) writes nowhere instead of raising
    BrokenPipeError again.  A stdout without a descriptor (an in-process
    capture) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # --help has printed; a bad argument raises UsageError
            return EXIT_OK
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader of stdout has gone: what it did not read is dropped.
        _silence_stdout()
        return EXIT_OK
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SingularOperatorError, SchemeError, SpecError, DimensionError,
            np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
