"""One benchmark process: set up a workload, then run its ops back to back.

run.py starts this script; it is not meant to be run by hand.  With
``--setup-only`` it sets up and exits, so run.py can time set-up several
times per run.  Its only stdout line is ``RESULT <json>``.

Set-up imports avlms, generates the inputs from the seed, loads the stored
reference values, warms up LAPACK and precomputes what the checks need.
An op runs the README's CLI commands in-process through ``avlms.cli.main``;
its outputs are checked after its timer stops.  With ``--trace 1`` ops
alternate untraced and traced, and only traced ops feed the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from avlms import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

REFERENCE = BENCH / "reference.json"
SCHEMES = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]


class OpError(Exception):
    pass


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in-process; return its stdout, raise on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise OpError(f"avlms {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def warm_up() -> None:
    """Pay LAPACK's lazy initialisation before the first timed op: on a 2-vCPU VM
    the first generalized eigensolve of order 300 in a process took about 0.7 s
    after the machine had been idle, against 0.02 s once warm."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    a = a @ a.T + 300.0 * np.eye(300)
    scipy.linalg.eigh(a, np.diag(np.diag(a)), eigvals_only=True, subset_by_index=[299, 299])
    np.linalg.eigh(a)
    np.linalg.eigvalsh(a)


class ClosedForm:
    """gamma-max, then predict at gamma_max/2 and gamma_max/20, on d=40."""

    DIM = 40
    # Columns that do not depend on the spec seed (it only draws w_star).
    SEED_FREE = ["n", "variance_exact", "variance_leading", "variance_bound",
                 "small_gamma_variance"]

    def __init__(self, seed: int, tmp: Path, reference: dict | None = None):
        self.spec = inputs.gaussian_spec(self.DIM, seed)
        eig = 1.0 / np.arange(1, self.DIM + 1)
        self.trace_h, self.h_frob = float(eig.sum()), float(np.sqrt((eig**2).sum()))
        self.reference = json.loads(REFERENCE.read_text()) if reference is None else reference
        warm_up()
        self.setup_argv = [["gamma-max", "--spec", self.spec, "--seed", str(seed)]]
        g = float(checks.parse_fields(run_cli(self.setup_argv[0]))[0]["gamma_max"])
        out = tmp / "predict.csv"
        self.argv = [
            self.setup_argv[0],
            ["predict", "--spec", self.spec, "--gamma", repr(g / 2), "--gamma", repr(g / 20),
             "--n-max", "100000", "--points", "25", "--out", str(out)],
        ]
        self.outputs = [tmp / "predict_g0.csv", tmp / "predict_g1.csv"]
        self.columns = (self.reference.get("predict_columns")
                        if seed == self.reference.get("seed") else self.SEED_FREE)

    def check(self, stdouts) -> tuple[list[str], list[str]]:
        rows = checks.parse_fields(stdouts[0])
        fails = checks.check_gamma_max(rows, self.trace_h, 1.0, "gamma-max")
        fails += checks.check_reference(rows, [self.reference["gamma_max"]], ["gamma_max"],
                                        "gamma-max")
        for k, path in enumerate(self.outputs):
            rows = checks.parse_csv(path.read_text())
            fails += checks.check_sandwich(rows, self.h_frob, f"predict g{k}")
            fails += checks.check_reference(rows, self.reference["predict"][k], self.columns,
                                            f"predict g{k}")
        return fails, []


class Thresholds:
    """ingest + three-scheme gamma-max on the data file, then on the d=25 spec."""

    DIM = 25

    def __init__(self, seed: int, tmp: Path):
        data = str(tmp / "data.csv")
        self.data_trace_h, self.data_lipschitz = inputs.write_data(data, seed)
        self.spec = inputs.gaussian_spec(self.DIM, seed)
        self.spec_trace_h = inputs.gaussian_trace_h(self.DIM)
        warm_up()
        self.setup_argv = []
        self.argv = [
            ["ingest", "--data", data, "--format", "csv-dense"],
            ["gamma-max", "--data", data, *SCHEMES, "--seed", str(seed)],
            ["gamma-max", "--spec", self.spec, *SCHEMES, "--seed", str(seed)],
        ]

    def check(self, stdouts) -> tuple[list[str], list[str]]:
        report, data, spec = stdouts
        fails = checks.check_ingest(report, inputs.DATA_ROWS, inputs.DATA_DIM, self.data_trace_h)
        fails += checks.check_gamma_max(checks.parse_fields(data), self.data_trace_h,
                                        self.data_lipschitz, "gamma-max data")
        # The Gaussian bias-opt threshold is a Monte Carlo estimate: the known
        # defect described at checks.MC_DEFECT_RTOL.
        known = []
        fails += checks.check_gamma_max(checks.parse_fields(spec), self.spec_trace_h, 1.0,
                                        "gamma-max gaussian", known=known)
        return fails, known


class Simulate:
    """README run (both step-sizes, all modes), plot, then README sampling."""

    DIM = 25
    GAMMAS = (0.07, 0.007)
    N_MAX = 10_000

    def __init__(self, seed: int, tmp: Path):
        data = str(tmp / "data.csv")
        self.data_trace_h, self.data_lipschitz = inputs.write_data(data, seed)
        spec = inputs.gaussian_spec(self.DIM, seed)
        warm_up()
        gammas = [arg for g in self.GAMMAS for arg in ("--gamma", repr(g))]
        cf = tmp / "closed_form.csv"
        self.setup_argv = [["predict", "--spec", spec, *gammas, "--n-max", str(self.N_MAX),
                            "--points", "2", "--out", str(cf)]]
        run_cli(self.setup_argv[0])
        self.closed_forms = {}
        for k, g in enumerate(self.GAMMAS):
            last = checks.parse_csv((tmp / f"closed_form_g{k}.csv").read_text())[-1]
            self.closed_forms[g] = (float(last["bias_exact"]), float(last["variance_exact"]))
        self.run_csv, self.svg, self.schemes_csv = (
            tmp / "run.csv", tmp / "run.svg", tmp / "schemes.csv")
        self.argv = [
            ["run", "--spec", spec, *gammas, "--mode", "all", "--n-max", str(self.N_MAX),
             "--points", "15", "--replicates", "200", "--seed", str(seed),
             "--out", str(self.run_csv)],
            ["plot", str(self.run_csv), "--out", str(self.svg)],
            ["sampling", "--data", data, *SCHEMES, "--n-max", "5000", "--replicates", "500",
             "--seed", str(seed), "--out", str(self.schemes_csv)],
        ]

    def check(self, stdouts) -> tuple[list[str], list[str]]:
        fails = checks.check_run(checks.parse_csv(self.run_csv.read_text()),
                                 self.closed_forms, self.N_MAX)
        fails += checks.check_svg(self.svg.read_text(), 3 * len(self.GAMMAS))
        fails += checks.check_sampling(checks.parse_csv(self.schemes_csv.read_text()),
                                       self.data_trace_h, self.data_lipschitz)
        return fails, []


WORKLOADS = {"closed-form": ClosedForm, "thresholds": Thresholds, "simulate": Simulate}


def run_op(workload) -> list[str]:
    """One op: the workload's CLI commands back to back; returns their stdouts."""
    return [run_cli(argv) for argv in workload.argv]


def blas_info() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_ops(workload, seconds: float, trace: bool, per_layer: list[str],
            spans_path: str | None) -> dict:
    tracer = spans.Tracer()
    times, traced_times, failures, failed = [], [], [], 0
    known_defects, known_ops = [], 0
    began = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        gc.collect()
        if traced:
            spans.install(tracer)
        try:
            with tracer.op_span(k) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    stdouts = run_op(workload)
                finally:
                    elapsed = time.perf_counter() - start
            fails, known = workload.check(stdouts)
        except Exception:
            fails, known = [traceback.format_exc(limit=4)], []
        finally:
            tracer.uninstall()
        (traced_times if traced else times).append(elapsed)
        if fails:
            failed += 1
            failures.extend(f"op {k}: {msg}" for msg in fails[:5])
        if known:
            known_ops += 1
            known_defects.extend(f"op {k}: {msg}" for msg in known)
        k += 1
        if time.perf_counter() - began >= seconds and (not trace or k >= 2):
            break
    result = {"op_s": times, "traced_op_s": traced_times, "attempted": k, "failed": failed,
              "failures": failures[:20], "known_defect_ops": known_ops,
              "known_defects": known_defects[:20],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        layers = spans.summarize(tracer.spans, per_layer)
        layers["trace.op_s_p50"] = statistics.median(traced_times)
        layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        result["per_layer"] = {n: layers[n] for n in per_layer}
        if spans_path:
            with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
                json.dump(tracer.spans, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="empty directory for generated inputs")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--per-layer", default="", help="comma-separated metric names")
    parser.add_argument("--spans", help="file for the traced spans (.json.gz)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.tmp))
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        result.update(run_ops(workload, args.seconds, bool(args.trace),
                              [n for n in args.per_layer.split(",") if n], args.spans))
        result["argv"] = {"setup": workload.setup_argv, "op": workload.argv}
        result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                              "blas": blas_info()}
    print("RESULT " + json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
