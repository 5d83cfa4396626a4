"""Benchmark of the avlms CLI: three workloads, output checks on every op.

    python3 bench/run.py --workload closed-form|thresholds|simulate \\
        --seed N --seconds T --trace 0|1

Run it from the root of a source checkout; it imports avlms from ``src/``
and needs nothing built.  BENCHMARK.json at the root lists the metrics and
says why each workload exists.

Every op runs README commands in one process, back to back (a closed loop
with one client), with BLAS capped at the number of usable cores.  The
seed makes the inputs, the spec ``seed=`` and the CLI ``--seed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
SETUP_SAMPLES fresh processes, each timed from its start until it is ready
for the first op; the last of them runs the ops for ``--seconds`` and gives
``op_s_p50`` and ``peak_rss_mb``.  ``--trace 1`` runs one process whose ops
alternate untraced and traced and reports the per-layer metrics.

The last stdout line is the result JSON.  Each run also leaves a record in
bench/runs/: provenance, the argv of every CLI call, per-op times, check
failures and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed-form", "thresholds", "simulate")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(cmd: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past the {DEADLINE_S:g} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    results = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not results:
        raise BenchError("worker printed no result")
    return json.loads(results[-1][len("RESULT "):])


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "avlms" / "__init__.py").is_file():
        print(f"error: no avlms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    per_layer = [m["name"] for m in config["per_layer"]]

    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
           f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ, **{var: str(nproc) for var in THREAD_VARS}}
    workers = 1 if args.trace else SETUP_SAMPLES
    setups = []
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=runs))
    try:
        for k in range(workers):
            wdir = tmp / f"w{k}"
            wdir.mkdir()
            cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--tmp", str(wdir)]
            if k < workers - 1:
                cmd.append("--setup-only")
            else:
                cmd += ["--per-layer", ",".join(per_layer),
                        "--spans", str(runs / f"{tag}.spans.json.gz")]
            result = run_worker(cmd + ["--t0", repr(time.monotonic())], env,
                                started + DEADLINE_S)
            setups.append(result["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values = result["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "op_s_p50": statistics.median(result["op_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    attempted, failed = result["attempted"], result["failed"]
    provenance = {
        "git_commit": git_commit(), "nproc": nproc, "cpu_model": cpu_model(),
        "blas_threads": nproc, "python": platform.python_version(), **result["versions"],
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance, "setup_s_samples": setups,
              **result, "metrics": metrics}
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed (fail_frac {failed / attempted:g}); record bench/runs/{tag}.json")
    for msg in result["failures"]:
        print(f"  check failed: {msg.strip()}")
    if result["known_defect_ops"]:
        print(f"  known defect in {result['known_defect_ops']} of {attempted} ops, "
              "reported and not counted as failed (see checks.MC_DEFECT_RTOL):")
        for msg in result["known_defects"]:
            print(f"    {msg}")
    counts = {"setup_s": f"median of {len(setups)} set-ups",
              "op_s_p50": f"median of {len(result['op_s'])} ops"}
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']:6s} {counts.get(name, '')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
