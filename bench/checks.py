"""Output checks for the benchmark ops.

Every check takes the text a CLI command wrote plus the values the
benchmark knows independently (from its own inputs, from closed forms
computed in set-up, or from stored reference values) and returns a list
of failure messages.  An empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import xml.etree.ElementTree as ET

EPS = sys.float_info.epsilon

# gamma_max <= 2/Tr(H) <= 2/L, each allowed this relative rounding slack.
BOUND_SLACK = 1e-12
# Norm-proportional (bias-opt) resampling reaches 2/Tr(H) exactly; allow the
# rounding of one order-D generalized eigensolve.
BIAS_OPT_RTOL = 1e-10
# Known defect of the program: on a Gaussian spec it estimates the resampled
# fourth moment from 200k Monte Carlo draws, so its bias-opt gamma_max scatters
# around 2/Tr(H) instead of equalling it (relative miss of either sign, standard
# deviation about 1e-3 at d=25, largest 1.6e-3 at seeds 0-11) and is often above
# the universal bound.  Where a caller declares the cell a Monte Carlo estimate,
# the two checks above still run on it; a miss up to MC_DEFECT_RTOL relative is
# reported as this known defect and a larger one fails as usual.
MC_DEFECT_RTOL = 5e-3
# |risk_exact - risk_leading| <= ||H||_F * bound, granted the bound a relative
# 1e-9 plus a few ulps of the larger risk, as tests/test_acceptance.py does.
SANDWICH_REL = 1e-9
SANDWICH_ULPS = 8
# Closed-form CSV cells against the values stored in reference.json.  Later
# changes may reorder floating-point sums (the dense oracle and a structured
# path agree to about 1e-12), so the tolerance leaves four digits of room.
REFERENCE_RTOL = 1e-8
# Monte Carlo risk at n_max against the closed form, in standard errors.
Z_MAX = 5.0


def parse_fields(text: str) -> list[dict[str, str]]:
    """Rows of ``key=value  key=value`` lines, as ``gamma-max`` prints them."""
    rows = []
    for line in text.splitlines():
        if "=" in line:
            rows.append(dict(item.split("=", 1) for item in line.split()))
    return rows


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _rel_excess(got: float, bound: float) -> float:
    return (got - bound) / abs(bound)


def check_gamma_max(rows: list[dict[str, str]], trace_h: float, lipschitz: float,
                    where: str, known: list[str] | None = None) -> list[str]:
    """gamma_max <= 2/Tr(H) <= 2/L on every scheme; bias-opt reaches 2/Tr(H).

    ``rows`` need ``scheme`` and ``gamma_max``; when they also carry the
    program's ``trace_bound`` and ``gamma_max_det`` those are checked
    against the benchmark's own 2/Tr(H) and 2/L.  Passing a ``known`` list
    declares the bias-opt row a Monte Carlo estimate: its misses of 2/Tr(H)
    within MC_DEFECT_RTOL go to ``known`` instead of the returned failures.
    """
    fails = []
    trace_bound = 2.0 / trace_h
    det_bound = 2.0 / lipschitz
    if trace_bound > det_bound * (1 + BOUND_SLACK):
        fails.append(f"{where}: 2/Tr(H)={trace_bound!r} above 2/L={det_bound!r}")
    if not rows:
        fails.append(f"{where}: no gamma_max rows")
    for row in rows:
        scheme = row.get("scheme", "?")
        g = float(row["gamma_max"])
        miss = fails
        if (known is not None and scheme == "bias-opt"
                and abs(g - trace_bound) <= MC_DEFECT_RTOL * trace_bound):
            miss = known
        if not g <= trace_bound * (1 + BOUND_SLACK):
            miss.append(f"{where} {scheme}: gamma_max={g!r} above 2/Tr(H)={trace_bound!r} "
                        f"by {_rel_excess(g, trace_bound):.3g} relative")
        if scheme == "bias-opt" and abs(g - trace_bound) > BIAS_OPT_RTOL * trace_bound:
            miss.append(f"{where} bias-opt: gamma_max={g!r} is not 2/Tr(H)={trace_bound!r} "
                        f"(off by {_rel_excess(g, trace_bound):.3g} relative)")
        if "trace_bound" in row:
            tb = float(row["trace_bound"])
            if abs(tb - trace_bound) > BOUND_SLACK * trace_bound:
                fails.append(f"{where} {scheme}: trace_bound={tb!r}, expected {trace_bound!r}")
        if "gamma_max_det" in row:
            gd = float(row["gamma_max_det"])
            if abs(gd - det_bound) > BOUND_SLACK * det_bound:
                fails.append(f"{where} {scheme}: gamma_max_det={gd!r}, expected {det_bound!r}")
    return fails


def check_ingest(text: str, rows: int, dim: int, trace_h: float) -> list[str]:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    fails = []
    if report.get("rows") != str(rows):
        fails.append(f"ingest: rows={report.get('rows')!r}, expected {rows}")
    if report.get("dim") != str(dim):
        fails.append(f"ingest: dim={report.get('dim')!r}, expected {dim}")
    got = float(report.get("trace_h", "nan"))
    if not abs(got - trace_h) <= BOUND_SLACK * trace_h:
        fails.append(f"ingest: trace_h={got!r}, expected {trace_h!r}")
    return fails


def check_sandwich(rows: list[dict[str, str]], h_frob: float, where: str) -> list[str]:
    """|risk_exact - risk_leading| <= ||H||_F * remainder bound at every horizon.

    The remainder bound is on the Frobenius norm of the covariance error, and
    |Tr(H E)| <= ||H||_F ||E||_F, so the risk error obeys the scaled bound.
    """
    fails = []
    if not rows:
        fails.append(f"{where}: no rows")
    for row in rows:
        for part in ("bias", "variance"):
            cells = [row[f"{part}_{k}"] for k in ("exact", "leading", "bound")]
            if "" in cells:
                fails.append(f"{where} n={row['n']}: empty {part} cell")
                continue
            exact, lead, bound = map(float, cells)
            allow = (h_frob * bound * (1 + SANDWICH_REL)
                     + SANDWICH_ULPS * EPS * max(abs(exact), abs(lead)))
            if not abs(exact - lead) <= allow:
                fails.append(f"{where} n={row['n']}: |{part} exact - leading| = "
                             f"{abs(exact - lead)!r} exceeds ||H||_F * bound = {allow!r}")
    return fails


def check_reference(rows: list[dict[str, str]], ref_rows: list[dict[str, float]],
                    columns: list[str], where: str) -> list[str]:
    """Every listed cell within REFERENCE_RTOL relative of the stored value."""
    if len(rows) != len(ref_rows):
        return [f"{where}: {len(rows)} rows, reference has {len(ref_rows)}"]
    fails = []
    for row, ref in zip(rows, ref_rows):
        for col in columns:
            want = ref[col]
            got = float(row[col]) if row[col] != "" else math.nan
            if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                fails.append(f"{where} n={row.get('n', '-')} {col}: {got!r} differs from reference "
                             f"{want!r} by more than {REFERENCE_RTOL:g} relative")
    return fails


def check_run(rows: list[dict[str, str]], closed_forms: dict[float, tuple[float, float]],
              n_max: int) -> list[str]:
    """No divergence; each mode's risk at n_max within Z_MAX errors of the closed form.

    ``closed_forms`` maps each step-size to its exact (bias, variance) risk
    at n_max; the ``total`` mode is compared with their sum.
    """
    fails = [f"run: diverged row at n={r['n']} gamma={r['gamma']} mode={r['mode']}"
             for r in rows if r["flag"] == "diverged"]
    for gamma, (bias, variance) in closed_forms.items():
        expected = {"bias": bias, "variance": variance, "total": bias + variance}
        for mode, want in expected.items():
            hits = [r for r in rows if r["mode"] == mode and r["risk"] != ""
                    and int(r["n"]) == n_max and float(r["gamma"]) == gamma]
            if len(hits) != 1:
                fails.append(f"run: {len(hits)} rows for gamma={gamma} mode={mode} n={n_max}")
                continue
            risk, err = float(hits[0]["risk"]), float(hits[0]["stderr"])
            if not abs(risk - want) <= Z_MAX * err:
                fails.append(f"run gamma={gamma} {mode}: risk {risk!r} is more than "
                             f"{Z_MAX:g} standard errors ({err!r}) from the closed form "
                             f"{want!r}")
    return fails


def check_sampling(rows: list[dict[str, str]], trace_h: float, lipschitz: float) -> list[str]:
    """Scheme thresholds as in check_gamma_max; the variance-opt gain is at most
    1 and at most the bias-opt gain."""
    fails = check_gamma_max(rows, trace_h, lipschitz, "sampling")
    gain = {r["scheme"]: float(r["variance_gain"]) for r in rows}
    if "variance-opt" not in gain or "bias-opt" not in gain:
        return fails + [f"sampling: schemes {sorted(gain)} lack bias-opt or variance-opt"]
    v, b = gain["variance-opt"], gain["bias-opt"]
    if not v <= 1.0 + BOUND_SLACK:
        fails.append(f"sampling: variance-opt variance_gain={v!r} above 1")
    if not v <= b * (1 + BOUND_SLACK):
        fails.append(f"sampling: variance-opt variance_gain={v!r} above bias-opt {b!r}")
    return fails


def check_svg(text: str, n_series: int) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"plot: SVG does not parse: {exc}"]
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != n_series:
        return [f"plot: {len(lines)} polylines, expected {n_series}"]
    return []
