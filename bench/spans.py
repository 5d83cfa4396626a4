"""Span tracing for the benchmark's traced run, installed from outside avlms.

``install`` wraps the public functions of each avlms module, the
``CovarianceModel`` build and horizon methods, and the numpy/LAPACK
kernels those modules call (``numpy.einsum``, ``numpy.linalg.eigh`` and
``eigvalsh``, ``scipy.linalg.eigh``).  ``cli.py`` imports names directly,
so every wrapper is bound in every avlms namespace that holds the
original.  Nothing under ``src/`` changes, and ``uninstall`` restores
every binding, so untraced ops run the plain program.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``op`` the op id.  Spans
stay in memory until the run ends.  The layer of a span is its name up to
the first dot; the benchmark's ``op`` root span counts as ``cli``, so
``cli.self_s`` is op time that no layer span covers.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "dataio", "moments", "operators", "stepsize", "asymptotics",
          "sampling", "engine", "svg", "kernel")
# Modules whose public functions are wrapped; ``errors`` does no work and
# ``cli`` is entered through ``main`` alone.
MODULE_LAYERS = ("dataio", "moments", "operators", "stepsize", "asymptotics",
                 "sampling", "engine", "svg")
HORIZON_METHODS = ("bias_exact", "variance_exact", "bias_leading", "variance_leading",
                   "bias_remainder_bound", "variance_remainder_bound")
SCHEME_BUILDERS = ("uniform_scheme", "optimal_bias_scheme", "optimal_variance_scheme")
EIGENSOLVES = ("kernel.eigh", "kernel.eigvalsh", "kernel.scipy_eigh")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = [name, start, end, parent, self.op, attrs]

    @contextmanager
    def op_span(self, op: int):
        """Root span of one op; spans opened inside carry its id."""
        self.op = op
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, "op", start, None)

    def wrap(self, fn, name: str, before=None, after=None, peak: bool = False):
        """``fn`` recording a span; ``before(args, kwargs)`` and ``after(result)``
        return attribute dicts, and ``peak`` records the peak of memory newly
        allocated during the call (through tracemalloc)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            idx = self._open()
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after:
                    attrs.update(after(result))
                return result
            finally:
                if measure:
                    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._close(idx, name, start, attrs or None)

        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement, namespaces) -> None:
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _operator_order(result) -> dict:
    basis = getattr(result, "basis", None)
    return {"D": basis.size} if basis is not None else {}


def _draws(result) -> dict:
    return {"draws": result.n_samples or 0, **_operator_order(result)}


def _matrix_order(args, kwargs) -> dict:
    return {"order": args[0].shape[0]}


def _engine_steps(args, kwargs) -> dict:
    spec, config = args[0], args[1]
    kind = "gaussian" if type(spec.design).__name__ == "GaussianDesign" else "resampled"
    return {"steps": config.replicates * config.n, "kind": kind}


HOOKS = {
    "moments.reweighted_moments": {"after": _draws, "peak": True},
    "engine.run_averaged_lms": {"before": _engine_steps},
}


def install(tracer: Tracer) -> None:
    """Wrap avlms and its kernels; call ``tracer.uninstall()`` to undo."""
    import numpy
    import scipy.linalg

    import avlms.cli

    namespaces = [m for n, m in sys.modules.items() if n == "avlms" or n.startswith("avlms.")]
    tracer.rebind(avlms.cli.main, tracer.wrap(avlms.cli.main, "cli.main"), namespaces)
    for layer in MODULE_LAYERS:
        mod = sys.modules[f"avlms.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            hooks = HOOKS.get(name, {"after": _operator_order}
                              if layer in ("moments", "operators") else {})
            wrapped = tracer.wrap(fn, "sampling.scheme" if attr in SCHEME_BUILDERS else name,
                                  **hooks)
            tracer.rebind(fn, wrapped, namespaces)
    model = avlms.asymptotics.CovarianceModel
    tracer.patch(model, "__init__", tracer.wrap(model.__init__, "asymptotics.CovarianceModel"))
    for attr in HORIZON_METHODS:
        tracer.patch(model, attr, tracer.wrap(getattr(model, attr), "asymptotics.horizon"))
    for owner, attr, name in ((numpy, "einsum", "kernel.einsum"),
                              (numpy.linalg, "eigh", "kernel.eigh"),
                              (numpy.linalg, "eigvalsh", "kernel.eigvalsh"),
                              (scipy.linalg, "eigh", "kernel.scipy_eigh")):
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(fn, name, before=None if name == "kernel.einsum" else _matrix_order)
        tracer.rebind(fn, wrapped, [owner, *namespaces])


def layer_of(name: str) -> str:
    return "cli" if name == "op" else name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]


def _outermost(spans: list[list], idx: int) -> bool:
    """True when no enclosing span has the same name (so time is not counted twice)."""
    name, parent = spans[idx][0], spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def op_metrics(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each op, keyed by op id.

    ``<name>.s`` is inclusive seconds, ``<name>.calls`` a count and
    ``<layer>.self_s`` the layer's self time.  ``kernel.eigensolve``
    counts eigensolves of order at least the smallest operator order D
    built in the op, which separates T solves from solves on H.
    """
    selfs = self_times(spans)
    by_op = defaultdict(list)
    for i, span in enumerate(spans):
        by_op[span[4]].append(i)
    return {op: _metrics(spans, selfs, idx) for op, idx in by_op.items()}


def _metrics(spans, selfs, idx) -> dict[str, float]:
    m = defaultdict(float, {f"{layer}.self_s": 0.0 for layer in LAYERS})
    orders = [spans[i][5]["D"] for i in idx if spans[i][5] and "D" in spans[i][5]]
    d_min = min(orders, default=math.inf)
    steps, engine_s = defaultdict(float), defaultdict(float)
    for i in idx:
        name, start, end, _, _, attrs = spans[i]
        attrs = attrs or {}
        dur = end - start
        m[f"{layer_of(name)}.self_s"] += selfs[i]
        m[f"{name}.calls"] += 1
        if _outermost(spans, i):
            m[f"{name}.s"] += dur
        if name in EIGENSOLVES and attrs["order"] >= d_min:
            m["kernel.eigensolve.s"] += dur
            m["kernel.eigensolve.calls"] += 1
        if "draws" in attrs:
            m[f"{name}.draws"] += attrs["draws"]
        if "peak_mb" in attrs:
            m[f"{name}.peak_mb"] = max(m[f"{name}.peak_mb"], attrs["peak_mb"])
        if "steps" in attrs:
            steps[attrs["kind"]] += attrs["steps"]
            engine_s[attrs["kind"]] += dur
    m["operators.max_D"] = max(orders, default=0)
    m["engine.replicate_steps"] = sum(steps.values())
    for kind in ("gaussian", "resampled"):
        m[f"engine.{kind}.ns_per_replicate_step"] = (
            1e9 * engine_s[kind] / steps[kind] if steps[kind] else 0.0)
    return dict(m)


def summarize(spans: list[list], names) -> dict[str, float]:
    """Median over the traced ops of each named metric (0 where an op has none)."""
    per_op = list(op_metrics(spans).values())
    return {name: statistics.median(m.get(name, 0.0) for m in per_op) for name in names}
