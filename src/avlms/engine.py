"""Stochastic simulation of averaged constant-step-size LMS.

Runs the recursion w_i = w_{i-1} - gamma X_i (X_i^T w_{i-1} - Y_i) with
incremental averaging, over vectorized replicate blocks, and reports the
exact excess risk (w - w*)^T H (w - w*) of the averaged iterate against
the specification's true second moment.  Three modes isolate the error
components: "bias" forces the noise to zero, "variance" starts at the
optimum, "total" does neither.

Randomness contract: the master seed spawns two child streams (inputs
first, noise second); replicate r consumes row r of every block drawn
from those streams.  Identical seeds therefore give bit-identical
trajectories, input draws are shared across modes and (via a common
uniform sequence) across discrete sampling schemes, and results do not
depend on how replicates would be scheduled.  The cells of one grid
(:func:`run_cells`: several gammas and modes on one spec and scheme) are
stepped in lockstep and share one draw per step; each cell's bits equal
those of the same config run alone, and splitting a grid into groups
(each restarting the streams from the seed) never changes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemeError, SpecError
from .moments import (
    DiscreteDesign,
    GaussianDesign,
    ProblemSpec,
    ResidualNoise,
    _atom_c_inverse,
    _sqrt_psd,
)

DIVERGENCE_NORM = 1e12

# State budget of one lockstep group of cells.  At its peak a step holds
# four (cells, replicates, d) float64 arrays: wbar, the old and the new w,
# and one temporary of the update; together they stay under GROUP_BYTES.
GROUP_BYTES = 1 << 26
_STATE_ARRAYS = 4

MODES = ("bias", "variance", "total")


@dataclass(frozen=True)
class RunConfig:
    """One simulation request.

    ``n`` counts averaged iterates (w_0 through w_{n-1}, i.e. n - 1
    updates).  ``record_at`` lists the iterate counts to log; when absent,
    every ``record_stride``-th count (and n itself) is logged.
    """

    gamma: float
    n: int
    replicates: int = 1
    mode: str = "total"
    seed: int = 0
    record_stride: int = 1
    record_at: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def record_points(self) -> list[int]:
        if self.record_at is not None:
            pts = sorted({int(m) for m in self.record_at})
            if not pts or pts[0] < 1 or pts[-1] > self.n:
                raise ValueError("record_at entries must lie in [1, n]")
            return pts
        pts = list(range(self.record_stride, self.n + 1, self.record_stride))
        if not pts or pts[-1] != self.n:
            pts.append(self.n)
        return pts


@dataclass
class Trajectory:
    """Averaged-iterate risk along one run, averaged over replicates.

    A diverged run stops at ``diverged_at``; ``diverged_replicate`` is the
    replicate with the largest norm there and ``diverged_norm`` that norm
    (inf or NaN once the iterate has overflowed).
    """

    iterations: np.ndarray
    risk: np.ndarray
    standard_error: np.ndarray
    mode: str
    gamma: float | None = None
    diverged: bool = False
    diverged_at: int | None = None
    diverged_replicate: int | None = None
    diverged_norm: float | None = None
    label: str = ""


class _Sampler:
    """Vectorized (X, Y) block draws for a spec, optionally resampled.

    With a ``SamplingScheme``, atoms are drawn from q = c_inverse * p
    through a shared uniform sequence and every sample is scaled by
    sqrt(c); the Gaussian backend supports only the uniform scheme.
    """

    def __init__(self, spec: ProblemSpec, scheme=None):
        self.spec = spec
        design = spec.design
        self.gaussian = isinstance(design, GaussianDesign)
        if self.gaussian:
            if scheme is not None:
                raise SchemeError(
                    "resampled streams need an atomized spec; Gaussian designs "
                    "support only uniform sampling"
                )
            self._root = _sqrt_psd(design.cov)
            self.sigma = spec.noise.sigma
            return
        xs, probs, ys = design.xs, design.probs, design.ys
        if scheme is None:
            weights = probs
            self._scale = None
        else:
            cinv = _atom_c_inverse(spec, scheme.c_inverse)
            weights = probs * cinv
            total = weights.sum()
            if abs(total - 1.0) > 1e-10:
                raise SchemeError(f"proposal weights sum to {total!r}, not 1")
            weights = weights / total
            scale = np.zeros_like(cinv)
            live = cinv > 0
            scale[live] = 1.0 / np.sqrt(cinv[live])
            self._scale = scale
        self._cum = np.cumsum(weights)
        self._cum[-1] = 1.0
        self._xs = xs
        self._ys_model = xs @ spec.w_star
        self._ys = ys
        self.residual = isinstance(spec.noise, ResidualNoise)
        self.sigma = 0.0 if self.residual else spec.noise.sigma

    def draw(self, gen_x: np.random.Generator, gen_eps: np.random.Generator, size: int,
             noisy: bool = True):
        """One block ``(x, y_clean, y_noisy)``: the inputs, their noiseless
        responses and, when ``noisy``, the observed ones (else None).

        Noise is drawn from ``gen_eps`` only when asked for, so cells that
        share a draw see the same noise as cells run alone.
        """
        if self.gaussian:
            x = gen_x.standard_normal((size, self.spec.dim)) @ self._root.T
            clean = x @ self.spec.w_star
            y = clean
            if noisy and self.sigma > 0:
                y = clean + self.sigma * gen_eps.standard_normal(size)
            return x, clean, y if noisy else None
        idx = np.searchsorted(self._cum, gen_x.random(size), side="right")
        x = self._xs[idx]
        clean = self._ys_model[idx]
        y = None
        if noisy:
            if self.residual:
                y = clean if self._ys is None else self._ys[idx]
            elif self.sigma > 0:
                y = clean + self.sigma * gen_eps.standard_normal(size)
            else:
                y = clean
        if self._scale is not None:
            s = self._scale[idx]
            x = x * s[:, None]
            clean = clean * s
            y = None if y is None else y * s
        return x, clean, y


def _generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def _drive(spec, configs: list[RunConfig], update, sampler: _Sampler,
           label: str = "") -> list[Trajectory]:
    """The one replicate-vectorized loop: steps a stack of cells in lockstep.

    The state ``w`` has shape (cells, replicates, d).  Every step draws one
    block of inputs (and of noise, while a noisy cell is live) shared by
    all cells; "bias" cells see the noiseless response, the others the
    observed one.  ``update(w, x, y, gamma, m)`` returns the next state,
    with ``y`` of shape (cells, replicates) and ``gamma`` of shape
    (cells, 1, 1).  A cell whose largest squared replicate norm exceeds
    ``DIVERGENCE_NORM**2`` (or is NaN) leaves the stack at that step.
    """
    config = configs[0]
    gen_x, gen_eps = _generators(config.seed)
    reps = config.replicates
    hmat = spec.hmat
    w_star = spec.w_star
    w = np.stack([np.tile(w_star if c.mode == "variance" else spec.w0, (reps, 1))
                  for c in configs]).astype(float)
    wbar = w.copy()
    gamma = np.array([c.gamma for c in configs], dtype=float)[:, None, None]
    noiseless = np.array([c.mode == "bias" for c in configs])
    live = np.arange(len(configs))
    points = config.record_points()
    iters = [[] for _ in configs]
    risks = [[] for _ in configs]
    errs = [[] for _ in configs]
    diverged = [(None, None, None)] * len(configs)

    def record(m: int) -> None:
        for k, cell in enumerate(live):
            diff = wbar[k] - w_star
            r = np.einsum("ri,ij,rj->r", diff, hmat, diff)
            iters[cell].append(m)
            risks[cell].append(float(r.mean()))
            errs[cell].append(float(r.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0)

    limit = DIVERGENCE_NORM**2
    next_idx = 0
    if points[0] == 1:
        record(1)
        next_idx = 1
    noisy = not noiseless.all()
    mixed = noisy and noiseless.any()
    for m in range(2, config.n + 1):
        x, clean, y = sampler.draw(gen_x, gen_eps, reps, noisy=noisy)
        if not noisy:
            y = clean
        elif mixed:
            y = np.where(noiseless[:, None], clean, y)
        w = update(w, x, y, gamma, m)
        sq = np.einsum("cri,cri->cr", w, w)
        if not sq.max() <= limit:  # NaN-aware: a NaN norm fails the test
            bad = ~(sq.max(axis=1) <= limit)
            for k in np.flatnonzero(bad):
                rep = int(np.argmax(sq[k]))
                diverged[live[k]] = (m, rep, float(np.sqrt(sq[k, rep])))
            keep = ~bad
            w, wbar, gamma = w[keep], wbar[keep], gamma[keep]
            noiseless, live = noiseless[keep], live[keep]
            if not len(live):
                break
            noisy = not noiseless.all()
            mixed = noisy and noiseless.any()
        wbar += (w - wbar) / m
        if next_idx < len(points) and points[next_idx] == m:
            record(m)
            next_idx += 1
    return [
        Trajectory(
            iterations=np.array(iters[k], dtype=int),
            risk=np.array(risks[k]),
            standard_error=np.array(errs[k]),
            mode=c.mode,
            gamma=c.gamma,
            diverged=diverged[k][0] is not None,
            diverged_at=diverged[k][0],
            diverged_replicate=diverged[k][1],
            diverged_norm=diverged[k][2],
            label=label,
        )
        for k, c in enumerate(configs)
    ]


def _lms_update(w, x, y, gamma, _m):
    resid = np.einsum("cri,ri->cr", w, x) - y
    return w - gamma * resid[..., None] * x


def run_cells(spec: ProblemSpec, configs, scheme=None) -> list[Trajectory]:
    """Averaged constant-step LMS for a grid of (gamma, mode) cells.

    The configs must agree on ``n``, ``replicates``, ``seed`` and the
    record points; they may differ in ``gamma`` and ``mode``.  All cells
    share one input stream (and one noise stream), so each trajectory is
    bit-identical to the same config run alone.  Cells are stepped in
    lockstep, in groups whose state stays under ``GROUP_BYTES``; every
    group restarts the streams from the seed, so grouping never changes
    bits.  Risk is the testing error against the spec's true second moment
    ``spec.hmat``; with a ``SamplingScheme`` the objective (and hence H and
    w*) is unchanged and the stream is the scaled resampled one.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_cells needs at least one config")
    first = configs[0]
    for c in configs[1:]:
        if (c.n, c.replicates, c.seed) != (first.n, first.replicates, first.seed):
            raise ValueError("configs of one grid must share n, replicates and seed")
        if c.record_points() != first.record_points():
            raise ValueError("configs of one grid must share their record points")
    sampler = _Sampler(spec, scheme)
    label = "uniform" if scheme is None else scheme.name
    # A single cell above the budget still runs, alone in its group.
    size = max(1, GROUP_BYTES // (_STATE_ARRAYS * 8 * first.replicates * spec.dim))
    out = []
    for k in range(0, len(configs), size):
        out += _drive(spec, configs[k:k + size], _lms_update, sampler, label=label)
    return out


def run_averaged_lms(spec: ProblemSpec, config: RunConfig, scheme=None) -> Trajectory:
    """Averaged constant-step LMS under the requested mode: one cell of
    :func:`run_cells`."""
    return run_cells(spec, [config], scheme)[0]


def nlms_run(spec: ProblemSpec, n: int, seed: int, replicates: int = 1,
             record_at: tuple[int, ...] | None = None) -> Trajectory:
    """Normalized LMS on the norm-proportional resampled stream.

    Update w -= x (x^T w - y) / (x^T x), scale-invariant in the sample, so
    it coincides with plain averaged LMS at gamma = 1/E[X^T X] under the
    norm-proportional scheme and shared draws.
    """
    from .sampling import optimal_bias_scheme

    scheme = optimal_bias_scheme(spec)
    if isinstance(spec.design, DiscreteDesign):
        norms = np.einsum("ti,ti->t", spec.design.xs, spec.design.xs)
        if norms.min() <= 0:
            raise SpecError("normalized LMS needs X != 0 on every atom")
    config = RunConfig(gamma=1.0, n=n, replicates=replicates, mode="total",
                       seed=seed, record_at=record_at)
    sampler = _Sampler(spec, scheme)

    def update(w, x, y, _gamma, _m):
        sq = np.einsum("ri,ri->r", x, x)
        resid = np.einsum("cri,ri->cr", w, x) - y
        return w - (resid / sq)[..., None] * x

    traj = _drive(spec, [config], update, sampler, label="nlms")[0]
    traj.gamma = 1.0 / float(np.trace(spec.hmat))
    return traj


def isgd_run(spec: ProblemSpec, step_schedule, n: int, seed: int, replicates: int = 1,
             record_at: tuple[int, ...] | None = None) -> Trajectory:
    """Implicit-update SGD baseline with a per-iteration step schedule.

    Update w -= gamma_i / (1 + gamma_i x^T x) * x (x^T w - y); approaches
    the normalized update for large gamma_i and freezes for gamma_i -> 0.
    """
    if callable(step_schedule):
        schedule = step_schedule
    else:
        steps = np.asarray(step_schedule, dtype=float)

        def schedule(i: int) -> float:
            return float(steps[min(i - 1, len(steps) - 1)])

    config = RunConfig(gamma=1.0, n=n, replicates=replicates, mode="total",
                       seed=seed, record_at=record_at)
    sampler = _Sampler(spec)

    def update(w, x, y, _gamma, m):
        g = schedule(m - 1)
        if g <= 0:
            raise ValueError("step schedule must stay positive")
        sq = np.einsum("ri,ri->r", x, x)
        resid = np.einsum("cri,ri->cr", w, x) - y
        return w - (g / (1.0 + g * sq) * resid)[..., None] * x

    return _drive(spec, [config], update, sampler, label="isgd")[0]


def class_weighted_spec(spec: ProblemSpec, weights: dict | None = None) -> ProblemSpec:
    """Rescale a binary-labelled spec so each class carries chosen weight.

    Every atom (x, y) becomes (sqrt(c_y) x, sqrt(c_y) y); by default
    c_y = 1/P(Y = y), giving both classes the same total loss weight.  The
    optimum and all moments change accordingly (the new optimum is
    recomputed from the reweighted data).
    """
    design = spec.design
    if not isinstance(design, DiscreteDesign) or design.ys is None:
        raise SpecError("class weighting needs a labelled discrete or empirical spec")
    labels = np.unique(design.ys)
    if len(labels) != 2:
        raise SpecError(f"class weighting needs exactly two label values, found {len(labels)}")
    if weights is None:
        weights = {}
        for lab in labels:
            mass = float(design.probs[design.ys == lab].sum())
            if mass <= 0:
                raise SpecError(f"class {lab!r} has zero probability")
            weights[float(lab)] = 1.0 / mass
    else:
        weights = {float(k): float(v) for k, v in weights.items()}
        for lab in labels:
            if float(lab) not in weights:
                raise SpecError(f"missing weight for class {lab!r}")
    scale = np.sqrt(np.array([weights[float(lab)] for lab in design.ys]))
    return ProblemSpec.discrete(
        design.xs * scale[:, None],
        probs=design.probs,
        ys=design.ys * scale,
        w0=spec.w0,
        kind=spec.kind,
    )
