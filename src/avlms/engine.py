"""Stochastic simulation of averaged constant-step-size LMS.

Runs the recursion w_i = w_{i-1} - gamma X_i (X_i^T w_{i-1} - Y_i) with
incremental averaging, over vectorized replicate blocks, and reports the
exact excess risk (w - w*)^T H (w - w*) of the averaged iterate against
the specification's true second moment.  Three modes isolate the error
components: "bias" forces the noise to zero, "variance" starts at the
optimum, "total" does neither.

Randomness contract: the master seed spawns two child streams (inputs
first, noise second); replicate r consumes row r of every step's draw
from those streams.  Identical seeds therefore give bit-identical
trajectories, input draws are shared across modes and (via a common
uniform sequence) across discrete sampling schemes, and results do not
depend on how replicates would be scheduled.  The cells of one grid
(:func:`run_cells`: several gammas, modes and, on discrete specs,
sampling schemes on one spec, with one horizon, replicate count and seed)
are stepped in lockstep and share one draw per step: every scheme maps
the same uniforms to its own atoms.  Each cell's bits equal those of the
same cell run alone, and splitting a grid into groups (each restarting
the streams from the seed) never changes them.  Every draw, Gaussian or
resampled, is taken in blocks of several steps; a block consumes both
streams in the same order as one draw per step, so the block length never
changes bits either.  A one-worker executor draws the next block while
the current one is stepped.  The draws depend only on the streams, never
on the state, and a cell that leaves the stack only stops later blocks
from drawing for it, so the bits do not depend on how far ahead the
blocks are drawn, or on how many CPUs the worker and the stepping thread
share.

The stepping thread does only per-step work: each cell's draws are
selected once per block, the LMS coefficients gamma (x^T w - y) take one
einsum and two in-place operations and the step one product per entry,
and the exact divergence check runs only when a running bound on max|w|
could reach the limit.  A trajectory, and where and at what norm a cell
diverged, are those of the plain recursion with the exact check on every
step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemeError
from .moments import (
    GaussianDesign,
    ProblemSpec,
    ResidualNoise,
    _sqrt_psd,
)
from .sampling import SamplingScheme

DIVERGENCE_NORM = 1e12

# State budget of one lockstep group of cells: four (cells, replicates, d)
# float64 arrays, wbar, w, the scratch of the update and the average, and
# one step of inputs gathered per cell, stay under GROUP_BYTES.  The draws
# of one group stay under GROUP_BYTES // CHUNK_SHARE: a block of draws, its
# buffer, its temporaries and the per-cell selection of its steps, takes at
# most half of that, so the block being stepped and the block being drawn
# fit together (a one-step block's selection fits the state's fourth array).
GROUP_BYTES = 1 << 26
_STATE_ARRAYS = 4
CHUNK_SHARE = 4

# Guide-table advances tried before the remaining keys fall back to
# searchsorted.
GUIDE_ROUNDS = 8

MODES = ("bias", "variance", "total")


@dataclass(frozen=True)
class Cell:
    """One cell of a grid: a step-size, the error component it measures
    (``mode``, one of ``MODES``) and the sampling scheme of its draws (None:
    uniform)."""

    gamma: float
    mode: str = "total"
    scheme: SamplingScheme | None = None

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class Trajectory:
    """Averaged-iterate risk along one cell's run, averaged over replicates.

    A diverged run stops at ``diverged_at``; ``diverged_replicate`` is the
    replicate with the largest norm there and ``diverged_norm`` that norm
    (inf or NaN once the iterate has overflowed).
    """

    iterations: np.ndarray
    risk: np.ndarray
    standard_error: np.ndarray
    diverged_at: int | None = None
    diverged_replicate: int | None = None
    diverged_norm: float | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


class _GuideTable:
    """``searchsorted(cum, u, side="right")`` in O(1) expected time per key.

    The guide table of Chen & Asau (1974): key u falls in bucket
    b = min(floor(u N), N - 1) of N equal buckets, starts at ``guide[b]``
    and advances while ``cum[idx] <= u``.  ``guide[b]`` is the answer for a
    point just below b/N: floor(fl(u N)) = b implies u >= (b/N)(1 - 2^-53),
    and the start point (b/N)(1 - 2^-50), rounded twice, lies under that
    bound, so no key starts past its atom, whatever the rounding of u N.
    Keys still unresolved after ``GUIDE_ROUNDS`` advances (long runs of
    zero-weight atoms) finish with ``searchsorted``.  The result equals
    ``searchsorted`` exactly; an alias table would be O(1) too, but it maps
    uniforms to other atoms.
    """

    def __init__(self, cum: np.ndarray):
        self.cum = cum
        self.size = cum.size
        starts = np.arange(self.size) / self.size * (1.0 - 2.0**-50)
        self.guide = np.searchsorted(cum, starts, side="right")

    def lookup(self, u: np.ndarray) -> np.ndarray:
        cum = self.cum
        bucket = (u * self.size).astype(np.intp)
        idx = self.guide[np.minimum(bucket, self.size - 1, out=bucket)]
        todo = np.flatnonzero(cum[idx] <= u)
        for _ in range(GUIDE_ROUNDS):
            if not todo.size:
                return idx
            idx[todo] += 1
            todo = todo[cum[idx[todo]] <= u[todo]]
        if todo.size:
            idx[todo] = np.searchsorted(cum, u[todo], side="right")
        return idx


def check_stream(spec: ProblemSpec, scheme) -> None:
    """Raise ``SchemeError`` when :func:`run_cells` cannot draw the stream of
    ``spec`` under ``scheme`` (None is the uniform scheme)."""
    if scheme is not None and isinstance(spec.design, GaussianDesign):
        raise SchemeError(
            "resampled streams need an atomized spec; Gaussian designs "
            "support only uniform sampling"
        )


class _Sampler:
    """Vectorized (X, Y) draws of a spec under one or more sampling schemes.

    On discrete specs scheme s draws atoms from q_s = p / c_s, with c_s^{-1}
    its ratios on the spec's atoms (``ratios_on``: SchemeError for a scheme
    built on other atoms).  Each scheme maps the one shared uniform sequence
    through its own guide table and scales every sample by sqrt(c_s).  A
    draw gathers from the spec's own atoms (``design.xs``) and from one
    clean and one labelled response per atom, shared by all schemes; each
    resampled scheme then multiplies its share of the block in place by its
    gathered scales.  So each drawn
    float is the one rounded product x sqrt(c_s) that a table of scaled
    atoms would hold, and the sampler's memory beyond the spec is O(atoms)
    per scheme.  The uniform scheme (None) has scale 1 and is not
    multiplied.  Gaussian specs support only the uniform scheme.
    """

    def __init__(self, spec: ProblemSpec, schemes=(None,)):
        self.spec = spec
        design = spec.design
        self.gaussian = isinstance(design, GaussianDesign)
        for scheme in schemes:
            check_stream(spec, scheme)
        if self.gaussian:
            self._root = _sqrt_psd(*spec.h_eig)
            # Every descriptor has a diagonal H, hence a diagonal root.  Each
            # entry of z @ root.T then has exactly one nonzero term, so scaling
            # z by the diagonal gives the same bits.
            diag = np.diagonal(self._root)
            self._diag = diag.copy() if np.array_equal(self._root, np.diag(diag)) else None
            self.sigma = spec.noise.sigma
            return
        self.residual = isinstance(spec.noise, ResidualNoise)
        self.sigma = 0.0 if self.residual else spec.noise.sigma
        xs, probs = design.xs, design.probs
        self._xs = xs
        self._clean = xs @ spec.w_star
        if self.residual:
            self._ys = design.ys
        # Each atom's largest |x| entry.  Rounding is monotone, so scaled by
        # sqrt(c_s) its maximum is the largest |x| entry scheme s can draw.
        row_max = np.maximum(xs.max(axis=1), -xs.min(axis=1))
        self._guides, self._scales, xmax = [], [], []
        for scheme in schemes:
            weights, scale = probs, None
            if scheme is not None:
                cinv = scheme.ratios_on(spec)
                weights = probs * cinv
                weights = weights / weights.sum()
                scale = np.zeros_like(cinv)
                live = cinv > 0
                scale[live] = 1.0 / np.sqrt(cinv[live])
            cum = np.cumsum(weights)
            cum[-1] = 1.0
            self._guides.append(_GuideTable(cum))
            self._scales.append(scale)
            xmax.append(row_max.max() if scale is None else (row_max * scale).max())
        self._xmax = np.array(xmax)

    def step_floats(self, reps: int, schemes: int) -> int:
        """Floats one step of a :meth:`block` writes into its buffer: x, the
        clean and the observed responses for ``schemes`` schemes, and on
        Gaussian specs with a rotated root the standard normals x is made
        from."""
        floats = schemes * reps * (self.spec.dim + 2)
        return floats + reps * self.spec.dim if self.gaussian and self._diag is None else floats

    def block_steps(self, reps: int, schemes: int, cells: int) -> int:
        """Steps per :meth:`block`: as many as keep a block's buffer, its
        temporaries and the per-cell selection :func:`_drive` takes of it
        for ``cells`` cells under half of ``GROUP_BYTES // CHUNK_SHARE``, so
        that two blocks in flight, one stepped and one drawn, fit the budget
        together."""
        per_step = 8 * self.step_floats(reps, schemes)
        if not self.gaussian:
            # The uniforms, the noise, one index per scheme, and one scheme at
            # a time either its guide lookup (the result, the buckets and the
            # gathered cumulative weights) or its gathered scales.
            per_step += 8 * reps * (5 + schemes)
        # The selection: up to three (cells, reps) response arrays (two
        # gathers and the mixed-mode np.where), and the inputs gathered per
        # cell when the block holds several schemes.
        per_step += 8 * cells * reps * (3 + (self.spec.dim if schemes > 1 else 0))
        return max(1, GROUP_BYTES // CHUNK_SHARE // 2 // per_step)

    def block(self, gen_x: np.random.Generator, gen_eps: np.random.Generator, reps: int,
              steps: int, noisy: bool, schemes, out: np.ndarray | None = None):
        """The draws of ``steps`` consecutive steps for the schemes indexed by
        ``schemes``: ``(x, y_clean, y_noisy, x_max)`` with x of shape
        (steps, len(schemes), reps, d), the responses of shape
        (steps, len(schemes), reps), the observed ones only when ``noisy``
        (else None), and ``x_max`` a bound on every |x| entry of the block.
        The arrays are views of ``out``, a flat float array of at least
        ``steps * step_floats(reps, len(schemes))`` entries, allocated here
        when not given.

        One call per block draws the uniforms (or standard normals) of all
        its steps, and consecutive blocks concatenate to the per-step
        stream.  A Gaussian block scales the normals by a diagonal root in
        one product, or rotates each step's by its own matrix product, and
        projects each step's inputs onto w* by its own product, so every
        float is that of a one-step block.  Noise is drawn from ``gen_eps``
        only when asked for, so cells that share a draw see the same noise
        as cells run alone.
        """
        d, width = self.spec.dim, len(schemes)
        if out is None:
            out = np.empty(steps * self.step_floats(reps, width))
        size = steps * width * reps
        shape = (steps, width, reps)
        x = out[:size * d].reshape(shape + (d,))
        clean = out[size * d:size * (d + 1)].reshape(shape)
        observed = out[size * (d + 1):size * (d + 2)].reshape(shape)
        y = None
        if self.gaussian:
            inputs = x[:, 0]
            if self._diag is not None:
                gen_x.standard_normal(out=inputs)
                inputs *= self._diag
            else:
                z = out[size * (d + 2):size * (d + 2) + steps * reps * d].reshape(steps, reps, d)
                gen_x.standard_normal(out=z)
                root_t = self._root.T
                for k in range(steps):
                    np.matmul(z[k], root_t, out=inputs[k])
            for k in range(steps):
                np.matmul(inputs[k], self.spec.w_star, out=clean[k, 0])
            if noisy:
                y = clean
                if self.sigma > 0:
                    y = gen_eps.standard_normal(out=observed)
                    y *= self.sigma
                    y += clean
            return x, clean, y, float(max(inputs.max(), -inputs.min()))
        u = gen_x.random(steps * reps)
        idx = np.empty(shape, dtype=np.intp)
        for k, s in enumerate(schemes):
            idx[:, k] = self._guides[s].lookup(u).reshape(steps, reps)
        # Every index is in range; mode="clip" lets take write into out unbuffered.
        np.take(self._xs, idx, axis=0, out=x, mode="clip")
        np.take(self._clean, idx, out=clean, mode="clip")
        filled = 1  # the responses held in out: clean, then observed
        if noisy:
            y = clean
            if self.residual:
                y = np.take(self._ys, idx, out=observed, mode="clip")
                filled = 2
            elif self.sigma > 0:
                # The observed response is (clean + sigma eps) sqrt(c), in that order.
                eps = gen_eps.standard_normal(steps * reps)
                eps *= self.sigma
                y = np.add(clean, eps.reshape(steps, 1, reps), out=observed)
                filled = 2
        responses = out[size * d:size * (d + filled)].reshape((filled,) + shape)
        for k, s in enumerate(schemes):
            if self._scales[s] is not None:
                scale = np.take(self._scales[s], idx[:, k])
                x[:, k] *= scale[..., None]
                responses[:, :, k] *= scale
        return x, clean, y, float(self._xmax[schemes].max())


def _generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def _drive(spec, cells: list[Cell], sampler: _Sampler, schemes: list[int], n: int,
           reps: int, seed: int, points: list[int]) -> list[Trajectory]:
    """The one replicate-vectorized loop: steps a stack of cells in lockstep.

    The state ``w`` has shape (cells, replicates, d).  Every step shares one
    draw among all cells: the uniforms (or Gaussian inputs) once, and the
    noise once while a noisy cell is live.  ``schemes`` gives each cell's
    scheme index into ``sampler``; each cell sees the inputs of its own
    scheme, and "bias" cells the noiseless response, the others the
    observed one.  Draws come in blocks of :meth:`_Sampler.block_steps`
    steps from this call's streams.  Block b + 1 is submitted to a
    one-worker executor as soon as block b is received, and drawn into the
    other of two buffers while b is stepped.  The worker calls no public
    avlms function and no ``np.einsum``, which tracers of those calls wrap
    with a span stack that is not thread-safe.  Each live cell's inputs and
    responses are selected once per block, and again from the next step on
    when cells leave, so a step only indexes them.

    Each step computes the LMS coefficients ``coef = gamma (x^T w - y)`` of
    shape (cells, replicates), as an einsum, ``-= y`` and ``*= gamma``, and
    applies ``w -= coef x``: ``x`` has shape (replicates, d) when one scheme
    is drawn and (cells, replicates, d) otherwise.  Each entry of
    ``coef x`` is one rounded product, as a broadcast ``np.multiply`` gives
    it, except that a zero product is +0.

    A cell whose largest squared replicate norm exceeds
    ``DIVERGENCE_NORM**2`` (or is NaN) leaves the stack at that step.  The
    exact check (:func:`_past_limit`) runs only when a running bound
    ``B >= max|w|``, grown by ``max|coef| * x_max`` each step, could reach
    the limit (d B^2 > limit / 2, as in the check itself) or is NaN; it then
    resets B to the exact max|w|.  So cells leave at the steps, replicates
    and norms the check run every step would give.  A leaving cell's
    scheme, and the noise once no noisy cell is left, leave the draws of
    later blocks, and whatever a block drawn before holds for it is never
    read.  An error of the worker is raised here when its block
    is taken, and leaving the executor joins the worker, so no thread
    outlives the call.
    """
    dim = spec.dim
    hmat = spec.hmat
    w_star = spec.w_star
    w = np.stack([np.tile(w_star if c.mode == "variance" else spec.w0, (reps, 1))
                  for c in cells]).astype(float)
    wbar = w.copy()
    scratch = np.empty_like(w)
    gamma = np.array([c.gamma for c in cells], dtype=float)[:, None]
    noiseless = np.array([c.mode == "bias" for c in cells])
    scheme_of = np.asarray(schemes, dtype=np.intp)
    live = np.arange(len(cells))
    iters = [[] for _ in cells]
    risks = [[] for _ in cells]
    errs = [[] for _ in cells]
    diverged = [(None, None, None)] * len(cells)

    def record(m: int) -> None:
        for k, cell in enumerate(live):
            diff = wbar[k] - w_star
            r = np.einsum("ri,ij,rj->r", diff, hmat, diff)
            iters[cell].append(m)
            risks[cell].append(float(r.mean()))
            errs[cell].append(float(r.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0)

    def select(first: int):
        """Each live cell's inputs and responses for the block's steps from
        ``first`` on, and the subscripts of the residual x^T w and of the
        step's product coef x."""
        if len(drawn) == 1:
            rows = slice(0, 1)
        else:
            pos = np.searchsorted(drawn, scheme_of)
            rows = slice(None) if np.array_equal(pos, np.arange(len(drawn))) else pos
        if not noisy:
            y = cb[first:, rows]
        elif mixed:
            y = np.where(noiseless[:, None], cb[first:, rows], yb[first:, rows])
        else:
            y = yb[first:, rows]
        if len(drawn) == 1:
            return xb[first:, 0], y, "cri,ri->cr", "cr,ri->cri"
        return xb[first:, rows], y, "cri,cri->cr", "cr,cri->cri"

    limit = DIVERGENCE_NORM**2
    half_limit = 0.5 * limit
    # Covers the rounding of the product, the step and the bound's own update.
    slack = 1.0 + 2.0**-49
    bound = float(max(w.max(), -w.min()))
    next_idx = 0
    if points[0] == 1:
        record(1)
        next_idx = 1
    noisy = not noiseless.all()
    mixed = noisy and noiseless.any()
    wanted = np.unique(scheme_of)
    steps = min(sampler.block_steps(reps, len(wanted), len(cells)), max(1, n - 1))
    firsts = range(2, n + 1, steps)
    buffers = [np.empty(steps * sampler.step_floats(reps, len(wanted))) for _ in range(2)]
    gen_x, gen_eps = _generators(seed)

    def draw(b: int, drawn: np.ndarray, noise: bool):
        return (drawn, *sampler.block(gen_x, gen_eps, reps, min(steps, n + 1 - firsts[b]),
                                      noise, drawn, out=buffers[b % 2]))

    # Imported here: concurrent.futures loads logging, which no closed-form
    # command needs.
    from concurrent.futures import ThreadPoolExecutor

    m = 1
    # A step-size near the float range overflows a step: that cell diverges
    # and is warned of by the caller, in one line, so numpy's own overflow
    # warnings are not printed.  This holds on this thread only.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="avlms-draws") as pool, \
            np.errstate(over="ignore", invalid="ignore"):

        def ask(b: int):
            return pool.submit(draw, b, wanted, noisy).result

        take = ask(0) if firsts else None
        for b in range(len(firsts)):
            drawn, xb, cb, yb, x_max = take()
            if b + 1 < len(firsts):
                take = ask(b + 1)
            first = 0
            xs, ys, inner, outer = select(first)
            for j in range(len(xb)):
                m += 1
                x = xs[j - first]
                coef = np.einsum(inner, w, x)
                coef -= ys[j - first]
                coef *= gamma
                w -= np.einsum(outer, coef, x, out=scratch)
                bound = (bound + float(np.abs(coef).max()) * x_max) * slack
                if not bound * bound * dim <= half_limit:
                    sq = _past_limit(w, limit)
                    if sq is not None:
                        bad = ~(sq.max(axis=1) <= limit)
                        for k in np.flatnonzero(bad):
                            rep = int(np.argmax(sq[k]))
                            diverged[live[k]] = (m, rep, float(np.sqrt(sq[k, rep])))
                        keep = ~bad
                        w, wbar, gamma = w[keep], wbar[keep], gamma[keep]
                        noiseless, live, scheme_of = noiseless[keep], live[keep], scheme_of[keep]
                        if not len(live):
                            break
                        scratch = np.empty_like(w)
                        noisy = not noiseless.all()
                        mixed = noisy and noiseless.any()
                        wanted = np.unique(scheme_of)
                        first = j + 1
                        xs = ys = None  # drop the old selection before taking the new
                        xs, ys, inner, outer = select(first)
                    bound = float(max(w.max(), -w.min()))
                np.subtract(w, wbar, out=scratch)
                np.divide(scratch, m, out=scratch)
                wbar += scratch
                if next_idx < len(points) and points[next_idx] == m:
                    record(m)
                    next_idx += 1
            if not len(live):
                break
    return [
        Trajectory(
            iterations=np.array(iters[k], dtype=int),
            risk=np.array(risks[k]),
            standard_error=np.array(errs[k]),
            diverged_at=diverged[k][0],
            diverged_replicate=diverged[k][1],
            diverged_norm=diverged[k][2],
        )
        for k in range(len(cells))
    ]


def _past_limit(w: np.ndarray, limit: float) -> np.ndarray | None:
    """The squared replicate norms of ``w``, shape (cells, replicates), when
    one exceeds ``limit`` or is NaN; else None.

    d max|w_i|^2 <= limit/2 keeps every rounded squared norm under the
    limit, so the norms are only computed past that bound (or at a NaN).
    """
    top = max(w.max(), -w.min())
    if top * top * w.shape[-1] <= 0.5 * limit:
        return None
    sq = np.einsum("cri,cri->cr", w, w)
    return None if sq.max() <= limit else sq


def run_cells(spec: ProblemSpec, cells, n: int, replicates: int = 1, seed: int = 0,
              record_at=None) -> list[Trajectory]:
    """Averaged constant-step LMS for a grid of cells (:class:`Cell`), one
    trajectory per cell.

    Every cell runs ``n`` averaged iterates (w_0 through w_{n-1}, i.e.
    n - 1 updates) over ``replicates`` replicates from the master ``seed``,
    and logs the iterate counts in ``record_at`` (every count when None).
    All cells share one uniform (or Gaussian input) stream and one noise
    stream, so each trajectory is bit-identical to its cell run alone.
    Cells are stepped in lockstep, in groups whose state stays under
    ``GROUP_BYTES``; every group restarts the streams from the seed, so
    grouping never changes bits.  Risk is the testing error against the
    spec's true second moment ``spec.hmat``; a scheme leaves the objective
    (and hence H and w*) unchanged and draws the scaled resampled stream.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("run_cells needs at least one cell")
    if n < 1:
        raise ValueError("n must be at least 1")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    points = list(range(1, n + 1)) if record_at is None else sorted({int(m) for m in record_at})
    if not points or points[0] < 1 or points[-1] > n:
        raise ValueError("record_at entries must lie in [1, n]")
    distinct = list({id(c.scheme): c.scheme for c in cells}.values())
    index = {id(s): k for k, s in enumerate(distinct)}
    sampler = _Sampler(spec, distinct)
    # A single cell above the budget still runs, alone in its group.
    size = max(1, GROUP_BYTES // (_STATE_ARRAYS * 8 * replicates * spec.dim))
    out = []
    for k in range(0, len(cells), size):
        group = cells[k:k + size]
        out += _drive(spec, group, sampler, [index[id(c.scheme)] for c in group], n,
                      replicates, seed, points)
    return out
