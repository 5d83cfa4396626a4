"""Problem specifications and the moment objects every analysis consumes.

A least-squares instance is described by the distribution of the input
vector X, the optimum w*, a start point w0, and a noise model for
Y = X^T w* + eps.  Three backends are supported so that each closed form
has at least one backend where it is exact:

* analytic zero-mean Gaussian inputs with a known covariance,
* a finite set of atoms with probabilities (optionally carrying labels),
* an ingested sample set (atoms with uniform weights and residual noise).

H = E[X X^T] is ``spec.hmat`` and its eigenpairs are ``spec.h_eig``, both
computed and rank-checked once per spec; every ``MomentSet`` of the spec
holds them.  :func:`compute_moments` adds the
fourth-moment operator, the noise covariance E[eps^2 X X^T] and the start
matrix eta0 eta0^T; :func:`_atom_moments` gives the same objects of a
discrete design under any atom weights, which is how
:func:`~avlms.sampling.moment_sets` resamples one.  Both build new sets on
every call; what a spec keeps, :mod:`avlms.sampling` alone decides.
Gaussian resampled moments are exact in closed form only:
:func:`norm_resampled_moments` and :func:`leverage_resampled_moments` are
those of the two optimal schemes.

Every producer writes the fourth moment directly in H's eigenbasis (the
coordinates of u^T A u, H = u diag(l) u^T), where T is read, and hands it
to the MomentSet's :class:`~avlms.operators.SpectralFrame` as a block on
the first basis coordinates plus one scalar on each of the others.  The
three exact Gaussian forms give a d x d block and D - d scalars, built
from their scaled P by :func:`_gaussian_moments`, so no D x D array is
formed; atoms give the D x D weighted Gram of the rank-one coordinates of
the rotated rows ``xs @ u`` as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, SpecError
from .operators import (
    MAX_DIM,
    SpectralFrame,
    SymBasis,
    _as_symmetric,
    fourth_moment_operator_from_samples,
)

RANK_TOL = 1e-10  # smallest eigenvalue of H below this times trace -> rank deficient

# Trapezoid rule in x = log s for the norm-resampling integrals: the
# integrands are analytic in the strip |Im x| < pi, so the rule's error is
# of order exp(-2 pi^2 / step), far below rounding; the ends are cut where
# the tails fall under 2^-60.
QUAD_STEP = 0.125
QUAD_LOG_TOL = math.log(2.0**-60)


@dataclass(frozen=True)
class GaussianDesign:
    """X ~ N(0, cov) with a known covariance; H = E[X X^T] is ``cov``."""

    cov: np.ndarray

    @property
    def hmat(self) -> np.ndarray:
        return self.cov


@dataclass(frozen=True)
class DiscreteDesign:
    """X drawn from finitely many atoms; ys, when present, pins Y per atom.

    ``hmat`` is H = sum_t probs_t x_t x_t^T, symmetrized and read-only, and
    ``sq_norms`` the squared atom norms x_t^T x_t, read-only: both computed
    once per design.
    """

    xs: np.ndarray
    probs: np.ndarray
    ys: np.ndarray | None = None
    hmat: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hmat = np.einsum("t,ti,tj->ij", self.probs, self.xs, self.xs)
        hmat = 0.5 * (hmat + hmat.T)
        object.__setattr__(self, "hmat", _read_only(hmat))
        object.__setattr__(self, "sq_norms",
                           _read_only(np.einsum("ti,ti->t", self.xs, self.xs)))


@dataclass(frozen=True)
class IndependentGaussianNoise:
    """Y = X^T w* + sigma * Z with Z standard normal, independent of X."""

    sigma: float


@dataclass(frozen=True)
class ResidualNoise:
    """Y comes with the data; the residual y - x^T w* plays the role of eps."""


Design = GaussianDesign | DiscreteDesign
Noise = IndependentGaussianNoise | ResidualNoise


@dataclass(frozen=True)
class ProblemSpec:
    """A complete least-squares instance.

    ``kind`` is one of "gaussian", "discrete", "empirical"; empirical specs
    are discrete designs with uniform row weights and residual noise whose
    optimum is the exact least-squares fit of the ingested rows.  ``hmat``
    is the design's H = E[X X^T] and ``h_eig`` its ascending eigenpairs
    ``(l, u)``, solved once by the constructors, which reject H rank
    deficient.  On a discrete spec, ``_kept`` holds what
    :mod:`avlms.sampling` keeps: the spec's own MomentSet (key None), each
    optimal :class:`~avlms.sampling.SamplingScheme` by name, and each of
    those schemes' MomentSets keyed by the scheme.  Each is built on its
    first request and never dropped, so a spec holds at most three D x D
    frames, and all the callers that share one spec, such as the commands
    on one ingested data set in a process, build each of them once.
    """

    dim: int
    design: Design
    w_star: np.ndarray
    w0: np.ndarray
    noise: Noise
    kind: str
    h_eig: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def eta0(self) -> np.ndarray:
        return self.w0 - self.w_star

    @property
    def hmat(self) -> np.ndarray:
        return self.design.hmat

    @staticmethod
    def gaussian(cov, w_star=None, w0=None, sigma: float = 0.0) -> "ProblemSpec":
        _require_finite(cov=cov, w_star=w_star, w0=w0, sigma=sigma)
        cov = _as_symmetric(cov, "cov")
        d = _width(cov.shape[0])
        w_star = _vector(w_star, d, default=0.0)
        w0 = _vector(w0, d, default=0.0)
        if sigma < 0:
            raise SpecError("sigma must be nonnegative")
        cov.setflags(write=False)
        h_eig = _full_rank_eigenpairs(cov, "gaussian")
        return ProblemSpec(d, GaussianDesign(cov), w_star, w0,
                           IndependentGaussianNoise(float(sigma)), "gaussian", h_eig)

    @staticmethod
    def discrete(xs, probs=None, ys=None, w_star=None, w0=None, sigma: float = 0.0,
                 kind: str = "discrete") -> "ProblemSpec":
        _require_finite(xs=xs, probs=probs, ys=ys, w_star=w_star, w0=w0, sigma=sigma)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n, d = xs.shape
        if n == 0:
            raise SpecError("discrete design needs at least one atom")
        _width(d)
        if probs is None:
            probs = np.full(n, 1.0 / n)
        else:
            probs = np.asarray(probs, dtype=float)
            if probs.shape != (n,):
                raise SpecError("one probability per atom is required")
            if probs.min() < 0:
                raise SpecError("atom probabilities must be nonnegative")
            if abs(probs.sum() - 1.0) > 1e-12:
                raise SpecError(f"atom probabilities sum to {probs.sum()!r}, not 1")
            probs = probs / probs.sum()
        w0 = _vector(w0, d, default=0.0)
        if ys is not None:
            ys = np.asarray(ys, dtype=float)
            if ys.shape != (n,):
                raise SpecError("one label per atom is required")
            if w_star is not None:
                raise SpecError("residual specs compute w_star from the data; do not pass it")
        else:
            if sigma < 0:
                raise SpecError("sigma must be nonnegative")
            w_star = _vector(w_star, d, default=0.0)
        for arr in (xs, probs) + (() if ys is None else (ys,)):
            arr.setflags(write=False)
        design = DiscreteDesign(xs, probs, ys)
        h_eig = _full_rank_eigenpairs(design.hmat, kind)
        if ys is None:
            noise = IndependentGaussianNoise(float(sigma))
            return ProblemSpec(d, design, w_star, w0, noise, kind, h_eig)
        w_star = _read_only(np.linalg.solve(design.hmat, np.einsum("t,ti,t->i", probs, xs, ys)))
        return ProblemSpec(d, design, w_star, w0, ResidualNoise(), kind, h_eig)

    @staticmethod
    def empirical(xs, ys, w0=None) -> "ProblemSpec":
        """Spec for an ingested sample set: uniform rows, residual noise."""
        return ProblemSpec.discrete(xs, ys=ys, w0=w0, kind="empirical")


def _width(d: int) -> int:
    """``d``, the width of a spec; SpecError unless 1 <= d <= MAX_DIM."""
    if d == 0:
        raise SpecError("a spec needs at least one feature, got dimension 0")
    if d > MAX_DIM:
        raise SpecError(f"dimension {d} exceeds the supported cap {MAX_DIM}")
    return d


def _require_finite(**values) -> None:
    """SpecError naming the first of ``values`` (None skipped) with a
    non-finite entry."""
    for name, value in values.items():
        if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
            raise SpecError(f"{name} must be finite")


def _vector(v, d: int, default: float) -> np.ndarray:
    if v is None:
        out = np.full(d, default)
    else:
        out = np.asarray(v, dtype=float).reshape(-1)
        if out.shape != (d,):
            raise DimensionError(f"expected a vector of length {d}, got shape {out.shape}")
        out = out.copy()
    out.setflags(write=False)
    return out


def _full_rank_eigenpairs(hmat: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of H, read-only: the one eigensolve of H a spec
    makes.  Raises SpecError when H is rank deficient."""
    lam, u = np.linalg.eigh(hmat)
    if lam[0] <= RANK_TOL * max(np.trace(hmat), 1e-300):
        raise SpecError(
            f"{kind} second-moment matrix is rank deficient "
            f"(smallest eigenvalue {lam[0]:.3e} vs trace {np.trace(hmat):.3e})"
        )
    lam.setflags(write=False)
    u.setflags(write=False)
    return lam, u


@dataclass(frozen=True, eq=False)
class MomentSet:
    """All moment objects of an instance, in one immutable bundle.

    ``frame`` holds the fourth moment A -> E[(X^T A X) X X^T] in H's
    eigenbasis (the ``basis`` coordinates of u^T A u, with
    ``(l, u) = spec.h_eig``) and reads T(gamma) from it: one block on the
    first basis coordinates, of order D for atom sets and d for the
    Gaussian forms, plus scalars on the rest; ``frame.fourth_moment()``
    writes it out as a D x D matrix.  ``sigma0`` is E[eps^2 X X^T] and
    ``e0`` the rank-one matrix eta0 eta0^T, both in the original
    coordinates.
    ``_norm_resampled`` marks the moments of norm-proportional resampling:
    :func:`norm_resampled_moments` sets it on Gaussian specs, and
    :func:`~avlms.sampling.moment_sets` on atoms for a scheme whose
    ``closed_form`` is that function.  Every resampled draw then has
    ||X||^2 = Tr(H), so the threshold is 2/Tr(H) without a pencil solve.
    The step-size-free inputs of the closed forms (``e0_eigbasis``,
    ``sigma0_eigbasis``, ``hinv_traces``, ``frobenius_norms``) are formed
    on first use and kept, so every model on one MomentSet shares them.
    """

    dim: int
    basis: SymBasis
    hmat: np.ndarray
    sigma0: np.ndarray
    e0: np.ndarray
    trace_h: float
    mu: float
    lmax: float
    frame: SpectralFrame = field(repr=False)
    _norm_resampled: bool = field(default=False, repr=False)

    def __post_init__(self):
        for arr in (self.hmat, self.sigma0, self.e0):
            arr.setflags(write=False)

    @cached_property
    def e0_eigbasis(self) -> np.ndarray:
        """E0 in H's eigenbasis, u^T E0 u (read-only)."""
        return _read_only(self.frame.u.T @ self.e0 @ self.frame.u)

    @cached_property
    def sigma0_eigbasis(self) -> np.ndarray:
        """Sigma0 in H's eigenbasis, u^T Sigma0 u (read-only)."""
        return _read_only(self.frame.u.T @ self.sigma0 @ self.frame.u)

    @cached_property
    def hinv_traces(self) -> tuple[float, float]:
        """Tr(H^-1 E0) and Tr(H^-1 Sigma0), the horizon-free factors of the
        small step-size equivalents."""
        hinv_e0 = np.linalg.solve(self.hmat, self.e0)
        hinv_s0 = np.linalg.solve(self.hmat, self.sigma0)
        return float(np.trace(hinv_e0)), float(np.trace(hinv_s0))

    @cached_property
    def frobenius_norms(self) -> tuple[float, float]:
        """||E0||_F and ||Sigma0||_F, the scales of the remainder bounds."""
        return float(np.linalg.norm(self.e0)), float(np.linalg.norm(self.sigma0))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _assemble(spec: ProblemSpec, frame: SpectralFrame, sigma0,
              norm_resampled: bool = False) -> MomentSet:
    """Bundle the frame of a fourth moment with the spec's own H and the
    start matrix."""
    hmat = spec.hmat
    lam = frame.lam
    return MomentSet(
        dim=spec.dim,
        basis=frame.basis,
        hmat=hmat,
        sigma0=0.5 * (sigma0 + sigma0.T),
        e0=np.outer(spec.eta0, spec.eta0),
        trace_h=float(np.trace(hmat)),
        mu=float(lam[0]),
        lmax=float(lam[-1]),
        frame=frame,
        _norm_resampled=norm_resampled,
    )


def _gaussian_moments(spec: ProblemSpec, pmat: np.ndarray, scale: float, sigma0,
                      norm_resampled: bool = False) -> MomentSet:
    """The MomentSet whose fourth moment is ``scale`` times the Gaussian form
    of ``pmat``: A -> 2 P o A + diag(P diag(A)) in H-eigen coordinates,
    with P the scaled ``pmat``.  With P = l l^T it is the Gaussian fourth
    moment 2 H A H + Tr(A H) H; the resampled Gaussian moments are
    multiples of it for other P.  Its matrix holds the d x d block
    P + 2 diag(diag P) on the diagonal coordinates and the scalar 2 P_ab on
    each pair coordinate a < b, so each pair is an exact eigenvector of
    T(gamma) and each step-size costs one order-d eigensolve."""
    d = spec.dim
    basis = SymBasis(d)
    rows, cols = basis.pairs
    pmat = scale * pmat
    frame = SpectralFrame(basis, *spec.h_eig, pmat + np.diag(2.0 * np.diag(pmat)),
                          2.0 * pmat[rows[d:], cols[d:]])
    return _assemble(spec, frame, sigma0, norm_resampled)


def _atom_residuals(spec: ProblemSpec) -> np.ndarray:
    design = spec.design
    if not isinstance(design, DiscreteDesign) or design.ys is None:
        raise SpecError("residuals are only defined for specs carrying labels")
    return design.ys - design.xs @ spec.w_star


def compute_moments(spec: ProblemSpec) -> MomentSet:
    """Exact moments of a specification.

    Gaussian designs use the closed-form fourth moment (the Gaussian form
    of :func:`_gaussian_moments` with P = l l^T), and their noise
    covariance factorizes to sigma^2 H; discrete designs use exact
    probability-weighted atom averages.  Each call builds a new set.
    """
    if isinstance(spec.design, DiscreteDesign):
        return _atom_moments(spec, [spec.design.probs], [False])[0]
    lam = spec.h_eig[0]
    return _gaussian_moments(spec, np.outer(lam, lam), 1.0, spec.noise.sigma**2 * spec.hmat)


def _atom_moments(spec: ProblemSpec, weight_rows, norm_resampled) -> list[MomentSet]:
    """New moments of a discrete spec whose fourth-order objects weight atom
    t by ``wts[t]``, one MomentSet per row ``wts`` of ``weight_rows``:
    ``probs`` for the spec itself, ``probs * c`` resampled, flagged row by
    row in ``norm_resampled`` when norm-proportional.  The rows share one
    pass of the atom Gram, which gives each row the bits it gets alone.
    """
    xs = spec.design.xs
    residual = isinstance(spec.noise, ResidualNoise)
    eps2 = _atom_residuals(spec) ** 2 if residual else spec.noise.sigma**2
    basis = SymBasis(spec.dim)
    fourths = fourth_moment_operator_from_samples(xs, basis, weights=np.stack(weight_rows),
                                                  rotation=spec.h_eig[1])
    return [_assemble(spec, SpectralFrame(basis, *spec.h_eig, fourth),
                      (xs * (wts * eps2)[:, None]).T @ xs, flag)
            for wts, fourth, flag in zip(weight_rows, fourths, norm_resampled)]


def _sqrt_psd(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symmetric square root of the PSD matrix with eigenpairs (lam, u)."""
    return u @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ u.T


def _chi_mean(d: int) -> float:
    """E||Z|| for Z ~ N(0, I_d): sqrt(2) Gamma((d+1)/2) / Gamma(d/2).

    Gamma overflows from d = 343 on; there the ratio is the exp of a
    difference of lgamma values.  That difference cancels to about 1e-13
    relative, so where Gamma is finite its ratio (about 1e-16) is kept.
    """
    try:
        return math.sqrt(2.0) * math.gamma((d + 1) / 2) / math.gamma(d / 2)
    except OverflowError:
        return math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))


def _gaussian_cov(spec: ProblemSpec, scheme: str) -> np.ndarray:
    if not isinstance(spec.design, GaussianDesign):
        raise SpecError(f"the closed-form {scheme} moments need a Gaussian design")
    return spec.design.cov


def leverage_resampled_moments(spec: ProblemSpec) -> MomentSet:
    """Exact moments of a Gaussian spec resampled by c^{-1} = ||H^-1/2 X|| / K.

    K = E||Z|| for Z ~ N(0, I_d) normalizes the leverage ratio.  Writing
    X = H^1/2 r theta with r = ||H^-1/2 X|| independent of the direction
    theta, the weight c = K/r only changes the radial moments:
    E[c r^4] = K E[r^3] = (d+1) K^2 against E[r^4] = d(d+2).  So the fourth
    moment is kappa M_gauss with kappa = (d+1) K^2 / (d(d+2)), the noise
    covariance is sigma^2 K^2/d H, and gamma_max is divided by kappa.
    """
    cov = _gaussian_cov(spec, "leverage-resampled")
    d = spec.dim
    k = _chi_mean(d)
    lam = spec.h_eig[0]
    kappa = (d + 1) * k**2 / (d * (d + 2))
    sigma0 = spec.noise.sigma**2 * k**2 / d * cov
    return _gaussian_moments(spec, np.outer(lam, lam), kappa, sigma0)


def norm_resampled_moments(spec: ProblemSpec) -> MomentSet:
    """Exact moments of a Gaussian spec resampled by c^{-1} = ||X||^2 / Tr(H).

    With 1/||x||^2 = int_0^inf exp(-s ||x||^2) ds, the weighted Gaussian
    law is a scale mixture of N(0, H_s), H_s = (H^-1 + 2s I)^-1, with
    mixing weight w(s) = det(I + 2s H)^-1/2.  In the eigenbasis
    H = u diag(l) u^T, H_s has eigenvalues h_a(s) = l_a / (1 + 2s l_a), and
    the Gaussian fourth moment of each N(0, H_s) integrates to

        M'(A)_ab = Tr(H) [2 G_ab A_ab + delta_ab sum_c G_ac A_cc],
        Sigma0'  = sigma^2 Tr(H) u diag(g) u^T,

    with G = int w h h^T ds and g = int w h ds (A in the eigenbasis), so
    M' is Tr(H) times the Gaussian form with P = G.  Every resampled
    draw has ||X||^2 = Tr(H), so gamma_max is 2/Tr(H).
    """
    cov = _gaussian_cov(spec, "norm-resampled")
    trace_h = float(np.trace(cov))
    lam, u = spec.h_eig
    g, gmat = _norm_resampling_integrals(lam)
    sigma0 = spec.noise.sigma**2 * trace_h * ((u * g) @ u.T)
    return _gaussian_moments(spec, gmat, trace_h, sigma0, norm_resampled=True)


def _norm_resampling_integrals(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = int w h ds and G = int w h h^T ds of :func:`norm_resampled_moments`.

    Trapezoid rule in x = log s with step QUAD_STEP.  Below
    s = 1/(2 l_max) the integrands grow like s; above s = 1/(2 l_min) they
    decay at least like s^(-d/2); each end is cut where its tail is below
    2^-60 of the integral.
    """
    d = lam.size
    lo = math.log(0.5 / lam[-1]) + QUAD_LOG_TOL
    hi = math.log(0.5 / lam[0]) - 2.0 * QUAD_LOG_TOL / d
    s = np.exp(lo + QUAD_STEP * np.arange(math.ceil((hi - lo) / QUAD_STEP) + 1))
    q = 1.0 + 2.0 * s[:, None] * lam[None, :]
    h = lam / q
    # ds = s dx; w(s) = prod_a q_a^-1/2
    wts = QUAD_STEP * s * np.exp(-0.5 * np.log(q).sum(axis=1))
    return wts @ h, (h * wts[:, None]).T @ h


def _gaussian_mean_norm(lam: np.ndarray) -> float:
    """E||X|| = (1/(2 sqrt(pi))) int_0^inf (1 - w(s)) s^(-3/2) ds for
    X ~ N(0, H), H with ascending eigenvalues ``lam``.

    w(s) = E exp(-s ||X||^2) as in :func:`_norm_resampling_integrals`, with
    the same trapezoid rule; the integrand decays only like s^(+-1/2), so
    each end is pushed out by 2 |QUAD_LOG_TOL|.
    """
    lo = math.log(0.5 / lam[-1]) + 2.0 * QUAD_LOG_TOL
    hi = math.log(0.5 / lam[0]) - 2.0 * QUAD_LOG_TOL
    s = np.exp(lo + QUAD_STEP * np.arange(math.ceil((hi - lo) / QUAD_STEP) + 1))
    one_minus_w = -np.expm1(-0.5 * np.log1p(2.0 * s[:, None] * lam[None, :]).sum(axis=1))
    return QUAD_STEP * float(one_minus_w @ (1.0 / np.sqrt(s))) / (2.0 * math.sqrt(math.pi))


@dataclass(frozen=True)
class CrossTermReport:
    """Exactness check for the bias/variance split.

    ``terms[i, j, k]`` estimates E[X_i X_j X_k eps]; the split into bias
    plus variance covariances is exact when every entry vanishes.
    """

    terms: np.ndarray
    max_abs: float
    max_stderr: float
    decomposable: bool


def check_cross_term_condition(spec: ProblemSpec) -> CrossTermReport:
    """Estimate all d^3 third-moment-times-residual terms of a spec."""
    d = spec.dim
    design = spec.design
    if isinstance(design, GaussianDesign) or isinstance(spec.noise, IndependentGaussianNoise):
        # eps independent of X with mean zero kills every term exactly.
        terms = np.zeros((d, d, d))
        return CrossTermReport(terms, 0.0, 0.0, True)
    xs, probs = design.xs, design.probs
    eps = _atom_residuals(spec)
    terms = np.einsum("t,ti,tj,tk->ijk", probs * eps, xs, xs, xs)
    if spec.kind == "empirical":
        n = xs.shape[0]
        second = np.einsum("t,ti,tj,tk->ijk", probs * eps**2, xs**2, xs**2, xs**2)
        stderr = np.sqrt(np.maximum(second - terms**2, 0.0) / n)
    else:
        stderr = np.zeros_like(terms)  # exact expectation, no sampling noise
    scale = max(np.trace(spec.hmat), 1e-300) ** 1.5
    scale *= np.sqrt(max((probs * eps**2).sum(), 1e-300)) + 1e-300
    atol = 1e-12 * scale
    ok = np.all(np.abs(terms) <= np.maximum(3.0 * stderr, atol))
    return CrossTermReport(
        terms, float(np.abs(terms).max()), float(stderr.max()), bool(ok)
    )
