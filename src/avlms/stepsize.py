"""Maximal stable step-sizes and contraction factors for averaged LMS.

The covariance of the iterates contracts through the operator
T(gamma) = H_L + H_R - gamma M on symmetric matrices.  The largest usable
step-size is the supremum of gamma keeping T positive definite, which is
the reciprocal of the top generalized eigenvalue of the symmetric-definite
pencil (M, H_L + H_R).  This module computes that threshold, the classical
deterministic threshold 2/L, the universal bound 2/Tr(H), and the
contraction factors of I - gamma*T and I - gamma*H together with an
analytic upper bound on their maximum.

The threshold and every spectrum of T are read from one
:class:`SpectralFrame` per MomentSet: the eigenbasis of H, in which
H_L + H_R is the diagonal matrix of pair sums l_a + l_b.  The fourth
moment is rotated into that frame once and shared by every step-size.
The pencil then reduces to a standard symmetric eigenproblem after a
diagonal scaling, and T(gamma) is that diagonal minus gamma times the
shared matrix, whose eigenvalues are cached per gamma.  The dense operator
in the original coordinates is kept only as the reference the tests
compare against, in ``tests/oracles.py``.

The frame is the only owner of the layout of T's eigenbasis.
``SpectralFrame.t_eigenpairs(gamma)`` returns a :class:`TEigenpairs`, and
the closed forms of :mod:`avlms.asymptotics` reach T through its four
members alone: the eigenvalues ``tau``, ``coords`` (the T-eigenbasis
coordinates of a symmetric matrix given in H-eigen coordinates),
``contract`` (the matrix sum_q c_q E_q of coefficients on the T
eigenvectors E_q) and ``side_sum``.  :func:`t_positive` and
:func:`t_invertible` are the one definition of when a spectrum of T is
positive definite or invertible, shared by :meth:`StepSizeReport.at` and
the covariance model.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularOperatorError
from .moments import MomentSet
from .operators import SymBasis

# Relative tolerance below which an eigenvalue of T counts as zero.
PD_TOL = 1e-12


def _tau_scale(tau: np.ndarray) -> float:
    return max(abs(tau[0]), abs(tau[-1]), 1e-300)


def t_positive(tau: np.ndarray) -> bool:
    """Whether T, with ascending eigenvalues ``tau``, is positive definite."""
    return bool(tau[0] > PD_TOL * _tau_scale(tau))


def t_invertible(tau: np.ndarray) -> bool:
    """Whether T, with ascending eigenvalues ``tau``, is invertible."""
    return bool(np.abs(tau).min() > PD_TOL * _tau_scale(tau))


class TEigenpairs:
    """The eigenpairs of T(gamma) at one step-size, in H-eigen coordinates.

    ``tau`` holds the ascending eigenvalues.  The eigenvectors E_q are
    symmetric d x d matrices; callers never see their dense layout and work
    with d x d matrices and length-D coefficient vectors only.
    """

    def __init__(self, basis: SymBasis, tau: np.ndarray, v: np.ndarray):
        self.tau = tau
        self._basis = basis
        self._v = v

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Coefficients <E_q, a> of a symmetric matrix a on the eigenvectors."""
        return self._v.T @ self._basis.mats_to_vecs(a)

    def contract(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_q coeffs[q] * E_q."""
        return self._basis.vecs_to_mats(self._v @ coeffs)

    def side_sum(self, coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_q coeffs[q] * E_q[a,b] * (weights[q,a] + weights[q,b]).

        Coordinate p = (a, b) of the result is g[p,a] + g[p,b] with
        g = v @ (coeffs * weights), one (D, D) x (D, d) product.
        """
        rows, cols = self._basis.pairs
        g = self._v @ (coeffs[:, None] * weights)
        at = np.arange(g.shape[0])
        return self._basis.vecs_to_mats(g[at, rows] + g[at, cols])


class SpectralFrame:
    """The eigenbasis of H of one MomentSet, shared by every step-size.

    ``lam`` and ``u`` are the eigenpairs of H.  ``rmat`` is the orthogonal
    D x D map from the coordinates of A to those of u^T A u.  In the
    rotated coordinates H_L + H_R is ``diag(bdiag)`` with ``bdiag`` the pair
    sums l_a + l_b, and the fourth moment is ``m_rot``, so that
    T(gamma) = diag(bdiag) - gamma * m_rot.
    """

    def __init__(self, moments: MomentSet):
        basis = self.basis = moments.basis
        rows, cols = basis.pairs
        self.lam, self.u = np.linalg.eigh(moments.hmat)
        self.rmat = basis.mats_to_vecs(self.u.T @ basis.matrices() @ self.u).T
        self.bdiag = self.lam[rows] + self.lam[cols]
        m_rot = self.rmat @ moments.fourth_moment.matrix @ self.rmat.T
        self.m_rot = 0.5 * (m_rot + m_rot.T)
        self._tau: dict[float, np.ndarray] = {}

    def t_matrix(self, gamma: float) -> np.ndarray:
        """T(gamma) in the rotated coordinates."""
        t = -gamma * self.m_rot
        t[np.diag_indices_from(t)] += self.bdiag
        return t

    def t_eigenpairs(self, gamma: float) -> TEigenpairs:
        """Eigenpairs of T(gamma); the eigenvalues are kept for later lookups."""
        tau, v = np.linalg.eigh(self.t_matrix(gamma))
        self._keep(float(gamma), tau)
        return TEigenpairs(self.basis, tau, v)

    def t_eigenvalues(self, gamma: float) -> np.ndarray:
        """Ascending eigenvalues of T(gamma), solved once per step-size."""
        key = float(gamma)
        if key not in self._tau:
            self._keep(key, np.linalg.eigvalsh(self.t_matrix(key)))
        return self._tau[key]

    def _keep(self, key: float, tau: np.ndarray) -> None:
        # Every caller of one step-size gets the same array: freeze it.
        tau.setflags(write=False)
        if len(self._tau) > 32:
            self._tau.clear()
        self._tau.setdefault(key, tau)


_frame_cache: "weakref.WeakKeyDictionary[MomentSet, SpectralFrame]" = weakref.WeakKeyDictionary()


def spectral_frame(moments: MomentSet) -> SpectralFrame:
    """The cached :class:`SpectralFrame` of a MomentSet."""
    frame = _frame_cache.get(moments)
    if frame is None:
        frame = _frame_cache[moments] = SpectralFrame(moments)
    return frame


def gamma_max(moments: MomentSet) -> float:
    """Supremum of step-sizes keeping T(gamma) positive definite.

    The threshold is 1/lambda_max of the pencil (M, H_L + H_R).  In the
    eigenbasis of H the second matrix is diagonal, so the pencil is solved
    exactly as the standard symmetric eigenproblem of
    diag(bdiag)^-1/2 m_rot diag(bdiag)^-1/2.  Returns +inf when the fourth
    moment vanishes.
    """
    if moments.mu <= 0:
        raise SingularOperatorError(
            "second-moment matrix must be positive definite",
            smallest_eigenvalue=moments.mu,
        )
    frame = spectral_frame(moments)
    size = moments.basis.size
    if size == 1:
        lam_top = frame.m_rot[0, 0] / frame.bdiag[0]
    else:
        s = 1.0 / np.sqrt(frame.bdiag)
        scaled = s[:, None] * frame.m_rot * s[None, :]
        lam_top = float(
            scipy.linalg.eigh(scaled, eigvals_only=True, subset_by_index=[size - 1, size - 1])[0]
        )
    if lam_top <= 1e-300:
        return math.inf
    return 1.0 / lam_top


def gamma_max_det(moments: MomentSet) -> float:
    """Largest step-size for deterministic gradient descent, 2/L."""
    return 2.0 / moments.lmax


def trace_step_bound(moments: MomentSet) -> float:
    """The universal upper bound 2/Tr(H) on the stochastic threshold."""
    return 2.0 / moments.trace_h


@dataclass(frozen=True)
class ContractionFactors:
    """Spectral radii of I - gamma*T and I - gamma*H, and their max."""

    rho_t: float
    rho_h: float

    @property
    def rho(self) -> float:
        return max(self.rho_t, self.rho_h)


def contraction_factors(moments: MomentSet, gamma: float) -> ContractionFactors:
    """Measured contraction factors at a given step-size.

    Values above 1 are returned as-is; they signal a step-size beyond the
    stable range rather than an error.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    frame = spectral_frame(moments)
    rho_t = float(np.abs(1.0 - gamma * frame.t_eigenvalues(gamma)).max())
    rho_h = float(np.abs(1.0 - gamma * frame.lam).max())
    return ContractionFactors(rho_t=rho_t, rho_h=rho_h)


def contraction_rate_bound(gamma: float, mu: float, g_max: float, dim: int) -> float:
    """Analytic upper bound on the contraction factor rho for 0 < gamma < g_max.

    In dimension >= 2 the bound is 1 - 2*gamma*(1 - gamma/g_max)*mu on the
    upper half of the stable range and 1 - gamma*mu below it; in dimension
    one it is the max of |1 - gamma*mu| and the first expression.
    """
    if not 0 < gamma < g_max:
        raise ValueError(f"gamma must lie in (0, {g_max}), got {gamma}")
    ratio = gamma / g_max
    upper = 1.0 - 2.0 * gamma * (1.0 - ratio) * mu
    if dim == 1:
        return max(abs(1.0 - gamma * mu), upper)
    if ratio >= 0.5:
        return upper
    return 1.0 - gamma * mu


def smallest_t_eigenvalue(moments: MomentSet, gamma: float) -> float:
    """Smallest eigenvalue of T(gamma); positive iff gamma is stable."""
    return float(spectral_frame(moments).t_eigenvalues(gamma)[0])


@dataclass(frozen=True)
class GammaDiagnostics:
    gamma: float
    rho_t: float
    rho_h: float
    rho: float
    rate_bound: float | None
    t_positive: bool


@dataclass(frozen=True, eq=False)
class StepSizeReport:
    """Step-size thresholds of an instance plus per-gamma diagnostics.

    The invariants gamma_max <= 2/Tr(H) <= gamma_max_det hold for every
    distribution; ``sample_count`` carries through the draw count when the
    fourth moment was estimated rather than exact.
    """

    moments: MomentSet
    gamma_max: float
    gamma_max_det: float
    trace_bound: float
    mu: float
    sample_count: int | None = None

    def mu_t(self, gamma: float) -> float:
        return smallest_t_eigenvalue(self.moments, gamma)

    def at(self, gamma: float) -> GammaDiagnostics:
        factors = contraction_factors(self.moments, gamma)
        if 0 < gamma < self.gamma_max:
            bound = contraction_rate_bound(gamma, self.mu, self.gamma_max, self.moments.dim)
        else:
            bound = None
        return GammaDiagnostics(
            gamma=gamma,
            rho_t=factors.rho_t,
            rho_h=factors.rho_h,
            rho=factors.rho,
            rate_bound=bound,
            t_positive=t_positive(spectral_frame(self.moments).t_eigenvalues(gamma)),
        )


def step_size_report(moments: MomentSet) -> StepSizeReport:
    return StepSizeReport(
        moments=moments,
        gamma_max=gamma_max(moments),
        gamma_max_det=gamma_max_det(moments),
        trace_bound=trace_step_bound(moments),
        mu=moments.mu,
        sample_count=moments.n_samples,
    )
