"""Maximal stable step-sizes for averaged LMS.

The covariance of the iterates contracts through the operator
T(gamma) = H_L + H_R - gamma M on symmetric matrices.  The largest usable
step-size is the supremum of gamma keeping T positive definite, which is
the reciprocal of the top generalized eigenvalue of the symmetric-definite
pencil (M, H_L + H_R).  This module computes that threshold, the classical
deterministic threshold 2/L, the universal bound 2/Tr(H), and an
analytic upper bound on the contraction factor rho, the larger spectral
radius of I - gamma*T and I - gamma*H (``CovarianceModel(m, gamma).rho``
measures it).

The threshold and every spectrum of T are read from the frame each
MomentSet is built with (:mod:`avlms.operators`), in the eigenbasis of H,
where H_L + H_R is the diagonal matrix of pair sums l_a + l_b.  The pencil
then reduces to a standard symmetric eigenproblem after a diagonal
scaling.  The :class:`~avlms.operators.SpectralFrame` solves it, and
T(gamma), as one block plus scalars in D = d(d+1)/2 coordinates: one
order-D block on atom sets, and one d x d block and O(D) scalars on the
Gaussian forms.  The dense operators in the original coordinates
are kept only as the references the tests compare against, in
``tests/oracles.py``.

:func:`t_positive` and :func:`t_invertible` are the one definition of
when a spectrum of T is positive definite or invertible, shared by the
readers here and by :class:`~avlms.asymptotics.CovarianceModel`.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularOperatorError
from .moments import MomentSet

# Relative tolerance below which an eigenvalue of T counts as zero.
PD_TOL = 1e-12


def _tau_scale(tau: np.ndarray) -> float:
    return max(np.abs(tau).max(), 1e-300)


def t_positive(tau: np.ndarray) -> bool:
    """Whether T, with eigenvalues ``tau`` in any order, is positive definite."""
    return bool(tau.min() > PD_TOL * _tau_scale(tau))


def t_invertible(tau: np.ndarray) -> bool:
    """Whether T, with eigenvalues ``tau`` in any order, is invertible."""
    return bool(np.abs(tau).min() > PD_TOL * _tau_scale(tau))


def gamma_max(moments: MomentSet) -> float:
    """Supremum of step-sizes keeping T(gamma) positive definite.

    The threshold is 1/lambda_max of the pencil (M, H_L + H_R), which the
    MomentSet's frame solves (``pencil_top``), clamped at 2/Tr(H).  The
    pencil's top is at least Tr(H)/2 for every distribution (take A = I in
    its Rayleigh quotient), so the clamp only absorbs the eigensolver's
    last-ulp rounding, and gamma_max <= 2/Tr(H) holds by construction.
    Norm-resampled moments reach the bound: with ||X||^2 = Tr(H) on every
    draw, (X^T A X)^2 <= Tr(H) X^T A^2 X caps the quotient at Tr(H)/2, so
    their threshold is 2/Tr(H) itself, with no pencil solve.
    """
    if moments.mu <= 0:
        raise SingularOperatorError(
            "second-moment matrix must be positive definite",
            smallest_eigenvalue=moments.mu,
        )
    if moments._norm_resampled:
        return trace_step_bound(moments)
    return min(1.0 / moments.frame.pencil_top(), trace_step_bound(moments))


def gamma_max_det(moments: MomentSet) -> float:
    """Largest step-size for deterministic gradient descent, 2/L."""
    return 2.0 / moments.lmax


def trace_step_bound(moments: MomentSet) -> float:
    """The universal upper bound 2/Tr(H) on the stochastic threshold."""
    return 2.0 / moments.trace_h


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
    """Smallest eigenvalue of T(gamma); positive iff gamma is stable.

    It reads the spectrum the MomentSet's frame keeps (``t_eigenvalues``):
    a repeated call at the same ``gamma`` solves nothing."""
    return float(moments.frame.t_eigenvalues(gamma).min())
