"""Closed-form covariances of the averaged iterate.

Everything here evaluates E[etabar_n etabar_n^T], the covariance of the
averaged centered iterate after n averaged iterates, split into

* the bias part (noiseless model, eps = 0, driven by eta0), and
* the variance part (started at the optimum, eta0 = 0, driven by eps),

in three forms each: the exact finite-n expectation under the i.i.d.
model, the leading non-exponential terms, and a scalar Frobenius-norm
bound on the exponentially decaying difference between the two.

Evaluation strategy.  Work in the eigen coordinates of H held by the
MomentSet's frame (``moments.frame``).  There every geometric factor built
from H is diagonal, H_L + H_R is the diagonal of pair sums l_a + l_b, and
the fourth moment is written in those coordinates by the producer of the
MomentSet; so T = diag(l_a + l_b) - gamma M is solved once per
(moments, gamma), when the :class:`CovarianceModel` of that pair is built.
The double sums then collapse into scalar geometric sums per
(T-eigenvalue, H-eigenvalue) pair.  The horizon-independent contractions
T^-1 E0, T^-1 Sigma0 and T^-2 Sigma0 are formed with the model, and each
horizon n costs the same, independent of n: O(D^2 d) on the dense frame,
O(D + d^2) plus two d x d rotations on the Gaussian block frame.  Matrix
powers are never formed.
For step-sizes in the stable range the exact value is assembled as
leading-terms-plus-remainder so that the difference between the two
methods reproduces the remainder to machine precision even when it sits
far below the rounding error of the leading terms.

The model reaches T only through the frame's per-step-size
:class:`~avlms.operators.TEigenpairs`: its eigenvalues ``tau``, the
coordinates ``coords`` of E0 and Sigma0 on the T eigenvectors, and the
two ways back to d x d matrices, ``contract`` and ``side_sum``.  Nothing
here knows how those eigenvectors are stored: ``side_sum`` takes its
weights as a kernel of (T index, H index), which the dense frame
evaluates on the full (D, d) grid and the block frame only at the
O(D + d^2) entries it reads.  The model is the
one entry point: build one per (moments, gamma) and reuse it across
horizons; :meth:`CovarianceModel.report` gathers every closed form at one
horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularOperatorError
from .moments import MomentSet
from .stepsize import t_invertible, t_positive


def _geom_sum(a: np.ndarray, n: int) -> np.ndarray:
    """sum_{i=0}^{n-1} a^i elementwise, stable near a = 1."""
    a = np.asarray(a, dtype=float)
    u = 1.0 - a
    out = np.full(a.shape, float(n))
    pos = (a > 0.0) & (u != 0.0)
    rest = (a <= 0.0) & (u != 0.0)
    if np.any(pos):
        up = u[pos]
        out[pos] = -np.expm1(n * np.log1p(-up)) / up
    if np.any(rest):
        out[rest] = (1.0 - a[rest] ** n) / u[rest]
    return out


def _pair_sum(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """sum_{i=0}^{n-1} a^(n-i) b^i elementwise with broadcasting.

    Evaluated as a * hi^(n-1) * geom(lo/hi, n) with |lo| <= |hi| so the
    geometric part never grows and near-equal bases stay accurate.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if n == 1:
        return a.copy()
    swap = np.abs(b) > np.abs(a)
    hi = np.where(swap, b, a)
    lo = np.where(swap, a, b)
    inner = np.zeros_like(hi)
    nz = hi != 0.0
    ratio = np.zeros_like(hi)
    ratio[nz] = lo[nz] / hi[nz]
    inner[nz] = hi[nz] ** (n - 1) * _geom_sum(ratio[nz], n)
    return a * inner


class CovarianceModel:
    """Spectral data of one (moments, gamma) pair, reused across horizons.

    Holds the H eigendecomposition from the MomentSet's frame, the
    eigenpairs ``t_eig`` of the contraction generator T in those
    coordinates, the coefficients of eta0 eta0^T and E[eps^2 X X^T] on the
    T eigenvectors, the horizon-independent pieces of the leading terms
    and the traces of the small step-size equivalents.
    """

    def __init__(self, moments: MomentSet, gamma: float):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.moments = moments
        self.gamma = float(gamma)
        frame = moments.frame
        lam, u = frame.lam, frame.u
        if lam[0] <= 0:
            raise SingularOperatorError(
                "second-moment matrix must be positive definite", smallest_eigenvalue=float(lam[0])
            )
        self.lam = lam
        self.rot = u
        self.omega = 1.0 - gamma * lam

        self.t_eig = frame.t_eigenpairs(gamma)
        tau = self.tau = self.t_eig.tau
        self.theta = 1.0 - gamma * tau
        self.e0_coords = self.t_eig.coords(u.T @ moments.e0 @ u)
        self.sigma0_coords = self.t_eig.coords(u.T @ moments.sigma0 @ u)

        # inverse-weight surface (1/l_a + 1/l_b - gamma) of H_L^-1 + H_R^-1 - gamma I
        inv = 1.0 / lam
        self.wsurf = inv[:, None] + inv[None, :] - gamma

        self.rho_t = float(np.abs(self.theta).max())
        self.rho_h = float(np.abs(self.omega).max())
        self.rho = max(self.rho_t, self.rho_h)
        self.mu_t = float(tau[0])
        self.t_positive = t_positive(tau)
        self.t_invertible = t_invertible(tau)

        if self.t_invertible:
            # Horizon-independent contractions T^-1 E0, T^-1 Sigma0, T^-2 Sigma0.
            self._e0_t1 = self.t_eig.contract(self.e0_coords / tau)
            self._s0_t1 = self.t_eig.contract(self.sigma0_coords / tau)
            self._s0_t2 = self.t_eig.contract(self.sigma0_coords / tau**2)
            qk = self.omega / (gamma * lam) ** 2
            self._var_corr = (qk[:, None] + qk[None, :]) * self._s0_t1
        self._tr_e0, self._tr_s0 = _hinv_traces(moments)

    # -- internal pieces, all in the rotated (H-eigen) coordinates ---------

    def _rotate_back(self, a: np.ndarray) -> np.ndarray:
        out = self.rot @ a @ self.rot.T
        return 0.5 * (out + out.T)

    def _require_stable(self, what: str) -> None:
        if not self.t_positive:
            raise SingularOperatorError(
                f"{what} needs 0 < gamma < gamma_max (contraction generator not "
                f"positive definite; smallest eigenvalue {self.mu_t:.3e})",
                smallest_eigenvalue=self.mu_t,
            )

    def _bias_leading_rotated(self, n: int) -> np.ndarray:
        return self.wsurf * self._e0_t1 / (self.gamma**2 * n**2)

    def _variance_leading_rotated(self, n: int) -> np.ndarray:
        g = self.gamma
        z1 = self.wsurf * self._s0_t1
        z2 = self.wsurf * self._s0_t2
        return z1 / n - z2 / (g * n**2) - g * self._var_corr / n**2

    # -- public evaluations -------------------------------------------------

    def bias_leading(self, n: int) -> np.ndarray:
        """The 1/(gamma^2 n^2) bias term (H_L^-1 + H_R^-1 - gamma I) T^-1 E0."""
        self._require_stable("the leading bias term")
        return self._rotate_back(self._bias_leading_rotated(_check_n(n)))

    def bias_exact(self, n: int) -> np.ndarray:
        """Exact E[etabar etabar^T] under eps = 0 for any gamma > 0.

        Beyond the stability threshold the value grows without bound and
        may overflow to non-finite entries; that is reported, not raised.
        """
        n = _check_n(n)
        if n == 1:
            return self.moments.e0.copy()
        g = self.gamma

        def side(q, a):
            return _pair_sum(self.omega[a], self.theta[q], n) / (g * self.lam)[a]

        with np.errstate(over="ignore", invalid="ignore"):
            a_term = -self.t_eig.side_sum(self.e0_coords, side) / n**2
            if self.t_positive:
                b_term = (
                    -self.wsurf
                    * self.t_eig.contract(self.e0_coords * self.theta**n / self.tau)
                    / (g**2 * n**2)
                )
                lead = self._rotate_back(self._bias_leading_rotated(n))
                return lead + self._rotate_back(a_term + b_term)
            # T is singular or indefinite: evaluate the finite sum directly.
            s_inf = self.omega / (g * self.lam)
            g_sum = _geom_sum(self.theta, n)
            main = (1.0 + s_inf[:, None] + s_inf[None, :]) * self.t_eig.contract(
                self.e0_coords * g_sum
            )
            return self._rotate_back((main / n**2) + a_term)

    def variance_leading(self, n: int) -> np.ndarray:
        """(H_L^-1 + H_R^-1 - gamma I) T^-1 Sigma0 / n plus the complete 1/n^2
        correction: exact minus leading is purely exponential at every n."""
        self._require_stable("the leading variance terms")
        return self._rotate_back(self._variance_leading_rotated(_check_n(n)))

    def variance_exact(self, n: int) -> np.ndarray:
        """Exact E[etabar etabar^T] under eta0 = 0; needs T invertible."""
        n = _check_n(n)
        if not self.t_invertible:
            raise SingularOperatorError(
                "the exact variance sum divides by T, which is singular here "
                f"(eigenvalue closest to zero: {self.tau[np.abs(self.tau).argmin()]:.3e})",
                smallest_eigenvalue=self.mu_t,
            )
        if n == 1:
            return np.zeros((self.moments.dim, self.moments.dim))
        g = self.gamma

        def side(q, a):
            omega = self.omega[a]
            return (_pair_sum(omega, self.theta[q], n) - omega**n) / self.lam[a]

        with np.errstate(over="ignore", invalid="ignore"):
            c_term = self.t_eig.side_sum(self.sigma0_coords / self.tau, side) / n**2
            d_term = (
                self.wsurf
                * self.t_eig.contract(self.sigma0_coords * self.theta**n / self.tau**2)
                / (g * n**2)
            )
            qpk = self.omega**n / (g * self.lam) ** 2
            q_term = g * (qpk[:, None] + qpk[None, :]) * self._s0_t1 / n**2
            lead = self._rotate_back(self._variance_leading_rotated(n))
            return lead + self._rotate_back(c_term + d_term + q_term)

    def bias_remainder_bound(self, n: int) -> float:
        """Frobenius bound on exact-minus-leading for the bias part."""
        n = _check_n(n)
        self._require_stable("the bias remainder bound")
        if self.rho >= 1.0:
            raise SingularOperatorError("the remainder bound needs a contraction factor below 1")
        m = self.moments
        g, mu = self.gamma, m.mu
        e0_norm = float(np.linalg.norm(m.e0))
        return (
            m.dim
            * self.rho**n
            * e0_norm
            / (g * n)
            * (2.0 / mu + (2.0 / mu - g) / (self.mu_t * n * g))
        )

    def variance_remainder_bound(self, n: int) -> float:
        """Frobenius bound on exact-minus-leading for the variance part.

        Three pieces, one per exponential remainder term: the H-geometric
        tail, the T-geometric tail, and the doubly H-damped tail of the
        averaged prefix sums.
        """
        n = _check_n(n)
        self._require_stable("the variance remainder bound")
        if self.rho >= 1.0:
            raise SingularOperatorError("the remainder bound needs a contraction factor below 1")
        m = self.moments
        g, mu, mu_t = self.gamma, m.mu, self.mu_t
        s0_norm = float(np.linalg.norm(m.sigma0))
        bracket = (
            (2.0 / mu - g) / (n * g * mu_t**2)
            + 2.0 / (mu * mu_t)
            + 2.0 / (n * g * mu**2 * mu_t)
        )
        return m.dim * self.rho**n * s0_norm / n * bracket

    def report(self, n: int) -> CovarianceReport:
        """Every closed-form prediction of this model at horizon n."""
        moments, gamma = self.moments, self.gamma
        bias_exact = self.bias_exact(n)
        var_exact = self.variance_exact(n) if self.t_invertible else None
        stable = self.t_positive and self.rho < 1.0
        bias_lead = self.bias_leading(n) if stable else None
        var_lead = self.variance_leading(n) if stable else None
        return CovarianceReport(
            gamma=gamma,
            n=int(n),
            bias_exact=bias_exact,
            bias_leading=bias_lead,
            variance_exact=var_exact,
            variance_leading=var_lead,
            bias_remainder_bound=self.bias_remainder_bound(n) if stable else None,
            variance_remainder_bound=self.variance_remainder_bound(n) if stable else None,
            bias_risk_exact=excess_risk(moments, bias_exact),
            bias_risk_leading=excess_risk(moments, bias_lead) if stable else None,
            variance_risk_exact=excess_risk(moments, var_exact) if var_exact is not None else None,
            variance_risk_leading=excess_risk(moments, var_lead) if stable else None,
            small_gamma_bias=self._tr_e0 / (gamma**2 * n**2),
            small_gamma_variance=self._tr_s0 / n,
        )


def _check_n(n) -> int:
    if n != int(n) or int(n) < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


def small_gamma_equivalents(moments: MomentSet, gamma: float, n: int) -> tuple[float, float]:
    """Small step-size equivalents of the two excess-risk components.

    Bias: eta0^T H^-1 eta0 / (gamma^2 n^2).  Variance: E[eps^2 X^T H^-1 X] / n,
    which collapses to d sigma^2 / n when the noise is independent of X.
    """
    n = _check_n(n)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    tr_e0, tr_s0 = _hinv_traces(moments)
    return tr_e0 / (gamma**2 * n**2), tr_s0 / n


def _hinv_traces(moments: MomentSet) -> tuple[float, float]:
    """Tr(H^-1 E0) and Tr(H^-1 Sigma0), the horizon-free factors of the
    small step-size equivalents."""
    hinv_e0 = np.linalg.solve(moments.hmat, moments.e0)
    hinv_s0 = np.linalg.solve(moments.hmat, moments.sigma0)
    return float(np.trace(hinv_e0)), float(np.trace(hinv_s0))


def excess_risk(moments: MomentSet, delta: np.ndarray) -> float:
    """Excess risk Tr(H Delta) of a covariance contribution Delta."""
    delta = np.asarray(delta, dtype=float)
    return float(np.einsum("ij,ji->", moments.hmat, delta))


def total_error_envelope(bias_risk: float, variance_risk: float) -> float:
    """Upper envelope 2*(bias + variance) valid without any independence."""
    if bias_risk < 0 or variance_risk < 0:
        raise ValueError("risk components must be nonnegative")
    return 2.0 * (bias_risk + variance_risk)


@dataclass(frozen=True)
class CovarianceReport:
    """Every closed-form prediction at one (gamma, n).

    Leading terms and remainder bounds are None when the step-size is at
    or beyond the stability threshold; the exact bias covariance is always
    present and the exact variance covariance whenever T is invertible.
    """

    gamma: float
    n: int
    bias_exact: np.ndarray
    bias_leading: np.ndarray | None
    variance_exact: np.ndarray | None
    variance_leading: np.ndarray | None
    bias_remainder_bound: float | None
    variance_remainder_bound: float | None
    bias_risk_exact: float
    bias_risk_leading: float | None
    variance_risk_exact: float | None
    variance_risk_leading: float | None
    small_gamma_bias: float
    small_gamma_variance: float
