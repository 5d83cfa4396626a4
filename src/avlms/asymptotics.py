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
T^-1 E0, T^-1 Sigma0 and T^-2 Sigma0 are formed once per model, and a
horizon's cost does not depend on n.  Matrix powers are never formed.
A whole schedule of horizons is evaluated in one pass: every sum and
power takes a leading horizon axis, and a group of horizons, sized so
its temporaries stay within ``operators.GRAM_CHUNK_BYTES``, forms its
pair sum sum_i omega_a^(n-i) theta_q^i once, for both the bias and the
variance side sums.  The horizons are float64, exact up to 2^53, and each
of them gets the bits it gets alone.
For step-sizes in the stable range the exact value is assembled as
leading-terms-plus-remainder so that the difference between the two
methods reproduces the remainder to machine precision even when it sits
far below the rounding error of the leading terms.

One term assembly serves two read-outs.  The covariance matrices read
every H-eigen coordinate and rotate back: O(D^2 d) per horizon on an atom
set's order-D block, O(D + d^2) plus two d x d rotations on a Gaussian
form's d x d block.  A risk Tr(H Delta) = sum_a l_a Delta'_aa reads only
the d diagonal coordinates (:meth:`CovarianceModel.risks`): O(D d) and
O(d^2) respectively, since the frame's scalar eigenvectors never reach
the diagonal, with no rotation.

The model reaches T only through the frame's per-step-size
:class:`~avlms.operators.TEigenpairs`: its eigenvalues ``tau``, the
coordinates ``coords`` of E0 and Sigma0 on the T eigenvectors, and the
two ways back to d x d matrices, ``contract`` and ``side_sum``, each with
its diagonal read-out.  Nothing here knows how those eigenvectors are
stored: the eigenpairs name the T indices a diagonal read-out reads (the
first ``k``: the block eigenpairs, d of D on a Gaussian form) and the
(T index, H index) grid of the side sum weights (``side_grid``), and the
model evaluates its coefficients and weights there only.  The model is
the one entry point: build one per (moments, gamma) and reuse it across
horizons; :meth:`CovarianceModel.risks` gives the four risks at every
horizon of a schedule, the matrix methods the one-horizon case of the
same sums, and the remainder bounds one horizon each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularOperatorError
from .moments import MomentSet
from .operators import GRAM_CHUNK_BYTES
from .stepsize import t_invertible, t_positive


def _powers(x: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """x ** n elementwise for each horizon n of ns, on a new leading axis.

    Bit for bit ``x ** int(n)``: numpy squares for a scalar exponent 2,
    where np.power of an exponent array rounds differently.
    """
    x = np.asarray(x, dtype=float)
    out = np.power(x, ns.reshape(ns.shape + (1,) * x.ndim))
    out[ns == 2.0] = np.square(x)
    return out


def _geom_sum(a: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """sum_{i=0}^{n-1} a^i elementwise for each horizon n of ns (a new
    leading axis), stable near a = 1."""
    a = np.asarray(a, dtype=float)
    u = 1.0 - a
    out = np.empty(ns.shape + a.shape)
    out[...] = ns.reshape(ns.shape + (1,) * a.ndim)
    pos = (a > 0.0) & (u != 0.0)
    rest = (a <= 0.0) & (u != 0.0)
    if np.any(pos):
        up = u[pos]
        out[:, pos] = -np.expm1(ns[:, None] * np.log1p(-up)) / up
    if np.any(rest):
        out[:, rest] = (1.0 - _powers(a[rest], ns)) / u[rest]
    return out


def _pair_sum(a: np.ndarray, b: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """sum_{i=0}^{n-1} a^(n-i) b^i elementwise with broadcasting, for each
    horizon n of ns (a new leading axis).

    Evaluated as a * hi^(n-1) * geom(lo/hi, n) with |lo| <= |hi| so the
    geometric part never grows and near-equal bases stay accurate.  Only
    the power of hi and the geometric sum depend on n.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    swap = np.abs(b) > np.abs(a)
    hi = np.where(swap, b, a)
    lo = np.where(swap, a, b)
    nz = hi != 0.0
    hi_nz = hi[nz]
    part = _powers(hi_nz, ns - 1.0)
    part *= _geom_sum(lo[nz] / hi_nz, ns)
    out = np.zeros(ns.shape + hi.shape)
    out[:, nz] = part
    out *= a
    out[ns == 1.0] = a
    return out


class _Readout:
    """The model's terms in H-eigen coordinates, read out either as full
    d x d matrices or as their d diagonal entries only, which is all a risk
    Tr(H Delta) = sum_a l_a Delta'_aa reads.

    ``contract`` and ``side_sum`` are the T eigenpairs' matrix or diagonal
    read-outs, ``surface(v)`` is v_a + v_b on the same coordinates (a, b),
    and the horizon-independent contractions T^-1 E0, T^-1 Sigma0 and
    T^-2 Sigma0 are formed once per read-out.  A read-out keeps only what
    it reads: ``tau``, ``theta`` and the coefficients at the T indices its
    contractions read (d of D for the diagonal on a Gaussian form), and
    omega and the eigenvalues of H on the index grid of its side weights.
    Terms carry a leading horizon axis; ``horizons(ns)`` lines a horizon
    array up with them.
    """

    def __init__(self, model: CovarianceModel, diagonal: bool):
        t_eig, g, lam = model.t_eig, model.gamma, model.lam
        self.diagonal = diagonal
        self.contract = t_eig.contract_diag if diagonal else t_eig.contract
        self.side_sum = t_eig.side_sum_diag if diagonal else t_eig.side_sum
        at = slice(t_eig.k if diagonal else None)
        self.tau, self.theta = model.tau[at], model.theta[at]
        self.e0, self.sigma0 = model.e0_coords[at], model.sigma0_coords[at]
        q, a = t_eig.side_grid(diagonal)
        self.side_theta, self.side_omega = model.theta[q], model.omega[a]
        self.side_a = a
        # Horizons per group: one (group, side grid) array of floats is an
        # eighth of GRAM_CHUNK_BYTES, so the group's temporaries stay within it.
        self.group = max(1, GRAM_CHUNK_BYTES // (64 * np.broadcast(q, a).size))
        # inverse-weight surface (1/l_a + 1/l_b - gamma) of H_L^-1 + H_R^-1 - gamma I
        self.wsurf = self.surface(1.0 / lam) - g
        if model.t_invertible:
            self.e0_t1 = self.contract(self.e0 / self.tau)
            self.s0_t1 = self.contract(self.sigma0 / self.tau)
            self.s0_t2 = self.contract(self.sigma0 / self.tau**2)
            self.var_corr = self.surface(model.omega / (g * lam) ** 2) * self.s0_t1

    def surface(self, v: np.ndarray) -> np.ndarray:
        """v_a + v_b at every read-out coordinate (a, b), over v's leading axes."""
        return 2.0 * v if self.diagonal else v[..., :, None] + v[..., None, :]

    def horizons(self, ns: np.ndarray) -> np.ndarray:
        """The horizons ns shaped to broadcast against a term."""
        return ns.reshape(ns.shape + ((1,) if self.diagonal else (1, 1)))

    def pair_sum(self, ns: np.ndarray) -> np.ndarray:
        """sum_i omega_a^(n-i) theta_q^i on the side grid at each horizon:
        the one array both side sums derive their weights from."""
        return _pair_sum(self.side_omega, self.side_theta, ns)


@dataclass(frozen=True)
class Risks:
    """The four excess risks Tr(H Delta) of one model at one horizon.  The
    leading risks are None off the stable range (:attr:`CovarianceModel.stable`),
    the exact variance risk where T is singular."""

    bias_exact: float
    bias_leading: float | None
    variance_exact: float | None
    variance_leading: float | None


class CovarianceModel:
    """Spectral data of one (moments, gamma) pair, reused across horizons.

    Holds the H eigendecomposition from the MomentSet's frame, the
    eigenpairs ``t_eig`` of the contraction generator T in those
    coordinates, the coefficients of eta0 eta0^T and E[eps^2 X X^T] on the
    T eigenvectors and the traces of the small step-size equivalents.  The
    horizon-independent pieces of the leading terms are formed on first
    use, once for the matrices and once for the risks.
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
        self.e0_coords = self.t_eig.coords(moments.e0_eigbasis)
        self.sigma0_coords = self.t_eig.coords(moments.sigma0_eigbasis)

        self.rho_t = float(np.abs(self.theta).max())
        self.rho_h = float(np.abs(self.omega).max())
        self.rho = max(self.rho_t, self.rho_h)
        self.mu_t = float(tau.min())
        self.t_positive = t_positive(tau)
        self.t_invertible = t_invertible(tau)
        # Leading terms and remainder bounds exist only here.
        self.stable = self.t_positive and self.rho < 1.0

    @cached_property
    def _full(self) -> _Readout:
        return _Readout(self, diagonal=False)

    @cached_property
    def _diag(self) -> _Readout:
        return _Readout(self, diagonal=True)

    # -- term assembly, in the rotated (H-eigen) coordinates of a read-out --

    def _rotate_back(self, a: np.ndarray) -> np.ndarray:
        out = self.rot @ a @ self.rot.T
        return 0.5 * (out + out.T)

    def _risks(self, terms: np.ndarray) -> list[float]:
        """Tr(H Delta) = sum_a l_a Delta'_aa at each horizon of diagonal terms."""
        return np.matmul(terms[:, None, :], self.lam)[:, 0].tolist()

    def _require_stable(self, what: str) -> None:
        if not self.t_positive:
            raise SingularOperatorError(
                f"{what} needs 0 < gamma < gamma_max (contraction generator not "
                f"positive definite; smallest eigenvalue {self.mu_t:.3e})",
                smallest_eigenvalue=self.mu_t,
            )

    def _bias_leading_terms(self, ns: np.ndarray, r: _Readout) -> np.ndarray:
        n = r.horizons(ns)
        return r.wsurf * r.e0_t1 / (self.gamma**2 * n**2)

    def _variance_leading_terms(self, ns: np.ndarray, r: _Readout) -> np.ndarray:
        g, n = self.gamma, r.horizons(ns)
        z1 = r.wsurf * r.s0_t1
        z2 = r.wsurf * r.s0_t2
        return z1 / n - z2 / (g * n**2) - g * r.var_corr / n**2

    def _bias_exact_terms(self, ns: np.ndarray, r: _Readout, pair: np.ndarray,
                          theta_n: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """The exact bias at horizons n >= 2 as (leading terms, remainder); off
        the stable range, (None, the finite sum evaluated directly).  ``pair``
        is ``r.pair_sum(ns)`` and ``theta_n`` is ``_powers(r.theta, ns)``."""
        g, n = self.gamma, r.horizons(ns)
        a_term = -r.side_sum(r.e0, pair / (g * self.lam)[r.side_a]) / n**2
        if self.t_positive:
            b_term = -r.wsurf * r.contract(r.e0 * theta_n / r.tau) / (g**2 * n**2)
            return self._bias_leading_terms(ns, r), a_term + b_term
        # T is singular or indefinite: evaluate the finite sum directly.
        s_inf = self.omega / (g * self.lam)
        main = (1.0 + r.surface(s_inf)) * r.contract(r.e0 * _geom_sum(r.theta, ns))
        return None, main / n**2 + a_term

    def _variance_exact_terms(self, ns: np.ndarray, r: _Readout, pair: np.ndarray,
                              theta_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact variance at horizons n >= 2, T invertible, as (leading
        terms, remainder).  ``pair`` and ``theta_n`` are as in
        :meth:`_bias_exact_terms`."""
        g, n = self.gamma, r.horizons(ns)
        omega_n = _powers(self.omega, ns)
        side = (pair - omega_n[:, r.side_a]) / self.lam[r.side_a]
        c_term = r.side_sum(r.sigma0 / r.tau, side) / n**2
        d_term = r.wsurf * r.contract(r.sigma0 * theta_n / r.tau**2) / (g * n**2)
        q_term = g * r.surface(omega_n / (g * self.lam) ** 2) * r.s0_t1 / n**2
        return self._variance_leading_terms(ns, r), c_term + d_term + q_term

    # -- public evaluations -------------------------------------------------

    def bias_leading(self, n: int) -> np.ndarray:
        """The 1/(gamma^2 n^2) bias term (H_L^-1 + H_R^-1 - gamma I) T^-1 E0."""
        self._require_stable("the leading bias term")
        ns = np.array([_check_n(n)], dtype=float)
        return self._rotate_back(self._bias_leading_terms(ns, self._full)[0])

    def bias_exact(self, n: int) -> np.ndarray:
        """Exact E[etabar etabar^T] under eps = 0 for any gamma > 0.

        Beyond the stability threshold the value grows without bound and
        may overflow to non-finite entries; that is reported, not raised.
        """
        n = _check_n(n)
        if n == 1:
            return self.moments.e0.copy()
        ns, r = np.array([n], dtype=float), self._full
        with np.errstate(over="ignore", invalid="ignore"):
            lead, rest = self._bias_exact_terms(ns, r, r.pair_sum(ns),
                                                _powers(r.theta, ns))
            if lead is None:
                return self._rotate_back(rest[0])
            return self._rotate_back(lead[0]) + self._rotate_back(rest[0])

    def variance_leading(self, n: int) -> np.ndarray:
        """(H_L^-1 + H_R^-1 - gamma I) T^-1 Sigma0 / n plus the complete 1/n^2
        correction: exact minus leading is purely exponential at every n."""
        self._require_stable("the leading variance terms")
        ns = np.array([_check_n(n)], dtype=float)
        return self._rotate_back(self._variance_leading_terms(ns, self._full)[0])

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
        ns, r = np.array([n], dtype=float), self._full
        with np.errstate(over="ignore", invalid="ignore"):
            lead, rest = self._variance_exact_terms(ns, r, r.pair_sum(ns),
                                                    _powers(r.theta, ns))
            return self._rotate_back(lead[0]) + self._rotate_back(rest[0])

    def risks(self, schedule) -> list[Risks]:
        """The excess risks Tr(H Delta) of the four covariances at each
        horizon of ``schedule``.

        Assembled from the same terms as the matrices, read out on the d
        diagonal H-eigen coordinates only, with no rotation: O(d^2) per
        horizon on a Gaussian form's d x d block, O(D d) on an atom set's
        order-D block.
        The horizons are evaluated in groups, each one pass: the group's
        pair sum is formed once and serves the bias and the variance side
        sums, and the group's temporaries stay within GRAM_CHUNK_BYTES.
        The leading risks are None off the stable range, the exact variance
        risk when T is singular; an exact risk that overflows is returned
        non-finite.
        """
        ns = np.array([_check_n(n) for n in schedule], dtype=float)
        r = self._diag
        out = []
        for start in range(0, ns.size, r.group):
            out += self._group_risks(ns[start:start + r.group], r)
        return out

    def _group_risks(self, ns: np.ndarray, r: _Readout) -> list[Risks]:
        """One group's risks.  The pair sum and theta^n serve both exact
        sums, and the leading risks read the leading terms those sums return
        (stable implies T positive definite, hence invertible)."""
        none = [None] * ns.size
        var, bias_leading, var_leading = list(none), none, none
        with np.errstate(over="ignore", invalid="ignore"):
            pair = r.pair_sum(ns)
            theta_n = _powers(r.theta, ns) if self.t_invertible else None
            lead, rest = self._bias_exact_terms(ns, r, pair, theta_n)
            bias = self._risks(rest if lead is None else lead + rest)
            if self.stable:
                bias_leading = self._risks(lead)
            if self.t_invertible:
                lead, rest = self._variance_exact_terms(ns, r, pair, theta_n)
                var = self._risks(lead + rest)
                if self.stable:
                    var_leading = self._risks(lead)
        for k in np.flatnonzero(ns == 1.0):
            # The first iterate is the start: no sum to evaluate.
            bias[k] = excess_risk(self.moments, self.moments.e0)
            var[k] = 0.0 if self.t_invertible else None
        return [Risks(*fields) for fields in zip(bias, bias_leading, var, var_leading)]

    def bias_remainder_bound(self, n: int) -> float:
        """Frobenius bound on exact-minus-leading for the bias part."""
        n = _check_n(n)
        self._require_stable("the bias remainder bound")
        if self.rho >= 1.0:
            raise SingularOperatorError("the remainder bound needs a contraction factor below 1")
        m = self.moments
        g, mu = self.gamma, m.mu
        e0_norm = m.frobenius_norms[0]
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
        s0_norm = m.frobenius_norms[1]
        bracket = (
            (2.0 / mu - g) / (n * g * mu_t**2)
            + 2.0 / (mu * mu_t)
            + 2.0 / (n * g * mu**2 * mu_t)
        )
        return m.dim * self.rho**n * s0_norm / n * bracket


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
    tr_e0, tr_s0 = moments.hinv_traces
    try:
        bias = tr_e0 / (gamma**2 * n**2)
    except OverflowError:  # gamma^2 is past the float range; gamma n need not be
        bias = tr_e0 / (gamma * n) / (gamma * n)
    return bias, tr_s0 / n


def excess_risk(moments: MomentSet, delta: np.ndarray) -> float:
    """Excess risk Tr(H Delta) of a covariance contribution Delta."""
    delta = np.asarray(delta, dtype=float)
    return float(np.einsum("ij,ji->", moments.hmat, delta))
