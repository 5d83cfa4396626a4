"""Linear operators on the space of symmetric d-by-d matrices.

Symmetric matrices of size d form a vector space of dimension
D = d(d+1)/2.  Once an orthonormal basis (under the Frobenius inner
product) is fixed, every linear map that is stable on that space becomes
an ordinary D-by-D matrix.  The library writes every fourth-moment
operator this way in the coordinates of u^T A u, where H = u diag(l) u^T:
there H_L + H_R is diagonal, so :class:`SpectralFrame` reads the threshold
and every spectrum of T(gamma) = H_L + H_R - gamma M without rotating
anything.  The dense operators in the original coordinates are the
references the tests compare against, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Dense D x D algebra stays trivial up to this size (D <= 2080).
MAX_DIM = 64

_SQRT2 = np.sqrt(2.0)


def _check_dim(dim: int) -> int:
    dim = int(dim)
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise DimensionError(f"dimension {dim} exceeds the supported cap {MAX_DIM}")
    return dim


def _as_symmetric(a: np.ndarray, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > tol * scale:
        raise DimensionError(f"{name} is not symmetric")
    return 0.5 * (a + a.T)


class SymBasis:
    """Orthonormal basis of the symmetric d x d matrices.

    Ordering: the d diagonal units e_i e_i^T first, then
    (e_i e_j^T + e_j e_i^T) / sqrt(2) for i < j in row-major order.
    Coordinates taken in this basis are an isometry between the Frobenius
    norm on matrices and the Euclidean norm on R^D.
    """

    def __init__(self, dim: int):
        self.dim = _check_dim(dim)
        d = self.dim
        rows = list(range(d))
        cols = list(range(d))
        for i in range(d):
            for j in range(i + 1, d):
                rows.append(i)
                cols.append(j)
        self.size = d * (d + 1) // 2
        self._rows = np.array(rows)
        self._cols = np.array(cols)
        # sqrt(2) on off-diagonal coordinates makes the basis orthonormal
        self._scale = np.where(self._rows == self._cols, 1.0, _SQRT2)

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index (i, j), i <= j, of every coordinate."""
        return self._rows, self._cols

    def mats_to_vecs(self, mats: np.ndarray) -> np.ndarray:
        """Coordinates of a (..., d, d) stack of symmetric matrices."""
        mats = np.asarray(mats, dtype=float)
        return mats[..., self._rows, self._cols] * self._scale

    def vecs_to_mats(self, vecs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`mats_to_vecs` for a (..., D) stack."""
        vecs = np.asarray(vecs, dtype=float)
        out = np.zeros(vecs.shape[:-1] + (self.dim, self.dim))
        scaled = vecs / self._scale
        out[..., self._rows, self._cols] = scaled
        out[..., self._cols, self._rows] = scaled
        return out


def _rank_one_coords(xs: np.ndarray, basis: SymBasis) -> np.ndarray:
    """Coordinates of x x^T for each row x of xs, shape (N, D).

    Built in place: at its peak it holds two (N, D) arrays, not three.
    """
    out = xs[:, basis._rows]
    out *= xs[:, basis._cols]
    out *= basis._scale
    return out


def fourth_moment_operator_from_samples(
    samples: np.ndarray, basis: SymBasis | None = None, weights: np.ndarray | None = None,
    coords: np.ndarray | None = None,
) -> np.ndarray:
    """D x D matrix of the empirical fourth-moment operator
    A -> mean[(x^T A x) x x^T], in the coordinates of ``basis``.

    In orthonormal coordinates this is the (weighted) second-moment matrix
    of the coordinate vectors of x x^T, hence symmetric positive
    semidefinite by construction.  Rows already rotated into H's
    eigenbasis (``xs @ u``) give the operator in that basis.  ``coords``,
    when given, holds those vectors (``_rank_one_coords(samples, basis)``),
    so several weightings of one sample share a single (N, D) array.
    """
    xs = np.atleast_2d(np.asarray(samples, dtype=float))
    if xs.shape[0] == 0:
        raise DimensionError("sample list is empty")
    if basis is None:
        basis = SymBasis(xs.shape[1])
    elif basis.dim != xs.shape[1]:
        raise DimensionError("basis and sample dimensions differ")
    u = _rank_one_coords(xs, basis) if coords is None else coords
    if u.shape != (xs.shape[0], basis.size):
        raise DimensionError("coords must hold one rank-one coordinate row per sample")
    if weights is None:
        mat = u.T @ u / xs.shape[0]
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (xs.shape[0],):
            raise DimensionError("weights must have one entry per sample")
        mat = (u * weights[:, None]).T @ u
    return 0.5 * (mat + mat.T)


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
    """T(gamma) of one MomentSet in the eigenbasis of H, for every step-size.

    ``lam`` and ``u`` are the eigenpairs of H.  In the coordinates of
    u^T A u, H_L + H_R is ``diag(bdiag)`` with ``bdiag`` the pair sums
    l_a + l_b, and the fourth moment is ``m_eig``, so that
    T(gamma) = diag(bdiag) - gamma * m_eig.  Building the frame is O(D);
    the eigenvalues of T are kept per step-size.
    """

    def __init__(self, basis: SymBasis, lam: np.ndarray, u: np.ndarray, m_eig: np.ndarray):
        rows, cols = basis.pairs
        self.basis = basis
        self.lam, self.u = lam, u
        self.bdiag = lam[rows] + lam[cols]
        self.m_eig = m_eig
        self._tau: dict[float, np.ndarray] = {}

    def t_matrix(self, gamma: float) -> np.ndarray:
        """T(gamma) in H-eigen coordinates."""
        t = -gamma * self.m_eig
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
