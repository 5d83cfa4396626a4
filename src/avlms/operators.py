"""Linear operators on the space of symmetric d-by-d matrices.

Symmetric matrices of size d form a vector space of dimension
D = d(d+1)/2.  Once an orthonormal basis (under the Frobenius inner
product) is fixed, every linear map that is stable on that space becomes
an ordinary D-by-D matrix.  The library writes every fourth-moment
operator this way in the coordinates of u^T A u, where H = u diag(l) u^T:
there H_L + H_R is diagonal, so a frame reads the threshold and every
spectrum of T(gamma) = H_L + H_R - gamma M without rotating anything.

Two frames share one interface (``pencil_top``, ``t_eigenpairs``,
``t_eigenvalues``):

* :class:`SpectralFrame` holds M as a dense D x D matrix and solves
  T(gamma) with one D x D eigensolve; atom sets use it, plain or
  resampled (Gaussian resampled moments are exact or refused, so no
  sampled estimate reaches a frame);
* :class:`BlockFrame` uses the structure of the Gaussian forms, where T
  splits into D - d scalar eigenpairs and one d x d block, so it forms
  only d x d and length-D arrays.

Each frame also writes its fourth moment out as a D x D matrix on
request (``fourth_moment``); nothing in the library reads it, and the
dense frame built from a block frame's matrix is the oracle of the block
frame.  The dense operators in the original coordinates are the
references the tests compare against, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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

    def side_sum(self, coeffs: np.ndarray, kernel) -> np.ndarray:
        """sum_q coeffs[q] * E_q[a,b] * (w[q,a] + w[q,b]), w[q,a] = kernel(q, a).

        ``kernel`` maps broadcastable index arrays q (into ``tau``) and a
        (into H's eigenvalues) to the weights there.  Here it is evaluated
        on the full (D, d) grid; coordinate p = (a, b) of the result is
        g[p,a] + g[p,b] with g = v @ (coeffs * w), one (D, D) x (D, d)
        product.
        """
        rows, cols = self._basis.pairs
        weights = kernel(np.arange(self.tau.size)[:, None], np.arange(self._basis.dim)[None, :])
        g = self._v @ (coeffs[:, None] * weights)
        at = np.arange(g.shape[0])
        return self._basis.vecs_to_mats(g[at, rows] + g[at, cols])


class SpectralFrame:
    """T(gamma) of one MomentSet in the eigenbasis of H, for every step-size.

    ``lam`` and ``u`` are the eigenpairs of H.  In the coordinates of
    u^T A u, H_L + H_R is ``diag(bdiag)`` with ``bdiag`` the pair sums
    l_a + l_b, and the fourth moment is ``m_eig``, so that
    T(gamma) = diag(bdiag) - gamma * m_eig.  Building the frame is O(D);
    every call solves T(gamma) afresh.  This dense frame serves any fourth
    moment; :class:`BlockFrame` is its structured twin for Gaussian forms.
    """

    def __init__(self, basis: SymBasis, lam: np.ndarray, u: np.ndarray, m_eig: np.ndarray):
        rows, cols = basis.pairs
        self.basis = basis
        self.lam, self.u = lam, u
        self.bdiag = lam[rows] + lam[cols]
        m_eig.setflags(write=False)
        self.m_eig = m_eig

    def fourth_moment(self) -> np.ndarray:
        """The D x D matrix of the fourth moment, as given."""
        return self.m_eig

    def pencil_top(self) -> float:
        """Top eigenvalue of the pencil (M, H_L + H_R): that of the standard
        symmetric problem diag(bdiag)^-1/2 m_eig diag(bdiag)^-1/2."""
        size = self.basis.size
        if size == 1:
            return self.m_eig[0, 0] / self.bdiag[0]
        s = 1.0 / np.sqrt(self.bdiag)
        scaled = s[:, None] * self.m_eig * s[None, :]
        return float(
            scipy.linalg.eigh(scaled, eigvals_only=True, subset_by_index=[size - 1, size - 1])[0]
        )

    def t_matrix(self, gamma: float) -> np.ndarray:
        """T(gamma) in H-eigen coordinates."""
        t = -gamma * self.m_eig
        t[np.diag_indices_from(t)] += self.bdiag
        return t

    def t_eigenpairs(self, gamma: float) -> TEigenpairs:
        """Eigenpairs of T(gamma)."""
        tau, v = np.linalg.eigh(self.t_matrix(gamma))
        return TEigenpairs(self.basis, tau, v)

    def t_eigenvalues(self, gamma: float) -> np.ndarray:
        """Ascending eigenvalues of T(gamma)."""
        return np.linalg.eigvalsh(self.t_matrix(gamma))


class BlockEigenpairs:
    """The eigenpairs of T(gamma) of a :class:`BlockFrame`, with the
    interface of :class:`TEigenpairs` in O(D + d^2) per call.

    Before sorting, eigenpair r < d is block eigenvector ``v[:, r]`` on the
    diagonal coordinates, and r >= d is basis coordinate r itself (a pair
    a < b).  ``tau`` is sorted ascending through a stable permutation;
    ``_pos[r]`` is the sorted index of eigenpair r.
    """

    def __init__(self, basis: SymBasis, tau_block: np.ndarray, v: np.ndarray,
                 tau_pairs: np.ndarray):
        raw = np.concatenate([tau_block, tau_pairs])
        order = np.argsort(raw, kind="stable")
        self.tau = raw[order]
        self._order = order
        self._pos = np.empty_like(order)
        self._pos[order] = np.arange(order.size)
        self._basis = basis
        self._v = v

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Coefficients <E_q, a> of a symmetric matrix a on the eigenvectors."""
        d = self._basis.dim
        vec = self._basis.mats_to_vecs(a)
        return np.concatenate([self._v.T @ vec[:d], vec[d:]])[self._order]

    def contract(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_q coeffs[q] * E_q."""
        d = self._basis.dim
        raw = coeffs[self._pos]
        return self._basis.vecs_to_mats(np.concatenate([self._v @ raw[:d], raw[d:]]))

    def side_sum(self, coeffs: np.ndarray, kernel) -> np.ndarray:
        """sum_q coeffs[q] * E_q[a,b] * (w[q,a] + w[q,b]), w[q,a] = kernel(q, a).

        A block eigenvector is diagonal, so it reaches only the diagonal,
        through the d x d weights w[q, a]; pair (a, b) reaches only its own
        coordinate, through w[q, a] and w[q, b].
        """
        d = self._basis.dim
        rows, cols = self._basis.pairs
        raw = coeffs[self._pos]
        q_block, q_pairs = self._pos[:d], self._pos[d:]
        w_block = kernel(q_block[:, None], np.arange(d)[None, :])
        diag = 2.0 * ((self._v * w_block.T) @ raw[:d])
        pairs = raw[d:] * (kernel(q_pairs, rows[d:]) + kernel(q_pairs, cols[d:]))
        return self._basis.vecs_to_mats(np.concatenate([diag, pairs]))


class BlockFrame:
    """T(gamma) of a Gaussian-form fourth moment, solved without any D x D array.

    The fourth moment is A -> 2 P o A + diag(P diag(A)) in H-eigen
    coordinates, with ``pmat`` the scaled P: with P = l l^T it is the
    Gaussian fourth moment 2 H A H + Tr(A H) H, and the resampled Gaussian
    moments are multiples of it for other P.  Its matrix is diagonal on
    the D - d pair coordinates a < b, with the scalar 2 P_ab, and holds
    one d x d block P + 2 diag(diag P) on the diagonal coordinates.  So
    each pair is an exact eigenvector of T(gamma) with eigenvalue
    l_a + l_b - 2 gamma P_ab, the block of T(gamma) is
    diag(2 l) - gamma (P + 2 diag(diag P)), and each step-size costs one
    order-d eigensolve and O(D) scalars.  ``lam``, ``u`` and ``bdiag`` are
    those of :class:`SpectralFrame`.
    """

    def __init__(self, basis: SymBasis, lam: np.ndarray, u: np.ndarray, pmat: np.ndarray):
        rows, cols = basis.pairs
        d = basis.dim
        self.basis = basis
        self.lam, self.u = lam, u
        self.bdiag = lam[rows] + lam[cols]
        self._block_m = pmat + np.diag(2.0 * np.diag(pmat))
        self._pair_m = 2.0 * pmat[rows[d:], cols[d:]]

    def fourth_moment(self) -> np.ndarray:
        """The D x D matrix of the fourth moment, built afresh: the block on
        the diagonal coordinates, the pair scalars on the rest of the
        diagonal.  O(D^2) memory; the frame itself never forms it."""
        d = self.basis.dim
        m = np.diag(np.concatenate([np.zeros(d), self._pair_m]))
        m[:d, :d] = self._block_m
        return m

    def pencil_top(self) -> float:
        """Top eigenvalue of the pencil (M, H_L + H_R): the larger of the top
        pair ratio 2 P_ab / (l_a + l_b) and the top eigenvalue of
        S^-1/2 (P + 2 diag(diag P)) S^-1/2, S = diag(2 l)."""
        d = self.basis.dim
        s = 1.0 / np.sqrt(self.bdiag[:d])
        top = float(np.linalg.eigvalsh(s[:, None] * self._block_m * s[None, :])[-1])
        if self.basis.size > d:
            top = max(top, float((self._pair_m / self.bdiag[d:]).max()))
        return top

    def _t_block(self, gamma: float) -> np.ndarray:
        t = -gamma * self._block_m
        t[np.diag_indices_from(t)] += self.bdiag[: self.basis.dim]
        return t

    def _t_pairs(self, gamma: float) -> np.ndarray:
        return self.bdiag[self.basis.dim:] - gamma * self._pair_m

    def t_eigenpairs(self, gamma: float) -> BlockEigenpairs:
        """Eigenpairs of T(gamma)."""
        tau, v = np.linalg.eigh(self._t_block(gamma))
        return BlockEigenpairs(self.basis, tau, v, self._t_pairs(gamma))

    def t_eigenvalues(self, gamma: float) -> np.ndarray:
        """Ascending eigenvalues of T(gamma)."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(self._t_block(gamma)),
                                       self._t_pairs(gamma)]))
