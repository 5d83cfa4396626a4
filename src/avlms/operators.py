"""Linear operators on the space of symmetric d-by-d matrices.

Symmetric matrices of size d form a vector space of dimension
D = d(d+1)/2.  Once an orthonormal basis (under the Frobenius inner
product) is fixed, every linear map that is stable on that space becomes
an ordinary D-by-D matrix.  The fourth-moment operators of the covariance
analysis are stored this way; their spectra are read in the eigenbasis
of H (:class:`avlms.stepsize.SpectralFrame`), and the dense reference
operators the tests compare against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def matrices(self) -> np.ndarray:
        """Stack of the basis elements, shape (D, d, d)."""
        return self.vecs_to_mats(np.eye(self.size))

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


@dataclass(frozen=True)
class SymOperator:
    """A linear endomorphism of the symmetric d x d matrices.

    Stored as its D x D matrix in the coordinates of ``basis``.  The
    matrix must be symmetric (up to round-off), so spectral quantities are
    computed with symmetric eigensolvers.
    """

    basis: SymBasis
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        D = self.basis.size
        if mat.shape != (D, D):
            raise DimensionError(f"operator matrix must be {D}x{D}, got {mat.shape}")
        scale = max(np.abs(mat).max(), 1.0)
        if np.abs(mat - mat.T).max() > 1e-10 * scale:
            raise DimensionError("operator matrix is not symmetric")
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.basis.dim


def operator_from_map(fn, basis: SymBasis) -> SymOperator:
    """Materialize a linear map on symmetric matrices as a SymOperator.

    ``fn`` must accept a (D, d, d) stack and return the mapped stack.
    """
    images = fn(basis.matrices())
    cols = basis.mats_to_vecs(images)  # row q = image of basis element q
    return SymOperator(basis=basis, matrix=cols.T)


def _rank_one_coords(xs: np.ndarray, basis: SymBasis) -> np.ndarray:
    """Coordinates of x x^T for each row x of xs, shape (N, D)."""
    return xs[:, basis._rows] * xs[:, basis._cols] * basis._scale


def fourth_moment_operator_from_samples(
    samples: np.ndarray, basis: SymBasis | None = None, weights: np.ndarray | None = None,
    coords: np.ndarray | None = None,
) -> SymOperator:
    """Empirical fourth-moment operator A -> mean[(x^T A x) x x^T].

    In orthonormal coordinates this is the (weighted) second-moment matrix
    of the coordinate vectors of x x^T, hence symmetric positive
    semidefinite by construction.  ``coords``, when given, holds those
    vectors (``_rank_one_coords(samples, basis)``), so several weightings of
    one sample share a single (N, D) array.
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
    return SymOperator(basis=basis, matrix=0.5 * (mat + mat.T))
