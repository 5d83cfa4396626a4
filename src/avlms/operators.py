"""Linear operators on the space of symmetric d-by-d matrices.

Symmetric matrices of size d form a vector space of dimension
D = d(d+1)/2.  Once an orthonormal basis (under the Frobenius inner
product) is fixed, every linear map that is stable on that space becomes
an ordinary D-by-D matrix, and operator norms, smallest eigenvalues and
linear solves reduce to dense symmetric eigenproblems.  All the maps used
by the covariance analysis (left-plus-right multiplication by a symmetric
matrix, the fourth-moment operator of a random vector, and their
combinations) are of this kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SingularOperatorError

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
    _eigs: dict = field(default_factory=dict, repr=False, compare=False)

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

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the D x D representation (ascending), cached."""
        if "w" not in self._eigs:
            self._eigs["w"] = np.linalg.eigvalsh(self.matrix)
        return self._eigs["w"]


def sym_to_vec(a: np.ndarray, basis: SymBasis) -> np.ndarray:
    """Coordinates of a symmetric matrix; norm-preserving."""
    a = _as_symmetric(a)
    if a.shape[0] != basis.dim:
        raise DimensionError(f"matrix of dim {a.shape[0]} does not match basis dim {basis.dim}")
    return basis.mats_to_vecs(a)


def vec_to_sym(v: np.ndarray, basis: SymBasis) -> np.ndarray:
    """Symmetric matrix with the given coordinates; inverse of sym_to_vec."""
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.size,):
        raise DimensionError(f"coordinate vector must have length {basis.size}, got {v.shape}")
    return basis.vecs_to_mats(v)


def operator_from_map(fn, basis: SymBasis) -> SymOperator:
    """Materialize a linear map on symmetric matrices as a SymOperator.

    ``fn`` must accept a (D, d, d) stack and return the mapped stack.
    """
    images = fn(basis.matrices())
    cols = basis.mats_to_vecs(images)  # row q = image of basis element q
    return SymOperator(basis=basis, matrix=cols.T)


def identity_operator(basis: SymBasis) -> SymOperator:
    return SymOperator(basis=basis, matrix=np.eye(basis.size))


def left_right_operator(hmat: np.ndarray, basis: SymBasis | None = None) -> SymOperator:
    """Operator A -> HA + AH for a symmetric H, restricted to symmetric A.

    For H = diag(l_1, ..., l_d) its eigenvalues are {l_i + l_j : i <= j}.
    """
    hmat = _as_symmetric(hmat, "hmat")
    if basis is None:
        basis = SymBasis(hmat.shape[0])
    elif basis.dim != hmat.shape[0]:
        raise DimensionError("basis and matrix dimensions differ")
    return operator_from_map(
        lambda mats: hmat @ mats + mats @ hmat,
        basis,
    )


def _rank_one_coords(xs: np.ndarray, basis: SymBasis) -> np.ndarray:
    """Coordinates of x x^T for each row x of xs, shape (N, D)."""
    return xs[:, basis._rows] * xs[:, basis._cols] * basis._scale


def fourth_moment_operator_from_samples(
    samples: np.ndarray, basis: SymBasis | None = None, weights: np.ndarray | None = None
) -> SymOperator:
    """Empirical fourth-moment operator A -> mean[(x^T A x) x x^T].

    In orthonormal coordinates this is the (weighted) second-moment matrix
    of the coordinate vectors of x x^T, hence symmetric positive
    semidefinite by construction.
    """
    xs = np.atleast_2d(np.asarray(samples, dtype=float))
    if xs.shape[0] == 0:
        raise DimensionError("sample list is empty")
    if basis is None:
        basis = SymBasis(xs.shape[1])
    elif basis.dim != xs.shape[1]:
        raise DimensionError("basis and sample dimensions differ")
    u = _rank_one_coords(xs, basis)
    if weights is None:
        mat = u.T @ u / xs.shape[0]
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (xs.shape[0],):
            raise DimensionError("weights must have one entry per sample")
        mat = (u * weights[:, None]).T @ u
    return SymOperator(basis=basis, matrix=0.5 * (mat + mat.T))


def apply(op: SymOperator, a: np.ndarray) -> np.ndarray:
    """Apply the operator to a symmetric matrix."""
    return vec_to_sym(op.matrix @ sym_to_vec(a, op.basis), op.basis)


def operator_norm(op: SymOperator) -> float:
    """Largest absolute eigenvalue; equals the Frobenius-to-Frobenius norm."""
    w = op.eigenvalues()
    return float(max(abs(w[0]), abs(w[-1])))


def smallest_eigenvalue(op: SymOperator) -> float:
    return float(op.eigenvalues()[0])


def solve(op: SymOperator, b: np.ndarray, pd_tol: float = 1e-12) -> np.ndarray:
    """Solve op(A) = B for a symmetric positive definite operator.

    Raises SingularOperatorError, naming the offending eigenvalue, when the
    smallest eigenvalue is below ``pd_tol`` times the operator norm.
    """
    w = op.eigenvalues()
    norm = max(abs(w[0]), abs(w[-1]))
    if w[0] <= pd_tol * norm:
        raise SingularOperatorError(
            f"operator is not positive definite: smallest eigenvalue {w[0]:.3e} "
            f"(norm {norm:.3e})",
            smallest_eigenvalue=float(w[0]),
        )
    return vec_to_sym(np.linalg.solve(op.matrix, sym_to_vec(b, op.basis)), op.basis)
