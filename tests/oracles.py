"""Dense D x D reference operators on symmetric matrices.

The library writes every fourth moment in the eigenbasis of H and reads
T(gamma) = H_L + H_R - gamma M there.  These build the same operators
densely, in the original coordinates and from the spec alone, as the
references the tests compare against; :func:`eigbasis_rotation` is the
tests' own map between the two coordinate systems.

:func:`reference_run` is the reference of the engine's step loop: one
cell, one step per draw, and the exact divergence check on every step.
"""

from dataclasses import dataclass, replace

import numpy as np

from avlms import engine
from avlms.errors import DimensionError, SpecError
from avlms.moments import DiscreteDesign
from avlms.operators import (
    SpectralFrame,
    SymBasis,
    _as_symmetric,
    _rank_one_coords,
    fourth_moment_operator_from_samples,
)


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


def basis_matrices(basis: SymBasis) -> np.ndarray:
    """Stack of the basis elements, shape (D, d, d)."""
    return basis.vecs_to_mats(np.eye(basis.size))


def operator_from_map(fn, basis: SymBasis) -> SymOperator:
    """Materialize a linear map on symmetric matrices as a SymOperator.

    ``fn`` must accept a (D, d, d) stack and return the mapped stack.
    """
    images = fn(basis_matrices(basis))
    cols = basis.mats_to_vecs(images)  # row q = image of basis element q
    return SymOperator(basis=basis, matrix=cols.T)


def gaussian_fourth_moment(hmat: np.ndarray, basis: SymBasis | None = None) -> SymOperator:
    """Fourth-moment operator of X ~ N(0, H): A -> 2 H A H + Tr(A H) H."""
    hmat = _as_symmetric(hmat, "hmat")
    if np.linalg.eigvalsh(hmat)[0] < -1e-12 * max(np.trace(np.abs(hmat)), 1.0):
        raise SpecError("gaussian fourth moment needs a positive semidefinite covariance")
    if basis is None:
        basis = SymBasis(hmat.shape[0])

    def act(mats):
        # Tr(A H) = <A, H> for symmetric H: one matrix-vector product.
        tr = mats.reshape(mats.shape[0], -1) @ hmat.reshape(-1)
        return 2.0 * (hmat @ mats @ hmat) + tr[:, None, None] * hmat

    return operator_from_map(act, basis)


def samples_fourth_moment(xs: np.ndarray, weights: np.ndarray | None = None) -> SymOperator:
    """The weighted atom average E[c (X^T A X) X X^T] on the raw rows ``xs``."""
    basis = SymBasis(xs.shape[1])
    return SymOperator(basis, fourth_moment_operator_from_samples(xs, basis, weights=weights))


def one_shot_fourth_moment(xs: np.ndarray, basis: SymBasis,
                           weights: np.ndarray | None = None) -> np.ndarray:
    """The atom Gram of ``fourth_moment_operator_from_samples`` as one
    product over the (N, D) rank-one coordinates of all rows at once: the
    reference for the library's sum over row chunks."""
    u = _rank_one_coords(xs, basis)
    mat = u.T @ u / xs.shape[0] if weights is None else (u * weights[:, None]).T @ u
    return 0.5 * (mat + mat.T)


def dense_fourth_moment(spec) -> SymOperator:
    """The fourth moment of a spec in the original coordinates: the dense
    Gaussian map, or the probability-weighted Gram of the raw atoms."""
    if isinstance(spec.design, DiscreteDesign):
        return samples_fourth_moment(spec.design.xs, spec.design.probs)
    return gaussian_fourth_moment(spec.hmat)


def left_right_operator(hmat: np.ndarray, basis: SymBasis | None = None) -> SymOperator:
    """Operator A -> HA + AH for a symmetric H, restricted to symmetric A.

    For H = diag(l_1, ..., l_d) its eigenvalues are {l_i + l_j : i <= j}.
    """
    hmat = _as_symmetric(hmat, "hmat")
    if basis is None:
        basis = SymBasis(hmat.shape[0])
    elif basis.dim != hmat.shape[0]:
        raise DimensionError("basis and matrix dimensions differ")
    return operator_from_map(lambda mats: hmat @ mats + mats @ hmat, basis)


def contraction_generator(spec, gamma: float) -> SymOperator:
    """The operator T(gamma) = H_L + H_R - gamma * M of ``compute_moments(spec)``,
    built densely from the spec, never from a MomentSet."""
    fourth = dense_fourth_moment(spec)
    b = left_right_operator(spec.hmat, fourth.basis)
    return SymOperator(basis=fourth.basis, matrix=b.matrix - gamma * fourth.matrix)


def eigbasis_rotation(basis: SymBasis, u: np.ndarray) -> np.ndarray:
    """The orthogonal D x D map from the coordinates of A to those of u^T A u."""
    return basis.mats_to_vecs(u.T @ basis_matrices(basis) @ u).T


def to_eigbasis(op: SymOperator, u: np.ndarray) -> np.ndarray:
    """The matrix of ``op`` in the coordinates of u^T A u."""
    rmat = eigbasis_rotation(op.basis, u)
    return rmat @ op.matrix @ rmat.T


def original_fourth_moment(moments) -> SymOperator:
    """A MomentSet's fourth moment rotated back to the original coordinates."""
    rmat = eigbasis_rotation(moments.basis, moments.frame.u)
    return SymOperator(moments.basis, rmat.T @ moments.frame.fourth_moment() @ rmat)


def dense_frame(moments) -> SpectralFrame:
    """The all-block frame of the D x D matrix of a MomentSet's fourth
    moment: the oracle of the d x d block and scalars the Gaussian forms
    carry."""
    frame = moments.frame
    return SpectralFrame(moments.basis, frame.lam, frame.u, frame.fourth_moment())


def with_dense_frame(moments):
    """The same MomentSet, reading T through :func:`dense_frame`."""
    return replace(moments, frame=dense_frame(moments))


def apply(op: SymOperator, a: np.ndarray) -> np.ndarray:
    """The operator applied to a symmetric matrix."""
    return op.basis.vecs_to_mats(op.matrix @ op.basis.mats_to_vecs(a))


def reference_run(spec, cell, n, replicates=1, seed=0, record_at=None):
    """One engine cell stepped alone, one draw per step, with the exact
    divergence check (every squared replicate norm against
    ``DIVERGENCE_NORM**2``) on every step: ``(iterations, risk,
    standard_error, (diverged_at, diverged_replicate, diverged_norm))``.

    Each step updates w -= gamma (x^T w - y) x with a broadcast product.
    The draws are the engine's own one-step blocks, which the block tests
    tie to the per-step stream.
    """
    reps = replicates
    limit = engine.DIVERGENCE_NORM**2
    noisy = cell.mode != "bias"
    sampler = engine._Sampler(spec, [cell.scheme])
    gen_x, gen_eps = engine._generators(seed)
    w = np.tile(spec.w_star if cell.mode == "variance" else spec.w0, (reps, 1)).astype(float)
    wbar = w.copy()
    points = set(range(1, n + 1) if record_at is None else record_at)
    iters, risks, errs = [], [], []
    diverged = (None, None, None)

    def record(m):
        diff = wbar - spec.w_star
        r = np.einsum("ri,ij,rj->r", diff, spec.hmat, diff)
        iters.append(m)
        risks.append(float(r.mean()))
        errs.append(float(r.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0)

    if 1 in points:
        record(1)
    for m in range(2, n + 1):
        x, clean, y, _ = sampler.block(gen_x, gen_eps, reps, 1, noisy, [0])
        x, y = x[0, 0], (y if noisy else clean)[0, 0]
        coef = cell.gamma * (np.einsum("ri,ri->r", x, w) - y)
        w = w - coef[:, None] * x
        norms = np.einsum("ri,ri->r", w, w)
        if not norms.max() <= limit:
            rep = int(np.argmax(norms))
            diverged = (m, rep, float(np.sqrt(norms[rep])))
            break
        wbar += (w - wbar) / m
        if m in points:
            record(m)
    return np.array(iters, dtype=int), np.array(risks), np.array(errs), diverged
