"""Linear operators on the space of symmetric d-by-d matrices.

Symmetric matrices of size d form a vector space of dimension
D = d(d+1)/2.  Once an orthonormal basis (under the Frobenius inner
product) is fixed, every linear map that is stable on that space becomes
an ordinary D-by-D matrix.  The library writes every fourth-moment
operator this way in the coordinates of u^T A u, where H = u diag(l) u^T:
there H_L + H_R is diagonal, so a frame reads the threshold and every
spectrum of T(gamma) = H_L + H_R - gamma M without rotating anything.

One :class:`SpectralFrame` serves every MomentSet.  In those coordinates
the fourth moment is a k x k block on the first k basis coordinates plus
one scalar on each remaining coordinate, and T(gamma) splits the same way.
Atom sets give the whole D x D matrix as the block (k = D); the Gaussian
forms give a d x d block and D - d scalars, so they never form a D x D
array.  The layouts differ only in k, and every method of the frame and
of its per-step-size :class:`TEigenpairs` has one code path for both.

The frame also writes its fourth moment out as a D x D matrix on request
(``fourth_moment``); nothing in the library reads it, and the all-block
frame of that matrix is the oracle of the Gaussian layout.  The dense
operators in the original coordinates are the references the tests
compare against, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Dense D x D algebra stays trivial up to this size (D <= 2080).
MAX_DIM = 64

# Bytes of rank-one coordinates per row chunk of an atom Gram.
GRAM_CHUNK_BYTES = 4 << 20

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
    scale = max(np.abs(a).max(initial=0.0), 1.0)
    if np.abs(a - a.T).max(initial=0.0) > tol * scale:
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
        upper = np.triu_indices(d, k=1)
        diag = np.arange(d)
        self.size = d * (d + 1) // 2
        self._rows = np.concatenate([diag, upper[0]])
        self._cols = np.concatenate([diag, upper[1]])
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


def _rank_one_coords(xs: np.ndarray, basis: SymBasis, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinates of x x^T for each row x of xs, shape (N, D), written into
    ``out`` when given.

    Each product goes straight into its slice of ``out``, with no temporary:
    the diagonal x_i^2 first, then for each i the pairs x_i x_j, j > i, in
    the basis order.
    """
    d = basis.dim
    if out is None:
        out = np.empty((len(xs), basis.size))
    np.multiply(xs, xs, out=out[:, :d])
    start = d
    for i in range(d - 1):
        np.multiply(xs[:, i + 1:], xs[:, i, None], out=out[:, start:start + d - 1 - i])
        start += d - 1 - i
    out[:, d:] *= _SQRT2
    return out


def fourth_moment_operator_from_samples(
    samples: np.ndarray, basis: SymBasis | None = None, weights: np.ndarray | None = None,
    rotation: np.ndarray | None = None,
) -> np.ndarray | list[np.ndarray]:
    """D x D matrix of the empirical fourth-moment operator
    A -> mean[(x^T A x) x x^T], in the coordinates of ``basis``.

    In orthonormal coordinates this is the (weighted) second-moment matrix
    of the coordinate vectors of x x^T, hence symmetric positive
    semidefinite by construction.  The rows arrive as they are; a d x d
    ``rotation`` u (H's eigenvectors, say) turns each into x^T u as its
    chunk is built, which gives the operator in that basis with the bits
    of passing ``samples @ u``, and no N x d copy.  The coordinate vectors
    are built for GRAM_CHUNK_BYTES of rows at a time, into buffers reused
    from chunk to chunk, and their Grams summed, so memory stays
    O(chunk x D + D^2) for any number of samples; a sample that fits in one
    chunk gets the one-shot product.  ``weights`` is None (the plain
    mean), one weight per sample, or a (k, N) stack of weight rows, which
    gives a list of k matrices: each chunk's coordinates are then built
    once for all k, and every matrix has the bits it gets alone.
    """
    xs = np.atleast_2d(np.asarray(samples, dtype=float))
    n = xs.shape[0]
    if n == 0:
        raise DimensionError("sample list is empty")
    if basis is None:
        basis = SymBasis(xs.shape[1])
    elif basis.dim != xs.shape[1]:
        raise DimensionError("basis and sample dimensions differ")
    stacked = weights is not None and np.ndim(weights) == 2
    rows_of = [None]
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape[-1:] != (n,) or weights.ndim > 2:
            raise DimensionError("weights must have one entry per sample")
        rows_of = weights if stacked else weights[None]
    size = basis.size
    rows = min(n, max(1, GRAM_CHUNK_BYTES // (8 * size)))
    coords = np.empty((rows, size))
    scaled = None if weights is None else np.empty((rows, size))
    part = np.empty((size, size)) if n > rows else None
    turned = None if rotation is None else np.empty((min(n, max(rows, 2)), xs.shape[1]))
    mats = [np.empty((size, size)) for _ in rows_of]
    for k in range(0, n, rows):
        m = min(rows, n - k)
        chunk = xs[k:k + m]
        if rotation is not None:
            # A 1-row product takes numpy's vector path, whose last bits
            # differ from the matrix product's, so a 1-row chunk is rotated
            # with a neighbouring row when there is one.
            lo = max(0, min(k, n - 2))
            chunk = xs[lo:max(k + m, lo + 2)]
            chunk = np.matmul(chunk, rotation, out=turned[:len(chunk)])[k - lo:k - lo + m]
        u = _rank_one_coords(chunk, basis, out=coords[:m])
        for mat, w in zip(mats, rows_of):
            lhs = u if w is None else np.multiply(u, w[k:k + m, None], out=scaled[:m])
            if k == 0:
                np.matmul(lhs.T, u, out=mat)
            else:
                np.matmul(lhs.T, u, out=part)
                mat += part
    # mat + mat.T copies mat.T, which overlaps the output: drop the chunk
    # buffers and the views into them first, so that copy adds no peak.
    coords = scaled = part = turned = chunk = u = lhs = None
    for mat in mats:
        if weights is None:
            mat /= n
        np.add(mat, mat.T, out=mat)
        mat *= 0.5
    return mats if stacked else mats[0]


class TEigenpairs:
    """The eigenpairs of T(gamma) at one step-size, in H-eigen coordinates.

    The layout is that of :class:`SpectralFrame`: a k x k block on the
    first k basis coordinates and one scalar on each of the others.
    Eigenpair q < k is block eigenvector ``v[:, q]`` on the first k
    coordinates, and q >= k is basis coordinate q itself; ``tau`` holds the
    block's eigenvalues, then the scalars, in that order.  Callers never
    see this layout and work with d x d matrices, their diagonals
    (``contract_diag``, ``side_sum_diag``) and coefficient vectors only.

    Each read-out names what it reads.  Since k >= d, a scalar eigenvector
    never reaches the diagonal, so the diagonal read-outs take their
    coefficients at the first k T indices, the block eigenpairs, only.  A
    side sum's weights w[q, a] (T index q, H index a) are evaluated by the
    caller on the index grid ``side_grid`` gives, and passed as that array.
    Every coefficient and weight array may carry leading axes (one per
    horizon, say); the result carries the same ones.
    """

    def __init__(self, basis: SymBasis, tau_block: np.ndarray, v: np.ndarray,
                 tau_scalars: np.ndarray):
        self.tau = np.concatenate([tau_block, tau_scalars])
        self.k = v.shape[0]
        self._basis, self._v = basis, v

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Coefficients <E_q, a> of a symmetric matrix a on the eigenvectors."""
        vec = self._basis.mats_to_vecs(a)
        return np.concatenate([self._v.T @ vec[: self.k], vec[self.k:]])

    def contract(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_q coeffs[q] * E_q."""
        block = np.matmul(self._v, coeffs[..., : self.k, None])[..., 0]
        return self._basis.vecs_to_mats(np.concatenate([block, coeffs[..., self.k:]], axis=-1))

    def contract_diag(self, coeffs: np.ndarray) -> np.ndarray:
        """The diagonal of :meth:`contract`, O(d k): the first d rows of the
        block eigenvectors."""
        return np.matmul(self._v[: self._basis.dim], coeffs[..., None])[..., 0]

    def side_grid(self, diagonal: bool) -> tuple[np.ndarray, np.ndarray]:
        """The T and H indices (q, a) of the weights :meth:`side_sum` (or,
        ``diagonal``, :meth:`side_sum_diag`) reads.  The diagonal grid is
        d x k, row a and column q holding w[q, a].  The full grid is flat:
        that block grid, then every scalar coordinate (a, b) at its own T
        index with a, then with b."""
        d, k = self._basis.dim, self.k
        q_block, a_block = np.arange(k)[None, :], np.arange(d)[:, None]
        if diagonal:
            return q_block, a_block
        rows, cols = self._basis.pairs
        q_scalars = np.arange(k, self._basis.size)
        q_block, a_block = np.broadcast_arrays(q_block, a_block)
        return (np.concatenate([q_block.ravel(), q_scalars, q_scalars]),
                np.concatenate([a_block.ravel(), rows[k:], cols[k:]]))

    def side_sum(self, coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_q coeffs[q] * E_q[a,b] * (w[q,a] + w[q,b]), with ``weights``
        the w of ``side_grid(False)``.

        The diagonal coordinates are :meth:`side_sum_diag`.  Block
        coordinate p = (a, b) off the diagonal is g[p,a] + g[p,b], with
        g[p, a] = sum_r v[p,r] coeffs[r] w[r,a] one (k - d, k) x (k, d)
        product; scalar coordinate (a, b) reaches only itself, through
        w[q, a] and w[q, b].
        """
        d, k, size = self._basis.dim, self.k, self._basis.size
        block, w_rows, w_cols = np.split(weights, [d * k, d * k + size - k], axis=-1)
        block = block.reshape(weights.shape[:-1] + (d, k))
        c_block = coeffs[:k]
        diag = self.side_sum_diag(c_block, block)
        g = np.matmul(self._v[d:], np.swapaxes(block * c_block, -1, -2))
        rows, cols = self._basis.pairs
        at = np.arange(k - d)
        off = g[..., at, rows[d:k]] + g[..., at, cols[d:k]]
        scalars = coeffs[k:] * (w_rows + w_cols)
        return self._basis.vecs_to_mats(np.concatenate([diag, off, scalars], axis=-1))

    def side_sum_diag(self, coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The diagonal of :meth:`side_sum`, 2 sum_q coeffs[q] E_q[a,a] w[q,a]
        with ``coeffs`` at the first k T indices and ``weights`` the d x k w
        of ``side_grid(True)``: the first d rows of the block eigenvectors
        scaled by the weights, times the coefficients, O(d k)."""
        return 2.0 * np.matmul(self._v[: self._basis.dim] * weights, coeffs)


class SpectralFrame:
    """T(gamma) of one MomentSet in the eigenbasis of H, for every step-size.

    ``lam`` and ``u`` are the eigenpairs of H.  In the coordinates of
    u^T A u, H_L + H_R is ``diag(bdiag)`` with ``bdiag`` the pair sums
    l_a + l_b.  The fourth moment is a k x k ``block`` on the first k
    coordinates (k >= d: the diagonal ones come first) and one of the
    ``scalars`` on each of the D - k others, so T(gamma) splits the same
    way: one order-k eigensolve and D - k scalars per step-size.  Atom sets
    give the whole D x D matrix as the block (k = D, no scalars); the
    Gaussian forms give a d x d block and D - d scalars, and never form a
    D x D array.  Building the frame is O(D); every call solves T(gamma)
    afresh, and the pencil is solved once and its top kept.  Its arrays are
    read-only, since one MomentSet may serve many callers, so the kept top
    cannot go stale.
    """

    def __init__(self, basis: SymBasis, lam: np.ndarray, u: np.ndarray, block: np.ndarray,
                 scalars: np.ndarray = np.empty(0)):
        rows, cols = basis.pairs
        self.basis = basis
        self.lam, self.u = lam, u
        self.bdiag = lam[rows] + lam[cols]
        self._block, self._scalars = block, scalars
        self._k = block.shape[0]
        self._top = None
        for arr in (self.bdiag, block, scalars):
            arr.setflags(write=False)

    def fourth_moment(self) -> np.ndarray:
        """The D x D matrix of the fourth moment, built afresh: the block,
        then the scalars on the rest of the diagonal.  O(D^2) memory."""
        k = self._k
        m = np.diag(np.concatenate([np.zeros(k), self._scalars]))
        m[:k, :k] = self._block
        return m

    def pencil_top(self) -> float:
        """Top eigenvalue of the pencil (M, H_L + H_R): the larger of the top
        scalar ratio and the top eigenvalue of S^-1/2 block S^-1/2, with S
        the block's diagonal of ``bdiag``.  The block is solved whole, with
        ``np.linalg.eigvalsh``, whatever its order, on the first call."""
        if self._top is None:
            k = self._k
            s = 1.0 / np.sqrt(self.bdiag[:k])
            top = np.linalg.eigvalsh(s[:, None] * self._block * s[None, :])[-1]
            self._top = float((self._scalars / self.bdiag[k:]).max(initial=top))
        return self._top

    def _t_block(self, gamma: float) -> np.ndarray:
        t = -gamma * self._block
        t[np.diag_indices_from(t)] += self.bdiag[: self._k]
        return t

    def _t_scalars(self, gamma: float) -> np.ndarray:
        return self.bdiag[self._k:] - gamma * self._scalars

    def t_eigenpairs(self, gamma: float) -> TEigenpairs:
        """Eigenpairs of T(gamma)."""
        tau, v = np.linalg.eigh(self._t_block(gamma))
        return TEigenpairs(self.basis, tau, v, self._t_scalars(gamma))

    def t_eigenvalues(self, gamma: float) -> np.ndarray:
        """Eigenvalues of T(gamma): the block's, then the scalars, in the
        frame's own order, as :class:`TEigenpairs` holds them."""
        return np.concatenate([np.linalg.eigvalsh(self._t_block(gamma)), self._t_scalars(gamma)])
