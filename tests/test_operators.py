"""Coordinate algebra on symmetric matrices and the operators built on it.

The dense left-right and contraction operators, ``SymOperator`` and
``apply`` are the test oracles of ``oracles.py``; spectra are read with
``eigvalsh``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avlms import (
    CovarianceModel,
    ProblemSpec,
    SymBasis,
    compute_moments,
    fourth_moment_operator_from_samples,
    smallest_t_eigenvalue,
)
from oracles import (
    SymOperator,
    apply,
    basis_matrices,
    contraction_generator,
    gaussian_fourth_moment,
    left_right_operator,
    one_shot_fourth_moment,
    samples_fourth_moment,
)

SQRT2 = math.sqrt(2.0)


def smallest_eigenvalue(op: SymOperator) -> float:
    return float(np.linalg.eigvalsh(op.matrix)[0])


def operator_norm(op: SymOperator) -> float:
    """Largest absolute eigenvalue: the Frobenius-to-Frobenius norm."""
    return float(np.abs(np.linalg.eigvalsh(op.matrix)).max())


class TestBasis:
    def test_orthonormality(self):
        """Pairwise Frobenius inner products form the identity, d = 1..8."""
        for d in range(1, 9):
            mats = basis_matrices(SymBasis(d))
            gram = np.einsum("qij,rij->qr", mats, mats)
            np.testing.assert_allclose(gram, np.eye(len(mats)), atol=1e-12)

    def test_size(self):
        assert SymBasis(5).size == 15

    def test_pairs_match_the_loop_order(self):
        """Diagonal first, then i < j row-major, with sqrt(2) off the
        diagonal: the indices as a double loop lists them, d = 1..64."""
        for d in range(1, 65):
            loop = [(i, i) for i in range(d)]
            loop += [(i, j) for i in range(d) for j in range(i + 1, d)]
            basis = SymBasis(d)
            rows, cols = basis.pairs
            assert rows.tolist() == [i for i, _ in loop]
            assert cols.tolist() == [j for _, j in loop]
            scale = [1.0 if i == j else np.sqrt(2.0) for i, j in loop]
            assert basis._scale.tolist() == scale

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            SymBasis(65)


class TestVecRoundTrip:
    """Coordinates through ``SymBasis.mats_to_vecs`` and ``vecs_to_mats``."""

    def test_scalar(self):
        basis = SymBasis(1)
        np.testing.assert_allclose(basis.mats_to_vecs(np.array([[3.0]])), [3.0])

    def test_identity_d2(self):
        basis = SymBasis(2)
        np.testing.assert_allclose(basis.mats_to_vecs(np.eye(2)), [1.0, 1.0, 0.0])

    def test_offdiagonal_d2(self):
        basis = SymBasis(2)
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(basis.mats_to_vecs(a), [0.0, 0.0, SQRT2])
        np.testing.assert_allclose(basis.vecs_to_mats(np.array([0.0, 0.0, SQRT2])), a)

    def test_zero_vector(self):
        basis = SymBasis(2)
        np.testing.assert_array_equal(basis.vecs_to_mats(np.zeros(3)), np.zeros((2, 2)))

    def test_round_trip_batch(self):
        """100 random symmetric matrices per dimension round-trip to 1e-13."""
        for d in range(1, 9):
            basis = SymBasis(d)
            rg = np.random.default_rng(d)
            for _ in range(100):
                a = rg.standard_normal((d, d))
                a = a + a.T
                back = basis.vecs_to_mats(basis.mats_to_vecs(a))
                assert np.linalg.norm(back - a) < 1e-13

    def test_isometry(self):
        basis = SymBasis(4)
        rg = np.random.default_rng(3)
        a = rg.standard_normal((4, 4))
        a = a + a.T
        assert abs(np.linalg.norm(basis.mats_to_vecs(a)) - np.linalg.norm(a)) < 1e-12

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, d, seed):
        basis = SymBasis(d)
        a = np.random.default_rng(seed).standard_normal((d, d))
        a = a + a.T
        assert np.linalg.norm(basis.vecs_to_mats(basis.mats_to_vecs(a)) - a) < 1e-13


class TestLeftRight:
    def test_scalar(self):
        op = left_right_operator(np.array([[1.5]]))
        np.testing.assert_allclose(op.matrix, [[3.0]])

    def test_identity_input(self):
        op = left_right_operator(np.eye(3))
        np.testing.assert_allclose(op.matrix, 2.0 * np.eye(6), atol=1e-14)

    def test_diagonal_eigenvalues(self):
        """Eigenvalues of H_L + H_R are the pairwise sums of those of H."""
        lam = np.array([0.3, 1.0, 2.5])
        op = left_right_operator(np.diag(lam))
        want = sorted(lam[i] + lam[j] for i in range(3) for j in range(i, 3))
        np.testing.assert_allclose(np.linalg.eigvalsh(op.matrix), want, atol=1e-12)

    def test_action_matches_direct(self):
        rg = np.random.default_rng(0)
        h = rg.standard_normal((4, 4))
        h = h @ h.T
        op = left_right_operator(h)
        a = rg.standard_normal((4, 4))
        a = a + a.T
        np.testing.assert_allclose(apply(op, a), h @ a + a @ h, atol=1e-12)

    def test_psd_for_psd_input(self):
        rg = np.random.default_rng(1)
        for _ in range(5):
            b = rg.standard_normal((3, 3))
            op = left_right_operator(b @ b.T)
            assert smallest_eigenvalue(op) > -1e-12


class TestFourthMomentFromSamples:
    def test_single_basis_vector_sample(self):
        """One sample X = e1 in d=2: the map sends A to A[0,0] e1 e1^T."""
        op = samples_fourth_moment(np.array([[1.0, 0.0]]))
        a = np.array([[2.0, 0.5], [0.5, -1.0]])
        want = np.zeros((2, 2))
        want[0, 0] = a[0, 0]
        np.testing.assert_allclose(apply(op, a), want, atol=1e-14)

    def test_sign_samples_d1(self):
        mat = fourth_moment_operator_from_samples(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(mat, [[1.0]])

    def test_gaussian_monte_carlo_agreement(self):
        """1e6 standard-normal samples in d=3 match the analytic operator
        entrywise within three standard errors."""
        from avlms.operators import _rank_one_coords

        rg = np.random.default_rng(12345)
        xs = rg.standard_normal((1_000_000, 3))
        basis = SymBasis(3)
        sampled = fourth_moment_operator_from_samples(xs, basis)
        analytic = gaussian_fourth_moment(np.eye(3), basis)
        u = _rank_one_coords(xs, basis)
        second = (u**2).T @ (u**2) / len(xs)
        stderr = np.sqrt(np.maximum(second - (u.T @ u / len(xs)) ** 2, 0.0) / len(xs))
        assert np.all(np.abs(sampled - analytic.matrix) <= 3.0 * stderr + 1e-12)

    def test_psd(self):
        rg = np.random.default_rng(5)
        op = samples_fourth_moment(rg.standard_normal((50, 4)))
        assert smallest_eigenvalue(op) > -1e-12

    def test_empty_error(self):
        with pytest.raises(ValueError):
            fourth_moment_operator_from_samples(np.zeros((0, 2)))

    @staticmethod
    def _atoms(n, d, seed):
        """Heavy-tailed rows and weights with every tenth atom weightless."""
        rg = np.random.default_rng(seed)
        xs = rg.standard_t(5, (n, d))
        weights = rg.uniform(0.0, 2.0, n) / n
        weights[::10] = 0.0
        return xs, weights

    def test_row_chunks_match_the_one_shot_gram(self):
        """About 2.5 chunks of rows (not a whole number of them): the chunked
        sum matches the one-shot product to 1e-13 of its largest entry,
        weighted and unweighted; a stack of weight rows, summed in one pass,
        gives each row the bits of its own pass."""
        from avlms.operators import GRAM_CHUNK_BYTES

        basis = SymBasis(30)
        rows = GRAM_CHUNK_BYTES // (8 * basis.size)
        n = 5 * rows // 2 + 7
        xs, weights = self._atoms(n, 30, 21)
        for w in (None, weights):
            want = one_shot_fourth_moment(xs, basis, w)
            got = fourth_moment_operator_from_samples(xs, basis, weights=w)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        stack = np.stack([weights, weights[::-1], np.full(n, 1.0 / n)])
        grams = fourth_moment_operator_from_samples(xs, basis, weights=stack)
        assert len(grams) == 3
        for got, w in zip(grams, stack):
            np.testing.assert_array_equal(got, fourth_moment_operator_from_samples(xs, basis,
                                                                                   weights=w))

    def test_one_chunk_is_the_one_shot_gram_bit_for_bit(self):
        from avlms.operators import GRAM_CHUNK_BYTES

        basis = SymBasis(30)
        rows = GRAM_CHUNK_BYTES // (8 * basis.size)
        for n in (1, 100, rows):
            xs, weights = self._atoms(n, 30, 22)
            for w in (None, weights):
                np.testing.assert_array_equal(
                    fourth_moment_operator_from_samples(xs, basis, weights=w),
                    one_shot_fourth_moment(xs, basis, w))

    def test_rank_one_coords_are_the_scaled_pair_products_bit_for_bit(self):
        from avlms.operators import _rank_one_coords

        for d in (1, 2, 7, 30):
            basis = SymBasis(d)
            xs, _ = self._atoms(13, d, 23)
            rows, cols = basis.pairs
            want = xs[:, rows] * xs[:, cols] * np.where(rows == cols, 1.0, SQRT2)
            np.testing.assert_array_equal(_rank_one_coords(xs, basis), want)

    @pytest.mark.parametrize("chunk_rows", [1, 4])
    def test_rows_rotated_per_chunk_are_the_rotated_rows_bit_for_bit(self, monkeypatch,
                                                                     chunk_rows):
        """Passing H's eigenvectors as ``rotation`` gives the Gram of ``xs @ u``
        exactly: with one sample, below one chunk, a whole number of chunks,
        and one row past them (a 1-row tail chunk, which numpy's vector path
        would rotate with other last bits); unweighted, with one weight row
        and with a stack of them."""
        import avlms.operators

        monkeypatch.setattr(avlms.operators, "GRAM_CHUNK_BYTES", 8 * 55 * chunk_rows)
        basis = SymBasis(10)
        u = np.linalg.eigh(np.random.default_rng(24).standard_normal((10, 10)) + np.eye(10))[1]
        for n in sorted({1, max(1, chunk_rows - 1), 3 * chunk_rows, 3 * chunk_rows + 1}):
            xs, weights = self._atoms(n, 10, 25)
            for w in (None, weights, np.stack([weights, np.full(n, 1.0 / n)])):
                got = fourth_moment_operator_from_samples(xs, basis, weights=w, rotation=u)
                want = fourth_moment_operator_from_samples(xs @ u, basis, weights=w)
                assert np.array_equal(got, want), (n, w is None)

    def test_gram_holds_only_its_buffers(self):
        """On 20000 x 30 rows (D=465) with three weight rows, the traced
        growth of a rotated Gram stays within 5% of two chunk buffers, one
        D x D partial, the three results and one rotated chunk.  An N x d
        copy of the rows (4.6 MiB) or one more chunk-sized temporary
        (4.0 MiB) would break the bound."""
        import tracemalloc

        from avlms.operators import GRAM_CHUNK_BYTES

        n, d, k = 20_000, 30, 3
        basis = SymBasis(d)
        size = basis.size
        rows = GRAM_CHUNK_BYTES // (8 * size)
        rg = np.random.default_rng(26)
        xs = rg.standard_t(5, (n, d))
        stack = rg.uniform(0.0, 2.0, (k, n)) / n
        u = np.linalg.qr(rg.standard_normal((d, d)))[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grams = fourth_moment_operator_from_samples(xs, basis, weights=stack, rotation=u)
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(grams) == k
        assert growth <= 1.05 * 8 * (2 * rows * size + (k + 1) * size**2 + rows * d)


class TestApply:
    def test_identity(self):
        basis = SymBasis(3)
        a = np.diag([1.0, 2.0, 3.0])
        identity = SymOperator(basis=basis, matrix=np.eye(basis.size))
        np.testing.assert_array_equal(apply(identity, a), a)

    def test_left_right_diag(self):
        op = left_right_operator(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(apply(op, np.eye(2)), np.diag([2.0, 4.0]), atol=1e-14)

    def test_scalar_contraction_generator(self):
        """d=1 with X = 1 a.s.: T at gamma = 0.5 scales by 2 - 0.5 = 1.5."""
        t = contraction_generator(ProblemSpec.discrete(np.array([[1.0]]), sigma=1.0), 0.5)
        np.testing.assert_allclose(apply(t, np.array([[2.0]])), [[3.0]])

    def test_linearity(self):
        rg = np.random.default_rng(7)
        op = samples_fourth_moment(rg.standard_normal((30, 4)))
        for _ in range(10):
            a = rg.standard_normal((4, 4))
            a = a + a.T
            b = rg.standard_normal((4, 4))
            b = b + b.T
            alpha, beta = rg.standard_normal(2)
            lhs = apply(op, alpha * a + beta * b)
            rhs = alpha * apply(op, a) + beta * apply(op, b)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestOperatorNorm:
    def test_left_right_diag(self):
        assert abs(operator_norm(left_right_operator(np.diag([1.0, 2.0]))) - 4.0) < 1e-12

    def test_scalar_one_step_map(self):
        """|1 - gamma*T| for d=1, X = 1, gamma = 0.5: T = 1.5, so norm 0.25.

        Frozen from the scalar computation |1 - 0.5 * (2 - 0.5 * 1)| = 0.25.
        """
        m = compute_moments(ProblemSpec.discrete(np.array([[1.0]]), sigma=1.0))
        assert abs(CovarianceModel(m, 0.5).rho_t - 0.25) < 1e-15

    def test_spectral_mapping(self):
        """Norm of I - gamma (H_L + H_R) equals max_i |1 - 2 gamma lambda_i|."""
        rg = np.random.default_rng(11)
        for _ in range(5):
            d = int(rg.integers(1, 6))
            b = rg.standard_normal((d, d))
            h = b @ b.T
            lam = np.linalg.eigvalsh(h)
            gamma = rg.uniform(0.05, 2.0)
            basis = SymBasis(d)
            op = SymOperator(
                basis=basis,
                matrix=np.eye(basis.size) - gamma * left_right_operator(h, basis).matrix,
            )
            assert abs(operator_norm(op) - np.abs(1 - 2 * gamma * lam).max()) < 1e-10


class TestSmallestEigenvalue:
    def test_left_right_diag(self):
        assert abs(smallest_eigenvalue(left_right_operator(np.diag([1.0, 2.0]))) - 2.0) < 1e-12

    def test_small_gamma_limit(self):
        """As gamma -> 0 the generator's smallest eigenvalue tends to 2 mu."""
        rg = np.random.default_rng(2)
        b = rg.standard_normal((3, 3))
        spec = ProblemSpec.gaussian(b @ b.T + 0.2 * np.eye(3), sigma=1.0)
        m = compute_moments(spec)
        assert abs(smallest_eigenvalue(contraction_generator(spec, 1e-9)) - 2 * m.mu) < 1e-6
        assert abs(smallest_t_eigenvalue(m, 1e-9) - 2 * m.mu) < 1e-6

