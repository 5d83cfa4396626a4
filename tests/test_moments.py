"""Moment computation across the three distribution backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avlms import (
    ProblemSpec,
    SchemeError,
    SpecError,
    check_cross_term_condition,
    compute_moments,
    fourth_moment_operator_from_samples,
    leverage_resampled_moments,
    norm_resampled_moments,
    optimal_bias_scheme,
    optimal_variance_scheme,
    resampled_moments,
    reweighted_moments,
    uniform_scheme,
)
from avlms.moments import _chi_mean, _norm_resampling_integrals, _sqrt_psd
from avlms.operators import SymBasis, _rank_one_coords
from conftest import make_discrete, make_empirical, make_gaussian
from oracles import (
    SymOperator,
    apply,
    gaussian_fourth_moment,
    operator_from_map,
    original_fourth_moment,
    samples_fourth_moment,
    to_eigbasis,
)


class TestGaussianFourthMoment:
    def test_scalar_standard_normal(self):
        np.testing.assert_allclose(gaussian_fourth_moment(np.eye(1)).matrix, [[3.0]])

    def test_traceless_direction(self):
        """With unit covariance, trace-free inputs are scaled by exactly 2."""
        op = gaussian_fourth_moment(np.eye(3))
        a = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 0.0]])
        np.testing.assert_allclose(apply(op, a), 2.0 * a, atol=1e-12)

    def test_identity_direction(self):
        for d in (1, 2, 5):
            op = gaussian_fourth_moment(np.eye(d))
            np.testing.assert_allclose(apply(op, np.eye(d)), (2.0 + d) * np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_monte_carlo_agreement(self, d):
        """Sampled operator on >= 1e6 draws matches the closed form within
        three entrywise standard errors, for random PSD covariances."""
        from avlms.operators import _rank_one_coords

        rg = np.random.default_rng(500 + d)
        b = rg.standard_normal((d, d))
        cov = b @ b.T / d + 0.2 * np.eye(d)
        n = 1_000_000
        xs = rg.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
        basis = SymBasis(d)
        sampled = fourth_moment_operator_from_samples(xs, basis)
        analytic = gaussian_fourth_moment(cov, basis)
        u = _rank_one_coords(xs, basis)
        second = (u**2).T @ (u**2) / n
        stderr = np.sqrt(np.maximum(second - (u.T @ u / n) ** 2, 0.0) / n)
        assert np.all(np.abs(sampled - analytic.matrix) <= 3.0 * stderr + 1e-12)


class TestComputeMoments:
    def test_scalar_unit_atom(self):
        m = compute_moments(ProblemSpec.discrete(np.array([[1.0]]), sigma=1.0))
        np.testing.assert_allclose(m.hmat, [[1.0]])
        np.testing.assert_allclose(m.frame.fourth_moment(), [[1.0]])
        np.testing.assert_allclose(m.sigma0, [[1.0]])

    def test_inverse_index_spectrum(self):
        """Gaussian design with eigenvalues 1/i: unit noise gives the same
        matrix back as noise covariance, and the trace is the harmonic sum."""
        d = 25
        cov = np.diag(1.0 / np.arange(1, d + 1))
        m = compute_moments(ProblemSpec.gaussian(cov, sigma=1.0))
        np.testing.assert_allclose(m.sigma0, cov, atol=1e-15)
        assert abs(m.trace_h - np.sum(1.0 / np.arange(1, d + 1))) < 1e-12

    def test_empirical_concentration(self):
        """Empirical second moment of 1e5 draws matches the generator
        entrywise within four standard errors."""
        d = 5
        cov = np.diag(1.0 / np.arange(1, d + 1))
        rg = np.random.default_rng(77)
        xs = rg.standard_normal((100_000, d)) @ np.sqrt(cov)
        ys = xs @ np.ones(d) + rg.standard_normal(100_000)
        m = compute_moments(ProblemSpec.empirical(xs, ys))
        prods = xs[:, :, None] * xs[:, None, :]
        stderr = prods.std(axis=0) / np.sqrt(len(xs))
        assert np.all(np.abs(m.hmat - cov) <= 4.0 * stderr)

    def test_sigma0_factorizes_under_independent_noise(self):
        rg = np.random.default_rng(8)
        xs = rg.standard_normal((7, 3))
        spec = ProblemSpec.discrete(xs, w_star=rg.standard_normal(3), sigma=0.7)
        m = compute_moments(spec)
        np.testing.assert_allclose(m.sigma0, 0.49 * m.hmat, atol=1e-14)

    def test_e0_rank_one(self):
        spec = ProblemSpec.gaussian(np.eye(3), w_star=[1.0, 0.0, 0.0], w0=[0.0, 2.0, 0.0])
        m = compute_moments(spec)
        assert np.linalg.matrix_rank(m.e0) == 1
        np.testing.assert_allclose(np.trace(m.e0), np.sum(spec.eta0**2))

    def test_rank_deficient_empirical_rejected(self):
        xs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SpecError, match="rank deficient"):
            compute_moments(ProblemSpec.discrete(xs, w_star=[0.0, 0.0], sigma=1.0))

    def test_residual_orthogonality(self):
        """Least-squares optimum makes E[eps X] vanish by construction."""
        rg = np.random.default_rng(4)
        xs = rg.standard_normal((9, 3))
        ys = xs @ [1.0, -2.0, 0.5] + rg.standard_normal(9)
        spec = ProblemSpec.empirical(xs, ys)
        eps = ys - xs @ spec.w_star
        np.testing.assert_allclose(xs.T @ eps / len(xs), np.zeros(3), atol=1e-12)

    def test_probability_validation(self):
        with pytest.raises(SpecError):
            ProblemSpec.discrete(np.eye(2), probs=np.array([0.7, 0.2]))
        with pytest.raises(SpecError):
            ProblemSpec.discrete(np.eye(2), probs=np.array([1.2, -0.2]))

    def test_jensen_lower_bound(self):
        """The fourth-moment form dominates the squared trace form."""
        for name, spec in [
            ("gauss", ProblemSpec.gaussian(np.diag([1.0, 0.5]), sigma=1.0)),
            ("disc", ProblemSpec.discrete(np.random.default_rng(1).standard_normal((6, 2)), sigma=1.0)),
        ]:
            m = compute_moments(spec)
            rg = np.random.default_rng(10)
            for _ in range(20):
                a = rg.standard_normal((2, 2))
                a = a + a.T
                quad = np.einsum("ij,ji->", a, apply(original_fourth_moment(m), a))
                tr = np.einsum("ij,ji->", a, m.hmat)
                assert quad >= tr**2 - 1e-10 * max(1.0, abs(quad)), name


class TestReweightedMoments:
    def test_identity_weights_are_a_no_op(self):
        rg = np.random.default_rng(21)
        xs = rg.standard_normal((5, 2))
        spec = ProblemSpec.discrete(xs, w_star=[1.0, 2.0], sigma=0.5)
        base = compute_moments(spec)
        rw = reweighted_moments(spec, lambda x, y: np.ones(len(x)))
        np.testing.assert_allclose(rw.hmat, base.hmat, atol=1e-14)
        np.testing.assert_allclose(rw.frame.fourth_moment(), base.frame.fourth_moment(),
                                   atol=1e-14)
        np.testing.assert_allclose(rw.sigma0, base.sigma0, atol=1e-14)

    def test_two_atom_norm_proportional(self):
        """Atoms {1, 2} in d=1 with the norm-proportional ratio: the second
        moment stays 2.5 while the fourth moment becomes E[X^T X] * H = 6.25."""
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        mean_sq = 0.5 * (1.0 + 4.0)

        def c_inverse(xs, ys):
            return np.einsum("ti,ti->t", xs, xs) / mean_sq

        rw = reweighted_moments(spec, c_inverse)
        np.testing.assert_allclose(rw.hmat, [[2.5]], atol=1e-14)
        np.testing.assert_allclose(rw.frame.fourth_moment(), [[6.25]], atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_second_moment_invariance(self, seed):
        """H survives any valid reweighting exactly on discrete designs."""
        rg = np.random.default_rng(seed)
        d = int(rg.integers(1, 4))
        n = d + int(rg.integers(2, 6))
        xs = rg.standard_normal((n, d))
        probs = rg.uniform(0.1, 1.0, n)
        probs /= probs.sum()
        try:
            spec = ProblemSpec.discrete(xs, probs, w_star=rg.standard_normal(d), sigma=1.0)
            compute_moments(spec)
        except SpecError:
            return
        raw = rg.uniform(0.1, 2.0, n)
        raw /= probs @ raw
        rw = reweighted_moments(spec, lambda x, y, _v=raw: _v)
        np.testing.assert_allclose(rw.hmat, compute_moments(spec).hmat, atol=1e-13)

    def test_noise_covariance_gains_a_factor(self):
        """Fourth-order noise matrix picks up c per atom under resampling."""
        xs = np.array([[1.0], [2.0]])
        ys = np.array([2.0, 1.0])
        spec = ProblemSpec.discrete(xs, ys=ys)
        eps = ys - xs @ spec.w_star
        cinv = np.array([0.5, 1.5])  # E_p[cinv] = 1 for equal weights
        rw = reweighted_moments(spec, lambda x, y: cinv[(np.asarray(x)[:, 0] > 1.5).astype(int)])
        want = 0.5 * (eps[0] ** 2 * 1.0 / 0.5 + eps[1] ** 2 * 4.0 / 1.5)
        np.testing.assert_allclose(rw.sigma0, [[want]], atol=1e-13)

    def test_absolute_continuity_required(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        with pytest.raises(ValueError, match="absolutely continuous"):
            reweighted_moments(spec, lambda x, y: np.array([0.0, 2.0]))

    def test_normalization_required(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        with pytest.raises(ValueError, match="expectation"):
            reweighted_moments(spec, lambda x, y: np.full(len(x), 0.7))

    def test_gaussian_spec_is_refused(self):
        """Gaussian resampled moments are exact or refused: an arbitrary ratio,
        directly or through a scheme without a closed form, raises and names
        the exact forms and the way out."""
        spec = make_gaussian(3, 0.6, 47)
        ratio = _ratio(spec)
        calls = [lambda: reweighted_moments(spec, ratio),
                 lambda: resampled_moments(spec, uniform_scheme())]
        for call in calls:
            with pytest.raises(SchemeError, match="ProblemSpec.discrete") as info:
                call()
            for name in ("compute_moments", "norm_resampled_moments",
                         "leverage_resampled_moments"):
                assert name in str(info.value)

    def test_zero_atom_is_tolerated_and_excluded_from_proposals(self):
        """Atoms at the origin never trigger an update; the ratio may vanish
        there without breaking absolute continuity."""
        xs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        spec = ProblemSpec.discrete(xs, w_star=[1.0, -1.0], sigma=0.5)
        base = compute_moments(spec)
        cinv = np.array([0.0, 1.0, 1.0, 2.0])
        cinv = cinv / (spec.design.probs @ cinv)
        rw = reweighted_moments(spec, lambda x, y, _v=cinv: _v)
        np.testing.assert_allclose(rw.hmat, base.hmat, atol=1e-14)
        assert np.isfinite(rw.frame.fourth_moment()).all()


def _resampled_operator_and_stderr(spec, c_inverse, n, seed):
    """Per-draw Monte Carlo of E[c u u^T] (u the rank-one coordinates in H's
    eigenbasis) and E[c X X^T], with entrywise standard errors."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, spec.dim)) @ _sqrt_psd(*spec.h_eig).T
    c = 1.0 / c_inverse(xs, xs @ spec.w_star)
    out = []
    for coords in (_rank_one_coords(xs @ spec.h_eig[1], SymBasis(spec.dim)), xs):
        mean = (coords * c[:, None]).T @ coords / n
        second = (coords**2 * c[:, None] ** 2).T @ coords**2 / n
        out += [mean, np.sqrt(np.maximum(second - mean**2, 0.0) / (n - 1))]
    return out


class TestGaussianResampledClosedForms:
    def test_isotropic_norm_resampling(self):
        """H = l I: M'(A) = l^2 d/(d+2) (2A + Tr(A) I) and Sigma0' = sigma^2 l I.

        The map commutes with every rotation, so its matrix is the same in
        H's eigenbasis as in the original coordinates."""
        for d in (1, 2, 5, 9):
            for scale in (1.0, 0.3):
                spec = ProblemSpec.gaussian(scale * np.eye(d), sigma=0.8)
                m = norm_resampled_moments(spec)
                basis = SymBasis(d)
                want = operator_from_map(
                    lambda mats: scale**2 * d / (d + 2) * (
                        2.0 * mats + np.trace(mats, axis1=1, axis2=2)[:, None, None] * np.eye(d)
                    ),
                    basis,
                )
                np.testing.assert_allclose(m.frame.fourth_moment(), want.matrix,
                                           rtol=1e-14, atol=1e-14 * scale**2)
                np.testing.assert_allclose(m.sigma0, 0.64 * scale * np.eye(d),
                                           rtol=1e-14, atol=1e-15)

    def test_scalar_norm_resampling(self):
        """d=1: every resampled draw is +-sqrt(l), so M'(a) = l^2 a."""
        for l in (1e-3, 0.7, 1.0, 40.0):
            m = norm_resampled_moments(ProblemSpec.gaussian([[l]], sigma=2.0))
            np.testing.assert_allclose(m.frame.fourth_moment(), [[l**2]], rtol=1e-14)
            np.testing.assert_allclose(m.sigma0, [[4.0 * l]], rtol=1e-14)

    def test_second_moments_unchanged(self):
        from conftest import make_gaussian

        spec = make_gaussian(5, 0.6, 45)
        base = compute_moments(spec)
        for form in (norm_resampled_moments, leverage_resampled_moments):
            m = form(spec)
            assert m.n_samples is None
            np.testing.assert_array_equal(m.hmat, base.hmat)
            np.testing.assert_array_equal(m.e0, base.e0)

    @pytest.mark.parametrize("make_scheme", [optimal_bias_scheme, optimal_variance_scheme])
    def test_agrees_with_monte_carlo(self, make_scheme):
        """At d=4 on a rotated H, the closed form lies within 5 standard errors
        of a seeded Monte Carlo estimate on every operator and noise entry."""
        from conftest import make_gaussian

        spec = make_gaussian(4, 0.9, 46)
        scheme = make_scheme(spec)
        exact = scheme.exact_moments()
        n = 200_000
        mean4, se4, mean2, se2 = _resampled_operator_and_stderr(spec, scheme.c_inverse, n, 5)
        assert np.all(np.abs(mean4 - exact.frame.fourth_moment()) <= 5.0 * se4)
        noise = spec.noise.sigma**2
        assert np.all(np.abs(noise * mean2 - exact.sigma0) <= 5.0 * noise * se2)

    def test_needs_a_gaussian_design(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        for form in (norm_resampled_moments, leverage_resampled_moments):
            with pytest.raises(SpecError, match="Gaussian"):
                form(spec)


def _norm_resampled_dense(spec) -> SymOperator:
    """The norm-resampled Gaussian fourth moment as a dense map in the
    original coordinates (its formula is stated in H's eigenbasis)."""
    cov = spec.hmat
    lam, u = np.linalg.eigh(cov)
    _, gmat = _norm_resampling_integrals(lam)
    diag = np.arange(spec.dim)

    def act(mats):
        rot = u.T @ mats @ u
        out = 2.0 * gmat * rot
        out[:, diag, diag] += rot[:, diag, diag] @ gmat
        return np.trace(cov) * (u @ out @ u.T)

    return operator_from_map(act, SymBasis(spec.dim))


def _ratio(spec):
    """A valid density ratio on any spec: (1 + ||x||^2 / E||X||^2) / 2."""
    mean_sq = float(np.trace(spec.hmat))
    return lambda xs, ys: 0.5 * (1.0 + np.einsum("ti,ti->t", xs, xs) / mean_sq)


def _gaussian_producer(spec):
    return compute_moments(spec), gaussian_fourth_moment(spec.hmat)


def _leverage_producer(spec):
    d = spec.dim
    kappa = (d + 1) * _chi_mean(d) ** 2 / (d * (d + 2))
    dense = gaussian_fourth_moment(spec.hmat)
    return leverage_resampled_moments(spec), SymOperator(dense.basis, kappa * dense.matrix)


def _norm_producer(spec):
    return norm_resampled_moments(spec), _norm_resampled_dense(spec)


def _atoms_producer(spec):
    return compute_moments(spec), samples_fourth_moment(spec.design.xs, spec.design.probs)


def _reweighted_atoms_producer(spec):
    xs, probs, ratio = spec.design.xs, spec.design.probs, _ratio(spec)
    c = 1.0 / ratio(xs, None)
    return reweighted_moments(spec, ratio), samples_fourth_moment(xs, probs * c)


GAUSSIAN_PRODUCERS = [_gaussian_producer, _leverage_producer, _norm_producer]
ATOM_PRODUCERS = [_atoms_producer, _reweighted_atoms_producer]


class TestEigenbasisProducers:
    """Every producer writes the fourth moment in H's eigenbasis: the stored
    matrix is the dense oracle, built in the original coordinates from the
    spec alone, rotated by the tests' own map to 1e-13 relative."""

    @staticmethod
    def check(spec, producer):
        moments, oracle = producer(spec)
        _, u = np.linalg.eigh(spec.hmat)
        want = to_eigbasis(oracle, u)
        err = np.abs(moments.frame.fourth_moment() - want).max()
        assert err <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("producer", GAUSSIAN_PRODUCERS, ids=lambda f: f.__name__[1:-9])
    def test_gaussian_design(self, producer, d):
        self.check(make_gaussian(d, 0.7, 70 + d), producer)

    @pytest.mark.parametrize("kind", ["discrete", "empirical"])
    @pytest.mark.parametrize("producer", ATOM_PRODUCERS, ids=lambda f: f.__name__[1:-9])
    def test_discrete_design(self, producer, kind):
        if kind == "discrete":
            spec = make_discrete(4, 11, 75, residual=False)
        else:
            spec = make_empirical(3, 60, 76)
        self.check(spec, producer)


class TestSpecSecondMoment:
    """H is computed and rank-checked once per spec; every consumer reads it."""

    @staticmethod
    def specs():
        from conftest import make_discrete, make_empirical, make_gaussian

        return [make_gaussian(4, 0.5, 60), make_discrete(3, 7, 61, residual=False),
                make_empirical(3, 50, 62)]

    def test_read_only_and_bitwise_symmetric(self):
        for spec in self.specs():
            assert not spec.hmat.flags.writeable
            np.testing.assert_array_equal(spec.hmat, spec.hmat.T)
            assert spec.hmat is spec.design.hmat

    def test_every_moment_set_holds_the_spec_array(self):
        from conftest import make_gaussian

        for spec in self.specs():
            assert compute_moments(spec).hmat is spec.hmat
        atom_specs = [s for s in self.specs() if s.kind != "gaussian"]
        for spec in atom_specs:
            rw = reweighted_moments(spec, lambda x, y: np.ones(len(x)))
            assert rw.hmat is spec.hmat
        gauss = make_gaussian(3, 0.8, 63)
        for form in (norm_resampled_moments, leverage_resampled_moments):
            assert form(gauss).hmat is gauss.hmat
        for spec in self.specs():
            makes = [optimal_bias_scheme, optimal_variance_scheme]
            if spec.kind != "gaussian":
                makes.append(lambda s: uniform_scheme())
            for make in makes:
                assert resampled_moments(spec, make(spec)).hmat is spec.hmat

    def test_rank_deficient_independent_noise_rejected_at_construction(self):
        xs = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
        with pytest.raises(SpecError, match="rank deficient"):
            ProblemSpec.discrete(xs, w_star=[1.0, 0.0], sigma=0.5)

    def test_unit_ratio_reweighting_is_compute_moments(self, monkeypatch):
        """c = 1 gives compute_moments' atom Gram bit for bit, and both go
        through the one weighted atom-Gram routine."""
        import avlms.moments

        calls = []
        original = avlms.moments.fourth_moment_operator_from_samples

        def counting(xs, basis=None, weights=None, coords=None):
            calls.append(weights)
            return original(xs, basis, weights=weights, coords=coords)

        monkeypatch.setattr(avlms.moments, "fourth_moment_operator_from_samples", counting)
        from conftest import make_discrete

        for residual in (False, True):
            spec = make_discrete(3, 8, 64, residual=residual)
            base = compute_moments(spec)
            rw = reweighted_moments(spec, lambda x, y: np.ones(len(x)))
            np.testing.assert_array_equal(rw.frame.fourth_moment(), base.frame.fourth_moment())
            np.testing.assert_array_equal(rw.sigma0, base.sigma0)
        assert len(calls) == 4


class TestCrossTermCondition:
    def test_independent_noise_is_exactly_decomposable(self):
        spec = ProblemSpec.gaussian(np.diag([1.0, 2.0]), sigma=1.0)
        report = check_cross_term_condition(spec)
        assert report.decomposable
        assert report.max_abs == 0.0

    def test_noiseless_is_decomposable(self):
        rg = np.random.default_rng(5)
        spec = ProblemSpec.discrete(rg.standard_normal((5, 2)), w_star=[1.0, 1.0], sigma=0.0)
        assert check_cross_term_condition(spec).decomposable

    def test_misspecified_quadratic_detected(self):
        """Atoms x in {1, 2} with y = x^2: the residual correlates with the
        third moment, E[X^3 eps] = 1.2 (hand computation), and is flagged."""
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), ys=np.array([1.0, 4.0]))
        report = check_cross_term_condition(spec)
        assert not report.decomposable
        np.testing.assert_allclose(report.terms[0, 0, 0], 1.2, atol=1e-12)
