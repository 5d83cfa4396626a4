"""Optimal sampling densities and their gains."""

import numpy as np
import pytest

from avlms import (
    ProblemSpec,
    SchemeError,
    bias_gain,
    compute_moments,
    gamma_max,
    optimal_bias_scheme,
    optimal_variance_scheme,
    resampled_gamma_max,
    resampled_moments,
    reweighted_moments,
    small_gamma_equivalents,
    uniform_scheme,
    variance_gain,
)
from avlms.moments import _chi_mean, _sqrt_psd
from conftest import make_discrete


def _rotated_gaussian(d, seed, sigma=1.0):
    """N(0, H) with a random rotation and spectrum spread over e^[-3, 3]."""
    rg = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rg.standard_normal((d, d)))
    cov = (q * np.exp(rg.uniform(-3.0, 3.0, d))) @ q.T
    return ProblemSpec.gaussian(0.5 * (cov + cov.T), w_star=rg.standard_normal(d), sigma=sigma)


class TestBiasScheme:
    def test_constant_norm_is_uniform(self):
        xs = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
        spec = ProblemSpec.discrete(xs, w_star=[1.0, 1.0], sigma=0.5)
        scheme = optimal_bias_scheme(spec)
        np.testing.assert_allclose(scheme.c_inverse(xs, None), np.ones(3), rtol=1e-12)

    def test_two_atom_values(self):
        """Norms 1 and 9 with equal mass: ratios 0.2 and 1.8."""
        xs = np.array([[1.0, 0.0], [0.0, 3.0]])
        spec = ProblemSpec.discrete(xs, w_star=[0.0, 1.0], sigma=0.5)
        scheme = optimal_bias_scheme(spec)
        np.testing.assert_allclose(scheme.c_inverse(xs, None), [0.2, 1.8], rtol=1e-12)

    def test_achieves_trace_bound_on_gaussian_specs(self):
        """Norm-proportional resampling of a rotated, non-diagonal Gaussian
        design gives gamma_max = 2/Tr(H) to 1e-12, never above it by more."""
        for seed, d in enumerate((1, 2, 3, 6, 11, 25)):
            spec = _rotated_gaussian(d, 1800 + seed)
            cov = spec.design.cov
            assert d == 1 or np.abs(cov - np.diag(np.diag(cov))).max() > 1e-2 * np.abs(cov).max()
            bound = 2.0 / np.trace(cov)
            got = resampled_gamma_max(spec, optimal_bias_scheme(spec))
            assert abs(got - bound) <= 1e-12 * bound

    def test_achieves_trace_bound_exactly(self):
        """Resampled threshold equals 2/E[X^T X] through the eigenproblem."""
        for seed in range(6):
            spec = make_discrete(1 + seed % 4, 7, 1300 + seed, residual=False)
            scheme = optimal_bias_scheme(spec)
            got = resampled_gamma_max(spec, scheme)
            np.testing.assert_allclose(got, 2.0 / scheme.normalization, atol=1e-10)


class TestVarianceScheme:
    def test_scalar_inputs_weight_by_residual_only(self):
        """d=1 with X = 1: the leverage factor is constant, so the ratio is
        proportional to |eps| alone."""
        xs = np.array([[1.0], [1.0]])
        ys = np.array([3.0, -1.0])
        spec = ProblemSpec.discrete(xs, ys=ys)
        scheme = optimal_variance_scheme(spec)
        eps = np.abs(ys - xs @ spec.w_star)
        vals = scheme.c_inverse(xs, ys)
        np.testing.assert_allclose(vals / vals.sum(), eps / eps.sum(), rtol=1e-12)

    def test_constant_everything_is_uniform(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        spec = ProblemSpec.discrete(xs, w_star=[1.0, -1.0], sigma=0.8)
        scheme = optimal_variance_scheme(spec)
        np.testing.assert_allclose(scheme.c_inverse(xs, None), np.ones(4), rtol=1e-12)

    def test_noiseless_rejected(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[1.0], sigma=0.0)
        with pytest.raises(SchemeError):
            optimal_variance_scheme(spec)
        xs = np.array([[1.0], [2.0]])
        exact = ProblemSpec.discrete(xs, ys=(xs @ np.array([1.5])))
        with pytest.raises(SchemeError):
            optimal_variance_scheme(exact)

    def test_gaussian_leverage_scheme_closed_form(self):
        """On Gaussian specs the small-step variance limit is sigma^2 K^2
        (Cauchy-Schwarz with E||H^-1/2 X|| = K), and the fourth moment is
        kappa times the Gaussian one, so gamma_max is divided by kappa."""
        for seed, d in enumerate((1, 2, 4, 9, 25)):
            spec = _rotated_gaussian(d, 1900 + seed, sigma=0.6)
            k = _chi_mean(d)
            kappa = (d + 1) * k**2 / (d * (d + 2))
            rw = resampled_moments(spec, optimal_variance_scheme(spec))
            _, limit = small_gamma_equivalents(rw, 1.0, 1)
            np.testing.assert_allclose(limit, 0.36 * k**2, rtol=1e-12)
            np.testing.assert_allclose(gamma_max(rw), gamma_max(compute_moments(spec)) / kappa,
                                       rtol=1e-12)

    def test_attains_cauchy_schwarz_limit(self):
        """On labelled discrete specs, the reweighted small-step variance
        limit equals (E|eps| sqrt(X^T H^-1 X))^2 to 1e-10."""
        for seed in range(6):
            spec = make_discrete(2 + seed % 3, 6, 1400 + seed, residual=True)
            m = compute_moments(spec)
            eps = spec.design.ys - spec.design.xs @ spec.w_star
            lev = np.sqrt(np.einsum(
                "ti,ij,tj->t", spec.design.xs, np.linalg.inv(m.hmat), spec.design.xs
            ))
            target = float(spec.design.probs @ (np.abs(eps) * lev)) ** 2
            scheme = optimal_variance_scheme(spec)
            rw = reweighted_moments(spec, scheme.c_inverse)
            _, limit = small_gamma_equivalents(rw, 1.0, 1)
            np.testing.assert_allclose(limit, target, rtol=1e-10)

    def test_beats_two_atom_grid(self):
        """No density on a fine two-atom grid improves on the scheme."""
        for seed in range(6):
            rg = np.random.default_rng(1500 + seed)
            d = int(rg.integers(1, 4))
            xs = rg.standard_normal((2, d)) * rg.uniform(0.5, 3.0, (2, 1))
            ys = xs @ rg.standard_normal(d) + 2.0 * rg.standard_normal(2)
            try:
                spec = ProblemSpec.discrete(xs, ys=ys)
            except Exception:
                continue
            m = compute_moments(spec)
            eps = ys - xs @ spec.w_star
            if np.abs(eps).max() < 1e-9:
                continue
            lev2 = np.einsum("ti,ij,tj->t", xs, np.linalg.inv(m.hmat), xs)
            scheme = optimal_variance_scheme(spec)
            rw = reweighted_moments(spec, scheme.c_inverse)
            _, scheme_value = small_gamma_equivalents(rw, 1.0, 1)
            q1 = np.linspace(1e-4, 1 - 1e-4, 1000)
            grid = (
                0.25 * eps[0] ** 2 * lev2[0] / q1
                + 0.25 * eps[1] ** 2 * lev2[1] / (1.0 - q1)
            )
            assert grid.min() >= scheme_value - 1e-8


class TestGains:
    def test_variance_gain_constant_norm(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        spec = ProblemSpec.discrete(xs, w_star=[1.0, 1.0], sigma=1.0)
        np.testing.assert_allclose(variance_gain(spec), 1.0, rtol=1e-12)

    def test_variance_gain_two_atoms(self):
        """Norms 1 and 3 with equal mass: ((1+3)/2)^2 / ((1+9)/2) = 4/5."""
        xs = np.array([[1.0], [3.0]])
        spec = ProblemSpec.discrete(xs, w_star=[0.5], sigma=1.0)
        np.testing.assert_allclose(variance_gain(spec), 0.8, rtol=1e-12)

    def test_variance_gain_never_exceeds_one(self):
        for seed in range(8):
            spec = make_discrete(1 + seed % 4, 6, 1600 + seed, residual=False)
            assert variance_gain(spec) <= 1.0 + 1e-12
        gauss = ProblemSpec.gaussian(np.diag([1.0, 0.3]), sigma=1.0)
        assert variance_gain(gauss) <= 1.0

    def test_gaussian_variance_gain_isotropic(self):
        """H = l I: ||X|| = sqrt(l) ||Z||, so the gain is K^2/d with K = E||Z||."""
        for d in range(1, 65):
            for scale in (1.0, 0.03, 40.0):
                spec = ProblemSpec.gaussian(scale * np.eye(d), sigma=1.0)
                np.testing.assert_allclose(variance_gain(spec), _chi_mean(d) ** 2 / d,
                                           rtol=1e-13)

    def test_gaussian_variance_gain_matches_draws(self):
        """d=25 on a rotated H with spectrum 1/i: E||X|| from the gain lies
        within 5 standard errors of a seeded 200k-draw sample mean."""
        d, n, chunk = 25, 200_000, 4096
        rg = np.random.default_rng(12)
        q, _ = np.linalg.qr(rg.standard_normal((d, d)))
        cov = (q / np.arange(1, d + 1)) @ q.T
        spec = ProblemSpec.gaussian(0.5 * (cov + cov.T), sigma=1.0)
        root_t = _sqrt_psd(*spec.h_eig).T
        norms = np.concatenate([
            np.linalg.norm(rg.standard_normal((chunk, d)) @ root_t, axis=1)
            for _ in range(n // chunk + 1)
        ])[:n]
        mean_norm = np.sqrt(variance_gain(spec) * np.trace(spec.design.cov))
        assert abs(norms.mean() - mean_norm) <= 5.0 * norms.std(ddof=1) / np.sqrt(n)

    def test_bias_gain(self):
        assert bias_gain(0.3, 0.3) == 1.0
        np.testing.assert_allclose(bias_gain(0.05, 0.5), 0.01, rtol=1e-15)
        with pytest.raises(ValueError):
            bias_gain(0.0, 1.0)

    def test_bias_gain_predicts_exact_risk_ratio(self):
        """On a heavy-norm-tail spec, the exact bias risks at the original
        and resampled thresholds (same fraction of each) match the squared
        step ratio within 15% at n = 1e4."""
        from avlms import CovarianceModel, excess_risk

        xs = np.array([[0.4], [0.6], [5.0]])
        probs = np.array([0.55, 0.40, 0.05])
        spec = ProblemSpec.discrete(xs, probs, w_star=[0.0], w0=[1.0], sigma=0.2)
        m = compute_moments(spec)
        g0 = 0.1 * gamma_max(m)
        scheme = optimal_bias_scheme(spec)
        rw = reweighted_moments(spec, scheme.c_inverse)
        g1 = 0.1 * gamma_max(rw)
        predicted = bias_gain(g0, g1)
        n = 10_000
        r0 = excess_risk(m, CovarianceModel(m, g0).bias_exact(n))
        r1 = excess_risk(rw, CovarianceModel(rw, g1).bias_exact(n))
        assert abs(r1 / r0 - predicted) <= 0.15 * predicted

    def test_uniform_scheme_is_normalized(self):
        spec = make_discrete(2, 5, 1700, residual=False)
        rw = reweighted_moments(spec, uniform_scheme().c_inverse)
        base = compute_moments(spec)
        np.testing.assert_allclose(rw.frame.fourth_moment(), base.frame.fourth_moment(),
                                   atol=1e-13)


class TestIdentityCovarianceInvariance:
    def test_bias_scheme_leaves_variance_limit_alone(self):
        """With H = I and noise independent of the inputs, norm-proportional
        resampling leaves the small-step variance limit unchanged."""
        xs = np.array([[np.sqrt(3.0), 0.0], [0.0, np.sqrt(1.5)],
                       [-np.sqrt(3.0), 0.0], [0.0, -np.sqrt(1.5)]])
        probs = np.array([1.0 / 6, 1.0 / 3, 1.0 / 6, 1.0 / 3])
        spec = ProblemSpec.discrete(xs, probs, w_star=[1.0, -1.0], sigma=0.9)
        m = compute_moments(spec)
        np.testing.assert_allclose(m.hmat, np.eye(2), atol=1e-12)
        scheme = optimal_bias_scheme(spec)
        rw = reweighted_moments(spec, scheme.c_inverse)
        _, before = small_gamma_equivalents(m, 1.0, 1)
        _, after = small_gamma_equivalents(rw, 1.0, 1)
        np.testing.assert_allclose(after, before, rtol=1e-10)
