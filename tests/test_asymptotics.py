"""Exact covariances, leading terms, remainder bounds, and equivalents.

Independent oracles used here:
* a deterministic scalar recursion for the noiseless d=1, X = 1 instance,
* exhaustive enumeration over all sign sequences for sign-valued inputs,
* a second-moment dynamic program driven only by one-step operator
  applications (no closed forms).
"""

import itertools

import numpy as np
import pytest
import scipy.linalg

from avlms import (
    CovarianceModel,
    ProblemSpec,
    SingularOperatorError,
    compute_moments,
    excess_risk,
    gamma_max,
    small_gamma_equivalents,
    smallest_t_eigenvalue,
    total_error_envelope,
)
from conftest import full_battery, make_discrete
from oracles import apply as op_apply
from oracles import contraction_generator, dense_fourth_moment, left_right_operator

EPS = np.finfo(float).eps


def scalar_unit_spec(w0=1.0, sigma=1.0):
    return ProblemSpec.discrete(np.array([[1.0]]), w_star=[0.0], w0=[w0], sigma=sigma)


def enumerate_sign_bias(spec, gamma, n):
    """Average of etabar etabar^T over every input sequence of atoms."""
    xs = spec.design.xs
    d = xs.shape[1]
    eta0 = spec.eta0
    total = np.zeros((d, d))
    for seq in itertools.product(range(len(xs)), repeat=n - 1):
        eta = eta0.copy()
        acc = eta0.copy()
        for t in seq:
            x = xs[t]
            eta = eta - gamma * np.dot(x, eta) * x
            acc += eta
        bar = acc / n
        total += np.outer(bar, bar)
    return total / len(xs) ** (n - 1)


def enumerate_sign_variance(spec, gamma, n):
    """Same, started at the optimum, with independent sign noise."""
    xs = spec.design.xs
    d = xs.shape[1]
    total = np.zeros((d, d))
    count = 0
    for seq in itertools.product(range(len(xs)), repeat=n - 1):
        for signs in itertools.product((-1.0, 1.0), repeat=n - 1):
            eta = np.zeros(d)
            acc = np.zeros(d)
            for t, e in zip(seq, signs):
                x = xs[t]
                eta = eta - gamma * (np.dot(x, eta) - e) * x
                acc += eta
            bar = acc / n
            total += np.outer(bar, bar)
            count += 1
    return total / count


def dp_bias(spec, moments, gamma, n):
    """Second-moment recursion using only one-step applications of the dense
    operator built from ``spec``."""
    d = moments.dim
    t_op = contraction_generator(spec, gamma)
    damp = np.eye(d) - gamma * moments.hmat
    cur = moments.e0.copy()
    cross = moments.e0.copy()
    total = moments.e0.copy()
    for _ in range(1, n):
        cur = cur - gamma * op_apply(t_op, cur)
        lifted = damp @ cross
        cross = lifted + cur
        total = total + lifted + lifted.T + cur
    return total / n**2


def dp_variance(spec, moments, gamma, n):
    d = moments.dim
    t_op = contraction_generator(spec, gamma)
    damp = np.eye(d) - gamma * moments.hmat
    cur = np.zeros((d, d))
    cross = np.zeros((d, d))
    total = np.zeros((d, d))
    for _ in range(1, n):
        cur = cur - gamma * op_apply(t_op, cur) + gamma**2 * moments.sigma0
        lifted = damp @ cross
        cross = lifted + cur
        total = total + lifted + lifted.T + cur
    return total / n**2


def rotated_gaussian_spec(d: int, seed: int) -> ProblemSpec:
    """Gaussian spec whose covariance has a random (non-diagonal) eigenbasis."""
    rg = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rg.standard_normal((d, d)))
    cov = q @ np.diag(1.0 / np.arange(1, d + 1)) @ q.T
    return ProblemSpec.gaussian(
        cov, w_star=rg.standard_normal(d), w0=rg.standard_normal(d), sigma=0.7
    )


NON_DIAGONAL = [
    ("rotated-gauss", rotated_gaussian_spec(7, 41)),
    ("disc-ind", make_discrete(6, 15, 42, residual=False)),
]


@pytest.mark.parametrize("name,spec", NON_DIAGONAL, ids=[n for n, _ in NON_DIAGONAL])
class TestDenseOracle:
    """The rotated-frame spectra agree with the dense operators in the
    original coordinates on an H that is far from diagonal."""

    def test_h_is_not_diagonal(self, name, spec):
        h = compute_moments(spec).hmat
        assert np.abs(h - np.diag(np.diag(h))).max() > 0.05 * np.abs(h).max()

    def test_gamma_max_matches_dense_pencil(self, name, spec):
        m = compute_moments(spec)
        b = left_right_operator(m.hmat, m.basis).matrix
        top = scipy.linalg.eigh(dense_fourth_moment(spec).matrix, b, eigvals_only=True)[-1]
        assert abs(gamma_max(m) * top - 1.0) < 1e-12

    def test_t_spectrum_matches_dense_generator(self, name, spec):
        m = compute_moments(spec)
        for frac in (0.05, 0.5, 0.95):
            g = frac * gamma_max(m)
            ref = np.linalg.eigvalsh(contraction_generator(spec, g).matrix)
            np.testing.assert_allclose(CovarianceModel(m, g).tau, ref, rtol=1e-12, atol=0)
            assert abs(smallest_t_eigenvalue(m, g) / ref[0] - 1.0) < 1e-12

    def test_exact_covariances_match_recursion(self, name, spec):
        """Relative to the larger of the value and its driving matrix: at
        n=2 the exact variance is leading terms plus a remainder that nearly
        cancel them, so its error scales with Sigma0, not with the value."""
        m = compute_moments(spec)
        g = 0.5 * gamma_max(m)
        model = CovarianceModel(m, g)
        for n in (2, 17, 90):
            for got, ref, src in ((model.bias_exact(n), dp_bias(spec, m, g, n), m.e0),
                                  (model.variance_exact(n), dp_variance(spec, m, g, n), m.sigma0)):
                scale = max(np.abs(ref).max(), np.abs(src).max())
                assert np.abs(got - ref).max() < 1e-12 * scale, n


class TestExactBias:
    def test_zero_start_gives_zero(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec(w0=0.0)), 0.5)
        for n in (1, 5, 50):
            np.testing.assert_array_equal(model.bias_exact(n), np.zeros((1, 1)))

    def test_single_iterate_is_start_matrix(self):
        m = compute_moments(scalar_unit_spec())
        np.testing.assert_array_equal(CovarianceModel(m, 0.5).bias_exact(1), m.e0)

    def test_scalar_deterministic_recursion(self):
        """X = 1 a.s. makes the path deterministic: at n=3 the averaged
        offset is (1 + 0.5 + 0.25)/3, so the covariance is 49/144."""
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 0.5)
        np.testing.assert_allclose(model.bias_exact(3), [[49.0 / 144.0]], rtol=1e-14)
        for n in (2, 7, 23):
            etas = [0.5**k for k in range(n)]
            want = np.mean(etas) ** 2
            np.testing.assert_allclose(model.bias_exact(n), [[want]], rtol=1e-13)

    def test_matches_operator_recursion(self):
        for name, spec in full_battery()[::4]:
            m = compute_moments(spec)
            g = 0.45 * gamma_max(m)
            model = CovarianceModel(m, g)
            for n in (2, 9, 61):
                ref = dp_bias(spec, m, g, n)
                got = model.bias_exact(n)
                atol = 1e-12 * max(np.abs(m.e0).max(), np.abs(ref).max(), 1.0)
                assert np.abs(got - ref).max() < atol, (name, n)

    def test_defined_at_singular_generator(self):
        """At the stability threshold the generator is singular but the
        finite sum is still well defined."""
        spec = scalar_unit_spec()
        m = compute_moments(spec)
        g = gamma_max(m)  # T(2.0) = 0 exactly in d=1
        assert abs(smallest_t_eigenvalue(m, g)) < 1e-14
        got = CovarianceModel(m, g).bias_exact(4)
        ref = dp_bias(spec, m, g, 4)
        np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_psd(self):
        for name, spec in full_battery()[::5]:
            m = compute_moments(spec)
            g = 0.6 * gamma_max(m)
            w = np.linalg.eigvalsh(CovarianceModel(m, g).bias_exact(37))
            assert w[0] > -1e-10 * max(w[-1], 1e-12), name


class TestExactVariance:
    def test_noiseless_gives_zero(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec(sigma=0.0)), 0.5)
        np.testing.assert_allclose(model.variance_exact(20), np.zeros((1, 1)), atol=1e-18)

    def test_single_iterate_is_zero(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 0.5)
        np.testing.assert_array_equal(model.variance_exact(1), np.zeros((1, 1)))

    def test_sign_sequence_enumeration_d1(self):
        """Signed inputs and signed noise, n=4, gamma=0.5: exhaustive
        enumeration of all 4^4 sign sequences gives 101/1024."""
        spec = ProblemSpec.discrete(np.array([[-1.0], [1.0]]), w_star=[0.0], sigma=1.0)
        m = compute_moments(spec)
        oracle = enumerate_sign_variance(spec, 0.5, 4)
        np.testing.assert_allclose(oracle, [[101.0 / 1024.0]], atol=1e-15)
        got = CovarianceModel(m, 0.5).variance_exact(4)
        assert np.abs(got - oracle).max() < 1e-12

    def test_singular_generator_rejected(self):
        m = compute_moments(scalar_unit_spec())
        model = CovarianceModel(m, gamma_max(m))
        with pytest.raises(SingularOperatorError):
            model.variance_exact(8)

    def test_matches_operator_recursion(self):
        for name, spec in full_battery()[1::4]:
            m = compute_moments(spec)
            g = 0.55 * gamma_max(m)
            model = CovarianceModel(m, g)
            for n in (2, 9, 61):
                ref = dp_variance(spec, m, g, n)
                got = model.variance_exact(n)
                atol = 1e-12 * max(np.abs(m.sigma0).max(), np.abs(ref).max(), 1.0)
                assert np.abs(got - ref).max() < atol, (name, n)

    def test_psd(self):
        for name, spec in full_battery()[2::5]:
            m = compute_moments(spec)
            model = CovarianceModel(m, 0.5 * gamma_max(m))
            for n in (5, 50, 500):
                w = np.linalg.eigvalsh(model.variance_exact(n))
                assert w[0] > -1e-10 * max(w[-1], 1e-12), (name, n)


class TestLeadingTerms:
    def test_bias_zero_start(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec(w0=0.0)), 0.5)
        np.testing.assert_array_equal(model.bias_leading(10), np.zeros((1, 1)))

    def test_bias_scalar_value(self):
        """(1/(n^2 0.25)) (2 - 0.5) (1/1.5) = 4/n^2 in the scalar unit case."""
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 0.5)
        for n in (10, 1000):
            np.testing.assert_allclose(model.bias_leading(n), [[4.0 / n**2]], rtol=1e-13)

    def test_bias_quadratic_in_start(self):
        m1 = CovarianceModel(compute_moments(scalar_unit_spec(w0=1.0)), 0.5)
        m2 = CovarianceModel(compute_moments(scalar_unit_spec(w0=2.0)), 0.5)
        np.testing.assert_allclose(m2.bias_leading(50), 4.0 * m1.bias_leading(50), rtol=1e-13)

    def test_variance_zero_noise(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec(sigma=0.0)), 0.5)
        np.testing.assert_array_equal(model.variance_leading(10), np.zeros((1, 1)))

    def test_variance_scalar_value(self):
        """Scalar unit case: 1/n minus the full 8/(3 n^2) correction.

        The n^-2 coefficient gathers every non-exponential term of the
        exact sum (cross-checked against enumeration and the operator
        recursion), not just the inverted-generator piece.
        """
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 0.5)
        for n in (10, 100, 10_000):
            np.testing.assert_allclose(
                model.variance_leading(n), [[1.0 / n - 8.0 / (3.0 * n**2)]], rtol=1e-12
            )

    def test_variance_rate_coefficient_small_gamma(self):
        """n times the leading variance risk tends to E[eps^2 X^T H^-1 X]."""
        rg = np.random.default_rng(33)
        b = rg.standard_normal((3, 3))
        m = compute_moments(ProblemSpec.gaussian(b @ b.T / 3 + 0.2 * np.eye(3), sigma=0.8))
        g = 1e-4 * gamma_max(m)
        n = 10**10  # the n^-2 correction carries 1/gamma, so gamma*n must be large
        want = float(np.trace(np.linalg.solve(m.hmat, m.sigma0)))
        got = n * excess_risk(m, CovarianceModel(m, g).variance_leading(n))
        assert abs(got - want) < 1e-3 * want

    def test_requires_stability(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 2.5)
        with pytest.raises(SingularOperatorError):
            model.bias_leading(10)
        with pytest.raises(SingularOperatorError):
            model.variance_leading(10)


class TestRemainderBounds:
    def test_bias_scalar_plug_in(self):
        """Frozen scalar arithmetic: (rho^20/(0.5*20)) * (2 + 1.5/15)."""
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 0.5)
        want = (0.5**20 / 10.0) * (2.0 + (1.0 / 15.0) * 1.5)
        got = model.bias_remainder_bound(20)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        np.testing.assert_allclose(got, 0.21 * 0.5**20, rtol=1e-13)

    def test_variance_scalar_plug_in(self):
        """Frozen scalar arithmetic for the three-piece variance bound."""
        m = compute_moments(scalar_unit_spec())
        n, g, mu, mu_t, rho = 20, 0.5, 1.0, 1.5, 0.5
        bracket = (2.0 / mu - g) / (n * g * mu_t**2) + 2.0 / (mu * mu_t) + 2.0 / (n * g * mu**2 * mu_t)
        want = (rho**n / n) * bracket
        got = CovarianceModel(m, g).variance_remainder_bound(n)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_decay(self):
        model = CovarianceModel(compute_moments(scalar_unit_spec()), 0.5)
        b = [model.bias_remainder_bound(n) for n in (10, 20, 40, 80)]
        assert all(x > y for x, y in zip(b, b[1:]))
        assert model.bias_remainder_bound(2000) == 0.0  # underflows cleanly

    def test_quadratic_in_start(self):
        m1 = CovarianceModel(compute_moments(scalar_unit_spec(w0=1.0)), 0.5)
        m2 = CovarianceModel(compute_moments(scalar_unit_spec(w0=2.0)), 0.5)
        np.testing.assert_allclose(
            m2.bias_remainder_bound(15), 4.0 * m1.bias_remainder_bound(15), rtol=1e-13
        )

    def test_linear_in_noise_matrix(self):
        m1 = CovarianceModel(compute_moments(scalar_unit_spec(sigma=1.0)), 0.5)
        m2 = CovarianceModel(compute_moments(scalar_unit_spec(sigma=2.0)), 0.5)
        np.testing.assert_allclose(
            m2.variance_remainder_bound(15), 4.0 * m1.variance_remainder_bound(15), rtol=1e-13
        )


class TestSandwich:
    """exact = leading + remainder with the remainder below its bound.

    The comparison grants the bound a few ulps: it is mathematically
    attained with equality for one-dimensional instances at half the
    threshold, and differences below the float resolution of the leading
    term are indistinguishable from rounding.
    """

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_mini_battery(self, frac, battery):
        for name, spec in battery[::3]:
            m = compute_moments(spec)
            model = CovarianceModel(m, frac * gamma_max(m))
            for n in (10, 100, 1000):
                for exact_f, lead_f, bound_f in (
                    (model.bias_exact, model.bias_leading, model.bias_remainder_bound),
                    (model.variance_exact, model.variance_leading,
                     model.variance_remainder_bound),
                ):
                    lead = lead_f(n)
                    diff = np.linalg.norm(exact_f(n) - lead)
                    allow = bound_f(n) * (1 + 1e-9) + 8 * EPS * np.linalg.norm(lead)
                    assert diff <= allow, (name, frac, n)


class TestSmallGammaEquivalents:
    def test_zero_start(self):
        m = compute_moments(scalar_unit_spec(w0=0.0))
        bias, _ = small_gamma_equivalents(m, 0.1, 10)
        assert bias == 0.0

    def test_independent_noise_rate(self):
        """Independent noise collapses the variance equivalent to d sigma^2/n."""
        for d, sigma in ((2, 1.0), (5, 0.3)):
            rg = np.random.default_rng(d)
            b = rg.standard_normal((d, d))
            m = compute_moments(ProblemSpec.gaussian(b @ b.T + 0.3 * np.eye(d), sigma=sigma))
            _, var = small_gamma_equivalents(m, 0.01, 1000)
            np.testing.assert_allclose(var, d * sigma**2 / 1000, rtol=1e-12)

    def test_anisotropic_start(self):
        m = compute_moments(
            ProblemSpec.gaussian(np.diag([1.0, 4.0]), w_star=[0.0, 0.0], w0=[1.0, 1.0], sigma=0.0)
        )
        bias, _ = small_gamma_equivalents(m, 0.2, 30)
        np.testing.assert_allclose(bias, 1.25 / (0.2**2 * 30**2), rtol=1e-13)


class TestRiskHelpers:
    def test_zero(self):
        m = compute_moments(scalar_unit_spec())
        assert excess_risk(m, np.zeros((1, 1))) == 0.0

    def test_inverse_gives_dimension(self):
        rg = np.random.default_rng(44)
        b = rg.standard_normal((4, 4))
        m = compute_moments(ProblemSpec.gaussian(b @ b.T + 0.3 * np.eye(4)))
        np.testing.assert_allclose(excess_risk(m, np.linalg.inv(m.hmat)), 4.0, rtol=1e-12)

    def test_bias_leading_risk_scalar(self):
        m = compute_moments(scalar_unit_spec())
        np.testing.assert_allclose(
            excess_risk(m, CovarianceModel(m, 0.5).bias_leading(40)), 4.0 / 40**2, rtol=1e-13
        )

    def test_envelope(self):
        assert total_error_envelope(0.0, 3.0) == 6.0
        assert total_error_envelope(2.0, 0.0) == 4.0
        with pytest.raises(ValueError):
            total_error_envelope(-1.0, 1.0)


class TestRatesAndRegimes:
    def test_rate_identification(self):
        """Log-log slopes over n in [1e3, 1e5]: -2 for bias, -1 for variance
        (within 0.05 at half the threshold on the benchmark spectrum)."""
        d = 25
        cov = np.diag(1.0 / np.arange(1, d + 1))
        rg = np.random.default_rng(2025)
        spec = ProblemSpec.gaussian(cov, w_star=rg.standard_normal(d), w0=np.zeros(d), sigma=1.0)
        m = compute_moments(spec)
        model = CovarianceModel(m, 0.5 * gamma_max(m))
        ns = np.unique(np.round(np.logspace(3, 5, 9)).astype(int))
        bias = [excess_risk(m, model.bias_exact(int(n))) for n in ns]
        var = [excess_risk(m, model.variance_exact(int(n))) for n in ns]
        assert abs(np.polyfit(np.log(ns), np.log(bias), 1)[0] + 2.0) < 0.05
        assert abs(np.polyfit(np.log(ns), np.log(var), 1)[0] + 1.0) < 0.05

    def test_step_size_ratio(self):
        """Ten times the step-size cuts the bias term by 100: exactly in the
        small-gamma equivalent, within 10% for the exact sums."""
        d = 25
        cov = np.diag(1.0 / np.arange(1, d + 1))
        rg = np.random.default_rng(2025)
        spec = ProblemSpec.gaussian(cov, w_star=rg.standard_normal(d), w0=np.zeros(d), sigma=1.0)
        m = compute_moments(spec)
        g0 = 0.18 * gamma_max(m)
        sg_small, _ = small_gamma_equivalents(m, g0 / 10, 100_000)
        sg_big, _ = small_gamma_equivalents(m, g0, 100_000)
        np.testing.assert_allclose(sg_small / sg_big, 100.0, rtol=1e-12)
        small, big = CovarianceModel(m, g0 / 10), CovarianceModel(m, g0)
        exact_ratio = excess_risk(m, small.bias_exact(100_000)) / excess_risk(
            m, big.bias_exact(100_000)
        )
        assert abs(exact_ratio - 100.0) <= 10.0

    def test_variance_correction_is_a_subtraction(self, battery):
        """For gamma at or below half the threshold, the n^-2 part of the
        leading variance risk is never a positive contribution (so the 1/n
        term is an upper estimate), and the full leading risk is
        nonnegative past the mixing horizon gamma * n * mu_T >= 4.

        Below that horizon the expansion itself is not meaningful: the
        correction carries a 1/gamma factor that the exponential terms
        cancel, so a small-n sign flip of the truncated expansion is
        expected and not a defect.
        """
        for name, spec in battery:
            m = compute_moments(spec)
            g_top = gamma_max(m)
            for frac in (0.1, 0.5):
                g = frac * g_top
                model = CovarianceModel(m, g)
                for n in (10, 100, 1000, 10_000):
                    lead_risk = excess_risk(m, model.variance_leading(n))
                    main = model._rotate_back(
                        model.wsurf * model.t_eig.contract(model.sigma0_coords / model.tau)
                    )
                    main_risk = excess_risk(m, main) / n
                    assert lead_risk <= main_risk + 1e-12 * max(1.0, main_risk), (name, frac, n)
                    if g * n * model.mu_t >= 4.0:
                        assert lead_risk >= 0.0, (name, frac, n)


class TestCovarianceReport:
    def test_stable_report_is_complete(self):
        m = compute_moments(scalar_unit_spec())
        rep = CovarianceModel(m, 0.5).report(100)
        assert rep.bias_leading is not None and rep.variance_leading is not None
        np.testing.assert_allclose(rep.bias_risk_leading, 4.0 / 100**2, rtol=1e-12)
        assert rep.bias_remainder_bound is not None
        np.testing.assert_allclose(rep.small_gamma_variance, 1.0 / 100, rtol=1e-12)

    def test_unstable_report_keeps_exact_columns(self):
        m = compute_moments(scalar_unit_spec())
        rep = CovarianceModel(m, 2.5).report(50)
        assert rep.bias_leading is None
        assert rep.bias_exact is not None
        assert rep.variance_exact is not None  # T invertible beyond the threshold

    def test_report_at_exactly_singular_generator(self):
        """At the threshold itself T is singular: the exact bias column is
        still produced, the exact variance column is absent."""
        m = compute_moments(scalar_unit_spec())
        rep = CovarianceModel(m, gamma_max(m)).report(20)
        assert rep.bias_exact is not None and np.isfinite(rep.bias_exact).all()
        assert rep.variance_exact is None
        assert rep.variance_leading is None
