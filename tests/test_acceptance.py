"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

Numerical comparisons against remainder bounds grant the bound a relative
1e-9 plus a few ulps of the leading term: the bound is mathematically
attained with equality for one-dimensional instances at half the
threshold, and differences below the float resolution of the leading
term are indistinguishable from rounding (see criterion 2).
"""

import time

import numpy as np

from avlms import (
    Cell,
    CovarianceModel,
    ProblemSpec,
    compute_moments,
    contraction_rate_bound,
    excess_risk,
    gamma_max,
    gamma_max_det,
    moment_sets,
    optimal_bias_scheme,
    optimal_variance_scheme,
    run_cells,
    small_gamma_equivalents,
    trace_step_bound,
)
from conftest import make_discrete, make_gaussian
from test_asymptotics import enumerate_sign_bias, enumerate_sign_variance

EPS = np.finfo(float).eps


def report(num: int, detail: str, started: float) -> None:
    print(f"criterion {num}: PASS ({time.time() - started:.1f}s) - {detail}", flush=True)


class TestCriterion1:
    def test_gamma_max_closed_forms(self):
        """Isotropic Gaussian thresholds 2/(d+2) and the exact scalar 2.0."""
        t0 = time.time()
        for d in range(1, 11):
            m = compute_moments(ProblemSpec.gaussian(np.eye(d)))
            g = gamma_max(m)
            assert abs(g - 2.0 / (d + 2)) < 1e-8
            assert g <= trace_step_bound(m) + 1e-12 <= gamma_max_det(m) + 1e-12
        m1 = compute_moments(ProblemSpec.discrete(np.array([[1.0]]), sigma=1.0))
        assert gamma_max(m1) == 2.0
        assert gamma_max(m1) <= trace_step_bound(m1) <= gamma_max_det(m1)
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(1, f"gamma_max closed forms, d=1..10 within 1e-8, scalar exact", t0)


class TestCriterion2:
    def test_sandwich_battery(self, battery):
        """|exact - leading| <= remainder bound on 22 specs x 3 gammas x 4
        horizons, both components, zero violations."""
        t0 = time.time()
        checked = 0
        for name, spec in battery:
            m = compute_moments(spec)
            g_top = gamma_max(m)
            for frac in (0.1, 0.5, 0.9):
                model = CovarianceModel(m, frac * g_top)
                for n in (10, 100, 1000, 10_000):
                    for exact_f, lead_f, bound_f in (
                        (model.bias_exact, model.bias_leading, model.bias_remainder_bound),
                        (model.variance_exact, model.variance_leading,
                         model.variance_remainder_bound),
                    ):
                        lead = lead_f(n)
                        diff = np.linalg.norm(exact_f(n) - lead)
                        bound = bound_f(n)
                        allow = bound * (1 + 1e-9) + 8 * EPS * np.linalg.norm(lead)
                        assert diff <= allow, (name, frac, n)
                        checked += 1
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(2, f"sandwich holds in all {checked} checks over {len(battery)} specs", t0)


class TestCriterion3:
    def test_exhaustive_sign_enumeration(self):
        """Sign-valued inputs, d in {1, 2}, n <= 6: the closed-form sums
        equal brute-force expectation over every sign sequence to 1e-12."""
        t0 = time.time()
        specs = [
            ProblemSpec.discrete(np.array([[-1.0], [1.0]]), w_star=[0.0], w0=[1.0], sigma=1.0),
            ProblemSpec.discrete(
                np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)]),
                w_star=[0.0, 0.0], w0=[1.0, -0.5], sigma=1.0,
            ),
        ]
        gamma = 0.3
        for spec in specs:
            model = CovarianceModel(compute_moments(spec), gamma)
            for n in range(1, 7):
                want_b = enumerate_sign_bias(spec, gamma, n)
                got_b = model.bias_exact(n)
                assert np.abs(got_b - want_b).max() < 1e-12
                want_v = enumerate_sign_variance(spec, gamma, n)
                got_v = model.variance_exact(n)
                assert np.abs(got_v - want_v).max() < 1e-12
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(3, "closed forms match exhaustive enumeration (d=1,2, n<=6) to 1e-12", t0)


def synthetic_benchmark_spec() -> ProblemSpec:
    d = 25
    cov = np.diag(1.0 / np.arange(1, d + 1))
    rg = np.random.default_rng(2025)
    return ProblemSpec.gaussian(cov, w_star=rg.standard_normal(d), w0=np.zeros(d), sigma=1.0)


class TestCriterion4:
    def test_synthetic_rates_and_ratio(self):
        """Benchmark spectrum (d=25, eigenvalues 1/i, unit noise): bias
        slope -2 +- 0.1, variance slope -1 +- 0.1 over n in [1e3, 1e5],
        and a 100 +- 10% bias ratio between step-sizes a factor 10 apart."""
        t0 = time.time()
        spec = synthetic_benchmark_spec()
        m = compute_moments(spec)
        g0 = 0.18 * gamma_max(m)
        model = CovarianceModel(m, g0)
        ns = np.unique(np.round(np.logspace(3, 5, 9)).astype(int))
        bias = [excess_risk(m, model.bias_exact(int(n))) for n in ns]
        var = [excess_risk(m, model.variance_exact(int(n))) for n in ns]
        bias_slope = np.polyfit(np.log(ns), np.log(bias), 1)[0]
        var_slope = np.polyfit(np.log(ns), np.log(var), 1)[0]
        assert abs(bias_slope + 2.0) <= 0.1
        assert abs(var_slope + 1.0) <= 0.1
        small_step = CovarianceModel(m, g0 / 10)
        ratio = excess_risk(m, small_step.bias_exact(100_000)) / excess_risk(
            m, model.bias_exact(100_000)
        )
        assert 90.0 <= ratio <= 110.0
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(
            4,
            f"slopes bias={bias_slope:.3f} var={var_slope:.3f}, step ratio {ratio:.1f}",
            t0,
        )

    def test_synthetic_monte_carlo_spot_check(self):
        """2000-replicate runs at n = 1e3 agree with the exact oracles
        within four standard errors, for both components."""
        t0 = time.time()
        spec = synthetic_benchmark_spec()
        m = compute_moments(spec)
        g0 = 0.18 * gamma_max(m)
        model = CovarianceModel(m, g0)
        for mode, oracle in (
            ("bias", model.bias_exact),
            ("variance", model.variance_exact),
        ):
            [traj] = run_cells(spec, [Cell(g0, mode)], 1000, replicates=2000, seed=404,
                               record_at=(1000,))
            want = excess_risk(m, oracle(1000))
            assert abs(traj.risk[-1] - want) <= 4.0 * traj.standard_error[-1], mode
        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(4, "Monte Carlo spot check at n=1e3 within 4 SE (bias and variance)", t0)


class TestCriterion5:
    def test_cramer_rao_limit(self):
        """Well-specified Gaussian, gamma = 1e-3 * gamma_max, n = 1e6: the
        scaled variance risk lands within 5% of d sigma^2."""
        t0 = time.time()
        d, sigma = 5, 1.0
        rg = np.random.default_rng(99)
        spec = ProblemSpec.gaussian(np.eye(d), w_star=rg.standard_normal(d), sigma=sigma)
        m = compute_moments(spec)
        g = 1e-3 * gamma_max(m)
        n = 10**6
        value = n * excess_risk(m, CovarianceModel(m, g).variance_exact(n))
        target = d * sigma**2
        assert abs(value - target) <= 0.05 * target
        elapsed = time.time() - t0
        assert elapsed < 30.0
        report(5, f"n*risk = {value:.4f} vs d*sigma^2 = {target} (within 5%)", t0)


class TestCriterion6:
    def test_bias_scheme_achieves_trace_bound(self):
        """Norm-proportional resampling reaches 2/E[X^T X] within 1e-6 on
        20 random discrete specs, via the generalized eigenproblem."""
        t0 = time.time()
        for i in range(20):
            rg = np.random.default_rng(5000 + i)
            d = int(rg.integers(1, 5))
            spec = make_discrete(d, d + int(rg.integers(3, 7)), 5000 + i, residual=False)
            scheme = optimal_bias_scheme(spec)
            got = gamma_max(moment_sets(spec, [scheme])[0])
            assert abs(got - 2.0 / np.trace(spec.hmat)) < 1e-6
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(6, "norm-proportional scheme attains 2/E[X^T X] on 20 specs", t0)

    def test_variance_scheme_beats_density_grid(self):
        """No density on a 1000-point two-atom grid improves the small-step
        variance constant by more than 1e-8 over the scheme's value."""
        t0 = time.time()
        tested = 0
        seed = 0
        while tested < 12:
            seed += 1
            rg = np.random.default_rng(6000 + seed)
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
            scheme = optimal_variance_scheme(spec)
            rw = moment_sets(spec, [scheme])[0]
            _, scheme_value = small_gamma_equivalents(rw, 1.0, 1)
            lev2 = np.einsum("ti,ij,tj->t", xs, np.linalg.inv(m.hmat), xs)
            q1 = np.linspace(1e-4, 1 - 1e-4, 1000)
            grid = (0.25 * eps[0] ** 2 * lev2[0] / q1
                    + 0.25 * eps[1] ** 2 * lev2[1] / (1.0 - q1))
            assert grid.min() >= scheme_value - 1e-8
            tested += 1
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(6, f"variance scheme optimal against 1000-point grids on {tested} specs", t0)


class TestCriterion7:
    def test_contraction_bound(self):
        """Measured contraction factor below the analytic bound on 50
        random specs x 20 step-sizes, zero violations (1e-10 cushion)."""
        t0 = time.time()
        for i in range(50):
            rg = np.random.default_rng(7000 + i)
            d = int(rg.integers(1, 6))
            spec = (make_gaussian(d, 0.5, 7000 + i) if i % 2 == 0
                    else make_discrete(d, d + 6, 7000 + i, residual=False))
            m = compute_moments(spec)
            g_top = gamma_max(m)
            for frac in np.linspace(0.02, 0.98, 20):
                g = frac * g_top
                rho = CovarianceModel(m, g).rho
                assert rho <= contraction_rate_bound(g, m.mu, g_top, d) + 1e-10
        elapsed = time.time() - t0
        assert elapsed < 30.0
        report(7, "contraction bound holds on 50 specs x 20 step-sizes", t0)


class TestCriterion8:
    def test_mode_additivity_well_specified(self):
        """Independent noise: Monte Carlo total risk equals bias plus
        variance within four combined standard errors at n in {1e2, 1e3}."""
        t0 = time.time()
        spec = make_discrete(3, 6, 808, residual=False)
        m = compute_moments(spec)
        g = 0.4 * gamma_max(m)
        for n in (100, 1000):
            parts = {}
            for mode in ("bias", "variance", "total"):
                [traj] = run_cells(spec, [Cell(g, mode)], n, replicates=4000, seed=99,
                                   record_at=(n,))
                parts[mode] = (traj.risk[-1], traj.standard_error[-1])
            gap = parts["total"][0] - parts["bias"][0] - parts["variance"][0]
            combined = np.sqrt(sum(se**2 for _, se in parts.values()))
            assert abs(gap) <= 4.0 * combined, n
        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(8, "well-specified total = bias + variance within 4 SE", t0)

    def test_envelope_on_misspecified_spec(self):
        """Dependent noise: twice the component sum still upper-bounds the
        measured total risk (up to Monte Carlo noise)."""
        t0 = time.time()
        spec = ProblemSpec.discrete(
            np.array([[1.0], [2.0]]), ys=np.array([1.0, 4.0]), w0=[3.0]
        )
        from avlms import check_cross_term_condition

        assert not check_cross_term_condition(spec).decomposable
        m = compute_moments(spec)
        g = 0.4 * gamma_max(m)
        for n in (100, 1000):
            parts = {}
            for mode in ("bias", "variance", "total"):
                [traj] = run_cells(spec, [Cell(g, mode)], n, replicates=4000, seed=77,
                                   record_at=(n,))
                parts[mode] = (traj.risk[-1], traj.standard_error[-1])
            envelope = 2.0 * (parts["bias"][0] + parts["variance"][0])
            slack = 4.0 * np.sqrt(sum(se**2 for _, se in parts.values()))
            assert parts["total"][0] <= envelope + slack, n
        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(8, "factor-of-two envelope bounds the misspecified total risk", t0)
