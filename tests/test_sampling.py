"""Optimal sampling densities and their gains."""

import dataclasses
import functools

import numpy as np
import pytest

from avlms import (
    ProblemSpec,
    SchemeError,
    bias_gain,
    compute_moments,
    gamma_max,
    optimal_bias_scheme,
    atom_scheme,
    optimal_variance_scheme,
    small_gamma_equivalents,
    variance_gain,
)
from avlms.moments import _chi_mean, _sqrt_psd, norm_resampled_moments
from avlms.sampling import moment_sets
from avlms.stepsize import trace_step_bound
from conftest import make_discrete
from oracles import dense_frame

EPS = np.finfo(float).eps


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
        np.testing.assert_allclose(scheme.ratios, np.ones(3), rtol=1e-12)

    def test_two_atom_values(self):
        """Norms 1 and 9 with equal mass: ratios 0.2 and 1.8."""
        xs = np.array([[1.0, 0.0], [0.0, 3.0]])
        spec = ProblemSpec.discrete(xs, w_star=[0.0, 1.0], sigma=0.5)
        scheme = optimal_bias_scheme(spec)
        np.testing.assert_allclose(scheme.ratios, [0.2, 1.8], rtol=1e-12)

    def test_achieves_trace_bound_on_gaussian_specs(self):
        """Norm-proportional resampling of a rotated, non-diagonal Gaussian
        design gives gamma_max = 2/Tr(H) to 1e-12, never above it by more."""
        for seed, d in enumerate((1, 2, 3, 6, 11, 25)):
            spec = _rotated_gaussian(d, 1800 + seed)
            cov = spec.design.cov
            assert d == 1 or np.abs(cov - np.diag(np.diag(cov))).max() > 1e-2 * np.abs(cov).max()
            bound = 2.0 / np.trace(cov)
            got = gamma_max(moment_sets(spec, [optimal_bias_scheme(spec)])[0])
            assert abs(got - bound) <= 1e-12 * bound

    def test_achieves_trace_bound_exactly(self):
        """Resampled threshold equals 2/E[X^T X] through the eigenproblem."""
        for seed in range(6):
            spec = make_discrete(1 + seed % 4, 7, 1300 + seed, residual=False)
            got = gamma_max(moment_sets(spec, [optimal_bias_scheme(spec)])[0])
            np.testing.assert_allclose(got, 2.0 / np.trace(spec.hmat), atol=1e-10)


class TestNormResampledThreshold:
    """Norm-resampled moments read gamma_max = 2/Tr(H) exactly, with no
    pencil solve; the solved pencil, on the moments' own frame and on the
    all-block frame, is the oracle within a few ulps."""

    ULPS = 16

    def _check(self, m, dense=True):
        bound = trace_step_bound(m)
        assert gamma_max(m) == bound
        for frame in (m.frame, dense_frame(m)) if dense else (m.frame,):
            assert abs(1.0 / frame.pencil_top() - bound) <= self.ULPS * EPS * bound

    def test_gaussian_diagonal_specs(self):
        """d = 1..64 with spectra 1/i, 1/i^2 and ones: 192 specs; the dense
        oracle up to d = 8."""
        for d in range(1, 65):
            i = np.arange(1.0, d + 1)
            for eig in (1.0 / i, 1.0 / i**2, np.ones(d)):
                spec = ProblemSpec.gaussian(np.diag(eig), sigma=1.0)
                self._check(moment_sets(spec, [optimal_bias_scheme(spec)])[0], dense=d <= 8)

    def test_rotated_gaussian_specs(self):
        for seed, d in enumerate((2, 3, 6)):
            self._check(norm_resampled_moments(_rotated_gaussian(d, 1850 + seed)))

    def test_atom_specs(self):
        """Both ways to the atom moments (one scheme, or a command's shared
        pass) carry the marker; other schemes do not."""
        for seed in range(8):
            spec = make_discrete(1 + seed % 4, 9, 1700 + seed, residual=seed % 2 == 0)
            scheme = optimal_bias_scheme(spec)
            self._check(moment_sets(spec, [scheme])[0])
            plain, shared, other = moment_sets(spec, [None, scheme,
                                                      optimal_variance_scheme(spec)])
            self._check(shared)
            assert not plain._norm_resampled and not other._norm_resampled


class TestChiMean:
    """K(d) = E||Z||, Z ~ N(0, I_d), against K(d+2) = K(d) (d+1)/d from
    K(1) = sqrt(2/pi) and K(2) = sqrt(pi/2), past the overflow of Gamma."""

    @staticmethod
    def _recurrence(d):
        k, m = (np.sqrt(2.0 / np.pi), 1) if d % 2 else (np.sqrt(np.pi / 2.0), 2)
        while m < d:
            k *= (m + 1) / m
            m += 2
        return k

    @pytest.mark.parametrize("d", [1, 2, 25, 342, 343, 400, 1000])
    def test_matches_recurrence(self, d):
        assert abs(_chi_mean(d) / self._recurrence(d) - 1.0) <= 1e-12


class TestVarianceScheme:
    def test_scalar_inputs_weight_by_residual_only(self):
        """d=1 with X = 1: the leverage factor is constant, so the ratio is
        proportional to |eps| alone."""
        xs = np.array([[1.0], [1.0]])
        ys = np.array([3.0, -1.0])
        spec = ProblemSpec.discrete(xs, ys=ys)
        scheme = optimal_variance_scheme(spec)
        eps = np.abs(ys - xs @ spec.w_star)
        vals = scheme.ratios
        np.testing.assert_allclose(vals / vals.sum(), eps / eps.sum(), rtol=1e-12)

    def test_constant_everything_is_uniform(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        spec = ProblemSpec.discrete(xs, w_star=[1.0, -1.0], sigma=0.8)
        scheme = optimal_variance_scheme(spec)
        np.testing.assert_allclose(scheme.ratios, np.ones(4), rtol=1e-12)

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
            rw = moment_sets(spec, [optimal_variance_scheme(spec)])[0]
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
            rw = moment_sets(spec, [scheme])[0]
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
            rw = moment_sets(spec, [scheme])[0]
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
        rw = moment_sets(spec, [scheme])[0]
        g1 = 0.1 * gamma_max(rw)
        predicted = bias_gain(g0, g1)
        n = 10_000
        r0 = excess_risk(m, CovarianceModel(m, g0).bias_exact(n))
        r1 = excess_risk(rw, CovarianceModel(rw, g1).bias_exact(n))
        assert abs(r1 / r0 - predicted) <= 0.15 * predicted

    def test_uniform_scheme_is_normalized(self):
        spec = make_discrete(2, 5, 1700, residual=False)
        rw = moment_sets(spec, [atom_scheme(spec, "uniform", np.ones(5))])[0]
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
        rw = moment_sets(spec, [scheme])[0]
        _, before = small_gamma_equivalents(m, 1.0, 1)
        _, after = small_gamma_equivalents(rw, 1.0, 1)
        np.testing.assert_allclose(after, before, rtol=1e-10)


class TestSchemeData:
    """A scheme is its validated ratios on the atoms it was built for, or its
    closed form; each reader refuses it on any other spec."""

    def test_ratios_are_read_only(self):
        spec = make_discrete(3, 8, 1960, residual=True)
        raw = np.ones(8)
        unit = atom_scheme(spec, "unit", raw)
        for scheme in (optimal_bias_scheme(spec), optimal_variance_scheme(spec), unit):
            assert not scheme.ratios.flags.writeable
            with pytest.raises(ValueError):
                scheme.ratios[0] = 2.0
        raw[0] = 5.0  # the scheme holds its own copy
        assert unit.ratios[0] == 1.0

    def test_gaussian_schemes_are_closed_forms_only(self):
        spec = _rotated_gaussian(3, 1961)
        for scheme in (optimal_bias_scheme(spec), optimal_variance_scheme(spec)):
            assert scheme.ratios is None and scheme.closed_form is not None
            with pytest.raises(SchemeError, match="not built for the atoms"):
                scheme.ratios_on(spec)

    def test_scheme_on_another_spec_is_refused(self):
        """Built on one discrete spec and passed another, even one of the same
        dimension and atom count, a scheme is refused by the moments and by
        the engine."""
        from avlms import Cell, run_cells

        built_on = make_discrete(2, 6, 1962, residual=False)
        other = make_discrete(2, 6, 1963, residual=False)
        for make in (optimal_bias_scheme, optimal_variance_scheme,
                     lambda s: atom_scheme(s, "unit", np.ones(6))):
            scheme = make(built_on)
            moment_sets(built_on, [scheme])[0]
            with pytest.raises(SchemeError, match="not built for the atoms"):
                moment_sets(other, [scheme])[0]
            with pytest.raises(SchemeError, match="not built for the atoms"):
                run_cells(other, [Cell(0.01, scheme=scheme)], 5, replicates=2)

    @pytest.fixture()
    def evaluated(self, monkeypatch):
        """The names of the schemes whose atom ratios are evaluated, in order."""
        from avlms import sampling

        names = []
        ratios = sampling._atom_ratios
        monkeypatch.setattr(sampling, "_atom_ratios",
                            lambda spec, name: names.append(name) or ratios(spec, name))
        return names

    def test_a_discrete_spec_keeps_its_schemes(self, evaluated):
        """Each optimal scheme's ratios are evaluated on the first request
        only; every later request returns the same scheme."""
        spec = make_discrete(3, 8, 1966, residual=True)
        for make in (optimal_bias_scheme, optimal_variance_scheme):
            assert make(spec) is make(spec)
        assert evaluated == ["bias-opt", "variance-opt"]

    def test_kept_ratios_keep_their_bits(self):
        """The kept ratios are those of the formulas, evaluated on the atoms."""
        spec = make_discrete(3, 8, 1967, residual=True)
        xs, probs = spec.design.xs, spec.design.probs
        sq = np.einsum("ti,ti->t", xs, xs)
        assert np.array_equal(optimal_bias_scheme(spec).ratios, sq / float(probs @ sq))
        leverage = np.sqrt(np.maximum(
            np.einsum("ti,ij,tj->t", xs, np.linalg.inv(spec.hmat), xs), 0.0))
        weights = np.abs(spec.design.ys - xs @ spec.w_star) * leverage
        assert np.array_equal(optimal_variance_scheme(spec).ratios,
                              weights / float(probs @ weights))

    def test_kept_scheme_is_refused_by_a_spec_of_the_same_rows(self):
        spec = make_discrete(3, 8, 1968, residual=True)
        twin = ProblemSpec.discrete(spec.design.xs, spec.design.probs, ys=spec.design.ys,
                                    w0=spec.w0)
        for make in (optimal_bias_scheme, optimal_variance_scheme):
            kept = make(spec)
            with pytest.raises(SchemeError, match="not built for the atoms"):
                kept.ratios_on(twin)
            own = make(twin)
            assert own is not kept
            assert np.array_equal(own.ratios, kept.ratios)

    @pytest.mark.parametrize("wrapped_first", [False, True])
    def test_a_kept_scheme_holds_its_mark_while_its_closed_form_is_rebound(
            self, wrapped_first, monkeypatch):
        """A tracer rebinds ``norm_resampled_moments`` to a wrapper for some
        calls: the kept bias-opt scheme, built inside or outside them, keeps
        its moment set and its 2/Tr(H) mark across them."""
        from avlms import sampling

        spec = make_discrete(3, 8, 1969, residual=True)
        original = sampling.norm_resampled_moments
        wrapper = functools.wraps(original)(lambda s: original(s))
        sets = []
        for wrapped in (wrapped_first, not wrapped_first):
            monkeypatch.setattr(sampling, "norm_resampled_moments",
                                wrapper if wrapped else original)
            sets += moment_sets(spec, [optimal_bias_scheme(spec)])
        assert sets[0] is sets[1] and sets[0]._norm_resampled

    def test_a_kept_scheme_on_a_replaced_spec_gets_that_specs_moments(self):
        """``dataclasses.replace`` shares the atoms but not what the spec keeps:
        the first spec's kept scheme gets, on the new spec, a new set built
        with the new start point on each call, and the new spec keeps none."""
        spec = make_discrete(3, 8, 1970, residual=True)
        kept = optimal_bias_scheme(spec)
        own = moment_sets(spec, [kept])[0]
        moved = dataclasses.replace(spec, w0=np.ones(3))
        got, again = moment_sets(moved, [kept]), moment_sets(moved, [kept])
        assert got[0] is not again[0] and got[0] is not own
        np.testing.assert_array_equal(got[0].e0, np.outer(moved.eta0, moved.eta0))
        assert not np.array_equal(got[0].e0, own.e0)
        np.testing.assert_array_equal(got[0].frame.fourth_moment(), own.frame.fourth_moment())
        assert moved._kept == {}

    def test_a_failed_build_is_not_kept(self, evaluated):
        """Noiseless rows: the variance scheme raises on every request."""
        xs = np.array([[1.0], [2.0]])
        exact = ProblemSpec.discrete(xs, ys=(xs @ np.array([1.5])))
        for _ in range(2):
            with pytest.raises(SchemeError, match="noiseless"):
                optimal_variance_scheme(exact)
        assert evaluated == ["variance-opt", "variance-opt"]
        assert exact._kept == {}

    def test_gaussian_spec_refuses_atom_schemes(self):
        gauss = _rotated_gaussian(2, 1964)
        with pytest.raises(SchemeError, match="ProblemSpec.discrete"):
            atom_scheme(gauss, "unit", np.ones(2))
        scheme = atom_scheme(make_discrete(2, 4, 1965, residual=False), "unit", np.ones(4))
        with pytest.raises(SchemeError, match="ProblemSpec.discrete"):
            moment_sets(gauss, [scheme])[0]
