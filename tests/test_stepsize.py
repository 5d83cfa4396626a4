"""Step-size thresholds and contraction factors."""

import math

import numpy as np
import pytest
import scipy.linalg

from avlms import (
    CovarianceModel,
    ProblemSpec,
    compute_moments,
    contraction_rate_bound,
    gamma_max,
    atom_scheme,
    gamma_max_det,
    smallest_t_eigenvalue,
    trace_step_bound,
)
from avlms.cli import main, parse_spec_descriptor
from avlms.engine import _Sampler
from avlms.moments import leverage_resampled_moments, norm_resampled_moments
from avlms.operators import SpectralFrame
from avlms.sampling import moment_sets, optimal_bias_scheme, variance_gain
from avlms.stepsize import t_positive
from conftest import make_discrete, make_empirical, make_gaussian
from oracles import dense_frame, left_right_operator, to_eigbasis


def scalar_unit_moments():
    return compute_moments(
        ProblemSpec.discrete(np.array([[1.0]]), w_star=[0.0], w0=[1.0], sigma=1.0)
    )


class TestGammaMax:
    def test_deterministic_scalar(self):
        """X = 1 a.s.: the fourth moment equals the squared second moment."""
        assert gamma_max(scalar_unit_moments()) == 2.0

    def test_scalar_gaussian(self):
        m = compute_moments(ProblemSpec.gaussian(np.eye(1), sigma=1.0))
        assert abs(gamma_max(m) - 2.0 / 3.0) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_isotropic_gaussian(self, d):
        m = compute_moments(ProblemSpec.gaussian(np.eye(d)))
        assert abs(gamma_max(m) - 2.0 / (d + 2)) < 1e-8

    def test_threshold_finite_for_valid_specs(self):
        # H > 0 puts the pencil's top at or above Tr(H)/2, so every valid
        # spec gets a finite threshold.
        m = compute_moments(ProblemSpec.discrete(np.array([[1.0]]), sigma=0.0))
        assert math.isfinite(gamma_max(m))

    def test_trace_ordering(self, battery):
        """gamma_max <= 2/Tr(H) <= gamma_max_det on every battery member, the
        first exactly, and on Gaussian members under all three exact forms;
        norm resampling (bias-opt) reaches 2/Tr(H) to 1e-14 relative."""
        gaussian_forms = (compute_moments, leverage_resampled_moments, norm_resampled_moments)
        for name, spec in battery:
            forms = gaussian_forms if spec.kind == "gaussian" else (compute_moments,)
            for form in forms:
                m = form(spec)
                assert gamma_max(m) <= trace_step_bound(m), (name, form.__name__)
                assert trace_step_bound(m) <= gamma_max_det(m) + 1e-15, name
            if spec.kind == "gaussian":
                bound = trace_step_bound(m)
                assert bound - gamma_max(m) <= 1e-14 * bound, name

    def test_improves_on_norm_weighted_criterion(self):
        """The threshold dominates the stricter criterion based on
        positivity of H - gamma E[(X^T X) X X^T], located by bisection."""
        for seed in range(8):
            spec = make_discrete(2 + seed % 3, 7, 600 + seed, residual=False)
            m = compute_moments(spec)
            xs, probs = spec.design.xs, spec.design.probs
            k = np.einsum("t,t,ti,tj->ij", probs, np.einsum("ti,ti->t", xs, xs), xs, xs)

            def old_ok(g):
                return np.linalg.eigvalsh(m.hmat - g * k)[0] > 0

            lo, hi = 0.0, 10.0 / max(np.trace(k), 1e-12) * np.trace(m.hmat)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if old_ok(mid) else (lo, mid)
            assert gamma_max(m) >= lo - 1e-9

    def test_resampled_threshold_never_beats_trace_bound(self):
        """Any reweighting keeps gamma_max at or below 2/E[X^T X]."""
        rg = np.random.default_rng(13)
        for seed in range(6):
            spec = make_discrete(2, 6, 700 + seed, residual=False)
            n = spec.design.xs.shape[0]
            raw = rg.uniform(0.2, 2.0, n)
            raw /= spec.design.probs @ raw
            rw = moment_sets(spec, [atom_scheme(spec, "test", raw)])[0]
            assert gamma_max(rw) <= 2.0 / compute_moments(spec).trace_h

    @pytest.mark.parametrize("spectrum", ["1/i", "1/i^2", "ones"])
    def test_norm_resampled_threshold_is_trace_bound(self, spectrum):
        """d = 1..64 on diagonal H: the pencil alone lands up to a few ulps
        above 2/Tr(H) on most of these specs; gamma_max never does."""
        for d in range(1, 65):
            i = np.arange(1.0, d + 1)
            lam = {"1/i": 1.0 / i, "1/i^2": 1.0 / i**2, "ones": np.ones(d)}[spectrum]
            m = norm_resampled_moments(ProblemSpec.gaussian(np.diag(lam), sigma=1.0))
            bound = trace_step_bound(m)
            assert gamma_max(m) <= bound, d
            assert bound - gamma_max(m) <= 1e-14 * bound, d

    def test_drawn_gaussian_rows_keep_the_bound(self):
        """The way out for a Gaussian design and an arbitrary ratio: draw rows
        and build a discrete spec.  H and M then come from the same atoms,
        so the pencil itself, before any clamp, stays below 2/Tr(H)."""
        for seed in range(20):
            rg = np.random.default_rng(900 + seed)
            d = 2 + seed % 4
            xs = rg.standard_normal((300, d)) / np.sqrt(np.arange(1.0, d + 1))
            spec = ProblemSpec.discrete(xs, w_star=rg.standard_normal(d), sigma=0.5)
            mean_sq = float(np.trace(spec.hmat))
            ratio = 0.5 * (1.0 + np.einsum("ti,ti->t", xs, xs) / mean_sq)
            rw = moment_sets(spec, [atom_scheme(spec, "test", ratio)])[0]
            bound = trace_step_bound(rw)
            assert rw.trace_h == compute_moments(spec).trace_h
            assert 1.0 / rw.frame.pencil_top() < bound, seed
            assert gamma_max(rw) <= bound, seed

    def test_pencil_top_of_large_blocks_matches_scipy(self):
        """Blocks of order above d (atom sets and data) are solved whole by
        numpy; scipy's top-only solve of the same scaled block, the oracle,
        agrees to 1e-14 relative."""
        specs = [make_discrete(d, 2 * d * d, 910 + d, residual=d % 2 == 0) for d in (2, 5, 9)]
        specs.append(make_empirical(14, 600, 913))
        for spec in specs:
            for m in (compute_moments(spec), moment_sets(spec, [optimal_bias_scheme(spec)])[0]):
                frame, k = m.frame, m.basis.size
                assert k > spec.dim
                s = 1.0 / np.sqrt(frame.bdiag)
                scaled = s[:, None] * frame.fourth_moment() * s[None, :]
                top = scipy.linalg.eigh(scaled, eigvals_only=True,
                                        subset_by_index=[k - 1, k - 1])[0]
                assert abs(frame.pencil_top() - top) <= 1e-14 * top, spec.dim


class TestGammaMaxDet:
    def test_identity(self):
        assert gamma_max_det(compute_moments(ProblemSpec.gaussian(np.eye(3)))) == 2.0

    def test_inverse_index_spectrum(self):
        cov = np.diag(1.0 / np.arange(1, 26))
        assert abs(gamma_max_det(compute_moments(ProblemSpec.gaussian(cov))) - 2.0) < 1e-12


class TestContractionFactors:
    def test_scalar_values(self):
        fac = CovarianceModel(scalar_unit_moments(), 0.5)
        assert abs(fac.rho_t - 0.25) < 1e-14
        assert abs(fac.rho_h - 0.5) < 1e-14
        assert abs(fac.rho - 0.5) < 1e-14

    def test_small_gamma_rate(self):
        """1 - rho behaves like gamma * mu as the step-size vanishes."""
        m = compute_moments(ProblemSpec.gaussian(np.diag([1.0, 0.4, 0.2])))
        g = 1e-7
        fac = CovarianceModel(m, g)
        assert abs((1.0 - fac.rho) / (g * m.mu) - 1.0) < 1e-4

    def test_beyond_threshold_exceeds_one(self):
        m = compute_moments(ProblemSpec.gaussian(np.eye(3)))
        fac = CovarianceModel(m, 1.01 * gamma_max(m))
        assert fac.rho_t > 1.0

    def test_exact_contraction_in_higher_dimension(self):
        """rho_H equals 1 - gamma*mu whenever gamma (L + mu) <= 2, d >= 2."""
        for seed in range(6):
            spec = make_gaussian(3, 0.5, 800 + seed)
            m = compute_moments(spec)
            g_max = gamma_max(m)
            for frac in (0.2, 0.6, 0.95):
                g = frac * g_max
                if g * (m.lmax + m.mu) <= 2.0:
                    fac = CovarianceModel(m, g)
                    assert abs(fac.rho_h - (1.0 - g * m.mu)) < 1e-12


class TestContractionRateBound:
    def test_branch_boundary_continuity(self):
        """At gamma = g_max/2 both branches coincide at 1 - gamma*mu."""
        mu, g_max = 0.7, 1.0
        g = 0.5 * g_max
        upper = 1.0 - 2.0 * g * (1.0 - g / g_max) * mu
        assert abs(upper - (1.0 - g * mu)) < 1e-15
        assert abs(contraction_rate_bound(g, mu, g_max, 3) - (1.0 - g * mu)) < 1e-15

    def test_lower_branch(self):
        assert contraction_rate_bound(0.25, 0.7, 1.0, 3) == 1.0 - 0.25 * 0.7

    def test_scalar_case(self):
        """d=1 with X = 1: bound max(0.5, 0.25) = 0.5, attained by rho."""
        m = scalar_unit_moments()
        bound = contraction_rate_bound(0.5, m.mu, 2.0, 1)
        assert bound == 0.5
        assert CovarianceModel(m, 0.5).rho <= bound + 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            contraction_rate_bound(1.5, 0.5, 1.0, 2)
        with pytest.raises(ValueError):
            contraction_rate_bound(0.0, 0.5, 1.0, 2)

    def test_bound_holds_on_random_specs(self):
        """Measured contraction never exceeds the analytic bound."""
        for seed in range(12):
            spec = (make_gaussian(2 + seed % 4, 0.5, 900 + seed)
                    if seed % 2 else make_discrete(1 + seed % 4, 8, 900 + seed, residual=False))
            m = compute_moments(spec)
            g_max = gamma_max(m)
            for frac in np.linspace(0.05, 0.95, 10):
                g = frac * g_max
                rho = CovarianceModel(m, g).rho
                assert rho <= contraction_rate_bound(g, m.mu, g_max, m.dim) + 1e-10


class TestPositivityBoundary:
    def test_t_positive_iff_below_threshold(self):
        for seed in range(8):
            spec = make_discrete(1 + seed % 4, 9, 1000 + seed, residual=False)
            m = compute_moments(spec)
            g_max = gamma_max(m)
            assert smallest_t_eigenvalue(m, 0.99 * g_max) > 0
            assert smallest_t_eigenvalue(m, 1.01 * g_max) < 0

    @pytest.mark.parametrize("spec", [
        lambda: parse_spec_descriptor("gaussian:d=3,spectrum=1/i,sigma=1"),
        lambda: parse_spec_descriptor("gaussian:d=12,spectrum=1/i,sigma=1"),
        lambda: make_gaussian(4, 0.5, 902),
        lambda: make_gaussian(4, 0.5, 904),
        lambda: make_discrete(3, 8, 904, residual=True),
    ], ids=["d3-1/i", "d12-1/i", "gauss-902", "gauss-904", "disc-904"])
    def test_report_and_model_agree_at_threshold(self, spec):
        """T(gamma_max) is singular: the eigvalsh spectrum and the model's
        eigh spectrum both say so.  The spectrum's order does not matter:
        sorted or shuffled, it gives the same answer on either side."""
        m = compute_moments(spec())
        g = gamma_max(m)
        assert not CovarianceModel(m, g).t_positive
        rg = np.random.default_rng(5)
        for frac, positive in ((0.5, True), (1.0, False)):
            tau = m.frame.t_eigenvalues(frac * g)
            for order in (slice(None), np.argsort(tau), rg.permutation(tau.size)):
                assert t_positive(tau[order]) == positive


class TestReport:
    def test_fields_and_diagnostics(self):
        m = scalar_unit_moments()
        assert gamma_max(m) == 2.0
        assert trace_step_bound(m) == 2.0
        assert gamma_max_det(m) == 2.0
        assert m.mu == 1.0
        assert t_positive(m.frame.t_eigenvalues(0.5))
        assert abs(CovarianceModel(m, 0.5).rho - 0.5) < 1e-14
        assert abs(contraction_rate_bound(0.5, m.mu, gamma_max(m), m.dim) - 0.5) < 1e-14
        assert not t_positive(m.frame.t_eigenvalues(3.0))
        with pytest.raises(ValueError):
            contraction_rate_bound(3.0, m.mu, gamma_max(m), m.dim)
        assert abs(smallest_t_eigenvalue(m, 0.5) - 1.5) < 1e-14


@pytest.fixture
def eigensolves(monkeypatch):
    """A copy of the matrix of every eigensolve made while the test runs."""
    solved = []
    for attr in ("eigh", "eigvalsh"):
        def counted(a, *args, _fn=getattr(np.linalg, attr), **kwargs):
            solved.append(np.array(a, dtype=float))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, attr, counted)
    return solved


class TestOneSpectralFrame:
    """H is eigensolved once per spec; the frame is built once per MomentSet."""

    @pytest.mark.parametrize("kind", ["gaussian", "discrete"])
    def test_one_h_solve_per_spec(self, kind, eigensolves):
        """Building the spec solves H; every moment, threshold, model, gain
        and sampler of it reads those eigenpairs and solves H no more.  (The
        Gaussian forms solve d x d blocks of T, which are not H.)"""
        d = 3
        if kind == "gaussian":
            spec = make_gaussian(d, 0.5, 907)
        else:
            spec = make_discrete(d, 9, 908, residual=True)

        def h_solves():
            return sum(np.array_equal(a, spec.hmat) for a in eigensolves)

        assert h_solves() == 1
        if kind == "gaussian":
            extra = [norm_resampled_moments(spec)]
            variance_gain(spec)
            _Sampler(spec)
        else:
            scheme = optimal_bias_scheme(spec)
            extra = [moment_sets(spec, [scheme])[0]]
            _Sampler(spec, (None, scheme))
        for m in [compute_moments(spec)] + extra:
            g = gamma_max(m)
            CovarianceModel(m, 0.5 * g)
        assert h_solves() == 1

    def test_two_models_share_the_frame_built_with_the_moments(self, monkeypatch):
        builds = []
        init = SpectralFrame.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(SpectralFrame, "__init__", counted)
        m = compute_moments(make_gaussian(5, 0.5, 903))
        g = gamma_max(m)
        CovarianceModel(m, 0.5 * g)
        CovarianceModel(m, 0.05 * g)
        assert len(builds) == 1

    @pytest.mark.parametrize("make", [
        lambda: make_gaussian(4, 0.5, 909), lambda: make_discrete(3, 9, 910, residual=True),
    ], ids=["gaussian", "discrete"])
    def test_gamma_max_twice_solves_the_pencil_once(self, make, eigensolves):
        m = compute_moments(make())
        before = len(eigensolves)
        assert gamma_max(m) == gamma_max(m)
        assert len(eigensolves) == before + 1

    def test_contract_inverts_coords(self):
        m = compute_moments(make_discrete(4, 9, 905, residual=True))
        t_eig = m.frame.t_eigenpairs(0.3 * gamma_max(m))
        a = np.random.default_rng(0).standard_normal((4, 4))
        a = a + a.T
        np.testing.assert_allclose(t_eig.contract(t_eig.coords(a)), a, rtol=0, atol=1e-13)

    def test_side_sum_matches_its_defining_sum(self):
        """On the d x d block and scalars of a Gaussian MomentSet and on the
        all-block frame of its fourth moment, with the weights evaluated on
        each read-out's index grid (`side_grid`)."""
        m = compute_moments(make_gaussian(3, 0.5, 906))
        size = m.basis.size
        rg = np.random.default_rng(1)
        coeffs, weights = rg.standard_normal(size), rg.standard_normal((size, 3))
        assert m.frame.t_eigenpairs(1.0).k == 3
        for frame in (m.frame, dense_frame(m)):
            t_eig = frame.t_eigenpairs(0.4 * gamma_max(m))
            expected = np.zeros((3, 3))
            for q in range(size):
                e_q = t_eig.contract(np.eye(size)[q])
                for a in range(3):
                    for b in range(3):
                        expected[a, b] += coeffs[q] * e_q[a, b] * (weights[q, a] + weights[q, b])
            got = t_eig.side_sum(coeffs, weights[t_eig.side_grid(False)])
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
            diag = t_eig.side_sum_diag(coeffs[:t_eig.k], weights[t_eig.side_grid(True)])
            np.testing.assert_allclose(diag, np.diag(expected), rtol=0, atol=1e-13)

    def test_gaussian_commands_solve_nothing_above_order_d(self, eigensolves, capsys):
        """On a Gaussian spec, gamma-max with every scheme and predict read T
        through d x d blocks: no eigensolve of order D."""
        d = 6
        spec = f"gaussian:d={d},spectrum=1/i,sigma=1"
        schemes = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]
        assert main(["gamma-max", "--spec", spec, *schemes]) == 0
        assert main(["predict", "--spec", spec, "--gamma", "0.05", "--n-max", "200",
                     "--points", "5"]) == 0
        assert eigensolves and max(a.shape[0] for a in eigensolves) == d

    def test_frame_diagonalizes_left_right_operator(self):
        m = compute_moments(make_gaussian(4, 0.5, 904))
        f = m.frame
        b_rot = to_eigbasis(left_right_operator(m.hmat, m.basis), f.u)
        np.testing.assert_allclose(b_rot, np.diag(f.bdiag), atol=1e-13 * f.bdiag.max())
