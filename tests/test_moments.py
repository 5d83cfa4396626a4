"""Moment computation across the three distribution backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avlms import (
    ProblemSpec,
    SchemeError,
    SpecError,
    atom_scheme,
    check_cross_term_condition,
    compute_moments,
    fourth_moment_operator_from_samples,
    leverage_resampled_moments,
    norm_resampled_moments,
    optimal_bias_scheme,
    moment_sets,
    optimal_variance_scheme,
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

    def test_zero_width_design_rejected(self):
        """A spec needs at least one feature: no width-0 design reaches H's
        eigensolve."""
        with pytest.raises(SpecError, match="at least one feature"):
            ProblemSpec.discrete(np.zeros((2, 0)), ys=np.ones(2))
        with pytest.raises(SpecError, match="at least one feature"):
            ProblemSpec.discrete(np.zeros((2, 0)), sigma=1.0)

    def test_zero_width_gaussian_rejected(self):
        with pytest.raises(SpecError, match="at least one feature"):
            ProblemSpec.gaussian(np.zeros((0, 0)))

    def test_squared_atom_norms_kept_read_only(self):
        spec = make_discrete(3, 12, 9, residual=True)
        xs = spec.design.xs
        sq = spec.design.sq_norms
        assert np.array_equal(sq, np.einsum("ti,ti->t", xs, xs))
        assert not sq.flags.writeable

    def test_probability_validation(self):
        with pytest.raises(SpecError):
            ProblemSpec.discrete(np.eye(2), probs=np.array([0.7, 0.2]))
        with pytest.raises(SpecError):
            ProblemSpec.discrete(np.eye(2), probs=np.array([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["cov", "w_star", "w0", "sigma"])
    def test_gaussian_non_finite_input_rejected(self, field, bad):
        args = {"cov": np.eye(3), "w_star": np.ones(3), "w0": np.zeros(3), "sigma": 1.0}
        if field == "cov":
            args["cov"][1, 1] = bad
        elif field == "sigma":
            args["sigma"] = bad
        else:
            args[field][2] = bad
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            ProblemSpec.gaussian(**args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["xs", "probs", "ys", "w_star", "w0", "sigma"])
    def test_discrete_non_finite_input_rejected(self, field, bad):
        rg = np.random.default_rng(5)
        args = {"xs": rg.standard_normal((6, 2)), "probs": np.full(6, 1.0 / 6),
                "w0": np.zeros(2)}
        args.update({"ys": rg.standard_normal(6)} if field == "ys"
                    else {"w_star": np.ones(2), "sigma": 0.5})
        if field == "sigma":
            args["sigma"] = bad
        else:
            args[field][1] = bad
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            ProblemSpec.discrete(**args)

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
        rw = _reweighted(spec, np.ones(5))
        np.testing.assert_allclose(rw.hmat, base.hmat, atol=1e-14)
        np.testing.assert_allclose(rw.frame.fourth_moment(), base.frame.fourth_moment(),
                                   atol=1e-14)
        np.testing.assert_allclose(rw.sigma0, base.sigma0, atol=1e-14)

    def test_two_atom_norm_proportional(self):
        """Atoms {1, 2} in d=1 with the norm-proportional ratio: the second
        moment stays 2.5 while the fourth moment becomes E[X^T X] * H = 6.25."""
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        mean_sq = 0.5 * (1.0 + 4.0)
        rw = _reweighted(spec, np.array([1.0, 4.0]) / mean_sq)
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
        rw = _reweighted(spec, raw)
        np.testing.assert_allclose(rw.hmat, compute_moments(spec).hmat, atol=1e-13)

    def test_noise_covariance_gains_a_factor(self):
        """Fourth-order noise matrix picks up c per atom under resampling."""
        xs = np.array([[1.0], [2.0]])
        ys = np.array([2.0, 1.0])
        spec = ProblemSpec.discrete(xs, ys=ys)
        eps = ys - xs @ spec.w_star
        cinv = np.array([0.5, 1.5])  # E_p[cinv] = 1 for equal weights
        rw = _reweighted(spec, cinv)
        want = 0.5 * (eps[0] ** 2 * 1.0 / 0.5 + eps[1] ** 2 * 4.0 / 1.5)
        np.testing.assert_allclose(rw.sigma0, [[want]], atol=1e-13)

    def test_absolute_continuity_required(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        with pytest.raises(SchemeError, match="^ratios .*absolutely continuous"):
            atom_scheme(spec, "test", [0.0, 2.0])

    def test_normalization_required(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        for ratios in ([0.7, 0.7], [np.nan, 1.0]):
            with pytest.raises(SchemeError, match="expectation"):
                atom_scheme(spec, "test", ratios)

    def test_one_nonnegative_ratio_per_atom_required(self):
        spec = ProblemSpec.discrete(np.array([[1.0], [2.0]]), w_star=[0.0], sigma=1.0)
        with pytest.raises(SchemeError, match="^ratios .*one value per atom"):
            atom_scheme(spec, "test", [1.0, 1.0, 1.0])
        with pytest.raises(SchemeError, match="nonnegative"):
            atom_scheme(spec, "test", [-0.5, 2.5])

    def test_gaussian_spec_is_refused(self):
        """Gaussian resampled moments are exact or refused: atom ratios on a
        Gaussian spec, or a scheme without a closed form passed one, raise and
        name the exact forms and the way out."""
        spec = make_gaussian(3, 0.6, 47)
        atoms = make_discrete(3, 5, 47, residual=False)
        calls = [lambda: atom_scheme(spec, "test", np.ones(5)),
                 lambda: moment_sets(spec, [atom_scheme(atoms, "unit", np.ones(5))])[0]]
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
        rw = _reweighted(spec, cinv)
        np.testing.assert_allclose(rw.hmat, base.hmat, atol=1e-14)
        assert np.isfinite(rw.frame.fourth_moment()).all()


class TestAtomMomentMemory:
    @staticmethod
    def _traced_peak(n_atoms, d):
        """tracemalloc peak of the uniform and a norm-resampled moment build
        on ``n_atoms`` heavy-tailed atoms, the spec built beforehand."""
        import tracemalloc

        rg = np.random.default_rng(31)
        xs = rg.standard_t(5, (n_atoms, d))
        spec = ProblemSpec.discrete(xs, w_star=np.ones(d), sigma=1.0)
        norms = np.einsum("ti,ti->t", xs, xs)
        cinv = norms / (spec.design.probs @ norms)
        tracemalloc.start()
        try:
            compute_moments(spec)
            _reweighted(spec, cinv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_with_the_inputs_not_with_n_times_d_squared(self):
        """From 10000 to 40000 atoms at d=30 (D=465) the peak may grow by a
        few (N, d) arrays, 7.2 MB each, never by one (N, D) array, which
        would add 112 MB."""
        d, small, large = 30, 10_000, 40_000
        growth = self._traced_peak(large, d) - self._traced_peak(small, d)
        assert growth <= 4 * (large - small) * d * 8


class TestAtomMomentMemo:
    """A discrete spec keeps its own MomentSet and those of its kept schemes,
    each built on its first request and never dropped."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The number of weight rows of each atom-Gram pass, in call order."""
        import avlms.moments

        counts = []
        original = avlms.moments.fourth_moment_operator_from_samples

        def counting(xs, basis=None, weights=None, **kwargs):
            counts.append(len(weights))
            return original(xs, basis, weights=weights, **kwargs)

        monkeypatch.setattr(avlms.moments, "fourth_moment_operator_from_samples", counting)
        return counts

    @staticmethod
    def _schemes(spec):
        return [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec)]

    @staticmethod
    def _own(spec):
        return moment_sets(spec, [None])[0]

    @staticmethod
    def _assert_same_bits(got, want):
        assert got._norm_resampled == want._norm_resampled
        np.testing.assert_array_equal(got.frame.fourth_moment(), want.frame.fourth_moment())
        for name in ("hmat", "sigma0", "e0"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_a_hit_is_the_kept_set_with_a_fresh_specs_bits(self, passes):
        spec = make_empirical(3, 50, 41)
        first = moment_sets(spec, self._schemes(spec))
        again = moment_sets(spec, self._schemes(spec))
        assert all(a is b for a, b in zip(again, first))
        assert self._own(spec) is first[0]
        assert passes == [3]
        fresh_spec = make_empirical(3, 50, 41)
        for got, want in zip(first, moment_sets(fresh_spec, self._schemes(fresh_spec))):
            self._assert_same_bits(got, want)

    def test_a_new_scheme_passes_only_its_missing_rows(self, passes):
        spec = make_discrete(3, 30, 42, residual=True)
        base = self._own(spec)
        sets = moment_sets(spec, self._schemes(spec))
        assert sets[0] is base
        assert passes == [1, 2]
        twice = moment_sets(spec, [None, None])
        assert twice[0] is twice[1] is base
        assert passes == [1, 2]

    def test_a_custom_scheme_is_built_on_each_call_and_never_kept(self, passes):
        """An atom_scheme gets a new set on every call, marked by its own
        closed form, even with the ratios of a kept scheme."""
        spec = make_discrete(3, 30, 43, residual=False)
        ratios = optimal_bias_scheme(spec).ratios
        flagged = atom_scheme(spec, "flagged", ratios, norm_resampled_moments)
        plain = atom_scheme(spec, "plain", ratios)
        sets = moment_sets(spec, [flagged, plain, flagged])
        assert passes == [2]
        assert sets[0] is sets[2]
        assert sets[0]._norm_resampled and not sets[1]._norm_resampled
        np.testing.assert_array_equal(sets[0].frame.fourth_moment(),
                                      sets[1].frame.fourth_moment())
        again = moment_sets(spec, [plain])[0]
        assert again is not sets[1]
        self._assert_same_bits(again, sets[1])
        assert passes == [2, 1]
        assert list(spec._kept) == ["bias-opt"]

    def test_compute_moments_builds_afresh(self, passes):
        spec = make_discrete(3, 30, 45, residual=True)
        base = compute_moments(spec)
        again = compute_moments(spec)
        assert again is not base
        self._assert_same_bits(again, base)
        assert spec._kept == {}
        assert passes == [1, 1]

    def test_a_spec_holds_at_most_three_sets(self, passes):
        """The moments that gamma-max, predict and sampling ask for, then five
        custom schemes: the spec keeps its own set and one per optimal
        scheme, and nothing else."""
        from avlms.moments import MomentSet

        spec = make_discrete(3, 30, 48, residual=True)
        bias, variance = optimal_bias_scheme(spec), optimal_variance_scheme(spec)
        for schemes in ([None, bias], [None], [None, None, bias, variance]):
            moment_sets(spec, schemes)
        for k in range(5):
            moment_sets(spec, [None, atom_scheme(spec, f"custom{k}", np.ones(30))])
        held = [value for value in spec._kept.values() if isinstance(value, MomentSet)]
        assert len(held) == 3
        assert passes == [2, 1, 1, 1, 1, 1, 1]

    def test_a_rewritten_file_misses(self, tmp_path, passes):
        from avlms.dataio import ingest

        rg = np.random.default_rng(44)
        xs = rg.standard_normal((30, 3))
        table = np.column_stack([xs, xs @ [1.0, -2.0, 0.5] + rg.standard_normal(30)])
        path = tmp_path / "rows.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",")
        spec = ingest(str(path))[0]
        base = self._own(spec)
        assert self._own(ingest(str(path))[0]) is base
        assert passes == [1]
        np.savetxt(path, table[::-1], fmt="%.17g", delimiter=",")
        rewritten = ingest(str(path))[0]
        assert rewritten is not spec
        assert self._own(rewritten) is not base
        assert passes == [1, 1]

    def test_a_call_that_builds_nothing_keeps_the_sets(self, passes):
        """Three schemes, then the spec's own moments, then the three again:
        one three-row pass, and the same objects each time."""
        spec = make_empirical(3, 50, 47)
        first = moment_sets(spec, self._schemes(spec))
        assert self._own(spec) is first[0]
        again = moment_sets(spec, self._schemes(spec))
        assert all(a is b for a, b in zip(again, first))
        assert passes == [3]

    @pytest.mark.parametrize("make", [
        lambda: make_discrete(3, 30, 46, residual=True), lambda: make_gaussian(4, 1.0, 46),
    ], ids=["kept atom set", "gaussian"])
    def test_a_frames_arrays_are_read_only(self, make):
        """A write into a set that later calls share raises, not corrupts them."""
        frame = moment_sets(make(), [None])[0].frame
        arrays = [frame.bdiag, frame._block, frame._scalars]
        assert all(arr.size for arr in arrays[:2])
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


def _resampled_operator_and_stderr(spec, c_inverse, n, seed):
    """Per-draw Monte Carlo of E[c u u^T] (u the rank-one coordinates in H's
    eigenbasis) and E[c X X^T], with entrywise standard errors, for the
    ratio ``c_inverse(xs)`` of the draws."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, spec.dim)) @ _sqrt_psd(*spec.h_eig).T
    c = 1.0 / c_inverse(xs)
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
            np.testing.assert_array_equal(m.hmat, base.hmat)
            np.testing.assert_array_equal(m.e0, base.e0)

    @pytest.mark.parametrize("make_scheme", [optimal_bias_scheme, optimal_variance_scheme])
    def test_agrees_with_monte_carlo(self, make_scheme):
        """At d=4 on a rotated H, the closed form lies within 5 standard errors
        of a seeded Monte Carlo estimate on every operator and noise entry."""
        from conftest import make_gaussian

        spec = make_gaussian(4, 0.9, 46)
        scheme = make_scheme(spec)
        exact = scheme.closed_form(spec)
        n = 200_000
        if make_scheme is optimal_bias_scheme:  # ||x||^2 / Tr(H)
            def ratio(xs):
                return np.einsum("ti,ti->t", xs, xs) / np.trace(spec.hmat)
        else:  # ||H^-1/2 x|| / E||Z||
            def ratio(xs):
                hinv = np.linalg.inv(spec.hmat)
                return np.sqrt(np.einsum("ti,ij,tj->t", xs, hinv, xs)) / _chi_mean(spec.dim)
        mean4, se4, mean2, se2 = _resampled_operator_and_stderr(spec, ratio, n, 5)
        assert np.all(np.abs(mean4 - exact.frame.fourth_moment()) <= 5.0 * se4)
        noise = spec.noise.sigma**2
        assert np.all(np.abs(noise * mean2 - exact.sigma0) <= 5.0 * noise * se2)

    @pytest.mark.parametrize("make_scheme, form", [
        (optimal_bias_scheme, norm_resampled_moments),
        (optimal_variance_scheme, leverage_resampled_moments),
    ])
    def test_closed_form_reads_the_spec_it_is_passed(self, make_scheme, form):
        """A scheme's closed form is evaluated on the spec it is passed, not
        captured from the one it was built for: built on one Gaussian spec
        and passed another, of another dimension, it gives the other spec's
        closed form, bit for bit."""
        built_on, other = make_gaussian(4, 0.9, 46), make_gaussian(3, 0.5, 48)
        scheme = make_scheme(built_on)
        assert scheme.closed_form is form
        for spec in (built_on, other):
            got, want = moment_sets(spec, [scheme])[0], form(spec)
            assert got.hmat is spec.hmat
            np.testing.assert_array_equal(got.frame.fourth_moment(), want.frame.fourth_moment())
            np.testing.assert_array_equal(got.sigma0, want.sigma0)
            assert got._norm_resampled == want._norm_resampled

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


def _reweighted(spec, ratios):
    """The moments of a discrete spec resampled by ``ratios`` on its atoms."""
    return moment_sets(spec, [atom_scheme(spec, "test", ratios)])[0]


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
    xs, probs = spec.design.xs, spec.design.probs
    # (1 + ||x||^2 / E||X||^2) / 2: a valid density ratio on any spec.
    ratio = 0.5 * (1.0 + np.einsum("ti,ti->t", xs, xs) / float(np.trace(spec.hmat)))
    return _reweighted(spec, ratio), samples_fourth_moment(xs, probs * (1.0 / ratio))


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

    def test_every_spec_array_is_read_only(self):
        """A spec may be shared (an ingested one is, by every hit), so no
        array reachable from its fields is writable: the design's, w*
        (solved from the labels on residual specs), w0 and h_eig's."""
        import dataclasses

        from conftest import make_discrete

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, tuple):
                for item in obj:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))

        for spec in [*self.specs(), make_discrete(3, 7, 65, residual=True)]:
            found = list(arrays(spec))
            # w*, w0, the two of h_eig, and cov or xs, probs (and ys), hmat
            assert len(found) >= 5 + (spec.kind != "gaussian") + (spec.kind == "empirical")
            assert not any(arr.flags.writeable for arr in found), spec.kind

    def test_every_moment_set_holds_the_spec_array(self):
        from conftest import make_gaussian

        for spec in self.specs():
            assert compute_moments(spec).hmat is spec.hmat
        atom_specs = [s for s in self.specs() if s.kind != "gaussian"]
        for spec in atom_specs:
            rw = _reweighted(spec, np.ones(spec.design.xs.shape[0]))
            assert rw.hmat is spec.hmat
        gauss = make_gaussian(3, 0.8, 63)
        for form in (norm_resampled_moments, leverage_resampled_moments):
            assert form(gauss).hmat is gauss.hmat
        for spec in self.specs():
            makes = [optimal_bias_scheme, optimal_variance_scheme]
            if spec.kind != "gaussian":
                makes.append(lambda s: atom_scheme(s, "uniform", np.ones(s.design.xs.shape[0])))
            for make in makes:
                assert moment_sets(spec, [make(spec)])[0].hmat is spec.hmat

    def test_rank_deficient_independent_noise_rejected_at_construction(self):
        xs = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
        with pytest.raises(SpecError, match="rank deficient"):
            ProblemSpec.discrete(xs, w_star=[1.0, 0.0], sigma=0.5)

    def test_unit_ratio_reweighting_is_compute_moments(self, monkeypatch):
        """c = 1 gives compute_moments' atom Gram bit for bit, and both go
        through the one weighted atom-Gram routine.  Each is built on a
        spec of its own, since one spec would keep the unit-ratio set of
        compute_moments and hand it back."""
        import avlms.moments

        calls = []
        original = avlms.moments.fourth_moment_operator_from_samples

        def counting(xs, basis=None, weights=None, **kwargs):
            calls.append(weights)
            return original(xs, basis, weights=weights, **kwargs)

        monkeypatch.setattr(avlms.moments, "fourth_moment_operator_from_samples", counting)
        from conftest import make_discrete

        for residual in (False, True):
            base = compute_moments(make_discrete(3, 8, 64, residual=residual))
            rw = _reweighted(make_discrete(3, 8, 64, residual=residual), np.ones(8))
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
