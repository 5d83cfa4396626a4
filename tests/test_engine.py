"""Simulation engine: averaged runs, resampled streams, baselines."""

import numpy as np
import pytest

from avlms import (
    CovarianceModel,
    ProblemSpec,
    RunConfig,
    SamplingScheme,
    SchemeError,
    SpecError,
    class_weighted_spec,
    compute_moments,
    excess_risk,
    gamma_max,
    isgd_run,
    nlms_run,
    optimal_bias_scheme,
    optimal_variance_scheme,
    run_averaged_lms,
    run_cells,
    uniform_scheme,
)
from avlms import engine
from conftest import make_discrete, make_gaussian


def scalar_unit_spec(w0=1.0, sigma=1.0):
    return ProblemSpec.discrete(np.array([[1.0]]), w_star=[0.0], w0=[w0], sigma=sigma)


def lms_step(w, x, y, gamma):
    """The engine's update on one replicate of one cell."""
    out = engine._lms_update(np.asarray(w, dtype=float)[None, None],
                             np.asarray(x, dtype=float)[None], np.array([[y]], dtype=float),
                             np.full((1, 1, 1), gamma), 2)
    return out[0, 0]


def resampled_draws(spec, scheme, seed, size):
    """``size`` sqrt(c)-scaled pairs (x, y) from the engine's sampler for a scheme."""
    x, _, y = engine._Sampler(spec, [scheme]).block(*engine._generators(seed), size, 1,
                                                    True, [0])
    return x[0, 0], y[0, 0]


class TestLmsStep:
    def test_zero_input_is_no_update(self):
        w = np.array([1.0, -2.0])
        np.testing.assert_array_equal(lms_step(w, np.zeros(2), 5.0, 0.3), w)

    def test_fixed_point(self):
        w = np.array([2.0, 1.0])
        x = np.array([0.5, -1.0])
        np.testing.assert_array_equal(lms_step(w, x, float(x @ w), 0.4), w)

    def test_scalar_arithmetic(self):
        np.testing.assert_allclose(lms_step([0.0], [1.0], 1.0, 0.5), [0.5])


class TestRunAveragedLms:
    def test_zero_bias_run_is_exactly_zero(self):
        spec = scalar_unit_spec(w0=0.0)
        traj = run_averaged_lms(spec, RunConfig(gamma=0.5, n=50, mode="bias", seed=0))
        np.testing.assert_array_equal(traj.risk, np.zeros(len(traj.risk)))

    def test_deterministic_path_matches_exact_oracle(self):
        """X = 1 a.s. makes the bias run deterministic; its risk equals the
        exact closed form at every recorded horizon."""
        spec = scalar_unit_spec()
        m = compute_moments(spec)
        model = CovarianceModel(m, 0.5)
        traj = run_averaged_lms(
            spec, RunConfig(gamma=0.5, n=60, replicates=4, mode="bias", seed=3)
        )
        for n, risk in zip(traj.iterations, traj.risk):
            want = excess_risk(m, model.bias_exact(int(n)))
            assert abs(risk - want) < 1e-12

    def test_bit_identical_for_equal_seeds(self):
        spec = make_discrete(3, 7, 55, residual=True)
        cfg = RunConfig(gamma=0.1, n=400, replicates=9, mode="total", seed=123, record_stride=40)
        a = run_averaged_lms(spec, cfg)
        b = run_averaged_lms(spec, cfg)
        assert np.array_equal(a.risk, b.risk)
        assert np.array_equal(a.standard_error, b.standard_error)

    def test_variance_mode_matches_exact_within_4se(self):
        spec = make_gaussian(4, 0.7, 3)
        m = compute_moments(spec)
        g = 0.4 * gamma_max(m)
        cfg = RunConfig(gamma=g, n=200, replicates=2000, mode="variance", seed=11, record_at=(200,))
        traj = run_averaged_lms(spec, cfg)
        want = excess_risk(m, CovarianceModel(m, g).variance_exact(200))
        assert abs(traj.risk[-1] - want) <= 4.0 * traj.standard_error[-1]

    def test_resampled_run_matches_reweighted_oracle(self):
        """End to end: a run under the norm-proportional scheme agrees with
        the exact closed forms evaluated on the reweighted moments, for
        both error components, within four standard errors."""
        from avlms import optimal_bias_scheme, reweighted_moments

        spec = make_discrete(3, 7, 2203, residual=True)
        scheme = optimal_bias_scheme(spec)
        rw = reweighted_moments(spec, scheme.c_inverse)
        g = 0.4 * gamma_max(rw)
        model = CovarianceModel(rw, g)
        n = 300
        for mode, oracle in (("variance", model.variance_exact), ("bias", model.bias_exact)):
            cfg = RunConfig(gamma=g, n=n, replicates=3000, mode=mode, seed=3, record_at=(n,))
            traj = run_averaged_lms(spec, cfg, scheme=scheme)
            want = excess_risk(rw, oracle(n))
            assert abs(traj.risk[-1] - want) <= 4.0 * traj.standard_error[-1], mode

    def test_mode_additivity_well_specified(self):
        """With noise independent of the inputs, total risk splits into
        bias plus variance within four combined standard errors (shared
        input draws across the three runs)."""
        spec = make_discrete(3, 6, 21, residual=False)
        m = compute_moments(spec)
        g = 0.4 * gamma_max(m)
        out = {}
        for mode in ("bias", "variance", "total"):
            cfg = RunConfig(gamma=g, n=300, replicates=3000, mode=mode, seed=42, record_at=(300,))
            t = run_averaged_lms(spec, cfg)
            out[mode] = (t.risk[-1], t.standard_error[-1])
        gap = out["total"][0] - out["bias"][0] - out["variance"][0]
        combined = np.sqrt(sum(se**2 for _, se in out.values()))
        assert abs(gap) <= 4.0 * combined

    def test_divergence_flagged_and_truncated(self):
        spec = scalar_unit_spec()
        traj = run_averaged_lms(spec, RunConfig(gamma=25.0, n=2000, mode="bias", seed=0))
        assert traj.diverged
        assert traj.diverged_at is not None
        assert traj.iterations[-1] <= traj.diverged_at if len(traj.iterations) else True

    def test_stability_below_threshold(self):
        """No divergence at 0.9 * gamma_max over 100 replicates of n = 1e4."""
        specs = [make_discrete(2 + s, 7, 1100 + s, residual=False) for s in (1, 2, 3)]
        specs += [make_gaussian(2 + s, 0.6, 1200 + s) for s in (1, 2, 3)]
        for seed, spec in enumerate(specs):
            m = compute_moments(spec)
            cfg = RunConfig(
                gamma=0.9 * gamma_max(m), n=10_000, replicates=100, mode="total",
                seed=seed, record_at=(10_000,),
            )
            traj = run_averaged_lms(spec, cfg)
            assert not traj.diverged

    def test_record_points_validation(self):
        with pytest.raises(ValueError):
            RunConfig(gamma=0.1, n=10, record_at=(0, 5)).record_points()
        with pytest.raises(ValueError):
            RunConfig(gamma=0.1, n=10, record_at=(5, 20)).record_points()
        assert RunConfig(gamma=0.1, n=10, record_stride=4).record_points() == [4, 8, 10]


class TestRunCells:
    @pytest.mark.parametrize("change", [
        {"n": 41}, {"replicates": 4}, {"seed": 2}, {"record_at": (5, 40)},
    ])
    def test_rejects_configs_that_disagree(self, change):
        spec = make_discrete(2, 5, 3, residual=True)
        base = dict(gamma=0.1, n=40, replicates=3, seed=1, record_at=(10, 40))
        other = {**base, "gamma": 0.2, "mode": "bias", **change}
        with pytest.raises(ValueError):
            run_cells(spec, [RunConfig(**base), RunConfig(**other)])

    def test_equal_record_points_from_different_fields_are_accepted(self):
        spec = make_discrete(2, 5, 3, residual=True)
        a = RunConfig(gamma=0.1, n=40, replicates=3, record_stride=20)
        b = RunConfig(gamma=0.2, n=40, replicates=3, record_at=(20, 40))
        assert len(run_cells(spec, [a, b])) == 2

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError):
            run_cells(make_discrete(2, 5, 3, residual=True), [])


class TestImportanceStream:
    def test_unit_ratio_reproduces_the_base_stream(self):
        spec = make_discrete(2, 5, 9, residual=True)
        x1, y1 = resampled_draws(spec, uniform_scheme(), 4, 50)
        x2, y2 = resampled_draws(spec, uniform_scheme(), 4, 50)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        # the unit ratio leaves the plain stream of the spec untouched
        x0, y0 = resampled_draws(spec, None, 4, 50)
        np.testing.assert_array_equal(x1, x0)
        np.testing.assert_array_equal(y1, y0)

    def test_norm_proportional_stream_has_constant_norm(self):
        """Scaling by sqrt(c*) equalizes every drawn norm at E[X^T X]."""
        spec = make_discrete(3, 6, 10, residual=True)
        scheme = optimal_bias_scheme(spec)
        xs, _ = resampled_draws(spec, scheme, 8, 200)
        norms = np.einsum("ti,ti->t", xs, xs)
        np.testing.assert_allclose(norms, scheme.normalization, rtol=1e-12)

    def test_second_moments_preserved(self):
        spec = make_discrete(2, 6, 12, residual=True)
        m = compute_moments(spec)
        scheme = optimal_bias_scheme(spec)
        n = 100_000
        xs, _ = resampled_draws(spec, scheme, 1, n)
        hhat = xs.T @ xs / n
        prods = xs[:, :, None] * xs[:, None, :]
        stderr = prods.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(hhat - m.hmat) <= 4.0 * stderr + 1e-12)

    def test_gaussian_resampling_unsupported(self):
        spec = make_gaussian(2, 0.5, 1)
        with pytest.raises(SchemeError):
            resampled_draws(spec, optimal_bias_scheme(spec), 0, 1)


class TestNlms:
    def test_equivalent_to_resampled_run_at_matched_step(self):
        """Same draws, gamma = 1/E[X^T X]: the normalized update coincides
        with plain averaged LMS on the scaled resampled stream."""
        spec = make_discrete(3, 6, 8, residual=True)
        scheme = optimal_bias_scheme(spec)
        cfg = RunConfig(
            gamma=1.0 / scheme.normalization, n=300, replicates=5, mode="total",
            seed=77, record_stride=10,
        )
        t_lms = run_averaged_lms(spec, cfg, scheme=scheme)
        t_nlms = nlms_run(spec, n=300, seed=77, replicates=5,
                          record_at=tuple(int(v) for v in t_lms.iterations))
        np.testing.assert_allclose(t_nlms.risk, t_lms.risk, rtol=1e-12, atol=1e-15)
        assert t_nlms.gamma == 1.0 / float(np.trace(spec.hmat))
        assert t_nlms.label == "nlms"

    def test_constant_norm_equals_plain_lms(self):
        """With constant input norms the proposal is uniform, so normalized
        LMS is plain averaged LMS at gamma = 1 / ||X||^2."""
        rg = np.random.default_rng(5)
        xs = rg.standard_normal((6, 2))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = xs @ [1.0, -1.0] + 0.1 * rg.standard_normal(6)
        spec = ProblemSpec.discrete(xs, ys=ys, w0=[2.0, 2.0])
        t_plain = run_averaged_lms(
            spec, RunConfig(gamma=1.0, n=100, replicates=3, seed=6, record_stride=25)
        )
        t_nlms = nlms_run(spec, n=100, seed=6, replicates=3,
                          record_at=tuple(int(v) for v in t_plain.iterations))
        np.testing.assert_allclose(t_nlms.risk, t_plain.risk, rtol=1e-12)

    def test_scalar_tracks_running_label_average(self):
        """d=1 with X = 1: each step lands on the drawn label, so the
        averaged iterate is the running mean of w0 and the labels."""
        xs = np.array([[1.0], [1.0]])
        ys = np.array([2.0, -1.0])
        spec = ProblemSpec.discrete(xs, ys=ys, w0=[0.0])
        n = 12
        traj = nlms_run(spec, n=n, seed=13, replicates=1, record_at=(n,))
        # replay the draw protocol: inputs come from the first spawned stream
        gen = np.random.default_rng(np.random.SeedSequence(13).spawn(2)[0])
        cum = np.cumsum(np.full(2, 0.5))
        cum[-1] = 1.0
        ws = [0.0]
        for _ in range(n - 1):
            idx = int(np.searchsorted(cum, gen.random(1), side="right")[0])
            ws.append(ys[idx])
        wbar = np.mean(ws)
        m = compute_moments(spec)
        want = (wbar - spec.w_star[0]) ** 2 * m.hmat[0, 0]
        np.testing.assert_allclose(traj.risk[-1], want, rtol=1e-12)

    def test_zero_norm_atom_rejected(self):
        spec = ProblemSpec.discrete(np.array([[0.0], [1.0]]), ys=np.array([0.0, 1.0]))
        with pytest.raises(SpecError):
            nlms_run(spec, n=10, seed=0)


class TestIsgd:
    def test_vanishing_steps_freeze(self):
        spec = scalar_unit_spec(w0=3.0, sigma=0.5)
        traj = isgd_run(spec, lambda i: 1e-12, n=50, seed=2, record_at=(50,))
        m = compute_moments(spec)
        np.testing.assert_allclose(traj.risk[-1], excess_risk(m, m.e0), rtol=1e-6)

    def test_large_steps_approach_normalized_update(self):
        """gamma_i -> inf turns the implicit coefficient into 1 / X^T X:
        replaying the same uniform draws through a manual normalized-step
        recursion reproduces the run to 1e-9."""
        spec = make_discrete(2, 5, 31, residual=True)
        n, seed = 120, 9
        big = isgd_run(spec, lambda i: 1e12, n=n, seed=seed, replicates=1, record_at=(n,))
        gen = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        cum = np.cumsum(spec.design.probs)
        cum[-1] = 1.0
        w = spec.w0.copy()
        ws = [w.copy()]
        for _ in range(n - 1):
            idx = int(np.searchsorted(cum, gen.random(1), side="right")[0])
            x, y = spec.design.xs[idx], spec.design.ys[idx]
            w = w - (x @ w - y) / (x @ x) * x
            ws.append(w.copy())
        wbar = np.mean(ws, axis=0)
        m = compute_moments(spec)
        want = float((wbar - spec.w_star) @ m.hmat @ (wbar - spec.w_star))
        np.testing.assert_allclose(big.risk[-1], want, rtol=1e-9)

    def test_scalar_geometric_trajectory(self):
        """d=1, X = 1, gamma_i = 1: coefficient 1/2 per step gives the
        closed-form averaged offset (4/n)(1 - 2^-n) around the optimum."""
        spec = ProblemSpec.discrete(np.array([[1.0]]), w_star=[2.0], w0=[0.0], sigma=0.0)
        n = 20
        traj = isgd_run(spec, lambda i: 1.0, n=n, seed=0, record_at=(n,))
        want = (4.0 / n * (1.0 - 0.5**n)) ** 2
        np.testing.assert_allclose(traj.risk[-1], want, rtol=1e-12)

    def test_nonpositive_schedule_rejected(self):
        spec = scalar_unit_spec()
        with pytest.raises(ValueError):
            isgd_run(spec, lambda i: 0.0, n=5, seed=0)


class TestClassWeighting:
    def binary_spec(self):
        xs = np.array([[1.0, 0.2], [0.4, 1.0], [0.9, -0.3], [-0.2, 0.8]])
        ys = np.array([1.0, -1.0, 1.0, -1.0])
        return ProblemSpec.discrete(xs, ys=ys)

    def test_unit_weights_change_nothing(self):
        spec = self.binary_spec()
        same = class_weighted_spec(spec, {1.0: 1.0, -1.0: 1.0})
        np.testing.assert_allclose(same.design.xs, spec.design.xs)
        np.testing.assert_allclose(same.design.ys, spec.design.ys)

    def test_balanced_default_halves_threshold(self):
        """Equal classes get c_y = 2, a uniform sqrt(2) rescale, so the
        stability threshold is exactly halved."""
        spec = self.binary_spec()
        weighted = class_weighted_spec(spec)
        g0 = gamma_max(compute_moments(spec))
        g1 = gamma_max(compute_moments(weighted))
        np.testing.assert_allclose(g1, g0 / 2.0, rtol=1e-12)

    def test_resampling_restores_gradients(self):
        """Weights c_y with mean one, undone by the ratio c = 1/c_y: the
        scaled resampled stream reproduces the original atoms exactly."""
        spec = self.binary_spec()
        # class masses are 1/2 each; c_y = 1/(2 P(y)) = 1 would be trivial,
        # so use asymmetric weights with E[c_y] = 1: 1.5 and 0.5.
        weights = {1.0: 1.5, -1.0: 0.5}
        weighted = class_weighted_spec(spec, weights)
        cy = np.array([weights[float(l)] for l in spec.design.ys])

        def c_inverse(xs, ys):
            # on the weighted spec, atoms with scaled label sign +/- carry c_y
            lab = np.sign(np.asarray(ys))
            vals = np.where(lab > 0, weights[1.0], weights[-1.0])
            return vals  # E_p[c_y] = 1 by construction

        scheme = SamplingScheme(name="class-restore", c_inverse=c_inverse, normalization=1.0)
        originals = {tuple(np.round(x, 12)) for x in spec.design.xs}
        for x in resampled_draws(weighted, scheme, 3, 64)[0]:
            assert tuple(np.round(x, 12)) in originals

    def test_default_weights_scale_gradients_uniformly(self):
        """Two atoms, default c_y = 1/P(y): weighting then resampling with
        the inverse ratio multiplies every atom's update by the constant
        E[c_y] (= 2 here), so relative per-class gradient scales are
        restored."""
        xs = np.array([[1.0, 0.5], [0.3, -1.0]])
        ys = np.array([1.0, -1.0])
        spec = ProblemSpec.discrete(xs, ys=ys)
        weighted = class_weighted_spec(spec)  # c_y = 2 for both classes
        mean_cy = 2.0  # sum_y P(y) * (1/P(y)) over two balanced classes

        def c_inverse(x, y):
            return np.full(np.atleast_2d(x).shape[0], 2.0) / mean_cy

        scheme = SamplingScheme(name="class-restore", c_inverse=c_inverse, normalization=mean_cy)
        w = np.array([0.4, -0.2])
        originals = {
            tuple(np.round(np.sqrt(mean_cy) * x, 12)): (x, y) for x, y in zip(xs, ys)
        }
        for xp, yp in zip(*resampled_draws(weighted, scheme, 11, 32)):
            x0, y0 = originals[tuple(np.round(xp, 12))]
            update_scaled = (xp @ w - yp) * xp
            update_plain = (x0 @ w - y0) * x0
            np.testing.assert_allclose(update_scaled, mean_cy * update_plain, rtol=1e-12)

    def test_missing_class_rejected(self):
        xs = np.array([[1.0], [2.0]])
        with pytest.raises(SpecError):
            class_weighted_spec(ProblemSpec.discrete(xs, ys=np.array([1.0, 1.0])))
        with pytest.raises(SpecError):
            class_weighted_spec(self.binary_spec(), {1.0: 2.0})


class TestDivergenceProbe:
    def test_beyond_threshold_probe_reports(self):
        """Beyond-threshold behavior is an empirical observation, not an
        assertion: run the probe and require only a sane report."""
        spec = ProblemSpec.gaussian(np.eye(3), w0=np.full(3, 5.0), sigma=0.0)
        m = compute_moments(spec)
        g = 2.0 * gamma_max(m)
        traj = run_averaged_lms(
            spec, RunConfig(gamma=g, n=5000, replicates=50, mode="bias", seed=7, record_stride=500)
        )
        assert isinstance(traj.diverged, bool)


def _searchsorted_agrees(cum, u):
    np.testing.assert_array_equal(engine._GuideTable(cum).lookup(u),
                                  np.searchsorted(cum, u, side="right"))


def _edges(cum):
    """Adversarial keys for a guide table over ``cum``: 0, the largest double
    below 1, every cum[i] < 1 with its neighbours, and every bucket edge j/N
    with its neighbours."""
    below_one = np.nextafter(1.0, 0.0)
    n = cum.size
    edges = np.arange(n) / n
    pts = np.concatenate([cum[cum < 1.0], edges])
    keys = np.concatenate([[0.0, below_one], pts, np.nextafter(pts, 0.0),
                           np.nextafter(pts, 1.0)])
    return keys[(keys >= 0.0) & (keys < 1.0)]


class TestGuideTable:
    """The guide-table lookup is ``searchsorted(side="right")`` exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 97, 1000, 4099])
    def test_equal_steps_at_every_edge(self, n):
        """cum holds the bucket edges j/N themselves, so a key one ulp under
        an edge whose u N rounds up to it must not start past that edge."""
        cum = np.arange(1, n + 1) / n
        cum[-1] = 1.0
        _searchsorted_agrees(cum, _edges(cum))

    @pytest.mark.parametrize("n", [5, 64, 1000])
    def test_random_weights(self, n):
        rg = np.random.default_rng(n)
        cum = np.cumsum(rg.dirichlet(np.full(n, 0.3)))
        cum[-1] = 1.0
        _searchsorted_agrees(cum, np.concatenate([_edges(cum), rg.random(20_000)]))

    def test_runs_of_zero_weight_atoms(self):
        """Leading, inner and trailing zero runs, one longer than the
        advance rounds (finished by the searchsorted fallback)."""
        weights = np.zeros(300)
        weights[[3, 4, 40, 41, 250]] = [0.1, 0.2, 0.3, 0.15, 0.25]
        assert 250 - 41 > engine.GUIDE_ROUNDS
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        rg = np.random.default_rng(1)
        _searchsorted_agrees(cum, np.concatenate([_edges(cum), rg.random(20_000)]))

    def test_single_atom(self):
        _searchsorted_agrees(np.array([1.0]), np.array([0.0, 0.5, np.nextafter(1.0, 0.0)]))

    @pytest.mark.parametrize("build", [optimal_bias_scheme, optimal_variance_scheme])
    def test_scheme_weights_on_heavy_tailed_data(self, build):
        """Student-t(5) features scaled by 1/sqrt(i) with heteroscedastic
        labels, the shape of the benchmark data, and the engine's own tables."""
        rg = np.random.default_rng(0)
        xs = rg.standard_t(5, size=(3000, 12)) / np.sqrt(np.arange(1, 13))
        ys = xs @ rg.standard_normal(12) + (0.5 + np.abs(xs[:, 0])) * rg.standard_normal(3000)
        spec = ProblemSpec.empirical(xs, ys)
        cum = engine._Sampler(spec, [build(spec)])._guides[0].cum
        gen_x, _ = engine._generators(3)
        _searchsorted_agrees(cum, np.concatenate([_edges(cum), gen_x.random(200_000)]))


class TestBlocks:
    @pytest.mark.parametrize("residual", [True, False])
    def test_block_of_k_steps_concatenates_single_steps(self, residual):
        """One block of k steps draws what k one-step blocks draw, for every
        scheme at once: the uniforms, the atoms and the noise."""
        spec = make_discrete(3, 9, 61, residual=residual)
        schemes = [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec)]
        sampler = engine._Sampler(spec, schemes)
        drawn = np.arange(3)
        whole = sampler.block(*engine._generators(4), 7, 5, True, drawn)
        gens = engine._generators(4)
        steps = [sampler.block(*gens, 7, 1, True, drawn) for _ in range(5)]
        for a, b in zip(whole, zip(*steps)):
            np.testing.assert_array_equal(a, np.concatenate(b))
        # each scheme's slice is the stream of that scheme drawn alone
        for k, scheme in enumerate(schemes):
            alone = engine._Sampler(spec, [scheme]).block(*engine._generators(4), 7, 5, True,
                                                          [0])
            for a, b in zip(whole, alone):
                np.testing.assert_array_equal(a[:, k], b[:, 0])


class TestDivergenceCheck:
    @pytest.mark.parametrize("scale", [0.5, 0.999, 1.0, 1.001, 2.0])
    @pytest.mark.parametrize("d", [1, 3, 30])
    def test_spread_norms_near_the_limit(self, scale, d):
        """Entries all at sqrt(scale * limit / d): no single entry is large,
        yet the squared norm crosses the limit exactly when the full check
        says so."""
        limit = engine.DIVERGENCE_NORM**2
        w = np.zeros((2, 4, d))
        w[1, 2] = np.sqrt(scale * limit / d)
        sq = engine._past_limit(w, limit)
        full = np.einsum("cri,cri->cr", w, w)
        assert (sq is not None) == (not full.max() <= limit)
        if sq is not None:
            np.testing.assert_array_equal(sq, full)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_caught(self, bad):
        w = np.ones((3, 2, 4))
        w[2, 1, 3] = bad
        sq = engine._past_limit(w, engine.DIVERGENCE_NORM**2)
        assert sq is not None and not sq[2, 1] <= engine.DIVERGENCE_NORM**2
