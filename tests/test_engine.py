"""Simulation engine: averaged runs, resampled streams, normalized LMS."""

import dataclasses
import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avlms import (
    Cell,
    CovarianceModel,
    ProblemSpec,
    SchemeError,
    atom_scheme,
    compute_moments,
    excess_risk,
    gamma_max,
    optimal_bias_scheme,
    optimal_variance_scheme,
    run_cells,
)
from avlms import cli, engine
from avlms.moments import DiscreteDesign
from conftest import make_discrete, make_empirical, make_gaussian
from oracles import reference_run


def scalar_unit_spec(w0=1.0, sigma=1.0):
    return ProblemSpec.discrete(np.array([[1.0]]), w_star=[0.0], w0=[w0], sigma=sigma)


def one_step_risks(xs, ys, w0, gamma, probs=None, replicates=1):
    """The risks at m = 1 and 2 of one engine cell on a labelled scalar spec:
    those of w_0 and of the average of w_0 and the first step w_1."""
    spec = ProblemSpec.discrete(np.array(xs, dtype=float), probs, ys=np.array(ys, dtype=float),
                                w0=[w0])
    return run_cells(spec, [Cell(gamma)], 2, replicates)[0].risk.tolist()


def resampled_draws(spec, scheme, seed, size):
    """``size`` sqrt(c)-scaled pairs (x, y) from the engine's sampler for a scheme."""
    x, _, y, _ = engine._Sampler(spec, [scheme]).block(*engine._generators(seed), size, 1,
                                                       True, [0])
    return x[0, 0], y[0, 0]


class TestLmsStep:
    def test_zero_input_is_no_update(self):
        """w0 = w* = 2: the zero atom, drawn by most replicates, leaves w in
        place whatever its label; the other atom's residual is zero."""
        risks = one_step_risks([[0.0], [1.0]], [5.0, 2.0], 2.0, 0.3, probs=[0.9, 0.1],
                               replicates=8)
        assert risks == [0.0, 0.0]

    def test_fixed_point(self):
        """x w0 = y on the one atom: a zero residual is no step."""
        assert one_step_risks([[0.5]], [1.0], 2.0, 0.4) == [0.0, 0.0]

    def test_scalar_arithmetic(self):
        """x = y = 1, w0 = 0, gamma = 1/2: w_1 = 1/2, so the average 1/4 sits
        3/4 below w* = 1."""
        assert one_step_risks([[1.0]], [1.0], 0.0, 0.5) == [1.0, 0.5625]


class TestRunAveragedLms:
    def test_zero_bias_run_is_exactly_zero(self):
        spec = scalar_unit_spec(w0=0.0)
        [traj] = run_cells(spec, [Cell(0.5, "bias")], 50)
        np.testing.assert_array_equal(traj.risk, np.zeros(len(traj.risk)))

    def test_deterministic_path_matches_exact_oracle(self):
        """X = 1 a.s. makes the bias run deterministic; its risk equals the
        exact closed form at every recorded horizon."""
        spec = scalar_unit_spec()
        m = compute_moments(spec)
        model = CovarianceModel(m, 0.5)
        [traj] = run_cells(spec, [Cell(0.5, "bias")], 60, replicates=4, seed=3)
        for n, risk in zip(traj.iterations, traj.risk):
            want = excess_risk(m, model.bias_exact(int(n)))
            assert abs(risk - want) < 1e-12

    def test_bit_identical_for_equal_seeds(self):
        spec = make_discrete(3, 7, 55, residual=True)
        run = dict(n=400, replicates=9, seed=123, record_at=tuple(range(40, 401, 40)))
        [a] = run_cells(spec, [Cell(0.1, "total")], **run)
        [b] = run_cells(spec, [Cell(0.1, "total")], **run)
        assert np.array_equal(a.risk, b.risk)
        assert np.array_equal(a.standard_error, b.standard_error)

    def test_variance_mode_matches_exact_within_4se(self):
        spec = make_gaussian(4, 0.7, 3)
        m = compute_moments(spec)
        g = 0.4 * gamma_max(m)
        [traj] = run_cells(spec, [Cell(g, "variance")], 200, replicates=2000, seed=11,
                           record_at=(200,))
        want = excess_risk(m, CovarianceModel(m, g).variance_exact(200))
        assert abs(traj.risk[-1] - want) <= 4.0 * traj.standard_error[-1]

    def test_resampled_run_matches_reweighted_oracle(self):
        """End to end: a run under the norm-proportional scheme agrees with
        the exact closed forms evaluated on the reweighted moments, for
        both error components, within four standard errors."""
        from avlms import moment_sets, optimal_bias_scheme

        spec = make_discrete(3, 7, 2203, residual=True)
        scheme = optimal_bias_scheme(spec)
        rw = moment_sets(spec, [scheme])[0]
        g = 0.4 * gamma_max(rw)
        model = CovarianceModel(rw, g)
        n = 300
        for mode, oracle in (("variance", model.variance_exact), ("bias", model.bias_exact)):
            [traj] = run_cells(spec, [Cell(g, mode, scheme)], n, replicates=3000, seed=3,
                               record_at=(n,))
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
            [t] = run_cells(spec, [Cell(g, mode)], 300, replicates=3000, seed=42,
                            record_at=(300,))
            out[mode] = (t.risk[-1], t.standard_error[-1])
        gap = out["total"][0] - out["bias"][0] - out["variance"][0]
        combined = np.sqrt(sum(se**2 for _, se in out.values()))
        assert abs(gap) <= 4.0 * combined

    def test_divergence_flagged_and_truncated(self):
        spec = scalar_unit_spec()
        [traj] = run_cells(spec, [Cell(25.0, "bias")], 2000)
        assert traj.diverged
        assert traj.diverged_at is not None
        assert traj.iterations[-1] <= traj.diverged_at if len(traj.iterations) else True

    def test_stability_below_threshold(self):
        """No divergence at 0.9 * gamma_max over 100 replicates of n = 1e4."""
        specs = [make_discrete(2 + s, 7, 1100 + s, residual=False) for s in (1, 2, 3)]
        specs += [make_gaussian(2 + s, 0.6, 1200 + s) for s in (1, 2, 3)]
        for seed, spec in enumerate(specs):
            m = compute_moments(spec)
            [traj] = run_cells(spec, [Cell(0.9 * gamma_max(m), "total")], 10_000,
                               replicates=100, seed=seed, record_at=(10_000,))
            assert not traj.diverged

    def test_record_points_validation(self):
        spec = make_discrete(2, 5, 3, residual=True)
        for record_at in [(0, 5), (5, 20), ()]:
            with pytest.raises(ValueError, match="record_at entries must lie in"):
                run_cells(spec, [Cell(0.1)], 10, record_at=record_at)
        [every] = run_cells(spec, [Cell(0.1)], 10)
        assert every.iterations.tolist() == list(range(1, 11))
        # Unsorted and repeated points are logged once each, in order.
        [some] = run_cells(spec, [Cell(0.1)], 10, record_at=[7, 3, 7, 10])
        assert some.iterations.tolist() == [3, 7, 10]

    @pytest.mark.parametrize("gamma", [0.0, -0.5, np.nan, np.inf])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            Cell(gamma)


class TestRunCells:
    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="at least one cell"):
            run_cells(make_discrete(2, 5, 3, residual=True), [], 10)


class TestImportanceStream:
    def test_unit_ratio_reproduces_the_base_stream(self):
        spec = make_discrete(2, 5, 9, residual=True)
        unit = atom_scheme(spec, "uniform", np.ones(5))
        x1, y1 = resampled_draws(spec, unit, 4, 50)
        x2, y2 = resampled_draws(spec, unit, 4, 50)
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
        np.testing.assert_allclose(norms, np.trace(spec.hmat), rtol=1e-12)

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

    def test_label_scales_with_the_input(self):
        """A resampled draw (x', y') = sqrt(c) (x, y) scales the label by the
        input's factor, so its update (x'^T w - y') x' is c (x^T w - y) x."""
        spec = make_discrete(3, 7, 14, residual=True)
        xs, ys = spec.design.xs, spec.design.ys
        ratios = np.linspace(0.4, 1.6, 7)
        ratios /= spec.design.probs @ ratios
        scheme = atom_scheme(spec, "graded", ratios)
        c = 1.0 / ratios
        w = np.array([0.7, -0.4, 1.1])
        for xp, yp in zip(*resampled_draws(spec, scheme, 5, 64)):
            t = int(np.argmin(np.abs(xs * np.sqrt(c)[:, None] - xp).sum(axis=1)))
            np.testing.assert_allclose(xp, np.sqrt(c[t]) * xs[t], rtol=1e-14)
            np.testing.assert_allclose((xp @ w - yp) * xp, c[t] * (xs[t] @ w - ys[t]) * xs[t],
                                       rtol=1e-12)

    def test_gaussian_resampling_unsupported(self):
        spec = make_gaussian(2, 0.5, 1)
        with pytest.raises(SchemeError):
            resampled_draws(spec, optimal_bias_scheme(spec), 0, 1)


class TestNlms:
    """Normalized LMS is the bias-opt cell at gamma = 1/Tr(H); the golden
    tests check it against a normalized-update recursion."""

    def test_constant_norm_equals_plain_lms(self):
        """With constant input norms the proposal is uniform, so normalized
        LMS is plain averaged LMS at gamma = 1 / ||X||^2."""
        rg = np.random.default_rng(5)
        xs = rg.standard_normal((6, 2))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = xs @ [1.0, -1.0] + 0.1 * rg.standard_normal(6)
        spec = ProblemSpec.discrete(xs, ys=ys, w0=[2.0, 2.0])
        run = dict(n=100, replicates=3, seed=6, record_at=(25, 50, 75, 100))
        nlms = Cell(1.0 / float(np.trace(spec.hmat)), scheme=optimal_bias_scheme(spec))
        t_plain, t_nlms = run_cells(spec, [Cell(1.0), nlms], **run)
        np.testing.assert_allclose(t_nlms.risk, t_plain.risk, rtol=1e-12)

    def test_scalar_tracks_running_label_average(self):
        """d=1 with X = 1: each step lands on the drawn label, so the
        averaged iterate is the running mean of w0 and the labels."""
        xs = np.array([[1.0], [1.0]])
        ys = np.array([2.0, -1.0])
        spec = ProblemSpec.discrete(xs, ys=ys, w0=[0.0])
        n = 12
        cell = Cell(1.0 / float(np.trace(spec.hmat)), scheme=optimal_bias_scheme(spec))
        [traj] = run_cells(spec, [cell], n, seed=13, record_at=(n,))
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


class TestDivergenceProbe:
    def test_beyond_threshold_probe_reports(self):
        """Beyond-threshold behavior is an empirical observation, not an
        assertion: run the probe and require only a sane report."""
        spec = ProblemSpec.gaussian(np.eye(3), w0=np.full(3, 5.0), sigma=0.0)
        m = compute_moments(spec)
        g = 2.0 * gamma_max(m)
        [traj] = run_cells(spec, [Cell(g, "bias")], 5000, replicates=50, seed=7,
                           record_at=tuple(range(500, 5001, 500)))
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
        for a, b in zip(whole[:3], zip(*steps)):
            np.testing.assert_array_equal(a, np.concatenate(b))
        # x_max bounds the block's inputs: the largest entry of the tables drawn from
        assert np.abs(whole[0]).max() <= whole[3] == max(s[3] for s in steps)
        # each scheme's slice is the stream of that scheme drawn alone
        for k, scheme in enumerate(schemes):
            alone = engine._Sampler(spec, [scheme]).block(*engine._generators(4), 7, 5, True,
                                                          [0])
            for a, b in zip(whole[:3], alone[:3]):
                np.testing.assert_array_equal(a[:, k], b[:, 0])


class TestSamplerTables:
    """Resampled draws gather from the spec's own atoms: beyond the spec a
    sampler holds O(atoms) floats per scheme, never a scaled atom table."""

    def test_more_schemes_add_no_atom_table(self):
        rows, d = 4000, 20
        spec = make_empirical(d, rows, 5)
        schemes = [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec)]
        engine._Sampler(spec, schemes)  # the schemes evaluate their ratios once

        def footprint(count):
            tracemalloc.start()
            try:
                kept = engine._Sampler(spec, schemes[:count])  # alive while measured
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        (held_one, peak_one), (held_three, peak_three) = footprint(1), footprint(3)
        assert held_three - held_one < rows * d * 8
        assert peak_three - peak_one < rows * d * 8

    def test_input_bound_is_the_largest_scaled_entry(self):
        """Each scheme's x_max is max |x sqrt(c_s)| over the atoms bit for bit,
        with an atom the scheme never draws (scale 0) holding the largest |x|."""
        rg = np.random.default_rng(8)
        xs = rg.standard_t(3, (40, 4))
        xs[0] = [1e3, -2e3, 5.0, 0.0]
        probs = np.r_[0.0, np.full(39, 1 / 39)]
        spec = ProblemSpec.discrete(xs, probs, ys=xs @ rg.standard_normal(4) + 1.0)
        sq = np.einsum("ti,ti->t", xs, xs)
        ratio = np.where(probs > 0, sq, 0.0) / (probs @ sq)
        skip_first = atom_scheme(spec, "skip-first", ratio)
        schemes = [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec), skip_first]
        sampler = engine._Sampler(spec, schemes)
        for k, scheme in enumerate(schemes):
            scale = np.ones(len(xs))
            if scheme is not None:
                cinv = scheme.ratios
                scale = np.divide(1.0, np.sqrt(cinv), out=np.zeros_like(cinv), where=cinv > 0)
            assert sampler._xmax[k] == np.abs(xs * scale[:, None]).max()
        assert sampler._xmax[3] < 2e3 == sampler._xmax[0]


class TestDrawThread:
    """A background thread draws the next block; no thread outlives the
    engine call, however it ends."""

    @pytest.fixture(autouse=True)
    def short_blocks(self, monkeypatch):
        monkeypatch.setattr(engine._Sampler, "block_steps", lambda self, reps, schemes, cells: 7)

    def test_an_update_that_raises_stops_the_thread(self, monkeypatch):
        """The exact divergence check raises on the stepping thread, in the
        second block of fourteen."""
        seen = []

        def raising(w, limit):
            seen.append(threading.active_count())
            raise FloatingPointError("stepping failed")

        monkeypatch.setattr(engine, "_past_limit", raising)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="stepping failed"):
            run_cells(scalar_unit_spec(), [Cell(25.0)], 100, replicates=3)
        assert seen == [before + 1]
        assert threading.active_count() == before

    def test_a_grid_that_diverges_mid_block_stops_the_thread(self):
        spec = scalar_unit_spec()
        cells = [Cell(g, mode) for g in (25.0, 40.0) for mode in ("bias", "total")]
        before = threading.active_count()
        grid = run_cells(spec, cells, 2000, replicates=2)
        assert threading.active_count() == before
        assert all(t.diverged for t in grid)
        # The last cell leaves inside a block, not at its end.
        assert (max(t.diverged_at for t in grid) - 2) % 7 != 6

    @pytest.mark.parametrize("n", [1, 2])
    def test_the_shortest_runs(self, n):
        spec = make_discrete(2, 5, 3, residual=True)
        before = threading.active_count()
        [traj] = run_cells(spec, [Cell(0.1)], n, replicates=3, seed=1)
        assert threading.active_count() == before
        assert traj.iterations.tolist() == list(range(1, n + 1))

    def test_the_producer_calls_no_einsum_and_no_public_function(self, monkeypatch):
        """Tracers wrap np.einsum and the public avlms functions with a span
        stack that is not thread-safe, so only the calling thread may reach
        them; the blocks themselves are drawn on the other thread."""
        callers, drawers = set(), set()

        def spy(fn):
            def wrapped(*args, **kwargs):
                callers.add(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np, "einsum", spy(np.einsum))
        for name, mod in list(sys.modules.items()):
            if name.startswith("avlms."):
                for attr, fn in list(vars(mod).items()):
                    if (not attr.startswith("_") and inspect.isfunction(fn)
                            and fn.__module__ == name):
                        monkeypatch.setattr(mod, attr, spy(fn))
        block = engine._Sampler.block

        def drawing(self, *args, **kwargs):
            drawers.add(threading.current_thread())
            return block(self, *args, **kwargs)

        monkeypatch.setattr(engine._Sampler, "block", drawing)
        discrete = make_discrete(3, 9, 61, residual=False)
        run = dict(n=60, replicates=4, seed=2)
        schemes = [None, optimal_bias_scheme(discrete), optimal_variance_scheme(discrete)]
        engine.run_cells(discrete, [engine.Cell(0.05, scheme=s) for s in schemes], **run)
        engine.run_cells(make_gaussian(3, 0.5, 1), [engine.Cell(0.05)], **run)
        assert callers == {threading.current_thread()}
        assert drawers and threading.current_thread() not in drawers


class TestFailingDraw:
    """A draw that fails on the worker is raised by the engine call, and
    leaves no thread behind."""

    @pytest.fixture(autouse=True)
    def second_block_fails(self, monkeypatch):
        monkeypatch.setattr(engine._Sampler, "block_steps", lambda self, reps, schemes, cells: 7)
        block, drawers = engine._Sampler.block, []

        def failing(self, *args, **kwargs):
            drawers.append(threading.current_thread())
            if len(drawers) == 2:
                raise MemoryError("Unable to allocate the second block")
            return block(self, *args, **kwargs)

        monkeypatch.setattr(engine._Sampler, "block", failing)
        return drawers

    def test_run_cells_raises_it(self, second_block_fails):
        spec = make_discrete(3, 9, 61, residual=True)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="second block"):
            run_cells(spec, [Cell(0.1)], 100, replicates=3)
        assert threading.active_count() == before
        assert len(second_block_fails) == 2
        assert threading.current_thread() not in second_block_fails

    def test_the_command_reports_one_line(self, capsys):
        before = threading.active_count()
        argv = ["run", "--spec", "gaussian:d=2", "--gamma", "0.1", "--n-max", "100",
                "--replicates", "2"]
        assert cli.main(argv) == cli.EXIT_MEMORY
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate the second block\n"
        assert threading.active_count() == before


class TestDrawBuffers:
    @staticmethod
    def gaussian_grid():
        spec = make_gaussian(25, 1.0, 5)
        cells = [Cell(g, mode) for g in (0.01, 0.001) for mode in ("bias", "variance", "total")]
        return spec, cells, dict(n=250, replicates=200, seed=1)

    @staticmethod
    def discrete_grid():
        spec = make_discrete(30, 60, 8, residual=False)
        schemes = [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec)]
        return spec, [Cell(0.001, scheme=s) for s in schemes], dict(n=60, replicates=500, seed=1)

    @pytest.mark.parametrize("grid", ["gaussian_grid", "discrete_grid"])
    def test_draw_buffers_fit_the_budget(self, grid, monkeypatch):
        """Two buffers, one stepped and one drawn, reused for every block of a
        run several blocks long, and together within the draw budget."""
        spec, cells, run = getattr(self, grid)()
        buffers, steps = {}, []
        block = engine._Sampler.block

        def spy(self, *args, out=None):
            buffers[out.__array_interface__["data"][0]] = out.nbytes
            steps.append(args[3])
            return block(self, *args, out=out)

        monkeypatch.setattr(engine._Sampler, "block", spy)
        run_cells(spec, cells, **run)
        assert len(steps) > 2
        assert len(buffers) == 2
        assert sum(buffers.values()) <= engine.GROUP_BYTES // engine.CHUNK_SHARE


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


def _with_nan_labels(spec):
    """The residual spec with two atoms' labels NaN: a cell that draws one
    steps to NaN, while its bias cells read the clean responses."""
    ys = np.array(spec.design.ys)
    ys[[2, 5]] = np.nan
    design = DiscreteDesign(spec.design.xs, spec.design.probs, ys)
    return dataclasses.replace(spec, design=design)


_DIAGONAL = ProblemSpec.gaussian(np.diag(1.0 / np.arange(1, 5)), w_star=[1.0, -2.0, 0.5, 3.0],
                                 w0=[0.5, 0.0, -1.0, 2.0], sigma=0.7)
STEP_SPECS = {
    "diagonal-gaussian": _DIAGONAL,
    "rotated-gaussian": make_gaussian(3, 0.5, 7),
    "discrete": make_discrete(3, 9, 61, residual=False),
    "residual": make_discrete(3, 9, 61, residual=True),
    "nan-labels": _with_nan_labels(make_discrete(3, 9, 61, residual=True)),
}


def _engine_and_reference(spec, cells, n, reps, seed, stride):
    """The engine's trajectories of ``cells`` ((gamma, mode, scheme) triples)
    and the reference's, cell by cell."""
    run = dict(n=n, replicates=reps, seed=seed,
               record_at=tuple(range(stride, n + 1, stride)) + (n,))
    cells = [Cell(g, mode, scheme) for g, mode, scheme in cells]
    return run_cells(spec, cells, **run), [reference_run(spec, cell, **run) for cell in cells]


def _assert_same_run(traj, want):
    iters, risk, err, diverged = want
    np.testing.assert_array_equal(traj.iterations, iters)
    np.testing.assert_array_equal(traj.risk, risk)
    np.testing.assert_array_equal(traj.standard_error, err)
    np.testing.assert_equal((traj.diverged_at, traj.diverged_replicate, traj.diverged_norm),
                            diverged)
    assert traj.diverged == (diverged[0] is not None)


class TestStepLoopReference:
    """The step loop screens divergence with a running bound and selects
    each cell's draws once per block; it must match the reference that
    checks every step exactly, one draw at a time, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(STEP_SPECS)),
        cells=st.lists(st.tuples(st.floats(0.05, 6.0), st.sampled_from(engine.MODES),
                                 st.integers(0, 2)), min_size=1, max_size=4),
        near_limit=st.sampled_from([None, 0.3, 0.45, 0.5, 0.999, 1.001]),
        n=st.integers(2, 90),
        reps=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 9),
    )
    @example(name="residual", cells=[(5.0, "total", 1), (0.3, "bias", 0)],
             near_limit=0.999, n=60, reps=3, seed=1, steps=1)
    def test_matches_the_exact_check_every_step(self, name, cells, near_limit, n, reps, seed,
                                                steps):
        spec = STEP_SPECS[name]
        gaussian = name.endswith("gaussian")
        if near_limit is not None:
            # Every entry at sqrt(near_limit * limit / d): the squared norm of
            # w0 sits just under or over the limit.
            entry = np.sqrt(near_limit / spec.dim) * engine.DIVERGENCE_NORM
            spec = dataclasses.replace(spec, w0=np.full(spec.dim, entry))
        choices = [None] if gaussian else [None, optimal_bias_scheme(spec)]
        if name in ("discrete", "residual"):
            choices.append(optimal_variance_scheme(spec))
        trace_h = float(np.trace(spec.hmat))
        cells = [(g / trace_h, mode, choices[k % len(choices)]) for g, mode, k in cells]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Sampler, "block_steps", lambda self, r, s, c: steps)
            got, want = _engine_and_reference(spec, cells, n, reps, seed, stride=3)
        for traj, ref in zip(got, want):
            _assert_same_run(traj, ref)

    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_divergence_on_a_blocks_first_step_and_mid_block(self, where, monkeypatch):
        """The grid's last cell diverges at step D; blocks of D - 2 steps make
        D the first step of the second block, blocks of D steps put it in the
        middle of the first."""
        spec = make_discrete(3, 9, 61, residual=True)
        cells = [(0.05, "total", None), (0.05, "bias", optimal_bias_scheme(spec)),
                 (0.9, "variance", optimal_bias_scheme(spec)), (1.2, "total", None)]
        last = reference_run(spec, Cell(1.2, "total"), 400, replicates=3, seed=5,
                             record_at=(*range(7, 401, 7), 400))[3][0]
        assert last is not None and last > 4
        steps = last - 2 if where == "first" else last
        monkeypatch.setattr(engine._Sampler, "block_steps", lambda self, r, s, c: steps)
        got, want = _engine_and_reference(spec, cells, 400, 3, 5, stride=7)
        assert sum(ref[3][0] is not None for ref in want) >= 2
        for traj, ref in zip(got, want):
            _assert_same_run(traj, ref)


    def test_a_step_that_meets_the_bound_is_caught(self):
        """From w0 = 0 with X = 3 and a huge label the first step lands at
        exactly max|coef| x_max, the running bound, and just past the
        limit: a bound grown any slower would miss it."""
        spec = ProblemSpec.discrete(np.array([[3.0]]), ys=np.array([4e14]))
        got, want = _engine_and_reference(spec, [(1e-3, "total", None)], 5, 2, 0, 1)
        assert want[0][3][0] == 2 and 1e12 < want[0][3][2] <= 1.2e12
        _assert_same_run(got[0], want[0])


class TestGaussianDraws:
    def test_diagonal_root_scales_with_the_matmul_bits(self):
        """A descriptor's root is diagonal: its blocks scale the normals in
        one product and hold the bits of the per-step matmul."""
        spec = cli.parse_spec_descriptor("gaussian:d=25,spectrum=1/i,sigma=1")
        sampler = engine._Sampler(spec)
        assert sampler._diag is not None
        diagonal = sampler.block(*engine._generators(3), 40, 6, True, [0])
        sampler._diag = None
        rotated = sampler.block(*engine._generators(3), 40, 6, True, [0])
        for a, b in zip(diagonal[:3], rotated[:3]):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        assert diagonal[3] == rotated[3] == np.abs(rotated[0]).max()

    def test_rotated_root_takes_the_matmul(self):
        from test_golden import rotated_gaussian

        sampler = engine._Sampler(rotated_gaussian())
        assert sampler._diag is None
        assert sampler.step_floats(30, 1) == 30 * (6 + 2) + 30 * 6


class TestSelectionBudget:
    def test_a_150_cell_grid_fits_the_draw_budget(self, monkeypatch):
        """Blocks, their buffers and the per-cell selections of a 150-cell
        mixed-mode grid stay within GROUP_BYTES // CHUNK_SHARE beyond the
        state (w, wbar and the scratch): numpy reports its arrays to
        tracemalloc."""
        spec = make_discrete(6, 20, 3, residual=False)
        schemes = [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec)]
        cells = [(g, mode, s) for g in np.linspace(0.01, 0.05, 25)
                 for mode in ("bias", "total") for s in schemes]
        assert len(cells) == 150
        reps, n = 40, 300
        steps = []
        block_steps = engine._Sampler.block_steps
        monkeypatch.setattr(engine._Sampler, "block_steps",
                            lambda self, *a: steps.append(block_steps(self, *a)) or steps[-1])
        state = 3 * 150 * reps * spec.dim * 8
        tracemalloc.start()
        try:
            run_cells(spec, [Cell(*cell) for cell in cells], n, replicates=reps, seed=1,
                      record_at=(n,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 < steps[0] < n
        assert peak - state <= engine.GROUP_BYTES // engine.CHUNK_SHARE
