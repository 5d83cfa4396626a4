"""Bit-identity contract of the Monte Carlo engine.

Two checks guard every change to the engine:

* pinned SHA-256 digests of ``avlms run`` and ``avlms sampling`` CSV bytes
  on small fixed configs, and of the closed-form ``avlms predict`` and
  ``avlms gamma-max`` CSVs.  The digests depend on the BLAS and LAPACK
  that build H's eigenpairs, the Gaussian root and the moment Grams, so
  they are pinned for the reference environment (OpenBLAS 0.3.31, numpy
  2.4.6) and skipped elsewhere;
* a frozen copy of the single-cell recursion (:func:`oracle_run`), the
  reference every engine run must match with ``np.array_equal`` on any
  machine.
"""

import hashlib
import warnings

import numpy as np
import pytest

from avlms import (
    ProblemSpec,
    RunConfig,
    compute_moments,
    gamma_max,
    nlms_run,
    optimal_bias_scheme,
    optimal_variance_scheme,
    run_averaged_lms,
    run_cells,
)
from avlms import cli, engine
from conftest import make_discrete

DIVERGENCE_NORM = 1e12


def _blas_is_reference() -> bool:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return (np.__version__ == "2.4.6" and blas.get("name") == "scipy-openblas"
            and str(blas.get("version", "")).startswith("0.3.31"))


pinned = pytest.mark.skipif(not _blas_is_reference(),
                            reason="digests are pinned for OpenBLAS 0.3.31 / numpy 2.4.6")


# ---------------------------------------------------------------------------
# Frozen single-cell recursion (the engine as it stood before cells were
# stepped in lockstep).  Do not edit: it is the reference, not an API.


def _oracle_sampler(spec, scheme, noiseless):
    design = spec.design
    if hasattr(design, "cov"):
        lam, vec = np.linalg.eigh(design.cov)
        root = vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
        sigma = spec.noise.sigma

        def draw(gen_x, gen_eps, size):
            x = gen_x.standard_normal((size, spec.dim)) @ root.T
            y = x @ spec.w_star
            if not noiseless and sigma > 0:
                y = y + sigma * gen_eps.standard_normal(size)
            return x, y

        return draw
    xs, probs, ys = design.xs, design.probs, design.ys
    scale = None
    weights = probs
    if scheme is not None:
        cinv = np.asarray(scheme.c_inverse(xs, ys if ys is not None else xs @ spec.w_star),
                          dtype=float).reshape(-1)
        weights = probs * cinv
        weights = weights / weights.sum()
        scale = np.zeros_like(cinv)
        live = cinv > 0
        scale[live] = 1.0 / np.sqrt(cinv[live])
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    ys_model = xs @ spec.w_star
    residual = not hasattr(spec.noise, "sigma")
    sigma = 0.0 if residual else spec.noise.sigma

    def draw(gen_x, gen_eps, size):
        idx = np.searchsorted(cum, gen_x.random(size), side="right")
        x = xs[idx]
        if noiseless or (residual and ys is None):
            y = ys_model[idx]
        elif residual:
            y = ys[idx]
        else:
            y = ys_model[idx]
            if sigma > 0:
                y = y + sigma * gen_eps.standard_normal(size)
        if scale is not None:
            s = scale[idx]
            x = x * s[:, None]
            y = y * s
        return x, y

    return draw


def _oracle_drive(spec, config, update, draw, w0):
    children = np.random.SeedSequence(config.seed).spawn(2)
    gen_x, gen_eps = np.random.default_rng(children[0]), np.random.default_rng(children[1])
    reps = config.replicates
    w = np.tile(w0, (reps, 1)).astype(float)
    wbar = w.copy()
    points = config.record_points()
    iters, risks, errs = [], [], []

    def record(m):
        diff = wbar - spec.w_star
        r = np.einsum("ri,ij,rj->r", diff, spec.hmat, diff)
        iters.append(m)
        risks.append(float(r.mean()))
        errs.append(float(r.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0)

    next_idx = 0
    diverged_at = None
    if points[0] == 1:
        record(1)
        next_idx = 1
    for m in range(2, config.n + 1):
        x, y = draw(gen_x, gen_eps, reps)
        w = update(w, x, y, m)
        if not np.all(np.isfinite(w)) or np.einsum("ri,ri->r", w, w).max() > DIVERGENCE_NORM**2:
            diverged_at = m
            break
        wbar += (w - wbar) / m
        if next_idx < len(points) and points[next_idx] == m:
            record(m)
            next_idx += 1
    return np.array(iters, dtype=int), np.array(risks), np.array(errs), diverged_at


def oracle_run(spec, config, scheme=None):
    """(iterations, risk, standard_error, diverged_at) of one averaged-LMS cell."""
    draw = _oracle_sampler(spec, scheme, noiseless=config.mode == "bias")
    w0 = spec.w_star if config.mode == "variance" else spec.w0
    gamma = config.gamma

    def update(w, x, y, _m):
        resid = np.einsum("ri,ri->r", x, w) - y
        return w - gamma * resid[:, None] * x

    return _oracle_drive(spec, config, update, draw, w0)


def oracle_nlms(spec, n, seed, replicates, record_at):
    draw = _oracle_sampler(spec, optimal_bias_scheme(spec), noiseless=False)
    config = RunConfig(gamma=1.0, n=n, replicates=replicates, seed=seed, record_at=record_at)

    def update(w, x, y, _m):
        sq = np.einsum("ri,ri->r", x, x)
        resid = np.einsum("ri,ri->r", x, w) - y
        return w - (resid / sq)[:, None] * x

    return _oracle_drive(spec, config, update, draw, spec.w0)


# ---------------------------------------------------------------------------
# Fixed configs.


def rotated_gaussian(d=6, seed=17) -> ProblemSpec:
    """Eigenvalues 1/i in a random orthonormal frame, so H and its root are dense."""
    rg = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rg.standard_normal((d, d)))
    cov = (q * (1.0 / np.arange(1, d + 1))) @ q.T
    cov = 0.5 * (cov + cov.T)
    return ProblemSpec.gaussian(cov, w_star=rg.standard_normal(d), w0=np.zeros(d), sigma=1.0)


def write_discrete_csv(path, seed=4) -> None:
    rg = np.random.default_rng(seed)
    xs = rg.standard_normal((30, 3)) * rg.uniform(0.3, 3.0, (30, 1))
    ys = xs @ np.array([1.0, -0.5, 2.0]) + 0.4 * rg.standard_normal(30)
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(xs, ys):
            fh.write(",".join(f"{v:.17g}" for v in (*x, y)) + "\n")


GAUSSIAN_GAMMAS = (0.15, 1.5)  # gamma_max of rotated_gaussian() is about 0.52
GAUSSIAN_RUN = ["--gamma", "0.15", "--gamma", "1.5", "--mode", "all", "--n-max", "400",
                "--points", "12", "--replicates", "30", "--seed", "7"]
DATA_RUN = ["--gamma", "0.02", "--gamma", "0.004", "--scheme", "uniform", "--scheme",
            "bias-opt", "--mode", "all", "--n-max", "300", "--points", "10",
            "--replicates", "25", "--seed", "3"]
DATA_SAMPLING = ["--n-max", "300", "--points", "6", "--replicates", "40", "--seed", "2"]
# One stable and one unstable gamma each: gamma_max is about 0.109 on the data
# file and 0.534 on the descriptor.  Past gamma_max the exact bias overflows
# by n=3000; on the descriptor T is singular at gamma=2, so its exact
# variance column stays empty.
PREDICT_SPEC = "gaussian:d=5,spectrum=1/i,sigma=1,wstar=random,w0=ones"
DATA_PREDICT = ["--gamma", "0.05", "--gamma", "0.5", "--n-max", "3000", "--points", "8"]
SPEC_PREDICT = ["--gamma", "0.2", "--gamma", "2.0", "--n-max", "3000", "--points", "8"]
ALL_SCHEMES = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]

GAUSSIAN_RUN_SHA256 = "b442b29371c493ac50b935de5247dcf1c6df3badd81503a8d0e236b1b6a4d63c"
DATA_RUN_SHA256 = "10a3378406257107f801ecc3f8e77045a30d5b51daa038bfce83f3d72658f278"
DATA_SAMPLING_SHA256 = "c1bf07114fd90716b15d19a4440c2a51d03beebef99a4497747d8643b93c9603"
DATA_PREDICT_SHA256 = "b0b41bd3eea5e994de620ad39dfb742a7b9282a63fcbcb51e409425b0ac7fc68"
SPEC_PREDICT_SHA256 = "255aaf3bdc7b832e7722d5a31f62faf186a90f88dbb509bc76d52a34ffeeb18e"
DATA_GAMMA_MAX_SHA256 = "5de3b4b338d096d3d64ecda97e177bd0000754fcd05a029f39b5d469dae835fa"
SPEC_GAMMA_MAX_SHA256 = "df4248a75b57e0bde582d517e16be9ce2a2c0baffc0b23adb30f3287e2bb2b49"


def _digest(*paths) -> str:
    """SHA-256 of the files' bytes, concatenated in order."""
    return hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest()


def run_gaussian_csv(tmp_path, monkeypatch):
    spec = rotated_gaussian()
    monkeypatch.setattr(cli, "_resolve_spec", lambda args: spec)
    out = tmp_path / "gaussian.csv"
    assert cli.main(["run", "--spec", "gaussian:d=6", *GAUSSIAN_RUN, "--out", str(out)]) == 0
    return out


def data_csv_command(tmp_path, command, args):
    data = tmp_path / "data.csv"
    write_discrete_csv(data)
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--data", str(data), *args, "--out", str(out)]) == 0
    return out


def predict_csvs(tmp_path, source, args):
    """The two per-gamma CSVs of ``avlms predict`` on ``source`` (--data or --spec)."""
    out = tmp_path / "predict.csv"
    assert cli.main(["predict", *source, *args, "--out", str(out)]) == 0
    return tmp_path / "predict_g0.csv", tmp_path / "predict_g1.csv"


def _assert_unstable_warnings(err: str, gamma: str) -> None:
    assert f"warning: gamma={gamma} is at or beyond the stability threshold" in err
    assert f"warning: gamma={gamma} exact values overflowed at large n" in err


class TestPinnedDigests:
    @pinned
    def test_gaussian_run(self, tmp_path, monkeypatch):
        out = run_gaussian_csv(tmp_path, monkeypatch)
        assert "diverged" in out.read_text()
        assert _digest(out) == GAUSSIAN_RUN_SHA256

    @pinned
    def test_discrete_resampled_run(self, tmp_path):
        assert _digest(data_csv_command(tmp_path, "run", DATA_RUN)) == DATA_RUN_SHA256

    @pinned
    def test_discrete_sampling(self, tmp_path):
        out = data_csv_command(tmp_path, "sampling", DATA_SAMPLING)
        assert _digest(out) == DATA_SAMPLING_SHA256

    @pinned
    def test_discrete_predict(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_discrete_csv(data)
        outs = predict_csvs(tmp_path, ["--data", str(data)], DATA_PREDICT)
        _assert_unstable_warnings(capsys.readouterr().err, "0.5")
        assert _digest(*outs) == DATA_PREDICT_SHA256

    @pinned
    def test_gaussian_predict(self, tmp_path, capsys):
        outs = predict_csvs(tmp_path, ["--spec", PREDICT_SPEC], SPEC_PREDICT)
        _assert_unstable_warnings(capsys.readouterr().err, "2")
        assert _digest(*outs) == SPEC_PREDICT_SHA256

    @pinned
    def test_discrete_gamma_max(self, tmp_path):
        out = data_csv_command(tmp_path, "gamma-max", ALL_SCHEMES)
        assert _digest(out) == DATA_GAMMA_MAX_SHA256

    @pinned
    def test_gaussian_gamma_max(self, tmp_path):
        out = tmp_path / "gamma-max.csv"
        assert cli.main(["gamma-max", "--spec", PREDICT_SPEC, *ALL_SCHEMES,
                         "--out", str(out)]) == 0
        assert _digest(out) == SPEC_GAMMA_MAX_SHA256


def _assert_matches_oracle(traj, spec, config, scheme=None):
    iters, risk, err, diverged_at = oracle_run(spec, config, scheme)
    assert np.array_equal(traj.iterations, iters)
    assert np.array_equal(traj.risk, risk)
    assert np.array_equal(traj.standard_error, err)
    assert traj.diverged_at == diverged_at
    assert traj.diverged == (diverged_at is not None)


class TestFrozenOracle:
    """Every engine cell equals the frozen single-cell recursion bit for bit."""

    @pytest.mark.parametrize("mode", ["bias", "variance", "total"])
    @pytest.mark.parametrize("gamma", GAUSSIAN_GAMMAS)
    def test_rotated_gaussian(self, mode, gamma):
        spec = rotated_gaussian()
        config = RunConfig(gamma=gamma, n=400, replicates=30, mode=mode, seed=7,
                           record_stride=37)
        _assert_matches_oracle(run_averaged_lms(spec, config), spec, config)

    def test_gaussian_grid_diverges_above_gamma_max(self):
        spec = rotated_gaussian()
        assert GAUSSIAN_GAMMAS[0] < gamma_max(compute_moments(spec)) < GAUSSIAN_GAMMAS[1]
        config = RunConfig(gamma=GAUSSIAN_GAMMAS[1], n=400, replicates=30, seed=7)
        assert oracle_run(spec, config)[3] is not None

    @pytest.mark.parametrize("mode", ["bias", "variance", "total"])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("scheme_name", ["uniform", "bias-opt", "variance-opt"])
    def test_discrete(self, mode, residual, scheme_name):
        spec = make_discrete(3, 9, 61, residual=residual)
        scheme = {"uniform": None, "bias-opt": optimal_bias_scheme,
                  "variance-opt": optimal_variance_scheme}[scheme_name]
        scheme = scheme(spec) if scheme else None
        config = RunConfig(gamma=0.05, n=250, replicates=11, mode=mode, seed=5,
                           record_at=(1, 7, 60, 250))
        _assert_matches_oracle(run_averaged_lms(spec, config, scheme), spec, config, scheme)

    def test_single_replicate(self):
        spec = rotated_gaussian(d=3, seed=2)
        config = RunConfig(gamma=0.2, n=120, replicates=1, seed=1, record_stride=10)
        _assert_matches_oracle(run_averaged_lms(spec, config), spec, config)

    def test_nlms(self):
        spec = make_discrete(3, 8, 12, residual=True)
        record_at = (5, 50, 200)
        traj = nlms_run(spec, n=200, seed=9, replicates=6, record_at=record_at)
        iters, risk, err, _ = oracle_nlms(spec, 200, 9, 6, record_at)
        assert np.array_equal(traj.iterations, iters)
        assert np.array_equal(traj.risk, risk)
        assert np.array_equal(traj.standard_error, err)


def _grid(gammas=GAUSSIAN_GAMMAS, **kw):
    base = dict(n=400, replicates=30, seed=7, record_stride=37)
    base.update(kw)
    return [RunConfig(gamma=g, mode=mode, **base)
            for g in gammas for mode in ("bias", "variance", "total")]


def _same(a, b):
    return (np.array_equal(a.iterations, b.iterations) and np.array_equal(a.risk, b.risk)
            and np.array_equal(a.standard_error, b.standard_error)
            and (a.diverged_at, a.diverged_replicate, a.diverged_norm)
            == (b.diverged_at, b.diverged_replicate, b.diverged_norm))


class TestGrid:
    """A lockstep grid gives each cell the bits of that cell run alone."""

    def test_diverging_grid_matches_single_cells_without_warnings(self):
        spec = rotated_gaussian()
        configs = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = run_cells(spec, configs)
        assert [t.diverged for t in grid] == [False] * 3 + [True] * 3
        for config, traj in zip(configs, grid):
            _assert_matches_oracle(traj, spec, config)
            assert _same(traj, run_averaged_lms(spec, config))
            assert (traj.gamma, traj.mode) == (config.gamma, config.mode)
        for traj in grid[3:]:
            assert 0 <= traj.diverged_replicate < 30
            assert traj.diverged_norm > DIVERGENCE_NORM

    def test_discrete_resampled_grid(self):
        spec = make_discrete(3, 9, 61, residual=False)
        scheme = optimal_bias_scheme(spec)
        configs = _grid(gammas=(0.02, 0.3), n=250, replicates=11, seed=5, record_stride=20)
        for config, traj in zip(configs, run_cells(spec, configs, scheme)):
            _assert_matches_oracle(traj, spec, config, scheme)
            assert traj.label == "bias-opt"

    def test_grouping_never_changes_bits(self, monkeypatch):
        spec = rotated_gaussian()
        configs = _grid()
        whole = run_cells(spec, configs)
        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive", lambda *a, **k: calls.append(1) or drive(*a, **k))
        monkeypatch.setattr(engine, "GROUP_BYTES", 2 * engine._STATE_ARRAYS * 8 * 30 * 6)
        grouped = run_cells(spec, configs)
        assert len(calls) == 3
        assert all(_same(a, b) for a, b in zip(whole, grouped))


class TestSchemeGrid:
    """Cells that differ in scheme share one uniform stream: each cell of a
    multi-scheme grid has the bits of its scheme run alone."""

    @staticmethod
    def _cells(spec):
        schemes = [None, optimal_bias_scheme(spec), optimal_variance_scheme(spec)]
        base = dict(n=250, replicates=11, seed=5, record_at=(1, 7, 60, 250))
        cells = [(RunConfig(gamma=0.05, mode=mode, **base), scheme)
                 for scheme in schemes for mode in ("bias", "variance", "total")]
        # Far past 2/Tr(H): diverges, and it is the only cell of its scheme
        # object, whose draws then stop.
        lone = optimal_bias_scheme(spec)
        cells.append((RunConfig(gamma=50.0, mode="total", **base), lone))
        return cells

    @pytest.mark.parametrize("residual", [True, False])
    def test_matches_each_scheme_alone(self, residual, monkeypatch):
        spec = make_discrete(3, 9, 61, residual=residual)
        cells = self._cells(spec)
        configs, schemes = [c for c, _ in cells], [s for _, s in cells]
        drawn = []
        block = engine._Sampler.block

        def spy(self, *args, **kwargs):
            drawn.append(len(args[5]))
            return block(self, *args, **kwargs)

        monkeypatch.setattr(engine._Sampler, "block", spy)
        monkeypatch.setattr(engine._Sampler, "block_steps", lambda self, reps, schemes: 10)
        grid = run_cells(spec, configs, schemes)
        assert grid[-1].diverged and not any(t.diverged for t in grid[:-1])
        assert drawn[0] == 4 and drawn[-1] == 3
        for (config, scheme), traj in zip(cells, grid):
            assert _same(traj, run_cells(spec, [config], scheme)[0])
            assert traj.label == ("uniform" if scheme is None else scheme.name)
            _assert_matches_oracle(traj, spec, config, scheme)

    def test_grouping_and_block_length_never_change_bits(self, monkeypatch):
        spec = make_discrete(3, 9, 61, residual=False)
        cells = self._cells(spec)
        configs, schemes = [c for c, _ in cells], [s for _, s in cells]
        whole = run_cells(spec, configs, schemes)
        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive", lambda *a, **k: calls.append(1) or drive(*a, **k))
        # Two cells per group, and blocks of a single step.
        monkeypatch.setattr(engine, "GROUP_BYTES", 2 * engine._STATE_ARRAYS * 8 * 11 * 3)
        grouped = run_cells(spec, configs, schemes)
        assert len(calls) == 5
        assert all(_same(a, b) for a, b in zip(whole, grouped))

    def test_gaussian_spec_refuses_resampled_cells(self):
        spec = rotated_gaussian()
        config = RunConfig(gamma=0.15, n=20, replicates=3)
        with pytest.raises(engine.SchemeError):
            run_cells(spec, [config, config], [None, optimal_bias_scheme(spec)])

    def test_one_scheme_per_config(self):
        spec = make_discrete(3, 9, 61, residual=True)
        config = RunConfig(gamma=0.05, n=20, replicates=3)
        with pytest.raises(ValueError, match="one scheme per config"):
            run_cells(spec, [config, config], [None])
