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
import sys
import warnings

import numpy as np
import pytest

from avlms import (
    Cell,
    ProblemSpec,
    atom_scheme,
    compute_moments,
    gamma_max,
    optimal_bias_scheme,
    optimal_variance_scheme,
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
        cinv = scheme.ratios_on(spec)
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


def _oracle_drive(spec, update, draw, w0, n, replicates=1, seed=0, record_at=None):
    children = np.random.SeedSequence(seed).spawn(2)
    gen_x, gen_eps = np.random.default_rng(children[0]), np.random.default_rng(children[1])
    reps = replicates
    w = np.tile(w0, (reps, 1)).astype(float)
    wbar = w.copy()
    points = list(range(1, n + 1)) if record_at is None else sorted(set(record_at))
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
    for m in range(2, n + 1):
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


def oracle_run(spec, cell, n, replicates=1, seed=0, record_at=None):
    """(iterations, risk, standard_error, diverged_at) of one averaged-LMS cell."""
    draw = _oracle_sampler(spec, cell.scheme, noiseless=cell.mode == "bias")
    w0 = spec.w_star if cell.mode == "variance" else spec.w0
    gamma = cell.gamma

    def update(w, x, y, _m):
        resid = np.einsum("ri,ri->r", x, w) - y
        return w - gamma * resid[:, None] * x

    return _oracle_drive(spec, update, draw, w0, n, replicates, seed, record_at)


def oracle_nlms(spec, n, seed, replicates, record_at):
    draw = _oracle_sampler(spec, optimal_bias_scheme(spec), noiseless=False)

    def update(w, x, y, _m):
        sq = np.einsum("ri,ri->r", x, x)
        resid = np.einsum("ri,ri->r", x, w) - y
        return w - (resid / sq)[:, None] * x

    return _oracle_drive(spec, update, draw, spec.w0, n, replicates, seed, record_at)


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
# The settings every cell of a Gaussian grid shares.
GAUSSIAN_GRID = dict(n=400, replicates=30, seed=7, record_at=(*range(37, 401, 37), 400))
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
# The d=5 descriptor's block has few terms per sum; d=25 at gamma_max/2 and
# gamma_max/20 over the default 25-point schedule pins the summation order
# of the Gaussian block read-out too.
PREDICT_SPEC_25 = "gaussian:d=25,spectrum=1/i,sigma=1"

GAUSSIAN_RUN_SHA256 = "b442b29371c493ac50b935de5247dcf1c6df3badd81503a8d0e236b1b6a4d63c"
DATA_RUN_SHA256 = "10a3378406257107f801ecc3f8e77045a30d5b51daa038bfce83f3d72658f278"
DATA_SAMPLING_SHA256 = "3d916a15fa7454d04218dac97cf86792e9cc32e9e34c3b7cc0412950fe0a14b5"
DATA_PREDICT_SHA256 = "bcd5d9ec43140284a6bfd0c966c30f98e70aa6b66fba47f928d20e796d64de04"
SPEC_PREDICT_SHA256 = "29d915abf5a4372028541a7745175e87a34acd0f36fd64c0792fcac87163f415"
SPEC_PREDICT_25_SHA256 = "68463fede5adfaf7e11383b13a74c06a76395ad5d30e8ab39b7f88eeb926b514"
DATA_GAMMA_MAX_SHA256 = "32633cf19bad6aade0c8770367cb11d85fcceb887027ae7e4409c60b36b37c77"
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
    def test_gaussian_predict_d25(self, tmp_path):
        g = gamma_max(compute_moments(cli.parse_spec_descriptor(PREDICT_SPEC_25)))
        args = ["--gamma", repr(g / 2), "--gamma", repr(g / 20),
                "--n-max", "10000", "--points", "25"]
        outs = predict_csvs(tmp_path, ["--spec", PREDICT_SPEC_25], args)
        assert _digest(*outs) == SPEC_PREDICT_25_SHA256

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


def _assert_matches_oracle(traj, spec, cell, run):
    """``traj`` is the oracle's run of ``cell`` under the grid settings ``run``."""
    iters, risk, err, diverged_at = oracle_run(spec, cell, **run)
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
        cell = Cell(gamma, mode)
        [traj] = run_cells(spec, [cell], **GAUSSIAN_GRID)
        _assert_matches_oracle(traj, spec, cell, GAUSSIAN_GRID)

    def test_gaussian_grid_diverges_above_gamma_max(self):
        spec = rotated_gaussian()
        assert GAUSSIAN_GAMMAS[0] < gamma_max(compute_moments(spec)) < GAUSSIAN_GAMMAS[1]
        assert oracle_run(spec, Cell(GAUSSIAN_GAMMAS[1]), 400, replicates=30, seed=7)[3] is not None

    @pytest.mark.parametrize("mode", ["bias", "variance", "total"])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("scheme_name", ["uniform", "bias-opt", "variance-opt"])
    def test_discrete(self, mode, residual, scheme_name):
        spec = make_discrete(3, 9, 61, residual=residual)
        scheme = {"uniform": None, "bias-opt": optimal_bias_scheme,
                  "variance-opt": optimal_variance_scheme}[scheme_name]
        cell = Cell(0.05, mode, scheme(spec) if scheme else None)
        run = dict(n=250, replicates=11, seed=5, record_at=(1, 7, 60, 250))
        [traj] = run_cells(spec, [cell], **run)
        _assert_matches_oracle(traj, spec, cell, run)

    def test_single_replicate(self):
        spec = rotated_gaussian(d=3, seed=2)
        run = dict(n=120, replicates=1, seed=1, record_at=tuple(range(10, 121, 10)))
        [traj] = run_cells(spec, [Cell(0.2)], **run)
        _assert_matches_oracle(traj, spec, Cell(0.2), run)

    def test_nlms(self):
        """Normalized LMS is the bias-opt cell at gamma = 1/Tr(H): the step
        x (x^T w - y) / (x^T x) on the norm-proportional stream (the paper's
        claim (c))."""
        spec = make_discrete(3, 8, 12, residual=True)
        record_at = (5, 50, 200)
        cell = Cell(1.0 / float(np.trace(spec.hmat)), scheme=optimal_bias_scheme(spec))
        [traj] = run_cells(spec, [cell], 200, replicates=6, seed=9, record_at=record_at)
        iters, risk, err, _ = oracle_nlms(spec, 200, 9, 6, record_at)
        assert np.array_equal(traj.iterations, iters)
        np.testing.assert_allclose(traj.risk, risk, rtol=1e-13, atol=0)
        np.testing.assert_allclose(traj.standard_error, err, rtol=1e-13, atol=0)


def _grid(gammas=GAUSSIAN_GAMMAS, scheme=None):
    return [Cell(g, mode, scheme) for g in gammas for mode in ("bias", "variance", "total")]


def _same(a, b):
    return (np.array_equal(a.iterations, b.iterations) and np.array_equal(a.risk, b.risk)
            and np.array_equal(a.standard_error, b.standard_error)
            and (a.diverged_at, a.diverged_replicate, a.diverged_norm)
            == (b.diverged_at, b.diverged_replicate, b.diverged_norm))


class TestGrid:
    """A lockstep grid gives each cell the bits of that cell run alone."""

    def test_diverging_grid_matches_single_cells_without_warnings(self):
        spec = rotated_gaussian()
        cells = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = run_cells(spec, cells, **GAUSSIAN_GRID)
        assert [t.diverged for t in grid] == [False] * 3 + [True] * 3
        for cell, traj in zip(cells, grid):
            _assert_matches_oracle(traj, spec, cell, GAUSSIAN_GRID)
            assert _same(traj, run_cells(spec, [cell], **GAUSSIAN_GRID)[0])
        for traj in grid[3:]:
            assert 0 <= traj.diverged_replicate < 30
            assert traj.diverged_norm > DIVERGENCE_NORM

    def test_discrete_resampled_grid(self):
        spec = make_discrete(3, 9, 61, residual=False)
        cells = _grid(gammas=(0.02, 0.3), scheme=optimal_bias_scheme(spec))
        run = dict(n=250, replicates=11, seed=5, record_at=(*range(20, 251, 20), 250))
        for cell, traj in zip(cells, run_cells(spec, cells, **run)):
            _assert_matches_oracle(traj, spec, cell, run)

    def test_grouping_never_changes_bits(self, monkeypatch):
        spec = rotated_gaussian()
        cells = _grid()
        whole = run_cells(spec, cells, **GAUSSIAN_GRID)
        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive", lambda *a, **k: calls.append(1) or drive(*a, **k))
        monkeypatch.setattr(engine, "GROUP_BYTES", 2 * engine._STATE_ARRAYS * 8 * 30 * 6)
        grouped = run_cells(spec, cells, **GAUSSIAN_GRID)
        assert len(calls) == 3
        assert all(_same(a, b) for a, b in zip(whole, grouped))


class TestGaussianBlocks:
    def test_one_step_blocks_match_default_blocks(self, monkeypatch):
        """Gaussian inputs come in one standard-normal draw per block: blocks
        of one step and the default blocks (the whole run here) give every
        cell of the diverging grid the same bits."""
        spec = rotated_gaussian()
        cells = _grid()
        sampler = engine._Sampler(spec)
        assert sampler.block_steps(30, 1, 6) >= 399
        whole = run_cells(spec, cells, **GAUSSIAN_GRID)
        assert [t.diverged for t in whole] == [False] * 3 + [True] * 3
        # Still one group of six cells, now drawn one step at a time.
        monkeypatch.setattr(engine, "GROUP_BYTES", 6 * engine._STATE_ARRAYS * 8 * 30 * 6)
        assert sampler.block_steps(30, 1, 6) == 1
        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive", lambda *a, **k: calls.append(1) or drive(*a, **k))
        stepped = run_cells(spec, cells, **GAUSSIAN_GRID)
        assert len(calls) == 1
        assert all(_same(a, b) for a, b in zip(whole, stepped))


class TestSchemeGrid:
    """Cells that differ in scheme share one uniform stream: each cell of a
    multi-scheme grid has the bits of its scheme run alone."""

    RUN = dict(n=250, replicates=11, seed=5, record_at=(1, 7, 60, 250))

    @staticmethod
    def _cells(spec):
        bias = optimal_bias_scheme(spec)
        schemes = [None, bias, optimal_variance_scheme(spec)]
        cells = [Cell(0.05, mode, scheme)
                 for scheme in schemes for mode in ("bias", "variance", "total")]
        # Far past 2/Tr(H): diverges, and it is the only cell of its scheme
        # object, whose draws then stop.  The spec keeps one bias-opt scheme,
        # so this second object of its ratios is built by atom_scheme.
        cells.append(Cell(50.0, "total", atom_scheme(spec, bias.name, bias.ratios,
                                                     bias.closed_form)))
        return cells

    @pytest.mark.parametrize("residual", [True, False])
    def test_matches_each_scheme_alone(self, residual, monkeypatch):
        spec = make_discrete(3, 9, 61, residual=residual)
        cells = self._cells(spec)
        drawn = []
        block = engine._Sampler.block

        def spy(self, *args, **kwargs):
            drawn.append(len(args[5]))
            return block(self, *args, **kwargs)

        monkeypatch.setattr(engine._Sampler, "block", spy)
        monkeypatch.setattr(engine._Sampler, "block_steps", lambda self, reps, schemes, cells: 10)
        grid = run_cells(spec, cells, **self.RUN)
        assert grid[-1].diverged and not any(t.diverged for t in grid[:-1])
        assert drawn[0] == 4 and drawn[-1] == 3
        for cell, traj in zip(cells, grid):
            assert _same(traj, run_cells(spec, [cell], **self.RUN)[0])
            _assert_matches_oracle(traj, spec, cell, self.RUN)

    def test_grouping_and_block_length_never_change_bits(self, monkeypatch):
        spec = make_discrete(3, 9, 61, residual=False)
        cells = self._cells(spec)
        whole = run_cells(spec, cells, **self.RUN)
        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive", lambda *a, **k: calls.append(1) or drive(*a, **k))
        # Two cells per group, and blocks of a single step.
        monkeypatch.setattr(engine, "GROUP_BYTES", 2 * engine._STATE_ARRAYS * 8 * 11 * 3)
        grouped = run_cells(spec, cells, **self.RUN)
        assert len(calls) == 5
        assert all(_same(a, b) for a, b in zip(whole, grouped))

    @pytest.mark.parametrize("steps", [1, 10])
    @pytest.mark.parametrize("residual", [True, False])
    def test_drawing_ahead_under_fast_switching(self, residual, steps, monkeypatch):
        """The worker may draw for the lone scheme after its cell has left,
        and still every cell keeps the oracle's bits.  The lone scheme goes
        first, so dropping it moves every other scheme's row in later
        blocks, and the threads switch often, so a buffer redrawn while it
        is read would show."""
        spec = make_discrete(3, 9, 61, residual=residual)
        cells = self._cells(spec)
        cells = cells[-1:] + cells[:-1]
        monkeypatch.setattr(engine._Sampler, "block_steps", lambda self, reps, schemes, cells: steps)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grid = run_cells(spec, cells, **self.RUN)
        finally:
            sys.setswitchinterval(interval)
        assert grid[0].diverged and not any(t.diverged for t in grid[1:])
        for cell, traj in zip(cells, grid):
            _assert_matches_oracle(traj, spec, cell, self.RUN)

    def test_gaussian_spec_refuses_resampled_cells(self):
        spec = rotated_gaussian()
        with pytest.raises(engine.SchemeError):
            run_cells(spec, [Cell(0.15), Cell(0.15, scheme=optimal_bias_scheme(spec))], 20,
                      replicates=3)

    def test_one_scheme_per_config(self):
        """Each cell draws under its own scheme: swapping the schemes of two
        cells swaps their trajectories."""
        spec = make_discrete(3, 9, 61, residual=True)
        run = dict(n=20, replicates=3)
        bias_opt = optimal_bias_scheme(spec)
        cells = [Cell(0.05, scheme=bias_opt), Cell(0.05)]
        grid = run_cells(spec, cells, **run)
        swapped = run_cells(spec, [Cell(0.05), Cell(0.05, scheme=bias_opt)], **run)
        assert _same(grid[0], swapped[1]) and _same(grid[1], swapped[0])
        assert not np.array_equal(grid[0].risk, grid[1].risk)
        for cell, traj in zip(cells, grid):
            _assert_matches_oracle(traj, spec, cell, run)
