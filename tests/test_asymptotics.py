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
)
from avlms.asymptotics import _geom_sum, _pair_sum
from avlms.cli import parse_spec_descriptor
from avlms.moments import leverage_resampled_moments, norm_resampled_moments
from conftest import full_battery, make_discrete, make_empirical
from oracles import apply as op_apply
from oracles import (
    SymOperator,
    contraction_generator,
    dense_fourth_moment,
    left_right_operator,
    original_fourth_moment,
    with_dense_frame,
)

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


def dp_bias(spec, moments, gamma, n, t_op=None):
    """Second-moment recursion using only one-step applications of the dense
    operator built from ``spec`` (or of ``t_op``, a dense T(gamma))."""
    d = moments.dim
    t_op = contraction_generator(spec, gamma) if t_op is None else t_op
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


def dp_variance(spec, moments, gamma, n, t_op=None):
    d = moments.dim
    t_op = contraction_generator(spec, gamma) if t_op is None else t_op
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
            np.testing.assert_allclose(np.sort(CovarianceModel(m, g).tau), ref, rtol=1e-12,
                                       atol=0)
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


BLOCK_SPECS = [(name, spec) for name, spec in full_battery() if name.startswith("gauss")] + [
    ("rotated-gauss", NON_DIAGONAL[0][1]),
    ("rotated-gauss-40", rotated_gaussian_spec(40, 43)),
]
GAUSSIAN_FORMS = {"plain": compute_moments, "leverage": leverage_resampled_moments,
                  "norm": norm_resampled_moments}


@pytest.mark.parametrize("form", list(GAUSSIAN_FORMS))
@pytest.mark.parametrize("name,spec", BLOCK_SPECS, ids=[n for n, _ in BLOCK_SPECS])
class TestBlockFrame:
    """The d x d block and scalars of every Gaussian form against the
    all-block frame of the same fourth moment, written out by
    ``frame.fourth_moment()``."""

    def test_spectra_and_threshold_match_dense_frame(self, name, spec, form):
        m = GAUSSIAN_FORMS[form](spec)
        dense = with_dense_frame(m)
        assert m.frame.t_eigenpairs(1.0).k == spec.dim
        assert dense.frame.t_eigenpairs(1.0).k == m.basis.size
        g_max = gamma_max(dense)
        assert abs(gamma_max(m) / g_max - 1.0) < 1e-12
        for frac in (0.05, 0.5, 0.95):
            g = frac * g_max
            np.testing.assert_allclose(np.sort(m.frame.t_eigenpairs(g).tau),
                                       np.sort(dense.frame.t_eigenpairs(g).tau), rtol=1e-13, atol=0)
            np.testing.assert_allclose(np.sort(m.frame.t_eigenvalues(g)),
                                       np.sort(dense.frame.t_eigenvalues(g)), rtol=1e-13, atol=0)

    def test_closed_forms_match_dense_frame(self, name, spec, form):
        """From n = 50 on the two frames agree to 1e-12.  Below it both
        carry the cancellation of leading-plus-remainder, so each is held to
        the recursion's tolerance of TestDenseOracle instead.  At d = 40
        that tolerance holds from n = 17; at n <= 3 both frames miss it by
        up to 1.2e-11, for the same cause."""
        m = GAUSSIAN_FORMS[form](spec)
        dense = with_dense_frame(m)
        g = 0.5 * gamma_max(dense)
        block_model, dense_model = CovarianceModel(m, g), CovarianceModel(dense, g)
        for n in (50, 90, 1000, 100_000):
            for method in ("bias_exact", "variance_exact", "bias_leading", "variance_leading"):
                got, ref = getattr(block_model, method)(n), getattr(dense_model, method)(n)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (method, n)
        lr = left_right_operator(m.hmat, m.basis).matrix
        t_op = SymOperator(m.basis, lr - g * original_fourth_moment(m).matrix)
        for n in ((17,) if spec.dim > 7 else (2, 17)):
            for method, dp, src in (("bias_exact", dp_bias, m.e0),
                                    ("variance_exact", dp_variance, m.sigma0)):
                ref = dp(spec, m, g, n, t_op)
                scale = max(np.abs(ref).max(), np.abs(src).max())
                for model in (block_model, dense_model):
                    assert np.abs(getattr(model, method)(n) - ref).max() < 1e-12 * scale, n


RISK_SPECS = full_battery() + [("rotated-gauss", NON_DIAGONAL[0][1]),
                               ("rotated-gauss-40", rotated_gaussian_spec(40, 43))]


@pytest.mark.parametrize("frame", ["own", "dense"])
class TestRisks:
    """``risks`` reads the four risks from the d diagonal H-eigen
    coordinates; on the spec's own frame and on the all-block frame it
    matches the risks of the model's full matrices."""

    @staticmethod
    def _moments(spec, frame):
        m = compute_moments(spec)
        return with_dense_frame(m) if frame == "dense" else m

    def test_match_full_matrices(self, frame):
        """From n = 50 on, to 1e-12 relative, at three step-sizes."""
        for name, spec in RISK_SPECS:
            m = self._moments(spec, frame)
            for frac in (0.1, 0.5, 0.95):
                model = CovarianceModel(m, frac * gamma_max(m))
                schedule = (50, 317, 10_000)
                for n, risks in zip(schedule, model.risks(schedule)):
                    for got, mat in ((risks.bias_exact, model.bias_exact(n)),
                                     (risks.bias_leading, model.bias_leading(n)),
                                     (risks.variance_exact, model.variance_exact(n)),
                                     (risks.variance_leading, model.variance_leading(n))):
                        want = excess_risk(m, mat)
                        assert abs(got - want) <= 1e-12 * abs(want), (name, frac, n)

    def test_match_recursion_at_small_n(self, frame):
        """Below n = 50 the risks hold the recursion to the tolerance of
        TestDenseOracle, carried through Tr(H .)."""
        for name, spec in NON_DIAGONAL:
            m = self._moments(spec, frame)
            g = 0.5 * gamma_max(m)
            risks = CovarianceModel(m, g).risks((2, 17))
            for n, r in zip((2, 17), risks):
                for got, ref, src in ((r.bias_exact, dp_bias(spec, m, g, n), m.e0),
                                      (r.variance_exact, dp_variance(spec, m, g, n), m.sigma0)):
                    scale = max(np.abs(ref).max(), np.abs(src).max())
                    tol = 1e-12 * scale * np.abs(m.hmat).sum()
                    assert abs(got - excess_risk(m, ref)) < tol, (name, n)

    def test_unstable_and_singular_fields(self, frame):
        """Beyond the threshold the leading risks are None and the exact ones
        stay; at the threshold T is singular and the exact variance is None
        too.  The exact bias risk still equals that of its matrix."""
        m = self._moments(rotated_gaussian_spec(5, 44), frame)
        g_max = gamma_max(m)
        for g, invertible in ((1.5 * g_max, True), (g_max, False)):
            model = CovarianceModel(m, g)
            for n, r in zip((1, 2, 60), model.risks((1, 2, 60))):
                assert r.bias_leading is None and r.variance_leading is None
                assert (r.variance_exact is not None) == invertible == model.t_invertible
                want = excess_risk(m, model.bias_exact(n))
                assert abs(r.bias_exact - want) <= 1e-12 * abs(want)

    def test_first_iterate(self, frame):
        m = self._moments(rotated_gaussian_spec(4, 45), frame)
        (r,) = CovarianceModel(m, 0.5 * gamma_max(m)).risks([1])
        assert r.bias_exact == excess_risk(m, m.e0) and r.variance_exact == 0.0


def geom_sum_one(a, n):
    """One horizon of ``_geom_sum``, as it was evaluated per horizon: the
    reference for the horizon axis."""
    a = np.asarray(a, dtype=float)
    u = 1.0 - a
    out = np.full(a.shape, float(n))
    pos = (a > 0.0) & (u != 0.0)
    rest = (a <= 0.0) & (u != 0.0)
    if np.any(pos):
        up = u[pos]
        out[pos] = -np.expm1(n * np.log1p(-up)) / up
    if np.any(rest):
        out[rest] = (1.0 - a[rest] ** n) / u[rest]
    return out


def pair_sum_one(a, b, n):
    """One horizon of ``_pair_sum``, as it was evaluated per horizon."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if n == 1:
        return a.copy()
    swap = np.abs(b) > np.abs(a)
    hi = np.where(swap, b, a)
    lo = np.where(swap, a, b)
    inner = np.zeros_like(hi)
    nz = hi != 0.0
    ratio = np.zeros_like(hi)
    ratio[nz] = lo[nz] / hi[nz]
    inner[nz] = hi[nz] ** (n - 1) * geom_sum_one(ratio[nz], n)
    return a * inner


def risk_bits(risks):
    """Every field of a list of Risks as exact text, None kept."""
    return [tuple(None if v is None else float(v).hex() for v in vars(r).values())
            for r in risks]


# T(2.0) of this spec is singular; T(1.0) is past the threshold.
SINGULAR_AT_2 = "gaussian:d=5,spectrum=1/i,sigma=1"


class TestHorizonSchedule:
    """A schedule of horizons is evaluated in one pass per group, with the
    bits of one horizon at a time."""

    SCHEDULE = (1, 2, 3, 4, 7, 10, 33, 100, 1000, 31623, 10**6, 10**9, 3 * 10**15)

    def test_sums_on_edge_grids(self):
        """a == b (u = 0), hi = 0, negative ratios, n = 1, 2, 3 and overflow
        to inf: every horizon of the batched sums equals the per-horizon
        evaluation bit for bit."""
        rg = np.random.default_rng(7)
        edge = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, 2.0, -3.0, 1.5e150,
                         1.0 - 1e-16, 1.0 + 1e-12, -1.0 + 1e-16, 0.999999])
        a = np.concatenate([edge, rg.uniform(-1.2, 1.2, 300)])[:, None]
        b = np.concatenate([edge, rg.uniform(-1.2, 1.2, 40)])[None, :]
        ns = np.array(self.SCHEDULE, dtype=float)
        # Whole grids, and single entries, whose powers numpy iterates along
        # the horizon axis.
        grids = [(a, b)] + [(a[i], b[:, j]) for i, j in rg.integers(0, 40, (300, 2))]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for a, b in grids:
                pairs, geoms = _pair_sum(a, b, ns), _geom_sum(a, ns)
                for k, n in enumerate(self.SCHEDULE):
                    assert pairs[k].tobytes() == pair_sum_one(a, b, n).tobytes(), n
                    assert geoms[k].tobytes() == geom_sum_one(a, n).tobytes(), n
                    one = ns[k:k + 1]
                    assert pairs[k].tobytes() == _pair_sum(a, b, one)[0].tobytes(), n
            assert np.isinf(_pair_sum(*grids[0], ns)[-1]).any()
            assert np.isinf(_geom_sum(grids[0][0], ns)[-1]).any()

    @pytest.mark.parametrize("frame", ["own", "dense"])
    def test_model_risks_match_per_horizon(self, frame):
        """On the 22-spec battery, a data spec, step-sizes beyond the
        threshold and a singular T, both frames: the risks of a schedule
        equal the per-horizon calls, also when the schedule spans several
        horizon groups."""
        cases = [(spec, None) for _, spec in full_battery()]
        cases.append((make_empirical(8, 300, 808), None))
        cases.append((parse_spec_descriptor(SINGULAR_AT_2), (1.0, 2.0)))
        for spec, gammas in cases:
            m = compute_moments(spec)
            m = with_dense_frame(m) if frame == "dense" else m
            for g in gammas or (0.5 * gamma_max(m),):
                model = CovarianceModel(m, g)
                one = [model.risks([n])[0] for n in self.SCHEDULE]
                assert risk_bits(model.risks(self.SCHEDULE)) == risk_bits(one), g
                model._diag.group = 3
                assert risk_bits(model.risks(self.SCHEDULE)) == risk_bits(one), g


class TestSharedMomentPieces:
    """The step-size-free pieces a MomentSet keeps (its E0 and Sigma0 in H's
    eigenbasis, the H^-1 traces, the Frobenius norms) give every model on
    it the values of a model on a freshly computed MomentSet, bit for bit."""

    @pytest.mark.parametrize("spec", [rotated_gaussian_spec(40, 43), make_empirical(8, 300, 808),
                                      make_discrete(4, 9, 303, residual=False)],
                             ids=["gaussian-40", "empirical-8", "discrete-4"])
    def test_models_on_one_moment_set_match_fresh_ones(self, spec):
        shared = compute_moments(spec)
        g_max = gamma_max(shared)
        schedule = (1, 2, 10, 317, 10**5)
        for g in (0.5 * g_max, 0.05 * g_max):
            model = CovarianceModel(shared, g)
            fresh = CovarianceModel(compute_moments(spec), g)
            assert risk_bits(model.risks(schedule)) == risk_bits(fresh.risks(schedule)), g
            for n in schedule:
                assert (small_gamma_equivalents(shared, g, n)
                        == small_gamma_equivalents(fresh.moments, g, n)), (g, n)
                assert model.bias_remainder_bound(n) == fresh.bias_remainder_bound(n), (g, n)
                assert (model.variance_remainder_bound(n)
                        == fresh.variance_remainder_bound(n)), (g, n)
        for piece in (shared.e0_eigbasis, shared.sigma0_eigbasis):
            assert not piece.flags.writeable

    def test_pieces_are_formed_once_per_moment_set(self, monkeypatch):
        """Two models, their small step-size equivalents and remainder bounds
        make the two H solves once."""
        m = compute_moments(rotated_gaussian_spec(6, 46))
        solves = []
        solve = np.linalg.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        for g in (0.5 * gamma_max(m), 0.05 * gamma_max(m)):
            model = CovarianceModel(m, g)
            model.bias_remainder_bound(10)
            small_gamma_equivalents(m, g, 10)
        assert len(solves) == 2


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
                        model._full.wsurf * model.t_eig.contract(model.sigma0_coords / model.tau)
                    )
                    main_risk = excess_risk(m, main) / n
                    assert lead_risk <= main_risk + 1e-12 * max(1.0, main_risk), (name, frac, n)
                    if g * n * model.mu_t >= 4.0:
                        assert lead_risk >= 0.0, (name, frac, n)


class TestCovarianceReport:
    """What one model answers at one horizon, through its matrix methods, its
    remainder bounds and :meth:`CovarianceModel.risks`, stable or not."""

    def test_stable_report_is_complete(self):
        m = compute_moments(scalar_unit_spec())
        model = CovarianceModel(m, 0.5)
        assert model.stable
        assert model.bias_leading(100).shape == model.variance_leading(100).shape == (1, 1)
        risks = model.risks([100])[0]
        np.testing.assert_allclose(risks.bias_leading, 4.0 / 100**2, rtol=1e-12)
        assert risks.variance_leading is not None
        assert np.isfinite(model.bias_remainder_bound(100))
        np.testing.assert_allclose(small_gamma_equivalents(m, 0.5, 100)[1], 1.0 / 100,
                                   rtol=1e-12)

    def test_unstable_report_keeps_exact_columns(self):
        m = compute_moments(scalar_unit_spec())
        model = CovarianceModel(m, 2.5)
        risks = model.risks([50])[0]
        assert not model.stable and risks.bias_leading is None
        with pytest.raises(SingularOperatorError):
            model.bias_leading(50)
        assert model.bias_exact(50).shape == (1, 1) and risks.bias_exact is not None
        # T invertible beyond the threshold
        assert model.variance_exact(50).shape == (1, 1) and risks.variance_exact is not None

    def test_report_at_exactly_singular_generator(self):
        """At the threshold itself T is singular: the exact bias is still
        evaluated, the exact and leading variance are absent."""
        m = compute_moments(scalar_unit_spec())
        model = CovarianceModel(m, gamma_max(m))
        risks = model.risks([20])[0]
        assert np.isfinite(model.bias_exact(20)).all() and np.isfinite(risks.bias_exact)
        assert risks.variance_exact is None and risks.variance_leading is None
        for method in (model.variance_exact, model.variance_leading):
            with pytest.raises(SingularOperatorError):
                method(20)
