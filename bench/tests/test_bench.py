"""Tests of the benchmark itself: output checks, seeded inputs, span arithmetic.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())
EIG40 = [1.0 / i for i in range(1, 41)]
TRACE40 = sum(EIG40)
HFROB40 = sum(e * e for e in EIG40) ** 0.5


def as_text_rows(ref_rows):
    """Reference rows as ``parse_csv`` returns them: every cell a string."""
    return [{k: repr(v) for k, v in row.items()} for row in ref_rows]


@pytest.fixture
def predict_rows():
    return as_text_rows(REFERENCE["predict"][0])


def closed_form_failures(rows):
    return (checks.check_sandwich(rows, HFROB40, "predict")
            + checks.check_reference(rows, REFERENCE["predict"][0],
                                     REFERENCE["predict_columns"], "predict"))


class TestClosedFormChecks:
    def test_stored_outputs_pass(self, predict_rows):
        assert closed_form_failures(predict_rows) == []
        g = [{"scheme": "uniform", "gamma_max": repr(REFERENCE["gamma_max"]["gamma_max"]),
              "trace_bound": repr(2 / TRACE40), "gamma_max_det": "2"}]
        assert checks.check_gamma_max(g, TRACE40, 1.0, "gamma-max") == []

    def test_perturbed_bias_exact_cell_fails_reference(self, predict_rows):
        row = predict_rows[12]
        row["bias_exact"] = repr(float(row["bias_exact"]) * (1 + 1e-6))
        fails = closed_form_failures(predict_rows)
        assert any("bias_exact" in f and "reference" in f for f in fails)

    def test_perturbed_bias_exact_cell_fails_sandwich(self, predict_rows):
        # At n=1e5 the remainder bound is ~1e-210: exact must equal leading.
        row = predict_rows[-1]
        row["bias_exact"] = repr(float(row["bias_exact"]) * (1 + 1e-9))
        fails = checks.check_sandwich(predict_rows, HFROB40, "predict")
        assert len(fails) == 1 and "bias exact - leading" in fails[0]

    def test_other_seeds_compare_seed_free_columns_only(self, predict_rows):
        for row in predict_rows:
            row["bias_exact"] = repr(float(row["bias_exact"]) * 2)
        seed_free = ["n", "variance_exact", "variance_leading", "variance_bound",
                     "small_gamma_variance"]
        assert checks.check_reference(predict_rows, REFERENCE["predict"][0], seed_free,
                                      "predict") == []


class TestThresholdChecks:
    def test_gamma_max_above_trace_bound_fails(self):
        bound = 2 / TRACE40
        ok = [{"scheme": "uniform", "gamma_max": repr(bound * (1 - 1e-3))},
              {"scheme": "bias-opt", "gamma_max": repr(bound)}]
        assert checks.check_gamma_max(ok, TRACE40, 1.0, "t") == []
        above = [{"scheme": "uniform", "gamma_max": repr(bound * (1 + 1e-9))}]
        fails = checks.check_gamma_max(above, TRACE40, 1.0, "t")
        assert len(fails) == 1 and "above 2/Tr(H)" in fails[0]

    def test_bias_opt_below_trace_bound_fails(self):
        low = [{"scheme": "bias-opt", "gamma_max": repr(2 / TRACE40 * (1 - 7e-4))}]
        fails = checks.check_gamma_max(low, TRACE40, 1.0, "t")
        assert len(fails) == 1 and "is not 2/Tr(H)" in fails[0]

    def test_monte_carlo_bias_opt_miss_is_a_known_defect(self):
        bound = 2 / TRACE40
        rows = [{"scheme": "uniform", "gamma_max": repr(bound * (1 - 1e-3))},
                {"scheme": "bias-opt", "gamma_max": repr(bound * (1 + 1.2e-3))}]
        known = []
        assert checks.check_gamma_max(rows, TRACE40, 1.0, "t", known=known) == []
        assert len(known) == 2 and "above 2/Tr(H)" in known[0] and "is not" in known[1]
        # without the declaration the same rows fail both checks
        assert len(checks.check_gamma_max(rows, TRACE40, 1.0, "t")) == 2

    def test_larger_monte_carlo_miss_still_fails(self):
        bound = 2 / TRACE40
        far = [{"scheme": "bias-opt", "gamma_max": repr(bound * (1 + 1e-2))}]
        known = []
        assert len(checks.check_gamma_max(far, TRACE40, 1.0, "t", known=known)) == 2
        assert known == []
        # the declaration covers bias-opt only
        other = [{"scheme": "uniform", "gamma_max": repr(bound * (1 + 1e-3))}]
        assert len(checks.check_gamma_max(other, TRACE40, 1.0, "t", known=known)) == 1
        assert known == []

    def test_program_bounds_must_match(self):
        row = {"scheme": "uniform", "gamma_max": "0.1", "trace_bound": repr(2 / TRACE40),
               "gamma_max_det": "1.9"}
        fails = checks.check_gamma_max([row], TRACE40, 1.0, "t")
        assert len(fails) == 1 and "gamma_max_det" in fails[0]

    def test_ingest_report(self):
        text = f"rows: 20000\ndim: 30\ntrace_h: {6.5!r}\n"
        assert checks.check_ingest(text, 20000, 30, 6.5) == []
        assert len(checks.check_ingest(text, 20000, 31, 6.5 * (1 + 1e-9))) == 2


def run_rows(closed_forms, n_max, shift=0.0):
    rows = []
    for gamma, (bias, variance) in closed_forms.items():
        for mode, want in (("bias", bias), ("variance", variance), ("total", bias + variance)):
            err = 0.01 * want
            rows.append({"n": str(n_max), "gamma": repr(gamma), "scheme": "uniform",
                         "mode": mode, "risk": repr(want + shift * err), "stderr": repr(err),
                         "flag": ""})
    return rows


class TestSimulateChecks:
    CF = {0.07: (0.002, 0.0025), 0.007: (0.05, 0.0026)}

    def test_close_risks_pass(self):
        assert checks.check_run(run_rows(self.CF, 10_000, shift=4.9), self.CF, 10_000) == []

    def test_injected_diverged_row_fails(self):
        rows = run_rows(self.CF, 10_000)
        rows.append({"n": "812", "gamma": "0.07", "scheme": "uniform", "mode": "bias",
                     "risk": "", "stderr": "", "flag": "diverged"})
        fails = checks.check_run(rows, self.CF, 10_000)
        assert len(fails) == 1 and "diverged" in fails[0]

    def test_risk_far_from_closed_form_fails(self):
        fails = checks.check_run(run_rows(self.CF, 10_000, shift=5.1), self.CF, 10_000)
        assert len(fails) == 6

    def test_sampling_gains(self):
        bound = 2 / 6.5
        rows = [{"scheme": s, "gamma_max": repr(g), "variance_gain": repr(v)}
                for s, g, v in (("uniform", 0.17, 1.0), ("bias-opt", bound, 0.74),
                                ("variance-opt", 0.0138, 0.41))]
        assert checks.check_sampling(rows, 6.5, 0.8) == []
        rows[2]["variance_gain"] = "0.8"
        fails = checks.check_sampling(rows, 6.5, 0.8)
        assert len(fails) == 1 and "above bias-opt" in fails[0]

    def test_svg_polylines(self):
        svg = ('<svg xmlns="http://www.w3.org/2000/svg">'
               + '<polyline points="0,0 1,1"/>' * 6 + "</svg>")
        assert checks.check_svg(svg, 6) == []
        assert len(checks.check_svg(svg, 5)) == 1
        assert len(checks.check_svg(svg[:-3], 6)) == 1


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert inputs.write_data(str(a), 3) == inputs.write_data(str(b), 3)
    inputs.write_data(str(c), 4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert inputs.gaussian_spec(25, 3) == "gaussian:d=25,spectrum=1/i,sigma=1,seed=3"


class TestSpans:
    # op [0,10] > cli.main [1,9] > (moments.compute_moments [2,5] > kernel.einsum [3,4]),
    #                              kernel.eigh [6,8] on an order-10 matrix
    TREE = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["cli.main", 1.0, 9.0, 0, 0, None],
        ["moments.compute_moments", 2.0, 5.0, 1, 0, {"D": 10}],
        ["kernel.einsum", 3.0, 4.0, 2, 0, None],
        ["kernel.eigh", 6.0, 8.0, 1, 0, {"order": 10}],
    ]

    def test_self_times_of_hand_built_tree(self):
        assert spans.self_times(self.TREE) == [2.0, 3.0, 2.0, 1.0, 2.0]

    def test_layer_metrics_of_hand_built_tree(self):
        m = spans.op_metrics(self.TREE)[0]
        assert m["cli.self_s"] == 5.0  # op root plus cli.main
        assert m["moments.self_s"] == 2.0
        assert m["kernel.self_s"] == 3.0
        assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0
        assert m["moments.compute_moments.s"] == 3.0
        assert m["kernel.eigensolve.calls"] == 1 and m["kernel.eigensolve.s"] == 2.0
        assert m["operators.max_D"] == 10

    def test_nested_same_name_counts_time_once(self):
        tree = [["op", 0.0, 4.0, -1, 0, None],
                ["stepsize.gamma_max", 0.0, 4.0, 0, 0, None],
                ["stepsize.gamma_max", 1.0, 3.0, 1, 0, None],
                ["kernel.eigh", 1.5, 2.0, 2, 0, {"order": 3}]]
        m = spans.op_metrics(tree)[0]
        assert m["stepsize.gamma_max.s"] == 4.0 and m["stepsize.gamma_max.calls"] == 2
        # no operator was built, so no eigensolve counts as one on T
        assert m.get("kernel.eigensolve.calls", 0) == 0

    def test_summarize_takes_median_over_ops(self):
        tree = [["op", 0.0, 1.0, -1, op, None] for op in range(3)]
        tree[2][2] = 5.0
        assert spans.summarize(tree, ["cli.self_s", "svg.self_s"]) == {
            "cli.self_s": 1.0, "svg.self_s": 0.0}

    def test_install_binds_every_namespace_and_uninstall_restores(self):
        from avlms import cli, dataio, stepsize

        originals = (cli.main, cli.ingest, dataio.ingest, stepsize.gamma_max)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            assert cli.ingest is dataio.ingest and cli.ingest is not originals[1]
            with tracer.op_span(0):
                assert cli.main(["gamma-max", "--spec", "gaussian:d=3", "--out", "-"]) == 0
        finally:
            tracer.uninstall()
        assert (cli.main, cli.ingest, dataio.ingest, stepsize.gamma_max) == originals
        names = {s[0] for s in tracer.spans}
        assert {"op", "cli.main", "moments.compute_moments", "stepsize.gamma_max",
                "kernel.scipy_eigh"} <= names
        m = spans.op_metrics(tracer.spans)[0]
        assert m["operators.max_D"] == 6 and m["kernel.eigensolve.calls"] >= 1
