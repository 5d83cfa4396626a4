"""Command-line surface: ingestion, CSV emission, plotting, exit codes."""

import numpy as np
import pytest

from avlms import compute_moments
from avlms.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from avlms.dataio import DataFormatError, export_csv, ingest
from oracles import original_fourth_moment


@pytest.fixture()
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1,0,1\n0,1,0\n")
    return str(path)


class TestIngest:
    def test_two_row_csv(self, tiny_csv):
        """Features (1,0) and (0,1): the second moment is I/2."""
        spec, report = ingest(tiny_csv, "csv-dense")
        assert report.dim == 2 and report.rows == 2
        m = compute_moments(spec)
        np.testing.assert_allclose(m.hmat, np.eye(2) / 2.0, atol=1e-15)
        assert report.class_counts == {0.0: 1, 1.0: 1}

    def test_libsvm_with_declared_dimension(self, tmp_path):
        path = tmp_path / "row.svm"
        path.write_text("1 3:0.5\n-1 1:1 2:0.25\n0.5 1:1 3:1\n")
        spec, report = ingest(str(path), "libsvm-sparse", dim=3)
        np.testing.assert_array_equal(spec.design.xs[0], [0.0, 0.0, 0.5])
        assert spec.design.ys[0] == 1.0
        assert report.dim == 3

    def test_libsvm_infers_dimension(self, tmp_path):
        path = tmp_path / "row.svm"
        path.write_text("1 1:1 2:1\n0 2:2\n1 1:0.5 2:-1 4:2\n-1 3:1\n")
        _, report = ingest(str(path), "libsvm")
        assert report.dim == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            ingest(str(path), "csv-dense")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n1,x,3\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ingest(str(path), "csv-dense")

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n1,2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ingest(str(path), "csv-dense")

    def test_round_trip_preserves_moments(self, tmp_path):
        rg = np.random.default_rng(31)
        xs = rg.standard_normal((40, 3))
        ys = xs @ [1.0, -0.5, 2.0] + rg.standard_normal(40)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            for x, y in zip(xs, ys):
                fh.write(",".join(f"{v:.17g}" for v in x) + f",{y:.17g}\n")
        spec, _ = ingest(str(path), "csv-dense")
        out = tmp_path / "copy.csv"
        export_csv(spec, str(out))
        spec2, _ = ingest(str(out), "csv-dense")
        m1, m2 = compute_moments(spec), compute_moments(spec2)
        np.testing.assert_allclose(m1.hmat, m2.hmat, atol=1e-12)
        np.testing.assert_allclose(m1.sigma0, m2.sigma0, atol=1e-12)
        np.testing.assert_allclose(original_fourth_moment(m1).matrix,
                                   original_fourth_moment(m2).matrix, atol=1e-12)


    def test_whole_file_parse_skips_comments_and_blank_lines(self, tmp_path, monkeypatch):
        """Comment, blank and whitespace-only lines and CRLF endings take the
        one-pass parse (the line loop is not entered), and every value is
        Python's float() of its field."""
        import avlms.dataio

        rg = np.random.default_rng(2)
        values = rg.standard_normal(12) * 10.0 ** rg.integers(-300, 300, 12)
        fields = [repr(float(v)) for v in values[:6]] + [f"{v:.17g}" for v in values[6:]]
        fields += ["5e-324", "-0", "1e400", "-inf", " 2.5 ", "+.5", "1.", "7"]
        rows = [fields[k:k + 4] for k in range(0, len(fields), 4)]
        text = "# header\r\n\r\n" + "".join(
            ",".join(r) + ("\r\n\n   \n  # indented\n" if k == 1 else "\r\n")
            for k, r in enumerate(rows))
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())

        def refuse(path):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(avlms.dataio, "_parse_csv_lines", refuse)
        xs, ys = avlms.dataio._parse_csv(str(path))
        want = np.array([[float(v) for v in r] for r in rows])
        assert np.array_equal(xs, want[:, :-1]) and np.array_equal(ys, want[:, -1])
        assert xs.flags.c_contiguous and ys.flags.c_contiguous

    @pytest.mark.parametrize("text, line, match", [
        ("# c\n\n1,2,3\n  \n1,2\n", 5, "columns"),
        ("# c\n1,2,3\n\n# d\n1,x,3\n", 5, "could not convert"),
        ("1,2\n3,4 # note\n", 2, "could not convert"),
        ("# c\n\n7\n8\n", 3, "at least one feature"),
    ])
    def test_parse_failures_keep_line_numbers(self, tmp_path, text, line, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match) as err:
            ingest(str(path), "csv-dense")
        assert f"line {line}" in str(err.value)

    def test_comments_only_file_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# nothing\n\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            ingest(str(path), "csv-dense")


class TestCommands:
    def test_gamma_max_csv(self, tmp_path, capsys):
        out = tmp_path / "gm.csv"
        rc = main(["gamma-max", "--spec", "gaussian:d=5", "--scheme", "uniform",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scheme,gamma_max,gamma_max_det,trace_bound,mu,mu_T_at_half_gamma_max"
        row = lines[1].split(",")
        assert row[0] == "uniform"
        np.testing.assert_allclose(float(row[1]), 2.0 / 7.0, atol=1e-12)
        assert float(row[1]) <= float(row[3]) <= float(row[2])

    def test_gamma_max_scheme_ordering_on_data(self, tmp_path):
        rg = np.random.default_rng(7)
        xs = rg.standard_normal((30, 2)) * rg.uniform(0.5, 2.0, (30, 1))
        ys = xs @ [1.0, -1.0] + 0.3 * rg.standard_normal(30)
        data = tmp_path / "d.csv"
        with open(data, "w") as fh:
            for x, y in zip(xs, ys):
                fh.write(f"{x[0]:.17g},{x[1]:.17g},{y:.17g}\n")
        out = tmp_path / "gm.csv"
        rc = main(["gamma-max", "--data", str(data), "--scheme", "uniform",
                   "--scheme", "bias-opt", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        got = {r[0]: float(r[1]) for r in rows}
        assert got["uniform"] <= got["bias-opt"] + 1e-12
        # the norm-proportional scheme achieves 2/E[X^T X] = 2/Tr(H)
        trace_bound = float(rows[0][3])
        np.testing.assert_allclose(got["bias-opt"], trace_bound, rtol=1e-10)

    def test_gaussian_bias_opt_reaches_trace_bound(self, capsys):
        rc = main(["gamma-max", "--spec", "gaussian:d=25", "--scheme", "bias-opt"])
        assert rc == EXIT_OK
        row = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
        got, bound = float(row["gamma_max"]), float(row["trace_bound"])
        assert abs(got - bound) <= 1e-12 * bound

    def test_one_fourth_moment_gram_per_moment_set(self, tmp_path, monkeypatch):
        """gamma-max and sampling over three schemes on data build the atoms'
        rank-one coordinates once and three weighted atom Grams on them: the
        uniform moments, then one per resampled scheme."""
        import avlms.moments
        import avlms.operators

        rg = np.random.default_rng(8)
        xs = rg.standard_normal((40, 3)) * rg.uniform(0.5, 2.0, (40, 1))
        ys = xs @ [1.0, -1.0, 0.5] + 0.3 * rg.standard_normal(40)
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(f"{v:.17g}" for v in (*x, y)) + "\n"
                                for x, y in zip(xs, ys)))
        builds, grams = [], []
        original = avlms.operators._rank_one_coords
        gram = avlms.moments.fourth_moment_operator_from_samples

        def counting(xs, basis):
            builds.append(xs.shape)
            return original(xs, basis)

        def counting_gram(*args, **kwargs):
            grams.append(kwargs["coords"])
            return gram(*args, **kwargs)

        monkeypatch.setattr(avlms.operators, "_rank_one_coords", counting)
        monkeypatch.setattr(avlms.moments, "_rank_one_coords", counting)
        monkeypatch.setattr(avlms.moments, "fourth_moment_operator_from_samples", counting_gram)
        schemes = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]
        for argv in (["gamma-max", "--data", str(data), *schemes],
                     ["sampling", "--data", str(data), *schemes, "--n-max", "50",
                      "--points", "2", "--replicates", "10",
                      "--out", str(tmp_path / "s.csv")]):
            builds.clear()
            grams.clear()
            assert main(argv) == EXIT_OK
            assert builds == [(40, 3)]
            assert len(grams) == 3
            assert all(coords is grams[0] for coords in grams)

    def test_run_csv_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["run", "--spec", "gaussian:d=2,sigma=1,w0=ones", "--gamma", "0.2",
                "--n-max", "200", "--points", "4", "--replicates", "20",
                "--mode", "all", "--seed", "5"]
        assert main(base + ["--out", str(out1)]) == EXIT_OK
        assert main(base + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "n,gamma,scheme,mode,risk,stderr,flag"

    def test_run_full_precision_decimal_format(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["run", "--spec", "gaussian:d=2,sigma=1,w0=ones", "--gamma", "0.2",
              "--n-max", "50", "--points", "2", "--replicates", "8", "--out", str(out)])
        body = out.read_text()
        assert "," in body and ";" not in body
        risk = body.splitlines()[1].split(",")[4]
        assert "." in risk and float(risk) > 0  # '.' decimal separator, parseable

    def test_predict_matches_library(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["predict", "--spec", "gaussian:d=3,sigma=1,w0=ones,wstar=zeros",
                   "--gamma", "0.2", "--n-max", "100", "--points", "3", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["n", "bias_exact", "bias_leading"]
        from avlms import CovarianceModel, ProblemSpec, excess_risk

        spec = ProblemSpec.gaussian(np.eye(3), w_star=np.zeros(3), w0=np.ones(3), sigma=1.0)
        m = compute_moments(spec)
        last = lines[-1].split(",")
        want = excess_risk(m, CovarianceModel(m, 0.2).bias_exact(int(last[0])))
        np.testing.assert_allclose(float(last[1]), want, rtol=1e-12)

    def test_predict_multiple_gammas_write_suffixed_files(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["predict", "--spec", "gaussian:d=2,sigma=1,w0=ones",
                   "--gamma", "0.1", "--gamma", "0.2", "--n-max", "40",
                   "--points", "2", "--out", str(out)])
        assert rc == EXIT_OK
        assert (tmp_path / "p_g0.csv").exists() and (tmp_path / "p_g1.csv").exists()

    def test_predict_frees_each_gamma_model(self, tmp_path, monkeypatch):
        """No CovarianceModel of an earlier gamma is alive when the next is built."""
        import gc
        import weakref

        from avlms import asymptotics

        built = []
        init = asymptotics.CovarianceModel.__init__

        def tracked(self, *args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in built)
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(asymptotics.CovarianceModel, "__init__", tracked)
        rc = main(["predict", "--spec", "gaussian:d=3,sigma=1", "--gamma", "0.1",
                   "--gamma", "0.2", "--gamma", "0.05", "--n-max", "40", "--points", "3",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_OK and len(built) == 3

    def test_run_with_resampling_scheme(self, tmp_path):
        rg = np.random.default_rng(2)
        xs = rg.standard_normal((25, 2)) * rg.uniform(0.5, 3.0, (25, 1))
        ys = xs @ [1.0, 2.0] + 0.2 * rg.standard_normal(25)
        data = tmp_path / "d.csv"
        with open(data, "w") as fh:
            for x, y in zip(xs, ys):
                fh.write(f"{x[0]:.17g},{x[1]:.17g},{y:.17g}\n")
        out = tmp_path / "r.csv"
        rc = main(["run", "--data", str(data), "--gamma", "0.05", "--scheme", "bias-opt",
                   "--n-max", "100", "--points", "3", "--replicates", "20",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert all(r[2] == "bias-opt" for r in rows)
        assert all(float(r[4]) >= 0 for r in rows)

    def test_predict_unstable_gamma_warns_and_keeps_exact(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = main(["predict", "--spec", "gaussian:d=2,sigma=1,w0=ones",
                   "--gamma", "5.0", "--n-max", "20", "--points", "2", "--out", str(out)])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "threshold" in err and "singular" not in err  # T is invertible at 5.0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert all(r[2] == "" and r[3] == "" for r in rows)  # leading columns empty
        assert all(r[1] != "" for r in rows)  # exact bias still emitted

    def test_predict_singular_gamma_warns_about_variance_column(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = main(["predict", "--spec", "gaussian:d=5,spectrum=1/i,sigma=1", "--gamma", "2.0",
                   "--n-max", "50", "--points", "3", "--out", str(out)])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "gamma=2 makes T singular; the variance_exact column is left empty" in err
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert all(r[4] == "" for r in rows) and all(r[1] != "" for r in rows)

    def test_sampling_skips_variance_scheme_on_noiseless_data(self, tmp_path, capsys, tiny_csv):
        out = tmp_path / "s.csv"
        rc = main(["sampling", "--data", tiny_csv, "--n-max", "100", "--points", "2",
                   "--replicates", "30", "--out", str(out)])
        assert rc == EXIT_OK
        assert "variance-opt" in capsys.readouterr().err
        body = out.read_text()
        assert "variance-opt" not in body
        assert body.splitlines()[0].startswith("scheme,variance_gain,gamma_max,predicted_bias_gain")

    def test_sampling_on_gaussian_spec_keeps_closed_form_columns(self, tmp_path, capsys):
        """Resampled schemes cannot be streamed on a Gaussian design: their
        measured columns stay empty with a warning, and the command succeeds."""
        out = tmp_path / "s.csv"
        rc = main(["sampling", "--spec", "gaussian:d=2", "--n-max", "50",
                   "--replicates", "5", "--out", str(out)])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "'bias-opt'" in err and "'variance-opt'" in err and "'uniform'" not in err
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["uniform", "bias-opt", "variance-opt"]
        for r in rows:
            assert all(v != "" for v in r[1:4])
            assert all((v == "") == (r[0] != "uniform") for v in r[4:])

    def test_one_engine_call_per_spec(self, tmp_path, monkeypatch, capsys):
        """sampling and run step every scheme on the data in one lockstep
        engine call; class weighting changes the spec and gets its own."""
        from avlms import engine

        rg = np.random.default_rng(8)
        xs = rg.standard_normal((40, 3)) * rg.uniform(0.5, 2.0, (40, 1))
        ys = (xs @ [1.0, -1.0, 0.5] + 0.3 * rg.standard_normal(40) > 0).astype(float)
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(f"{v:.17g}" for v in (*x, y)) + "\n"
                                for x, y in zip(xs, ys)))
        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive",
                            lambda spec, configs, *a, **k: calls.append(len(configs))
                            or drive(spec, configs, *a, **k))
        schemes = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]
        small = ["--n-max", "60", "--points", "3", "--replicates", "6"]
        for argv, cells in (
            (["sampling", *schemes], [3]),
            (["run", "--scheme", "uniform", "--scheme", "bias-opt", "--mode", "all",
              "--gamma", "0.02", "--gamma", "0.004"], [12]),
            (["run", *schemes, "--scheme", "class-weighted", "--gamma", "0.02"], [3, 1]),
        ):
            calls.clear()
            out = tmp_path / "o.csv"
            assert main([*argv, "--data", str(data), *small, "--out", str(out)]) == EXIT_OK
            assert calls == cells
        capsys.readouterr()

    def test_gaussian_sampling_runs_uniform_alone(self, tmp_path, monkeypatch, capsys):
        from avlms import engine

        calls = []
        drive = engine._drive
        monkeypatch.setattr(engine, "_drive",
                            lambda spec, configs, *a, **k: calls.append(len(configs))
                            or drive(spec, configs, *a, **k))
        rc = main(["sampling", "--spec", "gaussian:d=3", "--n-max", "50", "--replicates", "5",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK and calls == [1]
        err = capsys.readouterr().err.splitlines()
        assert [ln.split("'")[1] for ln in err if "not simulated" in ln] == [
            "bias-opt", "variance-opt"]

    def test_run_warns_once_per_diverged_cell(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["run", "--spec", "gaussian:d=2,sigma=1,w0=ones", "--gamma", "0.2",
                   "--gamma", "3", "--mode", "all", "--n-max", "200", "--points", "4",
                   "--replicates", "10", "--out", str(out)])
        assert rc == EXIT_OK
        warned = [ln for ln in capsys.readouterr().err.splitlines() if "diverged" in ln]
        flagged = [ln.split(",") for ln in out.read_text().splitlines() if ln.endswith(",diverged")]
        assert len(warned) == len(flagged) == 3
        for line, row in zip(warned, flagged):
            assert "gamma=3 " in line and f"mode={row[3]} " in line
            assert f"at n={row[0]} " in line and "replicate " in line and "norm " in line

    def test_manifest_supplies_defaults_and_flags_override(self, tmp_path):
        manifest = tmp_path / "m.cfg"
        manifest.write_text(
            "spec = gaussian:d=2,sigma=1,w0=ones\n"
            "gamma = 0.2\n"
            "n-max = 60\n"
            "points = 2\n"
            "replicates = 10\n"
            "seed = 9\n"
        )
        out1 = tmp_path / "m1.csv"
        assert main(["run", "--manifest", str(manifest), "--out", str(out1)]) == EXIT_OK
        out2 = tmp_path / "m2.csv"
        assert main(["run", "--manifest", str(manifest), "--replicates", "11",
                     "--out", str(out2)]) == EXIT_OK
        assert out1.read_text() != out2.read_text()  # flag overrides the manifest

    def test_ingest_command_prints_report(self, tiny_csv, capsys):
        assert main(["ingest", "--data", tiny_csv]) == EXIT_OK
        text = capsys.readouterr().out
        assert "rows: 2" in text and "trace_h: 1" in text


class TestPlot:
    def test_axes_only_for_empty_series(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("n,gamma,scheme,mode,risk,stderr,flag\n")
        out = tmp_path / "empty.svg"
        assert main(["plot", str(csv), "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        assert body.startswith("<svg") and "<polyline" not in body

    def test_two_series_two_polylines_with_legend(self, tmp_path):
        csv = tmp_path / "two.csv"
        csv.write_text(
            "n,gamma,scheme,mode,risk,stderr,flag\n"
            "10,0.1,uniform,bias,1.0,0.0,\n100,0.1,uniform,bias,0.01,0.0,\n"
            "10,0.1,uniform,variance,0.5,0.0,\n100,0.1,uniform,variance,0.05,0.0,\n"
        )
        out = tmp_path / "two.svg"
        assert main(["plot", str(csv), "--out", str(out)]) == EXIT_OK
        body = out.read_text()
        assert body.count("<polyline") == 2
        assert "uniform bias" in body and "uniform variance" in body
        assert "slope -1" in body and "slope -2" in body

    def test_missing_columns_is_a_data_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1,2\n")
        assert main(["plot", str(csv), "--out", str(tmp_path / "x.svg")]) == EXIT_DATA


class TestExitCodes:
    def test_usage_error(self):
        assert main(["run", "--gamma", "0.1"]) == EXIT_USAGE  # no spec/data
        assert main(["run", "--spec", "gaussian:d=2"]) == EXIT_USAGE  # no gamma
        assert main(["gamma-max", "--spec", "unknown:d=2"]) == EXIT_USAGE
        sampling = ["sampling", "--spec", "gaussian:d=2", "--n-max", "20", "--replicates", "2"]
        assert main([*sampling, "--gamma", "-1"]) == EXIT_USAGE
        assert main([*sampling, "--gamma", "0.1", "--gamma", "0.2"]) == EXIT_USAGE
        assert main([*sampling, "--mode", "all"]) == EXIT_USAGE
        for gamma in ("nan", "inf"):
            assert main(["predict", "--spec", "gaussian:d=2", "--gamma", gamma]) == EXIT_USAGE

    @pytest.mark.parametrize("spec", [
        "gaussian:d=abc", "gaussian:d=2,sigma=x", "gaussian:d=2,seed=1.5",
        "gaussian:d=2,spectrum=1:x", "gaussian:d=0", "gaussian:d=-3",
    ])
    def test_malformed_spec_number_is_usage(self, spec, capsys):
        assert main(["gamma-max", "--spec", spec]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("line, flags", [
        ("n_max = abc", ["--gamma", "0.1"]), ("seed = 1.5", ["--gamma", "0.1"]),
        ("gamma = 0.1, x", []), ("mode = bogus", ["--gamma", "0.1"]),
        ("format = bogus", ["--gamma", "0.1"]),
    ])
    def test_malformed_manifest_number_is_usage(self, line, flags, tmp_path, capsys):
        manifest = tmp_path / "m.cfg"
        manifest.write_text(line + "\n")
        argv = ["run", "--spec", "gaussian:d=2", *flags, "--manifest", str(manifest)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_data_error(self, tmp_path):
        assert main(["gamma-max", "--data", str(tmp_path / "absent.csv")]) == EXIT_DATA

    def test_numerical_error(self, tmp_path):
        path = tmp_path / "singular.csv"
        path.write_text("1,1,1\n2,2,2\n3,3,1\n")  # duplicated feature column
        assert main(["gamma-max", "--data", str(path)]) == EXIT_NUMERIC

    @pytest.mark.parametrize("command, flag", [
        ("run", "--n-max"), ("run", "--points"), ("run", "--replicates"),
        ("predict", "--n-max"), ("predict", "--points"), ("sampling", "--replicates"),
    ])
    def test_zero_count_is_usage(self, command, flag, tmp_path):
        """0 is a value, not an unset option: it is rejected, not replaced by the default."""
        argv = [command, "--spec", "gaussian:d=2", "--gamma", "0.1", flag, "0",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_USAGE
        assert not (tmp_path / "out.csv").exists()

    def test_bad_flag_is_usage(self):
        assert main(["run", "--nope"]) == EXIT_USAGE
