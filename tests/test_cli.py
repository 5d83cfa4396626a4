"""Command-line surface: ingestion, CSV emission, plotting, exit codes."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import avlms
from avlms import compute_moments, engine
from avlms.cli import (EXIT_DATA, EXIT_MEMORY, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                       _build_parser, _merge_manifest, main)
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

    def test_libsvm_infers_dimension(self, tmp_path):
        path = tmp_path / "row.svm"
        path.write_text("1 1:1 2:1\n0 2:2\n1 1:0.5 2:-1 4:2\n-1 3:1\n")
        _, report = ingest(str(path), "libsvm-sparse")
        assert report.dim == 4

    def test_libsvm_rows_without_a_feature_are_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "labels.svm"
        path.write_text("1\n0 # no pairs\n")
        assert main(["ingest", "--data", str(path), "--format", "libsvm-sparse"]) == EXIT_DATA
        assert capsys.readouterr().err == (f"data error: no feature in any row of "
                                           f"{str(path)!r}\n")

    def test_libsvm_index_repeated_in_a_row_is_a_data_error(self, tmp_path, capsys):
        """An index twice in one row is a data error naming the line, not
        the row with its last value kept; indices out of order are read."""
        path = tmp_path / "rows.svm"
        path.write_text("0 2:1 1:3\n# c\n1 1:1 2:0.5 1:7\n")
        with pytest.raises(DataFormatError, match="line 3: index 1 repeats in one row"):
            ingest(str(path), "libsvm-sparse")
        out = tmp_path / "out.csv"
        argv = ["ingest", "--data", str(path), "--format", "libsvm-sparse", "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == ("data error: line 3: index 1 repeats in one row\n")
        assert not out.exists()
        path.write_text("0 2:1 1:3\n1 1:1 2:0.5\n")
        spec, _ = ingest(str(path), "libsvm-sparse")
        np.testing.assert_array_equal(spec.design.xs, [[3.0, 1.0], [1.0, 0.5]])

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

    @pytest.mark.parametrize("fmt, text, row", [
        ("csv-dense", "# header\n1,2,3\n\n4,nan,6\n7,8,1e400\n", 2),
        ("csv-dense", "1,2,3\n4,5,6\n7,8,-inf\n", 3),
        ("libsvm-sparse", "1 1:2\n0 1:1 2:inf\nnan 2:1\n", 2),
    ])
    def test_non_finite_row_rejected_by_data_row(self, tmp_path, fmt, text, row):
        """The first data row holding a NaN or an infinity is named by its
        index among the data rows (comments and blank lines skipped)."""
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"data row {row} holds a non-finite value"):
            ingest(str(path), fmt)

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

        def refuse(source, path):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(avlms.dataio, "_parse_csv_lines", refuse)
        with open(path, "rb", buffering=0) as fh:
            xs, ys = avlms.dataio._parse_csv(avlms.dataio._Source(fh), str(path))
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


class TestIngestCache:
    """One data set per process, keyed by the SHA-256 of the file's bytes
    with the format."""

    def test_a_hit_returns_the_same_spec_and_report(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0,1\n0,1,0\n2,1,1\n")
        spec, report = ingest(str(path))
        copy = tmp_path / "copy.csv"
        copy.write_bytes(path.read_bytes())
        for again in (str(path), str(copy)):
            hit = ingest(again)
            assert hit[0] is spec and hit[1] is report
        with pytest.raises(TypeError):
            report.class_counts[2.0] = 1

    def test_a_same_size_rewrite_keeping_the_mtime_is_parsed_again(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0,1\n0,1,0\n2,1,1\n")
        before = os.stat(path)
        spec, _ = ingest(str(path))
        path.write_text("1,0,1\n0,1,0\n2,1,3\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        rewritten, _ = ingest(str(path))
        assert rewritten is not spec
        np.testing.assert_array_equal(rewritten.design.ys, [1.0, 0.0, 3.0])

    def test_another_format_misses(self, tmp_path):
        """The bytes of the last data set, under another format, miss: they
        are parsed as that format."""
        svm = tmp_path / "d.svm"
        svm.write_text("1 1:1 2:1\n0 2:2\n1 1:0.5 2:-1\n")
        spec, _ = ingest(str(svm), "libsvm-sparse")
        assert ingest(str(svm), "libsvm-sparse")[0] is spec
        with pytest.raises(DataFormatError, match="line 1"):
            ingest(str(svm), "csv-dense")
        assert ingest(str(svm), "libsvm-sparse")[0] is not spec

    def test_a_failed_parse_is_not_kept(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0,1\n0,x,0\n2,1,1\n")
        for _ in range(2):
            with pytest.raises(DataFormatError, match="line 2"):
                ingest(str(path))
        path.write_text("1,0,1\n0,1,0\n2,1,1\n")
        spec, report = ingest(str(path))
        assert report.rows == 3 and ingest(str(path))[0] is spec

    def test_the_file_is_opened_once_per_call(self, tmp_path, monkeypatch):
        """A miss, a hit, a miss on a file as long as the last data set, and
        a parse that falls back to the line loop and fails each open the
        file once."""
        import builtins

        import avlms.dataio

        opened = []

        def counting(file, *args, **kwargs):
            opened.append(file)
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(avlms.dataio, "open", counting, raising=False)
        good = tmp_path / "good.csv"
        good.write_text("1,0,1\n0,1,0\n2,1,1\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0,1\n0,1\n")
        same_length = tmp_path / "same.csv"
        same_length.write_text("1,0,1\n0,1,0\n2,1,3\n")
        ingest(str(good))
        ingest(str(good))
        ingest(str(same_length))
        with pytest.raises(DataFormatError, match="line 2"):
            ingest(str(bad))
        assert opened == [str(good), str(good), str(same_length), str(bad)]

    def test_a_pipe_is_read_once(self):
        """A file that cannot seek, such as a pipe, is parsed in its one
        pass, also after a data set of its content is kept."""
        for _ in range(2):
            r, w = os.pipe()
            os.write(w, b"1,0,1\n0,1,0\n2,1,1\n")
            os.close(w)
            try:
                spec, report = ingest(f"/dev/fd/{r}")
            finally:
                os.close(r)
            assert report.rows == 3

    def test_only_a_file_as_long_as_the_last_data_set_is_hashed_first(self, tmp_path,
                                                                     monkeypatch):
        """A first call, or one on a file of another length, parses the file
        without hashing it first; a file of the same length is hashed
        first, and a hit is not parsed."""
        import hashlib

        import avlms.dataio

        hashed, parsed = [], []
        digest, load = hashlib.file_digest, avlms.dataio._load
        monkeypatch.setattr(hashlib, "file_digest",
                            lambda fh, name: hashed.append(1) or digest(fh, name))
        monkeypatch.setattr(avlms.dataio, "_load", lambda *a: parsed.append(1) or load(*a))
        monkeypatch.setattr(avlms.dataio, "_last", None)
        short = tmp_path / "short.csv"
        short.write_text("1,0,1\n0,1,0\n2,1,1\n")
        longer = tmp_path / "long.csv"
        longer.write_text("1,0,1\n0,1,0\n2,1,1\n3,1,1\n")
        rewritten = tmp_path / "rewritten.csv"
        rewritten.write_text("1,0,1\n0,1,0\n2,1,1\n3,1,2\n")
        counts = []
        for path in (short, longer, longer, rewritten):
            ingest(str(path))
            counts.append((len(hashed), len(parsed)))
        assert counts == [(0, 1), (0, 2), (1, 2), (2, 3)]

    def test_a_call_returns_its_own_data_set_while_the_slot_changes(self, tmp_path,
                                                                    monkeypatch):
        """Another caller may empty or replace the slot while a call hashes
        or parses: the call still returns the data set it matched or
        parsed, and a parse leaves its own in the slot."""
        import hashlib

        import avlms.dataio

        path = tmp_path / "d.csv"
        path.write_text("1,0,1\n0,1,0\n2,1,1\n")
        other = tmp_path / "other.csv"
        other.write_text("1,0,1\n0,1,0\n2,1,1\n3,1,1\n")
        spec, report = ingest(str(path))
        digest = hashlib.file_digest

        def emptying(fh, name):
            avlms.dataio._last = None
            return digest(fh, name)

        monkeypatch.setattr(hashlib, "file_digest", emptying)
        hit = ingest(str(path))
        assert hit[0] is spec and hit[1] is report
        ingest(str(other))
        slot = avlms.dataio._last
        load = avlms.dataio._load

        def replacing(*args):
            avlms.dataio._last = slot
            return load(*args)

        monkeypatch.setattr(avlms.dataio, "_load", replacing)
        parsed = ingest(str(path))
        assert parsed[0] is not slot[1] and parsed[1].rows == 3
        assert avlms.dataio._last[1] is parsed[0]


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

    @staticmethod
    def _data_file(tmp_path):
        rg = np.random.default_rng(8)
        xs = rg.standard_normal((40, 3)) * rg.uniform(0.5, 2.0, (40, 1))
        ys = xs @ [1.0, -1.0, 0.5] + 0.3 * rg.standard_normal(40)
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(f"{v:.17g}" for v in (*x, y)) + "\n"
                                for x, y in zip(xs, ys)))
        return str(data)

    def test_one_fourth_moment_gram_per_moment_set(self, tmp_path, monkeypatch):
        """gamma-max over three schemes on data builds three weighted atom
        Grams, the uniform moments and one per resampled scheme, in one
        pass over the atoms: each chunk of rows has its rank-one
        coordinates built once for all three Grams, and never all N rows at
        once.  sampling on the same file then reuses the spec's three sets
        and makes no pass."""
        import avlms.dataio
        import avlms.moments
        import avlms.operators

        monkeypatch.setattr(avlms.dataio, "_last", None)  # no spec kept from an earlier test
        data = self._data_file(tmp_path)
        chunk_rows = 16  # 40 atoms: chunks of 16, 16 and 8 rows
        monkeypatch.setattr(avlms.operators, "GRAM_CHUNK_BYTES", 8 * 6 * chunk_rows)
        grams = []
        original = avlms.operators._rank_one_coords
        gram = avlms.moments.fourth_moment_operator_from_samples

        def counting(xs, basis, out=None):
            grams[-1][1].append(xs.shape[0])
            return original(xs, basis, out=out)

        def counting_gram(*args, weights=None, **kwargs):
            grams.append((len(weights), []))
            mats = gram(*args, weights=weights, **kwargs)
            assert len(mats) == len(weights)
            return mats

        monkeypatch.setattr(avlms.operators, "_rank_one_coords", counting)
        monkeypatch.setattr(avlms.moments, "fourth_moment_operator_from_samples", counting_gram)
        schemes = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]
        for argv, passes in ((["gamma-max", "--data", data, *schemes], [(3, [16, 16, 8])]),
                             (["sampling", "--data", data, *schemes, "--n-max", "50",
                               "--points", "2", "--replicates", "10",
                               "--out", str(tmp_path / "s.csv")], [])):
            grams.clear()
            assert main(argv) == EXIT_OK
            assert grams == passes

    def test_sampling_solves_one_pencil_per_moment_set(self, tmp_path, monkeypatch):
        """The uniform row of sampling shares the base moment set, whose frame
        keeps its pencil top, and bias-opt reads 2/Tr(H): three schemes make
        two order-D eigensolves (base and variance-opt), not four."""
        import avlms.dataio

        monkeypatch.setattr(avlms.dataio, "_last", None)  # no spec kept from an earlier test
        solves = []
        original = np.linalg.eigvalsh

        def counting(a):
            solves.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        argv = ["sampling", "--data", self._data_file(tmp_path), "--scheme", "uniform",
                "--scheme", "bias-opt", "--scheme", "variance-opt", "--n-max", "50",
                "--points", "2", "--replicates", "10", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_OK
        assert solves == [(6, 6), (6, 6)]

    @pytest.mark.parametrize("command", ["gamma-max", "sampling"])
    def test_each_scheme_built_once_per_data_set(self, command, tmp_path, monkeypatch,
                                                 capsys):
        """Two calls on one file evaluate each scheme's ratios once: the kept
        spec keeps its schemes.  Both calls print and write, byte for byte,
        what a fresh spec of the same file gives."""
        import avlms.dataio
        from avlms import sampling

        monkeypatch.setattr(avlms.dataio, "_last", None)  # no spec kept from an earlier test
        evaluated = []
        ratios = sampling._atom_ratios
        monkeypatch.setattr(sampling, "_atom_ratios",
                            lambda spec, name: evaluated.append(name) or ratios(spec, name))
        argv = [command, "--data", self._data_file(tmp_path), "--scheme", "uniform",
                "--scheme", "bias-opt", "--scheme", "variance-opt"]
        if command == "sampling":
            argv += ["--n-max", "50", "--points", "2", "--replicates", "10"]

        def outputs(tag):
            out = tmp_path / f"{tag}.csv"
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            return capsys.readouterr().out, out.read_bytes()

        kept = [outputs("first"), outputs("second")]
        assert evaluated == ["bias-opt", "variance-opt"]
        evaluated.clear()
        monkeypatch.setattr(avlms.dataio, "_last", None)  # a fresh spec of the same bytes
        fresh = outputs("fresh")
        assert evaluated == ["bias-opt", "variance-opt"]
        assert kept == [fresh, fresh]

    def test_interleaved_commands_build_each_set_once(self, tmp_path, monkeypatch, capsys):
        """gamma-max (uniform, bias-opt), sampling (uniform, variance-opt),
        gamma-max again, predict, then sampling with all three schemes, in
        one process on one file: each moment set is built on its first
        request only, and every output is, byte for byte, that of a fresh
        spec of the same file."""
        import avlms.dataio
        import avlms.moments

        monkeypatch.setattr(avlms.dataio, "_last", None)  # no spec kept from an earlier test
        r = np.random.default_rng(0)
        x = r.standard_t(5, (40, 3))
        data = tmp_path / "smoke.csv"
        np.savetxt(data, np.column_stack([x, x @ [1.0, -2.0, 0.5] + r.standard_normal(40)]),
                   fmt="%.17g", delimiter=",")
        gram_rows = []
        gram = avlms.moments.fourth_moment_operator_from_samples

        def counting_gram(*args, weights=None, **kwargs):
            gram_rows[-1] += len(weights)
            return gram(*args, weights=weights, **kwargs)

        monkeypatch.setattr(avlms.moments, "fourth_moment_operator_from_samples", counting_gram)
        run = ["--n-max", "200", "--replicates", "10", "--seed", "1"]
        gamma_max = ["gamma-max", "--data", str(data), "--scheme", "uniform",
                     "--scheme", "bias-opt"]
        sequence = [
            gamma_max,
            ["sampling", "--data", str(data), "--scheme", "uniform", "--scheme", "variance-opt",
             *run],
            gamma_max,
            ["predict", "--data", str(data), "--gamma", "0.05", "--n-max", "200",
             "--points", "5"],
            ["sampling", "--data", str(data), *run],
        ]

        def stdout(argv):
            gram_rows.append(0)
            assert main(argv) == EXIT_OK
            return capsys.readouterr().out

        outputs = [stdout(argv) for argv in sequence]
        assert gram_rows == [2, 1, 0, 0, 0]
        for argv, out in zip(sequence, outputs):
            monkeypatch.setattr(avlms.dataio, "_last", None)  # a fresh spec of the same bytes
            assert stdout(argv) == out

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

    @pytest.mark.parametrize("gamma", ["0.2", "1.0", "2.0"])
    def test_predict_columns_match_full_report(self, tmp_path, gamma):
        """At a stable, a beyond-threshold and a singular-T gamma, each predict
        cell is empty exactly where the model's matrix is absent (leading
        terms off the stable range, the exact variance at a singular T) or
        overflows, and from n = 50 on holds that matrix's risk to 1e-12."""
        from avlms import CovarianceModel, excess_risk
        from avlms.cli import _build_parser, _resolve_spec

        argv = ["predict", "--spec", "gaussian:d=5,spectrum=1/i,sigma=1,wstar=random,w0=ones",
                "--gamma", gamma, "--n-max", "3000", "--points", "8"]
        out = tmp_path / "p.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        model = CovarianceModel(compute_moments(_resolve_spec(_build_parser().parse_args(argv))),
                                float(gamma))
        methods = {"bias_exact": model.bias_exact,
                   "bias_leading": model.bias_leading if model.stable else None,
                   "variance_exact": model.variance_exact if model.t_invertible else None,
                   "variance_leading": model.variance_leading if model.stable else None}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            for col, method in methods.items():
                mat = None if method is None else method(int(row["n"]))
                want = None if mat is None else excess_risk(model.moments, mat)
                if want is None or not np.isfinite(want):
                    assert row[col] == "", (col, row)
                else:
                    got = float(row[col])
                    assert int(row["n"]) < 50 or abs(got - want) <= 1e-12 * abs(want), (col, row)

    def test_gaussian_predict_reads_only_diagonal_coordinates(self, tmp_path, monkeypatch):
        """A Gaussian predict reads each risk from the d diagonal H-eigen
        coordinates: it never rotates a matrix back, never expands basis
        coordinates into a d x d matrix, never takes the full side sum, and
        hands the pair sum at most d^2 entries per horizon.  Each model
        evaluates the pair sum once per horizon group (here one group holds
        the whole schedule), not twice per horizon."""
        from avlms import asymptotics
        from avlms.operators import SymBasis, TEigenpairs

        calls, pair_sums = [], []

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(asymptotics.CovarianceModel, "_rotate_back")
        counted(SymBasis, "vecs_to_mats")
        counted(TEigenpairs, "side_sum")
        pair_sum = asymptotics._pair_sum

        def sized(a, b, ns):
            pair_sums.append((np.broadcast(a, b).size, len(ns)))
            return pair_sum(a, b, ns)

        monkeypatch.setattr(asymptotics, "_pair_sum", sized)
        d = 12
        out = tmp_path / "p.csv"
        rc = main(["predict", "--spec", f"gaussian:d={d},spectrum=1/i,sigma=1,w0=ones",
                   "--gamma", "0.05", "--gamma", "0.5", "--n-max", "5000", "--points", "6",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert calls == []
        horizons = len((tmp_path / "p_g0.csv").read_text().splitlines()) - 1
        assert [n for _, n in pair_sums] == [horizons, horizons]
        assert max(size for size, _ in pair_sums) <= d * d

    def test_predict_horizon_groups_bound_memory(self, tmp_path, monkeypatch):
        """predict on a d=30 data file (an order-D block, D = 465) with 400
        points evaluates its schedule in several horizon groups, and the
        risk evaluation's traced allocations stay within a small multiple of
        one group's (group, side grid) array: within GRAM_CHUNK_BYTES."""
        import tracemalloc

        from avlms import asymptotics
        from avlms.operators import GRAM_CHUNK_BYTES

        rg = np.random.default_rng(30)
        xs = rg.standard_t(5, (200, 30))
        data = tmp_path / "d30.csv"
        np.savetxt(data, np.column_stack([xs, xs @ rg.standard_normal(30)
                                          + rg.standard_normal(200)]),
                   fmt="%.17g", delimiter=",")
        risks, seen = asymptotics.CovarianceModel.risks, []

        def traced(model, schedule):
            r = model._diag
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = risks(model, schedule)
                growth = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            group_bytes = 8 * r.group * np.broadcast(r.side_theta, r.side_omega).size
            seen.append((len(schedule), r.group, growth, group_bytes))
            return out

        monkeypatch.setattr(asymptotics.CovarianceModel, "risks", traced)
        rc = main(["predict", "--data", str(data), "--gamma", "0.01", "--n-max", "100000",
                   "--points", "400", "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_OK
        ((horizons, group, growth, group_bytes),) = seen
        assert horizons > 10 * group
        assert growth <= 8 * group_bytes <= GRAM_CHUNK_BYTES

    def test_sampling_skips_variance_scheme_on_noiseless_data(self, tmp_path, capsys, tiny_csv):
        out = tmp_path / "s.csv"
        rc = main(["sampling", "--data", tiny_csv, "--n-max", "100", "--points", "2",
                   "--replicates", "30", "--out", str(out)])
        assert rc == EXIT_OK
        assert "variance-opt" in capsys.readouterr().err
        body = out.read_text()
        assert "variance-opt" not in body
        assert body.splitlines()[0].startswith("scheme,variance_gain,gamma_max,predicted_bias_gain")

    def test_class_weighted_is_not_a_scheme(self, tmp_path, capsys):
        """Weighting classes changes the objective, not the sampling density:
        ``class-weighted`` is a usage error, by flag and by manifest, in every
        command that takes schemes."""
        data = tmp_path / "d.csv"
        data.write_text("1,0,1\n0,1,0\n1,1,1\n")
        manifest = tmp_path / "m.cfg"
        manifest.write_text("scheme = uniform, class-weighted\n")
        for command in (["gamma-max"], ["run", "--gamma", "0.01"], ["sampling"]):
            for extra in (["--scheme", "class-weighted"], ["--manifest", str(manifest)]):
                assert main([*command, "--data", str(data), *extra]) == EXIT_USAGE
                assert "'class-weighted'" in capsys.readouterr().err

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

    def test_one_engine_call_per_command(self, tmp_path, monkeypatch, capsys):
        """sampling and run step every cell of the command, whatever its
        scheme, in one lockstep engine call."""
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
            (["run", *schemes, "--gamma", "0.02"], [3]),
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

    def test_sampling_without_a_streamable_scheme_calls_no_engine(self, monkeypatch, capsys):
        """Resampled schemes alone on a Gaussian spec: no cell can be
        streamed, so no engine call is made, and both rows keep their
        closed-form columns, with the measured ones empty and a warning."""
        calls = []
        monkeypatch.setattr(engine, "_drive", lambda *a, **k: calls.append(a))
        rc = main(["sampling", "--spec", "gaussian:d=5,spectrum=1/i,sigma=1",
                   "--scheme", "bias-opt", "--scheme", "variance-opt"])
        assert rc == EXIT_OK and calls == []
        out, err = capsys.readouterr()
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["bias-opt", "variance-opt"]
        for r in rows:
            assert all(v != "" for v in r[1:4]) and r[4:] == ["", "", "", ""]
        assert [ln.split("'")[1] for ln in err.splitlines() if "not simulated" in ln] == [
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

    def test_sampling_warns_once_per_diverged_cell(self, tmp_path, capsys):
        """Past every scheme's gamma_max, sampling leaves the measured cells
        past the divergence empty and warns once per diverged cell, in run's
        words."""
        data = tmp_path / "d.csv"
        rg = np.random.default_rng(0)
        x = rg.standard_t(5, (40, 3))
        np.savetxt(data, np.column_stack([x, x @ [1.0, -2.0, 0.5] + rg.standard_normal(40)]),
                   fmt="%.17g", delimiter=",")
        out = tmp_path / "s.csv"
        rc = main(["sampling", "--data", str(data), "--gamma", "0.6", "--n-max", "200",
                   "--replicates", "10", "--out", str(out)])
        assert rc == EXIT_OK
        warned = [ln for ln in capsys.readouterr().err.splitlines() if "diverged" in ln]
        names = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert names == ["uniform", "bias-opt", "variance-opt"]
        assert len(warned) == 3
        for line, name in zip(warned, names):
            assert line.startswith(f"warning: gamma=0.6 scheme={name} mode=total diverged at n=")
            assert "replicate " in line and "norm " in line
        header, *rows = [ln.split(",") for ln in out.read_text().splitlines()]
        last = header.index("measured_risk_n200")
        assert all(row[last] == row[last + 2] == "" for row in rows)

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

    @pytest.mark.parametrize("body, line, column", [
        ("n,bias_exact\n10,abc\n", 2, "bias_exact"),
        ("n,bias_exact\n10,1.0\n,0.5\n", 3, "n"),
        ("n,gamma,scheme,mode,risk,stderr,flag\n10,0.1,uniform,bias,1.0,0.0,\n\n"
         ",0.1,uniform,bias,0.5,0.0,\n", 4, "n"),
        ("n,gamma,scheme,mode,risk,stderr,flag\n10,0.1,uniform,bias,x,0.0,\n", 2, "risk"),
    ], ids=["column-text", "column-empty-n", "run-empty-n", "run-risk-text"])
    def test_malformed_cell_is_a_data_error(self, body, line, column, tmp_path, capsys):
        """A cell of n or of a plotted column that is not a number is a data
        error naming its file line, blank lines counted; no SVG is written."""
        csv = tmp_path / "bad.csv"
        csv.write_text(body)
        out = tmp_path / "x.svg"
        assert main(["plot", str(csv), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: line {line}: column {column!r}")
        assert not out.exists()


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
        # --format describes a data file; beside --spec it is refused
        assert main(["gamma-max", "--spec", "gaussian:d=2", "--format", "csv-dense"]) == EXIT_USAGE

    @pytest.mark.parametrize("spec", [
        "gaussian:d=abc", "gaussian:d=2,sigma=x", "gaussian:d=2,seed=1.5",
        "gaussian:d=2,spectrum=1:x", "gaussian:d=0", "gaussian:d=-3",
        "gaussian:d=65", "gaussian:d=2,sigma=-1", "gaussian:d=2,spectrum=1:-1",
        "gaussian:d=2,spectrum=1:0",
    ])
    def test_malformed_spec_number_is_usage(self, spec, capsys):
        assert main(["gamma-max", "--spec", spec]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec, what, key", [
        ("gaussian:d=3,sigm=0,spectrom=1/i", "unknown", "sigm"),
        ("gaussian:d=3,d=5", "repeated", "d"),
        ("gaussian:d=3,sigma=0,seed=1,sigma=1", "repeated", "sigma"),
    ])
    def test_unknown_or_repeated_spec_key_is_usage(self, spec, what, key, capsys):
        """A misspelt or repeated descriptor key is one error line naming it
        and the keys the grammar reads, not a key skipped or overwritten."""
        assert main(["gamma-max", "--spec", spec]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {what} spec option {key!r} (the keys are d, spectrum, "
                                "sigma, wstar, w0, seed)\n")

    @pytest.mark.parametrize("fmt", ["csv-dense", "libsvm-sparse"], ids=["csv", "libsvm"])
    def test_file_wider_than_the_cap_is_a_data_error(self, fmt, tmp_path, capsys):
        """A data file with 65 feature columns (or a sparse index 65) is a
        data error."""
        path = tmp_path / "wide.txt"
        if fmt == "csv-dense":
            np.savetxt(path, np.random.default_rng(3).standard_normal((70, 66)), delimiter=",")
        else:
            path.write_text("1 1:0.5 65:1\n-1 2:1\n")
        assert main(["ingest", "--data", str(path), "--format", fmt]) == EXIT_DATA
        assert capsys.readouterr().err == ("data error: dimension 65 exceeds the supported "
                                           "cap 64\n")

    @pytest.mark.parametrize("line, flags", [
        ("n_max = abc", ["--gamma", "0.1"]), ("seed = 1.5", ["--gamma", "0.1"]),
        ("gamma = 0.1, x", []), ("mode = bogus", ["--gamma", "0.1"]),
        ("format = bogus", ["--gamma", "0.1"]), ("scheme = uniform, bogus", ["--gamma", "0.1"]),
        ("format = csv", ["--gamma", "0.1"]), ("dim = 2", ["--gamma", "0.1"]),
    ])
    def test_malformed_manifest_number_is_usage(self, line, flags, tmp_path, capsys):
        manifest = tmp_path / "m.cfg"
        manifest.write_text(line + "\n")
        argv = ["run", "--spec", "gaussian:d=2", *flags, "--manifest", str(manifest)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_manifest_scheme_is_checked_before_moments(self, tmp_path, monkeypatch, capsys):
        """A bad manifest scheme fails before ``sampling --data`` builds the
        atom Gram of the data."""
        data = tmp_path / "data.csv"
        data.write_text("1,0,1\n0,1,2\n1,1,2\n")
        manifest = tmp_path / "m.cfg"
        manifest.write_text("scheme = bogus\n")

        def refuse(*args, **kwargs):
            raise AssertionError("the atom Gram was built before the scheme was checked")

        monkeypatch.setattr("avlms.moments.fourth_moment_operator_from_samples", refuse)
        argv = ["sampling", "--data", str(data), "--manifest", str(manifest)]
        assert main(argv) == EXIT_USAGE
        assert "argument --scheme: invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        *[("gamma", v) for v in ("nan", "0", "-1", "abc")],
        ("seed", "-1"), ("seed", "1.5"),
        *[(k, v) for k in ("n_max", "points", "replicates") for v in ("0", "abc")],
        ("mode", "bogus"), ("format", "bogus"), ("scheme", "bogus"),
    ])
    def test_flag_and_manifest_refuse_alike(self, key, value, tmp_path, capsys):
        """A bad value is the same one ``error:`` line naming the option,
        and the usage status, whether it comes by flag or by manifest."""
        flag = "--" + key.replace("_", "-")
        manifest = tmp_path / "m.cfg"
        manifest.write_text(f"{key} = {value}\n")
        out = tmp_path / "out.csv"
        run = ["run", "--spec", "gaussian:d=2", "--out", str(out)]
        lines = []
        for extra in ([flag, value], ["--manifest", str(manifest)]):
            assert main([*run, *extra]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            lines.append(captured.err.splitlines())
        assert lines[0] == lines[1]
        assert len(lines[0]) == 1 and lines[0][0].startswith("error: ")
        assert flag in lines[0][0]
        assert not out.exists()

    def test_readme_run_by_manifest_writes_the_flag_run_csv(self, tmp_path):
        manifest = tmp_path / "run.cfg"
        manifest.write_text(
            "spec = gaussian:d=25,spectrum=1/i,sigma=1\n"
            "gamma = 0.07, 0.007\n"
            "mode = all\n"
            "n-max = 10000\n"
            "points = 15\n"
            "replicates = 200\n"
            "seed = 1\n"
        )
        by_flag, by_manifest = tmp_path / "flag.csv", tmp_path / "manifest.csv"
        assert main(["run", "--spec", "gaussian:d=25,spectrum=1/i,sigma=1", "--gamma", "0.07",
                     "--gamma", "0.007", "--mode", "all", "--n-max", "10000", "--points", "15",
                     "--replicates", "200", "--seed", "1", "--out", str(by_flag)]) == EXIT_OK
        assert main(["run", "--manifest", str(manifest), "--out", str(by_manifest)]) == EXIT_OK
        assert by_manifest.read_bytes() == by_flag.read_bytes()

    def test_data_error(self, tmp_path):
        assert main(["gamma-max", "--data", str(tmp_path / "absent.csv")]) == EXIT_DATA

    @pytest.mark.parametrize("command", ["ingest", "gamma-max"])
    def test_non_finite_data_row_is_data_error(self, command, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1,0,1\n0,1,2\nnan,1,2\n1,1,2\n")
        assert main([command, "--data", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: data row 3 holds a non-finite value\n"

    @pytest.mark.parametrize("spec", [
        "gaussian:d=3,sigma=nan", "gaussian:d=3,sigma=inf", "gaussian:d=3,sigma=1e400",
        "gaussian:d=2,spectrum=nan:1", "gaussian:d=2,spectrum=1:-inf",
    ])
    @pytest.mark.parametrize("command", [["gamma-max"], ["predict", "--gamma", "0.1"]])
    def test_non_finite_spec_number_is_usage(self, command, spec, tmp_path, capsys):
        argv = [command[0], "--spec", spec, *command[1:], "--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_negative_seed_is_usage(self, tmp_path, capsys):
        """By flag, by manifest and by descriptor option alike."""
        manifest = tmp_path / "m.cfg"
        manifest.write_text("seed = -1\n")
        run = ["run", "--gamma", "0.1", "--n-max", "10", "--replicates", "2",
               "--out", str(tmp_path / "out.csv")]
        for argv in (["--spec", "gaussian:d=2", "--seed", "-1"],
                     ["--spec", "gaussian:d=2", "--manifest", str(manifest)],
                     ["--spec", "gaussian:d=2,seed=-1"]):
            assert main([*run, *argv]) == EXIT_USAGE
            assert "must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_numerical_error(self, tmp_path):
        path = tmp_path / "singular.csv"
        path.write_text("1,1,1\n2,2,2\n3,3,1\n")  # duplicated feature column
        assert main(["gamma-max", "--data", str(path)]) == EXIT_NUMERIC

    def test_out_of_memory(self, monkeypatch, capsys):
        """A failed allocation is one error line and its own status, not a
        traceback with the usage-error status."""

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr(engine, "run_cells", refuse)
        argv = ["run", "--spec", "gaussian:d=2", "--gamma", "0.1", "--n-max", "10",
                "--replicates", "2"]
        assert main(argv) == EXIT_MEMORY
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 2.00 GiB for an array\n"

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

    @pytest.mark.parametrize("command", ["predict", "run"])
    @pytest.mark.parametrize("n_max", [10**23, 10**19])
    def test_n_max_beyond_int64_is_usage(self, command, n_max, tmp_path, capsys):
        """An --n-max past the int64 range is one error line and the usage
        status, with no traceback and no cast warning."""
        argv = [command, "--spec", "gaussian:d=2", "--gamma", "0.1", "--n-max", str(n_max),
                "--out", str(tmp_path / "out.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --n-max must be at most {2**63 - 1}\n"
        assert not (tmp_path / "out.csv").exists()


    def test_n_max_beyond_int64_is_refused_before_ingest(self, tmp_path, monkeypatch, capsys):
        """By flag and by manifest, the range check fires before --data is read."""
        def refuse(*args, **kwargs):
            raise AssertionError("the data file was ingested before --n-max was checked")

        monkeypatch.setattr("avlms.cli.ingest", refuse)
        manifest = tmp_path / "m.cfg"
        manifest.write_text(f"n_max = {2**63}\n")
        data = tmp_path / "d.csv"
        data.write_text("1,0,1\n0,1,2\n1,1,2\n")
        sampling = ["sampling", "--data", str(data), "--out", str(tmp_path / "out.csv")]
        for extra in (["--n-max", str(2**63)], ["--manifest", str(manifest)]):
            assert main([*sampling, *extra]) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: --n-max must be at most {2**63 - 1}\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--spec", "gaussian:d=2", "--gam", "0.1", "--n-max", "10", "--replicates", "2"],
        ["run", "--spec", "gaussian:d=2", "--gamma", "0.1", "--n", "10", "--replicates", "2"],
        ["gamma-max", "--spe", "gaussian:d=2"],
    ])
    def test_an_abbreviated_flag_is_usage(self, argv, capsys):
        """A flag is its whole name, as a manifest key is."""
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: ")


# A value each option accepts, and the options each command reads, written
# out apart from the parser.  --dim, a width the data file states itself,
# is read by no command.
OPTION_VALUES = {
    "--spec": "gaussian:d=2", "--data": "d.csv", "--format": "csv-dense", "--dim": "2",
    "--gamma": "0.1", "--n-max": "10", "--points": "3", "--replicates": "2", "--mode": "bias",
    "--scheme": "uniform", "--seed": "1", "--out": "out.csv", "--manifest": "m.cfg",
}
COMMAND_READS = {
    "gamma-max": {"--spec", "--data", "--format", "--scheme", "--seed", "--out", "--manifest"},
    "run": set(OPTION_VALUES) - {"--dim"},
    "predict": {"--spec", "--data", "--format", "--gamma", "--n-max", "--points", "--seed",
                "--out", "--manifest"},
    "sampling": set(OPTION_VALUES) - {"--dim"},
    "ingest": {"--data", "--format", "--out", "--manifest"},
}


class TestOptions:
    """Each command takes exactly the options it reads, by flag and by
    manifest alike."""

    @pytest.mark.parametrize("command, flag", [(c, f) for c in COMMAND_READS
                                               for f in OPTION_VALUES])
    def test_an_option_is_taken_only_where_it_is_read(self, command, flag, tmp_path, capsys):
        """An option the command reads is parsed to the same value by flag
        and by manifest key; any other is the usage status and one error
        line naming it, by flag and by manifest key."""
        key, value = flag[2:].replace("-", "_"), OPTION_VALUES[flag]
        manifest = tmp_path / "m.cfg"
        manifest.write_text(f"{key} = {value}\n")
        if flag in COMMAND_READS[command]:
            by_flag = _build_parser().parse_args([command, flag, value])
            assert getattr(by_flag, key) is not None
            if flag != "--manifest":
                by_manifest = _build_parser().parse_args([command, "--manifest", str(manifest)])
                _merge_manifest(by_manifest)
                assert getattr(by_manifest, key) == getattr(by_flag, key)
            return
        assert main([command, flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        assert main([command, "--manifest", str(manifest)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: manifest key {key!r} is not a recognized "
                                           "option\n")

    @pytest.mark.parametrize("command", list(COMMAND_READS))
    @pytest.mark.parametrize("key, value", [("manifest", "nowhere.cfg"), ("command", "predict")])
    def test_a_manifest_names_no_manifest_and_no_command(self, command, key, value, tiny_csv,
                                                         tmp_path, capsys):
        """Both are given on the command line only: as manifest keys they are
        the usage status and one error line, not silently skipped."""
        manifest = tmp_path / "m.cfg"
        manifest.write_text(f"{key} = {value}\n")
        assert main([command, "--data", tiny_csv, "--manifest", str(manifest)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: manifest key {key!r} is not a recognized "
                                           "option\n")

    @pytest.mark.parametrize("command, extra", [
        ("gamma-max", ["--scheme", "uniform", "--scheme", "bias-opt"]),
        ("predict", ["--gamma", "0.05", "--n-max", "50", "--points", "4"]),
    ])
    def test_seed_beside_data_is_read_and_changes_nothing(self, command, extra, tiny_csv,
                                                           capsys):
        """gamma-max and predict read --seed only for a descriptor's random
        vectors, so beside --data it is accepted and two seeds print the same
        bytes (the benchmark's thresholds op passes one)."""
        outs = []
        for seed in ("3", "4"):
            assert main([command, "--data", tiny_csv, *extra, "--seed", seed,
                         "--out", "-"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["gamma-max", "run", "predict", "sampling"])
    def test_spec_and_data_together_are_usage(self, command, tiny_csv, tmp_path, monkeypatch,
                                              capsys):
        """--spec beside --data is refused before the file is read, whether
        each comes by flag or by manifest: neither overrides the other."""
        def refuse(*args, **kwargs):
            raise AssertionError("the data file was ingested beside a --spec")

        monkeypatch.setattr("avlms.cli.ingest", refuse)
        spec = "gaussian:d=2"
        manifests = {}
        for name, text in (("spec", f"spec = {spec}\n"), ("data", f"data = {tiny_csv}\n"),
                           ("both", f"spec = {spec}\ndata = {tiny_csv}\n")):
            manifests[name] = tmp_path / f"{name}.cfg"
            manifests[name].write_text(text)
        gamma = ["--gamma", "0.1"] if command in ("run", "predict") else []
        for given in (["--spec", spec, "--data", tiny_csv],
                      ["--spec", spec, "--manifest", str(manifests["data"])],
                      ["--data", tiny_csv, "--manifest", str(manifests["spec"])],
                      ["--manifest", str(manifests["both"])]):
            assert main([command, *given, *gamma]) == EXIT_USAGE
            assert capsys.readouterr().err == ("error: give one of --spec or --data, not both "
                                               "(by flag or manifest)\n")


class TestRepeatedCalls:
    """main builds its parser once per process; a call leaves nothing behind
    for the next one."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_gamma_does_not_carry_over(self, tmp_path, capsys):
        predict = ["predict", "--spec", "gaussian:d=2", "--n-max", "10", "--points", "2",
                   "--out", str(tmp_path / "p.csv")]
        assert main([*predict, "--gamma", "0.1"]) == EXIT_OK
        capsys.readouterr()
        assert main(predict) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --gamma is required for predict\n"

    def test_scheme_does_not_carry_over(self, capsys):
        schemes = []
        for extra in (["--scheme", "bias-opt"], []):
            assert main(["gamma-max", "--spec", "gaussian:d=2", *extra]) == EXIT_OK
            schemes.append([line.split()[0] for line in capsys.readouterr().out.splitlines()])
        assert schemes == [["scheme=bias-opt"], ["scheme=uniform"]]

    def test_mode_does_not_carry_over(self, tmp_path):
        """Neither from a flag nor from a manifest value."""
        manifest = tmp_path / "m.cfg"
        manifest.write_text("mode = all\n")
        out = tmp_path / "run.csv"
        run = ["run", "--spec", "gaussian:d=2", "--gamma", "0.1", "--n-max", "10",
               "--replicates", "2", "--out", str(out)]
        for extra in (["--mode", "all"], ["--manifest", str(manifest)]):
            modes = []
            for argv in ([*run, *extra], run):
                assert main(argv) == EXIT_OK
                modes.append({line.split(",")[3] for line in out.read_text().splitlines()[1:]})
            assert modes == [{"bias", "variance", "total"}, {"total"}]

    @pytest.mark.parametrize("with_fd", [True, False])
    def test_broken_pipe_is_not_a_data_error(self, with_fd, tmp_path, monkeypatch, capsys):
        """A reader that closes stdout early ends the command with status 0
        and no message; stdout's descriptor, when it has one, then points at
        os.devnull, so the final flush at exit writes nowhere."""

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        with open(tmp_path / "stdout", "w") as fh:
            pipe = ClosedPipe()
            if with_fd:
                pipe.fileno = fh.fileno
            monkeypatch.setattr(sys, "stdout", pipe)
            for argv in (["predict", "--spec", "gaussian:d=2", "--gamma", "0.1", "--n-max", "10",
                          "--points", "2", "--out", "-"],
                         ["gamma-max", "--spec", "gaussian:d=2"]):
                assert main(argv) == EXIT_OK
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull)) == with_fd
        assert capsys.readouterr().err == ""


class TestImports:
    def test_no_command_loads_scipy(self, tmp_path, tiny_csv):
        """avlms runs on numpy alone: a fresh process runs Gaussian and data
        gamma-max and predict, then sampling on data, without importing
        scipy.  concurrent.futures serves only the engine's draw worker, so
        the closed-form commands leave it unloaded too."""
        spec = "gaussian:d=25,spectrum=1/i,sigma=1"
        schemes = ["--scheme", "uniform", "--scheme", "bias-opt", "--scheme", "variance-opt"]
        commands = [
            ["gamma-max", "--spec", spec, *schemes, "--out", "gamma_max.csv"],
            ["predict", "--spec", spec, "--gamma", "0.07", "--n-max", "1000", "--points", "5",
             "--out", "predict.csv"],
            ["gamma-max", "--data", tiny_csv, *schemes[:4], "--out", "data.csv"],
            ["predict", "--data", tiny_csv, "--gamma", "0.1", "--n-max", "100", "--points", "3",
             "--out", "data_predict.csv"],
            ["sampling", "--data", tiny_csv, *schemes[:4], "--n-max", "100", "--points", "2",
             "--replicates", "10", "--out", "sampling.csv"],
        ]
        script = "\n".join(["import sys", "from avlms.cli import main"] + [
            f"assert main({argv!r}) == 0; print('scipy loaded:', 'scipy' in sys.modules); "
            f"print('futures loaded:', 'concurrent.futures' in sys.modules)"
            for argv in commands])
        src = str(Path(avlms.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        loaded = [line.split()[-1] for line in done.stdout.splitlines()
                  if line.startswith("scipy loaded:")]
        assert loaded == ["False"] * len(commands)
        futures = [line.split()[-1] for line in done.stdout.splitlines()
                   if line.startswith("futures loaded:")]
        assert futures[:4] == ["False"] * 4
