"""Dataset ingestion and export.

Two on-disk formats are supported: dense CSV (feature columns followed by
a label column) and the sparse ``label index:value ...`` format with
1-based indices; :data:`FORMATS` names them, the default first.  Ingested
rows become an empirical spec: uniform row weights, the exact
least-squares fit as optimum, residual noise.

A data file is parsed once per process per content.  :func:`ingest`
keeps the last data set ingested, keyed by the format and the length
and SHA-256 digest of the bytes it was parsed from, hashed as the parse
reads them.  A later call on a file of that length hashes the file
first, and the same digest returns the same spec and report without a
parse, whatever the path or modification time.  So a fresh process
reads a file once, as without the key, and pays one SHA-256 of its
bytes on top; the bytes are never held whole.  Every array
the spec holds is read-only, and so is the report's class count, since
every hit shares them.
"""

from __future__ import annotations

import hashlib
import io
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DataFormatError
from .moments import ProblemSpec
from .operators import MAX_DIM

MAX_REPORTED_CLASSES = 20


@dataclass(frozen=True)
class IngestReport:
    dim: int
    rows: int
    trace_h: float
    class_counts: Mapping[float, int] | None

    def lines(self) -> list[str]:
        out = [
            f"rows: {self.rows}",
            f"dim: {self.dim}",
            f"trace_h: {self.trace_h:.17g}",
        ]
        if self.class_counts is not None:
            balance = ", ".join(f"{k:g}: {v}" for k, v in sorted(self.class_counts.items()))
            out.append(f"class balance: {balance}")
        return out


class _HashedReads(io.RawIOBase):
    """The reads of a binary file, counted and fed to a SHA-256 hash."""

    def __init__(self, fh):
        self._fh, self.size, self.sha = fh, 0, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(buf)
        self.size += n
        self.sha.update(memoryview(buf)[:n])
        return n


class _Source:
    """A data file opened once, in binary, for one :func:`ingest` call.

    Each :meth:`text` reads it from the start as ``open(path, "r",
    encoding="utf-8")`` reads a file (the same chunks decoded, with
    universal newlines) and hashes the bytes as they are read, so
    :meth:`key` names the bytes of the last pass.  Only a second pass
    seeks, so a pipe is read once."""

    def __init__(self, fh):
        self._fh = fh
        self._reads = None

    def text(self) -> io.TextIOWrapper:
        if self._reads is not None:
            self._fh.seek(0)
        self._reads = _HashedReads(self._fh)
        return io.TextIOWrapper(io.BufferedReader(self._reads), encoding="utf-8")

    def key(self) -> tuple[int, bytes]:
        """The length and SHA-256 digest of the bytes the last pass read."""
        return self._reads.size, self._reads.sha.digest()


def _parse_csv(source: _Source, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense CSV rows: blank and ``#`` lines skipped, the last column the label.

    One whole-file numeric parse reads every data line; on any failure (or
    fewer than two columns) the line loop re-reads the file, so the result
    and every error message, with its line number, are the loop's.
    """
    with source.text() as fh:
        data = (raw for raw in fh if (line := raw.strip()) and not line.startswith("#"))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an input without data rows warns
                table = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
    if table is None or table.shape[0] == 0 or table.shape[1] < 2:
        return _parse_csv_lines(source, path)
    return np.ascontiguousarray(table[:, :-1]), np.ascontiguousarray(table[:, -1])


def _parse_csv_lines(source: _Source, path: str) -> tuple[np.ndarray, np.ndarray]:
    xs_rows: list[list[float]] = []
    ys_rows: list[float] = []
    width = None
    with source.text() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataFormatError("need at least one feature and a label", line=lineno)
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise DataFormatError(
                    f"row has {len(parts)} columns, expected {width}", line=lineno
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise DataFormatError(str(exc), line=lineno) from None
            xs_rows.append(vals[:-1])
            ys_rows.append(vals[-1])
    if not xs_rows:
        raise DataFormatError(f"no data rows in {path!r}")
    return np.array(xs_rows), np.array(ys_rows)


def _parse_libsvm(source: _Source, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Sparse rows, as wide as their largest index: an index twice in one
    row is a data error."""
    entries: list[dict[int, float]] = []
    labels: list[float] = []
    max_idx = 0
    with source.text() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise DataFormatError(f"bad label {parts[0]!r}", line=lineno) from None
            row = {}
            for tok in parts[1:]:
                if ":" not in tok:
                    raise DataFormatError(f"expected index:value, got {tok!r}", line=lineno)
                idx_s, val_s = tok.split(":", 1)
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DataFormatError(f"bad pair {tok!r}", line=lineno) from None
                if idx < 1:
                    raise DataFormatError(f"indices are 1-based, got {idx}", line=lineno)
                if idx in row:
                    raise DataFormatError(f"index {idx} repeats in one row", line=lineno)
                row[idx] = val
                max_idx = max(max_idx, idx)
            entries.append(row)
    if not entries:
        raise DataFormatError(f"no data rows in {path!r}")
    if max_idx == 0:
        raise DataFormatError(f"no feature in any row of {path!r}")
    _check_width(max_idx)
    xs = np.zeros((len(entries), max_idx))
    for t, row in enumerate(entries):
        for idx, val in row.items():
            xs[t, idx - 1] = val
    return xs, np.array(labels)


def _check_width(d: int) -> None:
    if d > MAX_DIM:
        raise DataFormatError(f"dimension {d} exceeds the supported cap {MAX_DIM}")


def _read_csv(source: _Source, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense CSV rows, at most MAX_DIM features wide."""
    xs, ys = _parse_csv(source, path)
    _check_width(xs.shape[1])
    return xs, ys


# Each format name and the reader of its rows; the first is the default.
_READERS = {"csv-dense": _read_csv, "libsvm-sparse": _parse_libsvm}
FORMATS = tuple(_READERS)


# The last data set ingested: (key, spec, report), the key being the
# format and the length and SHA-256 digest of the bytes the data set was
# parsed from.
_last: tuple | None = None


def ingest(path: str, fmt: str = FORMATS[0]) -> tuple[ProblemSpec, IngestReport]:
    """Load a data file into an empirical spec plus a summary report.

    The file states its width: a CSV's feature columns, or a sparse file's
    largest index.  A row holding a NaN or an infinity is a data error,
    named by its index among the data rows.  The file is opened once per
    call.  When the last data set ingested came, under the same ``fmt``,
    from as many bytes as the file holds, the file is hashed, and the same
    digest returns that spec and report as they are.
    Otherwise the file is parsed, and a data set that parses replaces the
    last one, keyed by the bytes its parse read."""
    global _last
    if fmt not in _READERS:
        raise DataFormatError(f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})")
    with open(path, "rb", buffering=0) as fh:
        held = _last
        if held is not None and held[0][:2] == (fmt, os.fstat(fh.fileno()).st_size):
            if hashlib.file_digest(fh, "sha256").digest() != held[0][2]:
                held = None
            fh.seek(0)
        else:
            held = None
        if held is None:
            _last = None  # one data set at a time, also while the next is parsed
            source = _Source(fh)
            spec, report = _load(source, path, _READERS[fmt])
            held = _last = ((fmt, *source.key()), spec, report)
    return held[1:]


def _load(source: _Source, path: str, reader) -> tuple[ProblemSpec, IngestReport]:
    xs, ys = reader(source, path)
    finite = np.isfinite(xs).all(axis=1) & np.isfinite(ys)
    if not finite.all():
        raise DataFormatError(f"data row {int(np.argmin(finite)) + 1} holds a non-finite value")
    spec = ProblemSpec.empirical(xs, ys)
    uniq, counts = np.unique(ys, return_counts=True)
    class_counts = (
        MappingProxyType({float(u): int(c) for u, c in zip(uniq, counts)})
        if len(uniq) <= MAX_REPORTED_CLASSES
        else None
    )
    report = IngestReport(
        dim=xs.shape[1],
        rows=xs.shape[0],
        trace_h=float(np.trace(spec.hmat)),
        class_counts=class_counts,
    )
    return spec, report


def export_csv(spec: ProblemSpec, path: str) -> None:
    """Write a labelled discrete/empirical spec as dense CSV rows."""
    design = spec.design
    if not hasattr(design, "xs") or design.ys is None:
        raise DataFormatError("only labelled discrete or empirical specs can be exported")
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(design.xs, design.ys):
            fh.write(",".join(f"{v:.17g}" for v in x) + f",{y:.17g}\n")
