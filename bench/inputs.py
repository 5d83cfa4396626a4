"""Seeded workload inputs, made with numpy only (never with avlms).

The benchmark hands the program nothing but these: spec descriptors and a
dense CSV data file.  The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import numpy as np

DATA_ROWS = 20_000
DATA_DIM = 30
T_DOF = 5  # Student-t degrees of freedom: heavy tails keep the schemes apart


def gaussian_spec(d: int, seed: int) -> str:
    """The README synthetic spec (eigenvalues 1/i, unit noise) at dimension d."""
    return f"gaussian:d={d},spectrum=1/i,sigma=1,seed={seed}"


def gaussian_trace_h(d: int) -> float:
    """Tr(H) of ``gaussian_spec(d, ...)``: the harmonic number H_d."""
    return float(np.sum(1.0 / np.arange(1, d + 1)))


def data_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Student-t(5) features scaled by 1/sqrt(i), heteroscedastic labels."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_t(T_DOF, size=(DATA_ROWS, DATA_DIM)) / np.sqrt(np.arange(1, DATA_DIM + 1))
    w = rng.standard_normal(DATA_DIM)
    ys = xs @ w + (0.5 + np.abs(xs[:, 0])) * rng.standard_normal(DATA_ROWS)
    return xs, ys


def write_data(path: str, seed: int) -> tuple[float, float]:
    """Write the dense CSV (features, then label); return Tr(H) and L = ||H||_2.

    Values are written with 17 significant digits, so the program parses
    back exactly the arrays these are computed from.
    """
    xs, ys = data_rows(seed)
    np.savetxt(path, np.column_stack([xs, ys]), fmt="%.17g", delimiter=",")
    hmat = xs.T @ xs / DATA_ROWS
    return float(np.trace(hmat)), float(np.linalg.eigvalsh(hmat)[-1])
