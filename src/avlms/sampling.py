"""Non-uniform sampling densities and their predicted gains.

A scheme is a density ratio c^{-1} = dq/dp together with its
normalization; runs draw from q and rescale samples by sqrt(c), which
keeps the objective (and every second-order moment) unchanged while
reshaping the fourth-order moments that control both the stability
threshold and the asymptotic variance constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SchemeError
from .moments import (
    DiscreteDesign,
    GaussianDesign,
    IndependentGaussianNoise,
    MomentSet,
    ProblemSpec,
    _atom_moments,
    _atom_residuals,
    _chi_mean,
    _gaussian_mean_norm,
    _reweighted_probs,
    compute_moments,
    leverage_resampled_moments,
    norm_resampled_moments,
    reweighted_moments,
)


@dataclass(frozen=True)
class SamplingScheme:
    """A density ratio dq/dp over (X, Y) with its normalization constant.

    ``c_inverse`` maps a batch (xs, ys) to the per-sample ratio; it must
    be nonnegative, integrate to one under the original distribution, and
    stay positive wherever X is nonzero.  ``closed_form``, when set, maps
    a Gaussian spec to its resampled moments in closed form
    (:func:`~avlms.moments.norm_resampled_moments` or
    :func:`~avlms.moments.leverage_resampled_moments`), evaluated on the
    spec it is passed; :func:`_moment_sets` uses it on Gaussian specs only.
    """

    name: str
    c_inverse: Callable[[np.ndarray, np.ndarray], np.ndarray]
    normalization: float
    closed_form: Callable[[ProblemSpec], MomentSet] | None = None


def uniform_scheme() -> SamplingScheme:
    return SamplingScheme(
        name="uniform",
        c_inverse=lambda xs, ys: np.ones(np.atleast_2d(xs).shape[0]),
        normalization=1.0,
    )


def optimal_bias_scheme(spec: ProblemSpec) -> SamplingScheme:
    """Norm-proportional resampling c*^{-1} = X^T X / E[X^T X].

    Pushes the stability threshold to its universal maximum 2/E[X^T X];
    needs no knowledge beyond the mean squared norm.  Its closed form is
    :func:`~avlms.moments.norm_resampled_moments`.
    """
    norm_const = _mean_squared_norm(spec)  # > 0: every spec has a full-rank H

    def c_inverse(xs, ys):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.einsum("ti,ti->t", xs, xs) / norm_const

    return SamplingScheme(
        name="bias-opt",
        c_inverse=_once_on_atoms(spec, c_inverse),
        normalization=norm_const,
        closed_form=norm_resampled_moments,
    )


def optimal_variance_scheme(spec: ProblemSpec) -> SamplingScheme:
    """Noise-and-leverage proportional resampling for the variance term.

    c^{-1} is proportional to |eps| sqrt(X^T H^-1 X), the Cauchy-Schwarz
    equality case for the small-step variance constant.  On specs whose
    noise is independent of X the |eps| factor is constant across inputs
    and drops out of the ratio, leaving the pure leverage density.  An
    idealized oracle scheme: it presumes H and the residuals.  With noise
    independent of X its closed form is
    :func:`~avlms.moments.leverage_resampled_moments`.
    """
    hinv = np.linalg.inv(spec.hmat)
    w_star = spec.w_star
    design = spec.design

    def leverage(xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", xs, hinv, xs), 0.0))

    if isinstance(spec.noise, IndependentGaussianNoise):
        if spec.noise.sigma <= 0:
            raise SchemeError("the variance scheme is undefined on a noiseless spec")
        on_atoms = None
        if isinstance(design, DiscreteDesign):
            on_atoms = leverage(design.xs)
            norm_const = float(design.probs @ on_atoms)
            on_atoms /= norm_const
        else:
            # X^T H^-1 X is an exact chi-square with d degrees of freedom.
            norm_const = _chi_mean(spec.dim)

        def c_inverse(xs, ys):
            return leverage(xs) / norm_const

        return SamplingScheme(
            name="variance-opt",
            c_inverse=_once_on_atoms(spec, c_inverse, on_atoms),
            normalization=norm_const,
            closed_form=leverage_resampled_moments,
        )

    eps = _atom_residuals(spec)
    weights = np.abs(eps) * leverage(design.xs)
    norm_const = float(design.probs @ weights)
    if norm_const <= 0:
        raise SchemeError("the variance scheme is undefined on a noiseless spec")

    def c_inverse(xs, ys):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        resid = np.abs(np.asarray(ys, dtype=float) - xs @ w_star)
        return resid * leverage(xs) / norm_const

    return SamplingScheme(
        name="variance-opt",
        c_inverse=_once_on_atoms(spec, c_inverse, weights / norm_const, design.ys),
        normalization=norm_const,
    )


def _once_on_atoms(spec: ProblemSpec, c_inverse, on_atoms=None, ys=None):
    """``c_inverse``, answering the atoms of ``spec`` (and labels ``ys``,
    when the ratio reads them) with its value there, evaluated once.

    Every evaluation on a command's atoms (the moments, the engine's
    tables) then reuses the array; it is read-only and has the bits a fresh
    evaluation gives.  Gaussian specs have no atoms and get ``c_inverse``.
    """
    design = spec.design
    if not isinstance(design, DiscreteDesign):
        return c_inverse
    if on_atoms is None:
        on_atoms = c_inverse(design.xs, ys)
    on_atoms.setflags(write=False)

    def cached(xs, labels):
        if xs is design.xs and (ys is None or labels is ys):
            return on_atoms
        return c_inverse(xs, labels)

    return cached


def _moment_sets(spec: ProblemSpec, schemes) -> list[MomentSet]:
    """The moments of ``spec`` under each scheme of ``schemes`` (None: the
    spec itself, :func:`~avlms.moments.compute_moments`).

    On a Gaussian spec each scheme gives its closed form, and a scheme
    without one is refused by :func:`~avlms.moments.reweighted_moments`.
    On a discrete spec every scheme's atom weights share one pass of the
    atom Gram, and the moments of norm-proportional resampling are marked
    so (:func:`~avlms.stepsize.gamma_max` reads 2/Tr(H)).
    """
    if not isinstance(spec.design, DiscreteDesign):
        return [compute_moments(spec) if scheme is None
                else scheme.closed_form(spec) if scheme.closed_form is not None
                else reweighted_moments(spec, scheme.c_inverse) for scheme in schemes]
    rows = [spec.design.probs if scheme is None else _reweighted_probs(spec, scheme.c_inverse)
            for scheme in schemes]
    flags = [scheme is not None and scheme.closed_form is norm_resampled_moments
             for scheme in schemes]
    return _atom_moments(spec, rows, flags) if rows else []


def resampled_moments(spec: ProblemSpec, scheme: SamplingScheme) -> MomentSet:
    """Moments of the instance after resampling by a scheme: the one-scheme
    case of :func:`_moment_sets`.  Exact on every spec, or refused with
    SchemeError on a Gaussian spec when the scheme has no closed form."""
    return _moment_sets(spec, [scheme])[0]


def _mean_squared_norm(spec: ProblemSpec) -> float:
    design = spec.design
    if isinstance(design, GaussianDesign):
        return float(np.trace(design.cov))
    return float(design.probs @ np.einsum("ti,ti->t", design.xs, design.xs))


def variance_gain(spec: ProblemSpec) -> float:
    """The order-of-gain ratio E[sqrt(X^T X)]^2 / E[X^T X], in (0, 1].

    Exact on every design: an atom average on discrete designs, a
    one-dimensional quadrature (``_gaussian_mean_norm``) on Gaussian ones.
    """
    design = spec.design
    if isinstance(design, DiscreteDesign):
        sq = np.einsum("ti,ti->t", design.xs, design.xs)
        mean_norm = float(design.probs @ np.sqrt(sq))
        mean_sq = float(design.probs @ sq)
    else:
        mean_norm = _gaussian_mean_norm(spec.h_eig[0])
        mean_sq = float(np.trace(design.cov))
    return mean_norm**2 / mean_sq


def bias_gain(gamma_before: float, gamma_after: float) -> float:
    """Predicted excess-risk factor (gamma_before / gamma_after)^2."""
    if gamma_before <= 0 or gamma_after <= 0:
        raise ValueError("step-sizes must be positive")
    return (gamma_before / gamma_after) ** 2


def resampled_gamma_max(spec: ProblemSpec, scheme: SamplingScheme) -> float:
    """Stability threshold of the instance after resampling by a scheme."""
    from .stepsize import gamma_max

    return gamma_max(resampled_moments(spec, scheme))
