"""Non-uniform sampling densities and their predicted gains.

A scheme is a density ratio c^{-1} = dq/dp together with its
normalization; runs draw from q and rescale samples by sqrt(c), which
keeps the objective (and every second-order moment) unchanged while
reshaping the fourth-order moments that control both the stability
threshold and the asymptotic variance constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SchemeError
from .moments import (
    DiscreteDesign,
    GaussianDesign,
    IndependentGaussianNoise,
    MomentSet,
    ProblemSpec,
    _atom_residuals,
    _chi_mean,
    _gaussian_mean_norm,
    leverage_resampled_moments,
    norm_resampled_moments,
    reweighted_moments,
)


@dataclass(frozen=True)
class SamplingScheme:
    """A density ratio dq/dp over (X, Y) with its normalization constant.

    ``c_inverse`` maps a batch (xs, ys) to the per-sample ratio; it must
    be nonnegative, integrate to one under the original distribution, and
    stay positive wherever X is nonzero.  ``requires`` names the oracle
    knowledge the scheme assumes (e.g. the second moment, the residuals).
    ``exact_moments``, when set, returns the resampled moments of the spec
    the scheme was built for in closed form; :func:`resampled_moments`
    uses it in place of :func:`~avlms.moments.reweighted_moments`.
    """

    name: str
    c_inverse: Callable[[np.ndarray, np.ndarray], np.ndarray]
    normalization: float
    requires: frozenset = field(default_factory=frozenset)
    exact_moments: Callable[[], MomentSet] | None = None


def uniform_scheme() -> SamplingScheme:
    return SamplingScheme(
        name="uniform",
        c_inverse=lambda xs, ys: np.ones(np.atleast_2d(xs).shape[0]),
        normalization=1.0,
    )


def optimal_bias_scheme(spec: ProblemSpec) -> SamplingScheme:
    """Norm-proportional resampling c*^{-1} = X^T X / E[X^T X].

    Pushes the stability threshold to its universal maximum 2/E[X^T X];
    needs no knowledge beyond the mean squared norm.  On Gaussian specs the
    scheme carries the exact resampled moments
    (:func:`~avlms.moments.norm_resampled_moments`).
    """
    norm_const = _mean_squared_norm(spec)  # > 0: every spec has a full-rank H

    def c_inverse(xs, ys):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.einsum("ti,ti->t", xs, xs) / norm_const

    return SamplingScheme(
        name="bias-opt",
        c_inverse=c_inverse,
        normalization=norm_const,
        requires=frozenset({"mean squared norm"}),
        exact_moments=_gaussian_closed_form(spec, norm_resampled_moments),
    )


def optimal_variance_scheme(spec: ProblemSpec) -> SamplingScheme:
    """Noise-and-leverage proportional resampling for the variance term.

    c^{-1} is proportional to |eps| sqrt(X^T H^-1 X), the Cauchy-Schwarz
    equality case for the small-step variance constant.  On specs whose
    noise is independent of X the |eps| factor is constant across inputs
    and drops out of the ratio, leaving the pure leverage density.  An
    idealized oracle scheme: it presumes H and the residuals.  On Gaussian
    specs the scheme carries the exact resampled moments
    (:func:`~avlms.moments.leverage_resampled_moments`).
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
        if isinstance(design, DiscreteDesign):
            norm_const = float(design.probs @ leverage(design.xs))
        else:
            # X^T H^-1 X is an exact chi-square with d degrees of freedom.
            norm_const = _chi_mean(spec.dim)

        def c_inverse(xs, ys):
            return leverage(xs) / norm_const

        return SamplingScheme(
            name="variance-opt",
            c_inverse=c_inverse,
            normalization=norm_const,
            requires=frozenset({"second moment", "noise level"}),
            exact_moments=_gaussian_closed_form(spec, leverage_resampled_moments),
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
        c_inverse=c_inverse,
        normalization=norm_const,
        requires=frozenset({"second moment", "residuals"}),
    )


def _gaussian_closed_form(spec: ProblemSpec, form) -> Callable[[], MomentSet] | None:
    if isinstance(spec.design, GaussianDesign):
        return lambda: form(spec)
    return None


def resampled_moments(spec: ProblemSpec, scheme: SamplingScheme,
                      coords: np.ndarray | None = None) -> MomentSet:
    """Moments of the instance after resampling by a scheme.

    The scheme's closed form when it has one, otherwise
    :func:`~avlms.moments.reweighted_moments` of its ratio, which is exact
    on discrete specs (over ``coords`` when given) and refuses Gaussian
    ones with SchemeError: Gaussian resampled moments are exact or refused.
    """
    if scheme.exact_moments is not None:
        return scheme.exact_moments()
    return reweighted_moments(spec, scheme.c_inverse, coords)


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
