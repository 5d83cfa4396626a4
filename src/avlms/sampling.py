"""Non-uniform sampling densities and their predicted gains.

A scheme is a density ratio c^{-1} = dq/dp: runs draw from q and rescale
samples by sqrt(c), which keeps the objective (and every second-order
moment) unchanged while reshaping the fourth-order moments that control
both the stability threshold and the asymptotic variance constant.

A scheme is plain data: its ratio on each atom of one discrete spec
(``ratios``, checked once by :func:`atom_scheme`), its Gaussian closed
form, or both.  This module alone decides how a scheme reweights a spec
(:func:`moment_sets` for the moments, ``ratios_on`` for the engine's
draws) and what a discrete spec keeps (:func:`moment_sets`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SchemeError
from .moments import (
    DiscreteDesign,
    IndependentGaussianNoise,
    MomentSet,
    ProblemSpec,
    _atom_moments,
    _atom_residuals,
    _gaussian_mean_norm,
    compute_moments,
    leverage_resampled_moments,
    norm_resampled_moments,
)

_GAUSSIAN_REFUSAL = (
    "a Gaussian spec has exact resampled moments only in closed form "
    "(compute_moments, norm_resampled_moments, leverage_resampled_moments); "
    "for any other density ratio, draw rows and build ProblemSpec.discrete"
)


@dataclass(frozen=True, eq=False)
class SamplingScheme:
    """A density ratio c^{-1} = dq/dp, as data.

    ``ratios`` holds c^{-1} on each atom of ``atoms``, the discrete design
    it was built for, read-only (None for a scheme built on a Gaussian
    spec).  ``closed_form``, when set, maps a Gaussian spec to its
    resampled moments (:func:`~avlms.moments.norm_resampled_moments` or
    :func:`~avlms.moments.leverage_resampled_moments`), evaluated on the
    spec it is passed.  Build atom ratios with :func:`atom_scheme`, which
    validates them.  ``_norm_resampled`` marks a scheme whose closed form
    is :func:`~avlms.moments.norm_resampled_moments`.  It is read once, at
    construction, so a scheme that a spec keeps stays marked while that
    name is rebound (wrapped by a tracer, say).
    """

    name: str
    atoms: DiscreteDesign | None
    ratios: np.ndarray | None
    closed_form: Callable[[ProblemSpec], MomentSet] | None = None
    _norm_resampled: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_norm_resampled",
                           self.closed_form is norm_resampled_moments)

    def ratios_on(self, spec: ProblemSpec) -> np.ndarray:
        """``ratios``; SchemeError unless the scheme was built for the atoms
        of ``spec``."""
        if self.ratios is None or spec.design is not self.atoms:
            raise SchemeError(f"scheme {self.name!r} was not built for the atoms of this "
                              "spec; build it on this spec")
        return self.ratios


def atom_scheme(spec: ProblemSpec, name: str, ratios, closed_form=None) -> SamplingScheme:
    """The scheme with ratio ``ratios[t]`` on atom t of a discrete spec.

    The ratios must be one per atom, nonnegative, of expectation 1 under
    the spec, and positive on every atom with X != 0 and positive mass (so
    the spec is absolutely continuous w.r.t. the proposal); SchemeError
    otherwise, and on a Gaussian spec.  The scheme holds a read-only copy.
    """
    design = spec.design
    if not isinstance(design, DiscreteDesign):
        raise SchemeError(_GAUSSIAN_REFUSAL)
    cinv = np.array(ratios, dtype=float).reshape(-1)
    if cinv.shape != (design.xs.shape[0],):
        raise SchemeError("ratios must hold one value per atom")
    if cinv.min() < 0:
        raise SchemeError("ratios must be nonnegative")
    total = float(design.probs @ cinv)
    if not abs(total - 1.0) <= 1e-10:
        raise SchemeError(f"ratios have expectation {total!r} under the spec, not 1")
    if np.any((design.sq_norms > 0) & (cinv == 0.0) & (design.probs > 0)):
        raise SchemeError(
            "ratios vanish on an atom with X != 0; the original "
            "distribution is not absolutely continuous w.r.t. the proposal"
        )
    cinv.setflags(write=False)
    return SamplingScheme(name, design, cinv, closed_form)


def optimal_bias_scheme(spec: ProblemSpec) -> SamplingScheme:
    """Norm-proportional resampling c*^{-1} = X^T X / E[X^T X].

    Pushes the stability threshold to its universal maximum 2/E[X^T X];
    needs no knowledge beyond the mean squared norm.  Its closed form is
    :func:`~avlms.moments.norm_resampled_moments`.  On a discrete spec the
    scheme is built once and kept (:func:`_kept_scheme`).
    """
    if not isinstance(spec.design, DiscreteDesign):
        return SamplingScheme("bias-opt", None, None, norm_resampled_moments)
    return _kept_scheme(spec, "bias-opt", norm_resampled_moments)


def optimal_variance_scheme(spec: ProblemSpec) -> SamplingScheme:
    """Noise-and-leverage proportional resampling for the variance term.

    c^{-1} is proportional to |eps| sqrt(X^T H^-1 X), the Cauchy-Schwarz
    equality case for the small-step variance constant.  On specs whose
    noise is independent of X the |eps| factor is constant across inputs
    and drops out of the ratio, leaving the pure leverage density.  An
    idealized oracle scheme: it presumes H and the residuals.  With noise
    independent of X its closed form is
    :func:`~avlms.moments.leverage_resampled_moments`.  On a discrete spec
    the scheme is built once and kept (:func:`_kept_scheme`).
    """
    independent = isinstance(spec.noise, IndependentGaussianNoise)
    if independent and spec.noise.sigma <= 0:
        raise SchemeError("the variance scheme is undefined on a noiseless spec")
    closed_form = leverage_resampled_moments if independent else None
    if not isinstance(spec.design, DiscreteDesign):
        return SamplingScheme("variance-opt", None, None, closed_form)
    return _kept_scheme(spec, "variance-opt", closed_form)


def _kept_scheme(spec: ProblemSpec, name: str, closed_form) -> SamplingScheme:
    """The optimal scheme ``name`` of a discrete spec: :func:`atom_scheme` of
    its :func:`_atom_ratios`, built on the first call and kept in
    ``spec._kept`` by name: every later call returns it, and
    :func:`moment_sets` keeps its moments.  A build that raises keeps
    nothing, and raises again on the next call."""
    kept = spec._kept
    if name not in kept:
        kept[name] = atom_scheme(spec, name, _atom_ratios(spec, name), closed_form)
    return kept[name]


def _atom_ratios(spec: ProblemSpec, name: str) -> np.ndarray:
    """The unchecked ratios c^{-1} of the optimal scheme ``name`` ("bias-opt"
    or "variance-opt") on the atoms of a discrete spec."""
    design = spec.design
    if name == "bias-opt":
        sq = design.sq_norms
        # E[X^T X] > 0: every spec has a full-rank H.
        return sq / float(design.probs @ sq)
    xs = design.xs
    weights = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", xs, np.linalg.inv(spec.hmat), xs),
                                 0.0))
    if not isinstance(spec.noise, IndependentGaussianNoise):
        weights = np.abs(_atom_residuals(spec)) * weights
    norm_const = float(design.probs @ weights)
    if norm_const <= 0:
        raise SchemeError("the variance scheme is undefined on a noiseless spec")
    return weights / norm_const


def moment_sets(spec: ProblemSpec, schemes) -> list[MomentSet]:
    """The moments of ``spec`` under each scheme of ``schemes`` (None: the
    spec itself, :func:`~avlms.moments.compute_moments`).

    On a Gaussian spec each scheme gives its closed form; a scheme without
    one is refused with SchemeError, as is, on a discrete spec, a scheme
    built for other atoms.  On a discrete spec atom t is weighted by
    ``probs[t] / ratios[t]`` (0 where X = 0 or the mass is 0): every
    second-order moment is unchanged and every fourth-order one picks up
    the factor c = 1/c^{-1}; the moments of norm-proportional resampling
    are marked so (:func:`~avlms.stepsize.gamma_max` reads 2/Tr(H)).  The
    spec keeps the sets of None and of its own kept schemes
    (:func:`_kept_scheme`); any other scheme, an :func:`atom_scheme` or
    another spec's kept scheme, gets a new set on each call.  The sets a
    call lacks share one pass of the atom Gram.
    """
    design = spec.design
    if not isinstance(design, DiscreteDesign):
        if any(scheme is not None and scheme.closed_form is None for scheme in schemes):
            raise SchemeError(_GAUSSIAN_REFUSAL)
        return [compute_moments(spec) if scheme is None else scheme.closed_form(spec)
                for scheme in schemes]
    kept = spec._kept
    sets = {scheme: kept[scheme] for scheme in schemes if scheme in kept}
    new = [scheme for scheme in dict.fromkeys(schemes) if scheme not in sets]
    if new:
        probs = design.probs
        live = (design.sq_norms > 0) & (probs > 0)
        rows = [probs if scheme is None else probs * np.divide(
            1.0, scheme.ratios_on(spec), out=np.zeros(probs.size), where=live) for scheme in new]
        flags = [scheme is not None and scheme._norm_resampled for scheme in new]
        sets.update(zip(new, _atom_moments(spec, rows, flags)))
        kept.update((scheme, sets[scheme]) for scheme in new
                    if scheme is None or kept.get(scheme.name) is scheme)
    return [sets[scheme] for scheme in schemes]


def variance_gain(spec: ProblemSpec) -> float:
    """The order-of-gain ratio E[sqrt(X^T X)]^2 / E[X^T X], in (0, 1].

    Exact on every design: an atom average on discrete designs, a
    one-dimensional quadrature (``_gaussian_mean_norm``) on Gaussian ones.
    """
    design = spec.design
    if isinstance(design, DiscreteDesign):
        sq = design.sq_norms
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
