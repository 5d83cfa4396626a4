"""Dense D x D reference operators on symmetric matrices.

The library reads T(gamma) = H_L + H_R - gamma M from the spectral frame
of :mod:`avlms.stepsize`; these build the same operators densely, in the
original coordinates, as the references the tests compare against.
"""

import numpy as np

from avlms.errors import DimensionError
from avlms.operators import SymBasis, SymOperator, _as_symmetric, operator_from_map


def left_right_operator(hmat: np.ndarray, basis: SymBasis | None = None) -> SymOperator:
    """Operator A -> HA + AH for a symmetric H, restricted to symmetric A.

    For H = diag(l_1, ..., l_d) its eigenvalues are {l_i + l_j : i <= j}.
    """
    hmat = _as_symmetric(hmat, "hmat")
    if basis is None:
        basis = SymBasis(hmat.shape[0])
    elif basis.dim != hmat.shape[0]:
        raise DimensionError("basis and matrix dimensions differ")
    return operator_from_map(lambda mats: hmat @ mats + mats @ hmat, basis)


def contraction_generator(moments, gamma: float) -> SymOperator:
    """The operator T(gamma) = H_L + H_R - gamma * M on symmetric matrices."""
    b = left_right_operator(moments.hmat, moments.basis)
    return SymOperator(basis=moments.basis,
                       matrix=b.matrix - gamma * moments.fourth_moment.matrix)


def apply(op: SymOperator, a: np.ndarray) -> np.ndarray:
    """The operator applied to a symmetric matrix."""
    return op.basis.vecs_to_mats(op.matrix @ op.basis.mats_to_vecs(a))
