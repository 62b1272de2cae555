"""Linear inference on Gaussian second moments.

For jointly Gaussian outcomes, the best estimator of a target quadrature
from a set of measured coordinates is linear, and the residual variance is
the Schur complement

    V(target | est) = V(target) - c^T Gamma^+ c,

where c is the covariance vector between target and estimators and Gamma
the estimators' covariance block. The optimal gains are g = Gamma^+ c.

:func:`schur` is the one inference kernel. It evaluates many estimator sets
of equal size against the same target at once: the (S, g, g) estimator
blocks are gathered by fancy indexing and pseudo-inverted by one batched
eigendecomposition per block of SCHUR_BLOCK_ROWS rows, so a (k, n) scheme's
C(n, k) access structures cost a few numpy calls instead of a Python loop;
a stack of covariances, one per grid point, shares the same blocks. Every
row gets the same arithmetic as a single-row call on one matrix, so results
do not depend on how rows or points are batched; a single estimator set is a
one-row index array.

These formulas are exact for Gaussian states. If applied to second moments
estimated from non-Gaussian data they yield a lower bound on the mutual
information instead.
"""

from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .gaussian import Quadrature

#: Relative eigenvalue cutoff (times the trace) for the pseudo-inverse of a
#: near-singular estimator covariance block. Perfectly correlated player
#: modes make the block singular; the inference variance is still
#: well-defined as a limit and the pseudo-inverse realises it.
PINV_CUTOFF = 1e-10

#: Estimator sets per batched eigendecomposition in :func:`schur`. It bounds
#: the temporary (rows, g, g) arrays, so memory stays flat in the number of
#: structures.
SCHUR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class JointVariable:
    """A collective degree of freedom: a gain per mode in one basis.

    ``quadrature`` is the announced basis of the contributing outcomes.
    Without a layout context it is read as the physical quadrature of every
    mode in ``gains``; the key-rate layer resolves it through the party
    layout's announcement map instead.

    The gains map must be nonempty. Optimal inference on an uncorrelated
    estimator set legitimately returns all-zero gains ("nothing helps").
    """

    quadrature: Quadrature
    gains: Mapping

    def __post_init__(self):
        gains = dict(self.gains)
        if not gains:
            raise ValueError("joint variable needs at least one mode gain")
        object.__setattr__(self, "gains", gains)


def check_conditional_variances(conditional: np.ndarray, unconditional) -> None:
    """Raise ValueError unless every conditional variance (..., S) lies in (0, V (...)]."""
    bound = np.asarray(unconditional, dtype=float)[..., None]
    inside = (conditional > 0.0) & (conditional <= bound)
    if inside.all():
        return
    first = np.argmin(inside)
    raise ValueError(f"conditional variance {float(conditional.flat[first])} must lie in "
                     f"(0, {float(np.broadcast_to(bound, inside.shape).flat[first])}]")


def schur(cov: np.ndarray, target_idx: int, estimator_idx: np.ndarray) -> tuple:
    """Optimal linear inference of one coordinate from many estimator sets.

    Row s of ``estimator_idx`` lists the coordinates of estimator set s.
    Each set's block is pseudo-inverted with eigenvalues at or below
    PINV_CUTOFF times its trace cut, so singular blocks (duplicated or
    perfectly correlated coordinates) give the limiting variance. A row's
    result never depends on the other rows.

    Args:
        cov: Covariance matrix, or a (..., d, d) stack of them.
        target_idx: Index of the target coordinate in ``cov``.
        estimator_idx: (S, g) integer array of estimator indices, g >= 1,
            none equal to ``target_idx``.

    Returns:
        (conditional_variances, gains, unconditional_variance): a (..., S)
        array, a (..., S, g) array aligned with ``estimator_idx``, and the
        target's variance, a (...) array for a stack or a float.
    """
    idx = np.asarray(estimator_idx, dtype=int)
    if idx.ndim != 2:
        raise ValueError(f"estimator_idx must be an (S, g) index array, got shape {idx.shape}")
    if idx.size == 0:
        raise ValueError("estimator coordinate set must be nonempty")
    if (idx == target_idx).any():
        raise ValueError("estimator coordinates must exclude the target")
    cov = np.asarray(cov)
    stack = cov.reshape((-1,) + cov.shape[-2:])
    count, width = idx.shape
    v_target = stack[:, target_idx, target_idx]
    # Whole covariances per block where their rows fit. The gathers are made C-ordered,
    # as for one matrix, so the matmuls below take the same kernels.
    points = max(1, SCHUR_BLOCK_ROWS // count)
    variances, gains = [], []
    for first, start in product(range(0, len(stack), points), range(0, count, SCHUR_BLOCK_ROWS)):
        block, rows = stack[first:first + points], idx[start:start + SCHUR_BLOCK_ROWS]
        gamma = np.ascontiguousarray(block[:, rows[:, :, None], rows[:, None, :]]).reshape(
            -1, width, width)
        c = np.ascontiguousarray(block[:, target_idx, rows]).reshape(-1, 1, width)
        eigval, eigvec = np.linalg.eigh(gamma)
        cutoff = PINV_CUTOFF * np.maximum(gamma.trace(axis1=1, axis2=2), 0.0)
        keep = eigval > cutoff[:, None]
        inv = keep / np.where(keep, eigval, 1.0)  # 1/eigval where kept, else 0
        # Matrix-vector and row-column matmuls, as for a single 1-D block:
        # einsum would sum in another order and move results by an ulp.
        g = ((eigvec * inv[:, None, :]) @ eigvec.transpose(0, 2, 1)) @ c.transpose(0, 2, 1)
        variances.append((v_target[first:first + points, None]
                          - (c @ g)[:, 0, 0].reshape(len(block), -1)).ravel())
        gains.append(g[:, :, 0])
    if len(variances) > 1:
        variances, gains = [np.concatenate(variances)], [np.concatenate(gains)]
    leading = cov.shape[:-2]
    return (variances[0].reshape(leading + (count,)), gains[0].reshape(leading + idx.shape),
            v_target.reshape(leading) if leading else float(v_target[0]))
