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
C(n, k) access structures cost a few numpy calls instead of a Python loop.
Every row gets the same arithmetic as a single-row call, so results do not
depend on how the rows are batched; a single estimator set is a one-row
index array. :func:`conditional_variance_fixed` is the separate fixed-gain
formula, an independent check of the optimum.

These formulas are exact for Gaussian states. If applied to second moments
estimated from non-Gaussian data they yield a lower bound on the mutual
information instead.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gaussian import GaussianState, Quadrature

#: Absolute variance below which an estimator is considered degenerate.
DEGENERATE_VARIANCE_TOL = 1e-12

#: Relative eigenvalue cutoff (times the trace) for the pseudo-inverse of a
#: near-singular estimator covariance block. Perfectly correlated player
#: modes make the block singular; the inference variance is still
#: well-defined as a limit and the pseudo-inverse realises it.
PINV_CUTOFF = 1e-10

#: Estimator sets per batched eigendecomposition in :func:`schur`. It bounds
#: the temporary (rows, g, g) arrays, so memory stays flat in the number of
#: structures.
SCHUR_BLOCK_ROWS = 256


class DegenerateEstimatorError(ValueError):
    """Raised when a fixed estimator has (numerically) zero variance."""


@dataclass(frozen=True)
class JointVariable:
    """A collective degree of freedom: a gain per mode in one basis.

    ``quadrature`` is the announced basis of the contributing outcomes.
    Without a layout context it is read as the physical quadrature of every
    mode in ``gains``; the key-rate layer resolves it through the party
    layout's announcement map instead.

    The gains map must be nonempty. Optimal inference on an uncorrelated
    estimator set legitimately returns all-zero gains ("nothing helps");
    feeding such a variable back into :func:`conditional_variance_fixed`
    raises :class:`DegenerateEstimatorError` because its variance vanishes.
    """

    quadrature: Quadrature
    gains: Mapping

    def __post_init__(self):
        gains = dict(self.gains)
        if not gains:
            raise ValueError("joint variable needs at least one mode gain")
        object.__setattr__(self, "gains", gains)


def check_conditional_variances(conditional: np.ndarray, unconditional: float) -> None:
    """Raise ValueError unless every conditional variance lies in (0, V]."""
    inside = (conditional > 0.0) & (conditional <= unconditional)
    if inside.all():
        return
    first = float(conditional.flat[np.argmin(inside)])
    raise ValueError(f"conditional variance {first} must lie in (0, {unconditional}]")


def schur(cov: np.ndarray, target_idx: int, estimator_idx: np.ndarray) -> tuple:
    """Optimal linear inference of one coordinate from many estimator sets.

    Row s of ``estimator_idx`` lists the coordinates of estimator set s.
    Each set's block is pseudo-inverted with eigenvalues at or below
    PINV_CUTOFF times its trace cut, so singular blocks (duplicated or
    perfectly correlated coordinates) give the limiting variance.

    Args:
        cov: Covariance matrix.
        target_idx: Index of the target coordinate in ``cov``.
        estimator_idx: (S, g) integer array of estimator indices, g >= 1,
            none equal to ``target_idx``.

    Returns:
        (conditional_variances, gains, unconditional_variance): an (S,)
        array, an (S, g) array aligned with ``estimator_idx``, and the
        target's variance as a float.
    """
    idx = np.asarray(estimator_idx, dtype=int)
    if idx.ndim != 2:
        raise ValueError(f"estimator_idx must be an (S, g) index array, got shape {idx.shape}")
    if idx.size == 0:
        raise ValueError("estimator coordinate set must be nonempty")
    if (idx == target_idx).any():
        raise ValueError("estimator coordinates must exclude the target")
    v_target = float(cov[target_idx, target_idx])
    variances, gains = [], []
    for start in range(0, len(idx), SCHUR_BLOCK_ROWS):
        rows = idx[start:start + SCHUR_BLOCK_ROWS]
        gamma = cov[rows[:, :, None], rows[:, None, :]]
        c = cov[target_idx, rows][:, None, :]
        eigval, eigvec = np.linalg.eigh(gamma)
        cutoff = PINV_CUTOFF * np.maximum(gamma.trace(axis1=1, axis2=2), 0.0)
        keep = eigval > cutoff[:, None]
        inv = keep / np.where(keep, eigval, 1.0)  # 1/eigval where kept, else 0
        # Matrix-vector and row-column matmuls, as for a single 1-D block:
        # einsum would sum in another order and move results by an ulp.
        g = ((eigvec * inv[:, None, :]) @ eigvec.transpose(0, 2, 1)) @ c.transpose(0, 2, 1)
        variances.append(v_target - (c @ g)[:, 0, 0])
        gains.append(g[:, :, 0])
    if len(variances) > 1:
        return np.concatenate(variances), np.concatenate(gains), v_target
    return variances[0], gains[0], v_target


def conditional_variance_fixed(
    state: GaussianState,
    target: tuple,
    estimator: JointVariable,
) -> float:
    """Inference variance of a target given a *fixed* joint variable.

    Returns Var(target) - Cov(target, est)^2 / Var(est) for the scalar
    estimator est = sum_j gains[j] * (quadrature of mode j).
    """
    g = np.array(list(estimator.gains.values()), dtype=float)
    t_idx = state.quad_index(*target)
    e_idx = np.array([state.quad_index(mode, estimator.quadrature) for mode in estimator.gains])
    var_est = float(g @ state.cov[np.ix_(e_idx, e_idx)] @ g)
    if var_est <= DEGENERATE_VARIANCE_TOL:
        raise DegenerateEstimatorError(
            f"estimator variance {var_est:.3e} is degenerate")
    cov_te = float(state.cov[t_idx, e_idx] @ g)
    return float(state.cov[t_idx, t_idx] - cov_te**2 / var_est)
