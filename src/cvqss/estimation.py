"""Linear inference on Gaussian second moments.

For jointly Gaussian outcomes, the best estimator of a target quadrature
from a set of measured coordinates is linear, and the residual variance is
the Schur complement

    V(target | est) = V(target) - c^T Gamma^-1 c,

where c is the covariance vector between target and estimators and Gamma
the estimators' covariance block. The optimal gains are g = Gamma^-1 c.

:func:`schur` is the one inference kernel. It evaluates many estimator sets
of equal size against the same target at once: each set's block bordered by
the target, ``[[Gamma, c], [c^T, V]]`` (the estimators first, the target
last), is gathered by fancy indexing and factored by one batched Cholesky
decomposition per block of SCHUR_BLOCK_ROWS rows, so a (k, n) scheme's
C(n, k) access structures cost a few numpy calls instead of a Python loop;
a stack of covariances, one per grid point, shares the same blocks. The
factor's last row holds l = L^-1 c, so the conditional variance is
V - l.l and the gains, for one covariance but not a stack, are L^-T l.
Cholesky is backward stable on positive definite blocks (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., ch. 10), so each variance is
accurate to about eps * V, relative to v that is eps * V / v. A block that
does not factorise, as squeezing beyond what double precision resolves or
linearly dependent estimators make it, is refused, as is a row that repeats
a coordinate. Every row gets the same arithmetic as a single-row call on one
matrix, so results do not depend on how rows or points are batched.

These formulas are exact for Gaussian states. If applied to second moments
estimated from non-Gaussian data they yield a lower bound on the mutual
information instead.
"""

from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .gaussian import Quadrature

#: Estimator sets per batched Cholesky decomposition in :func:`schur`. It
#: bounds the temporary (rows, g + 1, g + 1) arrays, so memory stays flat in
#: the number of structures.
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


def _coordinate(labels, index: int) -> str:
    """Coordinate ``index`` as ``x_A`` or ``p_A`` (x1, p1, ..., xm, pm), or its index."""
    return f"{'xp'[index % 2]}_{labels[index // 2]}" if labels else str(index)


def schur(cov: np.ndarray, target_idx: int, estimator_idx: np.ndarray, labels=()) -> tuple:
    """Optimal linear inference of one coordinate from many estimator sets.

    Row s of ``estimator_idx`` lists the coordinates of estimator set s. Its
    conditional variance is V - l.l, l the last row of the Cholesky factor of
    the set's block bordered by the target; V - l.l is at most V bit for bit,
    which the squared last pivot is not where c = 0. Its gains L^-T l come from
    the same factor, for one covariance only: a stack is a sweep grid, which
    prints no gains, and its gains would hold g doubles per row and point, g
    times its variances. A row's result never depends on the other rows.

    Args:
        cov: Covariance matrix, or a (..., d, d) stack of them.
        target_idx: Index of the target coordinate in ``cov``.
        estimator_idx: (S, g) integer array of estimator indices, g >= 1,
            distinct within a row and none equal to ``target_idx``.
        labels: The mode labels of ``cov`` (coordinates x1, p1, ..., xm, pm),
            which name a refused inference; without them it is named by indices.

    Returns:
        (conditional_variances, unconditional_variance, gains): a (..., S)
        array; the target's variance, a (...) array for a stack or a float;
        and an (S, g) array aligned with ``estimator_idx``, None for a stack.

    Raises:
        ValueError: for a block that is not positive definite to double
            precision, as squeezing too large makes it.
    """
    idx = np.asarray(estimator_idx, dtype=int)
    if idx.ndim != 2:
        raise ValueError(f"estimator_idx must be an (S, g) index array, got shape {idx.shape}")
    if idx.size == 0:
        raise ValueError("estimator coordinate set must be nonempty")
    if (idx == target_idx).any():
        raise ValueError("estimator coordinates must exclude the target")
    cov = np.asarray(cov)
    # A repeat makes the block singular, yet rounding can leave it a factor.
    seen = np.zeros((len(idx), cov.shape[-1]), dtype=bool)
    seen[np.arange(len(idx))[:, None], idx] = True
    if np.count_nonzero(seen) != idx.size:
        raise ValueError("estimator coordinates must be distinct within a row")
    stack = cov.reshape((-1,) + cov.shape[-2:])
    count, width = idx.shape
    v_target = stack[:, target_idx, target_idx]
    bordered = np.concatenate((idx, np.full((count, 1), target_idx)), axis=1)
    # Whole covariances per block where their rows fit.
    points = max(1, SCHUR_BLOCK_ROWS // count)
    lengths, gains = [], []
    for first, start in product(range(0, len(stack), points), range(0, count, SCHUR_BLOCK_ROWS)):
        block, rows = stack[first:first + points], bordered[start:start + SCHUR_BLOCK_ROWS]
        blocks = block[:, rows[:, :, None], rows[:, None, :]].reshape(-1, width + 1, width + 1)
        try:
            factors = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            for bad, one in enumerate(blocks):  # the first, as one block at a time fails
                try:
                    np.linalg.cholesky(one)
                except np.linalg.LinAlgError:
                    break
            point, row = divmod(bad, len(rows))
            names = ", ".join(_coordinate(labels, i) for i in rows[row, :-1])
            raise ValueError(
                f"V({_coordinate(labels, target_idx)} | {names}) at target variance "
                f"{v_target[first + point]:.6g} has no Cholesky factor: the squeezing is "
                "beyond what double precision resolves, or the estimators are linearly "
                "dependent") from None
        # l = L^-1 c, the last row. numpy sums each l.l along its contiguous axis in
        # one fixed order, whatever the batch, and without BLAS.
        last = factors[:, -1, :-1]
        lengths.append((last * last).sum(axis=-1))
        if cov.ndim == 2:
            gains.append(np.linalg.solve(factors[:, :-1, :-1].transpose(0, 2, 1),
                                         last[..., None])[..., 0])
    leading = cov.shape[:-2]
    v_target = v_target.reshape(leading) if leading else float(v_target[0])
    lengths = np.concatenate(lengths).reshape(leading + (count,))
    return (np.asarray(v_target)[..., None] - lengths, v_target,
            np.concatenate(gains) if gains else None)
