"""Multimode Gaussian states as covariance matrices, the squeezer and diagnostics.

Conventions used throughout the package (fixed here, asserted everywhere):

* Quadrature ordering is ``x1, p1, x2, p2, ..., xm, pm`` so that each mode
  occupies a contiguous 2x2 block of the covariance matrix.
* Natural units with hbar = 1 and ``x = (a + a^dag)/sqrt(2)``,
  ``p = (a - a^dag)/(i sqrt(2))``, hence ``[x, p] = i`` and the vacuum
  variance of each quadrature is 1/2.
* A covariance matrix is physical (bona fide) iff it has a Cholesky factor and
  all of its symplectic eigenvalues are >= 1/2; it is pure iff they all equal 1/2.

States are immutable, so values can be shared freely across threads. The
resource itself is built in :mod:`cvqss.states` from the p-squeezed covariance
here; the gate-by-gate symplectic maps it is checked against, and the vacuum and
squeezed-vacuum states they start from, are a test oracle in ``tests/helpers.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

#: Relative tolerance for covariance-matrix symmetry.
SYMMETRY_RTOL = 1e-12

#: Slack on the bona-fide condition min(nu) >= 1/2 (loss channels and
#: eigensolvers leave rounding at this scale).
BONA_FIDE_TOL = 1e-9

#: Vacuum variance of a single quadrature under the conventions above.
VACUUM_VARIANCE = 0.5

Quadrature = str  # "x" or "p"

_QUAD_OFFSET = {"x": 0, "p": 1}


class UnphysicalStateError(ValueError):
    """Raised when an operation requires a bona-fide covariance matrix."""


def _check_quadrature(quadrature: str) -> str:
    if quadrature not in _QUAD_OFFSET:
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return quadrature


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted ascending.

    With cov = L L^T (Cholesky), the Hermitian i L^T Omega L has eigenvalues +/-nu
    (Williamson, Am. J. Math. 58, 141 (1936)); the upper half is returned. L^T Omega L
    is X^T P - P^T X, X and P the rows of L at x and at p, summed elementwise, not by
    BLAS, so its bits are L's on any kernel. A cov with no Cholesky factor is not
    positive definite, so it has no spectrum and is unphysical: UnphysicalStateError.
    """
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError("covariance matrix is not positive definite") from None
    xp = (factor[::2, :, None] * factor[1::2, None, :]).sum(axis=0)
    return np.linalg.eigvalsh(1j * (xp - xp.T))[len(factor) // 2:]


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state of ``m`` labelled modes, or a stack of such states.

    Every quantity the package computes is a second moment, so a state is its
    covariance: the quadrature means are not stored.

    Attributes:
        cov: Symmetric 2m x 2m covariance matrix, ordering x1,p1,...,xm,pm, or
            a (..., 2m, 2m) stack of them sharing labels, which
            ``cvqss.states.build_kn_state`` builds as one array.
        labels: Unique identifier per mode.

    The constructor enforces shape consistency, label uniqueness and a
    finite, symmetric ``cov``; physicality (the bona-fide condition) is *not*
    enforced, so that diagnostics can be run on deliberately broken
    matrices; see :func:`validate`.
    """

    cov: np.ndarray
    labels: tuple

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")
        dim = 2 * len(labels)
        if cov.shape[-2:] != (dim, dim):
            raise ValueError(f"cov must be {dim}x{dim}, got {cov.shape}")
        if not cov.size:
            raise ValueError(f"cov is an empty stack of shape {cov.shape}: a stack needs "
                             "at least one state, and a state at least one mode")
        finite = np.isfinite(cov)
        if not finite.all():  # else a NaN symmetry residual would pass the check below
            raise ValueError(f"cov must be finite, got an entry of {cov.flat[finite.argmin()]}")
        transposed = cov.swapaxes(-1, -2)
        scale = np.abs(cov).max(axis=(-2, -1), keepdims=True, initial=1.0)
        asym = (np.abs(cov - transposed) / scale).max()
        if asym > SYMMETRY_RTOL:
            raise ValueError(f"cov is not symmetric (relative residual {asym:.3e})")
        # Symmetrise exactly so chained transforms cannot accumulate skew.
        with np.errstate(over="ignore"):  # refused below
            symmetric = 0.5 * (cov + transposed)
        finite = np.isfinite(symmetric)
        if not finite.all():
            raise ValueError(f"cov entry {cov.flat[finite.argmin()]:g} overflows double "
                             "precision when symmetrised")
        symmetric.setflags(write=False)
        object.__setattr__(self, "cov", symmetric)
        object.__setattr__(self, "labels", labels)

    def mode_index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode {label!r}; state has {self.labels}") from None

    def quad_index(self, label, quadrature: Quadrature) -> int:
        """Row/column index of a (mode, quadrature) coordinate."""
        return 2 * self.mode_index(label) + _QUAD_OFFSET[_check_quadrature(quadrature)]

    def _single_cov(self) -> np.ndarray:
        """``cov`` of one state; a stack has no single matrix to read."""
        if self.cov.ndim != 2:
            raise ValueError(f"expected one state, got a {self.cov.shape} covariance stack")
        return self.cov


@dataclass(frozen=True)
class StateDiagnostics:
    """Physicality report for a covariance matrix; see :func:`validate`."""

    symmetry_residual: float
    symplectic_eigenvalues: tuple
    min_symplectic_eigenvalue: float | None
    purity: float | None
    physical: bool


def _squeezed_covariance(r) -> np.ndarray:
    """The covariance of a p-squeezed vacuum, a (..., 2, 2) stack for an array of r.

    x has variance exp(2r)/2 and p exp(-2r)/2, the exponentials ``math.exp``'s, which
    ``np.exp`` differs from in the last bit on some inputs. The error raised names the
    first value, in row-major order, that is not finite, is negative or overflows
    exp(2r), 2r included.
    """
    values = np.asarray(r, dtype=float)
    flat, anti = values.ravel(), []
    with np.errstate(over="ignore"):  # 2r is inf from r = 2^1023 on: refused below
        doubled = 2.0 * flat
    try:
        anti.extend(map(math.exp, doubled.tolist()))  # kept up to the first overflow
    except OverflowError:
        pass
    offending = ~(np.isfinite(doubled) & (flat >= 0.0))
    offending[len(anti):] = True  # the value exp(2r) overflowed at, and all after it
    if offending.any():
        value = float(flat[offending.argmax()])
        if not math.isfinite(value):
            raise ValueError(f"squeezing parameter r must be finite, got {value}")
        if value < 0:
            raise ValueError(f"squeezing parameter r must be >= 0, got {value}")
        raise ValueError(f"squeezing parameter r = {value} overflows the anti-squeezed "
                         "variance exp(2r)/2")
    cov = np.zeros((len(flat), 4))
    cov[:, 0], cov[:, 3] = 0.5 * np.array([anti, list(map(math.exp, (-doubled).tolist()))])
    return cov.reshape(values.shape + (2, 2))


def validate(state: GaussianState) -> StateDiagnostics:
    """Diagnostics on a state: symmetry, symplectic spectrum, purity.

    Reports and never raises. ``physical`` is True iff the covariance has a
    Cholesky factor and every symplectic eigenvalue is >= 1/2 - BONA_FIDE_TOL;
    without one the spectrum is undefined: (), and no smallest eigenvalue or
    purity (None). Purity is the product of 1/(2 nu_k) over the spectrum (1 for
    pure states), or None where that is not finite, as only for an unphysical state.
    ``symmetry_residual`` is exactly 0.0 for any constructed state: the constructor
    stores (V + V^T)/2, whose two triangles are the same sums, bit for bit.
    """
    cov = state._single_cov()
    scale = max(np.abs(cov).max(), 1.0)
    residual = float(np.abs(cov - cov.T).max() / scale)
    try:
        nus = symplectic_eigenvalues(cov)
    except UnphysicalStateError:
        return StateDiagnostics(residual, (), None, None, False)
    min_nu = float(nus[0])
    with np.errstate(divide="ignore", over="ignore"):  # a positive definite V can have a tiny nu
        purity = float(np.prod(1.0 / (2.0 * nus)))
    return StateDiagnostics(
        symmetry_residual=residual,
        symplectic_eigenvalues=tuple(float(n) for n in nus),
        min_symplectic_eigenvalue=min_nu,
        purity=purity if math.isfinite(purity) else None,
        physical=min_nu >= VACUUM_VARIANCE - BONA_FIDE_TOL,
    )
