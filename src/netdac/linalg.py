"""Small dense linear-algebra kernels used by the simulator and oracles.

Everything here operates on modest matrices (tens to a few hundred rows), so
dense direct methods are used throughout.
"""

import warnings

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

__all__ = [
    "solve_linear",
    "stationary_distribution",
    "project_box",
]

# Pivot magnitudes below this are treated as exact zeros.
_PIVOT_TOL = 1e-12
# Row sums of a stochastic matrix may deviate from 1 by at most this much.
_STOCHASTIC_TOL = 1e-10


def _as_matrix(a, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below 1e-12.
    DimensionMismatch
        If ``a`` is not square or ``b`` has the wrong length.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionMismatch(f"coefficient matrix must be square, got {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has length {b.shape[0]}, expected {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    # Imported here so that runs without a linear solve (every bandit run)
    # never load scipy.
    import scipy.linalg

    with warnings.catch_warnings():
        # Singularity is detected explicitly below; silence the factorizer's
        # own advisory so callers see exactly one signal.
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    small = np.min(np.abs(np.diag(lu))) if n else 1.0
    if small < _PIVOT_TOL:
        raise SingularMatrix(f"pivot magnitude {small:.3e} below {_PIVOT_TOL:.0e}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def stationary_distribution(p) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    Solves the balance equations ``d @ p = d`` with one equation replaced by
    the normalization ``sum(d) = 1``.

    Raises
    ------
    SingularMatrix
        If the chain does not determine a unique distribution (e.g. the
        identity matrix, or any reducible chain).
    """
    p = _as_matrix(p, "p")
    n, m = p.shape
    if n != m:
        raise DimensionMismatch(f"transition matrix must be square, got {p.shape}")
    if n == 0:
        raise DimensionMismatch("transition matrix must be non-empty")
    row_err = np.max(np.abs(p.sum(axis=1) - 1.0))
    if row_err > _STOCHASTIC_TOL or np.min(p) < -_STOCHASTIC_TOL:
        raise ValueError(f"matrix is not row-stochastic (row-sum error {row_err:.3e})")
    if n == 1:
        return np.ones(1)  # the solve below gives exactly this
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    d = solve_linear(a, rhs)
    # Guard against tiny negative entries from roundoff.
    d = np.clip(d, 0.0, None)
    return d / d.sum()


def project_box(x, lo: float, hi: float) -> np.ndarray:
    """Euclidean projection of ``x`` onto the box ``[lo, hi]^n`` (scalar bounds, lo <= hi)."""
    return np.minimum(np.maximum(x, lo), hi)
