"""Dense symmetric-positive-definite primitives.

Cholesky factorization (LAPACK, through ``np.linalg.cholesky``) plus the
log-determinant, linear-solve and trace-of-solve routines built on it.
Each factor carries L^{-1} as well as L, computed once per factor by a
2x2-block recursion, so solves and traces of solves are plain matmuls:
A^{-1} B = L^{-T} (L^{-1} B) and tr(A^{-1} B) = sum(L^{-1} * (L^{-1} B)).
Everything here runs in float64: log-determinants and traces of solves on
near-singular Gram matrices lose too much precision in float32.

Inputs asymmetric within ``SYMMETRY_RTOL`` (float accumulation noise) are
symmetrized as (A + A^T)/2 with a debug log line; larger asymmetry is an
error.  There is no pivoting and no jitter here: a failed factorization is
surfaced to the caller, which owns the jitter policy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

log = logging.getLogger(__name__)

SYMMETRY_RTOL = 1e-10

# blocks at or below this size are inverted directly rather than split
_INVERSE_LEAF = 32


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with A = L L^T, diag(L) > 0, and its
    inverse L^{-1} (also lower triangular)."""

    lower: np.ndarray
    inverse: np.ndarray
    size: int


def _as_square(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix by the block identity
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]."""
    n = lower.shape[0]
    if n <= _INVERSE_LEAF:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    a_inv = _lower_inverse(lower[:h, :h])
    c_inv = _lower_inverse(lower[h:, h:])
    out = np.zeros_like(lower)
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -(c_inv @ (lower[h:, :h] @ a_inv))
    return out


def cholesky(a) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as L L^T.

    Raises NotSymmetric when the relative asymmetry exceeds SYMMETRY_RTOL
    and NotPositiveDefinite when LAPACK meets a non-positive pivot.
    """
    arr = _as_square(a)
    n = arr.shape[0]
    scale = float(np.max(np.abs(arr))) if n else 0.0
    asym = float(np.max(np.abs(arr - arr.T))) if n else 0.0
    if not asym <= SYMMETRY_RTOL * max(scale, 1.0):
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds tolerance for scale {scale:.3e}"
        )
    if asym > 0.0:
        log.debug("symmetrizing input with asymmetry %.3e", asym)
        arr = 0.5 * (arr + arr.T)
    try:
        lower = np.linalg.cholesky(arr)
        inverse = _lower_inverse(lower)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"{n}x{n} matrix is not positive definite; it needs jitter upstream"
        ) from None
    return CholeskyFactor(lower=lower, inverse=inverse, size=n)


def reconstruct(f: CholeskyFactor) -> np.ndarray:
    """L L^T, the matrix the factor represents."""
    return f.lower @ f.lower.T


def log_det(f: CholeskyFactor) -> float:
    """log |A| = 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(f.lower))))


def solve_spd(f: CholeskyFactor, b) -> np.ndarray:
    """Solve A x = b as x = L^{-T} (L^{-1} b); b is a vector or a matrix."""
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != f.size:
        raise DimensionMismatch(
            f"rhs shape {np.shape(b)} does not conform with factor size {f.size}"
        )
    return f.inverse.T @ (f.inverse @ rhs)


def trace_solve(f: CholeskyFactor, b) -> float:
    """trace(A^{-1} B) = sum(L^{-1} * (L^{-1} B)); never forms A^{-1}."""
    arr = _as_square(b)
    if arr.shape[0] != f.size:
        raise DimensionMismatch(
            f"matrix of size {arr.shape[0]} does not conform with factor size {f.size}"
        )
    return float(np.vdot(f.inverse, f.inverse @ arr))
