"""Dense symmetric-positive-definite primitives.

Cholesky factorization (LAPACK, through ``np.linalg.cholesky``) plus the
log-determinant, linear-solve and trace-of-solve routines built on it.
Each factor carries L^{-1} as well as L, computed once per factor by a
2x2-block recursion, so solves and traces of solves are plain matmuls:
A^{-1} B = L^{-T} (L^{-1} B) and tr(A^{-1} B) = sum(L^{-1} * (L^{-1} B)).
Everything here runs in float64: log-determinants and traces of solves on
near-singular Gram matrices lose too much precision in float32.
``cholesky``, ``reconstruct``, ``log_det`` and ``solve_spd`` (against
matrices) also take stacks of matrices and give each slice the bits of its
single-matrix call; ``trace_solve``, and ``solve_spd`` against a vector,
refuse a stacked factor with DimensionMismatch.

``cholesky`` is the one place that handles symmetry.  Every internal Gram
arrives as an exact product x x^T plus jitter and passes as it is; inputs
asymmetric within ``SYMMETRY_RTOL`` (accumulation noise) are symmetrized as
(A + A^T)/2 with a debug log line, and larger asymmetry is an error.  No
pivoting or jitter here: failures go to the caller, which owns jitter policy.
"""

from __future__ import annotations

import functools
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
    inverse L^{-1} (also lower triangular); per slice for a stack."""

    lower: np.ndarray
    inverse: np.ndarray
    size: int


def _as_square(a, stacked: bool = False) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not (arr.ndim == 2 or stacked and arr.ndim > 2) or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


@functools.cache
def _lower_mask(n: int) -> np.ndarray:
    return np.tri(n, dtype=bool)  # shared: read, never written


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of nonsingular lower-triangular matrices by the block identity
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]."""
    n = lower.shape[-1]
    if n <= _INVERSE_LEAF:
        # np.tril's own selection, with the mask built once per size
        return np.where(_lower_mask(n), np.linalg.inv(lower), 0.0)
    h = n // 2
    a_inv = _lower_inverse(lower[..., :h, :h])
    c_inv = _lower_inverse(lower[..., h:, h:])
    out = np.zeros_like(lower)
    out[..., :h, :h] = a_inv
    out[..., h:, h:] = c_inv
    out[..., h:, :h] = -(c_inv @ (lower[..., h:, :h] @ a_inv))
    return out


def cholesky(a) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix (or each of a stack)
    as L L^T.

    Raises NotSymmetric when the relative asymmetry exceeds SYMMETRY_RTOL
    and NotPositiveDefinite when LAPACK meets a non-positive pivot.
    """
    arr = _as_square(a, stacked=True)
    n = arr.shape[-1]
    diff = arr - arr.swapaxes(-1, -2)
    # a NaN or inf entry leaves NaN in diff, so it takes the tolerance test and fails
    if diff.any():
        scale = np.max(np.abs(arr), axis=(-2, -1))  # per matrix of a stack
        asym = np.max(np.abs(diff), axis=(-2, -1))
        if not (asym <= SYMMETRY_RTOL * np.maximum(scale, 1.0)).all():
            raise NotSymmetric(f"asymmetry {np.max(asym):.3e} exceeds tolerance "
                               f"for scale {np.max(scale):.3e}")
        log.debug("symmetrizing input with asymmetry %.3e", np.max(asym))
        arr = 0.5 * (arr + arr.swapaxes(-1, -2))
    try:
        lower = np.linalg.cholesky(arr)
        inverse = _lower_inverse(lower)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"{n}x{n} matrix is not positive definite; it needs jitter upstream"
        ) from None
    return CholeskyFactor(lower=lower, inverse=inverse, size=n)


def reconstruct(f: CholeskyFactor) -> np.ndarray:
    """L L^T, the matrix the factor represents, per slice of a stack."""
    return f.lower @ f.lower.swapaxes(-1, -2)


def log_det(f: CholeskyFactor):
    """log |A| = 2 * sum(log diag(L)), per slice of a stack."""
    return 2.0 * np.sum(np.log(np.diagonal(f.lower, axis1=-2, axis2=-1)), axis=-1)


def solve_spd(f: CholeskyFactor, b) -> np.ndarray:
    """Solve A x = b as x = L^{-T} (L^{-1} b); b is a vector or a matrix
    (a matrix or a stack of matrices for a stacked factor).  A stack of
    matrices must have the factor's leading axes."""
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.ndim == 1 and f.inverse.ndim > 2:
        raise DimensionMismatch("a stacked factor solves against matrices, not a vector")
    if rhs.ndim > 2 and rhs.shape[:-2] != f.inverse.shape[:-2]:
        raise DimensionMismatch(f"rhs stack of shape {rhs.shape} does not match the "
                                f"factor's leading axes {f.inverse.shape[:-2]}")
    if rhs.ndim == 0 or rhs.shape[-2 if rhs.ndim > 1 else 0] != f.size:
        raise DimensionMismatch(
            f"rhs shape {np.shape(b)} does not conform with factor size {f.size}"
        )
    return f.inverse.swapaxes(-1, -2) @ (f.inverse @ rhs)


def trace_solve(f: CholeskyFactor, b) -> float:
    """trace(A^{-1} B) = sum(L^{-1} * (L^{-1} B)); never forms A^{-1}.
    One matrix only: a stacked factor raises DimensionMismatch."""
    if f.inverse.ndim > 2:
        raise DimensionMismatch("trace_solve takes one factor, not a stack")
    arr = _as_square(b)
    if arr.shape[0] != f.size:
        raise DimensionMismatch(
            f"matrix of size {arr.shape[0]} does not conform with factor size {f.size}"
        )
    return float(np.vdot(f.inverse, f.inverse @ arr))
