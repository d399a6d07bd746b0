"""Gaussian-process feature priors.

A batch of hidden features Phi (n x p) induces a zero-mean Gaussian
process over the batch through its dot-product Gram matrix
K_ab = <phi(x_a), phi(x_b)>.  The prior log-density for student features
is -alpha times the closed-form KL divergence between the student's and
the teacher's induced Gaussians:

    KL(N(0,K1) || N(0,K2)) = 1/2 (tr(K2^{-1} K1) - n + log|K2| - log|K1|)

Feature counts may differ between the two sides; only the n x n Grams
compare.  Because a Gram of n > p features is rank deficient, both kernels
carry diagonal jitter; one automatic x10 escalation is attempted before
factorization failure becomes an error.

The gradient of the KL with respect to the student features is analytic,
c (K2^{-1} - K1^{-1}) Phi with c the width normalization, which avoids
differentiating through the Cholesky factorization.

Kernels are factored by LAPACK, and each factor carries L^{-1}
(``linalg.CholeskyFactor``).  Against an n x n teacher kernel K2 every KL
value and gradient is built on the single product A = L2^{-1} Phi.  With
K1 = c Phi Phi^T + j1 I the trace term needs no solve against K1:

    tr(K2^{-1} K1) = c ||A||_F^2 + j1 ||L2^{-1}||_F^2

and the gradient reuses A as K2^{-1} Phi = L2^{-T} A.

Training builds the teacher side with ``feature_kernel``.  When the batch
outnumbers the teacher's p2 features, the thin QR Phi2 = Q R holds
everything about K2 = c2 Phi2 Phi2^T + j I in the p2 x p2 core
B = c2 R R^T + j I, which is ``gram_kernel(R)`` because R is p2 wide:
K2 = Q B Q^T + j (I - Q Q^T).  With G = Q^T Phi, E = Phi - Q G and
A = L_B^{-1} G (Rasmussen & Williams 2006, GPML, App. A.3):

    tr(K2^{-1} K1) = c (||A||_F^2 + ||E||_F^2 / j)
                     + j1 (||L_B^{-1}||_F^2 + (n - p2) / j)
    log|K2|        = log|B| + (n - p2) log j
    K2^{-1} Phi    = Q L_B^{-T} A + E / j

These are stable: Q is orthonormal to working precision, so E, the part
of Phi outside the teacher's span, carries an error of order eps ||Phi||,
and 1/j multiplies only E, the part that K2 itself scales by 1/j.  The
Woodbury form (1/j)(Phi - c2 Phi2 M^{-1} Phi2^T Phi) would instead take
the in-span part as a difference of nearly equal terms and amplify its
error by 1/j.

``feature_kl_and_grad`` picks the student side's factorization the same
way.  When the batch outnumbers the student's features (p < n), K1 has
rank p plus jitter, and all its work moves onto the p x p matrix
M = j1 I_p + c Phi^T Phi (GPML App. A.3):

    log|K1| = (n - p) log j1 + log|M|      (Sylvester's determinant identity)
    K1^{-1} Phi = Phi M^{-1}                (push-through identity)

Neither identity subtracts nearly equal terms.  When p >= n either side
is factored as an n x n kernel (``gram_kernel``), as both always are in
``gp_kl`` and ``gp_kl_and_grad``.

Baselines kept for comparison: temperature-softened soft-target matching
on logits (which requires equal logit counts, the restriction the KL prior
removes) and the plain mean-squared feature distance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BatchMismatch,
    DimensionMismatch,
    FactorizationFailed,
    FeatPriorError,
    NonFiniteActivation,
    NotPositiveDefinite,
)

log = logging.getLogger(__name__)

_JITTER_ESCALATION = 10.0


@dataclass(frozen=True)
class PriorConfig:
    """Prior strength alpha, kernel jitter, width normalization and
    soft-target temperature."""

    alpha: float = 1.0
    jitter: float = 1e-4
    normalize_by_width: bool = True
    temperature: float = 4.0

    def __post_init__(self):
        # alpha = 0 is allowed so the joint objective can degenerate to
        # plain task training; negative strength is meaningless.
        if self.alpha < 0.0:
            raise FeatPriorError(f"alpha must be >= 0, got {self.alpha}")
        if self.jitter < 0.0:
            raise FeatPriorError(f"jitter must be >= 0, got {self.jitter}")
        if not self.temperature > 0.0:
            raise FeatPriorError(f"temperature must be > 0, got {self.temperature}")


@dataclass(frozen=True)
class KernelMatrix:
    """Jittered SPD Gram matrix with its cached Cholesky factor."""

    gram: np.ndarray
    jitter: float
    factor: linalg.CholeskyFactor

    @property
    def size(self) -> int:
        return self.factor.size


@dataclass(frozen=True)
class BasisKernel:
    """Jittered Gram K = c Phi Phi^T + jI of an n x p feature batch with
    p < n, held in the batch's own feature basis: with the thin QR
    Phi = Q R, K = Q B Q^T + j (I - Q Q^T) for the p x p core
    B = c R R^T + jI.  Nothing n x n is formed."""

    basis: np.ndarray
    core: KernelMatrix

    @property
    def size(self) -> int:
        return self.basis.shape[0]

    @property
    def jitter(self) -> float:
        return self.core.jitter


def _as_features(phi) -> np.ndarray:
    arr = np.asarray(phi, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"feature matrix must be n x p, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteActivation("feature matrix contains non-finite entries")
    return arr


def _scaled_gram(x: np.ndarray, p: int, config: PriorConfig) -> np.ndarray:
    """x x^T, divided by the feature width p under width normalization,
    symmetrized."""
    base = x @ x.T
    if config.normalize_by_width:
        base /= p
    return 0.5 * (base + base.T)


def _factor_jittered(base: np.ndarray, jitter: float, what: str):
    """(base + jitter I, jitter used, its Cholesky factor).  On
    factorization failure the jitter escalates once by x10 before giving
    up with FactorizationFailed."""
    for attempt in range(2):
        mat = base + jitter * np.eye(base.shape[0])
        try:
            return mat, jitter, linalg.cholesky(mat)
        except NotPositiveDefinite:
            if attempt == 0 and jitter > 0.0:
                log.debug("factorization failed, escalating jitter %.1e -> %.1e",
                          jitter, jitter * _JITTER_ESCALATION)
                jitter *= _JITTER_ESCALATION
            else:
                break
    raise FactorizationFailed(f"{what} not factorable at jitter {jitter:.1e}")


def gram_kernel(phi, config: PriorConfig) -> KernelMatrix:
    """Dot-product Gram of a feature batch, jittered and factored.

    gram = Phi Phi^T / p (+ jitter I) with width normalization on, else
    Phi Phi^T (+ jitter I).  On factorization failure the jitter escalates
    once by x10 before giving up.
    """
    arr = _as_features(phi)
    n, p = arr.shape
    gram, jitter, factor = _factor_jittered(_scaled_gram(arr, p, config),
                                            config.jitter, f"Gram of batch {n}")
    return KernelMatrix(gram=gram, jitter=jitter, factor=factor)


def _rank_deficient(n: int, p: int) -> FactorizationFailed:
    return FactorizationFailed(
        f"Gram of batch {n} has rank {p} and no jitter; it is singular"
    )


def feature_kernel(phi, config: PriorConfig) -> KernelMatrix | BasisKernel:
    """The jittered Gram of a feature batch, in the form the KL against it
    is cheapest in.

    When the batch outnumbers the features (p < n) this is a BasisKernel
    from the thin QR Phi = Q R, whose core is ``gram_kernel(R, config)``
    (R is p wide, so width normalization divides by p as it should, and
    the jitter escalates as any Gram's does).  With zero jitter and p < n
    the Gram is singular, which raises FactorizationFailed.  Otherwise
    (p >= n) this is exactly ``gram_kernel(phi, config)``.
    """
    arr = _as_features(phi)
    n, p = arr.shape
    if p >= n:
        return gram_kernel(arr, config)
    if config.jitter == 0.0:
        raise _rank_deficient(n, p)
    q, r = np.linalg.qr(arr)
    return BasisKernel(basis=q, core=gram_kernel(r, config))


def kernel_from_gram(gram, jitter: float = 0.0) -> KernelMatrix:
    """Wrap an already-formed SPD matrix (plus optional jitter) as a
    KernelMatrix; no escalation, factorization errors surface as-is."""
    arr = np.asarray(gram, dtype=np.float64)
    if jitter:
        arr = arr + jitter * np.eye(arr.shape[0])
    return KernelMatrix(gram=arr, jitter=jitter, factor=linalg.cholesky(arr))


def gp_kl(k1: KernelMatrix, k2: KernelMatrix) -> float:
    """KL divergence between the zero-mean Gaussians N(0, k1) and N(0, k2).

    The mean term of the general formula is identically zero here and is
    kept only in the test oracle.
    """
    if k1.size != k2.size:
        raise DimensionMismatch(
            f"kernel sizes differ: {k1.size} vs {k2.size}"
        )
    n = k1.size
    return 0.5 * (
        linalg.trace_solve(k2.factor, k1.gram)
        - n
        + linalg.log_det(k2.factor)
        - linalg.log_det(k1.factor)
    )


def _kl_against_teacher(arr: np.ndarray, k_t: KernelMatrix | BasisKernel,
                        c: float, jitter_s: float, log_det_s: float):
    """KL value and K_t^{-1} Phi for the student Gram K_s = c Phi Phi^T +
    jitter_s I with log|K_s| = log_det_s.

    Against an n x n kernel, from one product A = L_t^{-1} Phi:
    tr(K_t^{-1} K_s) = c ||A||_F^2 + jitter_s ||L_t^{-1}||_F^2 and
    K_t^{-1} Phi = L_t^{-T} A.  Against a BasisKernel (Q, B, j), with
    G = Q^T Phi, E = Phi - Q G and A = L_B^{-1} G:
    tr(K_t^{-1} K_s) = c (||A||^2 + ||E||^2 / j)
    + jitter_s (||L_B^{-1}||^2 + (n - p_t) / j),
    log|K_t| = log|B| + (n - p_t) log j and
    K_t^{-1} Phi = Q L_B^{-T} A + E / j.
    """
    n = arr.shape[0]
    if isinstance(k_t, BasisKernel):
        q, j = k_t.basis, k_t.jitter
        inv_b = k_t.core.factor.inverse
        rest = n - q.shape[1]
        g = q.T @ arr
        e = arr - q @ g
        a = inv_b @ g
        trace = (c * (float(np.vdot(a, a)) + float(np.vdot(e, e)) / j)
                 + jitter_s * (float(np.vdot(inv_b, inv_b)) + rest / j))
        log_det_t = linalg.log_det(k_t.core.factor) + rest * math.log(j)
        kt_phi = q @ (inv_b.T @ a) + e / j
    else:
        inv_t = k_t.factor.inverse
        a = inv_t @ arr
        trace = c * float(np.vdot(a, a)) + jitter_s * float(np.vdot(inv_t, inv_t))
        log_det_t = linalg.log_det(k_t.factor)
        kt_phi = inv_t.T @ a
    return 0.5 * (trace - n + log_det_t - log_det_s), kt_phi


def gp_kl_and_grad(phi_s, k_s: KernelMatrix, k_t: KernelMatrix,
                   config: PriorConfig) -> tuple[float, np.ndarray]:
    """gp_kl(k_s, k_t) and its gradient d/d Phi_s, for k_s =
    gram_kernel(phi_s, config), from one product A = L_t^{-1} Phi_s.

    With c = 1/p under width normalization (else 1):
    tr(K_t^{-1} K_s) = c ||A||_F^2 + jitter_s ||L_t^{-1}||_F^2, and the
    gradient is c (L_t^{-T} A - L_s^{-T} L_s^{-1} Phi_s).
    """
    arr = _as_features(phi_s)
    n, p = arr.shape
    if k_s.size != n or k_t.size != n:
        raise DimensionMismatch(
            f"kernels of size {k_s.size}/{k_t.size} do not match batch {n}"
        )
    c = 1.0 / p if config.normalize_by_width else 1.0
    value, kt_phi = _kl_against_teacher(arr, k_t, c, k_s.jitter,
                                        linalg.log_det(k_s.factor))
    inv_s = k_s.factor.inverse
    return value, c * (kt_phi - inv_s.T @ (inv_s @ arr))


def feature_kl_and_grad(phi_s, k_t: KernelMatrix | BasisKernel,
                        config: PriorConfig) -> tuple[float, np.ndarray]:
    """gp_kl(gram_kernel(phi_s, config), k_t) and its gradient d/d Phi_s,
    for a teacher kernel from ``feature_kernel`` or any n x n KernelMatrix.

    When the batch outnumbers the student's features (p < n) the student
    side is factored as the p x p matrix M = jI_p + c Phi^T Phi:
    log|K_s| = (n - p) log j + log|M| and K_s^{-1} Phi = Phi M^{-1}.  The
    jitter j escalates like gram_kernel's, and with zero jitter K_s is
    singular, which raises FactorizationFailed.  Otherwise (p >= n) this
    is exactly ``gp_kl_and_grad(phi_s, gram_kernel(phi_s, config), k_t,
    config)``.
    """
    arr = _as_features(phi_s)
    n, p = arr.shape
    if k_t.size != n:
        raise DimensionMismatch(
            f"teacher kernel of size {k_t.size} does not match batch {n}"
        )
    if p >= n:
        return gp_kl_and_grad(arr, gram_kernel(arr, config), k_t, config)
    if config.jitter == 0.0:
        raise _rank_deficient(n, p)
    _, jitter, f = _factor_jittered(_scaled_gram(arr.T, p, config), config.jitter,
                                    f"jI + c Phi^T Phi of width {p}")
    log_det_s = (n - p) * math.log(jitter) + linalg.log_det(f)
    c = 1.0 / p if config.normalize_by_width else 1.0
    value, kt_phi = _kl_against_teacher(arr, k_t, c, jitter, log_det_s)
    return value, c * (kt_phi - linalg.solve_spd(f, arr.T).T)


def gp_kl_grad(phi_s, k1: KernelMatrix, k2: KernelMatrix,
               config: PriorConfig) -> np.ndarray:
    """d gp_kl / d Phi_s for k1 = gram_kernel(phi_s):
    c (K2^{-1} - K1^{-1}) Phi_s with c = 1/p under width normalization.
    The gradient half of ``gp_kl_and_grad``."""
    return gp_kl_and_grad(phi_s, k1, k2, config)[1]


def prior_log_density(phi_s, phi_t, config: PriorConfig) -> float:
    """log prior of student features given teacher features (constant
    dropped): -alpha * gp_kl of the induced Gaussians.

    Both feature matrices must come from the same batch rows in the same
    order; widths are free to differ.
    """
    s = _as_features(phi_s)
    t = _as_features(phi_t)
    if s.shape[0] != t.shape[0]:
        raise BatchMismatch(
            f"student batch {s.shape[0]} != teacher batch {t.shape[0]}"
        )
    return -config.alpha * gp_kl(gram_kernel(s, config), gram_kernel(t, config))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def hinton_soft_target(logits_s, logits_t, temperature: float) -> float:
    """Soft-target baseline: mean cross-entropy of the student's
    temperature-softened softmax under the teacher's.

    Unlike the GP prior this needs the student to have exactly as many
    logits as the teacher.
    """
    s = np.asarray(logits_s, dtype=np.float64)
    t = np.asarray(logits_t, dtype=np.float64)
    if s.shape != t.shape:
        raise DimensionMismatch(
            f"soft targets need matching logit shapes, got {s.shape} vs {t.shape}"
        )
    if s.ndim != 2:
        raise DimensionMismatch(f"logits must be 2-d, got shape {s.shape}")
    p = _softmax(t / temperature)
    log_q = _log_softmax(s / temperature)
    return float(-np.mean(np.sum(p * log_q, axis=1)))


def l2_feature_distance(phi_s, phi_t) -> float:
    """Mean squared entrywise difference between two feature matrices."""
    s = np.asarray(phi_s, dtype=np.float64)
    t = np.asarray(phi_t, dtype=np.float64)
    if s.shape != t.shape:
        raise DimensionMismatch(
            f"L2 feature distance needs matching shapes, got {s.shape} vs {t.shape}"
        )
    return float(np.mean((s - t) ** 2))
