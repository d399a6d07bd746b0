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

The teacher side is ``feature_kernel``'s ``TeacherKernel``.  When the batch
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

Each KL value and gradient is a student half (``StudentHalf``: c, j1,
log|K1| and K1^{-1} Phi, set by the student's features alone) taken
against one teacher kernel by the teacher half (``_teacher_half``).
Training forms a student layer's half once a step, and every term on that
layer shares it.

``feature_kernel`` and ``feature_kl_and_grad`` also take a stack of
batches (... x n x p, with any leading axes: seeds, steps or both) and give
each slice the bits of its own call; jitter escalates per slice.  The
``TeacherKernel`` keeps only what the KL reads: L2^{-1} (Q and L_B^{-1} in
the feature basis), the jitter, and log|K2| and ||L2^{-1}||_F^2
(||L_B^{-1}||_F^2), the parts no student changes, so that a stack of
batches forms them in one pass.  It drops the Gram and L.  The n x n
KernelMatrix that the public KL functions also take becomes one there.

The baseline kept for comparison is temperature-softened soft-target
matching on logits, which requires equal logit counts, the restriction the
KL prior removes.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .data import _is_real, _require
from .errors import (
    BatchMismatch,
    ConfigError,
    DimensionMismatch,
    FactorizationFailed,
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
        for name in ("alpha", "jitter", "temperature"):
            _require(_is_real(getattr(self, name)), name, "a number", getattr(self, name))
        _require(isinstance(self.normalize_by_width, bool), "normalize_by_width", "a bool",
                 self.normalize_by_width)
        # alpha = 0 is allowed so the joint objective can degenerate to
        # plain task training; negative strength is meaningless.
        if not 0.0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 <= self.jitter < math.inf:
            raise ConfigError(f"jitter must be finite and >= 0, got {self.jitter}")
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        try:  # hinton_baseline weighs its term by alpha * temperature ** 2
            square = float(self.temperature) ** 2
        except OverflowError:  # a float's square, or an int, past the float range
            square = math.inf
        if not 0.0 < square < math.inf:
            raise ConfigError("temperature ** 2 must be a finite float > 0, got "
                              f"{self.temperature} ** 2 = {square}")


@dataclass(frozen=True)
class KernelMatrix:
    """Jittered SPD Gram matrix with its cached Cholesky factor."""

    gram: np.ndarray
    jitter: float | np.ndarray  # one per slice of a stack
    factor: linalg.CholeskyFactor

    @property
    def size(self) -> int:
        return self.factor.size


@dataclass(frozen=True)
class TeacherKernel:
    """The teacher side of a KL, as ``feature_kernel`` returns it, one per
    slice of a stack: L^{-1}, the jitter, and the parts no student changes,
    log|K| and ||L^{-1}||_F^2.  In the feature basis (p < n) ``basis`` is Q
    and ``inverse`` the core's L_B^{-1}.  The Gram and L are not kept; ``of``
    takes them from an n x n KernelMatrix."""

    inverse: np.ndarray
    jitter: float | np.ndarray
    log_det: float | np.ndarray
    inv_sq_norm: float | np.ndarray
    basis: np.ndarray | None = None

    @staticmethod
    def of(k: KernelMatrix) -> "TeacherKernel":
        f = k.factor
        return TeacherKernel(f.inverse, k.jitter, linalg.log_det(f), _sq_norm(f.inverse))

    @property
    def size(self) -> int:
        return self.inverse.shape[-1] if self.basis is None else self.basis.shape[-2]

    def __getitem__(self, i) -> "TeacherKernel":
        """Slice i of a stack, as views."""
        return TeacherKernel(*(None if v is None else v[i] for v in vars(self).values()))


def _as_features(phi, stacked: bool = False) -> np.ndarray:
    arr = np.asarray(phi, dtype=np.float64)
    if (not (arr.ndim == 2 or stacked and arr.ndim > 2)
            or arr.shape[-2] < 1 or arr.shape[-1] < 1):
        raise DimensionMismatch(f"feature matrix must be n x p, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteActivation("feature matrix contains non-finite entries")
    return arr


def _scaled_gram(x: np.ndarray, p: int, config: PriorConfig) -> np.ndarray:
    """x x^T, divided by the feature width p under width normalization."""
    base = x @ x.swapaxes(-1, -2)
    return base / p if config.normalize_by_width else base


def _sq_norm(a: np.ndarray):
    """||a||_F^2 by np.vdot, one per matrix of a stack with any leading axes."""
    if a.ndim == 2:
        return float(np.vdot(a, a))
    mats = a.reshape(-1, *a.shape[-2:])
    return np.array([np.vdot(m, m) for m in mats]).reshape(a.shape[:-2])


def _log(x):
    """math.log of a jitter, or of each jitter of a stack."""
    if np.ndim(x) == 0:
        return math.log(x)
    return np.array([math.log(v) for v in np.ravel(x)]).reshape(np.shape(x))


@functools.cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False  # one per size, shared by every caller
    return eye


def _factor_jittered(base: np.ndarray, jitter: float, what: str):
    """(base + jitter I, jitter used, its Cholesky factor).  On
    factorization failure the jitter escalates once by x10 before giving
    up with FactorizationFailed.  A stack that fails is refactored slice
    by slice, so each slice escalates on its own; its jitter is an array."""
    if base.ndim > 2:
        mat = base + jitter * _identity(base.shape[-1])
        try:
            return mat, np.full(base.shape[:-2], jitter), linalg.cholesky(mat)
        except NotPositiveDefinite:
            mats, jitters, fs = zip(*(_factor_jittered(b, jitter, what) for b in base))
        factor = linalg.CholeskyFactor(np.stack([f.lower for f in fs]),
                                       np.stack([f.inverse for f in fs]), fs[0].size)
        return np.stack(mats), np.array(jitters), factor
    for attempt in range(2):
        mat = base + jitter * _identity(base.shape[0])
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
    return _gram_kernel(_as_features(phi), config)


def _gram_kernel(arr: np.ndarray, config: PriorConfig) -> KernelMatrix:
    """gram_kernel of a checked batch or stack.  Stacks come here, not
    through gram_kernel, whose jitter stays a float."""
    n, p = arr.shape[-2:]
    gram, jitter, factor = _factor_jittered(_scaled_gram(arr, p, config),
                                            config.jitter, f"Gram of batch {n}")
    return KernelMatrix(gram=gram, jitter=jitter, factor=factor)


def _rank_deficient(n: int, p: int) -> FactorizationFailed:
    return FactorizationFailed(
        f"Gram of batch {n} has rank {p} and no jitter; it is singular"
    )


def feature_kernel(phi, config: PriorConfig) -> TeacherKernel:
    """The TeacherKernel of a feature batch's jittered Gram, in the form the
    KL against it is cheapest in: when p < n, with Q as its basis, that of
    the core ``gram_kernel(R, config)`` for the thin QR Phi = Q R (R is p
    wide, so width normalization and escalation act as on any Gram; zero
    jitter raises FactorizationFailed) and log|K| = log|B| + (n - p) log j,
    else ``TeacherKernel.of(gram_kernel(phi, config))``.
    """
    arr = _as_features(phi, stacked=True)
    n, p = arr.shape[-2:]
    kernel = gram_kernel if arr.ndim == 2 else _gram_kernel
    if p >= n:
        return TeacherKernel.of(kernel(arr, config))
    if config.jitter == 0.0:
        raise _rank_deficient(n, p)
    q, r = np.linalg.qr(arr)
    core = TeacherKernel.of(kernel(r, config))
    return replace(core, log_det=core.log_det + (n - p) * _log(core.jitter), basis=q)


def kernel_from_gram(gram) -> KernelMatrix:
    """Wrap an already-formed SPD matrix as a KernelMatrix at jitter 0; no
    jitter is added and factorization errors surface as-is."""
    arr = np.asarray(gram, dtype=np.float64)
    return KernelMatrix(gram=arr, jitter=0.0, factor=linalg.cholesky(arr))


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


@dataclass(frozen=True)
class StudentHalf:
    """c, jitter, log|K_s| and K_s^{-1} Phi of K_s = c Phi Phi^T + jitter I:
    the part of a KL term that the student's features Phi alone set."""

    features: np.ndarray
    c: float
    jitter: float | np.ndarray
    log_det: float | np.ndarray
    solved: np.ndarray  # K_s^{-1} Phi

    @staticmethod
    def of_kernel(arr: np.ndarray, k_s: KernelMatrix, c: float) -> "StudentHalf":
        inv_s = k_s.factor.inverse
        return StudentHalf(arr, c, k_s.jitter, linalg.log_det(k_s.factor),
                           inv_s.swapaxes(-1, -2) @ (inv_s @ arr))


def _student_half(arr: np.ndarray, config: PriorConfig) -> StudentHalf:
    """The StudentHalf of checked features (a batch or a stack): from the
    n x n Gram when p >= n, else from the p x p matrix M = jI + c Phi^T Phi
    of the module docstring, whose jitter escalates like gram_kernel's
    (zero jitter raises FactorizationFailed)."""
    n, p = arr.shape[-2:]
    c = 1.0 / p if config.normalize_by_width else 1.0
    if p >= n:
        kernel = gram_kernel if arr.ndim == 2 else _gram_kernel
        return StudentHalf.of_kernel(arr, kernel(arr, config), c)
    if config.jitter == 0.0:
        raise _rank_deficient(n, p)
    cols = arr.swapaxes(-1, -2)
    _, jitter, f = _factor_jittered(_scaled_gram(cols, p, config), config.jitter,
                                    f"jI + c Phi^T Phi of width {p}")
    return StudentHalf(arr, c, jitter, (n - p) * _log(jitter) + linalg.log_det(f),
                       linalg.solve_spd(f, cols).swapaxes(-1, -2))


def _teacher_half(s: StudentHalf, t: TeacherKernel) -> tuple[float, np.ndarray]:
    """KL value and gradient c (K_t^{-1} - K_s^{-1}) Phi of one term, by the
    formulas in the module docstring: from A = L_t^{-1} Phi against an
    n x n kernel, from G = Q^T Phi, E = Phi - Q G and A = L_B^{-1} G
    against a kernel with a basis.  The teacher brings log|K_t| and
    ||L^{-1}||_F^2 formed already."""
    arr, c = s.features, s.c
    n = arr.shape[-2]
    if t.basis is not None:
        q, j, inv_b = t.basis, t.jitter, t.inverse
        rest = n - q.shape[-1]
        g = q.swapaxes(-1, -2) @ arr
        e = arr - q @ g
        a = inv_b @ g
        trace = (c * (_sq_norm(a) + _sq_norm(e) / j)
                 + s.jitter * (t.inv_sq_norm + rest / j))
        kt_phi = q @ (inv_b.swapaxes(-1, -2) @ a) + e / np.expand_dims(j, (-2, -1))
    else:
        a = t.inverse @ arr
        trace = c * _sq_norm(a) + s.jitter * t.inv_sq_norm
        kt_phi = t.inverse.swapaxes(-1, -2) @ a
    return 0.5 * (trace - n + t.log_det - s.log_det), c * (kt_phi - s.solved)


def gp_kl_and_grad(phi_s, k_s: KernelMatrix, k_t: KernelMatrix,
                   config: PriorConfig) -> tuple[float, np.ndarray]:
    """gp_kl(k_s, k_t) and its gradient d/d Phi_s, for k_s =
    gram_kernel(phi_s, config), from one product A = L_t^{-1} Phi_s: the
    gradient is c (L_t^{-T} A - L_s^{-T} L_s^{-1} Phi_s), c = 1/p under
    width normalization (else 1)."""
    arr = _as_features(phi_s, stacked=True)
    n, p = arr.shape[-2:]
    if k_s.size != n or k_t.size != n:
        raise DimensionMismatch(
            f"kernels of size {k_s.size}/{k_t.size} do not match batch {n}"
        )
    c = 1.0 / p if config.normalize_by_width else 1.0
    return _teacher_half(StudentHalf.of_kernel(arr, k_s, c), TeacherKernel.of(k_t))


def feature_kl_and_grad(phi_s, k_t: TeacherKernel | KernelMatrix,
                        config: PriorConfig) -> tuple[float, np.ndarray]:
    """gp_kl(gram_kernel(phi_s, config), k_t) and its gradient d/d Phi_s,
    for a teacher kernel from ``feature_kernel`` or any n x n KernelMatrix
    (converted by ``TeacherKernel.of``): the teacher half of the student's
    half (``_student_half``).  When p >= n this is exactly
    ``gp_kl_and_grad(phi_s, gram_kernel(phi_s, config), k_t, config)``."""
    arr = _as_features(phi_s, stacked=True)
    n = arr.shape[-2]
    if k_t.size != n:
        raise DimensionMismatch(
            f"teacher kernel of size {k_t.size} does not match batch {n}"
        )
    if isinstance(k_t, KernelMatrix):
        k_t = TeacherKernel.of(k_t)
    return _teacher_half(_student_half(arr, config), k_t)


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
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def hinton_soft_target(logits_s, logits_t, temperature: float) -> float:
    """Soft-target baseline: mean cross-entropy of the student's
    temperature-softened softmax under the teacher's.

    Unlike the GP prior this needs the student to have exactly as many
    logits as the teacher.
    """
    return _soft_target(logits_s, logits_t, temperature)[0]


def _soft_target(logits_s, logits_t, temperature: float):
    """``hinton_soft_target``'s value and the teacher's softened softmax,
    which its gradient needs too."""
    s = np.asarray(logits_s, dtype=np.float64)
    t = np.asarray(logits_t, dtype=np.float64)
    if s.shape != t.shape:
        raise DimensionMismatch(
            f"soft targets need matching logit shapes, got {s.shape} vs {t.shape}"
        )
    if s.ndim < 2:
        raise DimensionMismatch(f"logits must be 2-d, got shape {s.shape}")
    p = _softmax(t / temperature)
    log_q = _log_softmax(s / temperature)
    return -(p * log_q).sum(axis=-1).sum(axis=-1) / s.shape[-2], p
