"""Independent oracles the tests check production code against.

Everything here deliberately avoids the code paths under test: the
eigensolver is a hand-rolled Jacobi sweep (no Cholesky), the reference
Cholesky is a column-by-column Python loop (no LAPACK), the Gaussian KL
uses eigendecompositions and keeps the general mean term, gradients come
from central finite differences, the IDX decoder reads bytes one at a
time, the linear probe is a least-squares classifier, and the reference
optimizers update one parameter tensor at a time with state kept per
tensor (no flat buffer).
"""

from __future__ import annotations

import numpy as np


def jacobi_eigenvalues(a, sweeps: int = 30, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    m = np.array(a, dtype=np.float64)
    n = m.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(m, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(m)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if m[p, q] == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) \
                    if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))


def cholesky_loop(a) -> np.ndarray:
    """Lower Cholesky factor by the textbook column loop; raises
    ValueError at the first non-positive pivot."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if not pivot > 0.0:
            raise ValueError(f"pivot {pivot!r} at index {j}")
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def gaussian_kl_eig(mu1, k1, mu2, k2) -> float:
    """KL(N(mu1,k1) || N(mu2,k2)) through eigendecompositions: the full
    formula including the mean term."""
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    n = k1.shape[0]
    w1 = np.linalg.eigvalsh(k1)
    w2, v2 = np.linalg.eigh(k2)
    k2_inv = v2 @ np.diag(1.0 / w2) @ v2.T
    diff = mu2 - mu1
    return 0.5 * (
        float(np.trace(k2_inv @ k1))
        + float(diff @ k2_inv @ diff)
        - n
        + float(np.sum(np.log(w2)) - np.sum(np.log(w1)))
    )


def central_diff_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over a flat vector."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        hi = f(x)
        x.flat[i] = orig - h
        lo = f(x)
        x.flat[i] = orig
        grad.flat[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(a, b, floor: float = 1e-12) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + floor)))


def decode_idx_reference(image_bytes: bytes, label_bytes: bytes):
    """Tiny independent IDX decoder: byte-at-a-time, big-endian."""
    def be32(buf, off):
        return (buf[off] << 24) | (buf[off + 1] << 16) | (buf[off + 2] << 8) | buf[off + 3]

    assert be32(image_bytes, 0) == 0x803
    count, rows, cols = (be32(image_bytes, 4), be32(image_bytes, 8),
                         be32(image_bytes, 12))
    pixels = []
    off = 16
    for _ in range(count * rows * cols):
        pixels.append(image_bytes[off] / 255.0)
        off += 1
    images = np.array(pixels).reshape(count, rows * cols)

    assert be32(label_bytes, 0) == 0x801
    n = be32(label_bytes, 4)
    labels = np.array([label_bytes[8 + i] for i in range(n)], dtype=np.int64)
    return images, labels


def linear_probe_accuracy(train_x, train_y, test_x, test_y, classes: int) -> float:
    """Least-squares one-vs-rest linear classifier; an oracle for how
    linearly separable a dataset is."""
    def with_bias(x):
        return np.hstack([x, np.ones((x.shape[0], 1))])

    onehot = np.zeros((train_x.shape[0], classes))
    onehot[np.arange(train_y.size), train_y] = 1.0
    w, *_ = np.linalg.lstsq(with_bias(train_x), onehot, rcond=None)
    predictions = np.argmax(with_bias(test_x) @ w, axis=1)
    return float(np.mean(predictions == test_y))


def sgd_step_per_tensor(params, grads, velocity, lr: float, momentum: float):
    """SGD with momentum on a list of parameter arrays, in place;
    ``velocity`` is a list of float64 arrays, ``None`` gradients skip."""
    for p, g, vel in zip(params, grads, velocity):
        if g is None:
            continue
        vel *= momentum
        vel += g
        p[...] = (p.astype(np.float64) - lr * vel).astype(p.dtype)


def adam_step_per_tensor(params, grads, m_list, v_list, t: int, lr: float,
                         beta1: float = 0.9, beta2: float = 0.999,
                         eps: float = 1e-8):
    """Adam step ``t`` (1-based) on a list of parameter arrays, in place;
    ``m_list``/``v_list`` are lists of float64 arrays, ``None`` gradients
    skip."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, m_list, v_list):
        if g is None:
            continue
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p[...] = (p.astype(np.float64) - step).astype(p.dtype)
