"""Output checks.  None of them freezes today's numbers: they test
determinism, the sign and finiteness of every reported KL, gp_kl against
an independent numpy oracle, and that a saved student scores what
``distill`` reported.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np

from workloads import read_csv

# gp_kl against the slogdet/solve oracle, relative to max(|oracle|, 1)
ORACLE_RTOL = 1e-6
ORACLE_BATCHES = 2


class Ledger:
    """Attempted and failed operations; an op is one CLI command or one
    output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def hash_tree(root: Path) -> dict:
    """sha256 of every file under ``root``, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_identical(ledger: Ledger, first: dict, again: dict, repeat: int) -> None:
    for name in sorted(set(first) | set(again)):
        ledger.record(first.get(name) is not None and first.get(name) == again.get(name),
                      f"{name} differs between repeat 0 and repeat {repeat}")


def check_kls(ledger: Ledger, values, where: str) -> None:
    values = list(values)
    bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
    ledger.record(bool(values) and not bad,
                  f"KL values in {where} must be finite and >= 0, got {bad or 'none'}")


def run_log_kls(path: Path) -> list[float]:
    return [float(r["kl_loss"]) for r in read_csv(path) if r["kl_loss"]]


def oracle_kl(phi_s: np.ndarray, jitter_s: float, phi_t: np.ndarray,
              jitter_t: float) -> float:
    """KL(N(0, K_s) || N(0, K_t)) from width-normalized, jittered Grams by
    slogdet and a dense solve."""
    def gram(phi, jitter):
        return phi @ phi.T / phi.shape[1] + jitter * np.eye(phi.shape[0])

    k_s, k_t = gram(phi_s, jitter_s), gram(phi_t, jitter_t)
    sign_s, logdet_s = np.linalg.slogdet(k_s)
    sign_t, logdet_t = np.linalg.slogdet(k_t)
    if sign_s <= 0 or sign_t <= 0:
        return math.nan
    n = k_s.shape[0]
    return float(0.5 * (np.trace(np.linalg.solve(k_t, k_s)) - n + logdet_t - logdet_s))


def hidden_activations(model, inputs: np.ndarray) -> list[np.ndarray]:
    """The model's hidden activations in plain float64 numpy."""
    h = np.asarray(inputs, dtype=np.float64)
    acts = []
    for w, b, layer in zip(model.weights, model.biases, model.spec.layers):
        h = h @ w.astype(np.float64) + b.astype(np.float64)
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        elif layer.activation == "tanh":
            h = np.tanh(h)
        acts.append(h)
    return acts


def check_oracle(ledger: Ledger, cfg, model, caches: dict, terms, rng) -> None:
    """gp_kl of sampled batches of a saved student against its teachers'
    cached features, compared with ``oracle_kl``.  The batches come from
    the student's training split, as in training."""
    from featprior.data import split_and_batch
    from featprior.gp_prior import gp_kl, gram_kernel

    dataset = cfg.load_dataset()
    train = split_and_batch(dataset, cfg.test_fraction, cfg.plan.batch_size,
                            cfg.plan.seed).train
    n = min(cfg.plan.batch_size, train.n)
    for _ in range(ORACLE_BATCHES):
        rows = np.sort(rng.choice(train.source_indices, size=n, replace=False))
        acts = hidden_activations(model, dataset.inputs[rows])
        for layer, cache_name, group in terms:
            phi_s = acts[layer]
            phi_t = caches[cache_name].groups[group][rows].astype(np.float64)
            k_s = gram_kernel(phi_s, cfg.plan.prior)
            k_t = gram_kernel(phi_t, cfg.plan.prior)
            got = gp_kl(k_s, k_t)
            want = oracle_kl(phi_s, k_s.jitter, phi_t, k_t.jitter)
            ledger.record(
                abs(got - want) <= ORACLE_RTOL * max(abs(want), 1.0),
                f"gp_kl {got!r} vs oracle {want!r} for student layer {layer} "
                f"and {cache_name} group {group}")


_DISTILL_ACC = re.compile(r"student accuracy (\d+\.\d+)")


def distill_accuracy(stdout: str) -> float | None:
    match = _DISTILL_ACC.search(stdout)
    return float(match.group(1)) if match else None


def check_evaluate(ledger: Ledger, reported: float | None, evaluated: float,
                   name: str) -> None:
    ledger.record(reported is not None and f"{evaluated:.4f}" == f"{reported:.4f}",
                  f"evaluate scored {name} at {evaluated:.6f}, distill reported {reported}")
