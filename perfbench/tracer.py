"""Per-layer tracing from outside the package.

The tracer wraps featprior's public functions in place: each wrapper
records a span (calls and self time, i.e. duration minus the time of the
wrapped calls it made) plus a few exact work counts.  Modules that bind a
function with ``from .x import f`` hold their own reference, so a wrapper
replaces the original in every featprior namespace that binds it, and
``uninstall`` puts every original back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (layer, module, public name); each reports "<module>.<name>.calls"
WRAPPED = (
    ("linalg", "linalg", "cholesky"),
    ("linalg", "linalg", "solve_spd"),
    ("linalg", "linalg", "trace_solve"),
    ("linalg", "linalg", "log_det"),
    ("gp_prior", "gp_prior", "gram_kernel"),
    ("gp_prior", "gp_prior", "gp_kl"),
    ("gp_prior", "gp_prior", "gp_kl_grad"),
    ("gp_prior", "gp_prior", "hinton_soft_target"),
    ("autodiff", "autodiff", "backward"),
    ("autodiff", "autodiff", "softmax_cross_entropy"),
    ("network", "network", "forward"),
    ("network", "network", "adam_step"),
    ("network", "network", "serialize_model"),
    ("network", "network", "load_model"),
    ("network", "network", "model_fingerprint"),
    ("data", "data", "split_and_batch"),
    ("data", "data", "BatchSchedule.epoch_batches"),
    ("data", "data", "dataset_fingerprint"),
    ("data", "data", "serialize_cache"),
    ("data", "data", "read_cache"),
    ("data", "data", "synth_rings"),
    ("data", "data", "synth_blobs"),
    ("train", "train", "train_teacher"),
    ("train", "train", "extract_features"),
    ("train", "train", "phase1_feature_fit"),
    ("train", "train", "phase2_task_fit"),
    ("train", "train", "joint_fit"),
    ("train", "train", "combine_experts_fit"),
    ("train", "train", "run_distillation"),
    ("train", "train", "compare_methods"),
    ("train", "train", "evaluate"),
    ("config/cli", "config", "load_config"),
    ("config/cli", "cli", "main"),
)

# Wrapped functions some workload never reaches.  A self time that is 0 on
# every run of a workload would read as a frozen number, so these report
# calls only; their self time still counts in their layer's total.
UNTIMED = frozenset({
    "gp_prior.hinton_soft_target", "network.serialize_model", "network.load_model",
    "data.serialize_cache", "data.read_cache", "data.synth_rings", "data.synth_blobs",
    "train.phase1_feature_fit", "train.joint_fit", "train.combine_experts_fit",
    "train.compare_methods",
})

COUNTS = ("linalg.cholesky.failed", "linalg.cholesky.flops",
          "gp_prior.jitter_escalations", "data.bytes_written", "data.bytes_read")

OVERHEAD = "trace.overhead_s"

# layer -> workloads on which it must record calls (the layer coverage guard)
COVERAGE = {
    "linalg": ("batch256-prior", "ref-compare"),
    "gp_prior": ("batch256-prior", "experts-cli"),
    "autodiff": ("ref-compare", "batch256-prior"),
    "network": ("ref-compare", "experts-cli"),
    "data": ("ref-compare", "batch256-prior", "experts-cli"),
    "train": ("ref-compare", "batch256-prior", "experts-cli"),
    "config/cli": ("ref-compare", "batch256-prior", "experts-cli"),
}


def layer_key(layer: str) -> str:
    return "layer." + layer.replace("/", "_") + ".self_s"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, module, name in WRAPPED:
        units[f"{module}.{name}.calls"] = "count"
        if f"{module}.{name}" not in UNTIMED:
            units[f"{module}.{name}.self_s"] = "s"
    units.update((layer_key(layer), "s") for layer in COVERAGE)
    units.update((name, "count") for name in COUNTS)
    units[OVERHEAD] = "s"
    return units


_FAILED = object()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cholesky_hook(counts, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "a"))
    counts["linalg.cholesky.flops"] += n ** 3  # divided by 3 when reported
    if result is _FAILED:
        counts["linalg.cholesky.failed"] += 1


def _gram_hook(counts, args, kwargs, result):
    if result is not _FAILED and result.jitter > _arg(args, kwargs, 1, "config").jitter:
        counts["gp_prior.jitter_escalations"] += 1


def _serialize_cache_hook(counts, args, kwargs, result):
    if result is not _FAILED:
        counts["data.bytes_written"] += len(result)


def _read_cache_hook(counts, args, kwargs, result):
    if result is not _FAILED:
        counts["data.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "linalg.cholesky": _cholesky_hook,
    "gp_prior.gram_kernel": _gram_hook,
    "data.serialize_cache": _serialize_cache_hook,
    "data.read_cache": _read_cache_hook,
}


def _featprior_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "featprior" or name.startswith("featprior."))]


class Patches:
    """Replaces functions in featprior namespaces and undoes it."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, original, replacement) -> None:
        """Rebind ``owner.attr`` (a class) or every featprior module
        attribute bound to ``original`` (a module function)."""
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(m, a) for m in _featprior_modules()
                       for a, v in list(vars(m).items()) if v is original]
        for target, name in targets:
            setattr(target, name, replacement)
            self._undo.append((target, name, original))

    def undo(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)


def resolve(module: str, name: str):
    """(owner, attribute, function) of a wrapped public name, or None."""
    try:
        owner = importlib.import_module(f"featprior.{module}")
    except ModuleNotFoundError:
        return None
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Spans and counts of one traced body."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self.speed = 1.0  # reference seconds per second during the body
        self._stack = []
        self._patches = Patches()

    def install(self) -> None:
        for _, module, name in WRAPPED:
            found = resolve(module, name)
            if found is None:
                self.missing.append(f"featprior.{module}.{name}")
                continue
            owner, attr, fn = found
            key = f"{module}.{name}"
            self._patches.replace(owner, attr, fn, self._wrap(key, fn, HOOKS.get(key)))

    def uninstall(self) -> None:
        self._patches.undo()

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside featprior (the core-speed kernel) out
        of the innermost open span's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, key, fn, hook):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            result = _FAILED
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
                if hook is not None:
                    hook(counts, args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def exact_counts(self) -> dict:
        """Counts that repeat exactly for the same inputs."""
        out = {f"{module}.{name}.calls": self.calls[f"{module}.{name}"]
               for _, module, name in WRAPPED}
        out.update((name, self.counts[name]) for name in COUNTS)
        out["linalg.cholesky.flops"] = out["linalg.cholesky.flops"] / 3
        return out

    def self_times(self) -> dict:
        """Self seconds, at the reference core speed, of every timed
        function and of every layer."""
        out = {layer_key(layer): 0.0 for layer in COVERAGE}
        for layer, module, name in WRAPPED:
            key = f"{module}.{name}"
            seconds = self.self_s[key] * self.speed
            out[layer_key(layer)] += seconds
            if key not in UNTIMED:
                out[f"{key}.self_s"] = seconds
        return out

    def layer_calls(self) -> dict:
        totals = Counter()
        for layer, module, name in WRAPPED:
            totals[layer] += self.calls[f"{module}.{name}"]
        return totals


def coverage_failures(workload: str, tracer: Tracer) -> list[str]:
    """Layer-coverage guard: wrapped names that no longer exist, and
    mapped layers that recorded no calls on this workload."""
    failures = [f"wrapped function {name} no longer exists" for name in tracer.missing]
    totals = tracer.layer_calls()
    for layer, workloads in COVERAGE.items():
        if workload in workloads and totals[layer] == 0:
            names = ", ".join(f"{m}.{n}" for owner, m, n in WRAPPED if owner == layer)
            failures.append(f"layer {layer} recorded no calls on {workload} ({names})")
    return failures
