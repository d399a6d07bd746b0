"""Training procedures: teacher fitting, feature extraction, two-phase
feature-prior distillation, joint objectives, multi-teacher expert priors,
evaluation metrics and multi-seed method comparisons.

Conventions shared by every routine here:

* ``dataset`` is always the full dataset; batch schedules yield row
  indices into it, so teacher-feature cache rows stay aligned with
  student batches after splitting and shuffling.
* Task-only fits (teachers, the naive mode, the joint mode and the two
  logit-matching baselines) run ``phase1_epochs + phase2_epochs`` epochs;
  two-phase runs split the same budget between the label-free feature fit
  and the task fit.
* Training functions copy the incoming model and return the trained copy.
* A step is ``forward``, an objective returning (loss, task value, prior
  value, {hidden layer: dL/dh}, dL/dlogits), then ``autodiff.backward``
  down to the lowest unfrozen layer.  Term gradients are summed in one
  fixed order: a layer's prior terms last term first, baselines before CE.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import backward, softmax_cross_entropy
from .data import (
    BatchSchedule,
    Dataset,
    FeatureCache,
    SplitBatches,
    dataset_fingerprint,
    split_and_batch,
)
from .errors import (
    AllLayersFrozen,
    BatchMismatch,
    BatchTooSmall,
    ConfigError,
    DivergedTraining,
    EmptyExpertSet,
    FingerprintMismatch,
    LayerOutOfRange,
)
from .gp_prior import (
    PriorConfig,
    _soft_target,
    _softmax,
    feature_kernel,
    feature_kl_and_grad,
)
from .network import (
    AdamConfig,
    AdamState,
    Model,
    NetworkSpec,
    SgdConfig,
    SgdState,
    adam_step,
    forward,
    init_params,
    model_fingerprint,
    sgd_step,
)

MODES = ("two_phase", "joint", "naive", "hinton_baseline", "l2_baseline")

METRIC_NAMES = ("accuracy", "top1", "top2", "top3", "f1_micro", "f1_macro")


@dataclass(frozen=True)
class TrainPlan:
    """Seeds, epoch budgets, batch size, optimizer settings, the prior
    configuration and the training mode."""

    seed: int = 0
    batch_size: int = 32
    phase1_epochs: int = 50
    phase2_epochs: int = 25
    optimizer: str = "adam"
    lr_phase1: float = 1e-3
    lr_phase2: float = 1e-3
    momentum: float = 0.9
    prior: PriorConfig = PriorConfig()
    mode: str = "two_phase"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.batch_size < 2:
            raise BatchTooSmall(f"batch size {self.batch_size} < 2")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")

    @property
    def total_epochs(self) -> int:
        return self.phase1_epochs + self.phase2_epochs


@dataclass(frozen=True)
class LayerGroupMapping:
    """Pairs (student hidden-layer index, teacher feature group id); one
    prior term per pair."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "entries",
            tuple((int(s), int(g)) for s, g in self.entries),
        )

    def student_layers(self) -> set[int]:
        return {s for s, _ in self.entries}

    def validate_for(self, spec: NetworkSpec, cache: FeatureCache) -> None:
        for student_idx, gid in self.entries:
            if not 0 <= student_idx < spec.hidden_count:
                raise LayerOutOfRange(
                    f"student layer {student_idx} outside 0..{spec.hidden_count - 1}"
                )
            if gid not in cache.groups:
                raise ConfigError(f"feature group {gid} not present in cache")


@dataclass(frozen=True)
class ExpertPrior:
    cache: FeatureCache
    mapping: LayerGroupMapping
    alpha: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError(f"expert weight must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class ExpertPriorSet:
    experts: tuple[ExpertPrior, ...]

    def __post_init__(self):
        object.__setattr__(self, "experts", tuple(self.experts))
        if not self.experts:
            raise EmptyExpertSet("need at least one expert prior")


# -- metrics ------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    accuracy: float
    top_k: dict[int, float]
    f1_micro: float
    f1_macro: float

    def value(self, name: str) -> float:
        if name == "accuracy":
            return self.accuracy
        if name.startswith("top"):
            return self.top_k[int(name[3:])]
        if name == "f1_micro":
            return self.f1_micro
        if name == "f1_macro":
            return self.f1_macro
        raise KeyError(name)


@dataclass
class MetricsReport:
    """Per-seed metric values with mean and standard error across seeds."""

    seeds: list[int]
    per_seed: list[Metrics]

    @staticmethod
    def single(seed: int, metrics: Metrics) -> "MetricsReport":
        return MetricsReport(seeds=[seed], per_seed=[metrics])

    def values(self, name: str) -> np.ndarray:
        return np.array([m.value(name) for m in self.per_seed])

    def mean(self, name: str) -> float:
        return float(np.mean(self.values(name)))

    def std_error(self, name: str) -> float:
        vals = self.values(name)
        if vals.size < 2:
            return 0.0
        return float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def evaluate(model: Model, dataset: Dataset, ks=(1, 2, 3)) -> Metrics:
    """Accuracy, top-k accuracies and micro/macro F1 on a dataset.

    Macro F1 averages per-class F1 uniformly, counting classes absent from
    both truth and predictions as 0.  Micro F1 uses global counts and
    equals accuracy for single-label classification.
    """
    logits = predict_logits(model, dataset.inputs)
    labels = dataset.labels
    n, c = logits.shape
    # stable descending sort: ties broken toward the smaller class index
    order = np.argsort(-logits, axis=1, kind="stable")
    predictions = order[:, 0]
    accuracy = float(np.mean(predictions == labels))

    top_k = {}
    for k in ks:
        kk = min(int(k), c)
        top_k[int(k)] = float(np.mean((order[:, :kk] == labels[:, None]).any(axis=1)))

    f1s = []
    for cls in range(dataset.class_count):
        tp = int(np.sum((predictions == cls) & (labels == cls)))
        fp = int(np.sum((predictions == cls) & (labels != cls)))
        fn = int(np.sum((predictions != cls) & (labels == cls)))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    f1_macro = float(np.mean(f1s))

    tp_total = int(np.sum(predictions == labels))
    fp_total = int(np.sum(predictions != labels))
    fn_total = fp_total
    f1_micro = 2 * tp_total / (2 * tp_total + fp_total + fn_total) \
        if (tp_total + fp_total) else 0.0

    return Metrics(accuracy=accuracy, top_k=top_k, f1_micro=float(f1_micro),
                   f1_macro=f1_macro)


def predict_logits(model: Model, inputs, chunk: int = 1024) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    parts = [forward(model, inputs[i:i + chunk]).logits
             for i in range(0, inputs.shape[0], chunk)]
    return np.vstack(parts)


# -- run logs -----------------------------------------------------------------

@dataclass(frozen=True)
class LogRow:
    epoch: int
    phase: int
    task_loss: float | None
    kl_loss: float | None
    test_accuracy: float | None


def run_log_csv(rows) -> str:
    """Per-run log: one row per epoch."""
    def fmt(x):
        return "" if x is None else f"{x:.6f}"

    lines = ["epoch,phase,task_loss,kl_loss,test_accuracy"]
    for r in rows:
        lines.append(f"{r.epoch},{r.phase},{fmt(r.task_loss)},{fmt(r.kl_loss)},"
                     f"{fmt(r.test_accuracy)}")
    return "\n".join(lines) + "\n"


def metrics_csv(metrics: Metrics) -> str:
    lines = ["metric,value"]
    for name in METRIC_NAMES:
        lines.append(f"{name},{metrics.value(name):.6f}")
    return "\n".join(lines) + "\n"


# -- feature extraction -------------------------------------------------------

def extract_features(model: Model, dataset: Dataset, layer_ids,
                     chunk: int = 512) -> FeatureCache:
    """Per-example activations of the requested layers over the whole
    dataset, in dataset row order, as float32 cache groups.

    Layer index L (the hidden-layer count) selects the classifier logits,
    which the soft-target and logit-regression baselines consume.
    """
    layer_ids = sorted(int(i) for i in set(layer_ids))
    max_id = model.spec.hidden_count - (0 if model.head_weight is not None else 1)
    for lid in layer_ids:
        if not 0 <= lid <= max_id:
            raise LayerOutOfRange(f"layer id {lid} outside 0..{max_id}")

    collected: dict[int, list[np.ndarray]] = {lid: [] for lid in layer_ids}
    for i in range(0, dataset.n, chunk):
        record = forward(model, dataset.inputs[i:i + chunk])
        for lid in layer_ids:
            mat = record.logits if lid == model.spec.hidden_count \
                else record.activations[lid]
            collected[lid].append(np.asarray(mat, dtype=np.float32))
    groups = {lid: np.vstack(parts) for lid, parts in collected.items()}
    return FeatureCache(
        groups=groups,
        dataset_fingerprint=dataset_fingerprint(dataset),
        teacher_fingerprint=model_fingerprint(model),
    )


# -- optimizer wrapper and the epoch loop ------------------------------------

class _Optimizer:
    def __init__(self, plan: TrainPlan, lr: float):
        self.kind = plan.optimizer
        if self.kind == "adam":
            self.cfg = AdamConfig(lr=lr)
            self.state = AdamState()
        else:
            self.cfg = SgdConfig(lr=lr, momentum=plan.momentum)
            self.state = SgdState()

    def step(self, model: Model, grads) -> None:
        if self.kind == "adam":
            adam_step(model, grads, self.state, self.cfg)
        else:
            sgd_step(model, grads, self.state, self.cfg)


def _fit_epochs(model: Model, dataset: Dataset, schedule: BatchSchedule,
                plan: TrainPlan, objective, *, epochs: int, lr: float,
                phase: int, epoch_offset: int = 0, frozen_layers=(),
                test: Dataset | None = None, log: list | None = None) -> float | None:
    """Run ``epochs`` epochs in place; returns the final epoch's mean
    prior-loss value (None for task-only objectives).  Frozen parameters
    get None gradients, which leaves them and their optimizer state as is."""
    opt = _Optimizer(plan, lr)
    frozen = set(frozen_layers)
    layer_ids = model.param_layer_ids()
    lowest = min(set(layer_ids) - frozen, default=0)
    final_kl = None
    for local_epoch in range(epochs):
        epoch = epoch_offset + local_epoch
        task_vals, kl_vals = [], []
        for idx in schedule.epoch_batches(epoch):
            x = dataset.inputs[idx]
            record = forward(model, x)
            loss, task_val, kl_val, act_grads, logit_grad = objective(
                record, idx, dataset.labels[idx])
            if not np.isfinite(loss):
                raise DivergedTraining(f"loss became {loss} at epoch {epoch}")
            grads = backward(model, x, record, act_grads, logit_grad, lowest)
            if frozen:
                grads = [None if lid in frozen else g
                         for g, lid in zip(grads, layer_ids)]
            opt.step(model, grads)
            if task_val is not None:
                task_vals.append(task_val)
            if kl_val is not None:
                kl_vals.append(kl_val)
        epoch_kl = float(np.mean(kl_vals)) if kl_vals else None
        if kl_vals:
            final_kl = epoch_kl
        if log is not None:
            acc = evaluate(model, test).accuracy if test is not None else None
            log.append(LogRow(
                epoch=epoch, phase=phase,
                task_loss=float(np.mean(task_vals)) if task_vals else None,
                kl_loss=epoch_kl, test_accuracy=acc,
            ))
    return final_kl


# -- objectives ---------------------------------------------------------------

def _kl_grad(phi: np.ndarray, teacher_kernel, config: PriorConfig,
             scale: float) -> tuple[float, np.ndarray]:
    """gp_kl(gram(phi), teacher) and ``scale`` times its analytic feature
    gradient; the value and the gradient come from one fused call, which
    factors the student side in feature space when the batch outnumbers
    its width."""
    value, grad = feature_kl_and_grad(phi, teacher_kernel, config)
    return value, scale * grad


def _hinton_grad(logits: np.ndarray, teacher_logits: np.ndarray,
                 temperature: float, scale: float) -> tuple[float, np.ndarray]:
    value, p = _soft_target(logits, teacher_logits, temperature)
    q = _softmax(logits / temperature)
    return value, scale * (q - p) / (logits.shape[0] * temperature)


def _l2_grad(logits: np.ndarray, teacher_logits: np.ndarray,
             scale: float) -> tuple[float, np.ndarray]:
    diff = logits - teacher_logits
    return float(np.mean(diff ** 2)), scale * 2.0 * diff / diff.size


def _task_objective():
    def objective(record, idx, labels):
        ce, ce_grad = softmax_cross_entropy(record.logits, labels)
        return ce, ce, None, {}, ce_grad
    return objective


def _prior_objective(terms, config: PriorConfig, scale: float = 1.0):
    """Sum over (cache, mapping, weight) of weight * sum of group KLs; the
    gradients carry ``scale``, the caller's weight on the whole sum."""
    def objective(record, idx, labels):
        kl_sum = 0.0
        term_grads = []
        for cache, mapping, weight in terms:
            for student_idx, gid in mapping.entries:
                phi_t = cache.groups[gid][idx].astype(np.float64)
                k2 = feature_kernel(phi_t, config)
                value, grad = _kl_grad(record.activations[student_idx], k2,
                                       config, scale * weight)
                kl_sum += weight * value
                term_grads.append((student_idx, grad))
        act_grads = {}
        for layer, grad in reversed(term_grads):
            act_grads[layer] = act_grads[layer] + grad if layer in act_grads else grad
        return kl_sum, None, kl_sum, act_grads, None
    return objective


def _joint_objective(cache, mapping, config: PriorConfig):
    prior = _prior_objective([(cache, mapping, 1.0)], config, config.alpha)

    def objective(record, idx, labels):
        ce, ce_grad = softmax_cross_entropy(record.logits, labels)
        if config.alpha == 0.0 or not mapping.entries:
            return ce, ce, None, {}, ce_grad
        kl_sum, _, _, act_grads, _ = prior(record, idx, labels)
        return ce + kl_sum * config.alpha, ce, kl_sum, act_grads, ce_grad
    return objective


def _logit_match_objective(cache, logits_group: int, config: PriorConfig,
                           kind: str):
    def objective(record, idx, labels):
        ce, ce_grad = softmax_cross_entropy(record.logits, labels)
        teacher_logits = cache.groups[logits_group][idx].astype(np.float64)
        if kind == "hinton_baseline":
            scale = config.alpha * config.temperature ** 2
            value, grad = _hinton_grad(record.logits, teacher_logits,
                                       config.temperature, scale)
        else:
            scale = config.alpha
            value, grad = _l2_grad(record.logits, teacher_logits, scale)
        if scale == 0.0:
            return ce, ce, value, {}, ce_grad
        return ce + value * scale, ce, value, {}, grad + ce_grad
    return objective


# -- spec'd training operations ----------------------------------------------

def _check_cache_alignment(dataset: Dataset, cache: FeatureCache) -> None:
    if cache.groups and cache.n != dataset.n:
        raise BatchMismatch(
            f"cache rows ({cache.n}) != dataset rows ({dataset.n})"
        )
    if cache.dataset_fingerprint != dataset_fingerprint(dataset):
        raise FingerprintMismatch(
            "teacher features were extracted from different inputs")


def _make_schedule(train: Dataset, plan: TrainPlan) -> BatchSchedule:
    return BatchSchedule(train.source_indices, plan.batch_size, plan.seed)


def train_teacher(dataset: Dataset, spec: NetworkSpec, plan: TrainPlan, *,
                  test_fraction: float = 0.25, split: SplitBatches | None = None,
                  log: list | None = None) -> tuple[Model, MetricsReport]:
    """Task-only training of a fresh model for the plan's full epoch
    budget; returns the model and its test metrics."""
    if split is None:
        split = split_and_batch(dataset, test_fraction, plan.batch_size, plan.seed)
    model = init_params(spec, plan.seed)
    schedule = _make_schedule(split.train, plan)
    _fit_epochs(model, dataset, schedule, plan, _task_objective(),
                epochs=plan.total_epochs, lr=plan.lr_phase2, phase=2,
                test=split.test, log=log)
    metrics = evaluate(model, split.test)
    return model, MetricsReport.single(plan.seed, metrics)


def phase1_feature_fit(student: Model, dataset: Dataset, cache: FeatureCache,
                       mapping: LayerGroupMapping, plan: TrainPlan, *,
                       schedule: BatchSchedule | None = None,
                       train: Dataset | None = None,
                       test: Dataset | None = None,
                       log: list | None = None) -> tuple[Model, float | None]:
    """Label-free phase: fit mapped student layers so their batch Grams
    match the teacher's, by KL gradient descent.

    Returns the trained copy and the final epoch's mean per-batch KL.
    An empty mapping returns the student unchanged.
    """
    model = student.copy()
    if not mapping.entries:
        return model, None
    _check_cache_alignment(dataset, cache)
    mapping.validate_for(student.spec, cache)
    if schedule is None:
        schedule = _make_schedule(train if train is not None else dataset, plan)
    objective = _prior_objective([(cache, mapping, 1.0)], plan.prior)
    final_kl = _fit_epochs(model, dataset, schedule, plan, objective,
                           epochs=plan.phase1_epochs, lr=plan.lr_phase1,
                           phase=1, test=test, log=log)
    return model, final_kl


def phase2_task_fit(student: Model, dataset: Dataset, plan: TrainPlan,
                    frozen_layers, *, schedule: BatchSchedule | None = None,
                    train: Dataset | None = None, test: Dataset | None = None,
                    log: list | None = None,
                    epoch_offset: int | None = None) -> Model:
    """Cross-entropy training of the unfrozen layers only; frozen
    parameters come back bitwise identical."""
    model = student.copy()
    frozen = set(frozen_layers)
    layer_ids = model.param_layer_ids()
    if all(lid in frozen for lid in layer_ids):
        raise AllLayersFrozen("every parameter is frozen; nothing to train")
    if schedule is None:
        schedule = _make_schedule(train if train is not None else dataset, plan)
    if epoch_offset is None:
        epoch_offset = plan.phase1_epochs
    _fit_epochs(model, dataset, schedule, plan, _task_objective(),
                epochs=plan.phase2_epochs, lr=plan.lr_phase2, phase=2,
                epoch_offset=epoch_offset, frozen_layers=frozen,
                test=test, log=log)
    return model


def joint_fit(student: Model, dataset: Dataset, cache: FeatureCache,
              mapping: LayerGroupMapping, plan: TrainPlan, *,
              schedule: BatchSchedule | None = None,
              train: Dataset | None = None, test: Dataset | None = None,
              log: list | None = None) -> Model:
    """Single-phase MAP objective: cross-entropy + alpha * sum of KLs.
    With alpha = 0 the prior term is skipped entirely, reproducing naive
    training bit for bit under the same schedule."""
    model = student.copy()
    if mapping.entries and plan.prior.alpha > 0.0:
        _check_cache_alignment(dataset, cache)
        mapping.validate_for(student.spec, cache)
    if schedule is None:
        schedule = _make_schedule(train if train is not None else dataset, plan)
    objective = _joint_objective(cache, mapping, plan.prior)
    _fit_epochs(model, dataset, schedule, plan, objective,
                epochs=plan.total_epochs, lr=plan.lr_phase2, phase=2,
                test=test, log=log)
    return model


def combine_experts_fit(student: Model, dataset: Dataset,
                        experts: ExpertPriorSet, plan: TrainPlan, *,
                        schedule: BatchSchedule | None = None,
                        train: Dataset | None = None,
                        test: Dataset | None = None,
                        log: list | None = None) -> Model:
    """Multiple teachers as independent priors: phase 1 minimizes
    sum_j alpha_j * KL_j, then phase 2 trains the remaining layers."""
    model = student.copy()
    terms = []
    frozen: set[int] = set()
    for expert in experts.experts:
        _check_cache_alignment(dataset, expert.cache)
        expert.mapping.validate_for(student.spec, expert.cache)
        terms.append((expert.cache, expert.mapping, expert.alpha))
        frozen |= expert.mapping.student_layers()
    if schedule is None:
        schedule = _make_schedule(train if train is not None else dataset, plan)
    objective = _prior_objective(terms, plan.prior)
    _fit_epochs(model, dataset, schedule, plan, objective,
                epochs=plan.phase1_epochs, lr=plan.lr_phase1, phase=1,
                test=test, log=log)
    return phase2_task_fit(model, dataset, plan, frozen, schedule=schedule,
                           test=test, log=log)


# -- mode dispatch and comparisons -------------------------------------------

@dataclass
class RunResult:
    model: Model
    metrics: Metrics
    log: list | None
    final_kl: float | None = None


def run_distillation(student_spec: NetworkSpec, dataset: Dataset,
                     split: SplitBatches, plan: TrainPlan, *,
                     cache: FeatureCache | None = None,
                     mapping: LayerGroupMapping | None = None,
                     experts: ExpertPriorSet | None = None,
                     logits_group: int | None = None,
                     keep_log: bool = True) -> RunResult:
    """Train one student in the plan's mode and evaluate it on the test
    split.  With ``keep_log`` the result carries one ``LogRow`` per epoch,
    each scoring the test split; without it ``log`` is None and the test
    split is scored once, at the end."""
    student = init_params(student_spec, plan.seed)
    schedule = _make_schedule(split.train, plan)
    log: list[LogRow] | None = [] if keep_log else None
    final_kl = None
    mode = plan.mode

    if experts is not None:
        model = combine_experts_fit(student, dataset, experts, plan,
                                    schedule=schedule, test=split.test, log=log)
    elif mode == "naive":
        model = student.copy()
        _fit_epochs(model, dataset, schedule, plan, _task_objective(),
                    epochs=plan.total_epochs, lr=plan.lr_phase2, phase=2,
                    test=split.test, log=log)
    elif mode == "two_phase":
        if cache is None or mapping is None:
            raise ConfigError("two_phase mode needs a feature cache and mapping")
        model, final_kl = phase1_feature_fit(student, dataset, cache, mapping,
                                             plan, schedule=schedule,
                                             test=split.test, log=log)
        model = phase2_task_fit(model, dataset, plan, mapping.student_layers(),
                                schedule=schedule, test=split.test, log=log)
    elif mode == "joint":
        if cache is None or mapping is None:
            raise ConfigError("joint mode needs a feature cache and mapping")
        model = joint_fit(student, dataset, cache, mapping, plan,
                          schedule=schedule, test=split.test, log=log)
    elif mode in ("hinton_baseline", "l2_baseline"):
        if cache is None or logits_group is None:
            raise ConfigError(f"{mode} needs a cache containing teacher logits")
        _check_cache_alignment(dataset, cache)
        objective = _logit_match_objective(cache, logits_group, plan.prior, mode)
        model = student.copy()
        _fit_epochs(model, dataset, schedule, plan, objective,
                    epochs=plan.total_epochs, lr=plan.lr_phase2, phase=2,
                    test=split.test, log=log)
    else:
        raise ConfigError(f"unknown mode {mode!r}")

    return RunResult(model=model, metrics=evaluate(model, split.test),
                     log=log, final_kl=final_kl)


@dataclass
class ComparisonResult:
    seeds: list[int]
    methods: dict[str, MetricsReport]
    teacher: MetricsReport

    def comparison_csv(self) -> str:
        """CSV table: method,metric,mean,std_error,n_seeds."""
        lines = ["method,metric,mean,std_error,n_seeds"]
        for method, report in self.methods.items():
            for name in METRIC_NAMES:
                lines.append(
                    f"{method},{name},{report.mean(name):.6f},"
                    f"{report.std_error(name):.6f},{len(self.seeds)}"
                )
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [f"seeds: {', '.join(str(s) for s in self.seeds)}", ""]
        width = max(len(m) for m in list(self.methods) + ["teacher"])
        for method, report in list(self.methods.items()) + [("teacher", self.teacher)]:
            parts = [f"{name} {report.mean(name):.4f} +/- {report.std_error(name):.4f}"
                     for name in ("accuracy", "f1_macro")]
            lines.append(f"{method:<{width}}  " + "  ".join(parts))
        return "\n".join(lines) + "\n"


def format_topk_table(reports: dict[str, MetricsReport], ks=(1, 2, 3)) -> str:
    """Top-k accuracy rows by method columns."""
    methods = list(reports)
    width = max(len(m) for m in methods + ["metric"]) + 2
    header = "metric".ljust(16) + "".join(m.rjust(width) for m in methods)
    lines = [header]
    for k in ks:
        name = f"top{k}"
        row = f"top-{k} accuracy".ljust(16)
        row += "".join(f"{reports[m].mean(name):.4f}".rjust(width) for m in methods)
        lines.append(row)
    return "\n".join(lines) + "\n"


def _seed_plan(plan: TrainPlan, seed: int, mode: str | None = None) -> TrainPlan:
    if mode is None:
        return replace(plan, seed=seed)
    return replace(plan, seed=seed, mode=mode)


def compare_one_seed(dataset: Dataset, teacher_spec: NetworkSpec,
                     student_spec: NetworkSpec, plans: dict[str, TrainPlan],
                     seed: int, *, teacher_plan: TrainPlan,
                     mapping: LayerGroupMapping,
                     test_fraction: float = 0.25) -> dict[str, Metrics]:
    """One seed of the comparison: teacher, feature cache, then every
    method on the shared split.  No per-epoch log is kept, so each model
    scores the test split once."""
    split = split_and_batch(dataset, test_fraction,
                            teacher_plan.batch_size, seed)
    teacher, teacher_report = train_teacher(
        dataset, teacher_spec, _seed_plan(teacher_plan, seed), split=split)
    logits_group = teacher_spec.hidden_count
    group_ids = sorted({gid for _, gid in mapping.entries} | {logits_group})
    cache = extract_features(teacher, dataset, group_ids)

    out: dict[str, Metrics] = {"_teacher": teacher_report.per_seed[0]}
    for mode, plan in plans.items():
        result = run_distillation(
            student_spec, dataset, split, _seed_plan(plan, seed, mode),
            cache=cache, mapping=mapping, logits_group=logits_group,
            keep_log=False)
        out[mode] = result.metrics
    return out


def worker_count(n_jobs: int, n_seeds: int, cpu_count: int | None = None) -> int:
    """Processes ``compare_methods`` runs for ``n_jobs`` requested:
    min(n_jobs, n_seeds, cpu_count), with cpu_count defaulting to
    ``os.cpu_count()``.  Values of n_jobs below 1 are a ConfigError."""
    if n_jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {n_jobs}")
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    return min(n_jobs, n_seeds, cpu_count)


def compare_methods(dataset: Dataset, teacher_spec: NetworkSpec,
                    student_spec: NetworkSpec, plans, seeds, *,
                    teacher_plan: TrainPlan, mapping: LayerGroupMapping,
                    test_fraction: float = 0.25,
                    methods=MODES, n_jobs: int = 1) -> ComparisonResult:
    """Run every method across seeds; report mean and standard error.

    ``plans`` is either one base plan (the mode field is overridden per
    method) or a dict {mode: plan}.  Seeds run in up to ``n_jobs``
    processes, clamped by ``worker_count``.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ConfigError("need at least 2 seeds for a standard error")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds must be >= 0")
    if isinstance(plans, TrainPlan):
        plans = {mode: plans for mode in methods}
    unknown = set(plans) - set(MODES)
    if unknown:
        raise ConfigError(f"unknown methods {sorted(unknown)}")

    workers = worker_count(n_jobs, len(seeds))

    per_seed: dict[int, dict[str, Metrics]] = {}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                seed: pool.submit(
                    compare_one_seed, dataset, teacher_spec, student_spec,
                    plans, seed, teacher_plan=teacher_plan, mapping=mapping,
                    test_fraction=test_fraction)
                for seed in seeds
            }
            per_seed = {seed: fut.result() for seed, fut in futures.items()}
    else:
        for seed in seeds:
            per_seed[seed] = compare_one_seed(
                dataset, teacher_spec, student_spec, plans, seed,
                teacher_plan=teacher_plan, mapping=mapping,
                test_fraction=test_fraction)

    ordered = sorted(seeds)
    method_reports = {
        mode: MetricsReport(seeds=ordered,
                            per_seed=[per_seed[s][mode] for s in ordered])
        for mode in plans
    }
    teacher_report = MetricsReport(
        seeds=ordered, per_seed=[per_seed[s]["_teacher"] for s in ordered])
    return ComparisonResult(seeds=ordered, methods=method_reports,
                            teacher=teacher_report)
