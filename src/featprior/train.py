"""Training procedures: teacher fitting, feature extraction, two-phase
feature-prior distillation, joint objectives, multi-teacher expert priors,
evaluation metrics and multi-seed method comparisons.

Conventions shared by every routine here:

* ``dataset`` is always the full dataset.  Every row argument is read through
  ``Rows`` as indices into it (``_rows_in``: non-empty and in range), so cache
  rows stay aligned with student batches and test rows are gathered when
  scored.  A fit checks its caches against it once (``_check_cache_alignment``).
* Every labelled fit (teachers, the naive, joint and two logit-matching
  baseline modes, two_phase's task fit) is the one ``_fit_epochs`` call in
  ``_fit_mode``, from epoch ``start`` to ``phase1_epochs + phase2_epochs``:
  task-only modes start at 0; two_phase's phase 2 starts at ``phase1_epochs``
  with the mapped layers frozen, after the label-free feature fit.
* Training functions copy the incoming model and return the trained copy.
* An objective is a function of an epoch's batch list that returns that
  epoch's step loss.  A prior term builds its teacher kernels there, in
  stacked calls over consecutive batches (``_teacher_kernels``), jitter
  still escalating per batch, and each step takes its slice.  One run of
  a group's kernels is alive at a time, dropped before the next is built,
  and each holds L^{-1} (``TeacherKernel``), not the Gram or L.
* A step is ``forward``, a step loss returning (loss, task value, prior
  value, {hidden layer: dL/dh}, dL/dlogits), then ``autodiff.backward``
  given the fit's frozen layers.  Term gradients are summed in one fixed
  order: a layer's prior terms last term first, baselines before CE.
* Every prior term is an ``ExpertPrior`` (cache, mapping, alpha).  Phase 1
  is ``phase1_feature_fit`` over an ``ExpertPriorSet``; a plain cache and
  mapping is one expert at alpha 1, and every two_phase fit reports phase 1's
  final KL.  Expert priors train in two_phase mode only; any other mode
  raises ``ConfigError``.
* ``compare_methods`` trains labelled rows, each a plan in its own mode, and
  each fit as one problem: model, optimizer state, batches and teacher caches
  carry a leading seed axis (the caches: one ``extract_features`` call over
  the rows' ``cache_groups``), and each slice gets the bits of its own run.
  Equal plans train once; one-phase plans equal but for the mode share a fit
  on a (mode, seed) axis, a block of seeds per mode; ``_objective`` adds each
  mode's term to its block only, the joint term's gradient zero outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .autodiff import backward, softmax_cross_entropy
from .data import (
    BatchSchedule,
    Dataset,
    FeatureCache,
    Rows,
    SplitBatches,
    _check_batch_size,
    _check_seed,
    _is_int,
    _is_real,
    _require,
    _rows_in,
    dataset_fingerprint,
    split_and_batch,
)
from .errors import (
    AllLayersFrozen,
    BatchMismatch,
    ConfigError,
    DimensionMismatch,
    DivergedTraining,
    EmptyExpertSet,
    FingerprintMismatch,
    LayerOutOfRange,
)
from .gp_prior import (
    PriorConfig,
    _soft_target,
    _softmax,
    _student_half,
    _teacher_half,
    feature_kernel,
)
from .network import (
    AdamState,
    Model,
    NetworkSpec,
    SgdState,
    adam_step,
    forward,
    init_params,
    model_fingerprint,
    sgd_step,
    stack_models,
    unstack_model,
)

MODES = ("two_phase", "joint", "naive", "hinton_baseline", "l2_baseline")

# teacher features (as float64) for one stacked kernel build: bounds what a
# prior term holds at once, where whole epochs would grow the RSS
_TEACHER_CHUNK_BYTES = 512 * 1024

_TOP_KS = (1, 2, 3)
METRIC_NAMES = ("accuracy", *(f"top{k}" for k in _TOP_KS), "f1_micro", "f1_macro")
PREDICT_CHUNK = 1024  # rows predict_logits runs through forward at a time
EXTRACT_CHUNK = 512  # rows extract_features runs through forward at a time


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
        _check_seed(self.seed)
        _check_batch_size(self.batch_size)
        for names, valid, what in (
                (("phase1_epochs", "phase2_epochs"), _is_int, "an integer"),
                (("lr_phase1", "lr_phase2", "momentum"), _is_real, "a number")):
            for name in names:
                _require(valid(getattr(self, name)), name, what, getattr(self, name))
        _require(isinstance(self.prior, PriorConfig), "prior", "a PriorConfig", self.prior)
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        for name, lr in (("lr_phase1", self.lr_phase1), ("lr_phase2", self.lr_phase2)):
            if not 0.0 < lr < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
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
    prior term per pair, so a repeated pair, which would double its term's
    weight, is a ``ConfigError``."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        entries = tuple(self.entries)  # a generator's pairs, read once
        for pair in entries:
            _require(isinstance(pair, (tuple, list)) and len(pair) == 2
                     and all(map(_is_int, pair)), "mapping entries", "pairs of integers", pair)
        entries = tuple((int(s), int(g)) for s, g in entries)
        object.__setattr__(self, "entries", entries)
        for i, pair in enumerate(entries):
            if pair in entries[:i]:
                raise ConfigError(f"mapping pair {list(pair)} is repeated")

    def student_layers(self) -> set[int]:
        return {s for s, _ in self.entries}

    def groups(self) -> set[int]:
        return {g for _, g in self.entries}

    def validate_for(self, spec: NetworkSpec, cache: FeatureCache) -> None:
        for student_idx, gid in self.entries:
            if not 0 <= student_idx < spec.hidden_count:
                raise LayerOutOfRange(
                    f"student layer {student_idx} outside 0..{spec.hidden_count - 1}"
                )
            if gid not in cache.groups:
                raise ConfigError(f"feature group {gid} not present in cache")


def _check_expert_alpha(alpha) -> None:
    """The one rule for an expert's KL weight, also checked as a config is read."""
    _require(_is_real(alpha) and 0 < alpha < math.inf, "alpha", "a finite number > 0", alpha)


@dataclass(frozen=True)
class ExpertPrior:
    cache: FeatureCache
    mapping: LayerGroupMapping
    alpha: float = 1.0

    def __post_init__(self):
        _check_expert_alpha(self.alpha)


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
        if name.startswith("top"):
            return self.top_k[int(name[3:])]
        return vars(self)[name]


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


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose first largest logit is their label (forward has
    refused NaN): ``evaluate``'s accuracy and each logged epoch's."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def evaluate(model: Model, dataset: Dataset, rows: Rows | None = None) -> Metrics:
    """Accuracy, top-1 to top-3 accuracies and micro/macro F1 on
    ``dataset``'s ``rows`` (every row when None).

    Macro F1 averages per-class F1 uniformly, counting classes absent from
    both truth and predictions as 0.  Micro F1 is accuracy: with one label
    and one prediction a row, each miss is one false positive and one false
    negative.  A stacked model, or one whose head width is not the
    dataset's class count, raises ``DimensionMismatch``.
    """
    if model.flat.ndim > 1:
        raise DimensionMismatch("evaluate scores one model; split a stacked model "
                                "with unstack_model")
    c, classes = model.spec.output_head, dataset.class_count
    if c != classes:
        raise DimensionMismatch(f"model has {c} classes, dataset has {classes}")
    idx = _rows_in(rows, dataset.n)
    logits, labels = predict_logits(model, dataset.inputs, idx), dataset.labels[idx]
    accuracy = _accuracy(logits, labels)
    # stable descending sort: ties broken toward the smaller class index
    order = np.argsort(-logits, axis=1, kind="stable")
    predictions = order[:, 0]

    top_k = {k: float(np.mean((order[:, :k] == labels[:, None]).any(axis=1)))
             for k in _TOP_KS}

    tp, predicted, true = (np.bincount(x, minlength=classes)[:classes] for x in
                           (labels[predictions == labels], predictions, labels))
    # per class F1 = 2 tp / (2 tp + fp + fn), where 2 tp + fp + fn = predicted + true
    f1 = np.divide(2 * tp, predicted + true, out=np.zeros(classes),
                   where=predicted + true > 0)
    return Metrics(accuracy=accuracy, top_k=top_k, f1_micro=accuracy,
                   f1_macro=float(np.mean(f1)))


def predict_logits(model: Model, inputs, idx=None) -> np.ndarray:
    """Logits of ``inputs``' rows ``idx`` (all when None, read by ``_rows_in``),
    ``PREDICT_CHUNK`` at a time, joined on the row axis (after a stacked
    model's seed axis)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    idx = _rows_in(idx, inputs.shape[0])
    return np.concatenate([forward(model, inputs[idx[i:i + PREDICT_CHUNK]]).logits
                           for i in range(0, len(idx), PREDICT_CHUNK)], axis=-2)


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

def extract_features(model: Model, dataset: Dataset, layer_ids) -> FeatureCache:
    """Per-example activations of the requested layers over the whole
    dataset, in dataset row order, as float32 cache groups (after a stacked
    model's seed axis, each slice its seed's bits), ``EXTRACT_CHUNK`` rows a pass.

    Layer index L (the hidden-layer count) selects the classifier logits,
    which the soft-target and logit-regression baselines consume.
    """
    layer_ids = list(layer_ids)
    _require(all(map(_is_int, layer_ids)), "layer ids", "integers", layer_ids)
    layer_ids = sorted(set(map(int, layer_ids)))
    max_id = model.spec.hidden_count
    for lid in layer_ids:
        if not 0 <= lid <= max_id:
            raise LayerOutOfRange(f"layer id {lid} outside 0..{max_id}")

    groups = {lid: np.empty((*model.flat.shape[:-1], dataset.n,
                             model.spec.layers[lid].out_width), np.float32) for lid in layer_ids}
    for i in range(0, dataset.n if layer_ids else 0, EXTRACT_CHUNK):
        record = forward(model, dataset.inputs[i:i + EXTRACT_CHUNK])
        layers = record.activations + [record.logits]
        for lid in layer_ids:
            groups[lid][..., i:i + EXTRACT_CHUNK, :] = layers[lid]
        del record, layers  # one chunk of activations live at a time
    return FeatureCache(
        groups=groups,
        dataset_fingerprint=dataset_fingerprint(dataset),
        teacher_fingerprint=model_fingerprint(model),
    )


# -- the epoch loop -----------------------------------------------------------

def _fit_epochs(model: Model, dataset: Dataset, schedule: BatchSchedule,
                plan: TrainPlan, objective, *, epochs: int, lr: float,
                phase: int, epoch_offset: int = 0, frozen_layers=(),
                test: Rows | None = None, log: list | None = None) -> float | None:
    """Run ``epochs`` epochs in place, each stepping its batches through
    ``objective(batches)``; returns the final epoch's mean prior value (None
    for task-only objectives; one per seed for a stacked model).  ``backward``'s
    None gradients leave ``frozen_layers`` and their optimizer state as is.
    The schedule's rows and ``test`` are refused unless in ``dataset``
    (``_rows_in``), before the first step."""
    _rows_in(schedule.indices, dataset.n)
    test = None if test is None else _rows_in(test, dataset.n)
    step = (partial(adam_step, state=AdamState(), lr=lr) if plan.optimizer == "adam"
            else partial(sgd_step, state=SgdState(), lr=lr, momentum=plan.momentum))
    final_kl = None
    for local_epoch in range(epochs):
        epoch = epoch_offset + local_epoch
        task_vals, kl_vals = [], []
        batches = schedule.epoch_batches(epoch)
        step_loss = objective(batches)
        for idx in batches:
            x = dataset.inputs[idx]
            record = forward(model, x)
            loss, task_val, kl_val, act_grads, logit_grad = step_loss(
                record, idx, dataset.labels[idx])
            if not np.isfinite(loss).all():
                raise DivergedTraining(f"loss became {loss} at epoch {epoch}")
            step(model, backward(model, x, record, act_grads, logit_grad, frozen_layers))
            if task_val is not None:
                task_vals.append(task_val)
            if kl_val is not None:
                kl_vals.append(kl_val)
        # per seed: a contiguous row of each seed's values, as np.mean reduces one
        epoch_kl = (np.mean(np.ascontiguousarray(np.transpose(kl_vals)), axis=-1)
                    if kl_vals else None)
        if kl_vals:
            final_kl = epoch_kl
        if log is not None:
            acc = None if test is None else _accuracy(
                predict_logits(model, dataset.inputs, test), dataset.labels[test])
            log.append(LogRow(
                epoch=epoch, phase=phase,
                task_loss=float(np.mean(task_vals)) if task_vals else None,
                kl_loss=epoch_kl, test_accuracy=acc,
            ))
    return final_kl


# -- objectives ---------------------------------------------------------------

def _rows(group: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A cache group's rows idx; a stacked group is indexed seed by seed
    (idx ... x S x n, with any leading step axes)."""
    return group[idx] if group.ndim == 2 else group[np.arange(len(group))[:, None], idx]


def _teacher_kernels(group: np.ndarray, batches, config: PriorConfig):
    """Each batch's ``TeacherKernel`` of cache group rows, in order.  Runs of
    consecutive batches of one shape are gathered with one fancy index and
    built in one stacked call, at most ``_TEACHER_CHUNK_BYTES`` of features
    a run; a run of one batch takes the plain call.  Each slice has the
    bits, and the escalated jitter, of its own batch's call."""
    start = 0
    while start < len(batches):
        room = max(1, _TEACHER_CHUNK_BYTES // (batches[start].size * group.shape[-1] * 8))
        end = start + 1
        while (end < min(len(batches), start + room)
               and batches[end].shape == batches[start].shape):
            end += 1
        idx = batches[start] if end - start == 1 else np.stack(batches[start:end])
        kernels = feature_kernel(_rows(group, idx), config)
        yield from [kernels] if end - start == 1 else [kernels[i] for i in range(end - start)]
        del kernels  # this run's arrays go before the next run is built
        start = end


def _hinton_grad(logits: np.ndarray, teacher_logits: np.ndarray,
                 temperature: float, scale: float) -> tuple[float, np.ndarray]:
    value, p = _soft_target(logits, teacher_logits, temperature)
    q = _softmax(logits / temperature)
    return value, scale * (q - p) / (logits.shape[-2] * temperature)


def _l2_grad(logits: np.ndarray, teacher_logits: np.ndarray,
             scale: float) -> tuple[float, np.ndarray]:
    diff = logits - teacher_logits
    size = diff.shape[-2] * diff.shape[-1]
    return (diff ** 2).sum(axis=(-2, -1)) / size, scale * 2.0 * diff / size


def _prior_objective(experts, config: PriorConfig, scale: float = 1.0):
    """Sum over ``ExpertPrior``s of alpha * the sum of their group KLs; the
    gradients carry ``scale``, the caller's weight on the whole sum.  Given
    an epoch's batches it builds their teacher kernels (``_teacher_kernels``)
    and returns the step loss, whose steps must come in that batch order.
    Terms that read one group array share its kernels, and the terms on one
    student layer share its half of the KL (``_student_half``), formed once
    a step, in first-use order, from ``forward``'s activations (which it has
    already checked finite)."""
    terms = [(expert.alpha, student_idx, expert.cache.groups[gid])
             for expert in experts for student_idx, gid in expert.mapping.entries]
    groups = list({id(group): group for _, _, group in terms}.values())
    layers = list(dict.fromkeys(student_idx for _, student_idx, _ in terms))

    def objective(batches):
        kernels = [_teacher_kernels(group, batches, config) for group in groups]

        def step_loss(record, idx, labels):
            k2 = {id(group): next(k) for group, k in zip(groups, kernels)}
            halves = {layer: _student_half(record.activations[layer], config) for layer in layers}
            kl_sum, term_grads = 0.0, []
            for alpha, student_idx, group in terms:
                value, grad = _teacher_half(halves[student_idx], k2[id(group)])
                kl_sum += alpha * value
                term_grads.append((student_idx, scale * alpha * grad))
            act_grads = {}
            for layer, grad in reversed(term_grads):
                act_grads[layer] = act_grads[layer] + grad if layer in act_grads else grad
            return kl_sum, None, kl_sum, act_grads, None
        return step_loss
    return objective


def _objective(modes, config: PriorConfig, cache: FeatureCache | None = None,
               mapping: LayerGroupMapping | None = None, logits_group: int | None = None):
    """Cross-entropy over the whole model plus each one-phase mode's term.
    Several modes split a stacked model into equal blocks, one per mode in
    order, and each term reaches its own block only; the joint term's step
    loss is built from the joint block's rows of the epoch's batches.  Every
    block walks the same seeds' batches, so the teacher logits are gathered
    once a step.  The prior value is a lone mode's term (None for several)."""
    prior = (_prior_objective([ExpertPrior(cache, mapping)], config, config.alpha)
             if "joint" in modes and mapping.entries and config.alpha > 0.0 else None)

    def block(b, total):
        """Mode b's rows of a stacked axis of ``total`` rows."""
        size = total // len(modes)
        return slice(b * size, (b + 1) * size) if len(modes) > 1 else ...

    def objective(batches):
        joint = None if prior is None else prior(
            [idx[block(modes.index("joint"), len(idx))] for idx in batches])

        def step_loss(record, idx, labels):
            ce, logit_grad = softmax_cross_entropy(record.logits, labels)
            loss, kl, act_grads, teacher = np.array(ce), None, {}, None
            for b, mode in enumerate(modes):
                rows = block(b, len(record.logits))
                if mode == "joint" and joint is not None:
                    view = replace(record, activations=[a[rows] for a in record.activations])
                    kl, _, _, grads, _ = joint(view, idx[rows], None)
                    for layer, grad in grads.items():  # zero outside the block
                        act_grads[layer] = np.zeros_like(record.activations[layer])
                        act_grads[layer][rows] = grad
                    loss[rows] += kl * config.alpha
                elif mode in ("hinton_baseline", "l2_baseline"):
                    if teacher is None:
                        teacher = _rows(cache.groups[logits_group], idx[rows])
                    if mode == "hinton_baseline":
                        scale = config.alpha * config.temperature ** 2
                        kl, grad = _hinton_grad(record.logits[rows], teacher,
                                                config.temperature, scale)
                    else:
                        scale = config.alpha
                        kl, grad = _l2_grad(record.logits[rows], teacher, scale)
                    if scale != 0.0:
                        loss[rows] += kl * scale
                        logit_grad[rows] += grad  # the bits of grad + ce_grad
            return loss, ce, kl if len(modes) == 1 else None, act_grads, logit_grad
        return step_loss
    return objective


# -- spec'd training operations ----------------------------------------------

def _check_cache_alignment(dataset: Dataset, caches) -> None:
    """The caches a fit reads come from ``dataset``: their row counts, then
    their content hashes, the dataset hashed once for all of them."""
    for cache in caches:
        if cache.shapes and cache.n != dataset.n:
            raise BatchMismatch(f"cache rows ({cache.n}) != dataset rows ({dataset.n})")
    fingerprint = dataset_fingerprint(dataset)
    if any(cache.dataset_fingerprint != fingerprint for cache in caches):
        raise FingerprintMismatch("cache was built from a different dataset")


def _make_schedule(plan: TrainPlan, dataset: Dataset, train=None) -> BatchSchedule:
    """The plan's batches of ``dataset``'s rows ``train`` (all when None, by ``_rows_in``)."""
    return BatchSchedule(_rows_in(train, dataset.n), plan.batch_size, plan.seed)


def train_teacher(dataset: Dataset, spec: NetworkSpec, plan: TrainPlan, *,
                  test_fraction: float = 0.25,
                  split: SplitBatches | None = None) -> tuple[Model, MetricsReport]:
    """Task-only training of a fresh model for the plan's full epoch
    budget, in naive mode; returns the model and its test metrics.  Of the
    plan it reads only the seed and ``config.TEACHER_PLAN_KEYS``."""
    if split is None:
        split = split_and_batch(dataset, test_fraction, plan.batch_size, plan.seed)
    model, _ = _fit_mode(init_params(spec, plan.seed), dataset,
                         _make_schedule(plan, dataset, split.train), replace(plan, mode="naive"))
    metrics = evaluate(model, dataset, split.test)
    return model, MetricsReport.single(plan.seed, metrics)


def phase1_feature_fit(student: Model, dataset: Dataset, experts: ExpertPriorSet,
                       plan: TrainPlan, *, schedule: BatchSchedule | None = None,
                       train: Rows | None = None, test: Rows | None = None,
                       log: list | None = None) -> tuple[Model, float | None]:
    """Label-free phase: fit the experts' mapped student layers so their
    batch Grams match the teachers', by gradient descent on
    sum_j alpha_j * KL_j; a single teacher is one expert at alpha 1.

    Returns the trained copy and the final epoch's mean per-batch KL (for
    a stacked student, its mean over seeds).  With no mapped layer it is
    the untrained copy and None, and logs nothing.
    """
    for expert in experts.experts:
        expert.mapping.validate_for(student.spec, expert.cache)
    _check_cache_alignment(dataset, [expert.cache for expert in experts.experts])
    model = student.copy()
    if not any(expert.mapping.entries for expert in experts.experts):
        return model, None
    schedule = _make_schedule(plan, dataset, train) if schedule is None else schedule
    final_kl = _fit_epochs(model, dataset, schedule, plan,
                           _prior_objective(experts.experts, plan.prior),
                           epochs=plan.phase1_epochs, lr=plan.lr_phase1,
                           phase=1, test=test, log=log)
    if np.ndim(final_kl):  # fsum / S, as statistics.fmean computes a mean of seeds
        final_kl = math.fsum(final_kl.tolist()) / final_kl.size
    return model, final_kl


def phase2_task_fit(student: Model, dataset: Dataset, plan: TrainPlan,
                    frozen_layers, *, train: Rows | None = None,
                    test: Rows | None = None, log: list | None = None) -> Model:
    """Two_phase's task fit, ``_fit_mode``'s naive fit from ``phase1_epochs``
    of the unfrozen layers only; frozen parameters come back bitwise identical,
    and an id that is not a layer 0..L (L the head's) raises ``LayerOutOfRange``."""
    frozen, head = set(frozen_layers), student.spec.hidden_count
    for lid in frozen:
        if not (_is_int(lid) and 0 <= lid <= head):
            raise LayerOutOfRange(f"frozen layer {lid!r} outside 0..{head}")
    if frozen.issuperset(range(len(student.spec.layers))):
        raise AllLayersFrozen("every parameter is frozen; nothing to train")
    return _fit_mode(student, dataset, _make_schedule(plan, dataset, train),
                     replace(plan, mode="naive"), start=plan.phase1_epochs,
                     frozen=frozen, test=test, log=log)[0]


def joint_fit(student: Model, dataset: Dataset, cache: FeatureCache,
              mapping: LayerGroupMapping, plan: TrainPlan) -> Model:
    """Single-phase MAP objective, cross-entropy + alpha * sum of KLs, over
    the plan's batches of every row of ``dataset``.  With alpha = 0 the
    prior term is skipped entirely, reproducing naive training bit for bit
    under the same schedule."""
    return _fit_mode(student, dataset, _make_schedule(plan, dataset),
                     replace(plan, mode="joint"), cache=cache, mapping=mapping)[0]


def combine_experts_fit(student: Model, dataset: Dataset, experts: ExpertPriorSet,
                        plan: TrainPlan, *, train: Rows | None = None,
                        test: Rows | None = None, log: list | None = None) -> Model:
    """Multiple teachers as independent priors, trained two_phase whatever
    the plan's mode: phase 1 minimizes sum_j alpha_j * KL_j, then phase 2
    trains the remaining layers."""
    return _fit_mode(student, dataset, _make_schedule(plan, dataset, train),
                     replace(plan, mode="two_phase"), experts=experts, test=test, log=log)[0]


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
                     logits_group: int | None = None) -> RunResult:
    """Train one student in the plan's mode and evaluate it on the test
    split; the result carries one ``LogRow`` per epoch, each scoring the
    test split."""
    log: list[LogRow] = []
    model, final_kl = _fit_mode(
        init_params(student_spec, plan.seed), dataset,
        _make_schedule(plan, dataset, split.train), plan, cache=cache, mapping=mapping,
        experts=experts, logits_group=logits_group, test=split.test, log=log)
    return RunResult(model=model, metrics=evaluate(model, dataset, split.test),
                     log=log, final_kl=final_kl)


def cache_groups(mode: str, mapping: LayerGroupMapping, logits_group: int) -> set[int]:
    """The teacher cache groups a fit in ``mode`` reads, and so all that a
    distill loads: the mapping's for the feature priors (two_phase, joint,
    and each expert under its own mapping), the logits group for the two
    logit baselines, none for naive."""
    if mode in ("hinton_baseline", "l2_baseline"):
        return {logits_group}
    return set() if mode == "naive" else mapping.groups()


def _fit_mode(student: Model, dataset: Dataset, schedule, plan: TrainPlan, *, modes=None,
              cache: FeatureCache | None = None, mapping: LayerGroupMapping | None = None,
              experts: ExpertPriorSet | None = None, logits_group: int | None = None,
              test: Rows | None = None, log: list | None = None,
              start: int = 0, frozen=()) -> tuple[Model, float | None]:
    """The trained copy of ``student`` in the plan's mode, and phase 1's
    final KL (two_phase only, for a plain cache and mapping or ``experts``;
    None with no mapped layer).  Every labelled fit is the one ``_fit_epochs``
    call here, from epoch ``start`` with the layers in ``frozen`` held; ``modes``,
    one-phase modes, splits a stacked student into equal blocks, one per mode."""
    modes, final_kl = modes or (plan.mode,), None
    if experts is not None and modes != ("two_phase",):
        raise ConfigError(f"expert priors need two_phase mode, not {'/'.join(modes)}")
    if modes == ("two_phase",):
        if experts is None:
            if cache is None or mapping is None:
                raise ConfigError("two_phase mode needs a feature cache and mapping")
            experts = ExpertPriorSet((ExpertPrior(cache, mapping),))
        # by its module-global name, which perfbench's phase1_probe wraps
        student, final_kl = phase1_feature_fit(student, dataset, experts, plan,
                                               schedule=schedule, test=test, log=log)
        frozen = set().union(*(e.mapping.student_layers() for e in experts.experts))
        modes, start = ("naive",), plan.phase1_epochs
    cached = [m for m in modes if m != "naive"]
    for mode in cached:
        if cache is None or (mapping if mode == "joint" else logits_group) is None:
            raise ConfigError(f"{mode} mode needs a teacher feature cache and "
                              + ("a mapping" if mode == "joint" else "its logits"))
        if mode == "joint":
            mapping.validate_for(student.spec, cache)
        elif logits_group not in cache.groups:
            raise ConfigError(f"feature group {logits_group} not present in cache")
    if cached:
        _check_cache_alignment(dataset, [cache])
    model = student.copy()
    _fit_epochs(model, dataset, schedule, plan,
                _objective(modes, plan.prior, cache, mapping, logits_group),
                epochs=plan.total_epochs - start, lr=plan.lr_phase2, phase=2,
                epoch_offset=start, frozen_layers=frozen, test=test, log=log)
    return model, final_kl


@dataclass
class ComparisonResult:
    seeds: list[int]
    methods: dict[str, MetricsReport]
    teacher: MetricsReport
    # each two_phase row's label -> its fit's phase-1 final KL, mean over seeds
    phase1_kl: dict[str, float | None]

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


def format_topk_table(reports: dict[str, MetricsReport]) -> str:
    """Top-k accuracy rows by method columns."""
    methods = list(reports)
    width = max(len(m) for m in methods + ["metric"]) + 2
    header = "metric".ljust(16) + "".join(m.rjust(width) for m in methods)
    lines = [header]
    for k in _TOP_KS:
        name = f"top{k}"
        row = f"top-{k} accuracy".ljust(16)
        row += "".join(f"{reports[m].mean(name):.4f}".rjust(width) for m in methods)
        lines.append(row)
    return "\n".join(lines) + "\n"


@dataclass
class _StackedSchedule:
    """Seeds' schedules stepped together, row s of a batch from schedule s,
    and that stack repeated ``blocks`` times, a block per mode; zip and
    np.stack raise unless every seed's batches match in shape."""

    schedules: list[BatchSchedule]
    blocks: int = 1

    @property
    def indices(self) -> np.ndarray:
        """Every seed's rows, for ``_fit_epochs``' range check."""
        return np.concatenate([s.indices for s in self.schedules])

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        return [np.tile(np.stack(step), (self.blocks, 1)) for step in zip(
            *(s.epoch_batches(epoch) for s in self.schedules), strict=True)]


def compare_methods(dataset: Dataset, teacher_spec: NetworkSpec,
                    student_spec: NetworkSpec, rows, seeds, *,
                    teacher_plan: TrainPlan, mapping: LayerGroupMapping,
                    test_fraction: float = 0.25) -> ComparisonResult:
    """Train every row across seeds; report mean and standard error.

    ``rows`` maps each row's label to its plan, trained in its own mode.
    Each seed has its own split and teacher, which trains in naive mode on
    that seed and reads only ``config.TEACHER_PLAN_KEYS`` of ``teacher_plan``;
    the seeds train together (``_StackedSchedule``), and one ``extract_features``
    call on the stacked teachers caches the rows' ``cache_groups``.
    """
    seeds = list(seeds)
    for i, seed in enumerate(seeds):
        _check_seed(seed, f"seeds[{i}]")
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ConfigError("need at least 2 seeds for a standard error")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    _require(isinstance(rows, dict) and all(isinstance(p, TrainPlan) for p in rows.values()),
             "rows", "a dict of TrainPlans", rows)

    seeds.sort()
    splits = [split_and_batch(dataset, test_fraction, teacher_plan.batch_size, seed)
              for seed in seeds]

    def fit(spec: NetworkSpec, plan: TrainPlan, modes, **kwargs):
        """Every (mode, seed) model, from its seed's init and schedule, as
        one fit: a block of seeds per mode; and the fit's phase-1 KL."""
        schedules = [BatchSchedule(split.train, plan.batch_size, seed)
                     for split, seed in zip(splits, seeds)]
        model, final_kl = _fit_mode(
            stack_models([init_params(spec, seed) for seed in seeds] * len(modes)),
            dataset, _StackedSchedule(schedules, len(modes)), plan, modes=modes,
            **kwargs)
        models, n = unstack_model(model), len(seeds)
        return [models[i:i + n] for i in range(0, len(models), n)], final_kl

    def report(models: list[Model]) -> MetricsReport:
        return MetricsReport(seeds=seeds, per_seed=[
            evaluate(m, dataset, split.test) for m, split in zip(models, splits)])

    (teachers,), _ = fit(teacher_spec, teacher_plan, ("naive",))
    logits_group = teacher_spec.hidden_count
    plans = list(dict.fromkeys(rows.values()))  # rows of equal plans share models
    cache = extract_features(stack_models(teachers), dataset, set().union(
        *(cache_groups(p.mode, mapping, logits_group) for p in plans)))
    fits: dict[TrainPlan, list[TrainPlan]] = {}  # one-phase plans equal but for mode
    for plan in plans:
        fits.setdefault(plan if plan.mode == "two_phase" else replace(plan, mode="naive"),
                        []).append(plan)
    models, kls = {}, {}
    for plan, members in fits.items():
        blocks, kls[plan] = fit(student_spec, plan, tuple(p.mode for p in members),
                                cache=cache, mapping=mapping, logits_group=logits_group)
        models.update(zip(members, blocks))
    reports = {plan: report(models[plan]) for plan in plans}
    return ComparisonResult(
        seeds=seeds, teacher=report(teachers),
        methods={label: reports[plan] for label, plan in rows.items()},
        phase1_kl={label: kls[plan] for label, plan in rows.items()
                   if plan.mode == "two_phase"})
