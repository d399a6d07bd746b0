"""Experiment configuration: a single JSON document describing the data
source, architectures, training plans, layer-group mapping, experts and
seeds: every run setting but the output directory (the CLI's ``--out``).

Each section is the dataclass it builds, and its allowed keys are exactly
that dataclass's fields: the top level is ``ExperimentConfig``, ``plan`` and
``teacher_plan`` are ``TrainPlan``, ``prior`` is ``PriorConfig``, ``teacher``
and ``student`` are ``ArchConfig`` and each ``experts`` entry is an
``ExpertConfig``, but ``teacher_plan`` takes only ``TEACHER_PLAN_KEYS``.
Each dataclass checks its own values, the same way whether they come
from JSON or from Python, and nothing is coerced; this module checks only
keys and structure.  The ``dataset`` keys are exactly its kind's loader
arguments, which the loader in ``featprior.data`` checks before it makes
any data (``load_dataset``).  Unknown keys anywhere in the document are
hard errors (they are almost always typos in hyperparameter names), and
every cross-reference is validated before any training starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import partial

from . import data
from .data import Dataset, _check_counts, _check_seed, _check_test_fraction, _require
from .errors import ConfigError, FeatPriorError
from .gp_prior import PriorConfig
from .network import ACTIVATIONS, NetworkSpec
from .train import LayerGroupMapping, TrainPlan, _check_expert_alpha


def _check_keys(d: dict, allowed, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown, key=str)} in {where}")
    return d


def _section(cls, d: dict, where: str, **parse):
    """The dataclass ``cls`` built from the JSON object ``d``, whose keys
    must be fields of ``cls``.  ``parse`` maps a key to the parser of its
    value; values are parsed in field order, and ``cls`` checks them."""
    names = [f.name for f in fields(cls)]
    _check_keys(d, names, where)
    kwargs = {k: parse[k](d[k]) if k in parse else d[k] for k in names if k in d}
    try:
        return cls(**kwargs)
    except (TypeError, FeatPriorError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


# the TrainPlan fields a teacher fit reads; ExperimentConfig sets its seed and mode
TEACHER_PLAN_KEYS = ("batch_size", "phase1_epochs", "phase2_epochs", "optimizer",
                     "lr_phase2", "momentum")
_TEACHER_UNREAD = [f.name for f in fields(TrainPlan)
                   if f.name not in (*TEACHER_PLAN_KEYS, "seed", "mode")]

# kind -> (loader in .data, looked up by name when called so that a wrapper
# installed on .data runs; its arguments, each a required key)
_DATASETS = {
    "synth_blobs": ("synth_blobs", ("n_per_class", "classes", "dim", "separation", "seed")),
    "synth_rings": ("synth_rings", ("n_per_class", "classes", "noise", "seed")),
    "idx": ("load_idx", ("images", "labels")),
    "csv": ("load_csv", ("path", "label_column")),
}


@dataclass(frozen=True)
class ArchConfig:
    hidden: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        _require(isinstance(self.hidden, (list, tuple)) and self.hidden, "hidden",
                 "a non-empty list", self.hidden)
        _check_counts(**{f"hidden[{i}]": h for i, h in enumerate(self.hidden)})
        _require(self.activation in ACTIVATIONS, "activation",
                 f"one of {list(ACTIVATIONS)}", self.activation)
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def spec_for(self, dataset: Dataset) -> NetworkSpec:
        return NetworkSpec.dense(dataset.dim, self.hidden,
                                 dataset.class_count, self.activation)


@dataclass(frozen=True)
class ExpertConfig:
    cache: str
    mapping: LayerGroupMapping
    alpha: float = 1.0

    def __post_init__(self):
        _require(isinstance(self.cache, str), "cache", "a string", self.cache)
        _require(isinstance(self.mapping, LayerGroupMapping), "mapping",
                 "a LayerGroupMapping", self.mapping)
        _check_expert_alpha(self.alpha)


@dataclass(frozen=True)
class ExperimentConfig:
    """``teacher_plan`` defaults to ``plan``; either way it trains in naive
    mode on ``plan.seed``, the student's split.  Its other fields outside
    ``TEACHER_PLAN_KEYS``, which no teacher fit reads, must equal ``plan``'s."""

    dataset: dict
    teacher: ArchConfig
    student: ArchConfig
    test_fraction: float = 0.25
    plan: TrainPlan = TrainPlan()
    teacher_plan: TrainPlan | None = None
    mapping: LayerGroupMapping = LayerGroupMapping()
    experts: tuple[ExpertConfig, ...] = ()
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        ds = self.dataset
        _require(isinstance(ds, dict) and isinstance(ds.get("kind"), str)
                 and ds["kind"] in _DATASETS, "dataset", f"a dict of kind {list(_DATASETS)}", ds)
        keys = ["kind", *_DATASETS[ds["kind"]][1]]
        _require(set(ds) == set(keys), "dataset keys", f"exactly {keys}", list(ds))
        _check_test_fraction(self.test_fraction)
        for name, kind, what in (
                ("teacher", ArchConfig, "an ArchConfig"),
                ("student", ArchConfig, "an ArchConfig"),
                ("plan", TrainPlan, "a TrainPlan"),
                ("teacher_plan", (TrainPlan, type(None)), "a TrainPlan or None"),
                ("mapping", LayerGroupMapping, "a LayerGroupMapping")):
            _require(isinstance(getattr(self, name), kind), name, what, getattr(self, name))
        _require(isinstance(self.experts, (list, tuple))
                 and all(isinstance(e, ExpertConfig) for e in self.experts),
                 "experts", "a list of ExpertConfig", self.experts)
        _require(isinstance(self.seeds, (list, tuple)), "seeds", "a list", self.seeds)
        for i, seed in enumerate(self.seeds):
            _check_seed(seed, f"seeds[{i}]")
        object.__setattr__(self, "experts", tuple(self.experts))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for name in _TEACHER_UNREAD:
            value = getattr(self.teacher_plan or self.plan, name)
            _require(value == getattr(self.plan, name), f"teacher_plan.{name}",
                     f"plan's {getattr(self.plan, name)!r} (no teacher fit reads it)", value)
        object.__setattr__(self, "teacher_plan",
                           replace(self.teacher_plan or self.plan, mode="naive",
                                   seed=self.plan.seed))

    def load_dataset(self) -> Dataset:
        loader, args = _DATASETS[self.dataset["kind"]]
        try:
            return getattr(data, loader)(*(self.dataset[a] for a in args))
        except ConfigError as exc:  # a loader raises it only for an argument
            raise ConfigError(f"bad dataset: {exc}") from None

    def validate_cross_refs(self, dataset: Dataset) -> None:
        """Reject every inconsistent reference before training compute."""
        n_student = len(self.student.hidden)
        n_teacher = len(self.teacher.hidden)
        for where, mapping in (("mapping", self.mapping), *(
                (f"experts[{i}] mapping", e.mapping) for i, e in enumerate(self.experts))):
            for student_idx, _ in mapping.entries:
                if not 0 <= student_idx < n_student:
                    raise ConfigError(f"{where} student layer {student_idx} "
                                      f"outside 0..{n_student - 1}")
        # an expert's group ids are its own teacher's, which the config lacks
        for _, gid in self.mapping.entries:
            if not 0 <= gid <= n_teacher:
                raise ConfigError(f"mapping group {gid} outside teacher layers 0..{n_teacher}")
        if dataset.class_count < 2:
            raise ConfigError("dataset must have at least 2 classes")
        if self.plan.batch_size > dataset.n:
            raise ConfigError("batch size exceeds dataset size")


def _parse_mapping(raw, where: str) -> LayerGroupMapping:
    if not isinstance(raw, list):
        raise ConfigError(f"{where} mapping must be a list of [student_layer, group] pairs")
    return _section(LayerGroupMapping, {"entries": raw}, where)


def _parse_plan(d: dict, where: str) -> TrainPlan:
    return _section(TrainPlan, d, where,
                    prior=partial(_section, PriorConfig, where="prior"))


def _parse_experts(raw) -> tuple[ExpertConfig, ...]:
    if not isinstance(raw, list):
        raise ConfigError("experts must be a JSON list of objects")
    return tuple(
        _section(ExpertConfig, e, f"experts[{i}]",
                 mapping=partial(_parse_mapping, where=f"experts[{i}]"))
        for i, e in enumerate(raw))


def parse_config(raw: dict) -> ExperimentConfig:
    return _section(
        ExperimentConfig, raw, "config",
        teacher=partial(_section, ArchConfig, where="teacher"),
        student=partial(_section, ArchConfig, where="student"),
        plan=partial(_parse_plan, where="plan"),
        teacher_plan=lambda d: _parse_plan(
            {**raw.get("plan", {}), **_check_keys(d, TEACHER_PLAN_KEYS, "teacher_plan")},
            "teacher_plan"),
        mapping=partial(_parse_mapping, where="config"), experts=_parse_experts)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)
