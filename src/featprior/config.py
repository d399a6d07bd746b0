"""Experiment configuration: a single JSON document describing the data
source, architectures, training plans, layer-group mapping, experts and
seeds.

Unknown keys anywhere in the document are hard errors (they are almost
always typos in hyperparameter names), and every cross-reference is
validated before any training starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import data
from .data import Dataset
from .errors import ConfigError, FeatPriorError
from .gp_prior import PriorConfig
from .network import NetworkSpec
from .train import LayerGroupMapping, TrainPlan


def _check_keys(d: dict, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


# kind -> (loader in .data, its arguments in order).  Every argument is a
# required key: a partially specified data source is a typo.  The loader is
# looked up by name when called, so a wrapper installed on .data runs.
_DATASETS = {
    "synth_blobs": ("synth_blobs", "n_per_class classes dim separation seed"),
    "synth_rings": ("synth_rings", "n_per_class classes noise seed"),
    "idx": ("load_idx", "images labels"),
    "csv": ("load_csv", "path label_column"),
}

_PLAN_KEYS = {"seed", "batch_size", "phase1_epochs", "phase2_epochs",
              "optimizer", "lr_phase1", "lr_phase2", "momentum", "prior", "mode"}
_PRIOR_KEYS = {"alpha", "jitter", "normalize_by_width", "temperature"}
_ARCH_KEYS = {"hidden", "activation"}
_EXPERT_KEYS = {"cache", "mapping", "alpha"}
_TOP_KEYS = {"dataset", "test_fraction", "teacher", "student", "plan",
             "teacher_plan", "mapping", "feature_layers", "experts",
             "seeds", "out_dir"}


def _parse_prior(d: dict) -> PriorConfig:
    _check_keys(d, _PRIOR_KEYS, "prior")
    try:
        return PriorConfig(**d)
    except (TypeError, FeatPriorError) as exc:
        raise ConfigError(f"bad prior config: {exc}") from None


def _parse_plan(d: dict, where: str) -> TrainPlan:
    _check_keys(d, _PLAN_KEYS, where)
    kwargs = dict(d)
    if "prior" in kwargs:
        kwargs["prior"] = _parse_prior(kwargs["prior"])
    try:
        return TrainPlan(**kwargs)
    except (TypeError, FeatPriorError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


@dataclass(frozen=True)
class ArchConfig:
    hidden: tuple[int, ...]
    activation: str = "relu"

    def spec_for(self, dataset: Dataset) -> NetworkSpec:
        return NetworkSpec.dense(dataset.dim, self.hidden,
                                 dataset.class_count, self.activation)


@dataclass(frozen=True)
class ExpertConfig:
    cache_path: str
    mapping: LayerGroupMapping
    alpha: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    test_fraction: float
    teacher: ArchConfig
    student: ArchConfig
    plan: TrainPlan
    teacher_plan: TrainPlan
    mapping: LayerGroupMapping
    feature_layers: tuple[int, ...] | None
    experts: tuple[ExpertConfig, ...]
    seeds: tuple[int, ...]
    out_dir: str | None

    def load_dataset(self) -> Dataset:
        loader, args = _DATASETS[self.dataset["kind"]]
        return getattr(data, loader)(*(self.dataset[a] for a in args.split()))

    def feature_group_ids(self) -> tuple[int, ...]:
        """Groups to extract: configured list, or all hidden layers plus
        the logits group."""
        if self.feature_layers is not None:
            return self.feature_layers
        return tuple(range(len(self.teacher.hidden) + 1))

    def validate_cross_refs(self, dataset: Dataset) -> None:
        """Reject every inconsistent reference before training compute."""
        n_student = len(self.student.hidden)
        n_teacher = len(self.teacher.hidden)
        available = set(self.feature_group_ids())
        for student_idx, gid in self.mapping.entries:
            if not 0 <= student_idx < n_student:
                raise ConfigError(
                    f"mapping student layer {student_idx} outside 0..{n_student - 1}"
                )
            if not 0 <= gid <= n_teacher:
                raise ConfigError(
                    f"mapping group {gid} outside teacher layers 0..{n_teacher}"
                )
            if gid not in available:
                raise ConfigError(
                    f"mapping group {gid} not in extracted feature layers"
                )
        for gid in available:
            if not 0 <= gid <= n_teacher:
                raise ConfigError(
                    f"feature layer {gid} outside teacher layers 0..{n_teacher}"
                )
        for expert in self.experts:
            for student_idx, _ in expert.mapping.entries:
                if not 0 <= student_idx < n_student:
                    raise ConfigError(
                        f"expert mapping layer {student_idx} outside student"
                    )
        if dataset.class_count < 2:
            raise ConfigError("dataset must have at least 2 classes")
        if self.plan.batch_size > dataset.n:
            raise ConfigError("batch size exceeds dataset size")
        # train-teacher splits on teacher_plan.seed and distill/evaluate on
        # plan.seed: different seeds would train the teacher on test rows
        if self.teacher_plan.seed != self.plan.seed:
            raise ConfigError(
                f"teacher_plan seed {self.teacher_plan.seed} != plan seed "
                f"{self.plan.seed}: the teacher would train on the student's "
                "test rows"
            )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, plan=replace(self.plan, seed=seed),
                       teacher_plan=replace(self.teacher_plan, seed=seed))


def _parse_mapping(raw, where: str) -> LayerGroupMapping:
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a list of [student_layer, group] pairs")
    entries = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{where} entries must be pairs, got {item!r}")
        entries.append((int(item[0]), int(item[1])))
    return LayerGroupMapping(entries=tuple(entries))


def _parse_arch(d: dict, where: str) -> ArchConfig:
    _check_keys(d, _ARCH_KEYS, where)
    hidden = d.get("hidden")
    if not isinstance(hidden, list) or not hidden:
        raise ConfigError(f"{where}.hidden must be a non-empty list of widths")
    return ArchConfig(hidden=tuple(int(h) for h in hidden),
                      activation=d.get("activation", "relu"))


def parse_config(raw: dict) -> ExperimentConfig:
    try:
        return _parse_config(raw)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, _TOP_KEYS, "config")
    if "dataset" not in raw:
        raise ConfigError("config needs a 'dataset' section")
    ds = raw["dataset"]
    if not isinstance(ds, dict) or "kind" not in ds:
        raise ConfigError("dataset section needs a 'kind'")
    if ds["kind"] not in _DATASETS:
        raise ConfigError(f"unknown dataset kind {ds['kind']!r}")
    keys = {"kind", *_DATASETS[ds["kind"]][1].split()}
    _check_keys(ds, keys, "dataset")
    missing = keys - set(ds)
    if missing:
        raise ConfigError(f"dataset section is missing {sorted(missing)}")

    for required in ("teacher", "student"):
        if required not in raw:
            raise ConfigError(f"config needs a '{required}' section")
    teacher = _parse_arch(raw["teacher"], "teacher")
    student = _parse_arch(raw["student"], "student")

    plan = _parse_plan(raw.get("plan", {}), "plan")
    if "teacher_plan" in raw:
        _check_keys(raw["teacher_plan"], _PLAN_KEYS, "teacher_plan")
        merged = dict(raw.get("plan", {}))
        merged.update(raw["teacher_plan"])
        teacher_plan = _parse_plan(merged, "teacher_plan")
    else:
        teacher_plan = plan
    teacher_plan = replace(teacher_plan, mode="naive")

    mapping = _parse_mapping(raw.get("mapping", []), "mapping")

    feature_layers = raw.get("feature_layers")
    if feature_layers is not None:
        if not isinstance(feature_layers, list):
            raise ConfigError("feature_layers must be a list of layer ids")
        feature_layers = tuple(int(i) for i in feature_layers)

    experts = []
    for i, e in enumerate(raw.get("experts", [])):
        _check_keys(e, _EXPERT_KEYS, f"experts[{i}]")
        if "cache" not in e or "mapping" not in e:
            raise ConfigError(f"experts[{i}] needs 'cache' and 'mapping'")
        experts.append(ExpertConfig(
            cache_path=str(e["cache"]),
            mapping=_parse_mapping(e["mapping"], f"experts[{i}].mapping"),
            alpha=float(e.get("alpha", 1.0)),
        ))

    seeds = raw.get("seeds", [])
    if not isinstance(seeds, list):
        raise ConfigError("seeds must be a list of integers")

    test_fraction = float(raw.get("test_fraction", 0.25))
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")

    return ExperimentConfig(
        dataset=ds,
        test_fraction=test_fraction,
        teacher=teacher,
        student=student,
        plan=plan,
        teacher_plan=teacher_plan,
        mapping=mapping,
        feature_layers=feature_layers,
        experts=tuple(experts),
        seeds=tuple(int(s) for s in seeds),
        out_dir=raw.get("out_dir"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)
