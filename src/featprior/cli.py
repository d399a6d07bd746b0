"""Command-line interface.

Subcommands: train-teacher, extract-features, distill, evaluate, compare.
All randomness comes from seeds in the JSON config (optionally overridden
with --seed-override, which ``compare`` rejects because it runs the
config's ``seeds`` list); rerunning a command with the same config produces
byte-identical outputs.  Files are written atomically.

Exit codes: 0 success, 1 user or configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .data import Dataset, read_cache, split_and_batch, write_cache
from .errors import ConfigError, FeatPriorError, NumericalError
from .network import load_model, serialize_model
from .train import (
    ExpertPrior,
    ExpertPriorSet,
    cache_groups,
    compare_methods,
    evaluate,
    extract_features,
    metrics_csv,
    run_distillation,
    run_log_csv,
    train_teacher,
)


def _atomic_write(path: Path, write) -> None:
    """``write(tmp)`` fills a sibling temporary file that then replaces
    ``path``; a failed write removes the temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    _atomic_write(path, lambda tmp: tmp.write_bytes(data))


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode())


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def cmd_train_teacher(cfg: ExperimentConfig, dataset: Dataset, out: Path, args) -> None:
    spec = cfg.teacher.spec_for(dataset)
    model, report = train_teacher(dataset, spec, cfg.teacher_plan,
                                  test_fraction=cfg.test_fraction)
    _atomic_write_bytes(out / "teacher.fpnn", serialize_model(model))
    _atomic_write_text(out / "teacher_metrics.csv",
                       metrics_csv(report.per_seed[0]))
    print(f"teacher accuracy {report.mean('accuracy'):.4f} "
          f"-> {out / 'teacher.fpnn'}")


def _architecture(spec) -> str:
    *hidden, _ = spec.layers
    acts = "/".join(sorted({layer.activation for layer in hidden}))
    return (f"{spec.input_width} -> {[layer.out_width for layer in hidden]} "
            f"{acts} -> {spec.output_head}")


def cmd_extract_features(cfg: ExperimentConfig, dataset: Dataset, out: Path,
                         args) -> None:
    teacher_path = Path(args.teacher) if args.teacher else out / "teacher.fpnn"
    model = load_model(_require_file(teacher_path, "teacher model"))
    expected = cfg.teacher.spec_for(dataset)
    if model.spec != expected:
        raise ConfigError(f"teacher model {teacher_path} is {_architecture(model.spec)}, "
                          f"but the config's teacher is {_architecture(expected)}")
    # every hidden layer of the configured teacher, plus its logits group
    cache = extract_features(model, dataset, range(len(cfg.teacher.hidden) + 1))
    _atomic_write(out / "features.fpfc", lambda tmp: write_cache(tmp, cache))
    widths = {gid: mat.shape[1] for gid, mat in sorted(cache.groups.items())}
    print(f"extracted groups {widths} -> {out / 'features.fpfc'}")


def cmd_distill(cfg: ExperimentConfig, dataset: Dataset, out: Path, args) -> None:
    plan = cfg.plan
    split = split_and_batch(dataset, cfg.test_fraction, plan.batch_size,
                            plan.seed)
    student_spec = cfg.student.spec_for(dataset)

    logits_group = len(cfg.teacher.hidden)

    def read(path: Path, what: str, mapping):
        return read_cache(_require_file(path, what),
                          groups=cache_groups(plan.mode, mapping, logits_group))

    experts = cache = None
    if cfg.experts:
        if args.features or cfg.mapping.entries:
            raise ConfigError("distill with experts reads each expert's cache and "
                              "mapping, so it takes neither --features nor a "
                              "top-level mapping; drop them")
        experts = ExpertPriorSet(tuple(
            ExpertPrior(read(Path(e.cache), "expert cache", e.mapping), e.mapping,
                        e.alpha)
            for e in cfg.experts))
    elif plan.mode != "naive":
        cache_path = Path(args.features) if args.features else out / "features.fpfc"
        cache = read(cache_path, "feature cache", cfg.mapping)
        # the config's teacher names the groups: hidden layers, then logits
        teacher = dict(enumerate([*cfg.teacher.hidden, dataset.class_count]))
        for gid, (_, width) in sorted(cache.shapes.items()):
            if teacher.get(gid) != width:
                raise ConfigError(f"feature cache {cache_path} holds group {gid} of width "
                                  f"{width}, which the config's teacher lacks: its "
                                  f"groups are {teacher} (the last is its logits)")

    result = run_distillation(
        student_spec, dataset, split, plan, cache=cache, mapping=cfg.mapping,
        experts=experts, logits_group=logits_group)
    _atomic_write_bytes(out / "student.fpnn", serialize_model(result.model))
    _atomic_write_text(out / "run_log.csv", run_log_csv(result.log))
    print(f"{plan.mode} student accuracy {result.metrics.accuracy:.4f} "
          f"-> {out / 'student.fpnn'}")


def cmd_evaluate(cfg: ExperimentConfig, dataset: Dataset, out: Path, args) -> None:
    model_path = Path(args.model) if args.model else out / "student.fpnn"
    model = load_model(_require_file(model_path, "model"))
    split = split_and_batch(dataset, cfg.test_fraction, cfg.plan.batch_size,
                            cfg.plan.seed)
    metrics = evaluate(model, dataset, split.test)
    _atomic_write_text(out / "metrics.csv", metrics_csv(metrics))
    print(f"accuracy {metrics.accuracy:.4f} -> {out / 'metrics.csv'}")


def cmd_compare(cfg: ExperimentConfig, dataset: Dataset, out: Path, args) -> None:
    result = compare_methods(
        dataset, cfg.teacher.spec_for(dataset), cfg.student.spec_for(dataset),
        cfg.plan, list(cfg.seeds), teacher_plan=cfg.teacher_plan,
        mapping=cfg.mapping, test_fraction=cfg.test_fraction)
    _atomic_write_text(out / "comparison.csv", result.comparison_csv())
    _atomic_write_text(out / "summary.txt", result.summary_text())
    print(result.summary_text())


_COMMANDS = {
    "train-teacher": cmd_train_teacher,
    "extract-features": cmd_extract_features,
    "distill": cmd_distill,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 for usage errors, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="featprior",
                     description="GP feature-prior distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the plan seeds from the config")
        if name == "extract-features":
            p.add_argument("--teacher", default=None,
                           help="teacher model path (default <out>/teacher.fpnn)")
        if name == "distill":
            p.add_argument("--features", default=None,
                           help="feature cache path (default <out>/features.fpfc)")
        if name == "evaluate":
            p.add_argument("--model", default=None,
                           help="model to evaluate (default <out>/student.fpnn)")
        if name == "compare":
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted and ignored (must be >= 1): compare "
                                "trains all seeds together in one process")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        compare = args.command == "compare"
        if compare and args.seed_override is not None:
            raise ConfigError(
                "compare does not take --seed-override: it runs every seed "
                "in the config's seeds list; edit that list instead")
        if compare and args.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
        cfg = load_config(args.config)
        if compare and cfg.experts:
            raise ConfigError("compare does not read experts: it trains its own teacher "
                              "for every seed; drop the experts list, or run distill")
        if args.seed_override is not None:
            cfg = cfg.with_seed(args.seed_override)
        dataset = cfg.load_dataset()
        cfg.validate_cross_refs(dataset)
        out = Path(args.out or cfg.out_dir or ".")
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, dataset, out, args)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FeatPriorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
