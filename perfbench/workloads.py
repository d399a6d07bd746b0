"""The benchmark's workloads: generated configs, the CLI commands of the
timed body, the exact optimizer-step count and the quality read-outs.

Every input is a function of the workload seed.  ``tiny`` shrinks each
workload to a few epochs on a few rows for the smoke test; the shape of
the work (commands, layers touched, files written) stays the same.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PRIOR = {"alpha": 1.0, "jitter": 1e-4, "normalize_by_width": True,
         "temperature": 4.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (workload seed, tiny, repo root, out dir) -> {config name: config}
    make_configs: Callable[[int, bool, Path, Path], dict]
    # (config dir, out dir) -> CLI argv lists of the timed body
    commands: Callable[[Path, Path], list]
    # configs -> optimizer steps of one body
    steps: Callable[[dict], int]
    # distilled students the checks score: (name, prior terms), where the
    # name is both the config and the out subdirectory, and each term is
    # (student layer, teacher out subdirectory, feature group)
    students: tuple = ()
    # run_log.csv files (relative to the out dir) whose KLs are checked;
    # final_kl is the last phase-1 KL of the first.  Without run logs it is
    # the mean of what phase1_feature_fit returned.
    run_logs: tuple = ()


def _seeds(seed: int, count: int) -> tuple[int, list[int]]:
    """Dataset seed and ``count`` distinct plan seeds for a workload seed."""
    rng = random.Random(seed)
    return rng.randrange(1, 2**31), rng.sample(range(1, 10**6), count)


def _train_rows(cfg: dict) -> int:
    """Train-split rows, rounded as featprior.data.split_and_batch does."""
    ds = cfg["dataset"]
    n = ds["n_per_class"] * ds["classes"]
    n_test = min(max(int(round(n * cfg["test_fraction"])), 1), n - 1)
    return n - n_test


def _plan(cfg: dict, key: str) -> dict:
    plan = dict(cfg["plan"])
    if key == "teacher_plan":
        plan.update(cfg.get("teacher_plan", {}))
    return plan


def _fit_steps(cfg: dict, key: str = "plan") -> int:
    """Epochs x batches of one fit; every mode runs phase1 + phase2
    epochs over the same schedule."""
    plan = _plan(cfg, key)
    epochs = plan["phase1_epochs"] + plan["phase2_epochs"]
    return epochs * math.ceil(_train_rows(cfg) / plan["batch_size"])


# -- ref-compare --------------------------------------------------------------

COMPARE_MODES = 5
COMPARE_SEEDS = 2


def _ref_configs(seed, tiny, root, out):
    with open(root / "configs" / "reference.json") as fh:
        cfg = json.load(fh)
    data_seed, plan_seeds = _seeds(seed, COMPARE_SEEDS)
    cfg["dataset"]["seed"] = data_seed
    cfg["plan"]["seed"] = plan_seeds[0]
    cfg["seeds"] = plan_seeds
    if tiny:
        cfg["dataset"]["n_per_class"] = 40
        cfg["plan"].update(phase1_epochs=2, phase2_epochs=1)
        cfg["teacher_plan"].update(phase2_epochs=2)
    return {"reference": cfg}


def _ref_commands(cfg_dir, out):
    return [["compare", "--config", str(cfg_dir / "reference.json"),
             "--out", str(out), "--jobs", "1"]]


def _ref_steps(configs):
    cfg = configs["reference"]
    per_seed = _fit_steps(cfg, "teacher_plan") + COMPARE_MODES * _fit_steps(cfg)
    return len(cfg["seeds"]) * per_seed


# -- batch256-prior -----------------------------------------------------------

def _b256_configs(seed, tiny, root, out):
    data_seed, (plan_seed,) = _seeds(seed, 1)
    two_phase = {
        "dataset": {"kind": "synth_rings", "n_per_class": 2000, "classes": 3,
                    "noise": 0.15, "seed": data_seed},
        "test_fraction": 0.5,
        "teacher": {"hidden": [64, 64], "activation": "relu"},
        "student": {"hidden": [16], "activation": "relu"},
        "plan": {"seed": plan_seed, "batch_size": 256, "phase1_epochs": 12,
                 "phase2_epochs": 30, "optimizer": "adam", "lr_phase1": 0.03,
                 "lr_phase2": 0.01, "mode": "two_phase", "prior": dict(PRIOR)},
        "teacher_plan": {"phase1_epochs": 0, "phase2_epochs": 20,
                         "lr_phase2": 0.003, "batch_size": 64},
        "mapping": [[0, 1]],
    }
    if tiny:
        two_phase["dataset"]["n_per_class"] = 120
        two_phase["plan"].update(batch_size=64, phase1_epochs=2, phase2_epochs=2)
        two_phase["teacher_plan"]["phase2_epochs"] = 2
    joint = copy.deepcopy(two_phase)
    joint["plan"].update(mode="joint", phase1_epochs=0,
                         phase2_epochs=2 if tiny else 12)
    return {"two_phase": two_phase, "joint": joint}


def _b256_commands(cfg_dir, out):
    tp, joint = cfg_dir / "two_phase.json", cfg_dir / "joint.json"
    features = out / "teacher" / "features.fpfc"
    return [
        ["train-teacher", "--config", str(tp), "--out", str(out / "teacher")],
        ["extract-features", "--config", str(tp), "--out", str(out / "teacher")],
        ["distill", "--config", str(tp), "--out", str(out / "two_phase"),
         "--features", str(features)],
        ["distill", "--config", str(joint), "--out", str(out / "joint"),
         "--features", str(features)],
    ]


def _b256_steps(configs):
    return (_fit_steps(configs["two_phase"], "teacher_plan")
            + _fit_steps(configs["two_phase"]) + _fit_steps(configs["joint"]))


# -- experts-cli --------------------------------------------------------------

# expert name -> (teacher architecture, student mapping, weight)
EXPERTS = {
    "teacher_a": ({"hidden": [256, 256], "activation": "relu"}, [[1, 0], [1, 1]], 1.0),
    "teacher_b": ({"hidden": [128], "activation": "tanh"}, [[0, 0]], 0.5),
}


def _experts_configs(seed, tiny, root, out):
    data_seed, (plan_seed,) = _seeds(seed, 1)
    base = {
        "dataset": {"kind": "synth_blobs", "n_per_class": 500, "classes": 4,
                    "dim": 32, "separation": 6.0, "seed": data_seed},
        "test_fraction": 0.5,
        "student": {"hidden": [64, 32], "activation": "relu"},
        "plan": {"seed": plan_seed, "batch_size": 64, "phase1_epochs": 20,
                 "phase2_epochs": 20, "optimizer": "adam", "lr_phase1": 0.01,
                 "lr_phase2": 0.01, "mode": "two_phase", "prior": dict(PRIOR)},
        "teacher_plan": {"phase1_epochs": 0, "phase2_epochs": 10,
                         "lr_phase2": 0.003},
    }
    if tiny:
        base["dataset"]["n_per_class"] = 40
        base["plan"].update(batch_size=16, phase1_epochs=2, phase2_epochs=2)
        base["teacher_plan"]["phase2_epochs"] = 2
    configs = {}
    for name, (arch, _, _) in EXPERTS.items():
        configs[name] = dict(copy.deepcopy(base), teacher=arch)
    configs["student"] = dict(
        copy.deepcopy(base), teacher=EXPERTS["teacher_a"][0],
        experts=[{"cache": str(out / name / "features.fpfc"),
                  "mapping": mapping, "alpha": alpha}
                 for name, (_, mapping, alpha) in EXPERTS.items()])
    return configs


def _experts_commands(cfg_dir, out):
    cmds = []
    for name in EXPERTS:
        cfg = str(cfg_dir / f"{name}.json")
        cmds.append(["train-teacher", "--config", cfg, "--out", str(out / name)])
        cmds.append(["extract-features", "--config", cfg, "--out", str(out / name)])
    student = str(cfg_dir / "student.json")
    cmds.append(["distill", "--config", student, "--out", str(out / "student")])
    cmds.append(["evaluate", "--config", student, "--out", str(out / "student")])
    return cmds


def _experts_steps(configs):
    return (sum(_fit_steps(configs[name], "teacher_plan") for name in EXPERTS)
            + _fit_steps(configs["student"]))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref-compare",
        why="compare on configs/reference.json (batch 16, five modes): "
            "per-step Python overhead in autodiff, forward and adam dominates",
        make_configs=_ref_configs, commands=_ref_commands, steps=_ref_steps),
    Workload(
        name="batch256-prior",
        why="teacher, features, two_phase and joint distill at batch 256: "
            "each step factors and solves 256x256 Grams in linalg and gp_prior",
        make_configs=_b256_configs, commands=_b256_commands, steps=_b256_steps,
        students=(("two_phase", ((0, "teacher", 1),)),
                  ("joint", ((0, "teacher", 1),))),
        run_logs=("two_phase/run_log.csv", "joint/run_log.csv")),
    Workload(
        name="experts-cli",
        why="two teachers written and read back as .fpnn/.fpfc, then a "
            "multi-level two-expert distill at batch 64: several KL terms a step",
        make_configs=_experts_configs, commands=_experts_commands,
        steps=_experts_steps,
        students=(("student",
                   tuple((layer, name, group)
                         for name, (_, mapping, _) in EXPERTS.items()
                         for layer, group in mapping)),),
        run_logs=("student/run_log.csv",)),
)}


# -- quality read-outs --------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def metric_value(path: Path, name: str) -> float:
    """A value from a metrics.csv written by ``featprior evaluate``."""
    for row in read_csv(path):
        if row["metric"] == name:
            return float(row["value"])
    raise KeyError(f"{name} not in {path}")


def compare_accuracies(path: Path) -> list[float]:
    """Mean accuracies of the feature-prior modes in comparison.csv."""
    return [float(row["mean"]) for row in read_csv(path)
            if row["metric"] == "accuracy" and row["method"] in ("two_phase", "joint")]


def last_phase1_kl(path: Path) -> float:
    rows = [r for r in read_csv(path) if r["phase"] == "1" and r["kl_loss"]]
    if not rows:
        raise ValueError(f"no phase-1 KL in {path}")
    return float(rows[-1]["kl_loss"])
