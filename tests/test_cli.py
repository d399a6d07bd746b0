"""CLI tests: subcommand outputs, exit codes, config validation and
byte-level determinism of rerun outputs."""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from featprior.cli import main
from featprior.config import (ArchConfig, ExperimentConfig, ExpertConfig, load_config,
                              parse_config)
from featprior.errors import ConfigError, FeatPriorError
from featprior.gp_prior import PriorConfig
from featprior.data import (Dataset, load_csv, load_idx, read_cache, serialize_cache,
                            split_and_batch, synth_blobs, synth_rings, write_cache)
from featprior.network import NetworkSpec, init_params, load_model, serialize_model
from featprior.train import LayerGroupMapping, TrainPlan, extract_features

# the TrainPlan fields a teacher fit reads, the only keys teacher_plan takes
TEACHER_FIT_KEYS = ("batch_size", "phase1_epochs", "phase2_epochs", "optimizer", "lr_phase2",
                    "momentum")
REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
README = REFERENCE_CONFIG.parent.parent / "README.md"


def base_config():
    return {
        "dataset": {"kind": "synth_blobs", "n_per_class": 40, "classes": 2,
                    "dim": 2, "separation": 8.0, "seed": 5},
        "test_fraction": 0.5,
        "teacher": {"hidden": [8], "activation": "relu"},
        "student": {"hidden": [4], "activation": "relu"},
        "plan": {"seed": 1, "batch_size": 16, "phase1_epochs": 2,
                 "phase2_epochs": 3, "lr_phase1": 0.01, "mode": "two_phase"},
        "teacher_plan": {"phase1_epochs": 0, "phase2_epochs": 25,
                         "lr_phase2": 0.01},
        "mapping": [[0, 0]],
        "seeds": [1, 2],
    }


def separated_config(mode="two_phase"):
    """``base_config()`` on overlapping blobs with a faster task step, where
    the five ``compare`` rows all score differently."""
    cfg = base_config()
    cfg["dataset"]["separation"] = 2.0
    cfg["plan"].update(mode=mode, lr_phase2=0.01)
    return cfg


def row_scores(out: Path) -> list[str]:
    """The five rows' score strings in ``out``'s compare summary."""
    return [line.split(None, 1)[1]
            for line in (out / "summary.txt").read_text().splitlines()[2:7]]


def experiment_config(**kwargs) -> ExperimentConfig:
    """``base_config()``'s dataset under two small nets, built in Python."""
    return ExperimentConfig(base_config()["dataset"], ArchConfig((8,)), ArchConfig((4,)),
                            **kwargs)


def non_default_fields(cls, shift: int) -> dict:
    """A JSON object giving every field of the plan or prior dataclass
    ``cls`` a valid value other than its default; numbers move by ``shift``,
    momentum, which must stay below 1, is divided by 1 + ``shift``."""
    out = {}
    for f in fields(cls):
        if f.name == "momentum":
            out[f.name] = f.default / (1 + shift)
        elif isinstance(f.default, PriorConfig):
            out[f.name] = non_default_fields(PriorConfig, shift)
        elif isinstance(f.default, bool):
            out[f.name] = not f.default
        elif isinstance(f.default, str):
            out[f.name] = {"optimizer": "sgd", "mode": "joint"}[f.name]
        else:
            out[f.name] = f.default + shift
    return out


def write_config(tmp_path, cfg=None, name="config.json"):
    cfg = cfg if cfg is not None else base_config()
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        # feature_layers is retired: extract-features writes every group
        for key, value in (("learning_rate", 0.1), ("feature_layers", [0, 1])):
            cfg = base_config()
            cfg[key] = value
            with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\] in config"):
                parse_config(cfg)

    def test_unknown_plan_key(self):
        cfg = base_config()
        cfg["plan"]["lr"] = 0.1
        with pytest.raises(ConfigError, match="lr"):
            parse_config(cfg)

    def test_unknown_prior_key(self):
        cfg = base_config()
        cfg["plan"]["prior"] = {"jitterr": 1e-3}
        with pytest.raises(ConfigError, match="jitterr"):
            parse_config(cfg)

    def test_unknown_keys_of_mixed_types_are_config_error(self):
        # a Python dict may mix int and str keys, which do not sort together
        cfg = json.loads(REFERENCE_CONFIG.read_text())
        cfg["plan"][7] = 1
        cfg["plan"]["lr_phase3"] = 1
        with pytest.raises(ConfigError) as excinfo:
            parse_config(cfg)
        assert str(excinfo.value) == "unknown keys [7, 'lr_phase3'] in plan"

    @pytest.mark.parametrize("distance", ["gp_kl", "hinton", "l2"])
    def test_prior_distance_key_rejected(self, distance):
        # the removed "distance" key is an unknown key, whatever its value
        cfg = base_config()
        cfg["plan"]["prior"] = {"jitter": 1e-3, "distance": distance}
        with pytest.raises(ConfigError, match=r"unknown keys \['distance'\] in prior"):
            parse_config(cfg)

    def test_reference_config_loads(self):
        cfg = load_config(str(REFERENCE_CONFIG))
        assert cfg.plan.prior == PriorConfig(alpha=1.0, jitter=1e-4,
                                             normalize_by_width=True,
                                             temperature=4.0)

    def test_unknown_distance_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["plan"]["prior"] = {"distance": "cosine"}
        with pytest.raises(ConfigError, match="distance"):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert run("train-teacher", "--config", path, "--out", str(out)) == 1
        assert "distance" in capsys.readouterr().err
        assert not (out / "teacher.fpnn").exists()

    def test_bad_subcommand_exit_1(self, capsys):
        assert run("frobnicate", "--config", "x.json") == 1

    @pytest.mark.parametrize("command, flags, named", [
        *((command, ["--seed-override", "7"], "unrecognized arguments: --seed-override 7")
          for command in ("train-teacher", "extract-features", "distill", "evaluate",
                          "compare")),
        ("train-teacher", [], "unknown keys ['out_dir'] in config"),
    ], ids=["train-teacher", "extract-features", "distill", "evaluate", "compare",
            "out_dir-key"])
    def test_removed_setting_exit_1(self, tmp_path, monkeypatch, capsys, command, flags,
                                    named):
        # seeds come from the config alone and files go to --out alone: the
        # removed --seed-override flag and out_dir key are refused before
        # anything is written, here or in the directory out_dir names
        cfg = base_config()
        if not flags:
            cfg["out_dir"] = "runs"
        path = write_config(tmp_path, cfg)
        monkeypatch.chdir(tmp_path)
        assert run(command, "--config", path, *flags) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_every_plan_and_prior_field_round_trips(self):
        # teacher_plan sets the six fields a teacher fit reads; its seed
        # and mode come from plan
        assert {*TEACHER_FIT_KEYS, "seed", "mode", "prior", "lr_phase1"} == {
            f.name for f in fields(TrainPlan)}
        cfg = base_config()
        cfg["plan"] = non_default_fields(TrainPlan, 1)
        teacher = non_default_fields(TrainPlan, 2)
        cfg["teacher_plan"] = {k: teacher[k] for k in TEACHER_FIT_KEYS}
        plan = TrainPlan(**{**cfg["plan"], "prior": PriorConfig(**cfg["plan"]["prior"])})
        parsed = parse_config(cfg)
        assert parsed.plan == plan
        assert parsed.teacher_plan == replace(plan, **cfg["teacher_plan"], mode="naive")

    @pytest.mark.parametrize("where, key, value, named", [
        ("teacher", "hidden", [8.7], "bad teacher: hidden[0] must be an integer >= 1, "
         "got 8.7"),
        ("teacher", "hidden", ["4"], "bad teacher: hidden[0] must be an integer >= 1, "
         "got '4'"),
        ("student", "hidden", [True], "bad student: hidden[0] must be an integer >= 1, "
         "got True"),
        ("teacher", "activation", 5, "bad teacher: activation must be one of "
         "['relu', 'tanh', 'identity'], got 5"),
        ("student", "activation", "sigmoid", "bad student: activation must be one of "
         "['relu', 'tanh', 'identity'], got 'sigmoid'"),
        ("config", "mapping", [[0.9, 1.6]],
         "bad config: mapping entries must be pairs of integers, got [0.9, 1.6]"),
        ("experts", "mapping", [[0, 1, 2]],
         "bad experts[0]: mapping entries must be pairs of integers, got [0, 1, 2]"),
        ("config", "seeds", [1.5, 2],
         "bad config: seeds[0] must be an integer >= 0, got 1.5"),
        ("config", "seeds", [1, -1], "bad config: seeds[1] must be an integer >= 0, got -1"),
        ("config", "experts", 5, "experts must be a JSON list of objects"),
        ("config", "experts", {"a": 1}, "experts must be a JSON list of objects"),
        ("config", "teacher_plan", 5, "teacher_plan must be a JSON object"),
        ("plan", "batch_size", 16.5, "bad plan: batch_size must be an integer, got 16.5"),
        ("prior", "normalize_by_width", "no",
         "bad prior: normalize_by_width must be a bool, got 'no'"),
        ("prior", "alpha", True, "bad prior: alpha must be a number, got True"),
        ("teacher_plan", "lr_phase2", "0.003",
         "bad teacher_plan: lr_phase2 must be a number, got '0.003'"),
        ("teacher_plan", "phase2_epochs", 1.5,
         "bad teacher_plan: phase2_epochs must be an integer, got 1.5"),
        ("config", "test_fraction", "0.5",
         "bad config: test_fraction must be a number in (0, 1), got '0.5'"),
        ("experts", "alpha", "1", "bad experts[0]: alpha must be a finite number > 0, got '1'"),
        ("experts", "cache", 7, "bad experts[0]: cache must be a string, got 7"),
        ("prior", "alpha", math.nan, "bad prior: alpha must be finite and >= 0, got nan"),
        ("prior", "alpha", math.inf, "bad prior: alpha must be finite and >= 0, got inf"),
        ("prior", "jitter", math.nan, "bad prior: jitter must be finite and >= 0, got nan"),
        ("prior", "temperature", -math.inf,
         "bad prior: temperature must be finite and > 0, got -inf"),
        ("plan", "lr_phase1", math.inf, "bad plan: lr_phase1 must be finite and > 0, got inf"),
        ("experts", "alpha", math.inf,
         "bad experts[0]: alpha must be a finite number > 0, got inf"),
        ("experts", "alpha", -1.0,
         "bad experts[0]: alpha must be a finite number > 0, got -1.0"),
        ("plan", "lr_phase1", -0.01, "bad plan: lr_phase1 must be finite and > 0, got -0.01"),
        ("student", "hidden", [4, 0], "bad student: hidden[1] must be an integer >= 1, got 0"),
        ("teacher", "hidden", [], "bad teacher: hidden must be a non-empty list, got []"),
    ], ids=["hidden-float", "hidden-str", "hidden-bool", "activation-int",
            "activation-unknown", "mapping-float", "expert-mapping-triple", "seeds-float",
            "seeds-negative", "experts-int", "experts-object", "teacher_plan-int",
            "batch_size-float", "normalize_by_width-str", "alpha-bool", "lr_phase2-str",
            "phase2_epochs-float", "test_fraction-str", "expert-alpha-str",
            "expert-cache-int", "alpha-nan", "alpha-inf", "jitter-nan", "temperature-inf",
            "lr_phase1-inf", "expert-alpha-inf", "expert-alpha-negative",
            "lr_phase1-negative", "hidden-zero", "hidden-empty"])
    def test_mistyped_value_exit_1(self, tmp_path, capsys, where, key, value, named):
        # refused as the config is read, by the dataclass that holds the
        # value: nothing is truncated or coerced, and the NaN and Infinity
        # that Python's json reads are refused
        cfg = base_config()
        cfg["plan"]["prior"] = {}
        cfg["experts"] = [{"cache": "a.fpfc", "mapping": [[0, 0]]}]
        sections = {**cfg, "config": cfg, "prior": cfg["plan"]["prior"],
                    "experts": cfg["experts"][0]}
        sections[where][key] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert run("train-teacher", "--config", path, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (out / "teacher.fpnn").exists()

    @pytest.mark.parametrize("build, named", [
        (lambda: experiment_config(test_fraction="0.5"),
         "test_fraction must be a number in (0, 1), got '0.5'"),
        (lambda: experiment_config(plan={"seed": 1}),
         "plan must be a TrainPlan, got {'seed': 1}"),
        (lambda: experiment_config(teacher_plan={"seed": 1}),
         "teacher_plan must be a TrainPlan or None, got {'seed': 1}"),
        (lambda: experiment_config(mapping=[[0, 0]]),
         "mapping must be a LayerGroupMapping, got [[0, 0]]"),
        (lambda: experiment_config(seeds=(1.5, 2)),
         "seeds[0] must be an integer >= 0, got 1.5"),
        (lambda: experiment_config(seeds=5), "seeds must be a list, got 5"),
        (lambda: ExperimentConfig(base_config()["dataset"], "x", ArchConfig((4,))),
         "teacher must be an ArchConfig, got 'x'"),
        (lambda: ExperimentConfig(base_config()["dataset"], ArchConfig((8,)), None),
         "student must be an ArchConfig, got None"),
        (lambda: experiment_config(experts=[5]),
         "experts must be a list of ExpertConfig, got [5]"),
        (lambda: experiment_config(experts=5),
         "experts must be a list of ExpertConfig, got 5"),
        (lambda: ExperimentConfig({**base_config()["dataset"], "sep": 2.0}, ArchConfig((8,)),
                                  ArchConfig((4,))),
         "dataset keys must be exactly ['kind', 'n_per_class', 'classes', 'dim', "
         "'separation', 'seed'], got ['kind', 'n_per_class', 'classes', 'dim', "
         "'separation', 'seed', 'sep']"),
        (lambda: ExperimentConfig({"kind": "moons"}, ArchConfig((8,)), ArchConfig((4,))),
         "dataset must be a dict of kind ['synth_blobs', 'synth_rings', 'idx', 'csv'], "
         "got {'kind': 'moons'}"),
        (lambda: ExpertConfig(7, LayerGroupMapping()), "cache must be a string, got 7"),
        (lambda: ExpertConfig("a.fpfc", LayerGroupMapping(), alpha="1"),
         "alpha must be a finite number > 0, got '1'"),
        (lambda: ExpertConfig("a.fpfc", LayerGroupMapping(), alpha=-1.0),
         "alpha must be a finite number > 0, got -1.0"),
        (lambda: ArchConfig((4,), activation=5),
         "activation must be one of ['relu', 'tanh', 'identity'], got 5"),
        (lambda: split_and_batch(synth_blobs(4, 2, 2, 1.0, seed=0), "0.5", 4, 1),
         "test_fraction must be a number in (0, 1), got '0.5'"),
        (lambda: split_and_batch(synth_blobs(4, 2, 2, 1.0, seed=0), 0.5, 4, -1),
         "seed must be an integer >= 0, got -1"),
        (lambda: split_and_batch(synth_blobs(4, 2, 2, 1.0, seed=0), 0.5, 4, 1.5),
         "seed must be an integer >= 0, got 1.5"),
    ], ids=["test_fraction-str", "plan-dict", "teacher_plan-dict", "mapping-list",
            "seeds-float", "seeds-int", "teacher-str", "student-none",
            "experts-int-list", "experts-int", "dataset-unknown-key", "dataset-unknown-kind",
            "expert-cache-int", "expert-alpha-str", "expert-alpha-negative", "activation-int",
            "split-test_fraction-str", "split-seed-negative", "split-seed-float"])
    def test_mistyped_python_value_is_config_error(self, build, named):
        # the dataclass that holds a value checks it, so a value built in
        # Python fails as the same value read from JSON does
        with pytest.raises(ConfigError) as excinfo:
            build()
        assert str(excinfo.value) == named

    def test_any_value_at_any_key_is_read_or_refused(self):
        # every key, nested ones too, holding a value of another type:
        # whatever parse_config and load_dataset do not take is a
        # FeatPriorError (exit 1), never a bare TypeError, KeyError or
        # ValueError
        cfg = base_config()
        cfg["plan"]["prior"] = {"alpha": 1.0}
        cfg["experts"] = [{"cache": "a.fpfc", "mapping": [[0, 0]], "alpha": 1.0}]

        def keys(d, at=()):
            for k, v in (enumerate(d) if isinstance(d, list) else d.items()):
                yield (*at, k)
                if isinstance(v, (dict, list)):
                    yield from keys(v, (*at, k))

        for at in list(keys(cfg)):
            for value in (5, -1, 1.5, "x", None, True, [], {}, [5], {"a": 1}, math.nan):
                bad = json.loads(json.dumps(cfg))
                holder = bad
                for k in at[:-1]:
                    holder = holder[k]
                holder[at[-1]] = value
                try:
                    parse_config(bad).load_dataset()
                except FeatPriorError:
                    pass

    def test_float_fields_take_json_integers(self):
        cfg = base_config()
        cfg["plan"].update(lr_phase1=1, prior={"alpha": 2, "temperature": 3})
        parsed = parse_config(cfg)
        assert parsed.plan.lr_phase1 == 1
        assert parsed.plan.prior == PriorConfig(alpha=2.0, temperature=3.0)

    def test_readme_config_is_the_reference_config(self):
        # the fenced JSON that follows the README's "A complete config"
        block = re.search(r"A complete config.*?```json\n(.*?)```", README.read_text(),
                          re.S).group(1)
        assert parse_config(json.loads(block)) == load_config(str(REFERENCE_CONFIG))

    @pytest.mark.parametrize("teacher_plan", [
        {"phase1_epochs": 0, "phase2_epochs": 20, "lr_phase2": 0.003, "batch_size": 64},
        {"phase1_epochs": 0, "phase2_epochs": 5},
    ], ids=["perfbench", "ci"])
    def test_generated_teacher_plans_parse(self, teacher_plan):
        # the teacher_plan shapes the benchmark workloads and the CI steps write
        cfg = base_config()
        cfg["teacher_plan"] = teacher_plan
        parsed = parse_config(cfg)
        assert parsed.teacher_plan == replace(parsed.plan, **teacher_plan, mode="naive")

    def test_unknown_dataset_key(self):
        cfg = base_config()
        cfg["dataset"]["sep"] = 2.0
        with pytest.raises(ConfigError, match="sep"):
            parse_config(cfg)

    def test_teacher_plan_inherits_plan_fields(self):
        cfg = parse_config(base_config())
        assert cfg.teacher_plan.batch_size == cfg.plan.batch_size
        assert cfg.teacher_plan.phase2_epochs == 25
        assert cfg.teacher_plan.mode == "naive"

    def test_mapping_out_of_range_rejected_before_compute(self):
        # an expert's group ids are its own teacher's, so only the top-level
        # mapping's are checked against the config's teacher
        for mappings, named in (
                ({"mapping": [[3, 0]]}, "mapping student layer 3 outside 0..0"),
                ({"mapping": [[0, 2]]}, "mapping group 2 outside teacher layers 0..1"),
                ({"mapping": [], "experts": [{"cache": "a.fpfc", "mapping": [[0, 5]]},
                                             {"cache": "b.fpfc", "mapping": [[1, 0]]}]},
                 "experts[1] mapping student layer 1 outside 0..0")):
            parsed = parse_config({**base_config(), **mappings})
            with pytest.raises(ConfigError) as excinfo:
                parsed.validate_cross_refs(parsed.load_dataset())
            assert str(excinfo.value) == named

    @pytest.mark.parametrize("dataset, named", [
        (lambda: Dataset(np.zeros((20, 2)), np.zeros(20), class_count=1),
         "dataset must have at least 2 classes"),
        (lambda: synth_blobs(5, 2, 2, 8.0, seed=5), "batch size exceeds dataset size"),
    ], ids=["one-class", "batch-over-rows"])
    def test_dataset_rejected_before_compute(self, dataset, named):
        # base_config()'s plan takes batches of 16
        parsed = parse_config(base_config())
        with pytest.raises(ConfigError) as excinfo:
            parsed.validate_cross_refs(dataset())
        assert str(excinfo.value) == named

    @pytest.mark.parametrize("where", ["mapping", "expert"])
    def test_repeated_mapping_pair_exit_1(self, tmp_path, capsys, where):
        # one term per pair: a repeated pair would double that term's weight
        cfg = base_config()
        cfg["mapping"] = [[0, 1], [0, 0], [0, 1]]
        if where == "expert":
            cfg["mapping"] = [[0, 0]]
            cfg["experts"] = [{"cache": str(tmp_path / "features.fpfc"),
                               "mapping": [[0, 1], [0, 1]]}]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=r"mapping pair \[0, 1\] is repeated"):
            load_config(path)
        assert run("distill", "--config", path, "--out", str(tmp_path / "o")) == 1
        assert "mapping pair [0, 1] is repeated" in capsys.readouterr().err

    def test_pair_repeated_across_experts_is_legal(self):
        # two experts are two priors, each with its own term on the pair
        cfg = base_config()
        cfg["experts"] = [{"cache": "a.fpfc", "mapping": [[0, 1]]},
                          {"cache": "b.fpfc", "mapping": [[0, 1]], "alpha": 0.5}]
        parsed = parse_config(cfg)
        assert [e.mapping.entries for e in parsed.experts] == [((0, 1),), ((0, 1),)]
        parsed.validate_cross_refs(parsed.load_dataset())

    @pytest.mark.parametrize("command", ["train-teacher", "compare"])
    @pytest.mark.parametrize("key, value", [
        ("seed", 2), ("mode", "joint"), ("prior", {"alpha": 2.0}), ("lr_phase1", 0.5),
    ], ids=["seed", "mode", "prior", "lr_phase1"])
    def test_teacher_plan_key_no_teacher_fit_reads_exit_1(self, tmp_path, monkeypatch,
                                                          capsys, command, key, value):
        # a teacher trains in naive mode on plan.seed, the student's split,
        # and never reads lr_phase1 or prior: setting one is refused before
        # anything is written
        cfg = base_config()
        cfg["teacher_plan"][key] = value
        path = write_config(tmp_path, cfg)
        monkeypatch.chdir(tmp_path)
        assert run(command, "--config", path, "--out", "run") == 1
        assert capsys.readouterr().err == f"error: unknown keys ['{key}'] in teacher_plan\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_python_teacher_plan_trains_on_plan_seed_in_naive_mode(self):
        # the teacher's split seed has one source from Python too
        cfg = experiment_config(plan=TrainPlan(seed=3),
                                teacher_plan=TrainPlan(seed=9, lr_phase2=0.003))
        assert cfg.teacher_plan == TrainPlan(seed=3, lr_phase2=0.003, mode="naive")

    @pytest.mark.parametrize("field, value", [
        ("lr_phase1", 0.5), ("prior", PriorConfig(alpha=3.0)),
    ], ids=["lr_phase1", "prior"])
    def test_python_teacher_plan_field_no_teacher_fit_reads_rejected(self, field, value):
        # refused from Python as from JSON, where the key is unknown
        with pytest.raises(ConfigError) as excinfo:
            experiment_config(teacher_plan=TrainPlan(**{field: value}))
        assert str(excinfo.value) == (
            f"teacher_plan.{field} must be plan's {getattr(TrainPlan(), field)!r} "
            f"(no teacher fit reads it), got {value!r}")

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("not json")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == (
            "config is not valid JSON: Expecting value: line 1 column 1 (char 0)")


class TestTrainTeacherCommand:
    def test_writes_model_and_metrics(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run("train-teacher", "--config", cfg, "--out", str(out)) == 0
        assert (out / "teacher.fpnn").is_file()
        text = (out / "teacher_metrics.csv").read_text()
        assert text.startswith("metric,value")
        accuracy = float(text.split("\n")[1].split(",")[1])
        assert accuracy >= 0.99

    def test_missing_dataset_path_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["dataset"] = {"kind": "idx", "images": str(tmp_path / "nope-images"),
                          "labels": str(tmp_path / "nope-labels")}
        path = write_config(tmp_path, cfg)
        assert run("train-teacher", "--config", path, "--out",
                   str(tmp_path / "o")) == 1
        assert "nope-images" in capsys.readouterr().err

    @pytest.mark.parametrize("dataset,named", [
        ({"classes": 3.0}, "classes must be an integer >= 1, got 3.0"),
        ({"classes": "3"}, "classes must be an integer >= 1, got '3'"),
        ({"classes": -1}, "classes must be an integer >= 1, got -1"),
        ({"classes": True}, "classes must be an integer >= 1, got True"),
        ({"dim": 0}, "dim must be an integer >= 1, got 0"),
        ({"n_per_class": 0}, "n_per_class must be an integer >= 1, got 0"),
        ({"seed": -3}, "seed must be an integer >= 0, got -3"),
        ({"separation": "8"}, "separation must be a finite number > 0, got '8'"),
        ({"separation": math.nan}, "separation must be a finite number > 0, got nan"),
        ({"separation": 0.0}, "separation must be a finite number > 0, got 0.0"),
        ({"kind": "synth_rings", "n_per_class": 40, "classes": 2, "noise": math.inf,
          "seed": 5}, "noise must be a finite number >= 0, got inf"),
        ({"kind": "synth_rings", "n_per_class": 40, "classes": 2, "noise": None,
          "seed": 5}, "noise must be a finite number >= 0, got None"),
        ({"kind": "csv", "path": 7, "label_column": "y"},
         "path must be a str or os.PathLike, got 7"),
        ({"kind": "csv", "path": "d.csv", "label_column": 0},
         "label_column must be a string, got 0"),
        ({"kind": "idx", "images": "i.idx", "labels": ["l.idx"]},
         "labels must be a str or os.PathLike, got ['l.idx']"),
    ], ids=["classes-float", "classes-str", "classes-negative", "classes-bool",
            "dim-0", "n_per_class-0", "seed-negative", "separation-str",
            "separation-nan", "separation-0", "noise-inf", "noise-null", "csv-path",
            "csv-label_column", "idx-labels"])
    def test_bad_dataset_argument_exit_1(self, tmp_path, capsys, dataset, named):
        # the loader refuses it before it makes any data or opens a file, the
        # same way for a command, for ExperimentConfig.load_dataset and when
        # called directly
        dataset = dataset if "kind" in dataset else {**base_config()["dataset"], **dataset}
        path = write_config(tmp_path, {**base_config(), "dataset": dataset})
        out = tmp_path / "o"
        assert run("train-teacher", "--config", path, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: bad dataset: {named}\n"
        assert not (out / "teacher.fpnn").exists()
        cfg = ExperimentConfig(dataset, ArchConfig((8,)), ArchConfig((4,)))
        with pytest.raises(ConfigError) as excinfo:
            cfg.load_dataset()
        assert str(excinfo.value) == f"bad dataset: {named}"
        loader = {"synth_blobs": synth_blobs, "synth_rings": synth_rings,
                  "idx": load_idx, "csv": load_csv}[dataset["kind"]]
        with pytest.raises(ConfigError) as excinfo:
            loader(**{k: v for k, v in dataset.items() if k != "kind"})
        assert str(excinfo.value) == named

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        run("train-teacher", "--config", cfg, "--out", str(out))
        first = ((out / "teacher.fpnn").read_bytes(),
                 (out / "teacher_metrics.csv").read_bytes())
        run("train-teacher", "--config", cfg, "--out", str(out))
        second = ((out / "teacher.fpnn").read_bytes(),
                  (out / "teacher_metrics.csv").read_bytes())
        assert first == second


class TestExtractAndDistill:
    def pipeline(self, tmp_path, cfg=None):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert run("train-teacher", "--config", path, "--out", str(out)) == 0
        assert run("extract-features", "--config", path, "--out", str(out)) == 0
        return path, out

    def test_extract_without_teacher_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("extract-features", "--config", cfg, "--out",
                   str(tmp_path / "empty")) == 1
        assert "teacher model" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named", [
        ("hidden", [8, 8], "[8, 8] relu"),
        ("activation", "tanh", "[8] tanh"),
    ], ids=["hidden", "activation"])
    def test_extract_other_teacher_architecture_exit_1(self, tmp_path, capsys,
                                                       key, value, named):
        # a [8, 8] teacher read under an [8] config would have its second
        # hidden layer written as the logits group
        other = base_config()
        other["teacher"][key] = value
        trained = tmp_path / "other"
        assert run("train-teacher", "--config", write_config(tmp_path, other, "other.json"),
                   "--out", str(trained)) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run("extract-features", "--config", write_config(tmp_path), "--out",
                   str(out), "--teacher", str(trained / "teacher.fpnn")) == 1
        err = capsys.readouterr().err
        assert f"is 2 -> {named} -> 2, but the config's teacher is 2 -> [8] relu -> 2" in err
        assert not (out / "features.fpfc").exists()

    def test_extract_writes_the_serialized_cache(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        cfg = load_config(path)
        dataset = cfg.load_dataset()
        teacher = load_model(out / "teacher.fpnn")
        cache = extract_features(teacher, dataset, [0, 1])
        assert (out / "features.fpfc").read_bytes() == serialize_cache(cache)
        assert sorted(p.name for p in out.iterdir()) == [
            "features.fpfc", "teacher.fpnn", "teacher_metrics.csv"]

    def test_failed_extract_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        path, out = self.pipeline(tmp_path)
        (out / "features.fpfc").unlink()

        def failing_write(target, cache):
            Path(target).write_bytes(b"FPFC")
            raise OSError("disk full")

        monkeypatch.setattr("featprior.cli.write_cache", failing_write)
        assert run("extract-features", "--config", path, "--out", str(out)) == 1
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["teacher.fpnn", "teacher_metrics.csv"]

    def test_distill_two_phase_outputs(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        assert run("distill", "--config", path, "--out", str(out)) == 0
        assert (out / "student.fpnn").is_file()
        lines = (out / "run_log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,phase,task_loss,kl_loss,test_accuracy"
        phase1 = [l for l in lines[1:] if l.split(",")[1] == "1"]
        assert phase1 and all(l.split(",")[2] == "" for l in phase1)

    def test_distill_naive_has_no_phase1(self, tmp_path):
        cfg = base_config()
        cfg["plan"]["mode"] = "naive"
        path, out = self.pipeline(tmp_path, cfg)
        run("distill", "--config", path, "--out", str(out))
        lines = (out / "run_log.csv").read_text().strip().split("\n")[1:]
        assert all(l.split(",")[1] == "2" for l in lines)

    def test_phase1_kl_medians_non_increasing(self, tmp_path):
        cfg = base_config()
        cfg["plan"]["phase1_epochs"] = 30
        path, out = self.pipeline(tmp_path, cfg)
        run("distill", "--config", path, "--out", str(out))
        lines = (out / "run_log.csv").read_text().strip().split("\n")[1:]
        kls = [float(l.split(",")[3]) for l in lines if l.split(",")[1] == "1"]
        medians = [float(np.median(kls[i:i + 10])) for i in range(0, 30, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(medians, medians[1:]))

    def test_distill_log_scores_every_epoch(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        run("distill", "--config", path, "--out", str(out))
        rows = (out / "run_log.csv").read_text().strip().split("\n")[1:]
        plan = base_config()["plan"]
        assert len(rows) == plan["phase1_epochs"] + plan["phase2_epochs"]
        assert all(0.0 <= float(r.split(",")[4]) <= 1.0 for r in rows)

    def test_distill_rerun_byte_identical(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        run("distill", "--config", path, "--out", str(out))
        first = ((out / "student.fpnn").read_bytes(),
                 (out / "run_log.csv").read_bytes())
        run("distill", "--config", path, "--out", str(out))
        assert first == ((out / "student.fpnn").read_bytes(),
                         (out / "run_log.csv").read_bytes())

    def test_evaluate_writes_metrics(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        run("distill", "--config", path, "--out", str(out))
        assert run("evaluate", "--config", path, "--out", str(out)) == 0
        text = (out / "metrics.csv").read_text()
        assert text.startswith("metric,value")
        assert len(text.strip().split("\n")) == 7

    def test_evaluate_explicit_model(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        assert run("evaluate", "--config", path, "--out", str(out),
                   "--model", str(out / "teacher.fpnn")) == 0
        accuracy = float((out / "metrics.csv")
                         .read_text().strip().split("\n")[1].split(",")[1])
        assert accuracy >= 0.99

    @pytest.mark.parametrize("blob,named", [
        # a 3-class model scored on the config's 2-class blobs
        (serialize_model(init_params(NetworkSpec.dense(2, [4], 3), 0)),
         "3 classes, dataset has 2"),
        # version 1, one 2 x 2 identity layer: a head with no hidden layer
        (struct.pack("<4sIIIIB", b"FPNN", 1, 1, 2, 2, 2) + bytes(4 * 6),
         "1-layer model file"),
        # a 2 -> 4 relu hidden layer under a head that takes 5 inputs
        (struct.pack("<4sIIIIB", b"FPNN", 1, 2, 2, 4, 0) + bytes(4 * 12)
         + struct.pack("<IIB", 5, 2, 2) + bytes(4 * 12),
         "layer widths do not chain: 4 -> 5"),
    ], ids=["class-count", "one-layer", "head-chain"])
    def test_evaluate_unusable_model_exit_1(self, tmp_path, capsys, blob, named):
        path = write_config(tmp_path)
        model, out = tmp_path / "model.fpnn", tmp_path / "run"
        model.write_bytes(blob)
        assert run("evaluate", "--config", path, "--out", str(out),
                   "--model", str(model)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (out / "metrics.csv").exists()

    def test_non_finite_cache_exit_1(self, tmp_path, capsys):
        # a NaN column in the mapped group is refused as the cache is read,
        # not found in phase 1 as a numerical failure
        path, out = self.pipeline(tmp_path)
        cache = read_cache(out / "features.fpfc")
        cache.groups[0][:, 1] = np.nan
        write_cache(out / "features.fpfc", cache)
        assert run("distill", "--config", path, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "group 0 holds NaN or infinity" in err
        assert not (out / "student.fpnn").exists()

    def test_distill_with_expert_caches(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        cfg = base_config()
        cfg["mapping"] = []  # each expert brings its own
        cfg["experts"] = [
            {"cache": str(out / "features.fpfc"), "mapping": [[0, 0]],
             "alpha": 1.0},
            {"cache": str(out / "features.fpfc"), "mapping": [[0, 1]],
             "alpha": 0.5},
        ]
        expert_cfg = write_config(tmp_path, cfg, name="experts.json")
        assert run("distill", "--config", expert_cfg, "--out", str(out)) == 0
        lines = (out / "run_log.csv").read_text().strip().split("\n")[1:]
        phases = [l.split(",")[1] for l in lines]
        assert "1" in phases and "2" in phases

    @pytest.mark.parametrize("mode", ["two_phase", "joint", "hinton_baseline",
                                      "l2_baseline", "experts"])
    def test_distill_holds_only_the_groups_it_reads(self, tmp_path, monkeypatch, mode):
        # an [8, 8] teacher writes groups 0 and 1 and its logits as group 2; a
        # distill keeps the groups its mode and mapping read, and writes the
        # bytes of a distill that keeps every group
        cfg = base_config()
        cfg["teacher"]["hidden"] = [8, 8]
        cfg["mapping"] = [[0, 1]]
        cfg["plan"]["mode"] = "two_phase" if mode == "experts" else mode
        path, out = self.pipeline(tmp_path, cfg)
        features = ["--features", str(out / "features.fpfc")]
        if mode == "experts":
            # an expert distill reads each expert's cache and mapping only
            cfg["mapping"], features = [], []
            cfg["experts"] = [
                {"cache": str(out / "features.fpfc"), "mapping": [[0, 1]]},
                {"cache": str(out / "features.fpfc"), "mapping": [[0, 0]], "alpha": 0.5}]
            path = write_config(tmp_path, cfg, name="experts.json")
        held = []

        def recorded(*args, **kwargs):
            cache = read_cache(*args, **kwargs)
            held.append(set(cache.groups))
            return cache

        def distill(to):
            assert run("distill", "--config", path, "--out", str(to), *features) == 0
            return [(to / f).read_bytes() for f in ("student.fpnn", "run_log.csv")]

        monkeypatch.setattr("featprior.cli.read_cache", recorded)
        kept = distill(tmp_path / "kept")
        assert held == {"two_phase": [{1}], "joint": [{1}], "hinton_baseline": [{2}],
                        "l2_baseline": [{2}], "experts": [{1}, {0}]}[mode]
        monkeypatch.setattr("featprior.cli.read_cache", lambda path, *, groups: read_cache(path))
        assert kept == distill(tmp_path / "full")

    @pytest.mark.parametrize("mapping, features", [
        ([[0, 0]], False), ([], True), ([[0, 0]], True)],
        ids=["mapping", "features", "both"])
    def test_distill_experts_with_features_or_mapping_exit_1(self, tmp_path, capsys,
                                                             mapping, features):
        # an expert distill would ignore --features and the top-level
        # mapping, so it refuses them rather than train without them
        _, out = self.pipeline(tmp_path)
        cfg = base_config()
        cfg["mapping"] = mapping
        cfg["experts"] = [{"cache": str(out / "features.fpfc"), "mapping": [[0, 0]]}]
        path = write_config(tmp_path, cfg, name="experts.json")
        extra = ["--features", str(out / "features.fpfc")] if features else []
        capsys.readouterr()
        assert run("distill", "--config", path, "--out", str(out), *extra) == 1
        assert capsys.readouterr().err == (
            "error: distill with experts reads each expert's cache and mapping, so it "
            "takes neither --features nor a top-level mapping; drop them\n")
        assert not (out / "student.fpnn").exists()

    @pytest.mark.parametrize("mode, group", [
        ("two_phase", 0), ("joint", 0), ("experts", 5), ("hinton_baseline", 1),
        ("l2_baseline", 1)])
    def test_distill_group_missing_from_cache_exit_1(self, tmp_path, capsys, mode, group):
        # the cache lacks the group the run reads: two_phase and joint map
        # group 0 and the baselines read the logits, group 1, of a cache
        # holding the other group only; the expert maps group 5 of an intact one
        path, out = self.pipeline(tmp_path)
        cache = read_cache(out / "features.fpfc")
        cfg = base_config()
        cfg["plan"]["mode"] = "two_phase" if mode == "experts" else mode
        if mode == "experts":
            cfg["mapping"] = []
            cfg["experts"] = [{"cache": str(out / "features.fpfc"), "mapping": [[0, 5]]}]
        else:
            write_cache(out / "features.fpfc", replace(cache, groups={
                1 - group: cache.groups[1 - group]}))
        path = write_config(tmp_path, cfg, name="missing.json")
        capsys.readouterr()
        assert run("distill", "--config", path, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: feature group {group} not present in cache\n")
        assert not (out / "student.fpnn").exists()

    @pytest.mark.parametrize("mode", ["two_phase", "hinton_baseline"])
    @pytest.mark.parametrize("cached, group, width", [
        ("deeper", 2, 2), ("narrower", 0, 6), ("logits", 1, 3)])
    def test_distill_cache_of_another_teacher_exit_1(self, tmp_path, capsys, mode,
                                                     cached, group, width):
        # the config's teacher is [8] with 2 classes, so its groups are
        # {0: 8, 1: 2}; the cache comes from a [8, 2] teacher (an extra
        # group 2), a [6] teacher (group 0 is 6 wide), or is a hand-made
        # copy whose logits group is 3 wide.  two_phase reads group 0 and
        # hinton_baseline group 1, so some refused groups are not kept
        cfg = base_config()
        cfg["teacher"]["hidden"] = {"deeper": [8, 2], "narrower": [6], "logits": [8]}[cached]
        _, out = self.pipeline(tmp_path, cfg)
        features = out / "features.fpfc"
        if cached == "logits":
            cache = read_cache(features)
            write_cache(features, replace(cache, groups={
                0: cache.groups[0], 1: np.zeros((cache.n, 3), dtype=np.float32)}))
        cfg = base_config()
        cfg["plan"]["mode"] = mode
        path = write_config(tmp_path, cfg, name="student.json")
        capsys.readouterr()
        assert run("distill", "--config", path, "--out", str(out),
                   "--features", str(features)) == 1
        assert capsys.readouterr().err == (
            f"error: feature cache {features} holds group {group} of width {width}, "
            "which the config's teacher lacks: its groups are {0: 8, 1: 2} "
            "(the last is its logits)\n")
        assert not (out / "student.fpnn").exists()

    @pytest.mark.parametrize("mode", ["naive", "joint", "hinton_baseline"])
    def test_distill_experts_other_mode_exit_1(self, tmp_path, capsys, mode):
        # expert priors are a two-phase fit; another mode is refused, not
        # trained two-phase under that mode's name
        _, out = self.pipeline(tmp_path)
        cfg = base_config()
        cfg["plan"]["mode"] = mode
        cfg["mapping"] = []
        cfg["experts"] = [{"cache": str(out / "features.fpfc"), "mapping": [[0, 0]]}]
        expert_cfg = write_config(tmp_path, cfg, name="experts.json")
        assert run("distill", "--config", expert_cfg, "--out", str(out)) == 1
        assert f"need two_phase mode, not {mode}" in capsys.readouterr().err
        assert not (out / "student.fpnn").exists()
        assert not (out / "run_log.csv").exists()

    def test_distill_naive_with_features_exit_1(self, tmp_path, capsys):
        # naive mode reads no cache; a --features it would ignore is refused,
        # while the top-level mapping compare shares across modes stays legal
        out = tmp_path / "naive"
        cfg = base_config()
        cfg["plan"]["mode"] = "naive"
        naive_cfg = write_config(tmp_path, cfg, name="naive.json")
        assert run("distill", "--config", naive_cfg, "--out", str(out),
                   "--features", str(tmp_path / "missing.fpfc")) == 1
        assert "takes no --features" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert run("distill", "--config", naive_cfg, "--out", str(out)) == 0

    def test_stale_cache_rejected(self, tmp_path, capsys):
        path, out = self.pipeline(tmp_path)
        cfg = base_config()
        cfg["dataset"]["seed"] = 6  # different data, same cache
        other = write_config(tmp_path, cfg, name="other.json")
        assert run("distill", "--config", other, "--out", str(out)) == 1
        assert "different dataset" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_joint_loss_overflow_exit_2(self, tmp_path, capsys):
        # alpha * KL overflows to inf: the loss check stops the fit
        cfg = base_config()
        cfg["plan"].update(mode="joint", prior={"alpha": 1e308})
        path, out = self.pipeline(tmp_path, cfg)
        capsys.readouterr()
        assert run("distill", "--config", path, "--out", str(out)) == 2
        assert capsys.readouterr().err == "numerical failure: loss became inf at epoch 0\n"
        assert not (out / "student.fpnn").exists()
        assert not (out / "run_log.csv").exists()

    def test_hinton_temperature_square_overflow_exit_1(self, tmp_path, capsys):
        # its term weight alpha * temperature ** 2 would overflow a float
        cfg = base_config()
        cfg["plan"]["mode"] = "hinton_baseline"
        _, out = self.pipeline(tmp_path, cfg)
        cfg["plan"]["prior"] = {"temperature": 1e200}
        path = write_config(tmp_path, cfg, name="hot.json")
        capsys.readouterr()
        assert run("distill", "--config", path, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: bad prior: temperature ** 2 must be a finite float > 0, "
            "got 1e+200 ** 2 = inf\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "features.fpfc", "teacher.fpnn", "teacher_metrics.csv"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["plan"].update({"mode": "naive", "optimizer": "sgd",
                            "lr_phase2": 1e18, "phase1_epochs": 0,
                            "phase2_epochs": 5})
        path, out = self.pipeline(tmp_path, cfg)
        assert run("distill", "--config", path, "--out", str(out)) == 2
        assert "numerical" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_outputs(self, tmp_path):
        path = write_config(tmp_path, separated_config())
        out = tmp_path / "cmp"
        assert run("compare", "--config", path, "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "method,metric,mean,std_error,n_seeds"
        assert len(lines) == 1 + 5 * 6
        assert (out / "summary.txt").read_text().startswith("seeds: 1, 2")
        assert len(set(row_scores(out))) == 5

    def test_single_seed_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["seeds"] = [1]
        path = write_config(tmp_path, cfg)
        assert run("compare", "--config", path, "--out", str(tmp_path / "c")) == 1
        assert "seed" in capsys.readouterr().err

    def test_compare_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, separated_config())
        out = tmp_path / "cmp"
        files = ("comparison.csv", "summary.txt")
        assert run("compare", "--config", path, "--out", str(out)) == 0
        first = [(out / name).read_bytes() for name in files]
        assert len(set(row_scores(out))) == 5
        assert run("compare", "--config", path, "--out", str(out)) == 0
        assert [(out / name).read_bytes() for name in files] == first

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert run("compare", "--config", path, "--out", str(out),
                   "--jobs", jobs) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_experts_rejected(self, tmp_path, capsys):
        cfg = base_config()
        cfg["experts"] = [{"cache": str(tmp_path / "features.fpfc"),
                           "mapping": [[0, 0]], "alpha": 1.0}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "cmp"
        assert run("compare", "--config", path, "--out", str(out)) == 1
        assert "compare does not read experts" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_jobs_2_accepted_without_effect(self, tmp_path):
        # compare trains every seed in one process, so --jobs 2 changes
        # nothing in either file
        path = write_config(tmp_path, separated_config())
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run("compare", "--config", path, "--out", str(serial)) == 0
        assert run("compare", "--config", path, "--out", str(parallel),
                   "--jobs", "2") == 0
        assert len(set(row_scores(serial))) == 5
        for name in ("comparison.csv", "summary.txt"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_rows_do_not_depend_on_the_plan_mode(self, tmp_path):
        # the table's rows come from compare, each mode on the config's plan;
        # on these overlapping blobs every row scores differently, so rows
        # that followed the plan's mode would change the table
        outs = []
        for mode in ("naive", "two_phase"):
            outs.append(tmp_path / mode)
            assert run("compare", "--config",
                       write_config(tmp_path, separated_config(mode), f"{mode}.json"),
                       "--out", str(outs[-1])) == 0
        for name in ("comparison.csv", "summary.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert len(set(row_scores(outs[0]))) == 5


class TestCrossProcessDeterminism:
    def test_fresh_interpreters_agree(self, tmp_path):
        import subprocess
        import sys

        cfg = write_config(tmp_path)
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "featprior.cli", "train-teacher",
                 "--config", cfg, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append(((out / "teacher.fpnn").read_bytes(),
                          (out / "teacher_metrics.csv").read_bytes()))
        assert blobs[0] == blobs[1]
