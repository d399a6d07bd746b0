"""CLI tests: subcommand outputs, exit codes, config validation and
byte-level determinism of rerun outputs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from featprior.cli import main
from featprior.config import load_config, parse_config
from featprior.errors import ConfigError
from featprior.gp_prior import PriorConfig

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


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


def write_config(tmp_path, cfg=None, name="config.json"):
    cfg = cfg if cfg is not None else base_config()
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        cfg = base_config()
        cfg["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
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

    @pytest.mark.parametrize("distance", ["gp_kl", "hinton", "l2"])
    def test_prior_distance_key_accepted_and_dropped(self, distance):
        cfg = base_config()
        cfg["plan"]["prior"] = {"jitter": 1e-3, "distance": distance}
        parsed = parse_config(cfg)
        assert parsed.plan.prior == PriorConfig(jitter=1e-3)
        assert not hasattr(parsed.plan.prior, "distance")

    def test_reference_config_loads(self):
        # its prior block still carries "distance": "gp_kl"
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
        cfg = base_config()
        cfg["mapping"] = [[3, 0]]
        parsed = parse_config(cfg)
        with pytest.raises(ConfigError, match="mapping"):
            parsed.validate_cross_refs(parsed.load_dataset())

    def test_teacher_seed_differing_from_plan_seed_exit_1(self, tmp_path, capsys):
        # train-teacher splits on the teacher seed and distill on the plan
        # seed; differing seeds would leak student test rows into the teacher
        cfg = base_config()
        cfg["teacher_plan"]["seed"] = 2
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert run("train-teacher", "--config", path, "--out", str(out)) == 1
        assert "seed" in capsys.readouterr().err
        assert not (out / "teacher.fpnn").exists()

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")


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

    def test_distill_with_expert_caches(self, tmp_path):
        path, out = self.pipeline(tmp_path)
        cfg = base_config()
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

    def test_stale_cache_rejected(self, tmp_path, capsys):
        path, out = self.pipeline(tmp_path)
        cfg = base_config()
        cfg["dataset"]["seed"] = 6  # different data, same cache
        other = write_config(tmp_path, cfg, name="other.json")
        assert run("distill", "--config", other, "--out", str(out)) == 1
        assert "different dataset" in capsys.readouterr().err

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
        path = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert run("compare", "--config", path, "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "method,metric,mean,std_error,n_seeds"
        assert len(lines) == 1 + 5 * 6
        assert (out / "summary.txt").read_text().startswith("seeds: 1, 2")

    def test_single_seed_exit_1(self, tmp_path, capsys):
        cfg = base_config()
        cfg["seeds"] = [1]
        path = write_config(tmp_path, cfg)
        assert run("compare", "--config", path, "--out", str(tmp_path / "c")) == 1
        assert "seed" in capsys.readouterr().err

    def test_compare_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "cmp"
        run("compare", "--config", path, "--out", str(out))
        first = (out / "comparison.csv").read_bytes()
        run("compare", "--config", path, "--out", str(out))
        assert (out / "comparison.csv").read_bytes() == first

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert run("compare", "--config", path, "--out", str(out),
                   "--jobs", jobs) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_seed_override_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert run("compare", "--config", path, "--out", str(out),
                   "--seed-override", "7") == 1
        err = capsys.readouterr().err
        assert "--seed-override" in err and "seeds" in err
        assert not (out / "comparison.csv").exists()

    def test_parallel_jobs_same_table(self, tmp_path):
        path = write_config(tmp_path)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run("compare", "--config", path, "--out", str(serial)) == 0
        assert run("compare", "--config", path, "--out", str(parallel),
                   "--jobs", "2") == 0
        assert (serial / "comparison.csv").read_bytes() == \
            (parallel / "comparison.csv").read_bytes()


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


class TestSeedOverride:
    def test_override_changes_model(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out3 = tmp_path / "c"
        run("train-teacher", "--config", cfg, "--out", str(out1))
        run("train-teacher", "--config", cfg, "--out", str(out2),
            "--seed-override", "99")
        run("train-teacher", "--config", cfg, "--out", str(out3),
            "--seed-override", "99")
        a = (out1 / "teacher.fpnn").read_bytes()
        b = (out2 / "teacher.fpnn").read_bytes()
        c = (out3 / "teacher.fpnn").read_bytes()
        assert a != b
        assert b == c

    def test_bad_subcommand_exit_1(self, capsys):
        assert run("frobnicate", "--config", "x.json") == 1
