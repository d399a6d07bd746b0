"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a PASS line with the measured numbers (run pytest with
``-s`` to see them).  The quantitative distillation criteria run on the
reference benchmark: concentric rings, 3 classes, 600 train / 600 test
examples, a 2x64 dense teacher, and 5 seeds.  Every student mode gets the
same task-epoch budget; the label-free feature fit is extra work the
two-phase mode does on top.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from featprior.autodiff import backward, softmax_cross_entropy
from featprior.cli import main as cli_main
from featprior.data import Dataset, split_and_batch, synth_blobs, synth_rings
from featprior.errors import DimensionMismatch
from featprior.gp_prior import (
    PriorConfig,
    gp_kl,
    gp_kl_grad,
    gram_kernel,
    hinton_soft_target,
    kernel_from_gram,
    prior_log_density,
)
from featprior.network import NetworkSpec, forward, grad_check, init_params
from featprior.train import (
    ExpertPrior,
    ExpertPriorSet,
    LayerGroupMapping,
    MetricsReport,
    TrainPlan,
    combine_experts_fit,
    evaluate,
    extract_features,
    format_topk_table,
    phase1_feature_fit,
    phase2_task_fit,
    run_distillation,
    train_teacher,
)

from oracles import central_diff_gradient, gaussian_kl_eig, relative_error

REFERENCE_SEEDS = (1, 2, 3, 4, 5)
TEACHER_SPEC = NetworkSpec.dense(2, [64, 64], 3)


def report(criterion: str, detail: str) -> None:
    print(f"{criterion} PASS: {detail}")


def reference_dataset() -> Dataset:
    return synth_rings(400, 3, noise=0.15, seed=100)


def teacher_plan(seed: int) -> TrainPlan:
    return TrainPlan(seed=seed, batch_size=16, phase1_epochs=0,
                     phase2_epochs=40, lr_phase2=3e-3, mode="naive")


@pytest.fixture(scope="module")
def reference_runs():
    """Per-seed split, trained teacher and feature cache, shared by the
    quantitative criteria."""
    ds = reference_dataset()
    runs = {}
    for seed in REFERENCE_SEEDS:
        split = split_and_batch(ds, 0.5, 16, seed)
        teacher, teacher_report = train_teacher(ds, TEACHER_SPEC,
                                                teacher_plan(seed), split=split)
        cache = extract_features(teacher, ds, [0, 1, 2])
        runs[seed] = (split, teacher, teacher_report, cache)
    return ds, runs


def test_a1_gp_kl_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)

    def random_kernel(n):
        m = rng.standard_normal((n, n))
        return kernel_from_gram(m @ m.T + np.eye(n))

    worst_oracle_gap = 0.0
    min_kl = np.inf
    for _ in range(200):
        n = int(rng.integers(2, 17))
        k1, k2 = random_kernel(n), random_kernel(n)
        kl = gp_kl(k1, k2)
        min_kl = min(min_kl, kl)
        assert kl >= -1e-8
        oracle = gaussian_kl_eig(np.zeros(n), k1.gram, np.zeros(n), k2.gram)
        worst_oracle_gap = max(worst_oracle_gap, abs(kl - oracle))
        assert kl == pytest.approx(oracle, abs=1e-8)

    for _ in range(20):
        k = random_kernel(int(rng.integers(2, 17)))
        assert abs(gp_kl(k, k)) <= 1e-10

    forward_kl = gp_kl(kernel_from_gram(2 * np.eye(2)), kernel_from_gram(np.eye(2)))
    reverse_kl = gp_kl(kernel_from_gram(np.eye(2)), kernel_from_gram(2 * np.eye(2)))
    assert abs(forward_kl - reverse_kl) > 0.1

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("A1", f"200 pairs: min KL {min_kl:.2e} >= -1e-8, oracle gap "
                 f"{worst_oracle_gap:.2e} <= 1e-8, asymmetry witness "
                 f"{forward_kl:.6f} vs {reverse_kl:.6f}, {elapsed:.1f}s < 10s")


def test_a2_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_kl = 0.0
    worst_net = 0.0

    # 25 analytic KL feature gradients vs central differences
    for _ in range(25):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 5))
        cfg = PriorConfig(jitter=1e-3,
                          normalize_by_width=bool(rng.integers(0, 2)))
        phi = rng.standard_normal((n, p))
        k2 = gram_kernel(rng.standard_normal((n, int(rng.integers(1, 8)))), cfg)
        grad = gp_kl_grad(phi, gram_kernel(phi, cfg), k2, cfg)

        def f(flat, n=n, p=p, cfg=cfg, k2=k2):
            return gp_kl(gram_kernel(flat.reshape(n, p), cfg), k2)

        fd = central_diff_gradient(f, phi.ravel()).reshape(n, p)
        worst_kl = max(worst_kl, relative_error(grad, fd))
        assert relative_error(grad, fd) < 1e-4

    # 20 full-network gradients (mixed activations and depths)
    for i in range(20):
        batch = int(rng.integers(2, 5))
        widths = [int(w) for w in rng.integers(2, 9, size=rng.integers(1, 3))]
        classes = int(rng.integers(2, 4))
        activation = ("relu", "tanh")[i % 2]
        spec = NetworkSpec.dense(3, widths, classes, activation)
        model = init_params(spec, seed=int(rng.integers(0, 2 ** 31)))
        x = rng.standard_normal((batch, 3))
        labels = rng.integers(0, classes, size=batch)

        def loss(m, x=x, labels=labels):
            record = forward(m, x)
            ce, logit_grad = softmax_cross_entropy(record.logits, labels)
            return ce, backward(m, x, record, {}, logit_grad)

        err = grad_check(model, loss)
        worst_net = max(worst_net, err)
        assert err < 1e-4

    # 5 networks with the KL prior attached to a hidden layer
    from featprior.gp_prior import _student_half, _teacher_half, feature_kernel
    for _ in range(5):
        batch = int(rng.integers(2, 5))
        cfg = PriorConfig(jitter=1e-3)
        spec = NetworkSpec.dense(3, [int(rng.integers(2, 7))], 2, "tanh")
        model = init_params(spec, seed=int(rng.integers(0, 2 ** 31)))
        x = rng.standard_normal((batch, 3))
        labels = rng.integers(0, 2, size=batch)
        k2 = feature_kernel(rng.standard_normal((batch, 5)), cfg)

        def loss(m, x=x, labels=labels, k2=k2, cfg=cfg):
            record = forward(m, x)
            ce, logit_grad = softmax_cross_entropy(record.logits, labels)
            kl, kl_grad = _teacher_half(_student_half(record.activations[0], cfg), k2)
            return ce + kl, backward(m, x, record, {0: kl_grad}, logit_grad)

        err = grad_check(model, loss)
        worst_net = max(worst_net, err)
        assert err < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("A2", f"50 instances: worst KL-gradient error {worst_kl:.2e}, "
                 f"worst network error {worst_net:.2e} (tol 1e-4), "
                 f"{elapsed:.1f}s < 30s")


def test_a3_reduction_checks():
    ds = synth_rings(80, 2, noise=0.1, seed=9)
    split = split_and_batch(ds, 0.5, 16, seed=9)
    teacher, _ = train_teacher(ds, NetworkSpec.dense(2, [16], 2),
                               TrainPlan(seed=9, batch_size=16, phase1_epochs=0,
                                         phase2_epochs=15, lr_phase2=3e-3,
                                         mode="naive"), split=split)
    cache = extract_features(teacher, ds, [0, 1])
    spec = NetworkSpec.dense(2, [8], 2)
    mapping = LayerGroupMapping(entries=((0, 0),))

    # joint with alpha = 0 is naive, loss for loss
    plan0 = TrainPlan(seed=10, batch_size=16, phase1_epochs=3, phase2_epochs=3,
                      prior=PriorConfig(alpha=0.0))
    joint = run_distillation(spec, ds, split, replace(plan0, mode="joint"),
                             cache=cache, mapping=mapping)
    naive = run_distillation(spec, ds, split, replace(plan0, mode="naive"))
    assert [r.task_loss for r in joint.log] == [r.task_loss for r in naive.log]
    assert all(np.array_equal(p, q) for p, q in
               zip(joint.model.parameters(), naive.model.parameters()))

    # a single expert is plain two-phase distillation
    plan = TrainPlan(seed=11, batch_size=16, phase1_epochs=4, phase2_epochs=4,
                     lr_phase1=1e-2)
    student = init_params(spec, seed=11)
    combined = combine_experts_fit(
        student, ds,
        ExpertPriorSet(experts=(ExpertPrior(cache=cache, mapping=mapping,
                                            alpha=1.0),)),
        plan, train=split.train)
    after1, _ = phase1_feature_fit(
        student, ds, ExpertPriorSet((ExpertPrior(cache, mapping),)), plan,
        train=split.train)
    plain = phase2_task_fit(after1, ds, plan, mapping.student_layers(),
                            train=split.train)
    assert all(np.array_equal(p, q) for p, q in
               zip(combined.parameters(), plain.parameters()))

    # m identical experts equal one expert with the summed weight
    def first_epoch_objective(weights):
        experts = ExpertPriorSet(experts=tuple(
            ExpertPrior(cache=cache, mapping=mapping, alpha=w) for w in weights))
        log = []
        combine_experts_fit(init_params(spec, seed=12), ds, experts,
                            replace(plan, seed=12, phase1_epochs=1,
                                    phase2_epochs=1),
                            train=split.train, log=log)
        return [r.kl_loss for r in log if r.phase == 1][0]

    split_objective = first_epoch_objective([0.5, 0.5, 0.5])
    merged_objective = first_epoch_objective([1.5])
    gap = abs(split_objective - merged_objective)
    assert gap <= 1e-10

    report("A3", f"joint(alpha=0) = naive per-epoch losses; single expert = "
                 f"plain two-phase bitwise; 3 identical experts vs merged "
                 f"weight gap {gap:.1e} <= 1e-10")


def test_a4_soft_target_width_constraint_vs_gp_prior():
    rng = np.random.default_rng(13)
    with pytest.raises(DimensionMismatch):
        hinton_soft_target(rng.standard_normal((4, 3)),
                           rng.standard_normal((4, 5)), 2.0)
    value = prior_log_density(rng.standard_normal((4, 3)),
                              rng.standard_normal((4, 5)), PriorConfig())
    assert np.isfinite(value)
    report("A4", f"soft targets reject 3-vs-5 logits (DimensionMismatch); "
                 f"GP prior accepts width 3 vs 5 (log density {value:.4f})")


def test_a5_distillation_beats_naive(reference_runs):
    start = time.monotonic()
    ds, runs = reference_runs
    student_spec = NetworkSpec.dense(2, [16], 3)
    mapping = LayerGroupMapping(entries=((0, 1),))

    accs = {"teacher": [], "naive": [], "two_phase": [], "joint": []}
    for seed in REFERENCE_SEEDS:
        split, teacher, teacher_report, cache = runs[seed]
        accs["teacher"].append(teacher_report.mean("accuracy"))
        naive_plan = TrainPlan(seed=seed, batch_size=16, phase1_epochs=0,
                               phase2_epochs=25, lr_phase2=1e-3, mode="naive")
        two_phase_plan = TrainPlan(seed=seed, batch_size=16, phase1_epochs=50,
                                   phase2_epochs=25, lr_phase1=1e-2,
                                   lr_phase2=1e-3, mode="two_phase")
        joint_plan = TrainPlan(seed=seed, batch_size=16, phase1_epochs=0,
                               phase2_epochs=25, lr_phase2=1e-3, mode="joint",
                               prior=PriorConfig(alpha=1.0))
        accs["naive"].append(
            run_distillation(student_spec, ds, split, naive_plan).metrics.accuracy)
        accs["two_phase"].append(
            run_distillation(student_spec, ds, split, two_phase_plan,
                             cache=cache, mapping=mapping,
                             logits_group=2).metrics.accuracy)
        accs["joint"].append(
            run_distillation(student_spec, ds, split, joint_plan, cache=cache,
                             mapping=mapping, logits_group=2).metrics.accuracy)

    teacher_mean = float(np.mean(accs["teacher"]))
    naive_mean = float(np.mean(accs["naive"]))
    two_phase_mean = float(np.mean(accs["two_phase"]))
    joint_mean = float(np.mean(accs["joint"]))
    elapsed = time.monotonic() - start

    # joint (alpha = 1) is recorded for the experiment log, not asserted
    print(f"A5 experiment log: joint(alpha=1) accuracy {joint_mean:.4f}")
    assert two_phase_mean - naive_mean >= 0.02
    assert teacher_mean - naive_mean >= 0.02
    assert elapsed < 300.0
    report("A5", f"teacher {teacher_mean:.4f}, naive {naive_mean:.4f}, "
                 f"two_phase {two_phase_mean:.4f}; margins "
                 f"{two_phase_mean - naive_mean:+.4f} and "
                 f"{teacher_mean - naive_mean:+.4f} >= 0.02, {elapsed:.0f}s < 300s")


def test_a6_multi_level_priors(reference_runs):
    start = time.monotonic()
    ds, runs = reference_runs
    student_spec = NetworkSpec.dense(2, [16, 16], 3)
    mapping = LayerGroupMapping(entries=((0, 0), (1, 1)))

    reports = {
        "naive": [], "multi_level": [],
        "teacher": [runs[s][2].per_seed[0] for s in REFERENCE_SEEDS],
    }
    for seed in REFERENCE_SEEDS:
        split, _, _, cache = runs[seed]
        naive_plan = TrainPlan(seed=seed, batch_size=16, phase1_epochs=0,
                               phase2_epochs=20, lr_phase2=1e-3, mode="naive")
        multi_plan = TrainPlan(seed=seed, batch_size=16, phase1_epochs=50,
                               phase2_epochs=20, lr_phase1=1e-2,
                               lr_phase2=1e-3, mode="two_phase")
        reports["naive"].append(
            run_distillation(student_spec, ds, split, naive_plan).metrics)
        reports["multi_level"].append(
            run_distillation(student_spec, ds, split, multi_plan, cache=cache,
                             mapping=mapping, logits_group=2).metrics)

    table = {name: MetricsReport(seeds=list(REFERENCE_SEEDS), per_seed=metrics)
             for name, metrics in reports.items()}
    margin = table["multi_level"].mean("top1") - table["naive"].mean("top1")
    elapsed = time.monotonic() - start

    print(format_topk_table(table))
    assert margin >= 0.02
    assert elapsed < 300.0
    report("A6", f"two-group mapping top-1 {table['multi_level'].mean('top1'):.4f} "
                 f"vs naive {table['naive'].mean('top1'):.4f} "
                 f"(margin {margin:+.4f} >= 0.02), {elapsed:.0f}s < 300s")


def test_a7_combining_experts():
    start = time.monotonic()
    full = synth_blobs(150, 4, 2, separation=4.0, seed=200)
    expert_spec = NetworkSpec.dense(2, [32], 2)
    student_spec = NetworkSpec.dense(2, [16, 16], 4)

    accuracies = []
    for seed in REFERENCE_SEEDS:
        split = split_and_batch(full, 0.5, 16, seed)
        caches = []
        for lo in (0, 2):
            # the student's train rows of the expert's two classes, so no
            # expert sees a test row
            rows = split.train.source_indices
            rows = rows[np.isin(full.labels[rows], [lo, lo + 1])]
            sub = Dataset(inputs=full.inputs[rows],
                          labels=full.labels[rows] - lo, class_count=2)
            expert, _ = train_teacher(
                sub, expert_spec,
                TrainPlan(seed=seed, batch_size=16, phase1_epochs=0,
                          phase2_epochs=30, lr_phase2=3e-3, mode="naive"))
            caches.append(extract_features(expert, full, [0]))
        experts = ExpertPriorSet(experts=(
            ExpertPrior(cache=caches[0],
                        mapping=LayerGroupMapping(entries=((0, 0),)), alpha=1.0),
            ExpertPrior(cache=caches[1],
                        mapping=LayerGroupMapping(entries=((1, 0),)), alpha=1.0),
        ))
        plan = TrainPlan(seed=seed, batch_size=16, phase1_epochs=40,
                         phase2_epochs=25, lr_phase1=1e-2, lr_phase2=1e-3,
                         mode="two_phase")
        student = init_params(student_spec, seed)
        model = combine_experts_fit(student, full, experts, plan,
                                    train=split.train)
        accuracies.append(evaluate(model, full, split.test).accuracy)

    mean_acc = float(np.mean(accuracies))
    chance = 1.0 / 4.0
    elapsed = time.monotonic() - start
    assert mean_acc >= 1.5 * chance
    assert elapsed < 300.0
    report("A7", f"two disjoint experts -> 4-class accuracy {mean_acc:.4f} "
                 f">= 1.5x chance ({1.5 * chance:.3f}), {elapsed:.0f}s < 300s")


def test_a8_phase_separation_and_label_blindness():
    ds = synth_rings(100, 2, noise=0.1, seed=3)
    split = split_and_batch(ds, 0.5, 16, seed=1)
    teacher, _ = train_teacher(ds, NetworkSpec.dense(2, [16, 16], 2),
                               TrainPlan(seed=1, batch_size=16, phase1_epochs=0,
                                         phase2_epochs=25, lr_phase2=3e-3,
                                         mode="naive"), split=split)
    cache = extract_features(teacher, ds, [0, 1, 2])
    spec = NetworkSpec.dense(2, [8], 2)
    plan = TrainPlan(seed=21, batch_size=16, phase1_epochs=5, phase2_epochs=5,
                     lr_phase1=1e-2)
    mapping = LayerGroupMapping(entries=((0, 1),))
    student = init_params(spec, seed=21)

    # phase separation: phase 2 leaves the mapped layer bitwise untouched
    after1, _ = phase1_feature_fit(
        student, ds, ExpertPriorSet((ExpertPrior(cache, mapping),)), plan,
        train=split.train)
    after2 = phase2_task_fit(after1, ds, plan, mapping.student_layers(),
                             train=split.train)
    assert np.array_equal(after2.weights[0], after1.weights[0])
    assert np.array_equal(after2.biases[0], after1.biases[0])

    # label blindness: permuting every label changes phase 1 not at all
    rng = np.random.default_rng(0)
    permuted = Dataset(inputs=ds.inputs, labels=rng.permutation(ds.labels),
                       class_count=ds.class_count)
    permuted_split = split_and_batch(permuted, 0.5, 16, seed=1)
    permuted_cache = extract_features(teacher, permuted, [0, 1, 2])
    b, _ = phase1_feature_fit(
        student, permuted, ExpertPriorSet((ExpertPrior(permuted_cache, mapping),)),
        plan, train=permuted_split.train)
    assert all(np.array_equal(p, q) for p, q in
               zip(after1.parameters(), b.parameters()))
    report("A8", "frozen parameters bitwise unchanged by phase 2; "
                 "label permutation leaves phase 1 output bitwise identical")


def test_a9_cli_determinism(tmp_path):
    config = {
        "dataset": {"kind": "synth_rings", "n_per_class": 40, "classes": 2,
                    "noise": 0.1, "seed": 7},
        "test_fraction": 0.5,
        "teacher": {"hidden": [8]},
        "student": {"hidden": [4]},
        "plan": {"seed": 1, "batch_size": 16, "phase1_epochs": 3,
                 "phase2_epochs": 3, "lr_phase1": 0.01, "mode": "two_phase"},
        "teacher_plan": {"phase1_epochs": 0, "phase2_epochs": 10,
                         "lr_phase2": 0.01},
        "mapping": [[0, 1]],
        "seeds": [1, 2],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"

    asserted = ["teacher.fpnn", "teacher_metrics.csv", "features.fpfc",
                "student.fpnn", "run_log.csv", "metrics.csv",
                "comparison.csv", "summary.txt"]

    def run_all():
        for command in ("train-teacher", "extract-features", "distill",
                        "evaluate", "compare"):
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in asserted}

    first = run_all()
    second = run_all()
    assert first == second
    report("A9", f"all 5 commands rerun byte-identical across "
                 f"{len(asserted)} output files")
