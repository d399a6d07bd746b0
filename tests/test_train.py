"""Training procedure tests: teacher fitting, feature extraction, the
two training phases, reductions between modes, expert priors, metrics
and the multi-seed comparison."""

from __future__ import annotations

import os

import numpy as np
import pytest
from dataclasses import replace

from featprior import gp_prior, linalg, train
from featprior.data import (
    BatchSchedule,
    Dataset,
    split_and_batch,
    synth_blobs,
    synth_rings,
)
from featprior.errors import (
    AllLayersFrozen,
    BatchMismatch,
    ConfigError,
    EmptyExpertSet,
    FingerprintMismatch,
    LayerOutOfRange,
)
from featprior.gp_prior import PriorConfig, gp_kl, gram_kernel
from featprior.network import LayerSpec, Model, NetworkSpec, forward, init_params
from featprior.train import (
    MODES,
    ExpertPrior,
    ExpertPriorSet,
    LayerGroupMapping,
    Metrics,
    MetricsReport,
    TrainPlan,
    combine_experts_fit,
    compare_methods,
    compare_one_seed,
    evaluate,
    extract_features,
    phase1_feature_fit,
    phase2_task_fit,
    run_distillation,
    run_log_csv,
    train_teacher,
    worker_count,
)


def params_equal(a: Model, b: Model) -> bool:
    return all(np.array_equal(p, q)
               for p, q in zip(a.parameters(), b.parameters()))


@pytest.fixture(scope="module")
def blobs():
    return synth_blobs(60, 2, 2, separation=8.0, seed=0)


@pytest.fixture(scope="module")
def rings_setup():
    """Small rings task with a trained teacher and its feature cache."""
    ds = synth_rings(100, 2, noise=0.1, seed=3)
    split = split_and_batch(ds, 0.5, 16, seed=1)
    teacher_spec = NetworkSpec.dense(2, [16, 16], 2)
    plan = TrainPlan(seed=1, batch_size=16, phase1_epochs=0, phase2_epochs=25,
                     lr_phase2=3e-3, mode="naive")
    teacher, _ = train_teacher(ds, teacher_spec, plan, split=split)
    cache = extract_features(teacher, ds, [0, 1, 2])
    return ds, split, teacher, cache


class TestTrainTeacher:
    def test_separable_blobs_high_accuracy(self, blobs):
        plan = TrainPlan(seed=0, batch_size=16, phase1_epochs=0,
                         phase2_epochs=20, lr_phase2=3e-3, mode="naive")
        _, report = train_teacher(blobs, NetworkSpec.dense(2, [16], 2), plan,
                                  test_fraction=0.5)
        assert report.mean("accuracy") >= 0.99

    def test_zero_epochs_returns_initialized_model(self):
        overlapping = synth_blobs(100, 2, 2, separation=0.01, seed=4)
        plan = TrainPlan(seed=0, batch_size=16, phase1_epochs=0,
                         phase2_epochs=0, mode="naive")
        model, report = train_teacher(overlapping, NetworkSpec.dense(2, [8], 2),
                                      plan, test_fraction=0.5)
        assert params_equal(model, init_params(NetworkSpec.dense(2, [8], 2), 0))
        assert 0.3 <= report.mean("accuracy") <= 0.7

    def test_same_seed_identical(self, blobs):
        plan = TrainPlan(seed=5, batch_size=16, phase1_epochs=0,
                         phase2_epochs=8, mode="naive")
        m1, r1 = train_teacher(blobs, NetworkSpec.dense(2, [8], 2), plan,
                               test_fraction=0.5)
        m2, r2 = train_teacher(blobs, NetworkSpec.dense(2, [8], 2), plan,
                               test_fraction=0.5)
        assert params_equal(m1, m2)
        for name in ("accuracy", "f1_macro"):
            assert r1.mean(name) == r2.mean(name)


class TestExtractFeatures:
    def identity_model(self):
        spec = NetworkSpec(layers=(LayerSpec(2, 2, "identity"),), output_head=2)
        return Model(spec,
                     [np.eye(2, dtype=np.float32)],
                     [np.zeros(2, dtype=np.float32)],
                     np.eye(2, dtype=np.float32),
                     np.zeros(2, dtype=np.float32))

    def test_identity_network_cache_equals_inputs(self):
        inputs = np.array([[0.25, -1.5], [2.0, 0.5], [1.0, 3.0]])
        ds = Dataset(inputs=inputs, labels=np.array([0, 1, 0]), class_count=2)
        cache = extract_features(self.identity_model(), ds, [0])
        np.testing.assert_array_equal(cache.groups[0], inputs.astype(np.float32))

    def test_round_trip_through_file(self, tmp_path, rings_setup):
        from featprior.data import read_cache, write_cache
        from featprior.network import model_fingerprint
        ds, _, teacher, cache = rings_setup
        path = tmp_path / "f.fpfc"
        write_cache(path, cache)
        restored = read_cache(path, expect_dataset=ds,
                              expect_teacher_fingerprint=model_fingerprint(teacher))
        for gid, mat in cache.groups.items():
            np.testing.assert_array_equal(restored.groups[gid], mat)

    def test_final_layer_width_matches_spec(self, rings_setup):
        _, _, teacher, cache = rings_setup
        assert cache.groups[1].shape[1] == teacher.spec.layers[-1].out_width

    def test_logits_group(self, rings_setup):
        ds, _, teacher, cache = rings_setup
        assert cache.groups[2].shape[1] == teacher.spec.output_head
        np.testing.assert_allclose(
            cache.groups[2],
            forward(teacher, ds.inputs).logits.astype(np.float32))

    def test_layer_out_of_range(self, rings_setup):
        ds, _, teacher, _ = rings_setup
        with pytest.raises(LayerOutOfRange):
            extract_features(teacher, ds, [7])


class TestPhase1:
    def test_stationary_start_is_noop(self, rings_setup):
        ds, split, teacher, cache = rings_setup
        # student whose feature layers are a bitwise copy of the teacher's
        student = Model(
            spec=NetworkSpec(layers=teacher.spec.layers, output_head=2),
            weights=[w.copy() for w in teacher.weights],
            biases=[b.copy() for b in teacher.biases],
            head_weight=init_params(teacher.spec, 99).head_weight,
            head_bias=np.zeros(2, dtype=np.float32),
        )
        plan = TrainPlan(seed=2, batch_size=16, phase1_epochs=10,
                         phase2_epochs=0, optimizer="sgd", momentum=0.0,
                         lr_phase1=1e-3,
                         prior=PriorConfig(jitter=1e-3))
        log = []
        fitted, final_kl = phase1_feature_fit(
            student, ds, cache, LayerGroupMapping(entries=((1, 1),)), plan,
            train=split.train, log=log)
        assert log[0].kl_loss < 1e-6
        assert final_kl < 1e-6
        drift = max(np.max(np.abs(p.astype(np.float64) - q.astype(np.float64)))
                    for p, q in zip(fitted.parameters(), student.parameters()))
        assert drift < 1e-6

    def test_kl_drops_well_below_start(self):
        # 200-example set; student wider than the teacher so the Gram
        # objective is fully reducible
        ds = synth_blobs(100, 2, 2, separation=3.0, seed=4)
        split = split_and_batch(ds, 0.5, 16, seed=2)
        teacher, _ = train_teacher(
            ds, NetworkSpec.dense(2, [8], 2),
            TrainPlan(seed=3, batch_size=16, phase1_epochs=0, phase2_epochs=20,
                      lr_phase2=3e-3, mode="naive"), split=split)
        cache = extract_features(teacher, ds, [0])
        student = init_params(NetworkSpec.dense(2, [16], 2), seed=11)
        plan = TrainPlan(seed=11, batch_size=16, phase1_epochs=50,
                         phase2_epochs=0, lr_phase1=1e-2,
                         prior=PriorConfig(jitter=1e-3))
        log = []
        _, final_kl = phase1_feature_fit(
            student, ds, cache, LayerGroupMapping(entries=((0, 0),)), plan,
            train=split.train, log=log)
        assert final_kl < 0.1 * log[0].kl_loss
        # trend oracle: medians of 10-epoch windows never increase
        kls = [r.kl_loss for r in log]
        medians = [float(np.median(kls[i:i + 10])) for i in range(0, 50, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(medians, medians[1:]))

    @pytest.mark.parametrize("width,calls_per_step", [(4, 1), (32, 2)])
    def test_narrow_student_gram_never_factored(self, blobs, monkeypatch,
                                                width, calls_per_step):
        # only the teacher's n x n Gram goes through gram_kernel while the
        # batch outnumbers the student's features; a student wider than
        # the batch still has its own Gram formed and factored
        calls = []
        original = gp_prior.gram_kernel

        def counted(phi, config):
            calls.append(np.shape(phi))
            return original(phi, config)

        monkeypatch.setattr(gp_prior, "gram_kernel", counted)
        teacher = init_params(NetworkSpec.dense(2, [8], 2), seed=0)
        cache = extract_features(teacher, blobs, [0])
        student = init_params(NetworkSpec.dense(2, [width], 2), seed=1)
        plan = TrainPlan(seed=1, batch_size=16, phase1_epochs=2,
                         prior=PriorConfig(jitter=1e-3))
        schedule = BatchSchedule(np.arange(64), 16, seed=1)
        phase1_feature_fit(student, blobs, cache,
                           LayerGroupMapping(entries=((0, 0),)), plan,
                           schedule=schedule)
        steps = 2 * 64 // 16
        assert len(calls) == calls_per_step * steps

    def test_narrow_teacher_gram_never_factored(self, blobs, monkeypatch):
        # with the batch outnumbering both the student's and the teacher's
        # features, only the p x p matrices of either side are factored
        sizes = []
        original = linalg.cholesky

        def recorded(a):
            sizes.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(linalg, "cholesky", recorded)
        teacher = init_params(NetworkSpec.dense(2, [8], 2), seed=0)
        cache = extract_features(teacher, blobs, [0])
        student = init_params(NetworkSpec.dense(2, [4], 2), seed=1)
        plan = TrainPlan(seed=1, batch_size=16, phase1_epochs=2,
                         prior=PriorConfig(jitter=1e-3))
        schedule = BatchSchedule(np.arange(64), 16, seed=1)
        phase1_feature_fit(student, blobs, cache,
                           LayerGroupMapping(entries=((0, 0),)), plan,
                           schedule=schedule)
        steps = 2 * 64 // 16
        assert sorted(set(sizes)) == [(4, 4), (8, 8)]
        assert len(sizes) == 2 * steps

    def test_empty_mapping_returns_model_unchanged(self, rings_setup):
        ds, split, _, cache = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=6)
        log = []
        fitted, final_kl = phase1_feature_fit(
            student, ds, cache, LayerGroupMapping(entries=()),
            TrainPlan(seed=6, batch_size=16), train=split.train, log=log)
        assert params_equal(fitted, student)
        assert final_kl is None
        assert log == []

    def test_label_blindness_bitwise(self, rings_setup):
        ds, split, teacher, cache = rings_setup
        rng = np.random.default_rng(0)
        permuted = Dataset(inputs=ds.inputs,
                           labels=rng.permutation(ds.labels),
                           class_count=ds.class_count, name=ds.name)
        permuted_split = split_and_batch(permuted, 0.5, 16, seed=1)
        permuted_cache = extract_features(teacher, permuted, [0, 1, 2])
        np.testing.assert_array_equal(permuted_split.train.source_indices,
                                      split.train.source_indices)

        student = init_params(NetworkSpec.dense(2, [8], 2), seed=7)
        plan = TrainPlan(seed=7, batch_size=16, phase1_epochs=5,
                         phase2_epochs=0, lr_phase1=1e-2)
        mapping = LayerGroupMapping(entries=((0, 1),))
        a, _ = phase1_feature_fit(student, ds, cache, mapping, plan,
                                  train=split.train)
        b, _ = phase1_feature_fit(student, permuted, permuted_cache, mapping,
                                  plan, train=permuted_split.train)
        assert params_equal(a, b)

    def test_cache_from_other_dataset_rejected(self, rings_setup):
        ds, split, _, cache = rings_setup
        other = synth_blobs(ds.n // 2, 2, 2, separation=2.0, seed=9)
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=8)
        with pytest.raises(BatchMismatch):
            phase1_feature_fit(student, other, cache,
                               LayerGroupMapping(entries=((0, 1),)),
                               TrainPlan(seed=8, batch_size=16))

    def test_alignment_error_types(self, rings_setup):
        ds, _, _, cache = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=8)

        def fit(dataset):
            phase1_feature_fit(student, dataset, cache,
                               LayerGroupMapping(entries=((0, 1),)),
                               TrainPlan(seed=8, batch_size=16))

        same_rows = synth_rings(100, 2, noise=0.1, seed=4)
        assert same_rows.n == ds.n
        with pytest.raises(FingerprintMismatch):
            fit(same_rows)
        with pytest.raises(BatchMismatch) as excinfo:
            fit(synth_rings(60, 2, noise=0.1, seed=3))
        assert not isinstance(excinfo.value, FingerprintMismatch)


class TestPhase2:
    def test_freeze_nothing_reduces_to_naive(self, rings_setup):
        ds, split, _, _ = rings_setup
        spec = NetworkSpec.dense(2, [8], 2)
        student = init_params(spec, seed=10)
        plan = TrainPlan(seed=10, batch_size=16, phase1_epochs=0,
                         phase2_epochs=6, mode="naive")
        via_phase2 = phase2_task_fit(student, ds, plan, frozen_layers=(),
                                     train=split.train, epoch_offset=0)
        naive = run_distillation(spec, ds, split, plan)
        assert params_equal(via_phase2, naive.model)

    def test_freeze_all_hidden_only_head_changes(self, rings_setup):
        ds, split, _, _ = rings_setup
        student = init_params(NetworkSpec.dense(2, [8, 8], 2), seed=11)
        plan = TrainPlan(seed=11, batch_size=16, phase2_epochs=4)
        fitted = phase2_task_fit(student, ds, plan, frozen_layers={0, 1},
                                 train=split.train)
        for i in range(2):
            np.testing.assert_array_equal(fitted.weights[i], student.weights[i])
            np.testing.assert_array_equal(fitted.biases[i], student.biases[i])
        assert not np.array_equal(fitted.head_weight, student.head_weight)

    def test_all_layers_frozen_rejected(self, rings_setup):
        ds, split, _, _ = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=12)
        with pytest.raises(AllLayersFrozen):
            phase2_task_fit(student, ds, TrainPlan(seed=12, batch_size=16),
                            frozen_layers={0, 1}, train=split.train)

    def test_phase_separation_bitwise(self, rings_setup):
        ds, split, _, cache = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=13)
        plan = TrainPlan(seed=13, batch_size=16, phase1_epochs=4,
                         phase2_epochs=6, lr_phase1=1e-2)
        mapping = LayerGroupMapping(entries=((0, 1),))
        after1, _ = phase1_feature_fit(student, ds, cache, mapping, plan,
                                       train=split.train)
        after2 = phase2_task_fit(after1, ds, plan, mapping.student_layers(),
                                 train=split.train)
        np.testing.assert_array_equal(after2.weights[0], after1.weights[0])
        np.testing.assert_array_equal(after2.biases[0], after1.biases[0])
        assert not np.array_equal(after2.head_weight, after1.head_weight)


class TestJoint:
    def test_alpha_zero_reduces_to_naive(self, rings_setup):
        ds, split, _, cache = rings_setup
        spec = NetworkSpec.dense(2, [8], 2)
        plan = TrainPlan(seed=14, batch_size=16, phase1_epochs=3,
                         phase2_epochs=3, prior=PriorConfig(alpha=0.0))
        mapping = LayerGroupMapping(entries=((0, 1),))

        joint = run_distillation(spec, ds, split, replace(plan, mode="joint"),
                                 cache=cache, mapping=mapping)
        naive = run_distillation(spec, ds, split, replace(plan, mode="naive"))
        assert params_equal(joint.model, naive.model)
        joint_losses = [r.task_loss for r in joint.log]
        naive_losses = [r.task_loss for r in naive.log]
        assert joint_losses == naive_losses

    def test_large_alpha_pulls_features_to_teacher(self, rings_setup):
        ds, split, _, cache = rings_setup
        spec = NetworkSpec.dense(2, [8], 2)
        mapping = LayerGroupMapping(entries=((0, 1),))

        def final_feature_kl(model):
            rows = split.train.source_indices[:32]
            cfg = PriorConfig()
            k1 = gram_kernel(forward(model, ds.inputs[rows]).activations[0], cfg)
            k2 = gram_kernel(cache.groups[1][rows].astype(np.float64), cfg)
            return gp_kl(k1, k2)

        base = TrainPlan(seed=15, batch_size=16, phase1_epochs=8,
                         phase2_epochs=8, lr_phase2=3e-3)
        naive = run_distillation(spec, ds, split, replace(base, mode="naive"))
        heavy = run_distillation(
            spec, ds, split,
            replace(base, mode="joint", prior=PriorConfig(alpha=1e6)),
            cache=cache, mapping=mapping)
        assert final_feature_kl(heavy.model) < final_feature_kl(naive.model)


class TestExperts:
    def test_single_expert_equals_plain_two_phase(self, rings_setup):
        ds, split, _, cache = rings_setup
        spec = NetworkSpec.dense(2, [8], 2)
        student = init_params(spec, seed=16)
        plan = TrainPlan(seed=16, batch_size=16, phase1_epochs=4,
                         phase2_epochs=4, lr_phase1=1e-2)
        mapping = LayerGroupMapping(entries=((0, 1),))

        experts = ExpertPriorSet(experts=(
            ExpertPrior(cache=cache, mapping=mapping, alpha=1.0),))
        combined = combine_experts_fit(student, ds, experts, plan,
                                       train=split.train)
        after1, _ = phase1_feature_fit(student, ds, cache, mapping, plan,
                                       train=split.train)
        plain = phase2_task_fit(after1, ds, plan, mapping.student_layers(),
                                train=split.train)
        assert params_equal(combined, plain)

    def test_identical_experts_additive(self, rings_setup):
        ds, split, _, cache = rings_setup
        spec = NetworkSpec.dense(2, [8], 2)
        mapping = LayerGroupMapping(entries=((0, 1),))
        plan = TrainPlan(seed=17, batch_size=16, phase1_epochs=1,
                         phase2_epochs=0, lr_phase1=1e-3)

        def first_epoch_objective(expert_list):
            student = init_params(spec, seed=17)
            log = []
            try:
                combine_experts_fit(student, ds,
                                    ExpertPriorSet(experts=tuple(expert_list)),
                                    plan, train=split.train, log=log)
            except AllLayersFrozen:
                pass  # phase 2 has zero trainable epochs in this plan
            return [r.kl_loss for r in log if r.phase == 1][0]

        split_weights = first_epoch_objective([
            ExpertPrior(cache=cache, mapping=mapping, alpha=0.7),
            ExpertPrior(cache=cache, mapping=mapping, alpha=1.8),
        ])
        merged_weight = first_epoch_objective([
            ExpertPrior(cache=cache, mapping=mapping, alpha=2.5),
        ])
        assert split_weights == pytest.approx(merged_weight, abs=1e-10)

    def test_disjoint_subtask_experts_cover_combined_task(self):
        full = synth_blobs(80, 4, 2, separation=4.0, seed=20)
        split = split_and_batch(full, 0.5, 16, seed=21)
        expert_spec = NetworkSpec.dense(2, [16], 2)
        caches = []
        for lo in (0, 2):
            mask = np.isin(full.labels, [lo, lo + 1])
            sub = Dataset(inputs=full.inputs[mask], labels=full.labels[mask] - lo,
                          class_count=2, name=f"sub{lo}")
            expert, _ = train_teacher(
                sub, expert_spec,
                TrainPlan(seed=22, batch_size=16, phase1_epochs=0,
                          phase2_epochs=20, lr_phase2=3e-3, mode="naive"))
            caches.append(extract_features(expert, full, [0]))
        experts = ExpertPriorSet(experts=(
            ExpertPrior(cache=caches[0],
                        mapping=LayerGroupMapping(entries=((0, 0),)), alpha=1.0),
            ExpertPrior(cache=caches[1],
                        mapping=LayerGroupMapping(entries=((1, 0),)), alpha=1.0),
        ))
        student = init_params(NetworkSpec.dense(2, [12, 12], 4), seed=23)
        plan = TrainPlan(seed=23, batch_size=16, phase1_epochs=25,
                         phase2_epochs=20, lr_phase1=1e-2, lr_phase2=3e-3)
        model = combine_experts_fit(student, full, experts, plan,
                                    train=split.train)
        metrics = evaluate(model, split.test)
        assert metrics.accuracy >= 0.375  # 1.5x chance on 4 classes
        # above chance restricted to each subtask's examples
        from featprior.train import predict_logits
        predictions = np.argmax(predict_logits(model, split.test.inputs), axis=1)
        for lo in (0, 2):
            mask = np.isin(split.test.labels, [lo, lo + 1])
            acc = float(np.mean(predictions[mask] == split.test.labels[mask]))
            assert acc > 0.3

    def test_empty_expert_set_rejected(self):
        with pytest.raises(EmptyExpertSet):
            ExpertPriorSet(experts=())


class TestEvaluate:
    def perfect_model(self):
        spec = NetworkSpec(layers=(), output_head=2)
        return Model(spec, [], [], 10.0 * np.eye(2, dtype=np.float32),
                     np.zeros(2, dtype=np.float32))

    def onehot_dataset(self):
        labels = np.array([0, 1, 0, 1])
        inputs = np.eye(2)[labels]
        return Dataset(inputs=inputs, labels=labels, class_count=2)

    def test_perfect_predictions(self):
        ds = self.onehot_dataset()
        metrics = evaluate(self.perfect_model(), ds)
        assert metrics.accuracy == 1.0
        assert metrics.f1_micro == 1.0
        assert metrics.f1_macro == 1.0
        assert all(v == 1.0 for v in metrics.top_k.values())

    def test_constant_prediction_macro_f1(self):
        ds = self.onehot_dataset()
        spec = NetworkSpec(layers=(), output_head=2)
        model = Model(spec, [], [], np.zeros((2, 2), dtype=np.float32),
                      np.array([1.0, 0.0], dtype=np.float32))
        metrics = evaluate(model, ds)
        # always predicts class 0: acc 1/2; F1 = (2/3 + 0) / 2 = 1/3
        assert metrics.accuracy == pytest.approx(0.5)
        assert metrics.f1_macro == pytest.approx(1.0 / 3.0)
        assert metrics.f1_micro == pytest.approx(0.5)

    def test_top_c_is_one(self):
        ds = self.onehot_dataset()
        model = init_params(NetworkSpec.dense(2, [4], 2), seed=30)
        metrics = evaluate(model, ds, ks=(1, 2))
        assert metrics.top_k[2] == 1.0

    def test_micro_f1_equals_accuracy(self, blobs):
        model = init_params(NetworkSpec.dense(2, [5], 2), seed=31)
        metrics = evaluate(model, blobs)
        assert abs(metrics.f1_micro - metrics.accuracy) < 1e-12

    def test_std_error_two_seed_hand_case(self):
        def m(acc):
            return Metrics(accuracy=acc, top_k={1: acc}, f1_micro=acc,
                           f1_macro=acc)

        report = MetricsReport(seeds=[1, 2], per_seed=[m(0.8), m(0.9)])
        assert report.mean("accuracy") == pytest.approx(0.85)
        # sample std of {0.8, 0.9} is |0.1|/sqrt(2); /sqrt(2) again = 0.05
        assert report.std_error("accuracy") == pytest.approx(0.05)


class TestCompareMethods:
    def tiny_args(self, blobs):
        teacher_spec = NetworkSpec.dense(2, [8], 2)
        student_spec = NetworkSpec.dense(2, [4], 2)
        plan = TrainPlan(seed=0, batch_size=16, phase1_epochs=2, phase2_epochs=2,
                         lr_phase1=1e-2)
        teacher_plan = TrainPlan(seed=0, batch_size=16, phase1_epochs=0,
                                 phase2_epochs=4, lr_phase2=3e-3, mode="naive")
        mapping = LayerGroupMapping(entries=((0, 0),))
        return dict(dataset=blobs, teacher_spec=teacher_spec,
                    student_spec=student_spec, plans=plan,
                    teacher_plan=teacher_plan, mapping=mapping,
                    test_fraction=0.5)

    def test_requires_two_distinct_seeds(self, blobs):
        args = self.tiny_args(blobs)
        with pytest.raises(ConfigError):
            compare_methods(seeds=[1], **args)
        with pytest.raises(ConfigError):
            compare_methods(seeds=[1, 1], **args)

    def test_table_has_five_methods(self, blobs):
        result = compare_methods(seeds=[1, 2], **self.tiny_args(blobs))
        lines = result.comparison_csv().strip().split("\n")
        assert lines[0] == "method,metric,mean,std_error,n_seeds"
        assert len(lines) == 1 + 5 * 6
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"naive", "two_phase", "joint", "hinton_baseline",
                           "l2_baseline"}

    def test_naive_row_consistent_with_direct_run(self, blobs):
        args = self.tiny_args(blobs)
        result = compare_methods(seeds=[1, 2], **args)
        split = split_and_batch(blobs, 0.5, 16, seed=1)
        direct = run_distillation(
            args["student_spec"], blobs, split,
            replace(args["plans"], seed=1, mode="naive"))
        assert result.methods["naive"].per_seed[0].accuracy == pytest.approx(
            direct.metrics.accuracy)

    @pytest.mark.parametrize("jobs,seeds,cpus,expected", [
        (1, 5, 8, 1), (3, 5, 8, 3), (8, 5, 8, 5), (8, 5, 2, 2),
        (10_000, 5, 2, 2), (4, 2, 16, 2)])
    def test_worker_count_clamps(self, jobs, seeds, cpus, expected):
        assert worker_count(jobs, seeds, cpus) == expected

    def test_worker_count_defaults_to_cpu_count(self):
        assert 1 <= worker_count(10_000, 10_000) <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, blobs, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            worker_count(jobs, 5, 8)
        with pytest.raises(ConfigError, match="jobs"):
            compare_methods(seeds=[1, 2], n_jobs=jobs, **self.tiny_args(blobs))

    def test_one_seed_scores_each_model_once(self, blobs, monkeypatch):
        # compare keeps no per-epoch log, so the test split is scored once
        # for the teacher and once for each of the five students
        calls = []

        def counting_evaluate(model, dataset, *args, **kwargs):
            calls.append(dataset.n)
            return evaluate(model, dataset, *args, **kwargs)

        monkeypatch.setattr(train, "evaluate", counting_evaluate)
        args = self.tiny_args(blobs)
        plan = args.pop("plans")
        out = compare_one_seed(seed=1, plans={mode: plan for mode in MODES},
                               **args)
        assert set(out) == {"_teacher", *MODES}
        assert len(calls) == 6

    def test_parallel_jobs_match_serial(self, blobs):
        args = self.tiny_args(blobs)
        serial = compare_methods(seeds=[1, 2], n_jobs=1, **args)
        parallel = compare_methods(seeds=[1, 2], n_jobs=2, **args)
        assert serial.comparison_csv() == parallel.comparison_csv()


class TestBaselineNodeGradients:
    def test_soft_target_node_matches_finite_differences(self):
        from featprior.gp_prior import hinton_soft_target
        from featprior.train import _hinton_grad
        from oracles import central_diff_gradient, relative_error

        rng = np.random.default_rng(50)
        student = rng.standard_normal((3, 4))
        teacher = rng.standard_normal((3, 4))
        temperature = 2.5

        _, grad = _hinton_grad(student, teacher, temperature, 1.0)

        def f(flat):
            return hinton_soft_target(flat.reshape(3, 4), teacher, temperature)

        fd = central_diff_gradient(f, student.ravel()).reshape(3, 4)
        assert relative_error(grad, fd) < 1e-6

    def test_l2_node_matches_finite_differences(self):
        from featprior.train import _l2_grad
        from oracles import central_diff_gradient, relative_error

        rng = np.random.default_rng(51)
        student = rng.standard_normal((3, 4))
        teacher = rng.standard_normal((3, 4))

        _, grad = _l2_grad(student, teacher, 1.0)

        def f(flat):
            return float(np.mean((flat.reshape(3, 4) - teacher) ** 2))

        fd = central_diff_gradient(f, student.ravel()).reshape(3, 4)
        assert relative_error(grad, fd) < 1e-6


class TestRunLog:
    def test_two_phase_log_schema(self, rings_setup):
        ds, split, _, cache = rings_setup
        plan = TrainPlan(seed=40, batch_size=16, phase1_epochs=2,
                         phase2_epochs=2, lr_phase1=1e-2, mode="two_phase")
        result = run_distillation(NetworkSpec.dense(2, [8], 2), ds, split, plan,
                                  cache=cache,
                                  mapping=LayerGroupMapping(entries=((0, 1),)))
        csv_text = run_log_csv(result.log)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "epoch,phase,task_loss,kl_loss,test_accuracy"
        phase1 = [l for l in lines[1:] if l.split(",")[1] == "1"]
        phase2 = [l for l in lines[1:] if l.split(",")[1] == "2"]
        assert len(phase1) == 2 and len(phase2) == 2
        for line in phase1:
            cells = line.split(",")
            assert cells[2] == "" and cells[3] != ""
        for line in phase2:
            cells = line.split(",")
            assert cells[2] != "" and cells[3] == ""

    def test_naive_log_has_no_phase1_rows(self, blobs):
        split = split_and_batch(blobs, 0.5, 16, seed=2)
        plan = TrainPlan(seed=41, batch_size=16, phase1_epochs=3,
                         phase2_epochs=3, mode="naive")
        result = run_distillation(NetworkSpec.dense(2, [4], 2), blobs, split, plan)
        assert all(r.phase == 2 for r in result.log)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_epoch_row_scores_the_test_split(self, rings_setup, mode):
        ds, split, _, cache = rings_setup
        plan = TrainPlan(seed=43, batch_size=16, phase1_epochs=2,
                         phase2_epochs=2, lr_phase1=1e-2, mode=mode)
        kwargs = dict(cache=cache, mapping=LayerGroupMapping(entries=((0, 1),)),
                      logits_group=2)
        spec = NetworkSpec.dense(2, [8], 2)
        kept = run_distillation(spec, ds, split, plan, **kwargs)
        assert [r.epoch for r in kept.log] == [0, 1, 2, 3]
        assert all(r.test_accuracy is not None for r in kept.log)
        assert kept.log[-1].test_accuracy == kept.metrics.accuracy
        dropped = run_distillation(spec, ds, split, plan, keep_log=False, **kwargs)
        assert dropped.log is None
        assert params_equal(dropped.model, kept.model)
        assert dropped.metrics == kept.metrics

    def test_rerun_identical(self, blobs):
        split = split_and_batch(blobs, 0.5, 16, seed=2)
        plan = TrainPlan(seed=42, batch_size=16, phase1_epochs=0,
                         phase2_epochs=5, mode="naive")
        spec = NetworkSpec.dense(2, [4], 2)
        a = run_distillation(spec, blobs, split, plan)
        b = run_distillation(spec, blobs, split, plan)
        assert run_log_csv(a.log) == run_log_csv(b.log)
        assert params_equal(a.model, b.model)
