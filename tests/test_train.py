"""Training procedure tests: teacher fitting, feature extraction, the
two training phases, reductions between modes, expert priors, metrics
and the multi-seed comparison."""

from __future__ import annotations

import logging
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import fields, replace

from featprior import gp_prior, linalg, train
from featprior.data import (
    BatchSchedule,
    Dataset,
    FeatureCache,
    Rows,
    split_and_batch,
    synth_blobs,
    synth_rings,
)
from featprior.errors import (
    AllLayersFrozen,
    BatchMismatch,
    BatchTooSmall,
    ConfigError,
    DimensionMismatch,
    DivergedTraining,
    EmptyExpertSet,
    FeatPriorError,
    FingerprintMismatch,
    LayerOutOfRange,
)
from featprior.gp_prior import PriorConfig, gp_kl, gram_kernel
from featprior.network import (
    LayerSpec,
    Model,
    NetworkSpec,
    forward,
    init_params,
    serialize_model,
    stack_models,
    unstack_model,
)
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
    evaluate,
    extract_features,
    phase1_feature_fit,
    phase2_task_fit,
    predict_logits,
    run_distillation,
    run_log_csv,
    train_teacher,
)
from oracles import traced_peak


def one_expert(cache: FeatureCache, mapping: LayerGroupMapping) -> ExpertPriorSet:
    """A single teacher's prior, as phase 1 takes it: one expert at alpha 1."""
    return ExpertPriorSet((ExpertPrior(cache, mapping),))


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


class TestApiTypes:
    """The Python API refuses the values of the wrong type or range that the
    config refuses, naming the field and the value, rather than truncating,
    taking a bool or failing later."""

    @pytest.mark.parametrize("build, named", [
        (lambda: LayerGroupMapping(entries=((0.9, 1.6),)), "(0.9, 1.6)"),
        (lambda: LayerGroupMapping(entries=((True, 1),)), "(True, 1)"),
        (lambda: LayerGroupMapping(entries=((0, 1, 2),)), "(0, 1, 2)"),
        (lambda: TrainPlan(batch_size=16.5), "batch_size must be an integer, got 16.5"),
        (lambda: TrainPlan(phase1_epochs=1.5), "phase1_epochs must be an integer, got 1.5"),
        (lambda: TrainPlan(phase2_epochs=2.0), "phase2_epochs must be an integer, got 2.0"),
        (lambda: TrainPlan(seed=True), "seed must be an integer >= 0, got True"),
        (lambda: TrainPlan(seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: init_params(NetworkSpec.dense(2, [4], 2), -1),
         "seed must be an integer >= 0, got -1"),
        (lambda: BatchSchedule(np.arange(10), 3.7, 1),
         "batch_size must be an integer, got 3.7"),
        (lambda: BatchSchedule(np.arange(10), 4, 1.5), "seed must be an integer >= 0, got 1.5"),
        (lambda: BatchSchedule(np.arange(10), 4, -1), "seed must be an integer >= 0, got -1"),
        (lambda: compare_methods(synth_blobs(10, 2, 2, 4.0, seed=0), NetworkSpec.dense(2, [4], 2),
                                 NetworkSpec.dense(2, [4], 2), {"naive": TrainPlan()}, [1.5, 2.7],
                                 teacher_plan=TrainPlan(), mapping=LayerGroupMapping()),
         "seeds[0] must be an integer >= 0, got 1.5"),
        (lambda: compare_methods(synth_blobs(10, 2, 2, 4.0, seed=0), NetworkSpec.dense(2, [4], 2),
                                 NetworkSpec.dense(2, [4], 2), {"naive": TrainPlan()}, [1, -1],
                                 teacher_plan=TrainPlan(), mapping=LayerGroupMapping()),
         "seeds[1] must be an integer >= 0, got -1"),
        (lambda: compare_methods(synth_blobs(10, 2, 2, 4.0, seed=0), NetworkSpec.dense(2, [4], 2),
                                 NetworkSpec.dense(2, [4], 2), TrainPlan(), [1, 2],
                                 teacher_plan=TrainPlan(), mapping=LayerGroupMapping()),
         "rows must be a dict of TrainPlans, got TrainPlan("),
        (lambda: extract_features(init_params(NetworkSpec.dense(2, [4], 2), 0),
                                  synth_blobs(10, 2, 2, 4.0, seed=0), [0.7]),
         "layer ids must be integers, got [0.7]"),
    ], ids=["mapping-float", "mapping-bool", "mapping-triple", "batch_size",
            "phase1_epochs", "phase2_epochs", "seed", "seed-negative", "init-seed-negative",
            "schedule-batch_size", "schedule-seed", "schedule-seed-negative", "compare-seeds",
            "compare-seeds-negative", "compare-one-plan", "layer-ids"])
    def test_non_integer_is_config_error(self, build, named):
        with pytest.raises(ConfigError) as excinfo:
            build()
        assert named in str(excinfo.value)

    def test_mapping_reads_a_generator_once(self):
        mapping = LayerGroupMapping(entries=((0, 1) for _ in range(1)))
        assert mapping.entries == ((0, 1),)

    @pytest.mark.parametrize("build", [lambda b: TrainPlan(batch_size=b),
                                       lambda b: BatchSchedule(np.arange(10), b, 0)],
                             ids=["plan", "schedule"])
    def test_batch_below_two_is_batch_too_small(self, build):
        # one rule for a plan's batch size and a schedule's, in one wording
        for batch_size in (1, 0, -4):
            with pytest.raises(BatchTooSmall) as excinfo:
                build(batch_size)
            assert str(excinfo.value) == (
                f"batch size {batch_size} < 2: Gram matrix would be degenerate")

    @pytest.mark.parametrize("build, named", [
        (lambda: NetworkSpec.dense(2, [8.7], 3), "out_width must be an integer >= 1, got 8.7"),
        (lambda: NetworkSpec.dense(2, [True], 3), "out_width must be an integer >= 1, got True"),
        (lambda: LayerSpec(True, 2), "in_width must be an integer >= 1, got True"),
        (lambda: Dataset(np.zeros((2, 1)), [0, 1], class_count=2.5),
         "class_count must be an integer, got 2.5"),
        (lambda: Dataset(np.zeros((2, 1)), [0, 1], class_count=True),
         "class_count must be an integer, got True"),
    ], ids=["dense-float", "dense-bool", "layer-bool", "class_count-float",
            "class_count-bool"])
    def test_non_integer_width_or_class_count_is_refused(self, build, named):
        # neither truncated (8.7 -> 8) nor taken as 1 (True), and no bare
        # struct.error later from hashing a float class count
        with pytest.raises(FeatPriorError) as excinfo:
            build()
        assert str(excinfo.value) == named

    @pytest.mark.parametrize("build, named", [
        (lambda: PriorConfig(alpha=math.nan), "alpha must be finite and >= 0, got nan"),
        (lambda: PriorConfig(alpha=math.inf), "alpha must be finite and >= 0, got inf"),
        (lambda: PriorConfig(jitter=math.nan), "jitter must be finite and >= 0, got nan"),
        (lambda: PriorConfig(jitter=math.inf), "jitter must be finite and >= 0, got inf"),
        (lambda: PriorConfig(temperature=math.nan),
         "temperature must be finite and > 0, got nan"),
        (lambda: PriorConfig(temperature=math.inf),
         "temperature must be finite and > 0, got inf"),
        # hinton_baseline weighs its term by temperature ** 2, which must
        # neither overflow nor underflow to 0
        (lambda: PriorConfig(temperature=1e200),
         "temperature ** 2 must be a finite float > 0, got 1e+200 ** 2 = inf"),
        (lambda: PriorConfig(temperature=1e-200),
         "temperature ** 2 must be a finite float > 0, got 1e-200 ** 2 = 0.0"),
        (lambda: ExpertPrior(None, LayerGroupMapping(((0, 0),)), math.nan),
         "alpha must be a finite number > 0, got nan"),
        (lambda: ExpertPrior(None, LayerGroupMapping(((0, 0),)), math.inf),
         "alpha must be a finite number > 0, got inf"),
        # a step size <= 0 trains uphill or not at all; momentum >= 1 diverges
        (lambda: TrainPlan(lr_phase1=-0.01), "lr_phase1 must be finite and > 0, got -0.01"),
        (lambda: TrainPlan(lr_phase1=0.0), "lr_phase1 must be finite and > 0, got 0.0"),
        (lambda: TrainPlan(lr_phase2=math.nan), "lr_phase2 must be finite and > 0, got nan"),
        (lambda: TrainPlan(lr_phase2=math.inf), "lr_phase2 must be finite and > 0, got inf"),
        (lambda: TrainPlan(momentum=-3.0), "momentum must be in [0, 1), got -3.0"),
        (lambda: TrainPlan(momentum=1.0), "momentum must be in [0, 1), got 1.0"),
        (lambda: TrainPlan(momentum=math.nan), "momentum must be in [0, 1), got nan"),
        # numpy scalars pass the type rule and meet the same range checks
        (lambda: PriorConfig(alpha=np.float64(math.inf)),
         "alpha must be finite and >= 0, got inf"),
        (lambda: TrainPlan(lr_phase1=np.float32(math.nan)),
         "lr_phase1 must be finite and > 0, got nan"),
        # a wrong type is neither taken as truthy or as 1 nor left to fail
        # later with a bare TypeError or AttributeError
        (lambda: PriorConfig(normalize_by_width="no"),
         "normalize_by_width must be a bool, got 'no'"),
        (lambda: PriorConfig(alpha=True), "alpha must be a number, got True"),
        (lambda: PriorConfig(jitter="1e-4"), "jitter must be a number, got '1e-4'"),
        (lambda: PriorConfig(temperature=None), "temperature must be a number, got None"),
        (lambda: TrainPlan(lr_phase1=True), "lr_phase1 must be a number, got True"),
        (lambda: TrainPlan(lr_phase2="0.01"), "lr_phase2 must be a number, got '0.01'"),
        (lambda: TrainPlan(momentum="0.5"), "momentum must be a number, got '0.5'"),
        (lambda: TrainPlan(prior={"alpha": 1.0}),
         "prior must be a PriorConfig, got {'alpha': 1.0}"),
        (lambda: ExpertPrior(None, LayerGroupMapping(((0, 0),)), True),
         "alpha must be a finite number > 0, got True"),
        (lambda: TrainPlan(optimizer="rmsprop"), "unknown optimizer 'rmsprop'"),
    ], ids=["alpha-nan", "alpha-inf", "jitter-nan", "jitter-inf", "temperature-nan",
            "temperature-inf", "temperature-square-overflows", "temperature-square-underflows",
            "expert-alpha-nan", "expert-alpha-inf", "lr_phase1-negative",
            "lr_phase1-zero", "lr_phase2-nan", "lr_phase2-inf", "momentum-negative",
            "momentum-one", "momentum-nan", "alpha-numpy-inf", "lr_phase1-numpy-nan",
            "normalize-string", "alpha-bool", "jitter-string", "temperature-none",
            "lr_phase1-bool", "lr_phase2-string", "momentum-string", "prior-dict",
            "expert-alpha-bool", "optimizer-unknown"])
    def test_non_finite_is_refused(self, build, named):
        with pytest.raises(FeatPriorError) as excinfo:
            build()
        assert str(excinfo.value) == named

    @pytest.mark.parametrize("temperature", [1e154, 1e-161])
    def test_temperature_just_inside_its_square_range_is_accepted(self, temperature):
        square = PriorConfig(temperature=temperature).temperature ** 2
        assert 0.0 < square < math.inf


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

    def test_reads_no_mode_lr_phase1_or_prior(self, blobs):
        # a teacher trains in naive mode and takes no feature prior
        spec = NetworkSpec.dense(2, [8], 2)
        plan = TrainPlan(seed=5, batch_size=16, phase1_epochs=1, phase2_epochs=4)
        m1, r1 = train_teacher(blobs, spec, plan, test_fraction=0.5)
        m2, r2 = train_teacher(blobs, spec, replace(plan, mode="joint", lr_phase1=0.5,
                                                    prior=PriorConfig(alpha=3.0)),
                               test_fraction=0.5)
        assert params_equal(m1, m2)
        assert r1.per_seed == r2.per_seed

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
        spec = NetworkSpec((LayerSpec(2, 2, "identity"),) * 2)
        return Model(spec,
                     [np.eye(2, dtype=np.float32), np.eye(2, dtype=np.float32)],
                     [np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float32)])

    def test_identity_network_cache_equals_inputs(self):
        inputs = np.array([[0.25, -1.5], [2.0, 0.5], [1.0, 3.0]])
        ds = Dataset(inputs=inputs, labels=np.array([0, 1, 0]), class_count=2)
        cache = extract_features(self.identity_model(), ds, [0])
        np.testing.assert_array_equal(cache.groups[0], inputs.astype(np.float32))

    def test_round_trip_through_file(self, tmp_path, rings_setup):
        from featprior.data import dataset_fingerprint, read_cache, write_cache
        from featprior.network import model_fingerprint
        ds, _, teacher, cache = rings_setup
        path = tmp_path / "f.fpfc"
        write_cache(path, cache)
        restored = read_cache(path)
        assert restored.dataset_fingerprint == dataset_fingerprint(ds)
        assert restored.teacher_fingerprint == model_fingerprint(teacher)
        for gid, mat in cache.groups.items():
            np.testing.assert_array_equal(restored.groups[gid], mat)

    def test_final_layer_width_matches_spec(self, rings_setup):
        _, _, teacher, cache = rings_setup
        assert cache.groups[1].shape[1] == teacher.spec.layers[1].out_width

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

    def test_groups_equal_stacked_chunks(self, monkeypatch):
        # 150 rows in chunks of 16 leave a 6-row tail
        monkeypatch.setattr(train, "EXTRACT_CHUNK", 16)
        ds = synth_rings(50, 3, noise=0.1, seed=2)
        teacher = init_params(NetworkSpec.dense(2, [9, 5], 3, "tanh"), seed=4)
        cache = extract_features(teacher, ds, [2, 0, 1])
        records = [forward(teacher, ds.inputs[i:i + 16]) for i in range(0, ds.n, 16)]
        for lid in (0, 1, 2):
            stacked = np.vstack([np.asarray((r.activations + [r.logits])[lid],
                                            dtype=np.float32) for r in records])
            got = cache.groups[lid]
            assert got.dtype == np.float32 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, stacked)

    def test_peak_memory_is_groups_plus_two_chunks(self):
        # 4098 rows: the last of nine 512-row chunks holds 2
        ds = synth_rings(1366, 3, noise=0.1, seed=2)
        teacher = init_params(NetworkSpec.dense(2, [64, 64], 3), seed=0)
        cache, peak = traced_peak(extract_features, teacher, ds, [0, 1, 2])
        groups = sum(m.nbytes for m in cache.groups.values())
        chunk_activations = 512 * (64 + 64 + 3) * 8  # float64
        assert peak <= groups + 2 * chunk_activations

    def test_no_layer_ids_runs_no_forward(self, monkeypatch):
        # 1200 rows would take three 512-row chunks
        calls, original = [], train.forward

        def recorded(model, x):
            calls.append(len(x))
            return original(model, x)

        monkeypatch.setattr(train, "forward", recorded)
        ds = synth_blobs(600, 2, 2, separation=4.0, seed=0)
        cache = extract_features(init_params(NetworkSpec.dense(2, [4], 2), 0), ds, [])
        assert calls == [] and cache.groups == {}

    def test_stacked_model_gives_each_seed_its_own_bits(self, monkeypatch):
        # 150 rows in chunks of 16 leave a 6-row tail; slice s of each
        # group is seed s's lone cache, bit for bit
        monkeypatch.setattr(train, "EXTRACT_CHUNK", 16)
        ds = synth_rings(50, 3, noise=0.1, seed=2)
        spec = NetworkSpec.dense(2, [9, 5], 3, "tanh")
        teachers = [init_params(spec, seed=s) for s in (4, 5)]
        cache = extract_features(stack_models(teachers), ds, [2, 0, 1])
        assert len(cache.teacher_fingerprint) == 32
        lone = [extract_features(t, ds, [0, 1, 2]) for t in teachers]
        for lid, width in ((0, 9), (1, 5), (2, 3)):
            got = cache.groups[lid]
            assert got.shape == (2, ds.n, width) and got.dtype == np.float32
            for s, single in enumerate(lone):
                assert got[s].tobytes() == single.groups[lid].tobytes()


class TestPhase1:
    def test_stationary_start_is_noop(self, rings_setup):
        ds, split, teacher, cache = rings_setup
        # student whose feature layers are a bitwise copy of the teacher's
        student = Model(
            spec=teacher.spec,
            weights=[w.copy() for w in teacher.weights[:-1]]
            + [init_params(teacher.spec, 99).weights[-1]],
            biases=[b.copy() for b in teacher.biases[:-1]]
            + [np.zeros(2, dtype=np.float32)],
        )
        plan = TrainPlan(seed=2, batch_size=16, phase1_epochs=10,
                         phase2_epochs=0, optimizer="sgd", momentum=0.0,
                         lr_phase1=1e-3,
                         prior=PriorConfig(jitter=1e-3))
        log = []
        fitted, final_kl = phase1_feature_fit(
            student, ds, one_expert(cache, LayerGroupMapping(entries=((1, 1),))), plan,
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
            student, ds, one_expert(cache, LayerGroupMapping(entries=((0, 0),))), plan,
            train=split.train, log=log)
        assert final_kl < 0.1 * log[0].kl_loss
        # trend oracle: medians of 10-epoch windows never increase
        kls = [r.kl_loss for r in log]
        medians = [float(np.median(kls[i:i + 10])) for i in range(0, 50, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(medians, medians[1:]))

    @staticmethod
    def per_slice(shape) -> list:
        """One n x n shape per matrix of a (stacked) factored array."""
        return [tuple(shape[-2:])] * math.prod(shape[:-2])

    @pytest.mark.parametrize("width,calls_per_step", [(4, 1), (32, 2)])
    def test_narrow_student_gram_never_factored(self, blobs, monkeypatch,
                                                width, calls_per_step):
        # only the teacher's Gram is formed and factored while the batch
        # outnumbers the student's features; a student wider than the
        # batch still has its own 16 x 16 Gram formed and factored.  The
        # teacher's are built a stack of batches at a time, so every
        # factored Gram counts once per slice
        sizes = []
        original = gp_prior._gram_kernel

        def counted(arr, config):
            kernel = original(arr, config)
            sizes.extend(self.per_slice(kernel.factor.lower.shape))
            return kernel

        monkeypatch.setattr(gp_prior, "_gram_kernel", counted)
        teacher = init_params(NetworkSpec.dense(2, [8], 2), seed=0)
        cache = extract_features(teacher, blobs, [0])
        student = init_params(NetworkSpec.dense(2, [width], 2), seed=1)
        plan = TrainPlan(seed=1, batch_size=16, phase1_epochs=2,
                         prior=PriorConfig(jitter=1e-3))
        schedule = BatchSchedule(np.arange(64), 16, seed=1)
        phase1_feature_fit(student, blobs,
                           one_expert(cache, LayerGroupMapping(entries=((0, 0),))), plan,
                           schedule=schedule)
        steps = 2 * 64 // 16
        assert len(sizes) == calls_per_step * steps
        assert sizes.count((8, 8)) == steps
        assert sizes.count((16, 16)) == (calls_per_step - 1) * steps

    def test_narrow_teacher_gram_never_factored(self, blobs, monkeypatch):
        # with the batch outnumbering both the student's and the teacher's
        # features, only the p x p matrices of either side are factored,
        # counted once per slice of a stacked factorization
        sizes = []
        original = linalg.cholesky

        def recorded(a):
            sizes.extend(self.per_slice(np.shape(a)))
            return original(a)

        monkeypatch.setattr(linalg, "cholesky", recorded)
        teacher = init_params(NetworkSpec.dense(2, [8], 2), seed=0)
        cache = extract_features(teacher, blobs, [0])
        student = init_params(NetworkSpec.dense(2, [4], 2), seed=1)
        plan = TrainPlan(seed=1, batch_size=16, phase1_epochs=2,
                         prior=PriorConfig(jitter=1e-3))
        schedule = BatchSchedule(np.arange(64), 16, seed=1)
        phase1_feature_fit(student, blobs,
                           one_expert(cache, LayerGroupMapping(entries=((0, 0),))), plan,
                           schedule=schedule)
        steps = 2 * 64 // 16
        assert sorted(set(sizes)) == [(4, 4), (8, 8)]
        assert len(sizes) == 2 * steps

    def test_stacked_fit_kls_match_seed_runs(self, rings_setup, monkeypatch):
        # 100 train rows in batches of 4 make 25 steps an epoch, more than
        # numpy's 8-value pairwise block, so a mean over steps taken along
        # a strided axis would round differently from each seed's own mean
        ds, split, _, cache = rings_setup
        spec = NetworkSpec.dense(2, [4], 2)
        plan = TrainPlan(batch_size=4, phase1_epochs=2, phase2_epochs=0, lr_phase1=1e-2)
        mapping = LayerGroupMapping(entries=((0, 1),))
        seeds = (1, 2, 3)
        schedules = [BatchSchedule(split.train.source_indices, 4, s) for s in seeds]
        singles = [phase1_feature_fit(init_params(spec, s), ds, one_expert(cache, mapping),
                                      plan, schedule=schedule)
                   for s, schedule in zip(seeds, schedules)]
        stacked_cache = FeatureCache(
            groups={gid: np.stack([g] * 3) for gid, g in cache.groups.items()},
            dataset_fingerprint=cache.dataset_fingerprint,
            teacher_fingerprint=cache.teacher_fingerprint)
        epoch_kls, fit_epochs = [], train._fit_epochs

        def recording_fit_epochs(*args, **kwargs):
            epoch_kls.append(fit_epochs(*args, **kwargs))
            return epoch_kls[-1]

        monkeypatch.setattr(train, "_fit_epochs", recording_fit_epochs)
        model, kl = phase1_feature_fit(
            stack_models([init_params(spec, s) for s in seeds]), ds,
            one_expert(stacked_cache, mapping), plan,
            schedule=train._StackedSchedule(schedules))
        # one final-epoch KL per seed, each that seed's own; the call returns
        # their mean with the arithmetic of statistics.fmean
        assert epoch_kls[0].tolist() == [k for _, k in singles]
        assert kl == math.fsum(k for _, k in singles) / 3
        for back, (single, _) in zip(unstack_model(model), singles):
            assert params_equal(back, single)

    def test_empty_mapping_returns_model_unchanged(self, rings_setup):
        ds, split, _, cache = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=6)
        log = []
        fitted, final_kl = phase1_feature_fit(
            student, ds, one_expert(cache, LayerGroupMapping(entries=())),
            TrainPlan(seed=6, batch_size=16), train=split.train, log=log)
        assert params_equal(fitted, student)
        assert final_kl is None
        assert log == []

    def test_label_blindness_bitwise(self, rings_setup):
        ds, split, teacher, cache = rings_setup
        rng = np.random.default_rng(0)
        permuted = Dataset(inputs=ds.inputs,
                           labels=rng.permutation(ds.labels),
                           class_count=ds.class_count)
        permuted_split = split_and_batch(permuted, 0.5, 16, seed=1)
        permuted_cache = extract_features(teacher, permuted, [0, 1, 2])
        np.testing.assert_array_equal(permuted_split.train.source_indices,
                                      split.train.source_indices)

        student = init_params(NetworkSpec.dense(2, [8], 2), seed=7)
        plan = TrainPlan(seed=7, batch_size=16, phase1_epochs=5,
                         phase2_epochs=0, lr_phase1=1e-2)
        mapping = LayerGroupMapping(entries=((0, 1),))
        a, _ = phase1_feature_fit(student, ds, one_expert(cache, mapping), plan,
                                  train=split.train)
        b, _ = phase1_feature_fit(student, permuted, one_expert(permuted_cache, mapping),
                                  plan, train=permuted_split.train)
        assert params_equal(a, b)

    def test_cache_from_other_dataset_rejected(self, rings_setup):
        ds, split, _, cache = rings_setup
        other = synth_blobs(ds.n // 2, 2, 2, separation=2.0, seed=9)
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=8)
        with pytest.raises(BatchMismatch):
            phase1_feature_fit(student, other,
                               one_expert(cache, LayerGroupMapping(entries=((0, 1),))),
                               TrainPlan(seed=8, batch_size=16))

    @pytest.mark.parametrize("student_idx", [1, -1])
    def test_student_layer_out_of_range(self, rings_setup, student_idx):
        # checked before anything trains, whichever group the pair names
        ds, _, _, cache = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=8)
        mapping = LayerGroupMapping(entries=((student_idx, 1),))
        with pytest.raises(LayerOutOfRange) as excinfo:
            phase1_feature_fit(student, ds, one_expert(cache, mapping),
                               TrainPlan(seed=8, batch_size=16))
        assert str(excinfo.value) == f"student layer {student_idx} outside 0..0"

    def test_alignment_error_types(self, rings_setup):
        ds, _, _, cache = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=8)

        def fit(dataset):
            phase1_feature_fit(student, dataset,
                               one_expert(cache, LayerGroupMapping(entries=((0, 1),))),
                               TrainPlan(seed=8, batch_size=16))

        same_rows = synth_rings(100, 2, noise=0.1, seed=4)
        assert same_rows.n == ds.n
        with pytest.raises(FingerprintMismatch):
            fit(same_rows)
        with pytest.raises(BatchMismatch) as excinfo:
            fit(synth_rings(60, 2, noise=0.1, seed=3))
        assert not isinstance(excinfo.value, FingerprintMismatch)


class TestEpochTeacherKernels:
    """An epoch's teacher kernels, built a stack of batches at a time,
    give each step the KL value, gradient and teacher jitter of that
    step's own ``feature_kernel`` call, bit for bit.  50 rows in batches
    of 8 make six full batches and a tail of 2; a budget of four batches
    cuts the full ones into chunks of 4 and 2, and the tail is built alone."""

    def check(self, monkeypatch, group, batches, cfg, p_s):
        """Steps through ``_teacher_kernels`` against per-batch kernels;
        returns the stack shape of each build and each step's jitter."""
        step_bytes = batches[0].size * group.shape[-1] * 8
        monkeypatch.setattr(train, "_TEACHER_CHUNK_BYTES", 4 * step_bytes)
        builds = []
        original = train.feature_kernel

        def recorded(phi, config):
            builds.append(np.shape(phi)[:-2])
            return original(phi, config)

        monkeypatch.setattr(train, "feature_kernel", recorded)
        rng = np.random.default_rng(94)
        jitters = []
        for idx, k_t in zip(batches, train._teacher_kernels(group, batches, cfg),
                            strict=True):
            ref = gp_prior.feature_kernel(train._rows(group, idx).astype(np.float64), cfg)
            assert (k_t.basis is None) == (ref.basis is None) == (group.shape[-1] >= idx.shape[-1])
            np.testing.assert_array_equal(k_t.jitter, ref.jitter)
            phi_s = rng.standard_normal(idx.shape + (p_s,))
            value, grad = gp_prior.feature_kl_and_grad(phi_s, k_t, cfg)
            ref_value, ref_grad = gp_prior.feature_kl_and_grad(phi_s, ref, cfg)
            np.testing.assert_array_equal(value, ref_value)
            np.testing.assert_array_equal(grad, ref_grad)
            jitters.append(np.asarray(k_t.jitter).tolist())
        return builds, jitters

    @staticmethod
    def group(p_t, seeds=None):
        shape = (50, p_t) if seeds is None else (seeds, 50, p_t)
        return np.random.default_rng(p_t).standard_normal(shape).astype(np.float32)

    # p_t = 10 >= 8 gives dense kernels, p_t = 5 < 8 basis kernels (and a
    # dense one for the tail of 2); students 12 and 3 wide take the n x n
    # and the p x p branch of the student side
    @pytest.mark.parametrize("p_t,p_s", [(10, 12), (5, 3)], ids=["dense", "basis"])
    def test_one_run(self, monkeypatch, p_t, p_s):
        batches = BatchSchedule(np.arange(50), 8, seed=1).epoch_batches(0)
        builds, jitters = self.check(monkeypatch, self.group(p_t), batches,
                                     PriorConfig(jitter=1e-3), p_s)
        assert builds == [(4,), (2,), ()]
        assert jitters == [1e-3] * 7

    @pytest.mark.parametrize("p_t,p_s", [(10, 12), (5, 3)], ids=["dense", "basis"])
    def test_seed_stacked_cache(self, monkeypatch, p_t, p_s):
        batches = train._StackedSchedule(
            [BatchSchedule(np.arange(50), 8, seed) for seed in (1, 2)]).epoch_batches(0)
        builds, _ = self.check(monkeypatch, self.group(p_t, seeds=2), batches,
                               PriorConfig(jitter=1e-3), p_s)
        assert builds == [(4, 2), (2, 2), (2,)]

    def test_one_slice_of_a_chunk_escalates(self, monkeypatch):
        # the second batch starts with two copies of e_1, so its Gram is
        # singular at jitter 1e-16 (1 + 1e-16 rounds to 1) and factors at
        # 1e-15; its chunk is refactored slice by slice, the others not
        cfg = PriorConfig(jitter=1e-16, normalize_by_width=False)
        batches = BatchSchedule(np.arange(50), 8, seed=1).epoch_batches(0)
        group = self.group(10)
        group[batches[1][:2]] = np.eye(10, dtype=np.float32)[0]
        builds, jitters = self.check(monkeypatch, group, batches, cfg, 12)
        assert builds == [(4,), (2,), ()]
        assert jitters == [1e-16, 1e-15] + [1e-16] * 5

    @pytest.mark.parametrize("p_t", [10, 5], ids=["dense", "basis"])
    def test_one_run_alive_at_a_time(self, monkeypatch, p_t):
        # runs of 4, 2 and a lone tail batch, stepped as the objective steps
        # them, holding one slice at a time: no array of a run is alive while
        # the next run is built, and a slice holds L^{-1} and not the Gram or L
        batches = BatchSchedule(np.arange(50), 8, seed=1).epoch_batches(0)
        group = self.group(p_t)
        monkeypatch.setattr(train, "_TEACHER_CHUNK_BYTES", 4 * 8 * p_t * 8)
        runs = []  # per run: weakrefs to (its inverse and Q, its Gram and L)
        original, factor_jittered = train.feature_kernel, gp_prior._factor_jittered
        factored = []  # what feature_kernel factored: (Gram, its factor)

        def observed(base, jitter, what):
            gram, used, factor = factor_jittered(base, jitter, what)
            factored.append((gram, factor))
            return gram, used, factor

        def recorded(phi, config):
            assert all(ref() is None for kept, dropped in runs for ref in kept + dropped)
            k = original(phi, config)
            (gram, factor), = factored
            factored.clear()
            kept = [factor.inverse] + ([k.basis] if k.basis is not None else [])
            runs.append(([weakref.ref(a) for a in kept],
                         [weakref.ref(gram), weakref.ref(factor.lower)]))
            return k

        monkeypatch.setattr(gp_prior, "_factor_jittered", observed)
        monkeypatch.setattr(train, "feature_kernel", recorded)
        kernels = train._teacher_kernels(group, batches, PriorConfig(jitter=1e-3))
        for run in [0] * 4 + [1] * 2 + [2]:
            k_t = next(kernels)
            assert len(runs) == run + 1
            kept, dropped = runs[run]
            assert k_t.inverse.base is kept[0]() or k_t.inverse is kept[0]()
            assert all(ref() is None for ref in dropped)
            del k_t
        assert next(kernels, None) is None
        assert all(ref() is None for kept, dropped in runs for ref in kept + dropped)

    @pytest.mark.parametrize("mode", ["two_phase", "joint"])
    def test_fit_matches_per_batch_kernels(self, rings_setup, monkeypatch, mode):
        # 100 train rows in batches of 16: one stack of six and a tail of 4;
        # a zero budget builds every batch alone, as one call a step
        ds, split, _, cache = rings_setup
        plan = TrainPlan(seed=3, batch_size=16, phase1_epochs=2, phase2_epochs=1,
                         lr_phase1=1e-2, mode=mode)

        def fit():
            result = run_distillation(NetworkSpec.dense(2, [4], 2), ds, split, plan,
                                      cache=cache, mapping=LayerGroupMapping(((0, 1),)))
            return result.model, run_log_csv(result.log)

        stacked_model, stacked_log = fit()
        monkeypatch.setattr(train, "_TEACHER_CHUNK_BYTES", 0)
        model, log = fit()
        assert params_equal(stacked_model, model)
        assert stacked_log == log

    def test_terms_share_a_group_kernel(self, rings_setup, monkeypatch):
        # mapping [[0, 1], [1, 1]] reads group 1 twice: its kernels are built
        # once a batch, and the fit has the bits of [[0, 1], [1, 3]], where
        # group 3 is a copy of group 1 and so is built on its own
        ds, split, _, cache = rings_setup
        plan = TrainPlan(seed=3, batch_size=16, phase1_epochs=2, phase2_epochs=1,
                         lr_phase1=1e-2)
        copied = replace(cache, groups={**cache.groups, 3: cache.groups[1].copy()})
        built = []  # teacher batches per feature_kernel call
        original = train.feature_kernel

        def recorded(phi, config):
            built.append(int(np.prod(np.shape(phi)[:-2])))
            return original(phi, config)

        monkeypatch.setattr(train, "feature_kernel", recorded)

        def fit(cache, second):
            built.clear()
            result = run_distillation(
                NetworkSpec.dense(2, [4, 4], 2), ds, split, plan, cache=cache,
                mapping=LayerGroupMapping(((0, 1), (1, second))))
            return result.model, run_log_csv(result.log), sum(built)

        shared_model, shared_log, shared_built = fit(cache, 1)
        model, log, separate_built = fit(copied, 3)
        # 100 train rows in batches of 16: 7 batches an epoch, 2 epochs
        assert (shared_built, separate_built) == (2 * 7, 2 * 2 * 7)
        assert params_equal(shared_model, model)
        assert shared_log == log

    @pytest.mark.parametrize("fit", ["experts", "joint"])
    def test_built_once_an_epoch_per_group(self, rings_setup, monkeypatch, fit):
        # each call is given its epoch's whole batch list (100 train rows in
        # batches of 16: 7 batches), one call per distinct group read: two
        # experts on groups 1 and 0 for phase 1's 2 epochs, or a joint
        # mapping on groups 0 and 1 for all 3 epochs
        ds, split, _, cache = rings_setup
        plan = TrainPlan(seed=3, batch_size=16, phase1_epochs=2, phase2_epochs=1,
                         lr_phase1=1e-2, mode="joint")
        gids = {id(group): gid for gid, group in cache.groups.items()}
        calls, original = [], train._teacher_kernels

        def recorded(group, batches, config):
            calls.append((gids[id(group)], [idx.copy() for idx in batches]))
            return original(group, batches, config)

        monkeypatch.setattr(train, "_teacher_kernels", recorded)
        student = NetworkSpec.dense(2, [4, 4], 2)
        if fit == "experts":
            combine_experts_fit(init_params(student, 3), ds, ExpertPriorSet((
                ExpertPrior(cache, LayerGroupMapping(((0, 1),))),
                ExpertPrior(cache, LayerGroupMapping(((1, 0), (0, 1))), 0.5))),
                plan, train=split.train)
            epochs = plan.phase1_epochs
        else:
            run_distillation(student, ds, split, plan, cache=cache,
                             mapping=LayerGroupMapping(((0, 0), (1, 1), (1, 0))))
            epochs = plan.total_epochs
        schedule = BatchSchedule(split.train.source_indices, plan.batch_size, plan.seed)
        assert len(calls) == 2 * epochs
        for epoch in range(epochs):
            batches = schedule.epoch_batches(epoch)
            assert len(batches) == 7
            epoch_calls = calls[2 * epoch:2 * epoch + 2]
            assert sorted(gid for gid, _ in epoch_calls) == [0, 1]
            for _, given in epoch_calls:
                assert len(given) == len(batches)
                for got, idx in zip(given, batches):
                    np.testing.assert_array_equal(got, idx)

    def test_compare_matches_per_batch_kernels(self, rings_setup, monkeypatch):
        # seeds stacked, and joint's block of a (mode, seed) stack
        ds = rings_setup[0]
        plan = TrainPlan(batch_size=16, phase1_epochs=1, phase2_epochs=1, lr_phase1=1e-2)

        def table():
            return compare_methods(
                ds, NetworkSpec.dense(2, [8], 2), NetworkSpec.dense(2, [4], 2),
                {mode: replace(plan, mode=mode) for mode in MODES},
                [1, 2], teacher_plan=replace(plan, phase2_epochs=3),
                mapping=LayerGroupMapping(((0, 0),)), test_fraction=0.5).comparison_csv()

        stacked = table()
        monkeypatch.setattr(train, "_TEACHER_CHUNK_BYTES", 0)
        assert stacked == table()


class TestStudentHalves:
    """Three terms on two student layers: teacher A's groups 0 and 1 on
    layer 1, teacher B's group 2 on layer 0 at weight 0.5.  Each step forms
    a layer's half of the KL once and shares it among the layer's terms."""

    @staticmethod
    def experts(cache):
        return (ExpertPrior(cache, LayerGroupMapping(((1, 0), (1, 1)))),
                ExpertPrior(cache, LayerGroupMapping(((0, 2),)), 0.5))

    def test_step_matches_per_term_calls(self, rings_setup):
        # value and summed gradients have the bits of one feature_kl_and_grad
        # call per term, layer 1's gradients summed last term first
        ds, _, _, cache = rings_setup
        cfg = PriorConfig()
        idx = np.arange(16)
        record = forward(init_params(NetworkSpec.dense(2, [4, 20], 2), 18), ds.inputs[idx])
        objective = train._prior_objective(self.experts(cache), cfg, scale=2.0)
        kl, _, _, act_grads, _ = objective([idx])(record, idx, None)

        def term(layer, gid):
            k_t = gp_prior.feature_kernel(cache.groups[gid][idx].astype(np.float64), cfg)
            return gp_prior.feature_kl_and_grad(record.activations[layer], k_t, cfg)

        (v10, g10), (v11, g11), (v02, g02) = term(1, 0), term(1, 1), term(0, 2)
        assert kl == 0.0 + 1.0 * v10 + 1.0 * v11 + 0.5 * v02
        assert sorted(act_grads) == [0, 1]
        np.testing.assert_array_equal(act_grads[0], 2.0 * 0.5 * g02)
        np.testing.assert_array_equal(act_grads[1], 2.0 * 1.0 * g11 + 2.0 * 1.0 * g10)

    def test_one_half_per_layer_a_step(self, rings_setup, monkeypatch):
        ds, split, _, cache = rings_setup
        halves = []
        original = train._student_half

        def recorded(arr, config):
            halves.append(arr.shape[-1])
            return original(arr, config)

        monkeypatch.setattr(train, "_student_half", recorded)
        plan = TrainPlan(seed=19, batch_size=16, phase1_epochs=1, phase2_epochs=1,
                         lr_phase1=1e-2)
        combine_experts_fit(init_params(NetworkSpec.dense(2, [4, 3], 2), 19), ds,
                            ExpertPriorSet(self.experts(cache)), plan,
                            train=split.train)
        # 100 train rows in batches of 16 make 7 steps, each forming two
        # halves for its three terms, layer 1's first
        assert halves == [3, 4] * 7


class TestPhase2:
    def test_freeze_nothing_reduces_to_naive(self, rings_setup):
        ds, split, _, _ = rings_setup
        spec = NetworkSpec.dense(2, [8], 2)
        student = init_params(spec, seed=10)
        plan = TrainPlan(seed=10, batch_size=16, phase1_epochs=0,
                         phase2_epochs=6, mode="naive")
        via_phase2 = phase2_task_fit(student, ds, plan, frozen_layers=(),
                                     train=split.train)
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
        assert not np.array_equal(fitted.weights[-1], student.weights[-1])

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
        after1, _ = phase1_feature_fit(student, ds, one_expert(cache, mapping), plan,
                                       train=split.train)
        after2 = phase2_task_fit(after1, ds, plan, mapping.student_layers(),
                                 train=split.train)
        np.testing.assert_array_equal(after2.weights[0], after1.weights[0])
        np.testing.assert_array_equal(after2.biases[0], after1.biases[0])
        assert not np.array_equal(after2.weights[-1], after1.weights[-1])

    @pytest.mark.parametrize("bad", [2, 5, -1, "0", 0.0, True],
                             ids=["2", "5", "-1", "str-0", "0.0", "True"])
    def test_frozen_id_not_a_layer_rejected(self, rings_setup, bad):
        # a one-hidden-layer student has layers 0 (hidden) and 1 (head)
        ds, split, _, _ = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=12)
        log = []
        with pytest.raises(LayerOutOfRange) as excinfo:
            phase2_task_fit(student, ds, TrainPlan(seed=12, batch_size=16),
                            frozen_layers={bad}, train=split.train, log=log)
        assert str(excinfo.value) == f"frozen layer {bad!r} outside 0..1"
        assert log == []

    def test_valid_frozen_ids_train_from_phase1_epochs(self, rings_setup):
        # numpy ids freeze the same layers, and the fit logs phase 2's epochs
        # from phase1_epochs on, as two_phase's task fit does
        ds, split, _, _ = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=12)
        plan = TrainPlan(seed=12, batch_size=16, phase1_epochs=3, phase2_epochs=2)
        log = []
        fitted = phase2_task_fit(student, ds, plan, frozen_layers=[np.int64(0)],
                                 train=split.train, log=log)
        plain = phase2_task_fit(student, ds, plan, frozen_layers={0}, train=split.train)
        assert params_equal(fitted, plain)
        np.testing.assert_array_equal(fitted.weights[0], student.weights[0])
        assert not np.array_equal(fitted.weights[1], student.weights[1])
        assert [(r.epoch, r.phase) for r in log] == [(3, 2), (4, 2)]


class TestModeRefusals:
    """``_fit_mode`` refuses a mode's missing teacher inputs before training,
    through ``run_distillation``, with one message each."""

    @pytest.mark.parametrize("mode, inputs, message", [
        ("two_phase", {}, "two_phase mode needs a feature cache and mapping"),
        ("joint", {"logits_group": 2},
         "joint mode needs a teacher feature cache and a mapping"),
        ("hinton_baseline", {"mapping": LayerGroupMapping(entries=((0, 1),))},
         "hinton_baseline mode needs a teacher feature cache and its logits"),
        ("l2_baseline", {"mapping": LayerGroupMapping(entries=((0, 1),))},
         "l2_baseline mode needs a teacher feature cache and its logits"),
        ("hinton_baseline", {"logits_group": 9}, "feature group 9 not present in cache"),
    ], ids=["two_phase-no-cache", "joint-no-mapping", "hinton-no-logits",
            "l2-no-logits", "hinton-group-9"])
    def test_missing_teacher_input(self, rings_setup, mode, inputs, message):
        ds, split, _, cache = rings_setup
        if mode != "two_phase":
            inputs = {"cache": cache, **inputs}
        plan = TrainPlan(seed=16, batch_size=16, phase1_epochs=1, phase2_epochs=1,
                         mode=mode)
        with pytest.raises(ConfigError) as excinfo:
            run_distillation(NetworkSpec.dense(2, [8], 2), ds, split, plan, **inputs)
        assert str(excinfo.value) == message


class TestOptimizerSettings:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_momentum_moves_sgd_only(self, rings_setup, optimizer):
        # sgd_step is the one reader of momentum: two plans that differ only
        # in it train byte-identical students under adam, and not under sgd
        ds, split, _, cache = rings_setup
        plan = TrainPlan(seed=17, batch_size=16, phase1_epochs=2, phase2_epochs=2,
                         optimizer=optimizer, lr_phase1=1e-5, lr_phase2=1e-2)
        models = [serialize_model(run_distillation(
            NetworkSpec.dense(2, [8], 2), ds, split, replace(plan, momentum=momentum),
            cache=cache, mapping=LayerGroupMapping(entries=((0, 1),))).model)
            for momentum in (0.0, 0.9)]
        assert (models[0] == models[1]) == (optimizer == "adam")

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
        # an empty mapping has nothing to fit: no phase-1 rows and no KL either way
        for entries, phase1_rows in ((((0, 1),), 4), ((), 0)):
            mapping = LayerGroupMapping(entries=entries)
            experts = ExpertPriorSet(experts=(
                ExpertPrior(cache=cache, mapping=mapping, alpha=1.0),))
            combined_log, plain_log = [], []
            # combined experts train two_phase whatever the plan's mode
            combined = combine_experts_fit(student, ds, experts, replace(plan, mode="joint"),
                                           train=split.train, test=split.test,
                                           log=combined_log)
            after1, _ = phase1_feature_fit(student, ds, one_expert(cache, mapping), plan,
                                           train=split.train, test=split.test,
                                           log=plain_log)
            plain = phase2_task_fit(after1, ds, plan, mapping.student_layers(),
                                    train=split.train, test=split.test,
                                    log=plain_log)
            assert params_equal(combined, plain)
            assert run_log_csv(combined_log) == run_log_csv(plain_log)
            assert [r.phase for r in combined_log] == [1] * phase1_rows + [2] * 4
            # a distill reports phase 1's final KL, the same bits either way
            via_experts = run_distillation(spec, ds, split, plan, experts=experts)
            via_plain = run_distillation(spec, ds, split, plan, cache=cache, mapping=mapping)
            assert params_equal(via_experts.model, via_plain.model)
            assert (via_plain.final_kl is None) == (not entries)
            assert repr(via_experts.final_kl) == repr(via_plain.final_kl)
        # with two experts it is the last phase-1 epoch's logged KL
        experts = ExpertPriorSet(experts=(
            ExpertPrior(cache=cache, mapping=LayerGroupMapping(entries=((0, 1),))),
            ExpertPrior(cache=cache, mapping=LayerGroupMapping(entries=((0, 0),)),
                        alpha=0.5)))
        result = run_distillation(spec, ds, split, plan, experts=experts)
        phase1_kls = [r.kl_loss for r in result.log if r.phase == 1]
        assert len(phase1_kls) == 4
        assert result.final_kl == phase1_kls[-1]

    @pytest.mark.parametrize("mode", ["naive", "joint", "hinton_baseline",
                                      "l2_baseline"])
    def test_experts_need_two_phase(self, rings_setup, mode):
        ds, split, _, cache = rings_setup
        experts = ExpertPriorSet(experts=(
            ExpertPrior(cache=cache, mapping=LayerGroupMapping(entries=((0, 1),))),))
        plan = TrainPlan(seed=16, batch_size=16, phase1_epochs=1,
                         phase2_epochs=1, mode=mode)
        with pytest.raises(ConfigError, match=f"need two_phase mode, not {mode}"):
            run_distillation(NetworkSpec.dense(2, [8], 2), ds, split, plan,
                             cache=cache, experts=experts, logits_group=2)

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
            # the student's train rows of the expert's two classes, so no
            # expert sees a test row
            rows = split.train.source_indices
            rows = rows[np.isin(full.labels[rows], [lo, lo + 1])]
            sub = Dataset(inputs=full.inputs[rows], labels=full.labels[rows] - lo,
                          class_count=2)
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
        metrics = evaluate(model, full, split.test)
        assert metrics.accuracy >= 0.375  # 1.5x chance on 4 classes
        # above chance restricted to each subtask's examples
        rows = split.test.source_indices
        predictions = np.argmax(predict_logits(model, full.inputs, rows), axis=1)
        test_labels = full.labels[rows]
        for lo in (0, 2):
            mask = np.isin(test_labels, [lo, lo + 1])
            acc = float(np.mean(predictions[mask] == test_labels[mask]))
            assert acc > 0.3

    def test_empty_expert_set_rejected(self):
        with pytest.raises(EmptyExpertSet):
            ExpertPriorSet(experts=())


def identity_hidden_model(head_weight, head_bias) -> Model:
    """A 2 -> 2 identity hidden layer under the given head."""
    spec = NetworkSpec((LayerSpec(2, 2, "identity"),
                        LayerSpec(2, len(head_bias), "identity")))
    return Model(spec, [np.eye(2, dtype=np.float32),
                        np.asarray(head_weight, dtype=np.float32)],
                 [np.zeros(2, dtype=np.float32), np.asarray(head_bias, dtype=np.float32)])


class TestEvaluate:
    def perfect_model(self):
        return identity_hidden_model(10.0 * np.eye(2), np.zeros(2))

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
        model = identity_hidden_model(np.zeros((2, 2)), [1.0, 0.0])
        metrics = evaluate(model, ds)
        # always predicts class 0: acc 1/2; F1 = (2/3 + 0) / 2 = 1/3
        assert metrics.accuracy == pytest.approx(0.5)
        assert metrics.f1_macro == pytest.approx(1.0 / 3.0)
        assert metrics.f1_micro == pytest.approx(0.5)

    def test_class_absent_from_truth_and_predictions(self):
        # class 2 is neither a label nor a prediction: its F1 counts as 0
        ds = self.onehot_dataset()
        ds = Dataset(inputs=ds.inputs, labels=ds.labels, class_count=3)
        model = identity_hidden_model(10.0 * np.eye(2, 3), [0.0, 0.0, -10.0])
        metrics = evaluate(model, ds)
        assert metrics.accuracy == 1.0
        assert metrics.f1_micro == 1.0
        assert metrics.f1_macro == pytest.approx(2.0 / 3.0)

    def test_head_width_must_match_class_count(self):
        # a 3-output head on 2-class data: its class-2 predictions would
        # fall outside the per-class F1 counts
        model = identity_hidden_model(10.0 * np.eye(2, 3), np.zeros(3))
        with pytest.raises(DimensionMismatch, match="3 classes, dataset has 2"):
            evaluate(model, self.onehot_dataset())

    def test_stacked_model_is_refused(self):
        # its (2, rows, classes) logits would not broadcast with the labels
        ds = synth_rings(10, 3, 0.1, seed=0)
        model = init_params(NetworkSpec.dense(2, [5], 3), seed=36)
        with pytest.raises(DimensionMismatch, match="unstack_model"):
            evaluate(stack_models([model, model]), ds)

    def test_stacked_logits_are_each_seeds(self):
        # 1,200 rows are a 1,024-row and a 176-row chunk, joined on the
        # row axis after the seed axis
        ds = synth_rings(400, 3, 0.1, seed=0)
        models = [init_params(NetworkSpec.dense(2, [5], 3), seed=s) for s in (36, 37)]
        logits = predict_logits(stack_models(models), ds.inputs)
        assert logits.shape == (2, ds.n, 3)
        for got, model in zip(logits, models):
            np.testing.assert_array_equal(got, predict_logits(model, ds.inputs))

    def test_top_c_is_one(self):
        # two classes: top-2 and top-3 both take every class
        ds = self.onehot_dataset()
        model = init_params(NetworkSpec.dense(2, [4], 2), seed=30)
        metrics = evaluate(model, ds)
        assert metrics.top_k[2] == metrics.top_k[3] == 1.0

    @staticmethod
    def assert_metrics_equal(a: Metrics, b: Metrics) -> None:
        for f in fields(Metrics):
            assert getattr(a, f.name) == getattr(b, f.name), f.name

    def test_rows_score_as_a_materialized_dataset(self):
        # 2,500 test rows are three chunks of predict_logits' 1024
        ds = synth_blobs(1000, 4, 6, 2.0, seed=32)
        rows = split_and_batch(ds, 0.625, 16, seed=33).test
        assert rows.n == 2500
        r = rows.source_indices
        copy = Dataset(ds.inputs[r], ds.labels[r], ds.class_count)
        model = init_params(NetworkSpec.dense(6, [8], 4), seed=34)
        np.testing.assert_array_equal(predict_logits(model, ds.inputs, r),
                                      predict_logits(model, copy.inputs))
        self.assert_metrics_equal(evaluate(model, ds, rows), evaluate(model, copy))

    def test_no_rows_scores_every_row(self):
        ds = synth_blobs(700, 2, 3, 2.0, seed=35)
        model = init_params(NetworkSpec.dense(3, [5], 2), seed=36)
        every = np.arange(ds.n)
        logits = predict_logits(model, ds.inputs)
        assert logits.shape == (ds.n, 2)
        np.testing.assert_array_equal(logits, predict_logits(model, ds.inputs, every))
        self.assert_metrics_equal(evaluate(model, ds), evaluate(model, ds, Rows(every)))

    def test_one_shot_rows_score_as_their_array(self):
        ds = synth_blobs(10, 3, 2, 2.0, seed=35)
        model = init_params(NetworkSpec.dense(2, [5], 3), seed=36)
        self.assert_metrics_equal(evaluate(model, ds, Rows(i for i in range(0, 30, 2))),
                                  evaluate(model, ds, Rows(np.arange(0, 30, 2))))

    @pytest.mark.parametrize("idx", [[], [10**6], [30], [-1], [0, 29, 30]])
    def test_empty_or_out_of_range_rows_are_refused(self, idx):
        ds = synth_blobs(10, 3, 2, 2.0, seed=35)  # 30 rows
        model = init_params(NetworkSpec.dense(2, [5], 3), seed=36)
        match = r"row indices must be non-empty and in \[0, 30\), got "
        with pytest.raises(ConfigError, match=match):
            evaluate(model, ds, Rows(idx))
        with pytest.raises(ConfigError, match=match):
            predict_logits(model, ds.inputs, idx)

    def test_no_inputs_are_refused(self):
        model = init_params(NetworkSpec.dense(2, [5], 3), seed=36)
        with pytest.raises(ConfigError, match=r"non-empty and in \[0, 0\)"):
            predict_logits(model, np.zeros((0, 2)))

    def test_scoring_the_test_split_copies_no_inputs(self):
        # one trace over split and scoring: a split that copied its halves
        # would still hold them while the test rows are scored
        ds = synth_blobs(1250, 4, 784, 4.0, seed=37)  # 5,000 x 784
        model = init_params(NetworkSpec.dense(784, [16], 4), seed=38)
        tracemalloc.start()
        try:
            split = split_and_batch(ds, 0.25, 32, seed=39)
            held, _ = tracemalloc.get_traced_memory()
            assert held < 0.01 * ds.inputs.nbytes
            tracemalloc.reset_peak()
            evaluate(model, ds, split.test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * ds.inputs.nbytes

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


class TestRowArguments:
    """Every row argument is read through ``Rows``: a list scores and trains
    as its ``Rows`` does, and a fit refuses the rows it would batch unless
    they are non-empty and in range, before its first step."""

    def test_predict_logits_and_evaluate_take_what_rows_takes(self):
        ds = synth_blobs(10, 3, 2, 2.0, seed=35)
        model = init_params(NetworkSpec.dense(2, [5], 3), seed=36)
        idx = [4, 1, 29]
        np.testing.assert_array_equal(predict_logits(model, ds.inputs, Rows(idx)),
                                      predict_logits(model, ds.inputs, idx))
        TestEvaluate.assert_metrics_equal(evaluate(model, ds, [0, 1, 2]),
                                          evaluate(model, ds, Rows([0, 1, 2])))

    def test_fit_takes_lists_as_their_rows(self, rings_setup):
        ds, split, _, _ = rings_setup
        student = init_params(NetworkSpec.dense(2, [8], 2), seed=12)
        plan = TrainPlan(seed=12, batch_size=16, phase1_epochs=1, phase2_epochs=2)
        logs, bits = [], []
        for train_rows, test_rows in ((split.train, split.test),
                                      (split.train.source_indices.tolist(),
                                       split.test.source_indices.tolist())):
            logs.append([])
            bits.append(serialize_model(phase2_task_fit(
                student, ds, plan, {0}, train=train_rows, test=test_rows, log=logs[-1])))
        assert bits[0] == bits[1]
        assert logs[0] == logs[1] and len(logs[0]) == 2

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        calls, original = [], train.forward
        monkeypatch.setattr(train, "forward",
                            lambda *args: calls.append(1) or original(*args))
        return calls

    @pytest.mark.parametrize("rows", [dict(train=Rows([-1, 0, 1, 2])), dict(train=[]),
                                      dict(train=[0, 30]), dict(test=[5, 30])],
                             ids=["negative", "empty", "past-the-end", "test"])
    def test_fit_refuses_rows_outside_its_dataset(self, forward_calls, rows):
        # numpy would read row -1 as row 29, counted from the end
        ds = synth_blobs(10, 3, 2, 2.0, seed=35)
        student = init_params(NetworkSpec.dense(2, [5], 3), seed=36)
        with pytest.raises(ConfigError, match=r"^row indices must be non-empty and in "
                                              r"\[0, 30\), got "):
            phase2_task_fit(student, ds, TrainPlan(seed=1, batch_size=2), (),
                            **{"train": np.arange(30), **rows}, log=[])
        assert forward_calls == []

    def test_schedule_refuses_negative_rows(self, forward_calls):
        # a schedule has no dataset, so only its sign can be checked; numpy
        # would train these as rows 26-29 of the 30
        ds = synth_blobs(10, 3, 2, 2.0, seed=35)
        spec = NetworkSpec.dense(2, [5], 3)
        experts = one_expert(extract_features(init_params(spec, seed=37), ds, [0]),
                             LayerGroupMapping(entries=((0, 0),)))
        forward_calls.clear()
        with pytest.raises(ConfigError, match=r"^row indices must be non-negative, "
                                              r"got \[-4, -3, -2, -1\]$"):
            phase1_feature_fit(init_params(spec, seed=36), ds, experts,
                               TrainPlan(seed=1, batch_size=4),
                               schedule=BatchSchedule([-4, -3, -2, -1], 4, 0))
        assert forward_calls == []

    @pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
    def test_schedule_refuses_rows_past_the_dataset(self, forward_calls, stacked):
        # numpy would raise a bare IndexError for row 40 at the first step;
        # compare's stacked schedule goes through the same rule
        ds = synth_rings(10, 3, 0.1, seed=0)  # 30 rows
        spec = NetworkSpec.dense(2, [5], 3)
        cache = extract_features(init_params(spec, seed=37), ds, [0])
        student = init_params(spec, seed=36)
        schedule = BatchSchedule([0, 1, 2, 40], 2, 0)
        if stacked:
            cache = FeatureCache(groups={0: np.stack([cache.groups[0]] * 2)},
                                 dataset_fingerprint=cache.dataset_fingerprint,
                                 teacher_fingerprint=cache.teacher_fingerprint)
            student = stack_models([student, student])
            schedule = train._StackedSchedule([BatchSchedule([3, 4, 5, 6], 2, 0), schedule])
        forward_calls.clear()
        with pytest.raises(ConfigError, match=r"^row indices must be non-empty and in "
                                              r"\[0, 30\), got "):
            phase1_feature_fit(student, ds,
                               one_expert(cache, LayerGroupMapping(entries=((0, 0),))),
                               TrainPlan(seed=1, batch_size=2), schedule=schedule)
        assert forward_calls == []

    def test_teacher_refuses_a_split_of_another_dataset(self, forward_calls):
        # the split's train rows run past the 30 rows of ds
        ds = synth_blobs(10, 3, 2, 2.0, seed=35)
        split = split_and_batch(synth_blobs(40, 3, 2, 2.0, seed=35), 0.25, 16, seed=1)
        with pytest.raises(ConfigError, match=r"^row indices must be non-empty and in "
                                              r"\[0, 30\), got "):
            train_teacher(ds, NetworkSpec.dense(2, [5], 3), TrainPlan(seed=1, batch_size=16),
                          split=split)
        assert forward_calls == []


class TestGramsArriveSymmetric:
    """Every Gram a fit forms is exactly symmetric, so ``linalg.cholesky``
    never takes its symmetrizing branch, at the reference config's shapes
    (batch 16: n x n Grams) and at batch 256 (the teacher's basis core and
    the student's p x p matrix)."""

    @pytest.mark.parametrize("batch_size", [16, 256], ids=["reference", "batch256"])
    def test_no_symmetrizing_record(self, caplog, batch_size):
        ds = synth_rings(400, 3, noise=0.15, seed=100)
        split = split_and_batch(ds, 0.5, batch_size, seed=1)
        cache = extract_features(init_params(NetworkSpec.dense(2, [64, 64], 3), seed=2),
                                 ds, [1])
        plan = TrainPlan(seed=1, batch_size=batch_size, phase1_epochs=2, phase2_epochs=1,
                         lr_phase1=0.01, prior=PriorConfig(jitter=1e-4, normalize_by_width=True,
                                                           temperature=4.0))
        with caplog.at_level(logging.DEBUG, logger="featprior.linalg"):
            result = run_distillation(NetworkSpec.dense(2, [16], 3), ds, split, plan,
                                      cache=cache, mapping=LayerGroupMapping(entries=((0, 1),)))
            assert result.final_kl is not None
            assert not [r for r in caplog.records if "symmetriz" in r.getMessage()]
            # the capture is live: a matrix off by accumulation noise is logged
            linalg.cholesky(np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]]))
        assert [r for r in caplog.records if "symmetriz" in r.getMessage()]


class TestCompareMethods:
    def tiny_args(self, blobs):
        teacher_spec = NetworkSpec.dense(2, [8], 2)
        student_spec = NetworkSpec.dense(2, [4], 2)
        plan = TrainPlan(seed=0, batch_size=16, phase1_epochs=2, phase2_epochs=2,
                         lr_phase1=1e-2)
        teacher_plan = TrainPlan(seed=0, batch_size=16, phase1_epochs=0,
                                 phase2_epochs=4, lr_phase2=3e-3, mode="naive")
        mapping = LayerGroupMapping(entries=((0, 0),))
        return dict(dataset=blobs, teacher_spec=teacher_spec, student_spec=student_spec,
                    rows={mode: replace(plan, mode=mode) for mode in MODES},
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

    def test_reads_no_seed_mode_lr_phase1_or_prior_of_teacher_plan(self, blobs):
        # each seed's teacher trains on that seed, in naive mode
        args = self.tiny_args(blobs)
        result = compare_methods(seeds=[1, 2], **args)
        args["teacher_plan"] = replace(args["teacher_plan"], seed=9, mode="joint",
                                       lr_phase1=0.5, prior=PriorConfig(alpha=3.0))
        assert compare_methods(seeds=[1, 2], **args) == result

    def test_naive_row_consistent_with_direct_run(self, blobs):
        args = self.tiny_args(blobs)
        result = compare_methods(seeds=[1, 2], **args)
        split = split_and_batch(blobs, 0.5, 16, seed=1)
        direct = run_distillation(
            args["student_spec"], blobs, split,
            replace(args["rows"]["naive"], seed=1))
        assert result.methods["naive"].per_seed[0].accuracy == pytest.approx(
            direct.metrics.accuracy)

    def test_one_seed_scores_each_model_once(self, blobs, monkeypatch):
        # compare keeps no per-epoch log, so each seed's test split is
        # scored once for the teacher and once for each of the five students
        calls = []

        def counting_evaluate(model, dataset, *args, **kwargs):
            calls.append(dataset.n)
            return evaluate(model, dataset, *args, **kwargs)

        monkeypatch.setattr(train, "evaluate", counting_evaluate)
        result = compare_methods(seeds=[1, 2], **self.tiny_args(blobs))
        assert set(result.methods) == set(MODES)
        assert len(calls) == 2 * 6

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverged_joint_block_stops_the_stacked_fit(self, blobs):
        # naive and joint share one stacked fit; alpha * KL overflows in the
        # joint block only, and the loss check stops the fit at its first step
        args = self.tiny_args(blobs)
        joint = replace(args["rows"]["joint"], prior=PriorConfig(alpha=1e308))
        args["rows"] = {"naive": replace(joint, mode="naive"), "joint": joint}
        with pytest.raises(DivergedTraining,
                           match=r"^loss became \[[\d.]+ +[\d.]+ +inf +inf\] at epoch 0$"):
            compare_methods(seeds=[1, 2], **args)

    @pytest.mark.parametrize("modes,groups", [
        (("naive",), set()),
        (("hinton_baseline",), {1}),
        (("two_phase", "joint"), {0}),
        (MODES, {0, 1}),
    ], ids=["naive", "hinton", "feature_priors", "all"])
    def test_extracts_the_groups_its_rows_read(self, blobs, monkeypatch, modes, groups):
        # one extract_features call, on the stacked teachers, over the union
        # of the rows' cache_groups: mapping (0,) and logits group 1
        calls, extract = [], train.extract_features

        def recording_extract(model, dataset, layer_ids):
            calls.append((model.flat.shape[0], set(layer_ids)))
            return extract(model, dataset, layer_ids)

        monkeypatch.setattr(train, "extract_features", recording_extract)
        args = self.tiny_args(blobs)
        args["rows"] = {mode: args["rows"][mode] for mode in modes}
        result = compare_methods(seeds=[1, 2], **args)
        assert list(result.methods) == list(modes)
        assert calls == [(2, groups)]

    def test_stacked_schedule_tiles_each_seeds_draw(self, blobs, monkeypatch):
        # a stack of 4 mode blocks draws each seed's permutation once an
        # epoch, and its batches equal the schedules repeated once per block
        split = split_and_batch(blobs, 0.5, 16, seed=1)
        schedules = [BatchSchedule(split.train.source_indices, 16, s) for s in (1, 2, 3)]
        draws, epoch_batches = [], BatchSchedule.epoch_batches

        def counting_epoch_batches(schedule, epoch):
            draws.append(schedule.seed)
            return epoch_batches(schedule, epoch)

        for epoch in (0, 3):
            repeated = train._StackedSchedule(schedules * 4).epoch_batches(epoch)
            with monkeypatch.context() as m:
                m.setattr(BatchSchedule, "epoch_batches", counting_epoch_batches)
                tiled = train._StackedSchedule(schedules, 4).epoch_batches(epoch)
            assert draws == [1, 2, 3]
            draws.clear()
            assert len(tiled) == len(repeated) > 1
            for a, b in zip(tiled, repeated):
                assert a.shape == (12, b.shape[1])
                np.testing.assert_array_equal(a, b)

    def assert_stacked_match_single_runs(self, monkeypatch, args):
        """compare_methods' (row, seed) models, metrics and phase-1 KL each
        equal a single-seed train_teacher/run_distillation bit for bit.
        Returns the modes each _fit_epochs call trained, as blocks of seeds."""
        scored, phase1_kls, fitted = [], [], []
        fit_epochs, rows = train._fit_epochs, args["rows"]
        plans = list(dict.fromkeys(rows.values()))  # each trained and scored once

        def recording_evaluate(model, dataset, *a, **kw):
            metrics = evaluate(model, dataset, *a, **kw)
            scored.append((model, metrics))
            return metrics

        def recording_phase1(*a, **kw):
            model, kl = phase1_feature_fit(*a, **kw)
            phase1_kls.append(kl)
            return model, kl

        def recording_fit_epochs(model, *a, **kw):
            fitted.append(len(model.flat) // 2)
            return fit_epochs(model, *a, **kw)

        monkeypatch.setattr(train, "evaluate", recording_evaluate)
        monkeypatch.setattr(train, "phase1_feature_fit", recording_phase1)
        monkeypatch.setattr(train, "_fit_epochs", recording_fit_epochs)
        result = compare_methods(seeds=[1, 2], **args)
        monkeypatch.undo()
        # evaluation order: each plan's students, seed by seed, then the teachers
        students, teachers = scored[:-2], scored[-2:]
        single_kls, blobs = [], args["dataset"]
        for s, seed in enumerate([1, 2]):
            split = split_and_batch(blobs, 0.5, 16, seed)
            teacher, report = train_teacher(
                blobs, args["teacher_spec"], replace(args["teacher_plan"], seed=seed),
                split=split)
            assert params_equal(teachers[s][0], teacher)
            assert result.teacher.per_seed[s] == report.per_seed[0]
            logits_group = args["teacher_spec"].hidden_count
            cache = extract_features(teacher, blobs, [0, logits_group])
            for m, plan in enumerate(plans):
                single = run_distillation(
                    args["student_spec"], blobs, split, replace(plan, seed=seed),
                    cache=cache, mapping=args["mapping"], logits_group=logits_group)
                stacked_model, stacked_metrics = students[2 * m + s]
                assert params_equal(stacked_model, single.model), (plan, seed)
                assert stacked_metrics == single.metrics
                for label in (label for label, p in rows.items() if p == plan):
                    assert result.methods[label].per_seed[s] == single.metrics
                if plan.mode == "two_phase":
                    single_kls.append(single.final_kl)
        assert len(scored) == 2 * (1 + len(plans))
        assert list(result.methods) == list(rows)
        # the stacked phase 1 returns one float: the mean of the seeds' KLs,
        # with the arithmetic of statistics.fmean over the single runs
        assert phase1_kls == [math.fsum(single_kls) / 2]
        # and compare returns it under each label of that plan
        assert result.phase1_kl == {label: phase1_kls[0] for label, plan in rows.items()
                                    if plan.mode == "two_phase"}
        return fitted

    @pytest.mark.parametrize("teacher_hidden,student_hidden", [
        ([8], [4]),     # widths below the batch: feature-space student, basis teacher
        ([32], [16]),   # widths at or above it: both sides as n x n Grams
    ], ids=["narrow", "wide"])
    def test_stacked_seeds_match_single_runs(self, blobs, monkeypatch,
                                             teacher_hidden, student_hidden):
        args = self.tiny_args(blobs)
        args["teacher_spec"] = NetworkSpec.dense(2, teacher_hidden, 2)
        args["student_spec"] = NetworkSpec.dense(2, student_hidden, 2)
        fitted = self.assert_stacked_match_single_runs(monkeypatch, args)
        # the teachers, two_phase's phases, the four one-phase modes as one
        # fit: 4 _fit_epochs calls where per-mode fits would make 7
        assert fitted == [1, 1, 1, 4]

    def test_mode_with_own_plan_fits_alone(self, blobs, monkeypatch):
        args = self.tiny_args(blobs)
        rows = args["rows"]
        rows["hinton_baseline"] = replace(rows["hinton_baseline"], lr_phase2=3e-3)
        fitted = self.assert_stacked_match_single_runs(monkeypatch, args)
        # the teachers, two_phase's phases, then joint, naive and l2 together
        # and hinton_baseline in a fit of its own
        assert fitted == [1, 1, 1, 3, 1]

    def test_phase1_kl_is_what_phase1_feature_fit_returned(self, blobs, monkeypatch):
        # two two_phase plans are two stacked fits: each label gets its own
        # fit's KL, bit for bit, and no one-phase row gets one
        args = self.tiny_args(blobs)
        rows = args["rows"]
        rows["two_phase, slow"] = replace(rows["two_phase"], lr_phase1=1e-3)
        returned = []

        def recording_phase1(*a, **kw):
            model, kl = phase1_feature_fit(*a, **kw)
            returned.append(kl)
            return model, kl

        monkeypatch.setattr(train, "phase1_feature_fit", recording_phase1)
        result = compare_methods(seeds=[1, 2], **args)
        assert list(result.phase1_kl) == ["two_phase", "two_phase, slow"]
        assert len(returned) == 2 and returned[0] != returned[1]
        for kl, recorded in zip(result.phase1_kl.values(), returned):
            assert struct.pack("<d", kl) == struct.pack("<d", recorded)

    def test_labelled_rows_train_each_plan_once(self, blobs, monkeypatch):
        # a second label on the two_phase plan shares its models; naive with
        # no phase-1 epochs is a plan of its own, so a fit of its own
        args = self.tiny_args(blobs)
        rows = args["rows"]
        rows["two_phase again"] = rows["two_phase"]
        rows["naive, equal_task"] = replace(rows["naive"], phase1_epochs=0)
        fitted = self.assert_stacked_match_single_runs(monkeypatch, args)
        assert fitted == [1, 1, 1, 4, 1]


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

    def test_logged_accuracy_is_evaluate_accuracy(self, rings_setup, monkeypatch):
        ds, split, _, cache = rings_setup
        scored = []  # a copy of the model at each scoring of the test split
        original = train.predict_logits

        def recorded(model, inputs, idx=None):
            scored.append(model.copy())
            return original(model, inputs, idx)

        monkeypatch.setattr(train, "predict_logits", recorded)
        plan = TrainPlan(seed=44, batch_size=16, phase1_epochs=2, phase2_epochs=3,
                         lr_phase1=1e-2, lr_phase2=1e-2)
        result = run_distillation(NetworkSpec.dense(2, [8], 2), ds, split, plan,
                                  cache=cache, mapping=LayerGroupMapping(((0, 1),)))
        monkeypatch.undo()
        # one scoring per logged epoch, then the final metrics'
        assert len(scored) == len(result.log) + 1 == 6
        assert [r.test_accuracy for r in result.log] == [
            evaluate(m, ds, split.test).accuracy for m in scored[:-1]]

    def test_tied_logits_log_class_0(self, rings_setup):
        # a zero head, frozen, ties every logit: both the logged accuracy and
        # evaluate's pick class 0, so each reads the test split's class-0 share
        ds, split, _, _ = rings_setup
        student = init_params(NetworkSpec.dense(2, [4], 2), seed=45)
        student.weights[-1][...] = 0.0
        student.biases[-1][...] = 0.0
        log = []
        plan = TrainPlan(seed=45, batch_size=16, phase1_epochs=0, phase2_epochs=2)
        model = phase2_task_fit(student, ds, plan, [1], train=split.train,
                                test=split.test, log=log)
        share = float(np.mean(ds.labels[split.test.source_indices] == 0))
        assert share != 1.0 - share  # class 1's pick would read differently
        assert evaluate(model, ds, split.test).accuracy == share
        assert [r.test_accuracy for r in log] == [share, share]

    def test_rerun_identical(self, blobs):
        split = split_and_batch(blobs, 0.5, 16, seed=2)
        plan = TrainPlan(seed=42, batch_size=16, phase1_epochs=0,
                         phase2_epochs=5, mode="naive")
        spec = NetworkSpec.dense(2, [4], 2)
        a = run_distillation(spec, blobs, split, plan)
        b = run_distillation(spec, blobs, split, plan)
        assert run_log_csv(a.log) == run_log_csv(b.log)
        assert params_equal(a.model, b.model)
