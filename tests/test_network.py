"""Network tests: forward passes against hand-computed values, gradient
checking of full models, initialization statistics, optimizer update
rules and the binary model format."""

from __future__ import annotations

import numpy as np
import pytest

from featprior.autodiff import backward, softmax_cross_entropy
from featprior.errors import (
    CorruptFile,
    DimensionMismatch,
    FeatPriorError,
    NonFiniteActivation,
    NonFiniteGradient,
)
from featprior.network import (
    AdamConfig,
    AdamState,
    LayerSpec,
    Model,
    NetworkSpec,
    SgdConfig,
    SgdState,
    adam_step,
    deserialize_model,
    forward,
    grad_check,
    init_params,
    model_fingerprint,
    serialize_model,
    sgd_step,
)
from oracles import adam_step_per_tensor, sgd_step_per_tensor


def scalar_model(value: float) -> Model:
    spec = NetworkSpec(layers=(LayerSpec(1, 1, "identity"),), output_head=None)
    return Model(spec, [np.array([[value]], dtype=np.float32)],
                 [np.zeros(1, dtype=np.float32)], None, None)


def empty_model() -> Model:
    return Model(NetworkSpec(layers=(), output_head=None), [], [], None, None)


def cross_entropy_and_grads(model: Model, x, labels):
    record = forward(model, x)
    value, logit_grad = softmax_cross_entropy(record.logits, labels)
    return value, backward(model, x, record, {}, logit_grad)


class TestSpec:
    def test_dense_builder(self):
        spec = NetworkSpec.dense(4, [8, 8], 3)
        assert spec.input_width == 4
        assert spec.hidden_count == 2
        assert spec.output_head == 3

    def test_nonconforming_widths_rejected(self):
        with pytest.raises(FeatPriorError):
            NetworkSpec(layers=(LayerSpec(2, 3), LayerSpec(4, 2)), output_head=2)

    def test_zero_width_rejected(self):
        with pytest.raises(FeatPriorError):
            LayerSpec(0, 3)


class TestForward:
    def test_zero_parameters_relu(self):
        model = init_params(NetworkSpec.dense(3, [4, 4], 2), seed=0)
        for w in model.weights:
            w[...] = 0.0
        record = forward(model, np.ones((2, 3)))
        for act in record.activations:
            np.testing.assert_array_equal(act, 0.0)

    def test_identity_layer_passes_input_through(self):
        model = scalar_model(1.0)
        model.weights[0] = np.eye(2, dtype=np.float32)
        model.biases[0] = np.zeros(2, dtype=np.float32)
        model = Model(NetworkSpec(layers=(LayerSpec(2, 2, "identity"),),
                                  output_head=None),
                      model.weights, model.biases, None, None)
        x = np.array([[0.5, -1.5], [2.0, 0.25]])
        record = forward(model, x)
        np.testing.assert_array_equal(record.activations[0], x)
        np.testing.assert_array_equal(record.logits, x)

    def test_hand_computed_2_2_2(self):
        spec = NetworkSpec(layers=(LayerSpec(2, 2, "relu"),), output_head=2)
        model = Model(
            spec,
            [np.array([[1.0, -1.0], [0.5, 2.0]], dtype=np.float32)],
            [np.array([0.1, -0.2], dtype=np.float32)],
            np.eye(2, dtype=np.float32),
            np.zeros(2, dtype=np.float32),
        )
        record = forward(model, np.array([[1.0, 2.0]]))
        # pre-activation: [1*1 + 2*0.5 + 0.1, 1*(-1) + 2*2 - 0.2] = [2.1, 2.8]
        np.testing.assert_allclose(record.activations[0], [[2.1, 2.8]],
                                   rtol=1e-6)
        np.testing.assert_allclose(record.logits, [[2.1, 2.8]], rtol=1e-6)

    def test_record_holds_float64_arrays(self):
        model = init_params(NetworkSpec.dense(3, [5, 4], 2), seed=1)
        x = np.random.default_rng(2).standard_normal((4, 3)).astype(np.float32)
        record = forward(model, x)
        for a in record.activations + [record.logits]:
            assert type(a) is np.ndarray and a.dtype == np.float64

    def test_batch_width_mismatch(self):
        model = init_params(NetworkSpec.dense(3, [4], 2), seed=0)
        with pytest.raises(DimensionMismatch):
            forward(model, np.ones((2, 5)))

    def test_non_finite_activation(self):
        model = init_params(NetworkSpec.dense(2, [3], 2), seed=0)
        model.weights[0][0, 0] = np.float32(np.inf)
        with pytest.raises(NonFiniteActivation):
            forward(model, np.ones((1, 2)))


class TestGradCheck:
    def test_quadratic_loss(self):
        model = init_params(NetworkSpec.dense(2, [3], 2), seed=3)

        def quadratic(m):
            params = [p.astype(np.float64) for p in m.parameters()]
            return sum(float(np.sum(p * p)) for p in params), [2.0 * p for p in params]

        assert grad_check(model, quadratic) < 1e-7

    def test_full_network_cross_entropy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 3))
        labels = rng.integers(0, 2, size=4)
        model = init_params(NetworkSpec.dense(3, [6, 5], 2, "tanh"), seed=5)

        def loss(m):
            return cross_entropy_and_grads(m, x, labels)

        assert grad_check(model, loss) < 1e-4

    def test_zero_parameter_model_vacuous(self):
        def loss(m):
            x = np.ones((2, 3))
            record = forward(m, x)
            return (float(record.logits.sum()),
                    backward(m, x, record, {}, np.ones_like(record.logits)))

        assert grad_check(empty_model(), loss) == 0.0

    def test_coordinate_sampling_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4))
        labels = rng.integers(0, 3, size=3)
        model = init_params(NetworkSpec.dense(4, [6], 3, "tanh"), seed=7)

        def loss(m):
            return cross_entropy_and_grads(m, x, labels)

        a = grad_check(model, loss, max_coords=10, seed=1)
        b = grad_check(model, loss, max_coords=10, seed=1)
        assert a == b
        assert a < 1e-4


class TestInit:
    def test_same_seed_bitwise_identical(self):
        spec = NetworkSpec.dense(7, [11, 13], 3)
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        spec = NetworkSpec.dense(7, [11], 3)
        a = init_params(spec, seed=1)
        b = init_params(spec, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_relu_variance_near_he(self):
        spec = NetworkSpec.dense(100, [200], 2)
        model = init_params(spec, seed=0)
        target = 2.0 / 100
        assert abs(float(np.var(model.weights[0])) - target) < 0.2 * target

    def test_biases_zero(self):
        model = init_params(NetworkSpec.dense(4, [5], 2), seed=9)
        np.testing.assert_array_equal(model.biases[0], 0.0)
        np.testing.assert_array_equal(model.head_bias, 0.0)


class TestOptimizers:
    def test_sgd_zero_gradient_is_noop(self):
        model = scalar_model(1.0)
        before = [p.copy() for p in model.parameters()]
        sgd_step(model, [np.zeros((1, 1)), np.zeros(1)], SgdState(),
                 SgdConfig(lr=0.1))
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_sgd_plain_step(self):
        model = scalar_model(1.0)
        sgd_step(model, [np.array([[1.0]]), np.zeros(1)], SgdState(),
                 SgdConfig(lr=0.1))
        assert model.weights[0][0, 0] == pytest.approx(0.9)

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (1e-3, 1.0, 1e3):
            model = scalar_model(1.0)
            adam_step(model, [np.array([[g]]), np.zeros(1)], AdamState(),
                      AdamConfig(lr=0.01))
            assert abs(1.0 - model.weights[0][0, 0]) == pytest.approx(
                0.01, rel=1e-4)

    def test_none_gradient_skips_parameter(self):
        model = scalar_model(1.0)
        state = AdamState()
        adam_step(model, [None, np.ones(1)], state, AdamConfig(lr=0.1))
        assert model.weights[0][0, 0] == np.float32(1.0)
        assert model.biases[0][0] != 0.0

    def test_non_finite_gradient_rejected(self):
        model = scalar_model(1.0)
        with pytest.raises(NonFiniteGradient):
            adam_step(model, [np.array([[np.nan]]), np.zeros(1)], AdamState(),
                      AdamConfig())


class TestFlatModel:
    def test_parameters_are_views_of_flat(self):
        model = init_params(NetworkSpec.dense(2, [16], 3), seed=0)
        assert model.flat.dtype == np.float32
        assert model.offsets == [0, 32, 48, 96, 99]
        np.testing.assert_array_equal(
            model.flat, np.concatenate([p.ravel() for p in model.parameters()]))
        model.flat[0] = np.float32(7.0)
        assert model.weights[0][0, 0] == np.float32(7.0)
        model.head_bias[...] = 1.0
        np.testing.assert_array_equal(model.flat[-3:], 1.0)

    def test_constructor_and_copy_do_not_alias(self):
        w = np.ones((2, 3), dtype=np.float32)
        model = Model(NetworkSpec.dense(2, [3], None), [w],
                      [np.zeros(3, dtype=np.float32)], None, None)
        w[...] = 5.0
        copy = model.copy()
        copy.weights[0][...] = 2.0
        np.testing.assert_array_equal(model.weights[0], 1.0)
        assert not np.shares_memory(copy.flat, model.flat)


def optimizer_case(hidden, frozen_layers, seed):
    """A model, per-tensor copies of its parameters, and 200 seeded
    gradient lists with None at every parameter of a frozen layer."""
    model = init_params(NetworkSpec.dense(2, hidden, 3), seed=seed)
    reference = [p.copy() for p in model.parameters()]
    rng = np.random.default_rng(seed)
    layer_ids = model.param_layer_ids()
    steps = []
    for step in range(200):
        scale = 10.0 ** rng.uniform(-4, 1)
        steps.append([None if lid in frozen_layers
                      else scale * rng.standard_normal(p.shape)
                      for p, lid in zip(reference, layer_ids)])
    return model, reference, steps


def assert_flat_matches(flat, tensors, offsets):
    for i, t in enumerate(tensors):
        piece = flat[offsets[i]:offsets[i + 1]].reshape(t.shape)
        assert piece.dtype == t.dtype
        assert np.array_equal(piece, t), i


def assert_only_frozen_untouched(model, before, frozen_layers):
    for i, lid in enumerate(model.param_layer_ids()):
        piece = slice(model.offsets[i], model.offsets[i + 1])
        untouched = np.array_equal(model.flat[piece], before[piece])
        assert untouched == (lid in frozen_layers), i


OPTIMIZER_CASES = {
    "student_2_16_3": ([16], ()),
    "teacher_2_64_64_3": ([64, 64], ()),
    "middle_layer_frozen": ([16, 8], (1,)),
}


class TestFlatOptimizersMatchPerTensor:
    """200 steps of the flat optimizers against the per-tensor reference:
    parameters and optimizer state equal bit for bit, frozen ranges
    untouched."""

    @pytest.mark.parametrize("case", sorted(OPTIMIZER_CASES))
    def test_adam(self, case):
        hidden, frozen = OPTIMIZER_CASES[case]
        model, reference, steps = optimizer_case(hidden, frozen, seed=11)
        before = model.flat.copy()
        m_ref = [np.zeros(p.shape) for p in reference]
        v_ref = [np.zeros(p.shape) for p in reference]
        state, cfg = AdamState(), AdamConfig(lr=0.01)
        for t, grads in enumerate(steps, start=1):
            adam_step(model, grads, state, cfg)
            adam_step_per_tensor(reference, grads, m_ref, v_ref, t, lr=cfg.lr,
                                 beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
        assert state.t == 200
        assert_flat_matches(model.flat, reference, model.offsets)
        assert_flat_matches(state.m, m_ref, model.offsets)
        assert_flat_matches(state.v, v_ref, model.offsets)
        assert_only_frozen_untouched(model, before, frozen)

    @pytest.mark.parametrize("case", sorted(OPTIMIZER_CASES))
    def test_sgd(self, case):
        hidden, frozen = OPTIMIZER_CASES[case]
        model, reference, steps = optimizer_case(hidden, frozen, seed=12)
        before = model.flat.copy()
        vel_ref = [np.zeros(p.shape) for p in reference]
        state, cfg = SgdState(), SgdConfig(lr=0.01, momentum=0.9)
        for grads in steps:
            sgd_step(model, grads, state, cfg)
            sgd_step_per_tensor(reference, grads, vel_ref, lr=cfg.lr,
                                momentum=cfg.momentum)
        assert_flat_matches(model.flat, reference, model.offsets)
        assert_flat_matches(state.velocity, vel_ref, model.offsets)
        assert_only_frozen_untouched(model, before, frozen)

    def test_non_finite_in_later_run_leaves_everything_untouched(self):
        model, _, _ = optimizer_case([4, 4], (), seed=0)
        before = model.flat.copy()
        grads = [np.ones(p.shape) for p in model.parameters()]
        grads[2] = None
        grads[-1] = np.full(grads[-1].shape, np.inf)
        state = AdamState()
        with pytest.raises(NonFiniteGradient):
            adam_step(model, grads, state, AdamConfig())
        np.testing.assert_array_equal(model.flat, before)
        assert state.m is None and state.t == 0


class TestSerialization:
    def test_round_trip_bitwise(self):
        model = init_params(NetworkSpec.dense(5, [7, 3], 4, "tanh"), seed=8)
        blob = serialize_model(model)
        restored = deserialize_model(blob)
        assert restored.spec == model.spec
        for a, b in zip(model.parameters(), restored.parameters()):
            np.testing.assert_array_equal(a, b)
        assert serialize_model(restored) == blob

    def test_bad_magic(self):
        with pytest.raises(CorruptFile):
            deserialize_model(b"XXXX" + b"\x00" * 20)

    def test_truncated(self):
        blob = serialize_model(init_params(NetworkSpec.dense(2, [2], 2), seed=0))
        with pytest.raises(CorruptFile):
            deserialize_model(blob[:-3])

    def test_headless_not_serializable(self):
        with pytest.raises(FeatPriorError):
            serialize_model(scalar_model(1.0))

    def test_fingerprint_tracks_parameters(self):
        model = init_params(NetworkSpec.dense(2, [2], 2), seed=0)
        fp1 = model_fingerprint(model)
        model.weights[0][0, 0] += np.float32(0.5)
        assert model_fingerprint(model) != fp1
        assert len(fp1) == 32

    def test_golden_byte_layout(self):
        # pin the wire format itself, not just the round trip
        import struct

        spec = NetworkSpec(layers=(LayerSpec(2, 1, "relu"),), output_head=2)
        model = Model(
            spec,
            [np.array([[1.5], [-2.0]], dtype=np.float32)],
            [np.array([0.25], dtype=np.float32)],
            np.array([[3.0, -4.0]], dtype=np.float32),
            np.array([0.5, -0.5], dtype=np.float32),
        )
        expected = b"".join([
            b"FPNN",
            struct.pack("<II", 1, 2),
            struct.pack("<IIB", 2, 1, 0),          # 2x1 relu hidden layer
            struct.pack("<3f", 1.5, -2.0, 0.25),   # weights then bias
            struct.pack("<IIB", 1, 2, 2),          # 1x2 identity head
            struct.pack("<4f", 3.0, -4.0, 0.5, -0.5),
        ])
        assert serialize_model(model) == expected
