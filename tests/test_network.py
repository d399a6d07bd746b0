"""Network tests: forward passes against hand-computed values, gradient
checking of full models, initialization statistics, optimizer update
rules and the binary model format."""

from __future__ import annotations

import re
import struct
from functools import partial

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
    AdamState,
    LayerSpec,
    Model,
    NetworkSpec,
    SgdState,
    adam_step,
    deserialize_model,
    forward,
    grad_check,
    init_params,
    model_fingerprint,
    serialize_model,
    sgd_step,
    stack_models,
    _from_parameters,
    unstack_model,
)
from oracles import adam_step_per_tensor, sgd_step_per_tensor


def scalar_model(value: float) -> Model:
    """A 1 -> 1 identity layer of weight ``value`` and a 1 -> 1 head; the
    optimizer tests give the head None gradients."""
    spec = NetworkSpec((LayerSpec(1, 1, "identity"), LayerSpec(1, 1, "identity")))
    return Model(spec, [np.array([[value]], dtype=np.float32),
                        np.ones((1, 1), dtype=np.float32)],
                 [np.zeros(1, dtype=np.float32), np.zeros(1, dtype=np.float32)])


def cross_entropy_and_grads(model: Model, x, labels, frozen=()):
    record = forward(model, x)
    value, logit_grad = softmax_cross_entropy(record.logits, labels)
    return value, backward(model, x, record, {}, logit_grad, frozen)


class TestSpec:
    def test_dense_builder(self):
        spec = NetworkSpec.dense(4, [8, 8], 3)
        assert spec.input_width == 4
        assert spec.hidden_count == 2
        assert spec.output_head == 3
        assert spec.layers[-1] == LayerSpec(8, 3, "identity")

    def test_nonconforming_widths_rejected(self):
        with pytest.raises(FeatPriorError):
            NetworkSpec((LayerSpec(2, 3), LayerSpec(4, 2, "identity")))

    def test_zero_width_rejected(self):
        with pytest.raises(FeatPriorError):
            LayerSpec(0, 3)

    def test_head_required(self):
        with pytest.raises(FeatPriorError, match="hidden layer and a head"):
            NetworkSpec((LayerSpec(2, 3),))
        for head in (None, 0, 2.0):
            with pytest.raises(FeatPriorError, match="^out_width must be an integer >= 1"):
                NetworkSpec.dense(2, [3], head)

    def test_integer_widths_required(self):
        for width in (None, 3.0, "3"):
            with pytest.raises(FeatPriorError, match="^out_width must be an integer >= 1"):
                LayerSpec(2, width)
            with pytest.raises(FeatPriorError, match="^in_width must be an integer >= 1"):
                LayerSpec(width, 2)

    def test_head_must_be_identity(self):
        for activation in ("relu", "tanh"):
            with pytest.raises(FeatPriorError, match="identity activation"):
                NetworkSpec((LayerSpec(2, 3), LayerSpec(3, 2, activation)))

    def test_unknown_activation_rejected(self):
        with pytest.raises(FeatPriorError) as excinfo:
            LayerSpec(2, 3, "gelu")
        assert type(excinfo.value) is FeatPriorError
        assert str(excinfo.value) == "unknown activation 'gelu'"

    def test_hidden_layer_required(self):
        with pytest.raises(FeatPriorError, match="at least one hidden layer"):
            NetworkSpec(layers=())
        with pytest.raises(FeatPriorError, match="at least one hidden layer"):
            NetworkSpec.dense(2, [], 2)


class TestForward:
    def test_zero_parameters_relu(self):
        model = init_params(NetworkSpec.dense(3, [4, 4], 2), seed=0)
        for w in model.weights:
            w[...] = 0.0
        record = forward(model, np.ones((2, 3)))
        for act in record.activations:
            np.testing.assert_array_equal(act, 0.0)

    def test_identity_layer_passes_input_through(self):
        eye, zero = np.eye(2, dtype=np.float32), np.zeros(2, dtype=np.float32)
        model = Model(NetworkSpec((LayerSpec(2, 2, "identity"),) * 2),
                      [eye, eye], [zero, zero])
        x = np.array([[0.5, -1.5], [2.0, 0.25]])
        record = forward(model, x)
        np.testing.assert_array_equal(record.activations[0], x)
        np.testing.assert_array_equal(record.logits, x)

    def test_hand_computed_2_2_2(self):
        spec = NetworkSpec((LayerSpec(2, 2, "relu"), LayerSpec(2, 2, "identity")))
        model = Model(
            spec,
            [np.array([[1.0, -1.0], [0.5, 2.0]], dtype=np.float32),
             np.eye(2, dtype=np.float32)],
            [np.array([0.1, -0.2], dtype=np.float32),
             np.zeros(2, dtype=np.float32)],
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

    def test_one_d_batch_rejected(self):
        model = init_params(NetworkSpec.dense(3, [4], 2), seed=0)
        with pytest.raises(DimensionMismatch) as excinfo:
            forward(model, np.ones(3))
        assert str(excinfo.value) == "batch must be 2-d, got shape (3,)"

    def test_batch_width_mismatch(self):
        model = init_params(NetworkSpec.dense(3, [4], 2), seed=0)
        with pytest.raises(DimensionMismatch):
            forward(model, np.ones((2, 5)))

    def test_non_finite_activation(self):
        model = init_params(NetworkSpec.dense(2, [3], 2), seed=0)
        model.weights[0][0, 0] = np.float32(np.inf)
        with pytest.raises(NonFiniteActivation):
            forward(model, np.ones((1, 2)))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_in_place_layers_match_two_temporaries(self, activation, stacked):
        # each layer is built in one buffer; the bits are those of
        # activation(h @ w + b) with its two temporaries
        act = {"relu": lambda t: np.maximum(t, 0.0), "tanh": np.tanh,
               "identity": lambda t: t}[activation]

        def reference(model, x):
            acts, h = [], x
            for w, b in zip(model.weights[:-1], model.biases[:-1]):
                h = act(h @ w.astype(np.float64) + b.astype(np.float64)[..., None, :])
                acts.append(h)
            return acts, (h @ model.weights[-1].astype(np.float64)
                          + model.biases[-1].astype(np.float64)[..., None, :])

        spec = NetworkSpec.dense(5, [7, 6], 3, activation)
        models = [init_params(spec, seed=s) for s in (3, 4)]
        rng = np.random.default_rng(5)
        for m in models:
            for b in m.biases:
                b[...] = rng.standard_normal(b.shape)
        model = stack_models(models) if stacked else models[0]
        x = rng.standard_normal((2, 9, 5) if stacked else (9, 5))
        record = forward(model, x)
        acts, logits = reference(model, x)
        for got, want in zip(record.activations + [record.logits], acts + [logits]):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(record.activations)
                       for b in record.activations[i + 1:] + [record.logits, x])


class TestFloat32Promotion:
    """``forward`` and ``backward`` read the float32 parameters through the
    matmul and add that promote them: every output has the bits of the same
    call on a copy whose parameters are float64 already."""

    SPEC = NetworkSpec((LayerSpec(2, 16, "relu"), LayerSpec(16, 8, "tanh"),
                        LayerSpec(8, 3, "identity")))

    @pytest.mark.parametrize("seeds", [(4,), (4, 5)], ids=["lone", "stacked"])
    def test_bits_equal_a_float64_copy(self, seeds):
        models = [init_params(self.SPEC, seed) for seed in seeds]
        model = models[0] if len(models) == 1 else stack_models(models)
        wide = _from_parameters(self.SPEC, [p.astype(np.float64) for p in model.parameters()])
        assert model.flat.dtype == np.float32 and wide.flat.dtype == np.float64
        rng = np.random.default_rng(7)
        x = rng.standard_normal((*model.flat.shape[:-1], 32, 2))
        labels = rng.integers(0, 3, size=x.shape[:-1])
        outputs = []
        for m in (model, wide):
            record = forward(m, x)
            _, logit_grad = softmax_cross_entropy(record.logits, labels)
            grads = backward(m, x, record, {0: np.cos(record.activations[0])}, logit_grad)
            outputs.append([a.tobytes() for a in (*record.activations, record.logits, *grads)])
        assert outputs[0] == outputs[1]


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
        np.testing.assert_array_equal(model.biases[-1], 0.0)


class TestOptimizers:
    def test_sgd_zero_gradient_is_noop(self):
        model = scalar_model(1.0)
        before = [p.copy() for p in model.parameters()]
        sgd_step(model, [np.zeros((1, 1)), np.zeros(1), None, None], SgdState(),
                 lr=0.1, momentum=0.0)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_sgd_plain_step(self):
        model = scalar_model(1.0)
        sgd_step(model, [np.array([[1.0]]), np.zeros(1), None, None], SgdState(),
                 lr=0.1, momentum=0.0)
        assert model.weights[0][0, 0] == pytest.approx(0.9)

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (1e-3, 1.0, 1e3):
            model = scalar_model(1.0)
            adam_step(model, [np.array([[g]]), np.zeros(1), None, None], AdamState(),
                      lr=0.01)
            assert abs(1.0 - model.weights[0][0, 0]) == pytest.approx(
                0.01, rel=1e-4)

    def test_none_gradient_skips_parameter(self):
        model = scalar_model(1.0)
        state = AdamState()
        adam_step(model, [None, np.ones(1), None, None], state, lr=0.1)
        assert model.weights[0][0, 0] == np.float32(1.0)
        assert model.biases[0][0] != 0.0

    def test_non_finite_gradient_rejected(self):
        model = scalar_model(1.0)
        with pytest.raises(NonFiniteGradient):
            adam_step(model, [np.array([[np.nan]]), np.zeros(1), None, None], AdamState(),
                      lr=1e-3)


class TestFlatModel:
    def test_parameters_are_views_of_flat(self):
        model = init_params(NetworkSpec.dense(2, [16], 3), seed=0)
        assert model.flat.dtype == np.float32
        assert model.offsets == [0, 32, 48, 96, 99]
        np.testing.assert_array_equal(
            model.flat, np.concatenate([p.ravel() for p in model.parameters()]))
        model.flat[0] = np.float32(7.0)
        assert model.weights[0][0, 0] == np.float32(7.0)
        model.biases[-1][...] = 1.0
        np.testing.assert_array_equal(model.flat[-3:], 1.0)

    @pytest.mark.parametrize("weights, biases, named", [
        ([np.ones((2, 4))], [np.zeros(4)], "1 weights and 1 biases"),
        ([np.ones((4, 2)), np.ones((4, 3))], [np.zeros(4), np.zeros(3)],
         "layer 0 is 2 -> 4, but its weight has shape (4, 2)"),
        ([np.ones((2, 4)), np.ones((4, 3))], [np.zeros(5), np.zeros(3)],
         "layer 0 is 2 -> 4, but its weight has shape (2, 4) and its bias (5,)"),
        ([np.ones((2, 4)), np.ones((2, 4, 3))], [np.zeros(4), np.zeros((2, 3))],
         "layer 1 is 4 -> 3, but its weight has shape (2, 4, 3)"),
    ], ids=["missing-layer", "transposed-weight", "bias-length", "seed-axis-mismatch"])
    def test_parameters_disagreeing_with_spec_are_refused(self, weights, biases, named):
        # a missing head would make forward return the hidden layer as logits
        with pytest.raises(DimensionMismatch, match=re.escape(named)):
            Model(NetworkSpec.dense(2, [4], 3), weights, biases)

    def test_constructor_and_copy_do_not_alias(self):
        w = np.ones((2, 3), dtype=np.float32)
        model = Model(NetworkSpec.dense(2, [3], 2), [w, np.ones((3, 2), dtype=np.float32)],
                      [np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32)])
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
    steps = []
    for step in range(200):
        scale = 10.0 ** rng.uniform(-4, 1)
        # parameter i is the weight or the bias of layer i // 2
        steps.append([None if i // 2 in frozen_layers
                      else scale * rng.standard_normal(p.shape)
                      for i, p in enumerate(reference)])
    return model, reference, steps


def assert_flat_matches(flat, tensors, offsets):
    for i, t in enumerate(tensors):
        piece = flat[offsets[i]:offsets[i + 1]].reshape(t.shape)
        assert piece.dtype == t.dtype
        assert np.array_equal(piece, t), i


def assert_only_frozen_untouched(model, before, frozen_layers):
    for i in range(len(model.offsets) - 1):
        piece = slice(model.offsets[i], model.offsets[i + 1])
        untouched = np.array_equal(model.flat[piece], before[piece])
        assert untouched == (i // 2 in frozen_layers), i


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
        state = AdamState()
        for t, grads in enumerate(steps, start=1):
            adam_step(model, grads, state, lr=0.01)
            # at the reference's own β1, β2 and ε: an independent check of
            # the module's constants
            adam_step_per_tensor(reference, grads, m_ref, v_ref, t, lr=0.01)
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
        state = SgdState()
        for grads in steps:
            sgd_step(model, grads, state, lr=0.01, momentum=0.9)
            sgd_step_per_tensor(reference, grads, vel_ref, lr=0.01, momentum=0.9)
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
            adam_step(model, grads, state, lr=1e-3)
        np.testing.assert_array_equal(model.flat, before)
        assert state.m is None and state.t == 0

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("count", ["short", "long"])
    def test_gradient_count_must_match_parameters(self, kind, count):
        # a short list used to train only its prefix, a long one to fail
        # with a bare IndexError
        model, _, _ = optimizer_case([3], (), seed=0)
        before = model.flat.copy()
        grads = [np.ones(p.shape) for p in model.parameters()]
        grads = grads[:1] if count == "short" else grads + [np.ones(1)]
        step, state = ((partial(sgd_step, lr=0.1, momentum=0.0), SgdState()) if kind == "sgd"
                       else (partial(adam_step, lr=1e-3), AdamState()))
        with pytest.raises(DimensionMismatch, match=f"{len(grads)} gradients for 4 parameters"):
            step(model, grads, state)
        np.testing.assert_array_equal(model.flat, before)
        assert state == type(state)()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("index, shape", [(0, (3, 2)), (1, (4,))],
                             ids=["transposed-weight", "long-bias"])
    def test_gradient_shape_must_match_parameter(self, kind, index, shape):
        # refused before any change: a transposed weight gradient is not
        # flattened into the weight, and Adam's t does not move
        model, _, _ = optimizer_case([3], (), seed=0)
        before = model.flat.copy()
        grads = [np.ones(p.shape) for p in model.parameters()]
        expected = grads[index].shape
        grads[index] = np.arange(np.prod(shape), dtype=float).reshape(shape)
        step, state = ((partial(sgd_step, lr=0.1, momentum=0.0), SgdState()) if kind == "sgd"
                       else (partial(adam_step, lr=1e-3), AdamState()))
        with pytest.raises(DimensionMismatch) as excinfo:
            step(model, grads, state)
        assert str(excinfo.value) == f"gradient {index} has shape {shape}, not {expected}"
        np.testing.assert_array_equal(model.flat, before)
        assert state == type(state)()


class TestStackedModel:
    """A model with a leading seed axis: seed slices train with the bits of
    their own 2-d models."""

    SPEC = NetworkSpec.dense(2, [16, 8], 3, activation="tanh")

    def test_stack_round_trip_and_views(self):
        models = [init_params(self.SPEC, seed) for seed in (4, 5, 6)]
        stacked = stack_models(models)
        assert stacked.flat.shape == (3, models[0].flat.size)
        assert stacked.offsets == models[0].offsets
        for p in stacked.parameters():
            assert np.shares_memory(p, stacked.flat)
        for s, model in enumerate(models):
            np.testing.assert_array_equal(stacked.flat[s], model.flat)
        for back, model in zip(unstack_model(stacked), models):
            assert back.flat.shape == model.flat.shape
            np.testing.assert_array_equal(back.flat, model.flat)
            assert not np.shares_memory(back.flat, stacked.flat)

    @pytest.mark.parametrize("frozen", [(), (1,)])
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_steps_match_per_seed_steps(self, frozen, kind):
        seeds = (1, 2)
        models = [init_params(self.SPEC, seed) for seed in seeds]
        stacked = stack_models(models)
        rng = np.random.default_rng(0)
        make, step = ((AdamState, partial(adam_step, lr=0.01)) if kind == "adam"
                      else (SgdState, partial(sgd_step, lr=0.01, momentum=0.9)))
        states = [make() for _ in seeds]
        stacked_state = make()
        for _ in range(5):
            x = rng.standard_normal((2, 16, 2))
            labels = rng.integers(0, 3, (2, 16))
            value, grads = cross_entropy_and_grads(stacked, x, labels, frozen)
            assert [g is None for g in grads] == [i // 2 in frozen for i in range(6)]
            step(stacked, grads, stacked_state)
            for s, (model, state) in enumerate(zip(models, states)):
                single_value, single = cross_entropy_and_grads(model, x[s], labels[s],
                                                               frozen)
                assert value[s] == single_value
                for g, g1 in zip(grads, single):
                    if g is not None:
                        np.testing.assert_array_equal(g[s], g1)
                step(model, single, state)
        for s, model in enumerate(models):
            np.testing.assert_array_equal(stacked.flat[s], model.flat)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_plain_list_steps_match_per_seed_steps(self, kind):
        # a plain gradient list of stacked arrays, with a None run between
        models = [init_params(self.SPEC, seed) for seed in (1, 2)]
        stacked = stack_models(models)
        make, step = ((AdamState, partial(adam_step, lr=0.01)) if kind == "adam"
                      else (SgdState, partial(sgd_step, lr=0.01, momentum=0.9)))
        states = [make() for _ in models]
        stacked_state = make()
        rng = np.random.default_rng(3)
        for _ in range(3):
            grads = [rng.standard_normal(p.shape) for p in stacked.parameters()]
            grads[2:4] = [None, None]
            step(stacked, grads, stacked_state)
            for s, (model, state) in enumerate(zip(models, states)):
                step(model, [None if g is None else g[s] for g in grads], state)
        for s, model in enumerate(models):
            np.testing.assert_array_equal(stacked.flat[s], model.flat)

    def test_backward_views_one_buffer(self):
        model = init_params(self.SPEC, 3)
        x = np.random.default_rng(1).standard_normal((8, 2))
        record = forward(model, x)
        _, logit_grad = softmax_cross_entropy(record.logits, np.zeros(8, dtype=int))
        # layer 0 is frozen, so its two parameters get None
        grads = backward(model, x, record, {}, logit_grad, frozen={0})
        assert grads.flat.shape == model.flat.shape
        assert grads[:2] == [None, None]
        for i, g in enumerate(grads[2:], start=2):
            assert np.shares_memory(g, grads.flat)
            np.testing.assert_array_equal(
                grads.flat[model.offsets[i]:model.offsets[i + 1]], g.ravel())


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

    @pytest.mark.parametrize("corrupt, named", [
        (lambda b: b[:8], "model file truncated in header"),
        (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], "unsupported model format version 2"),
        (lambda b: b[:16], "model file truncated in layer header"),
        (lambda b: b[:20] + bytes([7]) + b[21:], "unknown activation tag 7"),
        (lambda b: b + b"x", "trailing bytes after model payload"),
    ], ids=["header", "version", "layer-header", "activation-tag", "trailing"])
    def test_malformed_file_is_corrupt(self, corrupt, named):
        # a 2 -> 2 relu layer and a 2 -> 2 head: a 12-byte header, then each
        # layer's 9-byte header (the first's tag at byte 20) and 24 payload bytes
        blob = serialize_model(init_params(NetworkSpec.dense(2, [2], 2), seed=0))
        with pytest.raises(CorruptFile) as excinfo:
            deserialize_model(corrupt(blob))
        assert str(excinfo.value) == named

    def test_one_layer_file_is_corrupt(self):
        # version 1, one 2 x 2 identity layer: a head with no hidden layer
        import struct

        one_layer = struct.pack("<4sIIIIB", b"FPNN", 1, 1, 2, 2, 2) + bytes(4 * 6)
        with pytest.raises(CorruptFile, match="1-layer model file"):
            deserialize_model(one_layer)

    @pytest.mark.parametrize("head,named", [
        ((5, 2, 2), "layer widths do not chain: 4 -> 5"),
        ((4, 2, 0), "identity activation"),
        ((4, 0, 2), "out_width must be an integer >= 1, got 0"),
    ], ids=["unchained", "relu-head", "zero-width"])
    def test_malformed_head_is_corrupt(self, head, named):
        # a 2 -> 4 relu hidden layer under a head that does not fit it
        import struct

        rows_in, cols_out, _ = head
        blob = b"".join([
            struct.pack("<4sII", b"FPNN", 1, 2),
            struct.pack("<IIB", 2, 4, 0), bytes(4 * (8 + 4)),
            struct.pack("<IIB", *head), bytes(4 * (rows_in * cols_out + cols_out)),
        ])
        with pytest.raises(CorruptFile, match=f"2-layer model file: .*{named}"):
            deserialize_model(blob)

    def test_fingerprint_tracks_parameters(self):
        model = init_params(NetworkSpec.dense(2, [2], 2), seed=0)
        fp1 = model_fingerprint(model)
        model.weights[0][0, 0] += np.float32(0.5)
        assert model_fingerprint(model) != fp1
        assert len(fp1) == 32

    def test_golden_byte_layout(self):
        # pin the wire format itself, not just the round trip
        import struct

        spec = NetworkSpec((LayerSpec(2, 1, "relu"), LayerSpec(1, 2, "identity")))
        model = Model(
            spec,
            [np.array([[1.5], [-2.0]], dtype=np.float32),
             np.array([[3.0, -4.0]], dtype=np.float32)],
            [np.array([0.25], dtype=np.float32),
             np.array([0.5, -0.5], dtype=np.float32)],
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
