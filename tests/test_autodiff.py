"""Dense-MLP backward tests: every training objective's parameter
gradients against central finite differences, the early stop of the
reverse walk, and fused softmax cross-entropy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from featprior.autodiff import backward, softmax_cross_entropy
from featprior.data import FeatureCache
from featprior.errors import DimensionMismatch, LabelOutOfRange
from featprior.gp_prior import PriorConfig
from featprior.network import (
    LayerSpec,
    Model,
    NetworkSpec,
    forward,
    grad_check,
    init_params,
    stack_models,
)
from featprior.train import ExpertPrior, LayerGroupMapping, _objective, _prior_objective

from oracles import central_diff_gradient, relative_error

TOL = 1e-6
BATCH = 5


def teacher_cache(rng, widths) -> FeatureCache:
    """Random teacher feature groups {gid: BATCH x width}."""
    return FeatureCache(
        groups={gid: rng.standard_normal((BATCH, w)).astype(np.float32)
                for gid, w in widths.items()},
        dataset_fingerprint=b"\0" * 32, teacher_fingerprint=b"\0" * 32)


def objective_error(model, x, labels, objective) -> float:
    idx = np.arange(x.shape[0])

    def loss_fn(m):
        record = forward(m, x)
        loss, _, _, act_grads, logit_grad = objective([idx])(record, idx, labels)
        return loss, backward(m, x, record, act_grads, logit_grad)

    return grad_check(model, loss_fn)


def stacked_setup(modes, activation, seeds=2):
    """A float64 model stacking each seed's init once per mode, the seeds'
    batches repeated per mode, and a stacked cache of the seeds' teacher
    features (group 0) and logits (group 2)."""
    rng = np.random.default_rng(8)
    spec = NetworkSpec.dense(3, [6, 4], 3, activation)
    m = stack_models([init_params(spec, s) for s in range(seeds)] * len(modes))
    model = Model(spec, [w.astype(np.float64) for w in m.weights],
                  [b.astype(np.float64) for b in m.biases])
    x = np.concatenate([rng.standard_normal((seeds, BATCH, 3))] * len(modes))
    labels = np.concatenate([rng.integers(0, 3, size=(seeds, BATCH))] * len(modes))
    cache = FeatureCache(
        groups={gid: rng.standard_normal((seeds, BATCH, w)).astype(np.float32)
                for gid, w in {0: 4, 2: 3}.items()},
        dataset_fingerprint=b"\0" * 32, teacher_fingerprint=b"\0" * 32)
    idx = np.broadcast_to(np.arange(BATCH), labels.shape)
    return model, x, labels, idx, cache


@pytest.fixture
def batch():
    rng = np.random.default_rng(0)
    return rng, rng.standard_normal((BATCH, 3)), rng.integers(0, 3, size=BATCH)


ACTIVATIONS = ("relu", "tanh", "identity")
CFG = PriorConfig(jitter=1e-3, alpha=1.0)


class TestObjectiveGradients:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_task_cross_entropy(self, batch, activation):
        _, x, labels = batch
        model = init_params(NetworkSpec.dense(3, [6, 4], 3, activation), 1)
        objective = _objective(("naive",), CFG)
        assert objective_error(model, x, labels, objective) < TOL

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_prior_terms_with_weights(self, batch, activation):
        # two terms on layer 1 and one on layer 0, at weights 1 and 0.5
        rng, x, labels = batch
        cache = teacher_cache(rng, {0: 4, 1: 7})
        terms = [ExpertPrior(cache, LayerGroupMapping(((1, 0), (0, 1))), 1.0),
                 ExpertPrior(cache, LayerGroupMapping(((1, 1),)), 0.5)]
        model = init_params(NetworkSpec.dense(3, [6, 4, 5], 3, activation), 2)
        objective = _prior_objective(terms, CFG)
        assert objective_error(model, x, labels, objective) < TOL

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_joint_with_alpha(self, batch, activation):
        rng, x, labels = batch
        cache = teacher_cache(rng, {0: 4})
        cfg = PriorConfig(jitter=1e-3, alpha=0.3)
        objective = _objective(("joint",), cfg, cache, LayerGroupMapping(((0, 0),)))
        model = init_params(NetworkSpec.dense(3, [6, 4], 3, activation), 3)
        assert objective_error(model, x, labels, objective) < TOL

    @pytest.mark.parametrize("kind", ["hinton_baseline", "l2_baseline"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_logit_baselines(self, batch, kind, activation):
        rng, x, labels = batch
        cache = teacher_cache(rng, {2: 3})
        cfg = PriorConfig(alpha=0.7, temperature=2.5)
        objective = _objective((kind,), cfg, cache, logits_group=2)
        model = init_params(NetworkSpec.dense(3, [6, 4], 3, activation), 4)
        assert objective_error(model, x, labels, objective) < TOL

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_kl_and_cross_entropy_meet_at_top_layer(self, batch, activation):
        # CE through the head and a KL term both reach the top hidden
        # layer, layer 1, where the walk adds the KL onto the head's gradient
        rng, x, labels = batch
        cache = teacher_cache(rng, {0: 4})
        cfg = PriorConfig(jitter=1e-3, alpha=0.5)
        objective = _objective(("joint",), cfg, cache,
                               LayerGroupMapping(((1, 0), (0, 0))))
        model = init_params(NetworkSpec.dense(3, [6, 3], 3, activation), 5)
        assert objective_error(model, x, labels, objective) < TOL

    @pytest.mark.parametrize("modes", [
        ("naive", "joint"),
        ("joint", "naive", "hinton_baseline", "l2_baseline"),
    ], ids=["naive-joint", "four-modes"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_stacked_blocks(self, modes, activation):
        # each slice's loss against its own parameters: a block's term
        # reaches its own slices, and every slice walks its own network
        model, x, labels, idx, cache = stacked_setup(modes, activation)
        cfg = PriorConfig(jitter=1e-3, alpha=0.3, temperature=2.5)
        objective = _objective(modes, cfg, cache,
                               LayerGroupMapping(((1, 0),)), logits_group=2)
        record = forward(model, x)
        _, _, _, act_grads, logit_grad = objective([idx])(record, idx, labels)
        analytic = backward(model, x, record, act_grads, logit_grad).flat
        start = model.flat.copy()
        for s in range(len(start)):
            def slice_loss(row, s=s):
                model.flat[s] = row
                return float(objective([idx])(forward(model, x), idx, labels)[0][s])

            fd = central_diff_gradient(slice_loss, start[s])
            model.flat[s] = start[s]
            assert relative_error(analytic[s], fd) < TOL, s


class TestStackedBlocks:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_each_block_gets_its_single_block_bits(self, activation):
        modes = ("joint", "naive", "hinton_baseline", "l2_baseline")
        model, x, labels, idx, cache = stacked_setup(modes, activation)
        mapping = LayerGroupMapping(((1, 0), (0, 0)))
        cfg = PriorConfig(jitter=1e-3, alpha=0.3, temperature=2.5)
        record = forward(model, x)
        loss, ce, kl, act_grads, logit_grad = _objective(
            modes, cfg, cache, mapping, 2)([idx])(record, idx, labels)
        grads = backward(model, x, record, act_grads, logit_grad)
        assert kl is None
        for b, mode in enumerate(modes):
            rows = slice(2 * b, 2 * b + 2)
            block = Model(model.spec, [w[rows] for w in model.weights],
                          [bias[rows] for bias in model.biases])
            record = forward(block, x[rows])
            one = _objective((mode,), cfg, cache, mapping, 2)
            b_loss, b_ce, _, b_act, b_logit = one([idx[rows]])(record, idx[rows], labels[rows])
            b_grads = backward(block, x[rows], record, b_act, b_logit)
            np.testing.assert_array_equal(loss[rows], b_loss)
            np.testing.assert_array_equal(ce[rows], b_ce)
            np.testing.assert_array_equal(grads.flat[rows], b_grads.flat)


class TestEarlyStop:
    def test_phase1_stops_above_deepest_mapped_layer(self, batch):
        rng, x, labels = batch
        cache = teacher_cache(rng, {0: 4})
        model = init_params(NetworkSpec.dense(3, [6, 4, 5], 3), 6)
        objective = _prior_objective(
            [ExpertPrior(cache, LayerGroupMapping(((1, 0),)))], CFG)
        record = forward(model, x)
        _, _, _, act_grads, logit_grad = objective([np.arange(BATCH)])(
            record, np.arange(BATCH), labels)
        grads = backward(model, x, record, act_grads, logit_grad)
        reached = [g is not None for g in grads]
        assert reached == [True] * 4 + [False] * 4

    def test_phase2_stops_below_lowest(self, batch):
        _, x, labels = batch
        model = init_params(NetworkSpec.dense(3, [6, 4, 5], 3), 7)
        record = forward(model, x)
        _, _, _, act_grads, logit_grad = _objective(("naive",), CFG)([np.arange(BATCH)])(
            record, np.arange(BATCH), labels)
        full = backward(model, x, record, act_grads, logit_grad)
        stopped = backward(model, x, record, act_grads, logit_grad, frozen={0, 1})
        assert [g is None for g in stopped] == [True] * 4 + [False] * 4
        for g_full, g_stopped in zip(full[4:], stopped[4:]):
            np.testing.assert_array_equal(g_full, g_stopped)

    @pytest.mark.parametrize("frozen", [{1}, {2}, {1, 3}])
    def test_walk_passes_through_frozen_layers(self, batch, frozen):
        # a frozen layer above a trained one still carries the gradient
        # down; only its own weight and bias are left None
        _, x, labels = batch
        model = init_params(NetworkSpec.dense(3, [6, 4, 5], 3, "tanh"), 8)
        record = forward(model, x)
        _, _, _, act_grads, logit_grad = _objective(("naive",), CFG)([np.arange(BATCH)])(
            record, np.arange(BATCH), labels)
        full = backward(model, x, record, act_grads, logit_grad)
        trained = backward(model, x, record, act_grads, logit_grad, frozen)
        for i, (g_full, g_trained) in enumerate(zip(full, trained)):
            if i // 2 in frozen:
                assert g_trained is None, i
            else:
                np.testing.assert_array_equal(g_full, g_trained)

    def test_all_layers_frozen_gives_no_gradients(self, batch):
        _, x, labels = batch
        model = init_params(NetworkSpec.dense(3, [6], 3), 9)
        record = forward(model, x)
        _, logit_grad = softmax_cross_entropy(record.logits, labels)
        assert backward(model, x, record, {}, logit_grad, (0, 1)) == [None] * 4


class TestBackwardBasics:
    def test_constant_loss_gives_zero_grads(self, batch):
        _, x, _ = batch
        model = init_params(NetworkSpec.dense(3, [4], 2), seed=0)
        grads = backward(model, x, forward(model, x), {}, None)
        assert grads == [None] * 4

    def test_sum_of_parameters_gives_ones(self):
        # one row of ones through an identity layer and an identity head:
        # the logit sum is the sum of the hidden layer's parameters
        spec = NetworkSpec((LayerSpec(2, 3, "identity"), LayerSpec(3, 3, "identity")))
        model = Model(spec, [np.arange(6.0).reshape(2, 3), np.eye(3)],
                      [np.ones(3), np.zeros(3)])
        x = np.ones((1, 2))
        record = forward(model, x)
        gw, gb, ghw, ghb = backward(model, x, record, {}, np.ones_like(record.logits))
        np.testing.assert_array_equal(gw, np.ones((2, 3)))
        np.testing.assert_array_equal(gb, np.ones(3))
        np.testing.assert_array_equal(ghw, record.activations[0].T @ np.ones((1, 3)))
        np.testing.assert_array_equal(ghb, np.ones(3))


class TestGradientsMatchFiniteDifferences:
    def test_dense_relu_chain(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        spec = NetworkSpec((LayerSpec(4, 5, "relu"), LayerSpec(5, 2, "identity")))
        model = Model(spec, [rng.standard_normal((4, 5)), rng.standard_normal((5, 2))],
                      [rng.standard_normal(5), np.zeros(2)])
        # loss = 0.5 * sum(tanh(logits)), gradient 0.5 * (1 - tanh^2)
        record = forward(model, x)
        y = np.tanh(record.logits)
        grads = backward(model, x, record, {}, 0.5 * (1.0 - y * y))

        params = model.parameters()
        for i, arr in enumerate(params[:3]):
            def f(flat, i=i):
                w0, b0, wh, bh = [flat.reshape(p.shape) if j == i else p
                                  for j, p in enumerate(params)]
                probe = Model(spec, [w0, wh], [b0, bh])
                return 0.5 * float(np.tanh(forward(probe, x).logits).sum())

            fd = central_diff_gradient(f, arr.ravel()).reshape(arr.shape)
            assert relative_error(grads[i], fd) < 1e-7, i

    def test_broadcast_add_reduces_gradient(self, batch):
        # a bias is broadcast over the batch, so its gradient is the batch
        # sum of the gradient at its layer's output
        _, x, _ = batch
        model = init_params(NetworkSpec.dense(3, [4], 2, "identity"), seed=1)
        logit_grad = np.arange(2.0 * BATCH).reshape(BATCH, 2)
        grads = backward(model, x, forward(model, x), {}, logit_grad)
        np.testing.assert_allclose(grads[3], logit_grad.sum(axis=0))
        np.testing.assert_allclose(
            grads[1], (logit_grad @ model.weights[-1].astype(np.float64).T).sum(axis=0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 5, 9])
        assert softmax_cross_entropy(logits, labels)[0] == pytest.approx(
            math.log(10.0), rel=1e-12)

    def test_saturated_correct_logits(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 1000.0
        logits[1, 2] = 1000.0
        assert softmax_cross_entropy(logits, [1, 2])[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_class_hand_value(self):
        # -log(e / (e + e^2)) = log(1 + e)
        value, _ = softmax_cross_entropy(np.array([[1.0, 2.0]]), [0])
        assert value == pytest.approx(math.log(1.0 + math.e), rel=1e-12)
        assert value == pytest.approx(1.313262, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, size=5)
        base, _ = softmax_cross_entropy(logits, labels)
        shifted, _ = softmax_cross_entropy(logits + 123.456, labels)
        assert abs(base - shifted) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            softmax_cross_entropy(np.zeros((1, 3)), [3])

    @pytest.mark.parametrize("logits, labels, named", [
        (np.zeros(3), [0], "logits must be 2-d, got shape (3,)"),
        (np.zeros((2, 3)), [0], "labels shape (1,) does not match batch size 2"),
        (np.zeros((2, 3)), [[0, 1]], "labels shape (1, 2) does not match batch size 2"),
    ], ids=["1-d-logits", "labels-short", "labels-2-d"])
    def test_shape_mismatch_rejected(self, logits, labels, named):
        with pytest.raises(DimensionMismatch) as excinfo:
            softmax_cross_entropy(logits, labels)
        assert str(excinfo.value) == named

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])
        _, grad = softmax_cross_entropy(logits, labels)

        def f(flat):
            return softmax_cross_entropy(flat.reshape(3, 4), labels)[0]

        fd = central_diff_gradient(f, logits.ravel()).reshape(3, 4)
        assert relative_error(grad, fd) < 1e-7
