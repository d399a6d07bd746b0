"""Gradients of the dense MLP by one explicit reverse walk.

Every loss featprior trains puts gradient in at two kinds of place:
hidden activations (the GP-KL feature gradient, which ``gp_prior`` gives
analytically) and the logits (cross-entropy, soft-target or L2).
``backward`` takes those input gradients, walks the network from the
highest of them down to the lowest unfrozen layer, and returns parameter
gradients in ``Model.parameters()`` order.  Arithmetic is float64.  A
leading axis (a stacked model) gives each slice its own call's bits, and
an input gradient is of the whole (stacked) activation or logits.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, LabelOutOfRange
from .gp_prior import _log_softmax
from .network import ParamGrads


def softmax_cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], and its
    gradient with respect to the logits: (value, dL/dlogits), one value
    per seed for stacked logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim < 2:
        raise DimensionMismatch(f"logits must be 2-d, got shape {logits.shape}")
    labels = np.asarray(labels)
    n, c = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise DimensionMismatch(
            f"labels shape {labels.shape} does not match batch size {n}"
        )
    # dtype.kind, not np.issubdtype: this runs every step
    if labels.size and labels.dtype.kind not in "iu":
        raise LabelOutOfRange(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    log_probs = _log_softmax(logits)
    # seeds fold into the rows; sum / n is np.mean without its per-call cost
    rows, picks = np.arange(labels.size), labels.ravel()
    value = -log_probs.reshape(-1, c)[rows, picks].reshape(labels.shape).sum(axis=-1) / n
    grad = np.exp(log_probs)
    grad.reshape(-1, c)[rows, picks] -= 1.0
    return value, grad / n


def backward(model, x, record, act_grads, logit_grad, frozen=()) -> list:
    """Parameter gradients of a loss whose gradient enters at hidden
    activations and at the logits.

    ``record`` is ``forward(model, x)``; ``act_grads`` maps a hidden-layer
    index to dL/d(activation), the gradient of the whole (stacked)
    ``record.activations[layer]``, and ``logit_grad`` is dL/dlogits or None.
    The head, the last of ``model.spec.layers``, is layer L, the hidden-layer
    count.  The walk starts at the head when there is a logit gradient, else
    at the deepest layer in ``act_grads``, and stops at the lowest layer not
    in ``frozen``, passing through frozen layers.  Their parameters and those
    it does not reach get None, which the optimizers skip; the rest are
    views of one ``ParamGrads.flat`` buffer.
    """
    activations = [layer.activation for layer in model.spec.layers]
    params = model.parameters()  # weight and bias of each layer, the head last
    lowest = 0  # the lowest layer the walk trains; above the head if none
    while lowest in frozen:
        lowest += 1
    injected = dict(act_grads)
    if logit_grad is not None:
        injected[len(activations) - 1] = logit_grad
    grads = ParamGrads([None] * len(params))
    grads.flat, o = np.zeros(model.flat.shape), model.offsets
    inputs = [np.asarray(x, dtype=np.float64)] + list(record.activations)
    g = None
    for layer in range(max(injected, default=lowest - 1), lowest - 1, -1):
        if layer in injected:
            if g is None:
                g = injected[layer]
            else:  # g is a fresh product here; += has the bits of injected + g
                g += injected[layer]
        if activations[layer] == "relu":
            g = g * (inputs[layer + 1] > 0.0)
        elif activations[layer] == "tanh":
            y = inputs[layer + 1]
            g = g * (1.0 - y * y)
        if layer not in frozen:
            for i in (2 * layer, 2 * layer + 1):
                grads[i] = grads.flat[..., o[i]:o[i + 1]].reshape(params[i].shape)
            np.matmul(inputs[layer].swapaxes(-1, -2), g, out=grads[2 * layer])
            g.sum(axis=-2, out=grads[2 * layer + 1])
        if layer > lowest:
            g = g @ params[2 * layer].swapaxes(-1, -2)
    return grads
