"""Dense networks: architecture specs, parameters, forward passes,
initialization, optimizers, gradient checking and binary model files.

Every network is a chain of dense layers: one or more hidden layers, then
the softmax-classifier head, the last layer, whose identity output is the
logits.  A model file holds exactly those layers in that order.

Parameters are stored in float32 (also the file format), in one flat vector
per model that the optimizers update in one pass; arithmetic runs in float64,
as the matmul and add that read a parameter promote it.  Per-layer activations
(``forward``'s ``ForwardRecord`` of float64 arrays) let priors attach to any
layer, and ``autodiff.backward`` reads them on the way back.
A stacked model (``stack_models``) has a leading seed axis on every
parameter, ``Model.flat`` (S x P), optimizer state and batch; each seed
gets the bits of its own 2-d model.
``sgd_step`` and ``adam_step`` take their step size (and SGD its momentum)
from the caller's ``TrainPlan``; Adam's β1, β2 and ε are the constants
``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import _check_counts, _check_seed
from .errors import (
    CorruptFile,
    DimensionMismatch,
    FeatPriorError,
    NonFiniteActivation,
    NonFiniteGradient,
)

ACTIVATIONS = ("relu", "tanh", "identity")
_ACT_TAGS = {"relu": 0, "tanh": 1, "identity": 2}
_TAG_ACTS = {v: k for k, v in _ACT_TAGS.items()}

_MODEL_MAGIC = b"FPNN"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    in_width: int
    out_width: int
    activation: str = "relu"

    def __post_init__(self):
        _check_counts(in_width=self.in_width, out_width=self.out_width)
        if self.activation not in ACTIVATIONS:
            raise FeatPriorError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Dense layers in order: one or more hidden layers, then the
    softmax-classifier head of ``output_head`` classes, which is layer L
    (``hidden_count``) and has the identity activation."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 2:
            raise FeatPriorError("a network needs at least one hidden layer and a head")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_width != nxt.in_width:
                raise FeatPriorError(
                    f"layer widths do not chain: {prev.out_width} -> {nxt.in_width}"
                )
        if self.layers[-1].activation != "identity":
            raise FeatPriorError("the head (last layer) needs the identity activation")

    @staticmethod
    def dense(input_width: int, hidden, classes: int,
              activation: str = "relu") -> "NetworkSpec":
        widths = [input_width, *hidden, classes]
        activations = [activation] * (len(widths) - 2) + ["identity"]
        return NetworkSpec(tuple(LayerSpec(*layer) for layer in
                                 zip(widths, widths[1:], activations)))

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    @property
    def hidden_count(self) -> int:
        return len(self.layers) - 1

    @property
    def output_head(self) -> int:
        return self.layers[-1].out_width


@dataclass
class Model:
    """A spec plus its float32 parameters, one weight and one bias per layer
    of ``spec.layers`` (the head last), held as reshaped views into one
    vector ``flat`` in ``parameters()`` order: parameter i is
    ``flat[..., offsets[i]:offsets[i + 1]]``.  The constructor copies the
    given arrays into it in their common dtype (float64 for
    ``grad_check``'s probe).  Write into the views in place; rebinding one
    detaches it."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = self.spec.layers
        if not len(self.weights) == len(self.biases) == len(layers):
            raise DimensionMismatch(f"{len(layers)} layers in the spec, but {len(self.weights)} "
                                    f"weights and {len(self.biases)} biases")
        arrays = [np.asarray(p) for p in self.parameters()]
        lead = arrays[0].shape[:-2][:1]  # the seed axis, if any; at most one
        for i, (layer, w, b) in enumerate(zip(layers, arrays[0::2], arrays[1::2])):
            if (w.shape, b.shape) != ((*lead, layer.in_width, layer.out_width),
                                      (*lead, layer.out_width)):
                raise DimensionMismatch(
                    f"layer {i} is {layer.in_width} -> {layer.out_width}, but its weight "
                    f"has shape {w.shape} and its bias {b.shape}")
        rows = [a.reshape(*lead, -1) for a in arrays]
        self.flat = np.concatenate(rows, axis=-1)  # copies
        self.offsets = [0] + np.cumsum([r.shape[-1] for r in rows], dtype=int).tolist()
        views = [self.flat[..., start:stop].reshape(a.shape) for a, start, stop
                 in zip(arrays, self.offsets, self.offsets[1:])]
        self.weights, self.biases = views[0::2], views[1::2]

    def parameters(self) -> list[np.ndarray]:
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def copy(self) -> "Model":
        return _from_parameters(self.spec, self.parameters())


def _from_parameters(spec: NetworkSpec, params) -> Model:
    return Model(spec, params[0::2], params[1::2])


def stack_models(models) -> Model:
    """One model of a shared spec whose seed slice s is ``models[s]``."""
    params = zip(*(m.parameters() for m in models))
    return _from_parameters(models[0].spec, [np.stack(ps) for ps in params])


def unstack_model(model: Model) -> list[Model]:
    """Copies of a stacked model's seed slices."""
    return [_from_parameters(model.spec, [p[s] for p in model.parameters()])
            for s in range(model.flat.shape[0])]


@dataclass
class ForwardRecord:
    """Per-layer activations (batch x width each) and the head's logits,
    as float64 arrays."""

    activations: list
    logits: np.ndarray


def init_params(spec: NetworkSpec, seed) -> Model:
    """He-uniform weights for relu layers, Xavier-uniform otherwise;
    zero biases.  Fully determined by the seed."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)

    def draw(fan_in, fan_out, activation):
        if activation == "relu":
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)

    return Model(spec, [draw(l.in_width, l.out_width, l.activation) for l in spec.layers],
                 [np.zeros(l.out_width, dtype=np.float32) for l in spec.layers])


def _dense(h: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str) -> np.ndarray:
    """``activation(h @ w + b)`` in one fresh float64 buffer; the matmul and
    the add promote the float32 ``w`` and ``b`` as they read them."""
    t = h @ w
    t += b[..., None, :]
    if activation == "relu":
        np.maximum(t, 0.0, out=t)
    elif activation == "tanh":
        np.tanh(t, out=t)
    return t


def forward(model: Model, batch) -> ForwardRecord:
    """Run the network on a batch, recording every layer's activations."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2:
        raise DimensionMismatch(f"batch must be 2-d, got shape {x.shape}")
    expected = model.weights[0].shape[-2]
    if x.shape[-1] != expected:
        raise DimensionMismatch(
            f"batch width {x.shape[-1]} != network input width {expected}"
        )

    h, activations = x, []
    for i, (layer, w, b) in enumerate(zip(model.spec.layers, model.weights,
                                          model.biases)):
        h = _dense(h, w, b, layer.activation)
        _check_finite(h, f"layer {i}" if i < model.spec.hidden_count else "logits")
        activations.append(h)
    return ForwardRecord(activations=activations[:-1], logits=h)


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteActivation(f"non-finite values at {where}; training diverged?")


# -- optimizers --------------------------------------------------------------

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class SgdState:
    """Momentum buffer: one float64 vector laid out like ``Model.flat``."""

    velocity: np.ndarray | None = None


@dataclass
class AdamState:
    """First and second moments, each one float64 vector laid out like
    ``Model.flat``, and the step count."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


class ParamGrads(list):
    """Gradients in ``parameters()`` order: None (skipped by the optimizers)
    or views of one float64 array ``flat`` laid out like ``Model.flat``."""


def _grad_runs(model: Model, grads) -> list:
    """(start, stop, the run's gradients laid out like ``Model.flat``) per maximal
    run of non-None gradients, checked in count, shape and value before any change."""
    if len(grads) != len(model.offsets) - 1:
        raise DimensionMismatch(f"{len(grads)} gradients for "
                                f"{len(model.offsets) - 1} parameters")
    flat = getattr(grads, "flat", None)
    if flat is None:
        for i, (g, p) in enumerate(zip(grads, model.parameters())):
            if g is not None and np.shape(g) != p.shape:
                raise DimensionMismatch(f"gradient {i} has shape {np.shape(g)}, not {p.shape}")
    runs, first = [], None
    for i, g in enumerate([*grads, None]):
        if g is None and first is not None:
            run = (flat[..., model.offsets[first]:model.offsets[i]] if flat is not None
                   else np.concatenate([np.reshape(h, (*model.flat.shape[:-1], -1))
                                        for h in grads[first:i]], axis=-1))
            if not np.isfinite(run).all():
                raise NonFiniteGradient("gradient contains NaN or infinity")
            runs.append((model.offsets[first], model.offsets[i], run))
            first = None
        elif g is not None and first is None:
            first = i
    return runs


def sgd_step(model: Model, grads, state: SgdState, lr: float, momentum: float):
    """SGD with momentum.  ``grads[i] is None`` skips parameter i entirely
    (used for frozen layers), leaving value and state untouched."""
    runs = _grad_runs(model, grads)
    if state.velocity is None:
        state.velocity = np.zeros(model.flat.shape)
    for start, stop, g in runs:
        p, vel = model.flat[..., start:stop], state.velocity[..., start:stop]
        vel *= momentum
        vel += g
        p -= lr * vel
    return model, state


def adam_step(model: Model, grads, state: AdamState, lr: float):
    """Standard Adam with bias correction at the module's β1, β2 and ε;
    ``None`` gradients are skipped.
    Each run of given gradients is one elementwise pass over ``model.flat``."""
    runs = _grad_runs(model, grads)
    if state.m is None:
        state.m = np.zeros(model.flat.shape)
        state.v = np.zeros(model.flat.shape)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for start, stop, g in runs:
        p, m, v = (model.flat[..., start:stop], state.m[..., start:stop],
                   state.v[..., start:stop])
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= step  # in float64, rounded to p's dtype once
    return model, state


# -- gradient checking -------------------------------------------------------

GRAD_CHECK_H = 1e-5  # grad_check's finite-difference step


def grad_check(model: Model, loss_fn, *, max_coords: int | None = None,
               seed: int = 0) -> float:
    """Max relative error between analytic and central finite-difference
    gradients, at step ``GRAD_CHECK_H``.

    ``loss_fn(model)`` returns ``(loss, grads)`` with grads in
    ``parameters()`` order (``autodiff.backward`` gives them; None counts
    as a zero gradient); finite differences re-evaluate its loss on a
    float64 copy of the model.
    """
    _, grads = loss_fn(model)
    analytic_flat = np.concatenate(
        [np.zeros(p.size) if g is None else np.ravel(g)
         for p, g in zip(model.parameters(), grads)], dtype=np.float64)

    coords = range(model.flat.size)
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        coords = sorted(rng.choice(len(coords), size=max_coords, replace=False))

    worst = 0.0
    # float64 probe model: float32 storage would quantize the +-h probes
    probe = _from_parameters(model.spec,
                             [p.astype(np.float64) for p in model.parameters()])
    for i in coords:
        original = probe.flat[i]
        fd = []
        for sign in (+1.0, -1.0):
            probe.flat[i] = original + sign * GRAD_CHECK_H
            fd.append(float(loss_fn(probe)[0]))
        probe.flat[i] = original
        numeric = (fd[0] - fd[1]) / (2.0 * GRAD_CHECK_H)
        analytic = float(analytic_flat[i])
        err = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)
        worst = max(worst, err)
    return worst


# -- serialization -----------------------------------------------------------

def serialize_model(model: Model) -> bytes:
    """Little-endian binary layout; the classifier head is the last layer
    and always carries the identity tag."""
    chunks = [_MODEL_MAGIC, struct.pack("<II", _MODEL_VERSION, len(model.weights))]
    for w, b, layer in zip(model.weights, model.biases, model.spec.layers):
        chunks.append(struct.pack("<IIB", w.shape[0], w.shape[1],
                                  _ACT_TAGS[layer.activation]))
        chunks.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    return b"".join(chunks)


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    return deserialize_model(data)


def deserialize_model(data: bytes) -> Model:
    if data[:4] != _MODEL_MAGIC:
        raise CorruptFile("bad model magic; expected FPNN")
    if len(data) < 12:
        raise CorruptFile("model file truncated in header")
    version, n_layers = struct.unpack_from("<II", data, 4)
    if version != _MODEL_VERSION:
        raise CorruptFile(f"unsupported model format version {version}")
    offset = 12
    rows = []
    for _ in range(n_layers):
        if offset + 9 > len(data):
            raise CorruptFile("model file truncated in layer header")
        rows_in, cols_out, tag = struct.unpack_from("<IIB", data, offset)
        offset += 9
        if tag not in _TAG_ACTS:
            raise CorruptFile(f"unknown activation tag {tag}")
        need = 4 * (rows_in * cols_out + cols_out)
        if offset + need > len(data):
            raise CorruptFile("model file truncated in layer payload")
        wb = np.frombuffer(data, dtype="<f4", count=need // 4, offset=offset)
        offset += need
        rows.append((wb[:rows_in * cols_out].reshape(rows_in, cols_out),
                     wb[rows_in * cols_out:], _TAG_ACTS[tag]))
    if offset != len(data):
        raise CorruptFile("trailing bytes after model payload")
    try:
        spec = NetworkSpec(tuple(LayerSpec(w.shape[0], w.shape[1], act)
                                 for w, _, act in rows))
    except FeatPriorError as exc:
        raise CorruptFile(f"{n_layers}-layer model file: {exc}") from None
    return _from_parameters(spec, [a for w, b, _ in rows for a in (w, b)])


def model_fingerprint(model: Model) -> bytes:
    """32-byte content hash of the serialized parameters."""
    return hashlib.sha256(serialize_model(model)).digest()
