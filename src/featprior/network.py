"""Dense networks: architecture specs, parameters, forward passes,
initialization, optimizers, gradient checking and binary model files.

Parameters are stored in float32 (that is also the file format), in one
flat vector per model that the optimizers update in one pass; all
arithmetic runs in float64.  Per-layer activations are first-class outputs
of ``forward`` (a ``ForwardRecord`` of float64 arrays) so priors can attach
to any layer, and ``autodiff.backward`` reads them on the way back.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

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
        if self.in_width < 1 or self.out_width < 1:
            raise FeatPriorError(f"layer widths must be >= 1, got {self}")
        if self.activation not in ACTIVATIONS:
            raise FeatPriorError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Hidden dense layers plus an optional softmax-classifier head.

    ``output_head=None`` gives a feature-only network (used for gradient
    checking edge cases); such models cannot be written to disk.
    """

    layers: tuple[LayerSpec, ...]
    output_head: int | None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_width != nxt.in_width:
                raise FeatPriorError(
                    f"layer widths do not chain: {prev.out_width} -> {nxt.in_width}"
                )
        if self.output_head is not None and self.output_head < 1:
            raise FeatPriorError("output head width must be >= 1")

    @staticmethod
    def dense(input_width: int, hidden, classes: int | None,
              activation: str = "relu") -> "NetworkSpec":
        layers = []
        w = input_width
        for h in hidden:
            layers.append(LayerSpec(w, int(h), activation))
            w = int(h)
        return NetworkSpec(layers=tuple(layers), output_head=classes)

    @property
    def input_width(self) -> int:
        if self.layers:
            return self.layers[0].in_width
        if self.output_head is not None:
            raise FeatPriorError("head-only spec needs an explicit input width")
        return 0

    @property
    def hidden_count(self) -> int:
        return len(self.layers)

    @property
    def last_width(self) -> int:
        return self.layers[-1].out_width if self.layers else self.input_width


@dataclass
class Model:
    """A spec plus its float32 parameters, held as reshaped views into one
    vector ``flat`` in ``parameters()`` order: parameter i is
    ``flat[offsets[i]:offsets[i + 1]]``.  The constructor copies the given
    arrays into it in their common dtype (float64 for ``grad_check``'s
    probe).  Write into the views in place; rebinding one detaches it."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weight: np.ndarray | None
    head_bias: np.ndarray | None
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(p) for p in self.parameters()]
        # concatenate copies; the empty float32 array types a parameterless model
        self.flat = np.concatenate([*arrays, np.zeros(0, np.float32)], axis=None)
        self.offsets = [0] + np.cumsum([a.size for a in arrays], dtype=int).tolist()
        views = [self.flat[start:stop].reshape(a.shape) for a, start, stop
                 in zip(arrays, self.offsets, self.offsets[1:])]
        hidden = 2 * len(self.weights)
        self.weights, self.biases = views[0:hidden:2], views[1:hidden:2]
        if self.head_weight is not None:
            self.head_weight, self.head_bias = views[hidden:]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        if self.head_weight is not None:
            params.extend((self.head_weight, self.head_bias))
        return params

    def param_layer_ids(self) -> list[int]:
        """Layer index of each parameter; the head counts as layer L."""
        ids = []
        for i in range(len(self.weights)):
            ids.extend((i, i))
        if self.head_weight is not None:
            ids.extend((self.spec.hidden_count, self.spec.hidden_count))
        return ids

    def copy(self) -> "Model":
        return Model(self.spec, self.weights, self.biases, self.head_weight,
                     self.head_bias)


@dataclass
class ForwardRecord:
    """Per-layer activations (batch x width each) and the final logits,
    as float64 arrays.  For head-less models ``logits`` aliases the last
    activation."""

    activations: list
    logits: np.ndarray


def init_params(spec: NetworkSpec, seed) -> Model:
    """He-uniform weights for relu layers, Xavier-uniform otherwise;
    zero biases.  Fully determined by the seed."""
    rng = np.random.default_rng(seed)

    def draw(fan_in, fan_out, activation):
        if activation == "relu":
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)

    weights, biases = [], []
    for layer in spec.layers:
        weights.append(draw(layer.in_width, layer.out_width, layer.activation))
        biases.append(np.zeros(layer.out_width, dtype=np.float32))
    head_w = head_b = None
    if spec.output_head is not None:
        head_w = draw(spec.last_width, spec.output_head, "identity")
        head_b = np.zeros(spec.output_head, dtype=np.float32)
    return Model(spec, weights, biases, head_w, head_b)


def _apply_activation(x: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "tanh":
        return np.tanh(x)
    return x


def forward(model: Model, batch) -> ForwardRecord:
    """Run the network on a batch, recording every layer's activations."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"batch must be 2-d, got shape {x.shape}")
    if model.weights:
        expected = model.weights[0].shape[0]
    elif model.head_weight is not None:
        expected = model.head_weight.shape[0]
    else:
        expected = x.shape[1]
    if x.shape[1] != expected:
        raise DimensionMismatch(
            f"batch width {x.shape[1]} != network input width {expected}"
        )

    activations = []
    h = x
    for i, (layer, w, b) in enumerate(zip(model.spec.layers, model.weights,
                                          model.biases)):
        h = _apply_activation(h @ w.astype(np.float64) + b.astype(np.float64),
                              layer.activation)
        _check_finite(h, f"layer {i}")
        activations.append(h)
    logits = h
    if model.head_weight is not None:
        logits = (h @ model.head_weight.astype(np.float64)
                  + model.head_bias.astype(np.float64))
        _check_finite(logits, "logits")
    return ForwardRecord(activations=activations, logits=logits)


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteActivation(f"non-finite values at {where}; training diverged?")


# -- optimizers --------------------------------------------------------------

@dataclass(frozen=True)
class SgdConfig:
    lr: float
    momentum: float = 0.0


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


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


def _grad_runs(model: Model, grads) -> list:
    """(start, stop, gradients raveled into one vector) per maximal run of
    non-None gradients; checks them all before any parameter changes."""
    runs, first = [], None
    for i, g in enumerate([*grads, None]):
        if g is None and first is not None:
            run = np.concatenate(grads[first:i], axis=None)
            if not np.isfinite(run).all():
                raise NonFiniteGradient("gradient contains NaN or infinity")
            runs.append((model.offsets[first], model.offsets[i], run))
            first = None
        elif g is not None and first is None:
            first = i
    return runs


def sgd_step(model: Model, grads, state: SgdState, cfg: SgdConfig):
    """SGD with momentum.  ``grads[i] is None`` skips parameter i entirely
    (used for frozen layers), leaving value and state untouched."""
    runs = _grad_runs(model, grads)
    if state.velocity is None:
        state.velocity = np.zeros(model.flat.size)
    for start, stop, g in runs:
        p, vel = model.flat[start:stop], state.velocity[start:stop]
        vel *= cfg.momentum
        vel += g
        p -= cfg.lr * vel
    return model, state


def adam_step(model: Model, grads, state: AdamState, cfg: AdamConfig):
    """Standard Adam with bias correction; ``None`` gradients are skipped.
    Each run of given gradients is one elementwise pass over ``model.flat``."""
    runs = _grad_runs(model, grads)
    if state.m is None:
        state.m = np.zeros(model.flat.size)
        state.v = np.zeros(model.flat.size)
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for start, stop, g in runs:
        p, m, v = (model.flat[start:stop], state.m[start:stop],
                   state.v[start:stop])
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        step = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p -= step  # in float64, rounded to p's dtype once
    return model, state


# -- gradient checking -------------------------------------------------------

def grad_check(model: Model, loss_fn, h: float = 1e-5,
               max_coords: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and central finite-difference
    gradients.

    ``loss_fn(model)`` returns ``(loss, grads)`` with grads in
    ``parameters()`` order (``autodiff.backward`` gives them; None counts
    as a zero gradient); finite differences re-evaluate its loss on a
    float64 copy of the model.  Returns 0.0 for a model without parameters.
    """
    _, grads = loss_fn(model)
    analytic_flat = np.concatenate(
        [np.zeros(p.size) if g is None else np.ravel(g)
         for p, g in zip(model.parameters(), grads)] + [np.zeros(0)])

    coords = range(model.flat.size)
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        coords = sorted(rng.choice(len(coords), size=max_coords, replace=False))

    worst = 0.0
    # float64 probe model: float32 storage would quantize the +-h probes
    cast = [p.astype(np.float64) for p in model.parameters()]
    hidden = 2 * len(model.weights)
    probe = Model(model.spec, cast[0:hidden:2], cast[1:hidden:2],
                  *(cast[hidden:] or (None, None)))
    for i in coords:
        original = probe.flat[i]
        fd = []
        for sign in (+1.0, -1.0):
            probe.flat[i] = original + sign * h
            fd.append(float(loss_fn(probe)[0]))
        probe.flat[i] = original
        numeric = (fd[0] - fd[1]) / (2.0 * h)
        analytic = float(analytic_flat[i])
        err = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)
        worst = max(worst, err)
    return worst


# -- serialization -----------------------------------------------------------

def save_model(path, model: Model) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def serialize_model(model: Model) -> bytes:
    """Little-endian binary layout; the classifier head is the last layer
    and always carries the identity tag."""
    if model.head_weight is None:
        raise FeatPriorError("head-less models cannot be serialized")
    chunks = [_MODEL_MAGIC, struct.pack("<II", _MODEL_VERSION,
                                        len(model.weights) + 1)]
    rows = list(zip(model.weights, model.biases,
                    (l.activation for l in model.spec.layers)))
    rows.append((model.head_weight, model.head_bias, "identity"))
    for w, b, activation in rows:
        chunks.append(struct.pack("<IIB", w.shape[0], w.shape[1],
                                  _ACT_TAGS[activation]))
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
    if n_layers < 1:
        raise CorruptFile("model file declares no layers")
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
        w = np.frombuffer(data, dtype="<f4", count=rows_in * cols_out,
                          offset=offset).reshape(rows_in, cols_out)
        offset += 4 * rows_in * cols_out
        b = np.frombuffer(data, dtype="<f4", count=cols_out, offset=offset)
        offset += 4 * cols_out
        rows.append((w, b, _TAG_ACTS[tag]))
    if offset != len(data):
        raise CorruptFile("trailing bytes after model payload")
    *hidden, head = rows
    if head[2] != "identity":
        raise CorruptFile("final (head) layer must carry the identity tag")
    spec = NetworkSpec(
        layers=tuple(LayerSpec(w.shape[0], w.shape[1], act) for w, b, act in hidden),
        output_head=head[0].shape[1],
    )
    return Model(
        spec=spec,
        weights=[w for w, _, _ in hidden],
        biases=[b for _, b, _ in hidden],
        head_weight=head[0],
        head_bias=head[1],
    )


def model_fingerprint(model: Model) -> bytes:
    """32-byte content hash of the serialized parameters."""
    return hashlib.sha256(serialize_model(model)).digest()
