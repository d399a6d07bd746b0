"""Dense networks: architecture specs, parameters, forward passes,
initialization, optimizers, gradient checking and binary model files.

Parameters are stored in float32 (that is also the file format); all
arithmetic runs in float64.  Per-layer activations are first-class outputs
of ``forward`` (a ``ForwardRecord`` of float64 arrays) so priors can attach
to any layer, and ``autodiff.backward`` reads them on the way back.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

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
    """A spec plus its float32 parameters."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weight: np.ndarray | None
    head_bias: np.ndarray | None

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
        return Model(
            spec=self.spec,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            head_weight=None if self.head_weight is None else self.head_weight.copy(),
            head_bias=None if self.head_bias is None else self.head_bias.copy(),
        )


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
    velocity: list | None = None


@dataclass
class AdamState:
    m: list | None = None
    v: list | None = None
    t: int = 0


def _check_grads(grads) -> None:
    for g in grads:
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteGradient("gradient contains NaN or infinity")


def sgd_step(model: Model, grads, state: SgdState, cfg: SgdConfig):
    """SGD with momentum.  ``grads[i] is None`` skips parameter i entirely
    (used for frozen layers), leaving value and state untouched."""
    params = model.parameters()
    _check_grads(grads)
    if state.velocity is None:
        state.velocity = [np.zeros(p.shape, dtype=np.float64) for p in params]
    for p, g, vel in zip(params, grads, state.velocity):
        if g is None:
            continue
        vel *= cfg.momentum
        vel += g
        p[...] = (p.astype(np.float64) - cfg.lr * vel).astype(p.dtype)
    return model, state


def adam_step(model: Model, grads, state: AdamState, cfg: AdamConfig):
    """Standard Adam with bias correction; ``None`` gradients are skipped."""
    params = model.parameters()
    _check_grads(grads)
    if state.m is None:
        state.m = [np.zeros(p.shape, dtype=np.float64) for p in params]
        state.v = [np.zeros(p.shape, dtype=np.float64) for p in params]
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        step = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p[...] = (p.astype(np.float64) - step).astype(p.dtype)
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

    coords = []
    for pi, p in enumerate(model.parameters()):
        for flat in range(p.size):
            coords.append((pi, flat))
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(chosen)]

    worst = 0.0
    # float64 probe model: float32 storage would quantize the +-h probes
    probe = Model(
        spec=model.spec,
        weights=[w.astype(np.float64) for w in model.weights],
        biases=[b.astype(np.float64) for b in model.biases],
        head_weight=None if model.head_weight is None
        else model.head_weight.astype(np.float64),
        head_bias=None if model.head_bias is None
        else model.head_bias.astype(np.float64),
    )
    probe_params = probe.parameters()
    for pi, flat in coords:
        original = probe_params[pi].flat[flat]
        fd = []
        for sign in (+1.0, -1.0):
            probe_params[pi].flat[flat] = original + sign * h
            fd.append(float(loss_fn(probe)[0]))
        probe_params[pi].flat[flat] = original
        numeric = (fd[0] - fd[1]) / (2.0 * h)
        analytic = 0.0 if grads[pi] is None else float(grads[pi].flat[flat])
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
                          offset=offset).reshape(rows_in, cols_out).copy()
        offset += 4 * rows_in * cols_out
        b = np.frombuffer(data, dtype="<f4", count=cols_out, offset=offset).copy()
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
