"""Dense feed-forward networks with hand-rolled backprop and SGD/Adam.

Everything downstream (policy, generator, discriminator, enhancer) is an
``MlpNetwork``: a stack of fully connected layers with a per-layer activation
tag.  Data is batch-major (rows = samples) and all parameters are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

ACTIVATIONS = ("tanh", "sigmoid", "softmax", "identity")

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7


@dataclass
class MlpNetwork:
    layer_sizes: list[int]
    weights: list[np.ndarray]  # weights[i]: (layer_sizes[i+1], layer_sizes[i])
    biases: list[np.ndarray]  # biases[i]: (layer_sizes[i+1],)
    activations: list[str]  # one tag per non-input layer

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activations=list(self.activations),
        )


@dataclass
class ForwardCache:
    """Activations recorded by :func:`forward`, consumed by :func:`backward`."""

    inputs: np.ndarray
    post: list[np.ndarray]  # post-activation output of every layer


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_network(layer_sizes, activations, rng: np.random.Generator) -> MlpNetwork:
    """Xavier-uniform weights, zero biases; deterministic for a seeded rng."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ConfigError(f"layer_sizes must be >=2 positive ints, got {layer_sizes}")
    acts = list(activations)
    if len(acts) != len(sizes) - 1:
        raise ConfigError(
            f"need {len(sizes) - 1} activations for {len(sizes)} layers, got {len(acts)}"
        )
    for a in acts:
        if a not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {a!r}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpNetwork(sizes, weights, biases, acts)


def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if kind == "identity":
        return z
    raise ConfigError(f"unknown activation {kind!r}")


def forward(net: MlpNetwork, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; returns outputs and the cache backward() needs."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != net.layer_sizes[0]:
        raise ShapeError(
            f"input has {x.shape[1]} columns, network expects {net.layer_sizes[0]}"
        )
    post = []
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ w.T + b
        h = _apply_activation(act, z)
        post.append(h)
    return h, ForwardCache(inputs=x, post=post)


def backward(
    net: MlpNetwork, cache: ForwardCache, output_gradient: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns per-parameter gradients plus the gradient w.r.t. the inputs
    (needed to chain the discriminator into the generator).
    """
    if len(cache.post) != net.n_layers:
        raise UsageError("cache does not match this network")
    g = np.atleast_2d(np.asarray(output_gradient, dtype=np.float64))
    if g.shape != cache.post[-1].shape:
        raise UsageError(
            f"output_gradient shape {g.shape} does not match forward output "
            f"{cache.post[-1].shape}"
        )
    grad_w = [np.empty(0)] * net.n_layers
    grad_b = [np.empty(0)] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        y = cache.post[i]
        act = net.activations[i]
        if act == "tanh":
            dz = g * (1.0 - y * y)
        elif act == "sigmoid":
            dz = g * y * (1.0 - y)
        elif act == "softmax":
            dz = y * (g - (g * y).sum(axis=1, keepdims=True))
        else:  # identity
            dz = g
        h_prev = cache.inputs if i == 0 else cache.post[i - 1]
        grad_w[i] = dz.T @ h_prev
        grad_b[i] = dz.sum(axis=0)
        g = dz @ net.weights[i]
    return Gradients(grad_w, grad_b), g


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)


def make_optimizer(net: MlpNetwork, kind: str, learning_rate: float) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer {kind!r}")
    if learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    state = OptimizerState(kind=kind, learning_rate=float(learning_rate))
    if kind == "adam":
        state.m_w = [np.zeros_like(w) for w in net.weights]
        state.v_w = [np.zeros_like(w) for w in net.weights]
        state.m_b = [np.zeros_like(b) for b in net.biases]
        state.v_b = [np.zeros_like(b) for b in net.biases]
    return state


def optimizer_step(net: MlpNetwork, grads: Gradients, state: OptimizerState) -> None:
    """One in-place update of every weight and bias."""
    if len(grads.weights) != net.n_layers:
        raise ShapeError("gradient layer count does not match network")
    lr = state.learning_rate
    if state.kind == "sgd":
        for i in range(net.n_layers):
            net.weights[i] -= lr * grads.weights[i]
            net.biases[i] -= lr * grads.biases[i]
        return
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for i in range(net.n_layers):
        for p, g, m, v in (
            (net.weights[i], grads.weights[i], state.m_w[i], state.v_w[i]),
            (net.biases[i], grads.biases[i], state.m_b[i], state.v_b[i]),
        ):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


class Minibatcher:
    """Cycles shuffled fixed-size minibatches; drops ragged tails."""

    def __init__(self, data: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.data = data
        self.batch_size = min(batch_size, data.shape[0])
        self.rng = rng
        self._order = np.empty(0, dtype=np.intp)
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._pos + self.batch_size > self._order.size:
            self._order = self.rng.permutation(self.data.shape[0])
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.data[idx]


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def parameters_to_vector(net: MlpNetwork) -> np.ndarray:
    chunks = []
    for w, b in zip(net.weights, net.biases):
        chunks.append(w.ravel())
        chunks.append(b.ravel())
    return np.concatenate(chunks)


def vector_to_parameters(net: MlpNetwork, vec: np.ndarray) -> None:
    offset = 0
    for i in range(net.n_layers):
        for arr in (net.weights[i], net.biases[i]):
            n = arr.size
            arr[...] = vec[offset : offset + n].reshape(arr.shape)
            offset += n
    if offset != vec.size:
        raise ShapeError(f"vector has {vec.size} entries, network needs {offset}")


def gradients_to_vector(grads: Gradients) -> np.ndarray:
    chunks = []
    for w, b in zip(grads.weights, grads.biases):
        chunks.append(w.ravel())
        chunks.append(b.ravel())
    return np.concatenate(chunks)


def save_network(net: MlpNetwork, path) -> None:
    """Text checkpoint: `mlp v1 <sizes> <activations>` then the parameters."""
    lines = [
        "mlp v1 "
        + ",".join(str(s) for s in net.layer_sizes)
        + " "
        + ",".join(net.activations)
    ]
    for w, b in zip(net.weights, net.biases):
        lines.append(" ".join(repr(v) for v in w.ravel().tolist()))
        lines.append(" ".join(repr(v) for v in b.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> MlpNetwork:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "mlp" or header[1] != "v1":
            raise UsageError(f"{path}: not an mlp v1 checkpoint")
        sizes = [int(s) for s in header[2].split(",")]
        acts = header[3].split(",")
        values = [float(tok) for tok in fh.read().split()]
    rng = np.random.default_rng(0)
    net = init_network(sizes, acts, rng)
    expected = sum(w.size + b.size for w, b in zip(net.weights, net.biases))
    if len(values) != expected:
        raise UsageError(f"{path}: expected {expected} parameters, found {len(values)}")
    vector_to_parameters(net, np.array(values))
    return net
