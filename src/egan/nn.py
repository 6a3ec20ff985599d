"""Dense feed-forward networks with hand-rolled backprop and SGD/Adam.

Everything downstream (policy, generator, discriminator, enhancer) is an
``MlpNetwork``: a stack of fully connected layers with a per-layer activation
tag.  Data is batch-major (rows = samples) and all parameters are float64.

A network's parameters live in one flat vector, ``params``, laid out layer by
layer as w0, b0, w1, b1, ... with each weight matrix row-major (fan_out,
fan_in).  ``weights`` and ``biases`` are tuples of views into that vector, so
writing into ``net.weights[i][...]`` changes ``params`` and vice versa.
:func:`backward` returns the parameter gradient as a vector with the same
layout, and :func:`optimizer_step` updates the whole vector at once; the
checkpoint format writes the same vector one layer array per line.
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
    activations: list[str]  # one tag per non-input layer
    params: np.ndarray  # flat float64 vector: w0, b0, w1, b1, ...
    # views into params, built once; tuples so a view cannot be rebound
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)  # (out, in)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)  # (out,)

    def __post_init__(self):
        if self.params.shape != (_parameter_count(self.layer_sizes),):
            raise ShapeError(
                f"params has shape {self.params.shape}, layer sizes "
                f"{self.layer_sizes} need {_parameter_count(self.layer_sizes)}"
            )
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            end = offset + fan_out * fan_in
            weights.append(self.params[offset:end].reshape(fan_out, fan_in))
            biases.append(self.params[end : end + fan_out])
            offset = end + fan_out
        self.weights, self.biases = tuple(weights), tuple(biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class ForwardCache:
    """Activations recorded by :func:`forward`, consumed by :func:`backward`."""

    inputs: np.ndarray
    post: list[np.ndarray]  # post-activation output of every layer


def _parameter_count(layer_sizes) -> int:
    return sum(o * i + o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def _check_architecture(layer_sizes, activations) -> tuple[list[int], list[str]]:
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
    return sizes, acts


def init_network(layer_sizes, activations, rng: np.random.Generator) -> MlpNetwork:
    """Xavier-uniform weights, zero biases; deterministic for a seeded rng."""
    sizes, acts = _check_architecture(layer_sizes, activations)
    net = MlpNetwork(sizes, acts, np.zeros(_parameter_count(sizes)))
    for w in net.weights:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


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
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns the parameter gradient, a flat vector laid out like
    ``net.params``, plus the gradient w.r.t. the inputs (needed to chain the
    discriminator into the generator).
    """
    if len(cache.post) != net.n_layers:
        raise UsageError("cache does not match this network")
    g = np.atleast_2d(np.asarray(output_gradient, dtype=np.float64))
    if g.shape != cache.post[-1].shape:
        raise UsageError(
            f"output_gradient shape {g.shape} does not match forward output "
            f"{cache.post[-1].shape}"
        )
    grad = np.empty_like(net.params)
    end = grad.size  # layers run last to first, so their blocks do too
    for i in range(net.n_layers - 1, -1, -1):
        w = net.weights[i]
        start = end - w.size - w.shape[0]
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
        np.matmul(dz.T, h_prev, out=grad[start : start + w.size].reshape(w.shape))
        dz.sum(axis=0, out=grad[start + w.size : end])
        g = dz @ w
        end = start
    return grad, g


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None  # Adam moments, laid out like params; None for sgd
    v: np.ndarray | None = None


def make_optimizer(net: MlpNetwork, kind: str, learning_rate: float) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer {kind!r}")
    if learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    state = OptimizerState(kind=kind, learning_rate=float(learning_rate))
    if kind == "adam":
        state.m = np.zeros_like(net.params)
        state.v = np.zeros_like(net.params)
    return state


def optimizer_step(net: MlpNetwork, grad: np.ndarray, state: OptimizerState) -> None:
    """One in-place update of the whole parameter vector."""
    if np.shape(grad) != net.params.shape:
        raise ShapeError(
            f"gradient has shape {np.shape(grad)}, network has {net.params.shape}"
        )
    lr = state.learning_rate
    if state.kind == "sgd":
        net.params -= lr * grad
        return
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    net.params -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
    sizes, acts = _check_architecture(sizes, acts)
    expected = _parameter_count(sizes)
    if len(values) != expected:
        raise UsageError(f"{path}: expected {expected} parameters, found {len(values)}")
    return MlpNetwork(sizes, acts, np.array(values))
