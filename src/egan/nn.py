"""Dense feed-forward networks with hand-rolled backprop and Adam.

Everything downstream (policy, generator, discriminator, enhancer) is an
``MlpNetwork``: a stack of fully connected layers with a per-layer activation
tag.  Data is batch-major (rows = samples).

The math is dtype-generic: a network computes in the dtype of its ``params``
(float64 unless :func:`init_network` is given another), :func:`input_batch`
and :func:`backward` convert what they are handed to that dtype, and
:func:`make_optimizer` keeps its moments in it.  The policy is float64, like
the environment it acts in.  The generator, discriminator and enhancer are
float32 (egan.gan, egan.enhancer): their training is arithmetic on 64-row
batches, which float32 makes several times cheaper per element (``np.tanh``
most of all), and nothing they feed needs more than float32's 7 digits.

A network's parameters live in one flat vector, ``params``, laid out layer by
layer as w0, b0, w1, b1, ... with each weight matrix row-major (fan_out,
fan_in).  ``weights`` and ``biases`` are tuples of views into that vector, so
writing into ``net.weights[i][...]`` changes ``params`` and vice versa.
:func:`backward` returns the parameter gradient as a vector with the same
layout, and :func:`optimizer_step` updates the whole vector at once; the
checkpoint format writes the same vector one layer array per line.  It
records no dtype: every float32 value is written exactly, and
:func:`load_network` reads it back as that value in float64.

:func:`backward` computes only what its caller keeps.  Its keyword-only flags
``params`` and ``inputs`` (both on by default) select the parameter gradient
and the input gradient; a slot whose flag is off returns ``None``.  With
``params=False`` the per-layer ``dz.T @ h`` matmuls and bias sums are skipped
(the generator step only needs D's input gradient); with ``inputs=False`` the
layer-0 ``dz @ w`` is skipped (no trainer uses the gradient w.r.t. its data).

:func:`forward` converts its input (:func:`input_batch`) only when it is not
already a 2-D array of the net's dtype, and computes every activation in
place in the layer's pre-activation buffer, so one array is allocated per layer;
:func:`backward` likewise converts ``output_gradient`` only when needed.
The sigmoid ignores the overflow of ``exp(-z)``, which float32 reaches at
z < -88.7 (float64 at -709.8): the quotient is then the exact limit 0.

Row and column reductions call the ufunc's ``reduce`` directly
(``np.add.reduce``, ``np.maximum.reduce``).  ``ndarray.sum``/``.max`` make
that same call through Python-level wrappers that cost microseconds per
call, a large share of a reduction over a 64-row batch, and every training
step makes several; the results are bit-identical.  Products likewise call
``np.dot``, which costs less per call than the ``@`` operator on these shapes.
A pickled or deep-copied network rebuilds ``weights``/``biases`` as views of
its own copy of ``params``.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    params: np.ndarray  # flat vector, the net's dtype: w0, b0, w1, b1, ...
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

    def __reduce__(self):
        # copy and pickle would store weights/biases as arrays of their own,
        # detached from params; rebuild the views from the copied params
        return MlpNetwork, (self.layer_sizes, self.activations, self.params)

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


def init_network(layer_sizes, activations, rng: np.random.Generator,
                 dtype=np.float64) -> MlpNetwork:
    """Xavier-uniform weights, zero biases; deterministic for a seeded rng.

    The weights are drawn in float64 whatever the dtype, so a float32 net
    consumes the same rng values as a float64 one and holds them rounded."""
    sizes, acts = _check_architecture(layer_sizes, activations)
    net = MlpNetwork(sizes, acts, np.zeros(_parameter_count(sizes), dtype=dtype))
    for w in net.weights:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation in place in z and return z."""
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "sigmoid":  # 1 / (1 + exp(-z))
        np.negative(z, out=z)
        with np.errstate(over="ignore"):  # exp -> inf gives 1 / inf = 0
            np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    if kind == "softmax":
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=1, keepdims=True)
        return z
    if kind == "identity":
        return z
    raise ConfigError(f"unknown activation {kind!r}")


def input_batch(net: MlpNetwork, inputs) -> np.ndarray:
    """inputs as a 2-D batch in net's dtype, converted only when needed;
    raises ShapeError when its width is not the network's input width."""
    x = inputs
    dtype = net.params.dtype
    if not (type(x) is np.ndarray and x.dtype == dtype and x.ndim == 2):
        x = np.atleast_2d(np.asarray(inputs, dtype=dtype))
    if x.shape[1] != net.layer_sizes[0]:
        raise ShapeError(
            f"input has {x.shape[1]} columns, network expects {net.layer_sizes[0]}"
        )
    return x


def forward(net: MlpNetwork, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; returns outputs and the cache backward() needs."""
    x = input_batch(net, inputs)
    post = []
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = np.dot(h, w.T)
        z += b
        h = _activate(act, z)
        post.append(h)
    return h, ForwardCache(inputs=x, post=post)


def backward(
    net: MlpNetwork,
    cache: ForwardCache,
    output_gradient: np.ndarray,
    *,
    params: bool = True,
    inputs: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns the parameter gradient, a flat vector laid out like
    ``net.params``, plus the gradient w.r.t. the inputs (needed to chain the
    discriminator into the generator).  ``params=False`` or ``inputs=False``
    skips that gradient's work and returns ``None`` in its slot.
    """
    if len(cache.post) != net.n_layers:
        raise UsageError("cache does not match this network")
    g = output_gradient
    dtype = net.params.dtype
    if not (type(g) is np.ndarray and g.dtype == dtype and g.ndim == 2):
        g = np.atleast_2d(np.asarray(output_gradient, dtype=dtype))
    if g.shape != cache.post[-1].shape:
        raise UsageError(
            f"output_gradient shape {g.shape} does not match forward output "
            f"{cache.post[-1].shape}"
        )
    grad = np.empty_like(net.params) if params else None
    end = net.params.size  # layers run last to first, so their blocks do too
    for i in range(net.n_layers - 1, -1, -1):
        w = net.weights[i]
        start = end - w.size - w.shape[0]
        y = cache.post[i]
        act = net.activations[i]
        if act == "tanh":  # g * (1 - y * y)
            dz = y * y
            np.subtract(1.0, dz, out=dz)
            dz *= g
        elif act == "sigmoid":
            dz = g * y * (1.0 - y)
        elif act == "softmax":
            dz = y * (g - np.add.reduce(g * y, axis=1, keepdims=True))
        else:  # identity
            dz = g
        if params:
            h_prev = cache.inputs if i == 0 else cache.post[i - 1]
            np.dot(dz.T, h_prev, out=grad[start : start + w.size].reshape(w.shape))
            np.add.reduce(dz, axis=0, out=grad[start + w.size : end])
        if i > 0 or inputs:
            g = np.dot(dz, w)
        end = start
    return grad, (g if inputs else None)


@dataclass
class OptimizerState:  # Adam
    learning_rate: float
    m: np.ndarray  # moments, laid out like params
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0


def make_optimizer(net: MlpNetwork, learning_rate: float) -> OptimizerState:
    if learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    return OptimizerState(float(learning_rate), np.zeros_like(net.params),
                          np.zeros_like(net.params))


def optimizer_step(net: MlpNetwork, grad: np.ndarray, state: OptimizerState) -> None:
    """One in-place Adam update of the whole parameter vector."""
    if np.shape(grad) != net.params.shape:
        raise ShapeError(
            f"gradient has shape {np.shape(grad)}, network has {net.params.shape}"
        )
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    net.params -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def minibatches(
    data: np.ndarray, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Endless shuffled fixed-size minibatches of data's rows, ragged tails dropped;
    a permutation is drawn from rng at the next() that runs out of rows."""
    n = data.shape[0]
    batch_size = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield data[order[start : start + batch_size]]


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    # same values as np.clip for non-NaN input, without its dispatch overhead
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


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
