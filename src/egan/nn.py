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

One layer loop serves every caller.  :func:`forward_into` runs the layers
in caller-held arrays (``np.dot(h, w.T, z)``, then the bias and the
activation in place); :func:`backward_into` writes each layer's dz over its
output and the gradients into caller-held blocks.  Trainers make the arrays
once per training call (:func:`make_buffers`); :func:`forward`,
:func:`backward` and :func:`predict` run the same loops over arrays made per
call.  Reuse changes no bit: every matmul keeps its operands and row count.

:func:`backward` computes only what its caller keeps.  Its keyword-only flags
``params`` and ``inputs`` (both on by default, and taken by
:func:`make_buffers` too) select the parameter gradient and the input
gradient; a slot whose flag is off returns ``None``.  With ``params=False``
the per-layer ``dz.T @ h`` matmuls and bias sums are skipped (the generator
step only needs D's input gradient); with ``inputs=False`` the layer-0
``dz @ w`` is skipped (no trainer uses the gradient w.r.t. its data).

:func:`forward` converts its input (:func:`input_batch`) only when it is not
already a 2-D array of the net's dtype; :func:`backward` converts
``output_gradient`` only when needed, and copies it when the last layer, a
sigmoid or softmax, makes dz partly in the gradient's buffer.  The sigmoid
lets ``exp(-z)`` overflow, which float32 reaches at z < -88.7 (float64 at
-709.8): the quotient is then the exact limit 0.  forward, predict and each
trainer silence the overflow once per call, around all their layers and
steps, with ``np.errstate(over="ignore")``, which costs microseconds; a
direct caller of forward_into does the same.

Backward spends the forward pass it reads.  A :class:`ForwardCache` holds
only the activations backward reads (Chen et al. 2016, arXiv:1604.06174);
backward writes each layer's dz over its activation, so forward's output is
overwritten when the last layer is tanh, and empties ``cache.post``, so a
second backward on the cache raises UsageError.  Trainer buffers hold dz
after backward_into until the next forward_into.  Inference that never
backpropagates (generated rows, the enhancer's targets) calls
:func:`predict`, which keeps no cache and runs the rows in fixed blocks of
PREDICT_ROWS, so at most one block's activations are alive.

The weight gradient ``dz.T @ h`` sums over the batch rows.  A threaded
OpenBLAS splits a long sum across its threads, so over the refinement's
6,000 rows its bits would depend on the thread count; a batch of more than
BLAS_GRADIENT_ROWS rows therefore takes ``np.einsum`` without
``optimize``, which calls no BLAS and sums in one fixed order.  Smaller
batches (the 64-row training steps; an online update, at most 5 × 200
rows at the default episode cap) keep ``np.dot`` and its bits.

Row and column reductions call the ufunc's ``reduce`` directly
(``np.add.reduce``, ``np.maximum.reduce``).  ``ndarray.sum``/``.max`` make
that same call through Python-level wrappers that cost microseconds per
call, a large share of a reduction over a 64-row batch, and every training
step makes several; the results are bit-identical.  Products likewise call
``np.dot``, which costs less per call than the ``@`` operator on these shapes.
:func:`optimizer_step` runs Adam in place, in the textbook's order of
operations, so its bytes equal the expression form's.  The training paths
pass each ufunc's output positionally and its scalars as :func:`constant`
arrays: numpy parses an ``out=`` keyword and converts a Python float on
every call, and a 64-row step makes over a hundred calls.
A pickled or deep-copied network rebuilds ``weights``/``biases`` as views of
its own copy of ``params``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

ACTIVATIONS = ("tanh", "sigmoid", "softmax", "identity")

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7
PREDICT_ROWS = 1024  # rows per block of predict; see its docstring
# backward's weight gradient of a larger batch skips BLAS; see the module docstring
BLAS_GRADIENT_ROWS = 1024


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
    """Activations recorded by :func:`forward`, spent by one :func:`backward`."""

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


@functools.cache
def constant(value: float, dtype) -> np.ndarray:
    """value as a read-only 0-d array of dtype, made once per (value, dtype).

    NEP 50 rounds a Python float operand to the dtype of the array it meets,
    so an operation gives the same bits with this array in its place, and
    numpy need not convert it again on each call (about half a microsecond)."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation in place in z and return z.  The sigmoid's exp
    may overflow: the caller holds np.errstate(over="ignore")."""
    if kind == "tanh":
        return np.tanh(z, z)
    if kind == "sigmoid":  # 1 / (1 + exp(-z)); exp -> inf gives 1 / inf = 0
        one = constant(1.0, z.dtype)
        np.negative(z, z)
        np.exp(z, z)
        np.add(z, one, z)
        return np.divide(one, z, z)
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


def layer_buffers(net: MlpNetwork, rows: int) -> list[np.ndarray]:
    """One uninitialised (rows, fan_out) array per layer in net's dtype: the
    outputs forward_into writes."""
    return [np.empty((rows, n), dtype=net.params.dtype) for n in net.layer_sizes[1:]]


@dataclass
class Buffers:
    """What one forward_into/backward_into pair of a net writes, at a fixed
    row count; a trainer makes them once per training call."""

    post: list[np.ndarray]  # each layer's output; backward_into writes dz over it
    grad: np.ndarray | None  # flat parameter gradient; None skips it
    input_grads: list[np.ndarray | None]  # d loss / d each layer's input; None: allocated
    inputs: bool  # whether layer 0's input gradient is made


def make_buffers(net: MlpNetwork, rows: int, *, params: bool = True,
                 inputs: bool = True) -> Buffers:
    """Buffers for rows-row batches; the flags are backward's."""
    input_grads = [np.empty((rows, n), dtype=net.params.dtype) for n in net.layer_sizes[:-1]]
    if not inputs:
        input_grads[0] = None
    return Buffers(layer_buffers(net, rows), np.empty_like(net.params) if params else None,
                   input_grads, inputs)


def forward_into(net: MlpNetwork, x: np.ndarray, post) -> np.ndarray:
    """The layer loop: layer i's output into post[i], returns post[-1].

    x is a 2-D batch in net's dtype (input_batch); post holds one C-contiguous
    (rows, fan_out) array per layer in that dtype, and may be views into a
    larger array.  The caller holds np.errstate(over="ignore") (see the
    module docstring).
    """
    h = x
    for w, b, act, z in zip(net.weights, net.biases, net.activations, post):
        np.dot(h, w.T, z)
        np.add(z, b, z)
        h = _activate(act, z)
    return h


def forward(net: MlpNetwork, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; returns outputs and the cache backward() needs."""
    x = input_batch(net, inputs)
    post = layer_buffers(net, x.shape[0])
    with np.errstate(over="ignore"):
        out = forward_into(net, x, post)
    return out, ForwardCache(inputs=x, post=post)


def predict(net: MlpNetwork, inputs: np.ndarray) -> np.ndarray:
    """forward's outputs, without a cache: inference for the callers that
    never backpropagate.

    Rows run in blocks of PREDICT_ROWS through hidden-layer arrays made once
    per call; the last layer writes straight into the output.  The outputs
    equal forward's bit for bit at the row counts the program uses
    (tests/test_nn.py checks them), but splitting a batch is not
    bit-identical in general: BLAS picks its kernel by the row count, and
    blocks under 48 rows, 1,071 rows run as 1,024 + 47, or D at 4,095 rows
    run as 2,047 + 2,048 all gave other bits.  Keep the block size fixed.
    """
    x = input_batch(net, inputs)
    rows = x.shape[0]
    out = np.empty((rows, net.layer_sizes[-1]), dtype=net.params.dtype)
    hidden = layer_buffers(net, min(rows, PREDICT_ROWS))[:-1]
    with np.errstate(over="ignore"):
        for start in range(0, rows, PREDICT_ROWS):
            stop = min(start + PREDICT_ROWS, rows)
            post = [h[: stop - start] for h in hidden] + [out[start:stop]]
            forward_into(net, x[start:stop], post)
    return out


def backward_into(net: MlpNetwork, x: np.ndarray, bufs: Buffers, g: np.ndarray):
    """The backward layer loop over forward_into's x and bufs.post.

    g is d(loss)/d(output), the shape of bufs.post[-1], in net's dtype.  The
    parameter gradient goes into bufs.grad, laid out like ``net.params``;
    returns the gradient w.r.t. x (in bufs.input_grads[0]), or None without
    bufs.inputs.  Spends bufs.post, which holds each layer's dz afterwards,
    and, when the last layer is a sigmoid or softmax, g.
    """
    post, grad = bufs.post, bufs.grad
    one = constant(1.0, net.params.dtype)
    end = net.params.size  # layers run last to first, so their blocks do too
    for i in range(net.n_layers - 1, -1, -1):
        w = net.weights[i]
        start = end - w.size - w.shape[0]
        y = post[i]
        act = net.activations[i]
        if act == "tanh":  # g * (1 - y * y), in y's buffer
            dz = np.multiply(y, y, y)
            np.subtract(one, dz, dz)
            np.multiply(dz, g, dz)
        elif act == "sigmoid":  # (g * y) * (1 - y), in y's buffer
            np.multiply(g, y, g)
            np.subtract(one, y, y)
            dz = np.multiply(g, y, y)
        elif act == "softmax":  # y * (g - sum(g * y)), in y's buffer
            np.subtract(g, np.add.reduce(g * y, axis=1, keepdims=True), g)
            dz = np.multiply(y, g, y)
        else:  # identity
            dz = g
        g = None  # used: dropped before the next layer's gradient is allocated
        if grad is not None:
            h_prev = post[i - 1] if i > 0 else x
            block = grad[start : start + w.size].reshape(w.shape)
            if dz.shape[0] > BLAS_GRADIENT_ROWS:
                np.einsum("ij,ik->jk", dz, h_prev, out=block, optimize=False)
            else:
                np.dot(dz.T, h_prev, block)
            np.add.reduce(dz, 0, None, grad[start + w.size : end])
        if i > 0 or bufs.inputs:
            g = np.dot(dz, w, bufs.input_grads[i])
        end = start
    return g


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

    Spends the cache: a tanh layer's dz is written over its activation, so
    forward's output is overwritten when the last layer is tanh (and
    output_gradient must not be that output), and ``cache.post`` is emptied.
    A second backward on the same cache raises UsageError.
    """
    post = cache.post
    if not post:
        raise UsageError("cache already spent by an earlier backward")
    if len(post) != net.n_layers:
        raise UsageError("cache does not match this network")
    dtype = net.params.dtype
    g = output_gradient
    if net.activations[-1] in ("sigmoid", "softmax"):  # backward_into writes over it
        g = np.array(output_gradient, dtype=dtype, ndmin=2)
    elif not (type(g) is np.ndarray and g.dtype == dtype and g.ndim == 2):
        g = np.atleast_2d(np.asarray(output_gradient, dtype=dtype))
    if g.shape != post[-1].shape:
        raise UsageError(
            f"output_gradient shape {g.shape} does not match forward output "
            f"{post[-1].shape}"
        )
    cache.post = []
    # input gradients allocated as they are made, so two are never alive at once
    bufs = Buffers(post, np.empty_like(net.params) if params else None,
                   [None] * net.n_layers, inputs)
    return bufs.grad, backward_into(net, cache.inputs, bufs, g)


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
    """One in-place Adam update of the whole parameter vector.

    m, v and the parameters change in place; the step and its denominator
    share one scratch allocation, and each operation is the textbook
    expression's, in its order."""
    if np.shape(grad) != net.params.shape:
        raise ShapeError(
            f"gradient has shape {np.shape(grad)}, network has {net.params.shape}"
        )
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m, v, params = state.m, state.v, net.params
    beta1, rest1, beta2, rest2, eps, lr = _adam_constants(
        state.beta1, state.beta2, state.eps, state.learning_rate, params.dtype)
    step, denom = np.empty((2, params.size), dtype=params.dtype)
    np.multiply(m, beta1, m)
    np.add(m, np.multiply(grad, rest1, step), m)  # beta1 m + (1 - beta1) grad
    np.multiply(v, beta2, v)
    np.multiply(grad, grad, step)
    np.add(v, np.multiply(step, rest2, step), v)  # beta2 v + (1 - beta2) grad**2
    np.divide(v, bc2, denom)
    np.sqrt(denom, denom)
    np.add(denom, eps, denom)
    np.divide(m, bc1, step)
    np.multiply(step, lr, step)
    np.divide(step, denom, step)  # lr (m / bc1) / (sqrt(v / bc2) + eps)
    np.subtract(params, step, params)


@functools.cache
def _adam_constants(beta1, beta2, eps, learning_rate, dtype) -> tuple[np.ndarray, ...]:
    """optimizer_step's fixed scalars as constant() arrays, looked up once per step."""
    return tuple(constant(c, dtype) for c in
                 (beta1, 1.0 - beta1, beta2, 1.0 - beta2, eps, learning_rate))


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


def clamp_probabilities(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # same values as np.clip for non-NaN input, without its dispatch overhead
    return np.minimum(np.maximum(p, constant(PROB_EPS, p.dtype), out=out),
                      constant(1.0 - PROB_EPS, p.dtype), out=out)


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
