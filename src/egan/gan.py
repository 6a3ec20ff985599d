"""Generator/discriminator pair over encoded experience vectors.

The discriminator ascends V = E[log D(x)] + E[log(1 - D(G(z)))]; the
generator descends the non-saturating surrogate -log D(G(z)) of Goodfellow
et al. 2014 (arXiv:1406.2661), whose gradient stays strong while D still
rejects G's samples.  Probabilities are clamped before any log; gradients
pass through the clamp, evaluated at the clamped value.

Both nets are float32 (DTYPE), as is the enhancer (egan.enhancer): a GAN
round is arithmetic on 64-128-row batches, several times cheaper per element
in float32.  Every rng draw stays float64 and is rounded after it is drawn
(the initial weights, the noise), so a run consumes the same rng values as a
float64 model would; the trainers cast their real rows once, at the model
boundary.  Generated rows leave as float32, and experience.decode_batch
widens them to the float64 the policy and the environment use.

A round is one D step, then one G step, each written once and run in
arrays allocated once per call (nn.make_buffers): train_gan makes them for
all its rounds, discriminator_step and generator_step for their one step.
They give the bytes fresh arrays would.  G writes its fake rows straight
into D's input real || fake.  A backward pass spends the forward pass it
reads (egan.nn), so each step runs its own forward passes.  D's sigmoid
overflow is silenced once around the round loop.

The D step's and the G step's G passes stay two passes.  G does not change
between them, but one pass over both noise batches changes the row count
BLAS picks its kernel by (OpenBLAS takes another path below 48 rows): on a
39-row buffer it gave other bytes, for about 1 % less time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import UsageError
from .experience import ENCODED_DIM

DTYPE = np.float32  # of the generator and discriminator, and of their noise


@dataclass
class GanPair:
    g: nn.MlpNetwork
    d: nn.MlpNetwork
    g_opt: nn.OptimizerState
    d_opt: nn.OptimizerState
    batch_size: int
    noise_dim: int


def make_gan(
    rng: np.random.Generator,
    noise_dim: int = 16,
    data_dim: int = ENCODED_DIM,
    g_hidden=(40, 20),
    d_hidden=(40, 20),
    learning_rate: float = 5e-6,
    batch_size: int = 64,
) -> GanPair:
    """G (noise -> encoded row) and D (encoded row -> P(real)), each with its
    own Adam state; the defaults are the paper's nets, step size and batch."""
    g = nn.init_network(
        [noise_dim, *g_hidden, data_dim], ["tanh"] * (len(g_hidden) + 1), rng, DTYPE
    )
    d = nn.init_network(
        [data_dim, *d_hidden, 1], ["tanh"] * len(d_hidden) + ["sigmoid"], rng, DTYPE
    )
    return GanPair(
        g=g,
        d=d,
        g_opt=nn.make_optimizer(g, learning_rate),
        d_opt=nn.make_optimizer(d, learning_rate),
        batch_size=batch_size,
        noise_dim=noise_dim,
    )


def sample_noise(rng: np.random.Generator, batch: int, noise_dim: int) -> np.ndarray:
    """i.i.d. U(-1, 1) noise, one row per sample, drawn in float64 and
    rounded to DTYPE."""
    if batch < 1:
        raise UsageError(f"batch must be >= 1, got {batch}")
    return rng.uniform(-1.0, 1.0, size=(batch, noise_dim)).astype(DTYPE)


class _DiscriminatorBuffers:
    """One D step's arrays at n real rows: G's layers, whose last is the fake
    half of D's input real || fake, D's layers and gradient at 2n rows, and
    the clamped outputs with their log terms and gradient."""

    def __init__(self, gan: GanPair, n: int):
        if n < 2:
            raise UsageError(f"discriminator batch must have >= 2 rows, got {n}")
        d, dtype = gan.d, gan.d.params.dtype
        self.n, self.n_typed = n, nn.constant(n, dtype)
        self.d_in = np.empty((2 * n, d.layer_sizes[0]), dtype=dtype)
        self.g_post = nn.layer_buffers(gan.g, n)
        self.g_post[-1] = self.d_in[n:]  # G writes the fake rows in place
        self.d = nn.make_buffers(d, 2 * n, inputs=False)
        self.p, self.log, self.grad = np.empty((3, 2 * n, d.layer_sizes[-1]), dtype)


class _GeneratorBuffers:
    """One G step's arrays at the batch size: G's layers and gradient, D's
    layers and input gradient, and the clamped outputs as in the D step."""

    def __init__(self, gan: GanPair):
        n, d = gan.batch_size, gan.d
        self.n_typed = nn.constant(n, d.params.dtype)
        self.g = nn.make_buffers(gan.g, n, inputs=False)
        self.d = nn.make_buffers(d, n, params=False)
        self.p, self.log, self.grad = np.empty((3, n, d.layer_sizes[-1]), d.params.dtype)


def _discriminator_step(gan: GanPair, b: _DiscriminatorBuffers, real: np.ndarray,
                        rng: np.random.Generator) -> float:
    n, n_typed = b.n, b.n_typed
    one, minus_one = nn.constant(1.0, n_typed.dtype), nn.constant(-1.0, n_typed.dtype)
    b.d_in[:n] = real
    nn.forward_into(gan.g, sample_noise(rng, n, gan.noise_dim), b.g_post)
    # one D pass over real || fake: V is one sum over both minibatches
    p = nn.clamp_probabilities(nn.forward_into(gan.d, b.d_in, b.d.post), out=b.p)
    p_real, p_fake = p[:n], p[n:]
    log_real, log_fake, grad_real, grad_fake = b.log[:n], b.log[n:], b.grad[:n], b.grad[n:]
    np.log(p_real, log_real)
    np.log(np.subtract(one, p_fake, grad_fake), log_fake)
    loss = -float(np.add.reduce(log_real, None) / n + np.add.reduce(log_fake, None) / n)

    # clamp is pass-through for gradients, so saturated D outputs still learn
    np.divide(minus_one, np.multiply(p_real, n_typed, grad_real), grad_real)  # -1 / (n p_real)
    np.divide(one, np.multiply(grad_fake, n_typed, grad_fake), grad_fake)  # 1 / (n (1 - p_fake))
    nn.backward_into(gan.d, b.d_in, b.d, b.grad)
    nn.optimizer_step(gan.d, b.d.grad, gan.d_opt)
    return loss


def _generator_step(gan: GanPair, b: _GeneratorBuffers, rng: np.random.Generator) -> float:
    n = gan.batch_size
    z = sample_noise(rng, n, gan.noise_dim)
    g_out = nn.forward_into(gan.g, z, b.g.post)
    p = nn.clamp_probabilities(nn.forward_into(gan.d, g_out, b.d.post), out=b.p)
    loss = -float(np.add.reduce(np.log(p, b.log), None) / n)
    minus_one = nn.constant(-1.0, b.n_typed.dtype)
    np.divide(minus_one, np.multiply(p, b.n_typed, b.grad), b.grad)  # -1 / (n p)
    grad_g_out = nn.backward_into(gan.d, g_out, b.d, b.grad)
    nn.backward_into(gan.g, z, b.g, grad_g_out)
    nn.optimizer_step(gan.g, b.g.grad, gan.g_opt)
    return loss


def discriminator_step(gan: GanPair, real_batch: np.ndarray, rng: np.random.Generator) -> float:
    """One ascent step on V w.r.t. D (descent on -V); G stays frozen."""
    real = nn.input_batch(gan.d, real_batch)
    b = _DiscriminatorBuffers(gan, real.shape[0])
    with np.errstate(over="ignore"):
        return _discriminator_step(gan, b, real, rng)


def generator_step(gan: GanPair, rng: np.random.Generator) -> float:
    """One descent step on -mean log D(G(z)) over a fresh noise batch; D stays frozen."""
    b = _GeneratorBuffers(gan)
    with np.errstate(over="ignore"):
        return _generator_step(gan, b, rng)


def train_gan(
    gan: GanPair, encoded_real: np.ndarray, n_steps: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """n_steps rounds of one D step on a shuffled real minibatch, then one G step.

    Returns the (D loss, G loss) of every round.  Every round runs in the
    same arrays, made once per call; a dataset of one row raises UsageError
    before any parameter moves.
    """
    data = nn.input_batch(gan.d, encoded_real)
    if data.shape[0] == 0:
        raise UsageError("cannot train a GAN on an empty dataset")
    d_bufs = _DiscriminatorBuffers(gan, min(gan.batch_size, data.shape[0]))
    g_bufs = _GeneratorBuffers(gan)
    batches = nn.minibatches(data, gan.batch_size, rng)
    with np.errstate(over="ignore"):
        # a tuple display evaluates left to right: the D step comes first
        return [(_discriminator_step(gan, d_bufs, next(batches), rng),
                 _generator_step(gan, g_bufs, rng)) for _ in range(n_steps)]


def generate_encoded(gan: GanPair, n: int, rng: np.random.Generator) -> np.ndarray:
    """G(z) for n >= 1 fresh noise rows."""
    return nn.predict(gan.g, sample_noise(rng, n, gan.noise_dim))

