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


def discriminator_step(gan: GanPair, real_batch: np.ndarray, rng: np.random.Generator) -> float:
    """One ascent step on V w.r.t. D (descent on -V); G stays frozen."""
    real = np.atleast_2d(np.asarray(real_batch, dtype=gan.d.params.dtype))
    n = real.shape[0]
    if n < 2:
        raise UsageError(f"discriminator batch must have >= 2 rows, got {n}")
    z = sample_noise(rng, n, gan.noise_dim)
    fake, _ = nn.forward(gan.g, z)

    # one D pass over real || fake: V is one sum over both minibatches
    d_out, cache = nn.forward(gan.d, np.concatenate([real, fake]))
    p = nn.clamp_probabilities(d_out)
    p_real, p_fake = p[:n], p[n:]
    loss = -float(np.log(p_real).sum() / n + np.log(1.0 - p_fake).sum() / n)

    # clamp is pass-through for gradients, so saturated D outputs still learn
    grad = np.empty_like(p)
    grad[:n] = -1.0 / (n * p_real)
    grad[n:] = 1.0 / (n * (1.0 - p_fake))
    grads, _ = nn.backward(gan.d, cache, grad, inputs=False)
    nn.optimizer_step(gan.d, grads, gan.d_opt)
    return loss


def generator_step(gan: GanPair, rng: np.random.Generator) -> float:
    """One descent step on -mean log D(G(z)) over a fresh noise batch; D stays frozen."""
    n = gan.batch_size
    z = sample_noise(rng, n, gan.noise_dim)
    g_out, cache_g = nn.forward(gan.g, z)
    d_out, cache_d = nn.forward(gan.d, g_out)
    p = nn.clamp_probabilities(d_out)
    loss = -float(np.log(p).sum() / n)
    _, grad_g_out = nn.backward(gan.d, cache_d, -1.0 / (n * p), params=False)
    grads_g, _ = nn.backward(gan.g, cache_g, grad_g_out, inputs=False)
    nn.optimizer_step(gan.g, grads_g, gan.g_opt)
    return loss


def train_gan(
    gan: GanPair, encoded_real: np.ndarray, n_steps: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """n_steps rounds of one D step on a shuffled real minibatch, then one G step.

    Returns the (D loss, G loss) of every round.
    """
    data = np.atleast_2d(np.asarray(encoded_real, dtype=gan.d.params.dtype))
    if data.shape[0] == 0:
        raise UsageError("cannot train a GAN on an empty dataset")
    batches = nn.minibatches(data, gan.batch_size, rng)
    # a tuple display evaluates left to right: the D step comes first
    return [(discriminator_step(gan, next(batches), rng), generator_step(gan, rng))
            for _ in range(n_steps)]


def generate_encoded(gan: GanPair, n: int, rng: np.random.Generator) -> np.ndarray:
    """G(z) for n >= 1 fresh noise rows."""
    out, _ = nn.forward(gan.g, sample_noise(rng, n, gan.noise_dim))
    return out

