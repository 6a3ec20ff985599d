"""Generator/discriminator pair over encoded experience vectors.

The discriminator ascends V = E[log D(x)] + E[log(1 - D(G(z)))]; the
generator either descends the literal minimax term log(1 - D(G(z))) or the
non-saturating surrogate -log D(G(z)).  Probabilities are clamped before any
log, and the clamp is treated as a flat region by the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .cartpole import DEFAULT_PARAMS
from .errors import UsageError
from .experience import ENCODED_DIM, Transitions, decode_batch

GENERATOR_MODES = ("paper_minimax", "non_saturating")


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
    optimizer: str = "adam",
) -> GanPair:
    g = nn.init_network(
        [noise_dim, *g_hidden, data_dim], ["tanh"] * (len(g_hidden) + 1), rng
    )
    d = nn.init_network(
        [data_dim, *d_hidden, 1], ["tanh"] * len(d_hidden) + ["sigmoid"], rng
    )
    return GanPair(
        g=g,
        d=d,
        g_opt=nn.make_optimizer(g, optimizer, learning_rate),
        d_opt=nn.make_optimizer(d, optimizer, learning_rate),
        batch_size=batch_size,
        noise_dim=noise_dim,
    )


def sample_noise(rng: np.random.Generator, batch: int, noise_dim: int) -> np.ndarray:
    """i.i.d. U(-1, 1) noise, one row per sample."""
    if batch < 1:
        raise UsageError(f"batch must be >= 1, got {batch}")
    return rng.uniform(-1.0, 1.0, size=(batch, noise_dim))


def gan_value(d_real, d_fake) -> float:
    """V(D, G) = mean log D(real) + mean log(1 - D(fake))."""
    real = nn.clamp_probabilities(np.asarray(d_real, dtype=np.float64))
    fake = nn.clamp_probabilities(np.asarray(d_fake, dtype=np.float64))
    return float(np.mean(np.log(real)) + np.mean(np.log(1.0 - fake)))


def discriminator_step(gan: GanPair, real_batch: np.ndarray, rng: np.random.Generator) -> float:
    """One ascent step on V w.r.t. D (descent on -V); G stays frozen."""
    real = np.atleast_2d(np.asarray(real_batch, dtype=np.float64))
    n = real.shape[0]
    if n < 2:
        raise UsageError(f"discriminator batch must have >= 2 rows, got {n}")
    z = sample_noise(rng, n, gan.noise_dim)
    fake, _ = nn.forward(gan.g, z)

    d_real, cache_real = nn.forward(gan.d, real)
    d_fake, cache_fake = nn.forward(gan.d, fake)
    p_real = nn.clamp_probabilities(d_real)
    p_fake = nn.clamp_probabilities(d_fake)
    loss = -float(np.mean(np.log(p_real)) + np.mean(np.log(1.0 - p_fake)))

    # clamp is pass-through for gradients, so saturated D outputs still learn
    grad_real = -1.0 / (n * p_real)
    grad_fake = 1.0 / (n * (1.0 - p_fake))
    grads_r, _ = nn.backward(gan.d, cache_real, grad_real)
    grads_f, _ = nn.backward(gan.d, cache_fake, grad_fake)
    nn.optimizer_step(gan.d, grads_r + grads_f, gan.d_opt)
    return loss


def generator_step(
    gan: GanPair,
    rng: np.random.Generator,
    mode: str = "non_saturating",
    regularizer=None,
    reg_weight: float = 0.0,
    batch_size: int | None = None,
) -> float:
    """One descent step on the generator objective; D stays frozen.

    regularizer, when given, is a callable mapping the generator output batch
    to (penalty, d penalty / d output); the weighted gradient is added before
    backpropagating into G.
    """
    if mode not in GENERATOR_MODES:
        raise UsageError(f"mode must be one of {GENERATOR_MODES}, got {mode!r}")
    n = gan.batch_size if batch_size is None else batch_size
    z = sample_noise(rng, n, gan.noise_dim)
    g_out, cache_g = nn.forward(gan.g, z)
    d_out, cache_d = nn.forward(gan.d, g_out)
    p = nn.clamp_probabilities(d_out)
    if mode == "paper_minimax":
        loss = float(np.mean(np.log(1.0 - p)))
        grad_d_out = -1.0 / (n * (1.0 - p))
    else:
        loss = -float(np.mean(np.log(p)))
        grad_d_out = -1.0 / (n * p)
    _, grad_g_out = nn.backward(gan.d, cache_d, grad_d_out)
    if regularizer is not None and reg_weight != 0.0:
        penalty, d_penalty = regularizer(g_out)
        loss += reg_weight * penalty
        grad_g_out = grad_g_out + reg_weight * d_penalty
    grads_g, _ = nn.backward(gan.g, cache_g, grad_g_out)
    nn.optimizer_step(gan.g, grads_g, gan.g_opt)
    return loss


def train_gan(
    gan: GanPair,
    encoded_real: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    mode: str = "non_saturating",
    regularizer=None,
    reg_weight: float = 0.0,
) -> list[tuple[float, float]]:
    """Alternate one D step and one G step over shuffled minibatches."""
    data = np.atleast_2d(np.asarray(encoded_real, dtype=np.float64))
    if data.shape[0] == 0:
        raise UsageError("cannot train a GAN on an empty dataset")
    batches = nn.Minibatcher(data, gan.batch_size, rng)
    history = []
    for _ in range(n_steps):
        d_loss = discriminator_step(gan, batches.next(), rng)
        g_loss = generator_step(
            gan, rng, mode=mode, regularizer=regularizer, reg_weight=reg_weight
        )
        history.append((d_loss, g_loss))
    return history


def generate_encoded(gan: GanPair, n: int, rng: np.random.Generator,
                     chunk: int = 65536) -> np.ndarray:
    out = np.empty((n, gan.g.layer_sizes[-1]))
    done = 0
    while done < n:
        m = min(chunk, n - done)
        z = sample_noise(rng, m, gan.noise_dim)
        out[done : done + m], _ = nn.forward(gan.g, z)
        done += m
    return out


def generate(gan: GanPair, n: int, rng: np.random.Generator, stats,
             params=None) -> Transitions:
    """Draw n noise vectors and decode G(z) into transitions (none for n = 0)."""
    return decode_batch(
        generate_encoded(gan, n, rng), stats, params or DEFAULT_PARAMS
    )


def save_loss_history(history, path) -> None:
    lines = ["step,d_loss,g_loss"]
    for i, (d_loss, g_loss) in enumerate(history):
        lines.append(f"{i},{d_loss!r},{g_loss!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
