"""Transition-consistency network and the KL-driven generator refinement.

This module holds the enhancer model and the refinement only; egan.harness
collects the data they train on and runs them in order.
The enhancer is a regression MLP from the encoded (state, action) half of a
sample to its encoded next state; an encoded row is split at the net's input
width, experience.SA_DIM.  Once trained on real data it acts as a fixed
oracle of the environment dynamics: generated pairs are scored by the KL
divergence between the per-dimension Gaussian moments of the generated next
states (P) and of the enhancer's prediction from the generated (s, a) (Q).
`moment_kl` is that penalty with its gradient w.r.t. P, and `kl_penalty`
applies it to a generator output batch.  Gradient descent on the penalty
pulls the generator toward transition-consistent samples.

The enhancer net is float32, like the GAN (gan.DTYPE); train_enhancer casts
its real rows once.  The moments and the KL are computed in float64 from the
float32 batches, and the gradient is rounded to the generator's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gan as gan_mod
from . import nn
from .errors import ShapeError, UsageError
from .experience import ENCODED_DIM, SA_DIM

VARIANCE_FLOOR = 1e-6


@dataclass
class EnhancerModel:
    net: nn.MlpNetwork
    opt: nn.OptimizerState


def make_enhancer(
    rng: np.random.Generator,
    hidden=(60, 60),
    learning_rate: float = 1e-3,
) -> EnhancerModel:
    """An encoded (s, a) -> encoded s' net: SA_DIM inputs, tanh layers throughout."""
    sizes = [SA_DIM, *hidden, ENCODED_DIM - SA_DIM]
    net = nn.init_network(sizes, ["tanh"] * (len(hidden) + 1), rng, gan_mod.DTYPE)
    return EnhancerModel(net=net, opt=nn.make_optimizer(net, learning_rate))


def predict(model: EnhancerModel, x1: np.ndarray) -> np.ndarray:
    out, _ = nn.forward(model.net, x1)
    return out


def train_enhancer(
    model: EnhancerModel,
    encoded: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    batch_size: int,
) -> list[float]:
    """Minimize MSE(E(x1), x2) over minibatches of encoded real samples; the
    pipeline passes the GAN's batch size."""
    data = np.atleast_2d(np.asarray(encoded, dtype=model.net.params.dtype))
    if data.shape[0] == 0:
        raise UsageError("cannot train the enhancer on an empty dataset")
    batches = nn.minibatches(data, batch_size, rng)
    k = model.net.layer_sizes[0]
    losses = []
    for _ in range(n_steps):
        batch = next(batches)
        x1, x2 = batch[:, :k], batch[:, k:]
        pred, cache = nn.forward(model.net, x1)
        diff = pred - x2
        loss = float((diff**2).sum() / diff.size)
        grads, _ = nn.backward(model.net, cache, 2.0 * diff / diff.size, inputs=False)
        nn.optimizer_step(model.net, grads, model.opt)
        losses.append(loss)
    return losses


def moment_kl(p_batch: np.ndarray, q_batch: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) between the moments of two sample batches, and d KL / d p_batch.

    Each batch is fitted once to a diagonal Gaussian: its per-dimension mean
    and biased (/n) variance, floored at VARIANCE_FLOOR.  The KL is the closed
    form summed over dimensions.  Q is a constant target; the penalty reaches
    P through its mean and variance only, and a floored P variance is a flat
    region that contributes no gradient.
    """
    p = np.atleast_2d(np.asarray(p_batch, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q_batch, dtype=np.float64))
    for batch in (p, q):
        if batch.shape[0] < 2:
            raise UsageError(f"need >= 2 rows to fit a Gaussian, got {batch.shape[0]}")
    if p.shape[1] != q.shape[1]:
        raise ShapeError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
    p_mean, q_mean = p.mean(axis=0), q.mean(axis=0)
    p_raw_var = p.var(axis=0)
    p_var = np.maximum(p_raw_var, VARIANCE_FLOOR)
    q_var = np.maximum(q.var(axis=0), VARIANCE_FLOOR)
    terms = (
        0.5 * np.log(q_var / p_var)
        + (p_var + (p_mean - q_mean) ** 2) / (2.0 * q_var)
        - 0.5
    )
    n = p.shape[0]
    d_mean = (p_mean - q_mean) / q_var / n
    d_var = np.where(p_raw_var > VARIANCE_FLOOR, -0.5 / p_var + 0.5 / q_var, 0.0)
    return float(terms.sum()), d_mean + d_var * 2.0 * (p - p_mean) / n


def kl_penalty(model: EnhancerModel):
    """The refinement penalty of a generator output batch: g_out -> (KL, d KL/d g_out).

    The KL compares the generated s' columns with the enhancer's prediction
    from the generated (s, a) columns; the (s, a) columns get no gradient.
    """

    k = model.net.layer_sizes[0]

    def _penalty(g_out: np.ndarray) -> tuple[float, np.ndarray]:
        target = predict(model, g_out[:, :k])
        kl, d_p = moment_kl(g_out[:, k:], target)
        grad = np.zeros_like(g_out)
        grad[:, k:] = d_p
        return kl, grad

    return _penalty


def egan_refine(
    gan: gan_mod.GanPair,
    model: EnhancerModel,
    rng: np.random.Generator,
    k: int = 2,
    n_samples: int = 6000,
    learning_rate: float = 1e-3,
) -> list[float]:
    """k rounds of: generate a test set, score its KL, step G on the penalty alone.

    The recorded history holds the KL of each freshly generated batch before
    that round's update.  Uses a dedicated Adam state so the refinement step
    size is independent of the adversarial learning rate.  The penalty takes
    no weight (the paper's lambda): Adam's step is invariant, up to its
    epsilon, to a constant scale of the gradient.
    """
    opt = nn.make_optimizer(gan.g, learning_rate)
    penalty = kl_penalty(model)
    history = []
    for _ in range(k):
        z = gan_mod.sample_noise(rng, n_samples, gan.noise_dim)
        g_out, cache = nn.forward(gan.g, z)
        kl, grad = penalty(g_out)
        history.append(kl)
        grads, _ = nn.backward(gan.g, cache, grad, inputs=False)
        nn.optimizer_step(gan.g, grads, opt)
    return history
