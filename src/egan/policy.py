"""REINFORCE policy-gradient agent with synthetic-replay pre-training.

Updates are plain likelihood-ratio steps: loss = -mean(log pi(a|s) * w).
For on-policy updates w is the pooled z-scored discounted return of the
episodes the caller passes (the agent keeps no episode queue); for synthetic
pre-training w is the z-scored reward channel of one generated batch.
Z-scoring a constant batch yields w = 0, so degenerate batches leave the
parameters untouched instead of erroring.

Training goes through nn.forward/nn.backward and the softmax head.  Acting
does not: for two actions softmax(z0, z1)[0] is the logistic sigmoid of the
logit gap z0 - z1, so p0_function folds the head into one column once per
frozen policy, and experience.run_episodes calls it once per step on the
live states for P(action 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import UsageError

Z_EPS = 1e-8
# exp(-gap) overflows float64 once -gap passes about 709.8; P(action 0) at
# -gap = 700 is below 1e-304 already
MAX_NEG_LOGIT_GAP = 700.0


@dataclass
class PolicyAgent:
    net: nn.MlpNetwork
    opt: nn.OptimizerState
    gamma: float = 0.99


def make_agent(
    rng: np.random.Generator,
    hidden=(32,),
    learning_rate: float = 1e-3,
    # sgd at lr 1e-3 never lifts off: on mode none, seed 0, its rolling reward
    # after 2000 episodes is 14.3, against 183.9 for adam at the same rate
    optimizer: str = "adam",
    gamma: float = 0.99,
) -> PolicyAgent:
    """A CartPole policy: 4 state inputs, tanh hidden layers, 2-action softmax."""
    sizes = [4, *hidden, 2]
    acts = ["tanh"] * len(hidden) + ["softmax"]
    net = nn.init_network(sizes, acts, rng)
    opt = nn.make_optimizer(net, optimizer, learning_rate)
    return PolicyAgent(net=net, opt=opt, gamma=gamma)


def p0_function(net: nn.MlpNetwork):
    """states -> P(action 0) of the policy net as its parameters are now.

    The net must be tanh hidden layers (any number, none included) under a
    2-output softmax head.  The hidden layers are copied as they are; the
    head becomes the single column wd = w[0] - w[1], bd = b[0] - b[1], and
    P(action 0) = 1 / (1 + exp(-(h @ wd + bd))).  That agrees with
    nn.forward's softmax column to rounding, with no ForwardCache and no
    second column.  A wrong input width raises ShapeError as nn.forward does.
    """
    if net.activations[-1] != "softmax" or net.layer_sizes[-1] != 2:
        raise UsageError(
            f"p0_function needs a 2-output softmax head, got "
            f"{net.layer_sizes[-1]} {net.activations[-1]} outputs"
        )
    if any(act != "tanh" for act in net.activations[:-1]):
        raise UsageError(f"p0_function needs tanh hidden layers, got {net.activations[:-1]}")
    hidden = [(w.copy(), b.copy()) for w, b in zip(net.weights[:-1], net.biases[:-1])]
    w_last, b_last = net.weights[-1], net.biases[-1]
    # -wd and -bd, exact negations, so exp needs no np.negative
    neg_wd, neg_bd = w_last[1] - w_last[0], float(b_last[1] - b_last[0])

    def p0(states) -> np.ndarray:
        h = nn.input_batch(net, states)
        for w, b in hidden:  # the arithmetic of nn.forward's tanh layers
            z = h @ w.T
            z += b
            h = np.tanh(z, out=z)
        neg_gap = np.dot(h, neg_wd)
        neg_gap += neg_bd
        np.minimum(neg_gap, MAX_NEG_LOGIT_GAP, out=neg_gap)
        np.exp(neg_gap, out=neg_gap)
        neg_gap += 1.0
        return np.divide(1.0, neg_gap, out=neg_gap)

    return p0


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Backward recursion G_t = r_t + gamma * G_{t+1}.

    The loop runs over Python floats from tolist(): each step is the same
    IEEE double multiply and add as on numpy float64 scalars, so the returns
    are bit-identical, without a numpy scalar boxed per read and per write.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise UsageError("rewards must be nonempty")
    returns = r.tolist()
    acc = 0.0
    for i in range(len(returns) - 1, -1, -1):
        acc = returns[i] + gamma * acc
        returns[i] = acc
    return np.array(returns)


def policy_gradient_step(
    agent: PolicyAgent, states: np.ndarray, actions: np.ndarray, weights: np.ndarray
) -> float:
    """One optimizer step on loss = -mean(log pi(a_i|s_i) * w_i)."""
    states = np.atleast_2d(states)
    actions = np.asarray(actions, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    n = states.shape[0]
    probs, cache = nn.forward(agent.net, states)
    chosen = nn.clamp_probabilities(probs[np.arange(n), actions])
    loss = -float((np.log(chosen) * weights).sum() / n)
    # clamp is pass-through for gradients: d log(clip(p))/dp := 1/clip(p)
    grad_out = np.zeros_like(probs)
    grad_out[np.arange(n), actions] = -weights / (n * chosen)
    grads, _ = nn.backward(agent.net, cache, grad_out, inputs=False)
    nn.optimizer_step(agent.net, grads, agent.opt)
    return loss


def normalize_weights(values: np.ndarray) -> np.ndarray:
    """Z-score with a fixed epsilon; a constant batch maps to all zeros."""
    v = np.asarray(values, dtype=np.float64)
    return (v - v.mean()) / (v.std() + Z_EPS)


def update_on_episodes(agent: PolicyAgent, episodes) -> float:
    """Pool the episodes, z-score the discounted returns, take one step."""
    episodes = list(episodes)
    if not episodes:
        raise UsageError("update_on_episodes needs at least one episode")
    states = np.concatenate([e.states for e in episodes])
    actions = np.concatenate([e.actions for e in episodes])
    returns = np.concatenate(
        [discounted_returns(e.rewards, agent.gamma) for e in episodes]
    )
    return policy_gradient_step(agent, states, actions, normalize_weights(returns))


def pretrain_on_synthetic(
    agent: PolicyAgent, batches, learning_rate: float | None = None
) -> int:
    """One bandit-style update per batch of generated Transitions.

    Generated samples are i.i.d. transitions, not episodes, so each batch is
    weighted by its z-scored reward channel; consumes zero real samples.
    The steps go through a local agent that shares agent.net and holds its
    own optimizer state (same kind as agent.opt), so thousands of noisy
    batches can use a smaller step size than on-policy training and agent.opt
    is never touched, even when `batches` raises.  Every non-empty batch takes
    a step, but only a batch whose z-scored weights are not all zero can
    change the parameters; returns the number of those batches.
    """
    lr = agent.opt.learning_rate if learning_rate is None else learning_rate
    local = PolicyAgent(agent.net, nn.make_optimizer(agent.net, agent.opt.kind, lr))
    n_useful = 0
    for batch in batches:
        if not len(batch):
            continue
        weights = normalize_weights(batch.rewards)
        policy_gradient_step(local, batch.states, batch.actions, weights)
        n_useful += bool(weights.any())
    return n_useful
