"""REINFORCE policy-gradient agent with synthetic-replay pre-training.

Updates are plain likelihood-ratio steps: one optimizer step down the
gradient of -mean(log pi(a|s) * w).  The loss value itself is never formed
(nothing reads it), so the update functions return None.  For on-policy
updates w is the z-scored discounted return of the episodes the caller
passes as pooled rows (the agent keeps no episode queue); for synthetic
pre-training w is the z-scored 1 - done of one generated batch.
Z-scoring a constant batch yields w = 0, so a batch that lacks a terminal or
a non-terminal row has a zero gradient: its optimizer step skips the forward
and backward pass (an Adam step on it still applies the moments).

Training goes through nn.forward/nn.backward and the softmax head.  Acting
does not, and acts in log-odds space: for two actions the softmax draws
action 1 with probability sigmoid(g), g = z1 - z0, and a Bernoulli(sigmoid(g))
draw is the comparison g >= log((1 - u) / u) for u ~ U[0, 1) (the two-action
Gumbel-max trick).  So logit_function folds the head into one column once per
frozen policy, experience.run_episodes calls it once per step on the live
states and compares each g with a threshold made from the episode's draws.
No probability is ever formed on that path, so it needs no sigmoid, no exp
and no overflow clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ShapeError, UsageError

Z_EPS = 1e-8


@dataclass
class PolicyAgent:
    net: nn.MlpNetwork
    opt: nn.OptimizerState
    gamma: float = 0.99


def make_agent(
    rng: np.random.Generator,
    hidden=(32,),
    learning_rate: float = 1e-3,
    gamma: float = 0.99,
) -> PolicyAgent:
    """A CartPole policy trained by Adam: 4 state inputs, tanh hidden layers, 2-action softmax."""
    sizes = [4, *hidden, 2]
    acts = ["tanh"] * len(hidden) + ["softmax"]
    net = nn.init_network(sizes, acts, rng)
    return PolicyAgent(net=net, opt=nn.make_optimizer(net, learning_rate), gamma=gamma)


def logit_function(net: nn.MlpNetwork):
    """states -> g = z1 - z0, the log-odds of action 1, of the policy net as
    its parameters are now.

    The net must be tanh hidden layers (any number, none included) under a
    2-output softmax head.  The hidden layers are copied as they are; the
    head becomes the single column wd = w[1] - w[0], bd = b[1] - b[0], and
    g = h @ wd + bd.  It agrees with log p1 - log p0 of nn.forward's softmax
    to rounding, with no ForwardCache, no second column and no sigmoid.  The
    caller acts by comparing g with a logistic threshold (see the module
    docstring), so g needs no overflow clamp: infinite and NaN logits act
    deterministically.  A wrong input width raises ShapeError as nn.forward
    does.
    """
    if net.activations[-1] != "softmax" or net.layer_sizes[-1] != 2:
        raise UsageError(
            f"logit_function needs a 2-output softmax head, got "
            f"{net.layer_sizes[-1]} {net.activations[-1]} outputs"
        )
    if any(act != "tanh" for act in net.activations[:-1]):
        raise UsageError(f"logit_function needs tanh hidden layers, got {net.activations[:-1]}")
    hidden = [(w.copy(), b.copy()) for w, b in zip(net.weights[:-1], net.biases[:-1])]
    w_last, b_last = net.weights[-1], net.biases[-1]
    # bd as a 0-d array: adding it skips the per-call scalar conversion
    wd, bd = w_last[1] - w_last[0], np.array(b_last[1] - b_last[0])

    def logit(states) -> np.ndarray:
        h = nn.input_batch(net, states)
        for w, b in hidden:  # nn.forward's tanh layers, bit for bit; np.dot
            z = np.dot(h, w.T)  # costs less per call than the @ operator
            z += b
            h = np.tanh(z, out=z)
        g = np.dot(h, wd)
        g += bd
        return g

    return logit


def return_table(n: int, gamma: float) -> np.ndarray:
    """R[0] = 1.0, R[k] = 1.0 + gamma * R[k - 1]: CartPole pays 1.0 per step,
    so an episode of T steps has the discounted returns R[T - 1::-1].

    The loop over Python floats makes the IEEE double multiply and add of
    the recursion G_t = r_t + gamma * G_{t+1} over T ones, bit for bit.
    """
    if n < 1:
        raise UsageError(f"a return table needs n >= 1, got {n}")
    table, acc = [], 0.0
    for _ in range(n):
        acc = 1.0 + gamma * acc
        table.append(acc)
    return np.array(table)


def policy_gradient_step(
    agent: PolicyAgent, states: np.ndarray, actions: np.ndarray, weights: np.ndarray
) -> None:
    """One optimizer step down the gradient of -mean(log pi(a_i|s_i) * w_i)."""
    actions = np.asarray(actions, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    probs, cache = nn.forward(agent.net, states)
    n = probs.shape[0]
    rows = np.arange(n)
    chosen = nn.clamp_probabilities(probs[rows, actions])
    # clamp is pass-through for gradients: d log(clip(p))/dp := 1/clip(p)
    grad_out = np.zeros(probs.shape)
    grad_out[rows, actions] = -weights / (n * chosen)
    grads, _ = nn.backward(agent.net, cache, grad_out, inputs=False)
    nn.optimizer_step(agent.net, grads, agent.opt)


def normalize_weights(values: np.ndarray) -> np.ndarray:
    """Z-score with a fixed epsilon; a constant batch maps to all zeros.

    The same values as (v - v.mean()) / (v.std() + Z_EPS): the same ufunc
    reductions ndarray.mean and .std make, without their Python wrappers,
    and the deviation from the mean is formed once instead of twice.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    d = v - np.add.reduce(v, axis=None) / n
    std = np.sqrt(np.add.reduce(d * d, axis=None) / n)
    return d / (std + Z_EPS)


def update_on_episodes(agent: PolicyAgent, states, actions, lengths) -> None:
    """One step on episodes pooled as experience.run_episodes returns them
    (lengths sum to n rows), weighted by their z-scored discounted returns,
    read off one return_table for the longest."""
    if not lengths:
        raise UsageError("update_on_episodes needs at least one episode")
    if min(lengths) < 1:
        raise UsageError("every episode needs at least one step")
    if not len(states) == len(actions) == sum(lengths):
        raise ShapeError(f"{len(states)} states, {len(actions)} actions, {sum(lengths)} steps")
    table = return_table(max(lengths), agent.gamma)
    returns = np.concatenate([table[n - 1::-1] for n in lengths])
    policy_gradient_step(agent, states, actions, normalize_weights(returns))


def pretrain_on_synthetic(agent: PolicyAgent, batches, learning_rate: float) -> int:
    """One bandit-style update per batch of generated Transitions.

    Generated samples are i.i.d. transitions, not episodes, and every reward
    is 1.0, so each row is weighted by the z-scored 1 - done of its batch: a
    step favours the actions that did not end in a failure.  The steps go
    through a local agent that shares agent.net and holds its own Adam
    state at learning_rate, so agent.opt is never touched, even when
    `batches` raises.  A batch whose weights are all zero (no terminal or
    no non-terminal row) skips the forward and backward pass and takes its
    optimizer step on a zero gradient, as the computed one would be.
    Returns the number of batches with non-zero weights.  A later
    zero-weight batch still moves the policy through the moments, but a
    count of 0 means the parameters are unchanged.
    """
    local = PolicyAgent(agent.net, nn.make_optimizer(agent.net, learning_rate))
    zero = np.zeros_like(agent.net.params)
    n_useful = 0
    for batch in batches:
        weights = normalize_weights(~batch.dones)
        if weights.any():
            policy_gradient_step(local, batch.states, batch.actions, weights)
            n_useful += 1
        else:
            nn.optimizer_step(local.net, zero, local.opt)
    return n_useful
