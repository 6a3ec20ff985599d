"""REINFORCE policy-gradient agent with synthetic-replay pre-training.

Updates are plain likelihood-ratio steps: loss = -mean(log pi(a|s) * w).
For on-policy updates w is the pooled z-scored discounted return; for
synthetic pre-training w is the z-scored reward channel of one generated
batch.  Z-scoring a constant batch yields w = 0, so degenerate batches leave
the parameters untouched instead of erroring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .cartpole import CartPoleState
from .errors import UsageError
from .experience import Transitions

Z_EPS = 1e-8


@dataclass
class PolicyAgent:
    net: nn.MlpNetwork
    opt: nn.OptimizerState
    gamma: float = 0.99
    update_frequency: int = 5
    pending: list[Transitions] = field(default_factory=list)


def make_agent(
    rng: np.random.Generator,
    hidden=(32,),
    learning_rate: float = 1e-3,
    optimizer: str = "adam",
    gamma: float = 0.99,
    update_frequency: int = 5,
    state_dim: int = 4,
    n_actions: int = 2,
) -> PolicyAgent:
    sizes = [state_dim, *hidden, n_actions]
    acts = ["tanh"] * len(hidden) + ["softmax"]
    net = nn.init_network(sizes, acts, rng)
    opt = nn.make_optimizer(net, optimizer, learning_rate)
    return PolicyAgent(net=net, opt=opt, gamma=gamma, update_frequency=update_frequency)


def action_probabilities(agent: PolicyAgent, state: CartPoleState) -> np.ndarray:
    # single-sample fast path; the hot loop calls this once per env step
    h = np.array(state)
    for w, b, act in zip(agent.net.weights, agent.net.biases, agent.net.activations):
        z = w @ h + b
        if act == "tanh":
            h = np.tanh(z)
        elif act == "softmax":
            e = np.exp(z - z.max())
            h = e / e.sum()
        elif act == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-z))
        else:
            h = z
    return h


def select_action(agent: PolicyAgent, state: CartPoleState, rng: np.random.Generator) -> int:
    probs = action_probabilities(agent, state)
    return int(rng.random() >= probs[0])


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Backward recursion G_t = r_t + gamma * G_{t+1}."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise UsageError("rewards must be nonempty")
    out = np.empty_like(r)
    acc = 0.0
    for i in range(r.size - 1, -1, -1):
        acc = r[i] + gamma * acc
        out[i] = acc
    return out


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
    loss = -float(np.mean(np.log(chosen) * weights))
    # clamp is pass-through for gradients: d log(clip(p))/dp := 1/clip(p)
    grad_out = np.zeros_like(probs)
    grad_out[np.arange(n), actions] = -weights / (n * chosen)
    grads, _ = nn.backward(agent.net, cache, grad_out)
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


def record_episode(agent: PolicyAgent, episode: Transitions) -> float | None:
    """Accumulate one episode; update (and clear) every update_frequency episodes."""
    agent.pending.append(episode)
    if len(agent.pending) < agent.update_frequency:
        return None
    episodes, agent.pending = agent.pending, []
    return update_on_episodes(agent, episodes)


def pretrain_on_synthetic(
    agent: PolicyAgent, batches, learning_rate: float | None = None
) -> int:
    """One bandit-style update per batch of generated Transitions.

    Generated samples are i.i.d. transitions, not episodes, so each batch is
    weighted by its z-scored reward channel; consumes zero real samples.
    The synthetic phase runs on its own optimizer state (same kind as the
    agent's) so thousands of noisy batches can use a smaller step size than
    on-policy training; agent.opt is untouched.  Returns the update count.
    """
    lr = agent.opt.learning_rate if learning_rate is None else learning_rate
    pretrain_opt = nn.make_optimizer(agent.net, agent.opt.kind, lr)
    main_opt = agent.opt
    agent.opt = pretrain_opt
    n_updates = 0
    try:
        for batch in batches:
            if not len(batch):
                continue
            policy_gradient_step(
                agent, batch.states, batch.actions, normalize_weights(batch.rewards)
            )
            n_updates += 1
    finally:
        agent.opt = main_opt
    return n_updates
