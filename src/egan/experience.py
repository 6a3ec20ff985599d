"""Experience collection and the 9-dim encoded representation.

The random-policy buffer, the codec and the synthetic phase pass
transitions as one struct-of-arrays, `Transitions`: row i is the transition
(s_t, a, s_{t+1}, done); CartPole pays 1.0 on every step, so no row stores
its reward.  For the GAN a row is encoded as a vector
x = x1 || x2 with x1 = (normalized s_t, action code), SA_DIM wide, and
x2 = normalized s_{t+1}, every channel mapped into [-1, 1]:

* states: per-dimension min-max scaling from the collected transitions,
* action: 0 -> -1, 1 -> +1.

Only this module knows that layout; the GAN and the enhancer read its widths
ENCODED_DIM and SA_DIM.  done is not part of x: decoding reconstructs it
from the successor state.  Encoding and decoding are column operations.
A buffer row is done only when its successor is terminal, so a row that an
episode cap cut short reads as a non-failure in both places.  The online
phase uses no Transitions: run_episodes returns pooled rows and episode
lengths, acting in log-odds space by the rule it gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import cartpole
from .errors import ShapeError, UsageError

ENCODED_DIM = 9  # (scaled s, action code, scaled s')
SA_DIM = 5  # the (scaled s, action code) prefix


@dataclass(frozen=True, eq=False)
class Transitions:
    """n transitions as columns; len() is the row count."""

    states: np.ndarray  # (n, 4)
    actions: np.ndarray  # (n,) intp
    next_states: np.ndarray  # (n, 4)
    dones: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return self.actions.shape[0]

    def slice(self, start: int, stop: int) -> "Transitions":
        """Rows start..stop-1, as views of these columns."""
        return Transitions(self.states[start:stop], self.actions[start:stop],
                           self.next_states[start:stop], self.dones[start:stop])


@dataclass(frozen=True)
class NormalizationStats:
    """Per-dimension state min/max, pooled over s_t and s_{t+1}."""

    state_min: np.ndarray
    state_max: np.ndarray


def run_episodes(logit_fn, rngs, max_steps: int):
    """Roll out one episode per generator, stepping the live ones together,
    each for at most max_steps steps; returns (states, actions, lengths).
    states (n, 4) and actions (n,) intp hold each episode's s_0 .. s_{T-1}
    and actions, episode-major; an episode ends on a terminal state or at
    max_steps, and the successor of its last step is not returned.

    Acting is in log-odds space.  Each step calls logit_fn once on the live
    states stacked to (k_live, 4) for g, the log-odds of action 1.  Episode
    i takes action 1 iff g >= c_t, where c = logistic_thresholds(u) is made
    once from the max_steps uniforms u that rngs[i] draws after its
    reset.  In exact arithmetic that is the rule u_t >= sigmoid(-g), so no
    step needs a sigmoid; u == 0 gives c = +inf (action 0 for every finite
    g) and a NaN logit takes action 0.  An episode does not depend on its
    group.

    Each step is cartpole.successor and step's limit test, so step's bits
    without its checks, which hold here: the force is +-FORCE_MAG, and a
    state enters the live list (beside its episode's index) only while it
    is live.  At the few live episodes of the online phase, k scalar steps
    beat one cartpole.step_batch.  States are stacked by _stack, a flat
    np.fromiter: np.array's float64 values without its per-row sequence
    probing.  cartpole.successor is looked up once per call, so a wrapper
    installed on the module attribute before the call sees every step.
    """
    successor, cos, sin = cartpole.successor, math.cos, math.sin
    right, left = (1, cartpole.FORCE_MAG), (0, -cartpole.FORCE_MAG)
    x_limit, theta_limit = cartpole.X_LIMIT, cartpole.THETA_LIMIT
    paths = [[cartpole.reset(rng)] for rng in rngs]
    draws = [rng.random(max_steps) for rng in rngs]
    thresholds = logistic_thresholds(np.array(draws)).tolist()
    actions = [[] for _ in paths]
    live, last = list(range(len(paths))), [path[0] for path in paths]
    for t in range(max_steps):
        if not live:
            break
        logits = logit_fn(_stack(last)).tolist()
        still, still_last = [], []
        for i, state, g in zip(live, last, logits):
            action, force = right if g >= thresholds[i][t] else left
            x, x_dot, theta, theta_dot = state
            nxt = successor(x, x_dot, theta, theta_dot, force, cos(theta), sin(theta))
            paths[i].append(nxt)
            actions[i].append(action)
            if not (abs(nxt[0]) > x_limit or abs(nxt[2]) > theta_limit):
                still.append(i)
                still_last.append(nxt)
        live, last = still, still_last
    states = _stack([s for path in paths for s in path[:-1]])
    pooled = np.fromiter(chain.from_iterable(actions), np.intp, len(states))
    return states, pooled, [len(a) for a in actions]


def logistic_thresholds(u) -> np.ndarray:
    """c = log((1 - u) / u), elementwise, as log1p(-u) - log(u).

    For u ~ U[0, 1), g >= c happens with probability sigmoid(g): the
    two-action case of the Gumbel-max trick (Maddison, Tarlow & Minka 2014).
    u == 0 gives c = +inf, silently, so only g = +inf takes action 1 there.
    """
    with np.errstate(divide="ignore"):
        return np.log1p(-u) - np.log(u)


def _stack(states) -> np.ndarray:
    """k 4-tuples -> (k, 4) float64, as np.array(states) but flat."""
    k = len(states)
    return np.fromiter(chain.from_iterable(states), np.float64, 4 * k).reshape(k, 4)


def collect_random(n_episodes: int, rng: np.random.Generator, max_steps: int) -> Transitions:
    """Every transition of n_episodes uniform-random-action episodes of at
    most max_steps steps, one per child of rng.spawn(n_episodes), stepped
    together by cartpole.step_batch.

    Each child draws its reset state, then max_steps uniforms u, as in
    run_episodes; step t pushes right iff u_t >= 0.5, which is run_episodes'
    rule at g = 0 (the sign of 0.5 - u is exact).  Rows come back
    episode-major.  Each step keeps only the live episode ids and their
    successors; after the last step the successors are scattered once into
    episode-major rows, episode e's step t at row starts[e] + t.  The states
    are the successors shifted down one row, with each episode's reset state
    at its start, the actions are read from the push table, and the dones
    come from cartpole.terminal on the successors, as in decode_batch: only
    a terminal successor makes a row done.
    """
    if n_episodes < 1:
        raise UsageError(f"n_episodes must be >= 1, got {n_episodes}")
    children = rng.spawn(n_episodes)
    resets = np.array([cartpole.reset(child) for child in children])
    pushes = np.array([child.random(max_steps) >= 0.5 for child in children])
    live, states, steps = np.arange(n_episodes), resets, []  # per step: ids, s'
    lengths = np.zeros(n_episodes, np.intp)
    for t in range(max_steps):
        if not len(live):
            break
        next_states, dones = cartpole.step_batch(states, pushes[live, t])
        steps.append((live, next_states))
        lengths[live] = t + 1
        live, states = live[~dones], next_states[~dones]
    starts = np.cumsum(lengths) - lengths
    next_states = np.empty((starts[-1] + lengths[-1], 4))
    for t, (ids, successors) in enumerate(steps):
        next_states[starts[ids] + t] = successors
    del steps
    states = np.empty_like(next_states)
    states[1:] = next_states[:-1]
    states[starts] = resets
    actions = pushes[np.arange(max_steps) < lengths[:, None]].astype(np.intp)
    return Transitions(states, actions, next_states, cartpole.terminal(next_states))


def compute_stats(transitions: Transitions) -> NormalizationStats:
    if not len(transitions):
        raise UsageError("cannot compute normalization stats of an empty buffer")
    states, next_states = transitions.states, transitions.next_states
    return NormalizationStats(np.minimum(states.min(axis=0), next_states.min(axis=0)),
                              np.maximum(states.max(axis=0), next_states.max(axis=0)))


def _scale(values: np.ndarray, stats: NormalizationStats) -> None:
    """2 (v - lo) / span - 1 in place in values, on the dims with a positive span."""
    lo, hi = stats.state_min, stats.state_max
    span = hi - lo
    ok = span > 0
    np.subtract(values, lo, out=values, where=ok)
    np.multiply(2.0, values, out=values, where=ok)
    np.divide(values, span, out=values, where=ok)
    np.subtract(values, 1.0, out=values, where=ok)


def _unscale(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    lo, hi = stats.state_min, stats.state_max
    span = hi - lo
    ok = span > 0
    return np.where(ok, (values + 1.0) / 2.0 * span + lo, values)


def encode_batch(transitions: Transitions, stats: NormalizationStats) -> np.ndarray:
    """Transitions -> (n, 9); zero-range state dims pass through unscaled."""
    out = np.empty((len(transitions), ENCODED_DIM))
    out[:, 0:4] = transitions.states
    out[:, 4] = np.where(transitions.actions == 1, 1.0, -1.0)
    out[:, SA_DIM:] = transitions.next_states
    _scale(out[:, 0:4], stats)
    _scale(out[:, SA_DIM:], stats)
    return out


def decode_batch(xs: np.ndarray, stats: NormalizationStats) -> Transitions:
    """Total inverse of encode_batch: any (n, 9) array becomes n transitions.

    Action thresholds at 0 (ties go to action 1) and done is inferred from
    the successor state leaving the bounds.  Any other width raises ShapeError.
    """
    x = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if x.shape[1] != ENCODED_DIM:
        raise ShapeError(f"encoded rows must have {ENCODED_DIM} columns, got {x.shape[1]}")
    next_states = _unscale(x[:, SA_DIM:], stats)
    return Transitions(
        states=_unscale(x[:, 0:4], stats),
        actions=(x[:, 4] >= 0.0).astype(np.intp),
        next_states=next_states,
        dones=cartpole.terminal(next_states),
    )
