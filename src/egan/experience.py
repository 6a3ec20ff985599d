"""Experience collection and the 9-dim encoded representation.

Every layer passes transitions as one struct-of-arrays, `Transitions`: row i
is the transition (s_t, a, s_{t+1}, done); CartPole pays 1.0 on every step,
so no row stores its reward.  For the GAN a row is encoded as a vector
x = x1 || x2 with x1 = (normalized s_t, action code), SA_DIM wide, and
x2 = normalized s_{t+1}, every channel mapped into [-1, 1]:

* states: per-dimension min-max scaling from the collected transitions,
* action: 0 -> -1, 1 -> +1.

Only this module knows that layout; the GAN and the enhancer read its widths
ENCODED_DIM and SA_DIM.  done is not part of x: decoding reconstructs it
from the successor state.  Encoding and decoding are column operations.
A real row is done only when its successor is terminal,
so a row that an episode cap cut short reads as a non-failure in both places.
Episodes act in log-odds space; run_episodes gives the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import cartpole
from .cartpole import EnvParams, DEFAULT_PARAMS
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


def run_episodes(logit_fn, rngs, params: EnvParams = DEFAULT_PARAMS) -> list[Transitions]:
    """Roll out one episode per generator, stepping the live ones together.

    Acting is in log-odds space.  Each step calls logit_fn once on the live
    states stacked to (k_live, 4) for g, the log-odds of action 1.  Episode
    i takes action 1 iff g >= c_t, where c = logistic_thresholds(u) is made
    once from the params.max_steps uniforms u that rngs[i] draws after its
    reset.  In exact arithmetic that is the rule u_t >= sigmoid(-g), so no
    step needs a sigmoid; u == 0 gives c = +inf (action 0 for every finite
    g) and a NaN logit takes action 0.  An episode does not depend on its
    group.  The dynamics stay scalar: at the few live episodes of the online
    phase, k scalar steps beat one cartpole.step_batch.  An episode ends on
    a terminal state or at params.max_steps; its last row is done only in
    the first case, since a cap-truncated episode did not fail.

    Each live episode is one record (path, thresholds, actions),
    and the states are stacked by _stack, a flat np.fromiter over the state
    tuples: the same float64 values np.array gives, without its per-row
    sequence probing, so every column is bit-identical to np.array stacking.
    cartpole.step is looked up once per call, not once per step, so a wrapper
    installed on the module attribute before the call still sees every step.
    """
    step = cartpole.step
    paths = [[cartpole.reset(rng)] for rng in rngs]
    draws = [rng.random(params.max_steps) for rng in rngs]
    thresholds = logistic_thresholds(np.array(draws)).tolist()
    episodes = [(path, c, []) for path, c in zip(paths, thresholds)]
    live = episodes
    for t in range(params.max_steps):
        if not live:
            break
        logits = logit_fn(_stack([episode[0][-1] for episode in live])).tolist()
        still = []
        for episode, g in zip(live, logits):
            path, c, actions = episode
            action = 1 if g >= c[t] else 0
            state, _, done = step(path[-1], action, params)
            path.append(state)
            actions.append(action)
            if not done:
                still.append(episode)
        live = still
    cut = {id(episode) for episode in live}  # still running at the cap
    return [_episode(episode, id(episode) not in cut) for episode in episodes]


def logistic_thresholds(u) -> np.ndarray:
    """c = log((1 - u) / u), elementwise, as log1p(-u) - log(u).

    For u ~ U[0, 1), g >= c happens with probability sigmoid(g): the
    two-action case of the Gumbel-max trick (Maddison, Tarlow & Minka 2014).
    u == 0 gives c = +inf, silently, so only g = +inf takes action 1 there.
    """
    with np.errstate(divide="ignore"):
        return np.log1p(-u) - np.log(u)


def _stack(states) -> np.ndarray:
    """k CartPoleStates -> (k, 4) float64, as np.array(states) but flat."""
    k = len(states)
    return np.fromiter(chain.from_iterable(states), np.float64, 4 * k).reshape(k, 4)


def _episode(record, terminal: bool) -> Transitions:
    visited, _, actions = record
    path = _stack(visited)
    path.flags.writeable = False  # states and next_states are views of it
    dones = np.zeros(len(actions), dtype=bool)
    dones[-1] = terminal  # False when the cap cut the episode short
    return Transitions(
        states=path[:-1],
        actions=np.array(actions, dtype=np.intp),
        next_states=path[1:],
        dones=dones,
    )


def collect_random(
    params: EnvParams, n_episodes: int, rng: np.random.Generator
) -> Transitions:
    """Every transition of n_episodes uniform-random-action episodes, one per
    child of rng.spawn(n_episodes), stepped together by cartpole.step_batch.

    Each child draws its reset state, then params.max_steps uniforms u, as in
    run_episodes; step t pushes right iff u_t >= 0.5, which is run_episodes'
    rule at g = 0 (the sign of 0.5 - u is exact).  Rows come back
    episode-major, and only a terminal successor makes a row done.
    """
    if n_episodes < 1:
        raise UsageError(f"n_episodes must be >= 1, got {n_episodes}")
    children = rng.spawn(n_episodes)
    states = np.array([cartpole.reset(child) for child in children])
    pushes = np.array([child.random(params.max_steps) >= 0.5 for child in children])
    live, steps = np.arange(n_episodes), []  # per step: episode, s, a, s', done
    for t in range(params.max_steps):
        if not len(live):
            break
        actions = pushes[live, t]
        next_states, dones = cartpole.step_batch(states, actions, params)
        steps.append((live, states, actions, next_states, dones))
        live, states = live[~dones], next_states[~dones]
    episode, *columns = (np.concatenate(column) for column in zip(*steps))
    order = np.argsort(episode, kind="stable")
    states, actions, next_states, dones = (column[order] for column in columns)
    return Transitions(states, actions.astype(np.intp), next_states, dones)


def compute_stats(transitions: Transitions) -> NormalizationStats:
    if not len(transitions):
        raise UsageError("cannot compute normalization stats of an empty buffer")
    states = np.concatenate([transitions.states, transitions.next_states])
    return NormalizationStats(states.min(axis=0), states.max(axis=0))


def _scale(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    lo, hi = stats.state_min, stats.state_max
    span = hi - lo
    ok = span > 0
    out = np.where(ok, 2.0 * (values - lo) / np.where(ok, span, 1.0) - 1.0, values)
    return out


def _unscale(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    lo, hi = stats.state_min, stats.state_max
    span = hi - lo
    ok = span > 0
    return np.where(ok, (values + 1.0) / 2.0 * span + lo, values)


def encode_batch(transitions: Transitions, stats: NormalizationStats) -> np.ndarray:
    """Transitions -> (n, 9); zero-range state dims pass through unscaled."""
    out = np.empty((len(transitions), ENCODED_DIM))
    out[:, 0:4] = _scale(transitions.states, stats)
    out[:, 4] = np.where(transitions.actions == 1, 1.0, -1.0)
    out[:, SA_DIM:] = _scale(transitions.next_states, stats)
    return out


def decode_batch(
    xs: np.ndarray,
    stats: NormalizationStats,
    params: EnvParams = DEFAULT_PARAMS,
) -> Transitions:
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
        dones=cartpole.terminal(next_states, params),
    )
