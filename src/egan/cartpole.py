"""CartPole dynamics (OpenAI Gym classic-control formulation, v0 semantics).

Pure state-in/state-out functions: the only stochasticity is the reset draw
and whatever policy drives the episode.  The physics are CartPole-v0's
constants below; no function takes an environment argument, and the episode
cap is the caller's int (egan.experience).  successor is the one formula,
of IEEE multiplies, adds and divides: step checks its input, the online
rollout calls it unchecked, and step_batch steps (n, 4) rows as columns
bit for bit as step; terminal is the vectorised limit test.
"""

from __future__ import annotations

from typing import NamedTuple

import math

import numpy as np

from .errors import UsageError

GRAVITY = 9.8
MASS_CART = 1.0
MASS_POLE = 0.1
POLE_HALF_LENGTH = 0.5
FORCE_MAG = 10.0
TAU = 0.02  # seconds per step
X_LIMIT = 2.4
THETA_LIMIT = 12.0 * 2.0 * math.pi / 360.0
TOTAL_MASS = MASS_CART + MASS_POLE
POLEMASS_LENGTH = MASS_POLE * POLE_HALF_LENGTH


class CartPoleState(NamedTuple):
    """One scalar state; np.array(states) stacks a list of them into (n, 4)."""

    x: float
    x_dot: float
    theta: float
    theta_dot: float


def EnvParams(max_steps):
    """Returns None.  bench/probes.py still builds one, outside its guarded
    probes; nothing in egan calls this.  Delete it when the probes are ported
    to the column API (ROADMAP item 6)."""


def reset(rng: np.random.Generator) -> CartPoleState:
    """All four components drawn U(-0.05, 0.05)."""
    return CartPoleState(*rng.uniform(-0.05, 0.05, size=4).tolist())


def terminal(states: np.ndarray) -> np.ndarray:
    """(n, 4) states -> (n,) bool: the cart or the pole is past its limit."""
    return (np.abs(states[:, 0]) > X_LIMIT) | (np.abs(states[:, 2]) > THETA_LIMIT)


def successor(x, x_dot, theta, theta_dot, force, cos_t, sin_t):
    """The four successor components, semi-explicit Euler with the old
    derivatives: positions advance on the current velocities, velocities on
    the accelerations.  Only IEEE multiplies, adds and divides, in the
    operand order of Gym's attribute-access form, with each square written
    as v * v, so Python floats and float64 columns give the same bits.
    Unchecked: the caller guarantees a live state and a force of
    +-FORCE_MAG."""
    temp = (force + POLEMASS_LENGTH * (theta_dot * theta_dot) * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - MASS_POLE * (cos_t * cos_t) / TOTAL_MASS)
    )
    x_acc = temp - POLEMASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
    return (x + TAU * x_dot, x_dot + TAU * x_acc,
            theta + TAU * theta_dot, theta_dot + TAU * theta_acc)


def step(state: CartPoleState, action: int) -> tuple[CartPoleState, bool]:
    """One transition -> (next state, done); CartPole pays 1.0 on every step,
    the last included, so no reward is returned.

    successor on math.cos and math.sin, behind checks of the action and of
    the state's limits, which run_episodes meets by construction.
    """
    if action not in (0, 1):
        raise UsageError(f"action must be 0 or 1, got {action!r}")
    x, x_dot, theta, theta_dot = state
    if abs(x) > X_LIMIT or abs(theta) > THETA_LIMIT:
        raise UsageError("cannot step a terminated episode")
    force = FORCE_MAG if action == 1 else -FORCE_MAG
    nxt = CartPoleState(*successor(
        x, x_dot, theta, theta_dot, force, math.cos(theta), math.sin(theta)))
    return nxt, abs(nxt[0]) > X_LIMIT or abs(nxt[2]) > THETA_LIMIT


def step_batch(states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """step on every row: (n, 4) float64 states and n actions (bool or 0/1,
    true pushes right) -> ((n, 4) next states, (n,) dones).

    successor on columns, so bit-identical to step while np.cos and
    np.sin agree with math's.  A row that starts terminal is stepped too,
    with no UsageError; a caller that must skip it masks by terminal.
    """
    x, x_dot, theta, theta_dot = states.T
    force = np.where(actions, FORCE_MAG, -FORCE_MAG)
    nxt = np.column_stack(successor(x, x_dot, theta, theta_dot, force,
                                    np.cos(theta), np.sin(theta)))
    return nxt, terminal(nxt)
