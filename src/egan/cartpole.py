"""CartPole dynamics (OpenAI Gym classic-control formulation, v0 semantics).

Pure state-in/state-out functions: the only stochasticity is the reset draw
and whatever policy drives the episode.  step_batch steps (n, 4) rows as
columns, bit for bit as step; terminal is the vectorised limit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import math

import numpy as np

from .errors import UsageError


class CartPoleState(NamedTuple):
    """One scalar state; np.array(states) stacks a list of them into (n, 4)."""

    x: float
    x_dot: float
    theta: float
    theta_dot: float


@dataclass(frozen=True)
class EnvParams:
    gravity: float = 9.8
    mass_cart: float = 1.0
    mass_pole: float = 0.1
    pole_half_length: float = 0.5
    force_mag: float = 10.0
    tau: float = 0.02
    max_steps: int = 200  # v0 episode cap
    x_limit: float = 2.4
    theta_limit: float = 12.0 * 2.0 * math.pi / 360.0


DEFAULT_PARAMS = EnvParams()


def reset(rng: np.random.Generator, params: EnvParams = DEFAULT_PARAMS) -> CartPoleState:
    """All four components drawn U(-0.05, 0.05)."""
    return CartPoleState(*rng.uniform(-0.05, 0.05, size=4).tolist())


def terminal(states: np.ndarray, params: EnvParams = DEFAULT_PARAMS) -> np.ndarray:
    """(n, 4) states -> (n,) bool: the cart or the pole is past its limit."""
    return (np.abs(states[:, 0]) > params.x_limit) | (np.abs(states[:, 2]) > params.theta_limit)


def step(
    state: CartPoleState, action: int, params: EnvParams = DEFAULT_PARAMS
) -> tuple[CartPoleState, float, bool]:
    """One transition; reward is 1.0 on every step, including the last.

    Semi-explicit Euler with the old derivatives: positions advance on the
    current velocities, velocities advance on the accelerations.

    This is the rollout's inner loop, so the body unpacks the state once,
    reads each params field once, builds the successor with tuple.__new__
    (no NamedTuple keyword handling) and tests both limits inline, as
    terminal does.  Every float expression keeps the operand order of the
    attribute-access form, so each result is bit-identical to it.
    """
    if action not in (0, 1):
        raise UsageError(f"action must be 0 or 1, got {action!r}")
    x, x_dot, theta, theta_dot = state
    x_limit, theta_limit = params.x_limit, params.theta_limit
    if abs(x) > x_limit or abs(theta) > theta_limit:
        raise UsageError("cannot step a terminated episode")
    mass_pole, half_length, tau = params.mass_pole, params.pole_half_length, params.tau
    force = params.force_mag if action == 1 else -params.force_mag
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    total_mass = params.mass_cart + mass_pole
    polemass_length = mass_pole * half_length
    temp = (force + polemass_length * theta_dot**2 * sin_t) / total_mass
    theta_acc = (params.gravity * sin_t - cos_t * temp) / (
        half_length * (4.0 / 3.0 - mass_pole * cos_t**2 / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    x_next = x + tau * x_dot
    theta_next = theta + tau * theta_dot
    nxt = tuple.__new__(
        CartPoleState,
        (x_next, x_dot + tau * x_acc, theta_next, theta_dot + tau * theta_acc),
    )
    return nxt, 1.0, abs(x_next) > x_limit or abs(theta_next) > theta_limit


def step_batch(states: np.ndarray, actions: np.ndarray,
               params: EnvParams = DEFAULT_PARAMS) -> tuple[np.ndarray, np.ndarray]:
    """step on every row: (n, 4) float64 states and n actions (bool or 0/1,
    true pushes right) -> ((n, 4) next states, (n,) dones).

    step's float expressions in its operand order, on columns; squares go
    through Python's float ** 2 (libm pow), which rounds differently from
    np.square about once in a thousand.  Bit-identical to step while np.cos
    and np.sin agree with math's.  A row that starts terminal is stepped
    too, with no UsageError; a caller that must skip it masks by terminal.
    """
    x, x_dot, theta, theta_dot = states.T
    mass_pole, half_length, tau = params.mass_pole, params.pole_half_length, params.tau
    force = np.where(actions, params.force_mag, -params.force_mag)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    total_mass = params.mass_cart + mass_pole
    polemass_length = mass_pole * half_length
    theta_dot_sq, cos_sq = (np.fromiter(map(pow, v.tolist(), repeat(2)), np.float64, len(v))
                            for v in (theta_dot, cos_t))
    temp = (force + polemass_length * theta_dot_sq * sin_t) / total_mass
    theta_acc = (params.gravity * sin_t - cos_t * temp) / (
        half_length * (4.0 / 3.0 - mass_pole * cos_sq / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    nxt = np.column_stack((x + tau * x_dot, x_dot + tau * x_acc,
                           theta + tau * theta_dot, theta_dot + tau * theta_acc))
    return nxt, terminal(nxt, params)
