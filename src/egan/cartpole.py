"""CartPole dynamics (OpenAI Gym classic-control formulation, v0 semantics).

Pure state-in/state-out functions: the only stochasticity is the reset draw
and whatever policy drives the episode.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def is_terminal(state: CartPoleState, params: EnvParams = DEFAULT_PARAMS) -> bool:
    return abs(state.x) > params.x_limit or abs(state.theta) > params.theta_limit


def step(
    state: CartPoleState, action: int, params: EnvParams = DEFAULT_PARAMS
) -> tuple[CartPoleState, float, bool]:
    """One transition; reward is 1.0 on every step, including the last.

    Semi-explicit Euler with the old derivatives: positions advance on the
    current velocities, velocities advance on the accelerations.
    """
    if action not in (0, 1):
        raise UsageError(f"action must be 0 or 1, got {action!r}")
    if is_terminal(state, params):
        raise UsageError("cannot step a terminated episode")
    force = params.force_mag if action == 1 else -params.force_mag
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    total_mass = params.mass_cart + params.mass_pole
    polemass_length = params.mass_pole * params.pole_half_length
    temp = (force + polemass_length * state.theta_dot**2 * sin_t) / total_mass
    theta_acc = (params.gravity * sin_t - cos_t * temp) / (
        params.pole_half_length
        * (4.0 / 3.0 - params.mass_pole * cos_t**2 / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    nxt = CartPoleState(
        x=state.x + params.tau * state.x_dot,
        x_dot=state.x_dot + params.tau * x_acc,
        theta=state.theta + params.tau * state.theta_dot,
        theta_dot=state.theta_dot + params.tau * theta_acc,
    )
    return nxt, 1.0, is_terminal(nxt, params)
