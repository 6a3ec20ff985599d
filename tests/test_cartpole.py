import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import cartpole
from egan.cartpole import CartPoleState, EnvParams
from egan.errors import UsageError

# hand evaluation of the dynamics at the origin with force +10:
# temp = 10/1.1, theta_acc = -(100/11)/(0.5*(4/3 - 0.1/1.1)) = -600/41,
# x_acc = 100/11 + 0.05*(600/41)/1.1 = 400/41, then Euler with tau = 0.02
ORIGIN_PUSH_RIGHT = (0.0, 8.0 / 41.0, 0.0, -12.0 / 41.0)


def reference_step(state, action, params=cartpole.DEFAULT_PARAMS):
    """The attribute-access step that the lean body replaced, kept verbatim
    so cartpole.step can be held to bit-equality with it."""
    if action not in (0, 1):
        raise UsageError(f"action must be 0 or 1, got {action!r}")
    if cartpole.is_terminal(state, params):
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
    return nxt, 1.0, cartpole.is_terminal(nxt, params)


OTHER_PARAMS = EnvParams(gravity=9.81, mass_cart=1.3, mass_pole=0.25,
                         pole_half_length=0.7, force_mag=7.5, tau=0.03,
                         x_limit=3.1, theta_limit=0.3)


def non_terminal_states(params, n, seed):
    """n random states inside the limits, led by every signed-zero origin and
    the four at rest exactly on a limit (not terminal, nor is their successor)."""
    rng = np.random.default_rng(seed)
    lo = np.array([-params.x_limit, -4.0, -params.theta_limit, -4.0])
    draws = rng.uniform(lo, -lo, size=(n, 4))
    zeros = [CartPoleState(*(math.copysign(0.0, (i >> d & 1) - 0.5) for d in range(4)))
             for i in range(16)]
    edges = [CartPoleState(sign * params.x_limit, 0.0, 0.0, 0.0) for sign in (1, -1)]
    edges += [CartPoleState(0.0, 0.0, sign * params.theta_limit, 0.0) for sign in (1, -1)]
    states = zeros + edges + [CartPoleState(*row) for row in draws.tolist()]
    assert not any(cartpole.is_terminal(s, params) for s in states)
    return states


class TestReset:
    def test_reproducible(self):
        s1 = cartpole.reset(np.random.default_rng(3))
        s2 = cartpole.reset(np.random.default_rng(3))
        assert s1 == s2

    def test_components_within_bounds(self):
        rng = np.random.default_rng(0)
        draws = np.array([cartpole.reset(rng) for _ in range(10_000)])
        assert draws.min() >= -0.05
        assert draws.max() <= 0.05

    def test_component_means_near_zero(self):
        rng = np.random.default_rng(1)
        draws = np.array([cartpole.reset(rng) for _ in range(10_000)])
        assert np.abs(draws.mean(axis=0)).max() < 0.005


class TestStep:
    def test_origin_action_right(self):
        nxt, reward, done = cartpole.step(CartPoleState(0, 0, 0, 0), 1)
        expected = ORIGIN_PUSH_RIGHT
        assert nxt.x == pytest.approx(expected[0], abs=1e-9)
        assert nxt.x_dot == pytest.approx(expected[1], abs=1e-9)
        assert nxt.theta == pytest.approx(expected[2], abs=1e-9)
        assert nxt.theta_dot == pytest.approx(expected[3], abs=1e-9)
        assert reward == 1.0
        assert done is False

    def test_origin_action_left_mirrors(self):
        nxt, _, _ = cartpole.step(CartPoleState(0, 0, 0, 0), 0)
        assert nxt.x_dot == pytest.approx(-ORIGIN_PUSH_RIGHT[1], abs=1e-9)
        assert nxt.theta_dot == pytest.approx(-ORIGIN_PUSH_RIGHT[3], abs=1e-9)

    def test_reward_always_one(self):
        rng = np.random.default_rng(5)
        state = cartpole.reset(rng)
        for _ in range(50):
            nxt, reward, done = cartpole.step(state, int(rng.integers(0, 2)))
            assert reward == 1.0
            if done:
                break
            state = nxt

    def test_stepping_terminated_state_raises(self):
        with pytest.raises(UsageError):
            cartpole.step(CartPoleState(3.0, 0, 0, 0), 0)
        with pytest.raises(UsageError):
            cartpole.step(CartPoleState(0, 0, 0.3, 0), 1)

    def test_bad_action_raises(self):
        with pytest.raises(UsageError):
            cartpole.step(CartPoleState(0, 0, 0, 0), 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        state = CartPoleState(
            x=float(rng.uniform(-2.0, 2.0)),
            x_dot=float(rng.uniform(-3.0, 3.0)),
            theta=float(rng.uniform(-0.2, 0.2)),
            theta_dot=float(rng.uniform(-3.0, 3.0)),
        )
        action = int(rng.integers(0, 2))
        fwd, _, _ = cartpole.step(state, action)
        mirrored = CartPoleState(-state.x, -state.x_dot, -state.theta, -state.theta_dot)
        mir, _, _ = cartpole.step(mirrored, 1 - action)
        assert fwd.x == -mir.x
        assert fwd.x_dot == -mir.x_dot
        assert fwd.theta == -mir.theta
        assert fwd.theta_dot == -mir.theta_dot

    def test_zero_force_near_upright_stays_finite(self):
        params = EnvParams(force_mag=0.0)
        state = CartPoleState(0.0, 0.0, 1e-4, 0.0)
        for _ in range(200):
            state, _, done = cartpole.step(state, 0, params)
            assert np.all(np.isfinite(state))
            if done:
                break

    def test_done_when_theta_bound_crossed(self):
        state = CartPoleState(0.0, 0.0, 0.2, 3.0)
        nxt, _, done = cartpole.step(state, 1)
        assert abs(nxt.theta) > cartpole.DEFAULT_PARAMS.theta_limit
        assert done is True


class TestStepMatchesReference:
    @pytest.mark.parametrize("params", [cartpole.DEFAULT_PARAMS, OTHER_PARAMS],
                             ids=["default", "other"])
    def test_bit_identical_on_random_states(self, params):
        states = non_terminal_states(params, 100_000, seed=17)
        for action in (0, 1):
            got = [cartpole.step(s, action, params) for s in states]
            want = [reference_step(s, action, params) for s in states]
            assert all(type(nxt) is CartPoleState for nxt, _, _ in got)
            # tobytes, not ==: -0.0 against 0.0 must count as a difference
            assert (np.array([nxt for nxt, _, _ in got]).tobytes()
                    == np.array([nxt for nxt, _, _ in want]).tobytes())
            assert all(type(r) is float and r == 1.0 for _, r, _ in got)
            assert all(type(done) is bool for _, _, done in got)
            assert [done for _, _, done in got] == [done for _, _, done in want]
            assert any(done for _, _, done in got)  # the limit tests were reached

    @pytest.mark.parametrize(
        "action", [0, 1, True, False, 1.0, np.int64(1), 2, -1, 0.5, "1"],
        ids=repr,
    )
    def test_same_accept_reject_as_reference(self, action):
        state = CartPoleState(0.1, -0.2, 0.03, 0.4)
        outcomes = []
        for fn in (cartpole.step, reference_step):
            try:
                nxt, reward, done = fn(state, action)
            except UsageError:
                outcomes.append(None)
            else:
                outcomes.append((np.array(nxt).tobytes(), reward, done))
        assert outcomes[0] == outcomes[1]


class TestTermination:
    def test_theta_limit_is_twelve_degrees(self):
        assert cartpole.DEFAULT_PARAMS.theta_limit == pytest.approx(0.20943951, abs=1e-8)

    def test_terminal_predicate(self):
        assert not cartpole.is_terminal(CartPoleState(2.4, 0, 0, 0))
        assert cartpole.is_terminal(CartPoleState(2.41, 0, 0, 0))
        assert not cartpole.is_terminal(CartPoleState(0, 0, 0.209, 0))
        assert cartpole.is_terminal(CartPoleState(0, 0, 0.21, 0))
