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


class TestTermination:
    def test_theta_limit_is_twelve_degrees(self):
        assert cartpole.DEFAULT_PARAMS.theta_limit == pytest.approx(0.20943951, abs=1e-8)

    def test_terminal_predicate(self):
        assert not cartpole.is_terminal(CartPoleState(2.4, 0, 0, 0))
        assert cartpole.is_terminal(CartPoleState(2.41, 0, 0, 0))
        assert not cartpole.is_terminal(CartPoleState(0, 0, 0.209, 0))
        assert cartpole.is_terminal(CartPoleState(0, 0, 0.21, 0))
