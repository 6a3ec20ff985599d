import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import cartpole, experience
from egan.cartpole import CartPoleState, EnvParams
from egan.errors import UsageError

# hand evaluation of the dynamics at the origin with force +10:
# temp = 10/1.1, theta_acc = -(100/11)/(0.5*(4/3 - 0.1/1.1)) = -600/41,
# x_acc = 100/11 + 0.05*(600/41)/1.1 = 400/41, then Euler with tau = 0.02
ORIGIN_PUSH_RIGHT = (0.0, 8.0 / 41.0, 0.0, -12.0 / 41.0)


def is_terminal(state, params=cartpole.DEFAULT_PARAMS) -> bool:
    """cartpole.terminal on one CartPoleState."""
    return bool(cartpole.terminal(np.array([state]), params)[0])


def reference_step(state, action, params=cartpole.DEFAULT_PARAMS):
    """The attribute-access step that the lean body replaced, kept verbatim
    (but for its terminal test) so cartpole.step can be held to
    bit-equality with it."""
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
    assert not cartpole.terminal(np.array(states), params).any()
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
        for state, expected in [((2.4, 0, 0, 0), False), ((2.41, 0, 0, 0), True),
                                ((-2.41, 0, 0, 0), True), ((0, 0, 0.209, 0), False),
                                ((0, 0, 0.21, 0), True), ((0, 0, -0.21, 0), True)]:
            assert cartpole.terminal(np.array([state], dtype=np.float64)).tolist() == [expected]

    def test_terminal_rows_of_a_batch(self):
        states = np.array([(2.4, 0, 0, 0), (2.41, 0, 0, 0), (0, 0, 0.209, 0),
                           (0, 0, 0.21, 0), (3.0, 9.0, 0.5, -9.0)])
        assert cartpole.terminal(states).tolist() == [False, True, False, True, True]
        assert cartpole.terminal(states, OTHER_PARAMS).tolist() == [False, False, False,
                                                                    False, True]


@st.composite
def states_within_limits(draw, params):
    """A non-terminal state, often exactly on a limit (+-x_limit, +-theta_limit)."""
    x = draw(st.sampled_from([params.x_limit, -params.x_limit])
             | st.floats(-params.x_limit, params.x_limit))
    theta = draw(st.sampled_from([params.theta_limit, -params.theta_limit])
                 | st.floats(-params.theta_limit, params.theta_limit))
    x_dot, theta_dot = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    return CartPoleState(x, x_dot, theta, theta_dot)


def scalar_steps(states, actions, params):
    """cartpole.step row by row -> (next states, dones) as step_batch returns them."""
    steps = [cartpole.step(CartPoleState(*s), int(a), params)
             for s, a in zip(np.asarray(states).tolist(), np.asarray(actions).tolist())]
    return np.array([nxt for nxt, _, _ in steps]), np.array([done for _, _, done in steps])


class TestStepBatch:
    def test_bit_identical_to_step_on_a_collected_buffer(self, small_buffer):
        want_next, want_done = scalar_steps(small_buffer.states, small_buffer.actions,
                                            cartpole.DEFAULT_PARAMS)
        for actions in (small_buffer.actions, small_buffer.actions == 1):
            nxt, done = cartpole.step_batch(small_buffer.states, actions)
            # tobytes, not ==: -0.0 against 0.0 must count as a difference
            assert nxt.tobytes() == want_next.tobytes() == small_buffer.next_states.tobytes()
            assert done.dtype == bool
            assert done.tolist() == want_done.tolist() == small_buffer.dones.tolist()

    @pytest.mark.parametrize("params", [cartpole.DEFAULT_PARAMS, OTHER_PARAMS],
                             ids=["default", "other"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_step_on_drawn_states(self, params, data):
        states = data.draw(st.lists(states_within_limits(params), min_size=1, max_size=20))
        for action in (0, 1):
            actions = np.full(len(states), action)
            want_next, want_done = scalar_steps(states, actions, params)
            nxt, done = cartpole.step_batch(np.array(states), actions == 1, params)
            assert nxt.tobytes() == want_next.tobytes()
            assert done.tolist() == want_done.tolist()

    def test_terminal_rows_are_stepped_without_raising(self):
        # step refuses these rows; step_batch applies the same dynamics to them,
        # which step shows once the limits are lifted
        states = np.array([(2.5, 1.0, 0.0, 0.0), (0.0, -1.0, -0.25, 2.0),
                           (-3.0, 0.5, 0.3, -1.0), (0.1, 0.0, 0.0, 0.0)])
        assert cartpole.terminal(states).tolist() == [True, True, True, False]
        actions = np.array([1, 0, 1, 0])
        unbounded = EnvParams(x_limit=math.inf, theta_limit=math.inf)
        want_next, _ = scalar_steps(states, actions, unbounded)
        nxt, done = cartpole.step_batch(states, actions)
        assert nxt.tobytes() == want_next.tobytes()
        assert done.tolist() == cartpole.terminal(nxt).tolist() == [True, True, True, False]

    def test_numpy_trig_is_bit_identical_to_math(self):
        # step_batch is bit-identical to step, and collect_random to the scalar
        # rollout, only while np.cos/np.sin round as math.cos/math.sin do
        buffer = experience.collect_random(cartpole.DEFAULT_PARAMS, 500,
                                           np.random.default_rng(0))
        theta = buffer.states[:, 2]
        for name, vectorised, scalar in [("cos", np.cos, math.cos), ("sin", np.sin, math.sin)]:
            got = vectorised(theta)
            want = np.array([scalar(t) for t in theta.tolist()])
            differ = np.count_nonzero(got != want)
            assert differ == 0, (
                f"np.{name} differs from math.{name} in the last bit on {differ} of "
                f"{theta.size} buffer angles: numpy's SIMD path on this machine is not "
                f"libm's, so step_batch is not bit-identical to step and the golden "
                f"digests cannot hold here")
