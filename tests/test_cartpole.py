import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import cartpole, experience
from egan.cartpole import CartPoleState
from egan.errors import UsageError

# hand evaluation of the dynamics at the origin with force +10:
# temp = 10/1.1, theta_acc = -(100/11)/(0.5*(4/3 - 0.1/1.1)) = -600/41,
# x_acc = 100/11 + 0.05*(600/41)/1.1 = 400/41, then Euler with tau = 0.02
ORIGIN_PUSH_RIGHT = (0.0, 8.0 / 41.0, 0.0, -12.0 / 41.0)

# Gym's CartPole-v0 (Brockman et al. 2016), written out here so the
# reference below does not read the module under test
V0 = SimpleNamespace(gravity=9.8, mass_cart=1.0, mass_pole=0.1, pole_half_length=0.5,
                     force_mag=10.0, tau=0.02, x_limit=2.4,
                     theta_limit=12.0 * 2.0 * math.pi / 360.0)


def is_terminal(state) -> bool:
    """cartpole.terminal on one CartPoleState."""
    return bool(cartpole.terminal(np.array([state]))[0])


def reference_successor(state, action) -> CartPoleState:
    """Gym's attribute-access dynamics on V0, each square written as a
    product, with no action or limit check."""
    force = V0.force_mag if action == 1 else -V0.force_mag
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    total_mass = V0.mass_cart + V0.mass_pole
    polemass_length = V0.mass_pole * V0.pole_half_length
    temp = (force + polemass_length * (state.theta_dot * state.theta_dot) * sin_t) / total_mass
    theta_acc = (V0.gravity * sin_t - cos_t * temp) / (
        V0.pole_half_length
        * (4.0 / 3.0 - V0.mass_pole * (cos_t * cos_t) / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    return CartPoleState(
        x=state.x + V0.tau * state.x_dot,
        x_dot=state.x_dot + V0.tau * x_acc,
        theta=state.theta + V0.tau * state.theta_dot,
        theta_dot=state.theta_dot + V0.tau * theta_acc,
    )


def reference_terminal(state) -> bool:
    return abs(state.x) > V0.x_limit or abs(state.theta) > V0.theta_limit


def reference_step(state, action):
    """reference_successor behind step's checks, so cartpole.step can be
    held to bit-equality with it."""
    if action not in (0, 1):
        raise UsageError(f"action must be 0 or 1, got {action!r}")
    if reference_terminal(state):
        raise UsageError("cannot step a terminated episode")
    nxt = reference_successor(state, action)
    return nxt, reference_terminal(nxt)


def non_terminal_states(n, seed):
    """n random states inside the limits, led by every signed-zero origin and
    the four at rest exactly on a limit (not terminal, nor is their successor)."""
    rng = np.random.default_rng(seed)
    lo = np.array([-V0.x_limit, -4.0, -V0.theta_limit, -4.0])
    draws = rng.uniform(lo, -lo, size=(n, 4))
    zeros = [CartPoleState(*(math.copysign(0.0, (i >> d & 1) - 0.5) for d in range(4)))
             for i in range(16)]
    edges = [CartPoleState(sign * V0.x_limit, 0.0, 0.0, 0.0) for sign in (1, -1)]
    edges += [CartPoleState(0.0, 0.0, sign * V0.theta_limit, 0.0) for sign in (1, -1)]
    states = zeros + edges + [CartPoleState(*row) for row in draws.tolist()]
    assert not cartpole.terminal(np.array(states)).any()
    return states


def test_constants_are_cartpole_v0():
    assert (cartpole.GRAVITY, cartpole.MASS_CART, cartpole.MASS_POLE,
            cartpole.POLE_HALF_LENGTH, cartpole.FORCE_MAG, cartpole.TAU,
            cartpole.X_LIMIT) == (9.8, 1.0, 0.1, 0.5, 10.0, 0.02, 2.4)
    assert cartpole.THETA_LIMIT == V0.theta_limit  # 12 degrees, as Gym computes it
    # the derived constants are the sums the per-step form computed
    assert cartpole.TOTAL_MASS == V0.mass_cart + V0.mass_pole
    assert cartpole.POLEMASS_LENGTH == V0.mass_pole * V0.pole_half_length


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
        result = cartpole.step(CartPoleState(0, 0, 0, 0), 1)
        assert len(result) == 2  # (state, done): no constant reward
        nxt, done = result
        expected = ORIGIN_PUSH_RIGHT
        assert nxt.x == pytest.approx(expected[0], abs=1e-9)
        assert nxt.x_dot == pytest.approx(expected[1], abs=1e-9)
        assert nxt.theta == pytest.approx(expected[2], abs=1e-9)
        assert nxt.theta_dot == pytest.approx(expected[3], abs=1e-9)
        assert done is False

    def test_origin_action_left_mirrors(self):
        nxt, _ = cartpole.step(CartPoleState(0, 0, 0, 0), 0)
        assert nxt.x_dot == pytest.approx(-ORIGIN_PUSH_RIGHT[1], abs=1e-9)
        assert nxt.theta_dot == pytest.approx(-ORIGIN_PUSH_RIGHT[3], abs=1e-9)

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
        fwd, _ = cartpole.step(state, action)
        mirrored = CartPoleState(-state.x, -state.x_dot, -state.theta, -state.theta_dot)
        mir, _ = cartpole.step(mirrored, 1 - action)
        assert fwd.x == -mir.x
        assert fwd.x_dot == -mir.x_dot
        assert fwd.theta == -mir.theta
        assert fwd.theta_dot == -mir.theta_dot

    def test_done_when_theta_bound_crossed(self):
        state = CartPoleState(0.0, 0.0, 0.2, 3.0)
        nxt, done = cartpole.step(state, 1)
        assert abs(nxt.theta) > cartpole.THETA_LIMIT
        assert done is True


class TestStepMatchesReference:
    def test_bit_identical_on_random_states(self):
        states = non_terminal_states(100_000, seed=17)
        for action in (0, 1):
            got = [cartpole.step(s, action) for s in states]
            want = [reference_step(s, action) for s in states]
            assert all(type(nxt) is CartPoleState for nxt, _ in got)
            # tobytes, not ==: -0.0 against 0.0 must count as a difference
            assert (np.array([nxt for nxt, _ in got]).tobytes()
                    == np.array([nxt for nxt, _ in want]).tobytes())
            assert all(type(done) is bool for _, done in got)
            assert [done for _, done in got] == [done for _, done in want]
            assert any(done for _, done in got)  # the limit tests were reached

    @pytest.mark.parametrize(
        "action", [0, 1, True, False, 1.0, np.int64(1), 2, -1, 0.5, "1"],
        ids=repr,
    )
    def test_same_accept_reject_as_reference(self, action):
        state = CartPoleState(0.1, -0.2, 0.03, 0.4)
        outcomes = []
        for fn in (cartpole.step, reference_step):
            try:
                nxt, done = fn(state, action)
            except UsageError:
                outcomes.append(None)
            else:
                outcomes.append((np.array(nxt).tobytes(), done))
        assert outcomes[0] == outcomes[1]


# (state, action) pairs where glibc's pow squares cos(theta) or theta_dot to
# a different float than the product does, found by scanning default_rng(1)
# uniform states (x +-2.4, x_dot +-3, theta +-0.2, theta_dot +-4); a step that
# squared with ** 2 gave other successor bits here on glibc 2.36
POW_ROUNDS_DIFFERENTLY = [
    (CartPoleState(2.3498467006322783, 2.7545671660093003, -0.08182803448764885,
                   2.132059194947412), 0),  # cos(theta) ** 2
    (CartPoleState(2.0242196253934472, -2.967784984071092, 0.1488389618914489,
                   2.369295030781732), 1),  # theta_dot ** 2
    (CartPoleState(0.832569536888546, -1.6798757131912307, -0.160446490898494,
                   -1.1454027810671334), 0),  # cos(theta) ** 2
]


@pytest.mark.parametrize("state, action", POW_ROUNDS_DIFFERENTLY)
def test_physics_is_libm_free(state, action):
    """step is the product formula, not libm's pow, and step_batch is step,
    on states where the two round apart."""
    nxt, _ = cartpole.step(state, action)
    assert np.array(nxt).tobytes() == np.array(reference_successor(state, action)).tobytes()
    batch_next, _ = cartpole.step_batch(np.array([state]), np.array([action]))
    assert batch_next.tobytes() == np.array([nxt]).tobytes()


class TestTermination:
    def test_theta_limit_is_twelve_degrees(self):
        assert cartpole.THETA_LIMIT == pytest.approx(0.20943951, abs=1e-8)

    def test_terminal_predicate(self):
        for state, expected in [((2.4, 0, 0, 0), False), ((2.41, 0, 0, 0), True),
                                ((-2.41, 0, 0, 0), True), ((0, 0, 0.209, 0), False),
                                ((0, 0, 0.21, 0), True), ((0, 0, -0.21, 0), True)]:
            assert cartpole.terminal(np.array([state], dtype=np.float64)).tolist() == [expected]

    def test_terminal_rows_of_a_batch(self):
        states = np.array([(2.4, 0, 0, 0), (2.41, 0, 0, 0), (0, 0, 0.209, 0),
                           (0, 0, 0.21, 0), (3.0, 9.0, 0.5, -9.0)])
        assert cartpole.terminal(states).tolist() == [False, True, False, True, True]


@st.composite
def states_within_limits(draw):
    """A non-terminal state, often exactly on a limit (+-x_limit, +-theta_limit)."""
    x = draw(st.sampled_from([V0.x_limit, -V0.x_limit]) | st.floats(-V0.x_limit, V0.x_limit))
    theta = draw(st.sampled_from([V0.theta_limit, -V0.theta_limit])
                 | st.floats(-V0.theta_limit, V0.theta_limit))
    x_dot, theta_dot = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    return CartPoleState(x, x_dot, theta, theta_dot)


def scalar_steps(states, actions):
    """cartpole.step row by row -> (next states, dones) as step_batch returns them."""
    steps = [cartpole.step(CartPoleState(*s), int(a))
             for s, a in zip(np.asarray(states).tolist(), np.asarray(actions).tolist())]
    return np.array([nxt for nxt, _ in steps]), np.array([done for _, done in steps])


@given(states_within_limits(), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_step_is_the_successor_behind_its_checks(state, action):
    """On a live state, step returns successor's tuple and the inline limit
    test that run_episodes applies, bit for bit."""
    force = cartpole.FORCE_MAG if action == 1 else -cartpole.FORCE_MAG
    want = cartpole.successor(*state, force, math.cos(state.theta), math.sin(state.theta))
    nxt, done = cartpole.step(state, action)
    # tobytes, not ==: -0.0 against 0.0 must count as a difference
    assert np.array(nxt).tobytes() == np.array(want).tobytes()
    assert done is (abs(want[0]) > cartpole.X_LIMIT or abs(want[2]) > cartpole.THETA_LIMIT)


class TestStepBatch:
    def test_bit_identical_to_step_on_a_collected_buffer(self, small_buffer):
        want_next, want_done = scalar_steps(small_buffer.states, small_buffer.actions)
        for actions in (small_buffer.actions, small_buffer.actions == 1):
            nxt, done = cartpole.step_batch(small_buffer.states, actions)
            # tobytes, not ==: -0.0 against 0.0 must count as a difference
            assert nxt.tobytes() == want_next.tobytes() == small_buffer.next_states.tobytes()
            assert done.dtype == bool
            assert done.tolist() == want_done.tolist() == small_buffer.dones.tolist()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_step_on_drawn_states(self, data):
        states = data.draw(st.lists(states_within_limits(), min_size=1, max_size=20))
        for action in (0, 1):
            actions = np.full(len(states), action)
            want_next, want_done = scalar_steps(states, actions)
            nxt, done = cartpole.step_batch(np.array(states), actions == 1)
            assert nxt.tobytes() == want_next.tobytes()
            assert done.tolist() == want_done.tolist()

    def test_terminal_rows_are_stepped_without_raising(self):
        # step refuses these rows; step_batch applies the same dynamics to
        # them, which the reference shows without its limit check
        states = np.array([(2.5, 1.0, 0.0, 0.0), (0.0, -1.0, -0.25, 2.0),
                           (-3.0, 0.5, 0.3, -1.0), (0.1, 0.0, 0.0, 0.0)])
        assert cartpole.terminal(states).tolist() == [True, True, True, False]
        actions = np.array([1, 0, 1, 0])
        want_next = np.array([reference_successor(CartPoleState(*s), a)
                              for s, a in zip(states.tolist(), actions.tolist())])
        nxt, done = cartpole.step_batch(states, actions)
        assert nxt.tobytes() == want_next.tobytes()
        assert done.tolist() == cartpole.terminal(nxt).tolist() == [True, True, True, False]

    def test_numpy_trig_is_bit_identical_to_math(self):
        # step_batch is bit-identical to step, and collect_random to the scalar
        # rollout, only while np.cos/np.sin round as math.cos/math.sin do
        buffer = experience.collect_random(500, np.random.default_rng(0), 200)
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
