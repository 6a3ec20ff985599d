from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import cartpole, experience, nn, policy
from egan.cartpole import CartPoleState, DEFAULT_PARAMS
from egan.errors import ShapeError, UsageError
from egan.experience import Transitions

from test_cartpole import is_terminal


def one_row(s, a, s_next, done=False) -> Transitions:
    return Transitions(
        states=np.array([s], dtype=np.float64),
        actions=np.array([a], dtype=np.intp),
        next_states=np.array([s_next], dtype=np.float64),
        dones=np.array([done]),
    )


def assert_same(t1: Transitions, t2: Transitions):
    for name in ("states", "actions", "next_states", "dones"):
        a, b = getattr(t1, name), getattr(t2, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name  # -0.0 and 0.0 differ here


# Per-row reference codec: the row-at-a-time encode/decode the column
# operations replaced, on the 9-column (s, a, s') row, so
# encode_batch/decode_batch can be held to bit-equality with it.

def _ref_scale(values, stats):
    lo, hi = stats.state_min, stats.state_max
    span = hi - lo
    ok = span > 0
    return np.where(ok, 2.0 * (values - lo) / np.where(ok, span, 1.0) - 1.0, values)


def _ref_unscale(values, stats):
    lo, hi = stats.state_min, stats.state_max
    span = hi - lo
    ok = span > 0
    return np.where(ok, (values + 1.0) / 2.0 * span + lo, values)


def reference_encode(s, a, s_next, stats):
    x = np.empty(9)
    x[0:4] = _ref_scale(np.array(s), stats)
    x[4] = 1.0 if a == 1 else -1.0
    x[5:9] = _ref_scale(np.array(s_next), stats)
    return x


def reference_decode(x, stats, params=DEFAULT_PARAMS):
    x = np.asarray(x, dtype=np.float64)
    s_t = CartPoleState(*_ref_unscale(x[0:4], stats).tolist())
    a = 1 if x[4] >= 0.0 else 0
    s_next = CartPoleState(*_ref_unscale(x[5:9], stats).tolist())
    done = is_terminal(s_next, params)
    return s_t, a, s_next, done


def reference_encode_batch(t: Transitions, stats):
    rows = zip(t.states.tolist(), t.actions.tolist(), t.next_states.tolist())
    return np.array([reference_encode(s, a, s2, stats) for s, a, s2 in rows])


def reference_decode_batch(xs, stats, params=DEFAULT_PARAMS) -> Transitions:
    rows = [reference_decode(x, stats, params) for x in xs]
    return Transitions(
        states=np.array([r[0] for r in rows]),
        actions=np.array([r[1] for r in rows], dtype=np.intp),
        next_states=np.array([r[2] for r in rows]),
        dones=np.array([r[3] for r in rows], dtype=bool),
    )


def zero_range_stats(buffer):
    """The buffer's stats with x_dot collapsed to zero range."""
    stats = experience.compute_stats(buffer)
    state_max = stats.state_max.copy()
    state_max[1] = stats.state_min[1]
    return experience.NormalizationStats(stats.state_min, state_max)


def test_transitions_are_four_columns():
    # CartPole pays 1.0 on every step, so no column holds a reward
    assert [f.name for f in fields(Transitions)] == ["states", "actions", "next_states", "dones"]


def test_single_episode_buffer_size_equals_length():
    rng = np.random.default_rng(0)
    buf = experience.collect_random(DEFAULT_PARAMS, 1, rng)
    assert len(buf) == buf.states.shape[0] == buf.next_states.shape[0]
    assert len(buf) == buf.actions.size == buf.dones.size
    assert 1 <= len(buf) <= 200
    # one episode: every successor state is the next row's state
    assert np.array_equal(buf.states[1:], buf.next_states[:-1])
    assert buf.actions.dtype == np.intp and buf.dones.dtype == bool


def test_collection_deterministic():
    b1 = experience.collect_random(DEFAULT_PARAMS, 5, np.random.default_rng(9))
    b2 = experience.collect_random(DEFAULT_PARAMS, 5, np.random.default_rng(9))
    assert_same(b1, b2)


def test_collect_requires_episodes():
    with pytest.raises(UsageError):
        experience.collect_random(DEFAULT_PARAMS, 0, np.random.default_rng(0))


def reference_collect_random(params, n_episodes, rng) -> Transitions:
    """The per-step rollout collect_random replaced: one rng.spawn(1) child
    per episode, and every step a 1-row state stack and an np.full p0.  The
    last row is done only when the step reported a terminal successor, not
    when the cap cut the episode short."""
    parts = []
    for _ in range(n_episodes):
        child, = rng.spawn(1)
        path = [cartpole.reset(child)]
        draws = child.random(params.max_steps).tolist()
        actions = []
        for t in range(params.max_steps):
            states = np.array([path[-1]])
            p0 = np.full(len(states), 0.5).tolist()[0]
            action = int(draws[t] >= p0)
            state, _, done = cartpole.step(path[-1], action, params)
            path.append(state)
            actions.append(action)
            if done:
                break
        visited = np.array(path)
        dones = np.zeros(len(actions), dtype=bool)
        dones[-1] = done
        parts.append(Transitions(visited[:-1], np.array(actions, dtype=np.intp),
                                 visited[1:], dones))
    return Transitions(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(Transitions)))


def test_collect_random_matches_per_step_reference():
    # an 8-step cap cuts most episodes short; one episode steps alone
    for n_episodes, max_steps in [(50, 200), (50, 8), (1, 200)]:
        params = replace(DEFAULT_PARAMS, max_steps=max_steps)
        got = experience.collect_random(params, n_episodes, np.random.default_rng(70))
        want = reference_collect_random(params, n_episodes, np.random.default_rng(70))
        assert len(got) > n_episodes
        assert_same(got, want)
        if max_steps == 8:
            assert 0 < np.count_nonzero(got.dones) < n_episodes


def test_buffer_transitions_replay_exactly(small_buffer):
    """Every stored transition must agree with the deterministic dynamics."""
    for i in range(400):
        s = CartPoleState(*small_buffer.states[i].tolist())
        nxt, reward, done = cartpole.step(s, int(small_buffer.actions[i]), DEFAULT_PARAMS)
        assert nxt == tuple(small_buffer.next_states[i].tolist())
        assert reward == 1.0
        if not small_buffer.dones[i]:
            assert done is False


def uniform(states):
    """The uniform policy as log-odds: g = 0 in every state."""
    return np.zeros(len(states))


def rngs_from(seed, k):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


def test_episode_reward_sum_equals_length():
    # the harness records len(episode) as the episode's reward
    episode, = experience.run_episodes(uniform, [np.random.default_rng(4)])
    rewards = [cartpole.step(CartPoleState(*s), a)[1]
               for s, a in zip(episode.states.tolist(), episode.actions.tolist())]
    assert sum(rewards) == len(episode) > 1


def test_constant_action_topples_quickly():
    # g = -1e300 is below every threshold a draw in [0, 1) gives (the lowest
    # is about -36.7), so the episode always pushes left
    episode, = experience.run_episodes(lambda s: np.full(len(s), -1e300),
                                       [np.random.default_rng(11)])
    assert len(episode) < 200
    assert np.all(episode.actions == 0)
    assert episode.dones[-1]
    assert not episode.dones[:-1].any()


def test_episode_determinism():
    e1 = experience.run_episodes(uniform, rngs_from(5, 4))
    e2 = experience.run_episodes(uniform, rngs_from(5, 4))
    assert len(e1) == len(e2) == 4
    for a, b in zip(e1, e2):
        assert_same(a, b)


def test_episode_cap_marks_done():
    # tiny cap so even a random policy reaches it; the cap truncates the
    # episode, the pole has not fallen, so no row is done
    params = replace(DEFAULT_PARAMS, max_steps=3)
    episode, = experience.run_episodes(uniform, [np.random.default_rng(5)], params)
    assert len(episode) == 3
    assert not is_terminal(episode.next_states[-1])
    assert episode.dones.tolist() == [False, False, False]


def forward_logit(net):
    """log p1 - log p0 of nn.forward's softmax, which policy.logit_function
    stands in for."""
    def logit(states):
        probs = nn.forward(net, states)[0]
        return np.log(probs[:, 1]) - np.log(probs[:, 0])
    return logit


def frozen_policy(seed=3):
    return forward_logit(policy.make_agent(np.random.default_rng(seed)).net)


def test_slice_rows_are_views():
    rng = np.random.default_rng(0)
    states = rng.uniform(-1, 1, size=(6, 4))
    t = Transitions(states, rng.integers(0, 2, size=6).astype(np.intp),
                    states + 1.0, np.arange(6) == 5)
    part = t.slice(2, 5)
    assert len(part) == 3
    assert_same(part, Transitions(t.states[2:5], t.actions[2:5], t.next_states[2:5],
                                  t.dones[2:5]))
    assert np.shares_memory(part.states, t.states)


class TestRunEpisodes:
    def test_one_group_equals_serial_groups(self):
        # compare Transitions, never logits: the forward of k rows can differ
        # from k one-row forwards in the last bits, an action cannot
        probs = frozen_policy()
        together = experience.run_episodes(probs, rngs_from(21, 5))
        serial = [experience.run_episodes(probs, [rng])[0] for rng in rngs_from(21, 5)]
        assert len({len(e) for e in together}) > 1  # the group really shrank
        for a, b in zip(together, serial):
            assert_same(a, b)

    def test_one_forward_per_step_on_live_states(self):
        seen = []

        def logits(states):
            seen.append(states.shape)
            return np.zeros(len(states))

        episodes = experience.run_episodes(logits, rngs_from(8, 5))
        lengths = [len(e) for e in episodes]
        assert len(seen) == max(lengths)
        assert [shape[0] for shape in seen] == [
            sum(n > t for n in lengths) for t in range(max(lengths))
        ]
        assert all(shape[1] == 4 for shape in seen)

    def test_cap_truncates_some_episodes_only(self):
        params = replace(DEFAULT_PARAMS, max_steps=25)
        episodes = experience.run_episodes(uniform, rngs_from(2, 12), params)
        lengths = [len(e) for e in episodes]
        assert max(lengths) == 25 and min(lengths) < 25
        truncated = 0
        for e in episodes:
            assert not e.dones[:-1].any()
            # an episode ends on a terminal state unless the cap cut it short,
            # and only a terminal last row is done
            last = e.next_states[-1]
            assert is_terminal(last) or len(e) == 25
            assert e.dones[-1] == is_terminal(last)
            truncated += not e.dones[-1]
            assert np.array_equal(e.states[1:], e.next_states[:-1])
        assert truncated > 0

    def test_action_frequency_follows_probability(self):
        # P(action 1) = 0.7, so P(action 0) = 0.3
        episodes = experience.run_episodes(lambda s: np.full(len(s), np.log(0.7 / 0.3)),
                                           rngs_from(6, 100))
        actions = np.concatenate([e.actions for e in episodes])
        assert actions.size > 1000
        assert abs(np.mean(actions == 0) - 0.3) < 0.03

    def test_no_generators_no_episodes(self):
        assert experience.run_episodes(uniform, []) == []


def reference_run_episodes(probs_fn, rngs, params=DEFAULT_PARAMS):
    """The lockstep loop run_episodes replaced, kept verbatim: np.array over
    the CartPoleState NamedTuples, per-episode action lists, and action
    int(u >= p0) for probs_fn's P(action 0).  Only its done rule
    follows run_episodes: the last row is done only on a terminal successor,
    not when the cap cut the episode short."""
    paths = [[cartpole.reset(rng)] for rng in rngs]
    draws = [rng.random(params.max_steps).tolist() for rng in rngs]
    steps = [[] for _ in rngs]
    terminal = [False for _ in rngs]
    live = list(range(len(paths)))
    for t in range(params.max_steps):
        if not live:
            break
        p0 = probs_fn(np.array([paths[i][-1] for i in live])).tolist()
        still = []
        for i, p in zip(live, p0):
            action = int(draws[i][t] >= p)
            state, _, done = cartpole.step(paths[i][-1], action, params)
            paths[i].append(state)
            steps[i].append(action)
            terminal[i] = done
            if not done:
                still.append(i)
        live = still
    episodes = []
    for visited, actions, done in zip(paths, steps, terminal):
        path = np.array(visited)
        dones = np.zeros(len(actions), dtype=bool)
        dones[-1] = done
        episodes.append(Transitions(path[:-1], np.array(actions, dtype=np.intp),
                                    path[1:], dones))
    return episodes


def sigmoid_of(logit_fn):
    """states -> P(action 0) = sigmoid(-g) with the arithmetic of the
    probability function logit_function replaced: exp clamped at 700."""
    def p0(states):
        g = logit_fn(states)
        return 1.0 / (1.0 + np.exp(np.minimum(g, 700.0)))
    return p0


class TestRunEpisodesMatchesReference:
    @pytest.mark.parametrize("cap", [1, 25, 100, 200])
    @pytest.mark.parametrize("k", [1, 5, 7])
    @pytest.mark.parametrize("scale", [1.0, None, 5.0], ids=["p0", "uniform", "p0x5"])
    def test_same_columns(self, scale, k, cap):
        # the log-odds rule g >= log((1 - u) / u) against the probability
        # rule u >= sigmoid(-g), on one policy at two parameter scales
        params = replace(DEFAULT_PARAMS, max_steps=cap)
        if scale is None:
            logit_fn = uniform
        else:
            agent = policy.make_agent(np.random.default_rng(3))
            agent.net.params *= scale
            logit_fn = policy.logit_function(agent.net)
        probs_fn = sigmoid_of(logit_fn)
        got = experience.run_episodes(logit_fn, rngs_from(40 + k, k), params)
        want = reference_run_episodes(probs_fn, rngs_from(40 + k, k), params)
        assert len(got) == len(want) == k
        for a, b in zip(got, want):
            assert_same(a, b)
            assert not a.states.flags.writeable
            assert not a.next_states.flags.writeable

    def test_one_step_call_per_transition(self, monkeypatch):
        calls = []
        step = cartpole.step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(cartpole, "step", counted)
        episodes = experience.run_episodes(uniform, rngs_from(13, 7))
        assert len(calls) == sum(len(e) for e in episodes) > 7


def probability_rule(g, u):
    """The acting rule run_episodes replaced: action 1 iff u >= P(action 0),
    with P(action 0) = 1 / (1 + exp(min(g, 700)))."""
    return u >= 1.0 / (1.0 + np.exp(np.minimum(g, 700.0)))


def log_odds_rule(g, u):
    """run_episodes' rule: action 1 iff g >= log((1 - u) / u)."""
    return g >= experience.logistic_thresholds(u)


def rng_draws_near(u, n):
    """n multiples of 2**-53 on each side of u (and u), clipped to [0, 1)."""
    k = np.round(u * 2.0**53) + np.arange(-n, n + 1)
    return np.unique(np.clip(k, 0, 2.0**53 - 1)) * 2.0**-53


# draws of rng.random at its ends and its middle: multiples of 2**-53 in [0, 1)
EDGE_DRAWS = [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]


class StubGenerator:
    """Resets to the upright state and hands out fixed uniform draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def uniform(self, low, high, size):
        return np.zeros(size)

    def random(self, size):
        assert size == self.draws.size
        return self.draws.copy()


def constant_logit_actions(g, draws):
    """The actions of one episode acting on logit g everywhere, one step per
    draw."""
    params = replace(DEFAULT_PARAMS, max_steps=len(draws))
    episode, = experience.run_episodes(lambda s: np.full(len(s), g),
                                       [StubGenerator(draws)], params)
    return episode.actions.tolist()


class TestLogOddsRule:
    """The log-odds rule acts as the probability rule it replaced."""

    def test_random_pairs_decide_alike(self):
        rng = np.random.default_rng(31)
        n = 1_000_000
        u = rng.random(n)  # the draws run_episodes makes, multiples of 2**-53
        g = np.concatenate([rng.normal(0.0, 4.0, n // 2), rng.normal(0.0, 30.0, n - n // 2)])
        assert np.array_equal(log_odds_rule(g, u), probability_rule(g, u))

    @pytest.mark.parametrize("magnitude", [0.0, 36.0, 700.0, 1e300])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_saturated_logits_decide_alike(self, magnitude, sign):
        # every draw within 2000 of either end of [0, 1) and of 0.5, where
        # the saturated probabilities and their thresholds live
        u = np.concatenate([rng_draws_near(0.0, 2000), rng_draws_near(0.5, 2000),
                            rng_draws_near(1.0, 2000), np.random.default_rng(0).random(10_000)])
        g = np.full(u.size, sign * magnitude)
        assert np.array_equal(log_odds_rule(g, u), probability_rule(g, u))

    def test_disagreements_stay_within_ulp_band(self):
        # u stepped one ulp at a time from the old rule's P(action 0) = p: the
        # two rules round differently, so they may disagree right at p, but
        # only within 2 * (1 + |g|) ulps of it
        g = np.concatenate([np.linspace(-40.0, 40.0, 801),
                            np.random.default_rng(8).normal(0.0, 10.0, 400)])
        p = 1.0 / (1.0 + np.exp(np.minimum(g, 700.0)))
        band = 2.0 * (1.0 + np.abs(g))
        reach = 100
        assert band.max() < reach
        widest = np.zeros(g.size)
        for direction in (0.0, 1.0):
            u = p.copy()
            for k in range(1, reach + 1):
                u = np.nextafter(u, direction)
                inside = (u > 0.0) & (u < 1.0)
                differ = inside & (log_odds_rule(g, u) != probability_rule(g, u))
                widest[differ] = k
        assert (widest <= band).all()
        assert widest.max() > 0  # the two rules do round differently

    @pytest.mark.parametrize("g", [0.0, 36.0, -36.0, 700.0, 1e300, -1e300, 5e-324])
    def test_zero_draw_takes_action_0_for_finite_logits(self, g):
        # u == 0.0 gives an infinite threshold and no divide-by-zero warning
        assert constant_logit_actions(g, [0.0] * 6) == [0] * 6

    @pytest.mark.parametrize("g,expected", [
        (1e300, [0, 1, 1, 1, 1, 1]),
        (np.inf, [1, 1, 1, 1, 1, 1]),
        (-1e300, [0, 0, 0, 0, 0, 0]),
        (-np.inf, [0, 0, 0, 0, 0, 0]),
        (np.nan, [0, 0, 0, 0, 0, 0]),
    ])
    def test_extreme_and_nan_logits_act_deterministically(self, g, expected):
        # draws at both ends of [0, 1) and its middle; only g = +inf beats the
        # +inf threshold of u == 0, and every comparison with NaN is false
        assert constant_logit_actions(g, EDGE_DRAWS) == expected

    @pytest.mark.parametrize("draw", sorted({*rng_draws_near(0.5, 3).tolist(), *EDGE_DRAWS}))
    def test_uniform_policy_is_the_half_threshold(self, draw):
        # g = 0 decides u >= 0.5 bit for bit, at and next to 0.5: the rule
        # collect_random applies to its random episodes directly
        assert constant_logit_actions(0.0, [draw]) == [int(draw >= 0.5)]


class TestEncoding:
    def test_action_channel_mapping(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        s, s_next = small_buffer.states[0], small_buffer.next_states[0]
        for action, expected in ((0, -1.0), (1, 1.0)):
            x = experience.encode_batch(one_row(s, action, s_next), stats)
            assert x[0, 4] == expected

    def test_state_at_recorded_max_encodes_to_one(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        top = stats.state_max
        x = experience.encode_batch(one_row(top, 1, top), stats)[0]
        assert np.allclose(x[0:4], 1.0, atol=1e-12)
        assert np.allclose(x[5:9], 1.0, atol=1e-12)

    def test_components_in_unit_interval(self, small_buffer, small_encoded):
        assert small_encoded.min() >= -1.0 - 1e-12
        assert small_encoded.max() <= 1.0 + 1e-12

    def test_round_trip_on_real_transitions(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        back = experience.decode_batch(experience.encode_batch(small_buffer, stats), stats)
        assert np.allclose(back.states, small_buffer.states, atol=1e-9)
        assert np.allclose(back.next_states, small_buffer.next_states, atol=1e-9)
        assert np.array_equal(back.actions, small_buffer.actions)

    @pytest.mark.parametrize("width", [experience.ENCODED_DIM - 1, experience.ENCODED_DIM + 1])
    def test_decode_rejects_other_widths(self, small_buffer, width):
        stats = experience.compute_stats(small_buffer)
        with pytest.raises(ShapeError, match="9 columns"):
            experience.decode_batch(np.zeros((3, width)), stats)

    def test_decode_action_threshold(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        x = experience.encode_batch(small_buffer, stats)[0]
        x[4] = 0.3
        assert experience.decode_batch(x, stats).actions[0] == 1
        x[4] = -0.3
        assert experience.decode_batch(x, stats).actions[0] == 0

    def test_decode_all_zero_vector(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        t = experience.decode_batch(np.zeros(9), stats)
        mid = (stats.state_min + stats.state_max) / 2.0
        assert np.allclose(t.states[0], mid, atol=1e-12)
        assert t.actions[0] == 1  # tie at exactly 0 breaks upward

    def test_decode_is_total_outside_unit_box(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        t = experience.decode_batch(np.full(9, 3.5), stats)
        assert np.all(np.isfinite(t.states))

    def test_decode_infers_done_geometrically(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        x = np.zeros(9)
        x[5] = 100.0  # push decoded next-state x far outside the track
        assert experience.decode_batch(x, stats).dones[0]

    def test_zero_range_dimension_passes_through(self):
        s = (0.3, 0.0, 0.01, 0.0)
        t = one_row(s, 1, s)
        stats = experience.compute_stats(t)  # every dim has zero range
        x = experience.encode_batch(t, stats)
        assert np.allclose(x[0, 0:4], s, atol=1e-15)
        back = experience.decode_batch(x, stats)
        assert np.allclose(back.states[0], s, atol=1e-15)

    def test_stats_recomputation_idempotent(self, small_buffer):
        s1 = experience.compute_stats(small_buffer)
        s2 = experience.compute_stats(small_buffer)
        assert np.array_equal(s1.state_min, s2.state_min)
        assert np.array_equal(s1.state_max, s2.state_max)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        buf = experience.collect_random(DEFAULT_PARAMS, 2, rng)
        stats = experience.compute_stats(buf)
        back = experience.decode_batch(experience.encode_batch(buf, stats), stats)
        assert np.allclose(back.states, buf.states, atol=1e-9)
        assert np.array_equal(back.actions, buf.actions)


class TestReferenceCodec:
    """The column codec is bit-equal to the per-row reference above."""

    def test_encode_matches_reference_on_real_buffer(self, small_buffer):
        stats = experience.compute_stats(small_buffer)
        assert np.array_equal(
            experience.encode_batch(small_buffer, stats),
            reference_encode_batch(small_buffer, stats),
        )

    def test_decode_matches_reference_on_real_buffer(self, small_buffer, small_encoded):
        stats = experience.compute_stats(small_buffer)
        assert_same(
            experience.decode_batch(small_encoded, stats),
            reference_decode_batch(small_encoded, stats),
        )

    @pytest.mark.parametrize("zero_range", [False, True])
    def test_decode_matches_reference_on_random_vectors(self, small_buffer, zero_range):
        stats = (zero_range_stats(small_buffer) if zero_range
                 else experience.compute_stats(small_buffer))
        rng = np.random.default_rng(17)
        xs = rng.uniform(-1.5, 1.5, size=(2000, 9))
        xs[::7, 4] = 0.0  # action code exactly on the threshold
        assert_same(
            experience.decode_batch(xs, stats), reference_decode_batch(xs, stats)
        )

    @pytest.mark.parametrize("zero_range", [False, True])
    def test_encode_matches_reference_on_random_transitions(self, small_buffer, zero_range):
        stats = (zero_range_stats(small_buffer) if zero_range
                 else experience.compute_stats(small_buffer))
        rng = np.random.default_rng(18)
        xs = rng.uniform(-1.5, 1.5, size=(2000, 9))
        xs[::7, 4] = 0.0
        t = experience.decode_batch(xs, stats)
        assert np.array_equal(
            experience.encode_batch(t, stats), reference_encode_batch(t, stats)
        )

    def test_roundtrip_replays_through_simulator(self):
        """Control for the physics residual of generated data: real transitions
        after encode and decode still obey cartpole.step to rounding level."""
        buf = experience.collect_random(DEFAULT_PARAMS, 20, np.random.default_rng(0))
        stats = experience.compute_stats(buf)
        back = experience.decode_batch(experience.encode_batch(buf, stats), stats)
        residuals = []
        for s, a, s_next in zip(back.states.tolist(), back.actions.tolist(),
                                back.next_states.tolist()):
            nxt, _, _ = cartpole.step(CartPoleState(*s), a, DEFAULT_PARAMS)
            residuals.append(np.abs(np.array(nxt) - s_next))
        assert len(residuals) == len(buf)
        assert np.mean(residuals) < 1e-9
