import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import nn, policy
from egan.config import ExperimentConfig
from egan.cartpole import CartPoleState
from egan.errors import UsageError
from egan.experience import Transitions

from test_nn import fd_param_gradient, max_rel_err


def zero_weight_agent(optimizer="sgd", lr=1e-3):
    agent = policy.make_agent(np.random.default_rng(0), optimizer=optimizer,
                              learning_rate=lr)
    for w in agent.net.weights:
        w[:] = 0.0
    return agent


def test_make_agent_defaults_match_config():
    """A bare make_agent(rng) builds the agent the default config runs."""
    config = ExperimentConfig()
    agent = policy.make_agent(np.random.default_rng(0))
    assert agent.net.layer_sizes == [4, *config.policy_hidden, 2]
    assert agent.opt.learning_rate == config.pg_learning_rate
    assert agent.opt.kind == config.pg_optimizer
    assert agent.gamma == config.pg_discount
    assert agent.update_frequency == config.pg_update_frequency


class TestSelectAction:
    def test_zero_weights_give_uniform_probabilities(self):
        agent = zero_weight_agent()
        probs = policy.action_probabilities(agent, CartPoleState(0.1, -0.2, 0.03, 0.4))
        assert probs[0] == pytest.approx(0.5, abs=1e-15)
        assert probs[1] == pytest.approx(0.5, abs=1e-15)

    def test_softmax_of_unit_logit_gap(self):
        # single linear layer from a 1-hot style state so logits are (1, 0)
        agent = policy.make_agent(np.random.default_rng(0), hidden=())
        agent.net.weights[0][:] = 0.0
        agent.net.weights[0][0, 0] = 1.0
        probs = policy.action_probabilities(agent, CartPoleState(1.0, 0.0, 0.0, 0.0))
        assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_empirical_frequency_matches_probabilities(self):
        agent = zero_weight_agent()
        rng = np.random.default_rng(77)
        state = CartPoleState(0, 0, 0, 0)
        draws = np.array([policy.select_action(agent, state, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.5) < 0.02

    def test_deterministic_given_rng(self):
        agent = policy.make_agent(np.random.default_rng(3))
        s = CartPoleState(0.01, 0.2, -0.01, 0.1)
        a1 = [policy.select_action(agent, s, np.random.default_rng(5)) for _ in range(20)]
        a2 = [policy.select_action(agent, s, np.random.default_rng(5)) for _ in range(20)]
        assert a1 == a2


class TestDiscountedReturns:
    def test_hand_recursion(self):
        out = policy.discounted_returns([1.0, 1.0, 1.0], 0.99)
        assert np.allclose(out, [2.9701, 1.99, 1.0], atol=1e-12)

    def test_gamma_zero_returns_rewards(self):
        r = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(policy.discounted_returns(r, 0.0), r)

    def test_zero_rewards_zero_returns(self):
        assert np.all(policy.discounted_returns(np.zeros(7), 0.99) == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            policy.discounted_returns([], 0.99)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=50),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recursion_identity_property(self, rewards, gamma):
        g = policy.discounted_returns(rewards, gamma)
        assert g[-1] == pytest.approx(rewards[-1], rel=1e-12, abs=1e-12)
        for t in range(len(rewards) - 1):
            assert g[t] == pytest.approx(rewards[t] + gamma * g[t + 1], rel=1e-9, abs=1e-9)


def make_trace(rng, n_steps, reward=1.0):
    states = rng.uniform(-0.5, 0.5, size=(n_steps + 1, 4))
    return Transitions(
        states=states[:-1],
        actions=rng.integers(0, 2, size=n_steps).astype(np.intp),
        next_states=states[1:],
        rewards=np.full(n_steps, reward),
        dones=np.arange(n_steps) == n_steps - 1,
    )


class TestUpdateOnEpisodes:
    def test_constant_returns_leave_parameters_unchanged(self):
        agent = policy.make_agent(np.random.default_rng(1), optimizer="sgd")
        rng = np.random.default_rng(2)
        # gamma=0 makes every return equal to the constant reward
        agent.gamma = 0.0
        before = agent.net.params.copy()
        policy.update_on_episodes(agent, [make_trace(rng, 6), make_trace(rng, 4)])
        assert np.array_equal(agent.net.params, before)

    def test_empty_accumulator_rejected(self):
        agent = policy.make_agent(np.random.default_rng(1))
        with pytest.raises(UsageError):
            policy.update_on_episodes(agent, [])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        agent = policy.make_agent(rng, hidden=(2,), optimizer="sgd")
        # inert optimizer so the pre-step parameters define the gradient check
        agent.opt = nn.OptimizerState(kind="sgd", learning_rate=0.0)
        states = rng.uniform(-1, 1, size=(3, 4))
        actions = np.array([0, 1, 0], dtype=np.intp)
        weights = np.array([0.5, -1.2, 2.0])

        net = agent.net
        v0 = net.params.copy()

        def loss_at(vec):
            net.params[...] = vec
            probs, _ = nn.forward(net, states)
            chosen = probs[np.arange(3), actions]
            return -float(np.mean(np.log(chosen) * weights))

        h = 1e-5
        numeric = np.empty_like(v0)
        for i in range(v0.size):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            numeric[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
        net.params[...] = v0

        probs, cache = nn.forward(net, states)
        chosen = nn.clamp_probabilities(probs[np.arange(3), actions])
        grad_out = np.zeros_like(probs)
        grad_out[np.arange(3), actions] = -weights / (3 * chosen)
        analytic = nn.backward(net, cache, grad_out)[0]
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_single_positive_return_increases_action_probability(self):
        agent = policy.make_agent(np.random.default_rng(4), optimizer="sgd",
                                  learning_rate=1e-2)
        state = CartPoleState(0.1, 0.0, -0.02, 0.0)
        before = policy.action_probabilities(agent, state)[1]
        policy.policy_gradient_step(
            agent, np.array([state]), np.array([1], dtype=np.intp),
            np.array([2.0])
        )
        after = policy.action_probabilities(agent, state)[1]
        assert after > before

    def test_update_invariant_to_return_shift(self):
        agents = []
        for shift in (0.0, 100.0):
            agent = policy.make_agent(np.random.default_rng(6), optimizer="sgd")
            rng = np.random.default_rng(7)
            traces = [make_trace(rng, 5), make_trace(rng, 8)]
            states = np.concatenate([t.states for t in traces])
            actions = np.concatenate([t.actions for t in traces])
            returns = np.concatenate(
                [policy.discounted_returns(t.rewards, agent.gamma) for t in traces]
            )
            policy.policy_gradient_step(
                agent, states, actions, policy.normalize_weights(returns + shift)
            )
            agents.append(agent.net.params.copy())
        assert np.allclose(agents[0], agents[1], atol=1e-12)

    def test_record_episode_updates_every_fifth(self):
        agent = policy.make_agent(np.random.default_rng(8), update_frequency=5)
        rng = np.random.default_rng(9)
        for i in range(4):
            assert policy.record_episode(agent, make_trace(rng, 3)) is None
        assert len(agent.pending) == 4
        loss = policy.record_episode(agent, make_trace(rng, 3))
        assert loss is not None
        assert agent.pending == []


def synthetic_batch(rng, n, rewards):
    return Transitions(
        states=rng.uniform(-0.5, 0.5, size=(n, 4)),
        actions=rng.integers(0, 2, size=n).astype(np.intp),
        next_states=np.zeros((n, 4)),
        rewards=np.asarray(rewards[:n], dtype=np.float64),
        dones=np.zeros(n, dtype=bool),
    )


class TestPretrain:
    def test_zero_batches_is_noop(self):
        agent = policy.make_agent(np.random.default_rng(10))
        before = agent.net.params.copy()
        assert policy.pretrain_on_synthetic(agent, []) == 0
        assert np.array_equal(agent.net.params, before)

    def test_constant_reward_batch_is_noop(self):
        agent = policy.make_agent(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        before = agent.net.params.copy()
        batch = synthetic_batch(rng, 16, np.ones(16))
        assert policy.pretrain_on_synthetic(agent, [batch]) == 1
        assert np.array_equal(agent.net.params, before)

    def test_varied_rewards_update_parameters(self):
        agent = policy.make_agent(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        before = agent.net.params.copy()
        batch = synthetic_batch(rng, 16, np.array([1.0] * 8 + [0.0] * 8))
        policy.pretrain_on_synthetic(agent, [batch])
        assert not np.array_equal(agent.net.params, before)

    def test_agent_optimizer_state_untouched(self):
        agent = policy.make_agent(np.random.default_rng(10), optimizer="adam")
        rng = np.random.default_rng(11)
        batch = synthetic_batch(rng, 16, np.array([1.0] * 8 + [0.0] * 8))
        policy.pretrain_on_synthetic(agent, [batch], learning_rate=1e-4)
        assert agent.opt.t == 0  # training-phase moments still fresh


def test_normalize_weights_constant_is_zero():
    assert np.all(policy.normalize_weights(np.full(9, 4.2)) == 0.0)


def test_normalize_weights_zscore():
    w = policy.normalize_weights(np.array([0.0, 2.0]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-7)
