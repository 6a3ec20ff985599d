import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import cartpole, experience, harness, nn, policy
from egan.config import ExperimentConfig
from egan.cartpole import CartPoleState
from egan.errors import ShapeError, UsageError
from egan.experience import Transitions

from test_experience import EDGE_DRAWS, assert_same_group, forward_logit, last_successors
from test_nn import fd_param_gradient, max_rel_err, same_bytes


def zero_weight_agent(lr=1e-3):
    agent = policy.make_agent(np.random.default_rng(0), learning_rate=lr)
    for w in agent.net.weights:
        w[:] = 0.0
    return agent


def test_make_agent_defaults_match_config():
    """A bare make_agent(rng), the agent every run trains, is the paper's
    policy: [32] tanh, Adam at 1e-3 with fresh moments, discount 0.99."""
    agent = policy.make_agent(np.random.default_rng(0))
    assert agent.net.layer_sizes == [4, 32, 2]
    assert agent.opt.learning_rate == 1e-3
    assert agent.opt.t == 0 and not agent.opt.m.any() and not agent.opt.v.any()
    assert agent.opt.m.shape == agent.opt.v.shape == agent.net.params.shape
    assert agent.gamma == 0.99


def logit_of(agent, states):
    """Log-odds of action 1 as the online phase computes them: the policy's
    logit_function."""
    return policy.logit_function(agent.net)(states)


# |logit_function - (log p1 - log p0)| <= LOGIT_BOUND * (1 + |g|) on identical
# inputs: both round z1 - z0, and the softmax adds an exp, a divide and two
# logs; the worst case over STATE_BOX below is about 45 * 2**-53
LOGIT_BOUND = 128 * 2.0**-53
# the CartPole box: position and angle to their limits, velocities past what
# random-policy episodes reach
STATE_BOX = np.array([cartpole.X_LIMIT, 3.0, cartpole.THETA_LIMIT, 3.5])


class TestP0Function:
    """policy.logit_function, the acting function of the online phase: the
    log-odds g = z1 - z0 that replaced p0_function's P(action 0)."""

    @pytest.mark.parametrize("hidden", [(32,), (16, 16), ()])
    @pytest.mark.parametrize("scale", [1.0, 5.0])
    def test_agrees_with_softmax_column(self, hidden, scale):
        agent = policy.make_agent(np.random.default_rng(0), hidden=hidden)
        agent.net.params *= scale
        states = np.random.default_rng(1).uniform(-STATE_BOX, STATE_BOX, size=(10_000, 4))
        got = policy.logit_function(agent.net)(states)
        assert got.shape == (10_000,)
        err = np.abs(got - forward_logit(agent.net)(states))
        assert (err <= LOGIT_BOUND * (1.0 + np.abs(got))).all()

    @pytest.mark.parametrize("hidden", [(32,), (16, 16), ()])
    @pytest.mark.parametrize("rows", [1, 5, 1000])
    def test_hidden_layers_are_forward_bit_for_bit(self, hidden, rows):
        # g = h @ wd + bd on the last hidden activations nn.forward caches
        agent = policy.make_agent(np.random.default_rng(2), hidden=hidden)
        agent.net.params *= 3.0
        states = np.random.default_rng(3).uniform(-STATE_BOX, STATE_BOX, size=(rows, 4))
        cache = nn.forward(agent.net, states)[1]
        h = cache.post[-2] if hidden else cache.inputs
        w, b = agent.net.weights[-1], agent.net.biases[-1]
        want = np.dot(h, w[1] - w[0]) + (b[1] - b[0])
        assert same_bytes(policy.logit_function(agent.net)(states), want)

    @pytest.mark.parametrize("hidden", [(32,), ()])
    @pytest.mark.parametrize("gap,expected", [(1000.0, 1.0), (-1000.0, 0.0)])
    def test_saturated_gap_without_warning(self, hidden, gap, expected):
        # gap = z0 - z1, expected = P(action 0); neither the logit nor the
        # thresholds overflow, and every draw in (0, 1) acts as expected
        agent = policy.make_agent(np.random.default_rng(0), hidden=hidden)
        agent.net.weights[-1][:] = 0.0
        agent.net.biases[-1][:] = [gap / 2, -gap / 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = policy.logit_function(agent.net)(np.zeros((3, 4)))
            c = experience.logistic_thresholds(np.array(EDGE_DRAWS[1:]))
        assert (g == -gap).all()
        assert ((g[0] >= c) == (expected == 0.0)).all()

    @pytest.mark.parametrize("sizes,acts", [
        ([4, 8, 3], ["tanh", "softmax"]),
        ([4, 8, 2], ["tanh", "sigmoid"]),
        ([4, 8, 2], ["sigmoid", "softmax"]),
    ])
    def test_rejects_other_architectures(self, sizes, acts):
        net = nn.init_network(sizes, acts, np.random.default_rng(0))
        with pytest.raises(UsageError):
            policy.logit_function(net)

    def test_wrong_width_raises_shape_error(self):
        logit = policy.logit_function(policy.make_agent(np.random.default_rng(0)).net)
        with pytest.raises(ShapeError):
            logit(np.zeros((2, 5)))

    def test_reads_the_parameters_it_was_built_from(self):
        agent = policy.make_agent(np.random.default_rng(0))
        states = np.random.default_rng(1).uniform(-STATE_BOX, STATE_BOX, size=(8, 4))
        logit = policy.logit_function(agent.net)
        before = logit(states)
        agent.net.params += 0.5
        assert np.array_equal(logit(states), before)

    def test_online_run_equals_forward_driven_run(self, monkeypatch):
        cfg = ExperimentConfig(mode="none", seed=0, training_episodes=200,
                               pretrain_episodes=100, env_max_steps=200)
        assert cfg.total_episodes() == 300
        curve, _, agent = harness.run_experiment(cfg)
        monkeypatch.setattr(policy, "logit_function", forward_logit)
        ref_curve, _, ref_agent = harness.run_experiment(cfg)
        assert np.array_equal(curve.rewards, ref_curve.rewards)
        assert np.array_equal(agent.net.params, ref_agent.net.params)
        assert agent.opt.t == 60  # one update per group of 5 episodes


class TestSelectAction:
    """Actions come from experience.run_episodes: action 1 iff g >= log((1 - u) / u)."""

    def test_zero_weights_give_uniform_probabilities(self):
        agent = zero_weight_agent()
        probs = nn.forward(agent.net, np.array([[0.1, -0.2, 0.03, 0.4]]))[0][0]
        assert probs[0] == pytest.approx(0.5, abs=1e-15)
        assert probs[1] == pytest.approx(0.5, abs=1e-15)

    def test_softmax_of_unit_logit_gap(self):
        # single linear layer from a 1-hot style state so logits are (1, 0)
        agent = policy.make_agent(np.random.default_rng(0), hidden=())
        agent.net.weights[0][:] = 0.0
        agent.net.weights[0][0, 0] = 1.0
        g = logit_of(agent, [1.0, 0.0, 0.0, 0.0])[0]
        assert g == pytest.approx(-1.0, abs=1e-15)
        assert 1.0 / (1.0 + np.exp(g)) == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_empirical_frequency_matches_probabilities(self):
        # a bias-only policy with g = -1, so p0 = sigmoid(1), in every state
        agent = policy.make_agent(np.random.default_rng(0), hidden=())
        agent.net.weights[0][:] = 0.0
        agent.net.biases[0][:] = [1.0, 0.0]
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(77).spawn(300)]
        _, actions, _ = experience.run_episodes(lambda s: logit_of(agent, s), rngs, 200)
        assert actions.size > 3000
        assert abs(np.mean(actions == 0) - 0.7310585786300049) < 0.02

    def test_deterministic_given_rng(self):
        agent = policy.make_agent(np.random.default_rng(3))

        def play():
            rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(5)]
            return experience.run_episodes(lambda s: logit_of(agent, s), rngs, 200)

        assert_same_group(play(), play())


def reference_discounted_returns(rewards, gamma):
    """The numpy-scalar recursion discounted_returns replaced, kept verbatim."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise UsageError("rewards must be nonempty")
    out = np.empty_like(r)
    acc = 0.0
    for i in range(r.size - 1, -1, -1):
        acc = r[i] + gamma * acc
        out[i] = acc
    return out


def float_discounted_returns(rewards, gamma):
    """policy.discounted_returns, the Python-float recursion return_table
    replaced, kept verbatim."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise UsageError("rewards must be nonempty")
    returns = r.tolist()
    acc = 0.0
    for i in range(len(returns) - 1, -1, -1):
        acc = returns[i] + gamma * acc
        returns[i] = acc
    return np.array(returns)


def episode_returns(n, gamma):
    """The discounted returns of an n-step episode, read off return_table."""
    return policy.return_table(n, gamma)[::-1]


class TestDiscountedReturns:
    """policy.return_table: R[k] is the return k steps before the last."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99, 1.0])
    def test_matches_numpy_scalar_reference(self, gamma):
        for n in range(1, 301):
            got = episode_returns(n, gamma)
            want = reference_discounted_returns(np.ones(n), gamma)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99, 0.999, 1.0])
    def test_matches_float_recursion_up_to_2000(self, gamma):
        table = policy.return_table(2000, gamma)
        for n in range(1, 2001):
            want = float_discounted_returns(np.ones(n), gamma).tobytes()
            assert table[n - 1::-1].tobytes() == want
            assert policy.return_table(n, gamma).tobytes() == table[:n].tobytes()

    def test_hand_recursion(self):
        assert np.allclose(episode_returns(3, 0.99), [2.9701, 1.99, 1.0], atol=1e-12)

    def test_gamma_zero_returns_rewards(self):
        assert np.array_equal(policy.return_table(5, 0.0), np.ones(5))

    def test_empty_rejected(self):
        for n in (0, -1):
            with pytest.raises(UsageError):
                policy.return_table(n, 0.99)

    @given(st.integers(1, 200), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_recursion_identity_property(self, n, gamma):
        table = policy.return_table(n, gamma)
        assert table[0] == 1.0
        for k in range(1, n):
            assert table[k] == 1.0 + gamma * table[k - 1]


def make_group(rng, lengths):
    """Random pooled rows of episodes of the given lengths, as
    experience.run_episodes returns a group."""
    n = sum(lengths)
    return (rng.uniform(-0.5, 0.5, size=(n, 4)),
            rng.integers(0, 2, size=n).astype(np.intp), list(lengths))


def step_gradient(agent, states, actions, weights):
    """The gradient policy_gradient_step hands the optimizer; the step itself
    is left out, so agent is not changed."""
    grads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "optimizer_step", lambda net, grad, state: grads.append(grad))
        policy.policy_gradient_step(agent, states, actions, weights)
    return grads[0]


class TestUpdateOnEpisodes:
    def test_constant_returns_leave_parameters_unchanged(self):
        agent = policy.make_agent(np.random.default_rng(1))
        rng = np.random.default_rng(2)
        # gamma=0 makes every return equal to the constant reward
        agent.gamma = 0.0
        before = agent.net.params.copy()
        policy.update_on_episodes(agent, *make_group(rng, [6, 4]))
        assert np.array_equal(agent.net.params, before)

    def test_empty_accumulator_rejected(self):
        agent = policy.make_agent(np.random.default_rng(1))
        with pytest.raises(UsageError):
            policy.update_on_episodes(agent, *make_group(np.random.default_rng(2), []))

    def test_empty_episode_rejected(self):
        # without the check, table[-1::-1] would hand it the whole table
        agent = policy.make_agent(np.random.default_rng(1))
        rng = np.random.default_rng(2)
        before = agent.net.params.copy()
        for lengths in ([0], [5, 0]):
            with pytest.raises(UsageError):
                policy.update_on_episodes(agent, *make_group(rng, lengths))
        assert same_bytes(agent.net.params, before) and agent.opt.t == 0

    @pytest.mark.parametrize("n_states,n_actions,lengths", [
        (9, 9, [4, 4]), (10, 9, [4, 5]), (9, 10, [4, 5]),
        (10, 10, [1]),  # one return would broadcast over every row
    ])
    def test_rows_must_match_the_lengths(self, n_states, n_actions, lengths):
        agent = policy.make_agent(np.random.default_rng(1))
        states, actions, _ = make_group(np.random.default_rng(2), [10])
        before = agent.net.params.copy()
        with pytest.raises(ShapeError):
            policy.update_on_episodes(agent, states[:n_states], actions[:n_actions], lengths)
        assert same_bytes(agent.net.params, before) and agent.opt.t == 0

    def test_mixed_lengths_match_the_reference_recursion(self):
        # a group of five episodes under a 25-step cap: lengths differ and one
        # is cut by the cap, so every episode reads a different table slice
        agent, reference = (policy.make_agent(np.random.default_rng(3)) for _ in range(2))
        for group in range(3):
            rngs = [np.random.default_rng(s)
                    for s in np.random.SeedSequence(group).spawn(5)]
            states, actions, lengths = experience.run_episodes(
                policy.logit_function(agent.net), rngs, 25)
            assert len(set(lengths)) > 1 and 25 in lengths
            assert not all(done for _, done in last_successors(states, actions, lengths))
            policy.update_on_episodes(agent, states, actions, lengths)
            returns = np.concatenate([reference_discounted_returns(np.ones(n), reference.gamma)
                                      for n in lengths])
            reference_policy_gradient_step(reference, states, actions,
                                           policy.normalize_weights(returns))
            assert same_bytes(agent.net.params, reference.net.params)
            assert agent.opt.t == reference.opt.t == group + 1
            assert same_bytes(agent.opt.m, reference.opt.m)
            assert same_bytes(agent.opt.v, reference.opt.v)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        agent = policy.make_agent(rng, hidden=(2,))
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

        analytic = step_gradient(agent, states, actions, weights)
        assert same_bytes(net.params, v0)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_single_positive_return_increases_action_probability(self):
        agent = policy.make_agent(np.random.default_rng(4), learning_rate=1e-2)
        state = CartPoleState(0.1, 0.0, -0.02, 0.0)
        # the log-odds of action 1 rise exactly when its probability does;
        # Adam's first step moves every parameter against its gradient's sign
        before = logit_of(agent, state)[0]
        policy.policy_gradient_step(
            agent, np.array([state]), np.array([1], dtype=np.intp),
            np.array([2.0])
        )
        after = logit_of(agent, state)[0]
        assert after > before

    def test_update_invariant_to_return_shift(self):
        grads = []
        for shift in (0.0, 100.0):
            agent = policy.make_agent(np.random.default_rng(6))
            rng = np.random.default_rng(7)
            states, actions, lengths = make_group(rng, [5, 8])
            returns = np.concatenate([episode_returns(n, agent.gamma) for n in lengths])
            grads.append(step_gradient(agent, states, actions,
                                       policy.normalize_weights(returns + shift)))
        assert np.abs(grads[0]).max() > 1e-3
        assert np.allclose(grads[0], grads[1], atol=1e-12)


def synthetic_batch(rng, n, dones):
    return Transitions(
        states=rng.uniform(-0.5, 0.5, size=(n, 4)),
        actions=rng.integers(0, 2, size=n).astype(np.intp),
        next_states=np.zeros((n, 4)),
        dones=np.asarray(dones[:n], dtype=bool),
    )


ONE_TERMINAL = np.array([False] * 15 + [True])
NO_TERMINAL = np.zeros(16, dtype=bool)


class TestPretrain:
    def test_zero_batches_is_noop(self):
        agent = policy.make_agent(np.random.default_rng(10))
        before = agent.net.params.copy()
        assert policy.pretrain_on_synthetic(agent, [], learning_rate=1e-3) == 0
        assert np.array_equal(agent.net.params, before)

    @pytest.mark.parametrize("dones", [NO_TERMINAL, ~NO_TERMINAL],
                             ids=["no_terminal", "all_terminal"])
    def test_batch_without_both_kinds_of_row_is_noop(self, dones):
        agent = policy.make_agent(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        before = agent.net.params.copy()
        batch = synthetic_batch(rng, 16, dones)
        assert policy.pretrain_on_synthetic(agent, [batch, batch], learning_rate=1e-3) == 0
        assert np.array_equal(agent.net.params, before)

    def test_one_terminal_row_updates_parameters(self):
        agent = policy.make_agent(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        before = agent.net.params.copy()
        batch = synthetic_batch(rng, 16, ONE_TERMINAL)
        assert policy.pretrain_on_synthetic(agent, [batch], learning_rate=1e-3) == 1
        assert not np.array_equal(agent.net.params, before)

    def test_counts_batches_with_a_terminal_row(self):
        rng = np.random.default_rng(11)
        kinds = [ONE_TERMINAL, NO_TERMINAL, ONE_TERMINAL[::-1], ~NO_TERMINAL, ONE_TERMINAL]
        batches = [synthetic_batch(rng, 16, dones) for dones in kinds]
        agent = policy.make_agent(np.random.default_rng(10))
        assert policy.pretrain_on_synthetic(agent, batches, learning_rate=1e-3) == 3

    def test_terminal_rows_weigh_against_their_actions(self):
        # one step at a tiny learning rate lowers the probability of the action
        # taken in the terminal row and raises it in the non-terminal rows
        rng = np.random.default_rng(11)
        batch = synthetic_batch(rng, 16, ONE_TERMINAL)
        agent = policy.make_agent(np.random.default_rng(10))
        chosen = np.arange(16), batch.actions
        before = nn.forward(agent.net, batch.states)[0][chosen]
        policy.pretrain_on_synthetic(agent, [batch], learning_rate=1e-3)
        after = nn.forward(agent.net, batch.states)[0][chosen]
        assert after[-1] < before[-1]
        assert np.mean(after[:-1] > before[:-1]) > 0.5

    def test_flat_batch_after_varied_still_moves_parameters(self):
        # the count is of batches with non-zero weights: a batch without a
        # terminal row is a zero gradient, but Adam's moments from the batch
        # with one still move it
        rng = np.random.default_rng(11)
        varied = synthetic_batch(rng, 16, ONE_TERMINAL)
        flat = synthetic_batch(rng, 16, NO_TERMINAL)
        agent, reference = (policy.make_agent(np.random.default_rng(10)) for _ in range(2))
        assert policy.pretrain_on_synthetic(agent, [varied, flat], learning_rate=1e-3) == 1
        policy.pretrain_on_synthetic(reference, [varied], learning_rate=1e-3)
        assert not np.array_equal(agent.net.params, reference.net.params)

    def test_agent_optimizer_state_untouched(self):
        agent = policy.make_agent(np.random.default_rng(10))
        rng = np.random.default_rng(11)
        batch = synthetic_batch(rng, 16, ONE_TERMINAL)
        policy.pretrain_on_synthetic(agent, [batch], learning_rate=1e-4)
        assert agent.opt.t == 0  # training-phase moments still fresh

    def test_batch_source_failing_partway_leaves_agent_optimizer(self):
        agent = policy.make_agent(np.random.default_rng(10))
        opt = agent.opt
        rng = np.random.default_rng(11)
        batch = synthetic_batch(rng, 16, ONE_TERMINAL)
        before = agent.net.params.copy()

        def batches():
            yield batch
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            policy.pretrain_on_synthetic(agent, batches(), learning_rate=1e-4)
        assert agent.opt is opt and opt.t == 0
        assert not np.array_equal(agent.net.params, before)  # the first batch stepped


def reference_pretrain_on_synthetic(agent, batches, learning_rate):
    """The loop the zero-weight skip replaced: a forward, a backward and an
    optimizer step on every batch."""
    local = policy.PolicyAgent(agent.net, nn.make_optimizer(agent.net, learning_rate))
    n_useful = 0
    for batch in batches:
        if not len(batch):
            continue
        weights = policy.normalize_weights(~batch.dones)
        policy.policy_gradient_step(local, batch.states, batch.actions, weights)
        n_useful += bool(weights.any())
    return n_useful, local.opt


class TestPretrainSkipsZeroWeightBatches:
    KINDS = [NO_TERMINAL, ~NO_TERMINAL, ONE_TERMINAL, NO_TERMINAL, ONE_TERMINAL[::-1],
             ~NO_TERMINAL, NO_TERMINAL, ONE_TERMINAL, NO_TERMINAL]

    def test_same_parameters_and_moments_as_stepping_every_batch(self, monkeypatch):
        # zero-weight batches come both before and after the first useful one
        rng = np.random.default_rng(12)
        batches = [synthetic_batch(rng, 16, dones) for dones in self.KINDS]
        reference = policy.make_agent(np.random.default_rng(10))
        want, want_opt = reference_pretrain_on_synthetic(reference, batches, 1e-3)
        agent = policy.make_agent(np.random.default_rng(10))
        stepped, optimizers = [], []
        monkeypatch.setattr(policy, "policy_gradient_step",
                            recording(policy.policy_gradient_step, stepped))
        monkeypatch.setattr(nn, "make_optimizer", recording(nn.make_optimizer, optimizers))
        assert policy.pretrain_on_synthetic(agent, batches, learning_rate=1e-3) == want == 3
        assert len(stepped) == 3  # no forward or backward on a zero-weight batch
        got_opt, = optimizers
        assert got_opt.t == want_opt.t == len(batches)
        assert agent.net.params.tobytes() == reference.net.params.tobytes()
        assert got_opt.m.tobytes() == want_opt.m.tobytes()
        assert got_opt.v.tobytes() == want_opt.v.tobytes()


def recording(fn, results):
    """fn, appending each call's result to results."""
    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]
    return wrapper


def reference_normalize_weights(values):
    """normalize_weights through ndarray.mean and ndarray.std."""
    v = np.asarray(values, dtype=np.float64)
    return (v - v.mean()) / (v.std() + policy.Z_EPS)


def reference_policy_gradient_step(agent, states, actions, weights):
    """policy_gradient_step with its own 2-D conversion and the loss it
    used to compute and return."""
    states = np.atleast_2d(states)
    actions = np.asarray(actions, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    n = states.shape[0]
    probs, cache = nn.forward(agent.net, states)
    chosen = nn.clamp_probabilities(probs[np.arange(n), actions])
    loss = -float((np.log(chosen) * weights).sum() / n)
    grad_out = np.zeros_like(probs)
    grad_out[np.arange(n), actions] = -weights / (n * chosen)
    grads, _ = nn.backward(agent.net, cache, grad_out, inputs=False)
    nn.optimizer_step(agent.net, grads, agent.opt)
    return loss


def sgd_step(net, grad, state):
    """A plain gradient step in place of nn.optimizer_step: the parameters
    then carry the gradient's bytes."""
    net.params -= state.learning_rate * grad


class TestMatchesReference:
    """The one-pass z-score and the loss-free step give the parent's bytes."""

    @pytest.mark.parametrize("n", range(1, 301))
    def test_normalize_weights_random(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.normal(size=n), rng.normal(1e8, 3.0, size=n),
                       rng.integers(0, 2, size=n).astype(np.float64)):
            assert same_bytes(policy.normalize_weights(values),
                              reference_normalize_weights(values))

    @pytest.mark.parametrize("value", [0.0, 1.0, 4.2, 0.1, -0.3, 1e8 + 0.1])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 300])
    def test_normalize_weights_all_equal(self, value, n):
        values = np.full(n, value)
        assert same_bytes(policy.normalize_weights(values),
                          reference_normalize_weights(values))

    def test_normalize_weights_other_inputs(self):
        for values in ([3, 1, 2], [0.1] * 5, np.arange(12).reshape(3, 4), 2.5):
            assert same_bytes(policy.normalize_weights(values),
                              reference_normalize_weights(values))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("rows", [1, 2, 64, 300])
    @pytest.mark.parametrize("scale", [1.0, 500.0], ids=["plain", "clamped"])
    def test_policy_gradient_step(self, optimizer, rows, scale, monkeypatch):
        if optimizer == "sgd":  # Adam keeps the gradient's bytes only in m and v
            monkeypatch.setattr(nn, "optimizer_step", sgd_step)
        agents = []
        for _ in range(2):
            agent = policy.make_agent(np.random.default_rng(90), learning_rate=1e-2)
            agent.net.params *= scale  # saturates the softmax at 500
            agents.append(agent)
        rng = np.random.default_rng(91 + rows)
        for _ in range(3):
            states = rng.uniform(-STATE_BOX, STATE_BOX, size=(rows, 4))
            actions = rng.integers(0, 2, size=rows)
            weights = policy.normalize_weights(rng.normal(size=rows))
            if scale > 1.0:  # the first row takes its least likely action
                probs = nn.forward(agents[0].net, states)[0]
                actions[0] = np.argmin(probs[0])
                assert probs[0, actions[0]] < nn.PROB_EPS
            assert policy.policy_gradient_step(agents[0], states, actions, weights) is None
            reference_policy_gradient_step(agents[1], states, actions, weights)
            got, want = agents[0], agents[1]
            assert same_bytes(got.net.params, want.net.params)
            assert got.opt.t == want.opt.t
            assert same_bytes(got.opt.m, want.opt.m) and same_bytes(got.opt.v, want.opt.v)

    def test_policy_gradient_step_single_state(self):
        agents = [policy.make_agent(np.random.default_rng(92)) for _ in range(2)]
        state = CartPoleState(0.1, 0.0, -0.02, 0.0)
        for agent, step in zip(agents, (policy.policy_gradient_step,
                                        reference_policy_gradient_step)):
            step(agent, state, [1], [2.0])
        assert same_bytes(agents[0].net.params, agents[1].net.params)


def test_normalize_weights_constant_is_zero():
    assert np.all(policy.normalize_weights(np.full(9, 4.2)) == 0.0)


def test_normalize_weights_zscore():
    w = policy.normalize_weights(np.array([0.0, 2.0]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-7)
