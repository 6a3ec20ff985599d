from dataclasses import replace

import numpy as np
import pytest

from egan import enhancer, experience, gan, harness, nn
from egan.errors import UsageError

from test_nn import F32_TOL, float64_copy, max_rel_err


def tiny_gan(seed=0, **kwargs):
    defaults = dict(noise_dim=3, data_dim=4, g_hidden=(6,), d_hidden=(6,),
                    learning_rate=1e-3, batch_size=8)
    defaults.update(kwargs)
    return gan.make_gan(np.random.default_rng(seed), **defaults)


def float64_opt(opt):
    return replace(opt, m=opt.m.astype(np.float64), v=opt.v.astype(np.float64))


def float64_pair(pair):
    """pair with both nets and their Adam moments widened to float64."""
    return replace(pair, g=float64_copy(pair.g), d=float64_copy(pair.d),
                   g_opt=float64_opt(pair.g_opt), d_opt=float64_opt(pair.d_opt))


def generate(pair, n, rng, stats):
    """n generated rows decoded into Transitions, as the synthetic phase does."""
    return experience.decode_batch(gan.generate_encoded(pair, n, rng), stats)


class TestNoise:
    def test_entries_in_open_interval(self):
        z = gan.sample_noise(np.random.default_rng(0), 1000, 16)
        assert z.min() > -1.0 and z.max() < 1.0

    def test_deterministic(self):
        z1 = gan.sample_noise(np.random.default_rng(4), 32, 16)
        z2 = gan.sample_noise(np.random.default_rng(4), 32, 16)
        assert np.array_equal(z1, z2)

    def test_mean_near_zero(self):
        z = gan.sample_noise(np.random.default_rng(1), 10_000, 1)
        assert abs(z.mean()) < 0.02

    def test_rejects_empty_batch(self):
        with pytest.raises(UsageError):
            gan.sample_noise(np.random.default_rng(0), 0, 16)


def reference_discriminator_step(pair, real_batch, rng):
    """The two-pass D step the stacked one replaced: D forward and backward on
    the real rows, then on the fake rows, and the two gradients summed."""
    real = np.atleast_2d(np.asarray(real_batch, dtype=np.float64))
    n = real.shape[0]
    z = gan.sample_noise(rng, n, pair.noise_dim)
    fake, _ = nn.forward(pair.g, z)
    d_real, cache_real = nn.forward(pair.d, real)
    d_fake, cache_fake = nn.forward(pair.d, fake)
    p_real = np.clip(d_real, nn.PROB_EPS, 1.0 - nn.PROB_EPS)
    p_fake = np.clip(d_fake, nn.PROB_EPS, 1.0 - nn.PROB_EPS)
    loss = -float(np.mean(np.log(p_real)) + np.mean(np.log(1.0 - p_fake)))
    grads_r, _ = nn.backward(pair.d, cache_real, -1.0 / (n * p_real))
    grads_f, _ = nn.backward(pair.d, cache_fake, 1.0 / (n * (1.0 - p_fake)))
    nn.optimizer_step(pair.d, grads_r + grads_f, pair.d_opt)
    return loss


class TestDiscriminatorStep:
    def test_batch_of_one_rejected(self):
        pair = tiny_gan()
        with pytest.raises(UsageError):
            gan.discriminator_step(pair, np.zeros((1, 4)), np.random.default_rng(0))

    def test_zero_learning_rate_leaves_d_unchanged(self):
        pair = tiny_gan()
        pair.d_opt = nn.OptimizerState(kind="sgd", learning_rate=0.0)
        before = pair.d.params.copy()
        gan.discriminator_step(pair, np.random.default_rng(1).normal(size=(8, 4)),
                               np.random.default_rng(2))
        assert np.array_equal(pair.d.params, before)

    def test_step_never_touches_generator(self):
        pair = tiny_gan()
        before = pair.g.params.copy()
        gan.discriminator_step(pair, np.random.default_rng(1).normal(size=(8, 4)),
                               np.random.default_rng(2))
        assert np.array_equal(pair.g.params, before)

    def test_stacked_pass_matches_two_pass_reference(self, small_encoded):
        # the single pass over real || fake only reorders float sums
        stacked = float64_pair(gan.make_gan(np.random.default_rng(60)))
        two_pass = float64_pair(gan.make_gan(np.random.default_rng(60)))
        rng_a, rng_b = np.random.default_rng(61), np.random.default_rng(61)
        batches = nn.Minibatcher(small_encoded, 64, np.random.default_rng(62))
        for _ in range(20):
            real = batches.next()
            loss_a = gan.discriminator_step(stacked, real, rng_a)
            loss_b = reference_discriminator_step(two_pass, real, rng_b)
            assert loss_a == pytest.approx(loss_b, rel=1e-12, abs=0.0)
        assert np.allclose(stacked.d.params, two_pass.d.params, rtol=1e-12, atol=0.0)
        assert np.array_equal(stacked.g.params, two_pass.g.params)
        assert rng_a.random() == rng_b.random()

    def test_learns_separable_toy_data(self):
        # real data in a tight cluster far from the frozen generator's outputs
        pair = tiny_gan(seed=3, data_dim=2, noise_dim=2, learning_rate=5e-3)
        rng = np.random.default_rng(5)
        real = rng.normal(loc=5.0, scale=0.3, size=(600, 2))
        for i in range(600):
            gan.discriminator_step(pair, real[8 * (i % 64) : 8 * (i % 64) + 8], rng)
        d_real, _ = nn.forward(pair.d, real[:200])
        fake, _ = nn.forward(pair.g, gan.sample_noise(rng, 200, 2))
        d_fake, _ = nn.forward(pair.d, fake)
        accuracy = 0.5 * ((d_real > 0.5).mean() + (d_fake < 0.5).mean())
        assert accuracy > 0.9

    def test_gradients_match_finite_differences(self):
        pair = float64_pair(tiny_gan(seed=7))
        rng = np.random.default_rng(8)
        real = rng.normal(size=(6, 4))
        z = gan.sample_noise(rng, 6, 3)
        fake, _ = nn.forward(pair.g, z)

        def loss_at(vec):
            pair.d.params[...] = vec
            d_real, _ = nn.forward(pair.d, real)
            d_fake, _ = nn.forward(pair.d, fake)
            return -float(np.mean(np.log(d_real)) + np.mean(np.log(1 - d_fake)))

        v0 = pair.d.params.copy()
        h = 1e-5
        numeric = np.empty_like(v0)
        for i in range(v0.size):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            numeric[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
        pair.d.params[...] = v0

        d_real, cache_r = nn.forward(pair.d, real)
        d_fake, cache_f = nn.forward(pair.d, fake)
        n = real.shape[0]
        g_r, _ = nn.backward(pair.d, cache_r, -1.0 / (n * d_real))
        g_f, _ = nn.backward(pair.d, cache_f, 1.0 / (n * (1 - d_fake)))
        analytic = g_r + g_f
        assert max_rel_err(analytic, numeric) < 1e-4


class TestGeneratorStep:
    def test_step_raises_mean_discriminator_score(self):
        pair = tiny_gan(seed=11, learning_rate=5e-3)
        rng_probe = np.random.default_rng(20)
        z = gan.sample_noise(rng_probe, 256, 3)

        def mean_score():
            out, _ = nn.forward(pair.g, z)
            d, _ = nn.forward(pair.d, out)
            return float(d.mean())

        before = mean_score()
        gan.generator_step(pair, np.random.default_rng(21))
        assert mean_score() > before

    def test_step_never_touches_discriminator(self):
        pair = tiny_gan()
        before = pair.d.params.copy()
        gan.generator_step(pair, np.random.default_rng(2))
        assert np.array_equal(pair.d.params, before)

    def test_constant_discriminator_gives_zero_gradient(self):
        pair = tiny_gan(seed=13)
        for w in pair.d.weights:
            w[:] = 0.0  # D outputs sigmoid(0) = 0.5 for every input
        before = pair.g.params.copy()
        gan.generator_step(pair, np.random.default_rng(3))
        assert np.array_equal(pair.g.params, before)

    def test_gradients_through_d_match_finite_differences(self):
        pair = float64_pair(tiny_gan(seed=17))
        z = gan.sample_noise(np.random.default_rng(18), 5, 3)
        n = 5

        def loss_at(vec):
            pair.g.params[...] = vec
            out, _ = nn.forward(pair.g, z)
            d, _ = nn.forward(pair.d, out)
            return -float(np.mean(np.log(d)))

        v0 = pair.g.params.copy()
        h = 1e-5
        numeric = np.empty_like(v0)
        for i in range(v0.size):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            numeric[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
        pair.g.params[...] = v0

        g_out, cache_g = nn.forward(pair.g, z)
        d_out, cache_d = nn.forward(pair.d, g_out)
        _, grad_g_out = nn.backward(pair.d, cache_d, -1.0 / (n * d_out))
        analytic = nn.backward(pair.g, cache_g, grad_g_out)[0]
        assert max_rel_err(analytic, numeric) < 1e-4


def assert_float32_close(got, want):
    """got, computed in float32, within F32_TOL of want (float64) at want's scale."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want)
    assert np.abs(got - want).max() <= F32_TOL * np.abs(want).max()


class TestFloat32MatchesFloat64:
    """One step of each float32 trainer agrees with the same step on float64
    copies of its models, within float32 rounding, and draws the same rng
    values.  The learning rate is 1e-3, so each step moves the parameters by
    about 100x the tolerance and a wrong update shows."""

    @pytest.fixture
    def pairs(self):
        pair = gan.make_gan(np.random.default_rng(100), learning_rate=1e-3)
        assert pair.g.params.dtype == pair.d.params.dtype == np.float32
        return pair, float64_pair(pair)

    @staticmethod
    def _assert_moved_alike(net32, net64, before):
        assert net32.params.dtype == np.float32
        assert np.abs(net64.params - before).max() > 100 * F32_TOL * np.abs(before).max()
        assert_float32_close(net32.params, net64.params)

    def test_discriminator_step(self, pairs, small_encoded):
        (p32, p64), before = pairs, pairs[1].d.params.copy()
        rng32, rng64 = np.random.default_rng(101), np.random.default_rng(101)
        loss32 = gan.discriminator_step(p32, small_encoded[:64], rng32)
        loss64 = gan.discriminator_step(p64, small_encoded[:64], rng64)
        assert_float32_close(loss32, loss64)
        self._assert_moved_alike(p32.d, p64.d, before)
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_generator_step(self, pairs):
        (p32, p64), before = pairs, pairs[1].g.params.copy()
        rng32, rng64 = np.random.default_rng(102), np.random.default_rng(102)
        assert_float32_close(gan.generator_step(p32, rng32), gan.generator_step(p64, rng64))
        self._assert_moved_alike(p32.g, p64.g, before)
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_train_enhancer_step(self, small_encoded):
        m32 = enhancer.make_enhancer(np.random.default_rng(103))
        m64 = enhancer.EnhancerModel(float64_copy(m32.net), float64_opt(m32.opt))
        before = m64.net.params.copy()
        rng32, rng64 = np.random.default_rng(104), np.random.default_rng(104)
        loss32 = enhancer.train_enhancer(m32, small_encoded, 1, rng32)
        loss64 = enhancer.train_enhancer(m64, small_encoded, 1, rng64)
        assert_float32_close(loss32, loss64)
        self._assert_moved_alike(m32.net, m64.net, before)
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_egan_refine_round(self, pairs):
        (p32, p64), before = pairs, pairs[1].g.params.copy()
        m32 = enhancer.make_enhancer(np.random.default_rng(105))
        m64 = enhancer.EnhancerModel(float64_copy(m32.net), float64_opt(m32.opt))
        rng32, rng64 = np.random.default_rng(106), np.random.default_rng(106)
        kl32 = enhancer.egan_refine(p32, m32, 1, 1.0, rng32, n_samples=512)
        kl64 = enhancer.egan_refine(p64, m64, 1, 1.0, rng64, n_samples=512)
        assert_float32_close(kl32, kl64)
        self._assert_moved_alike(p32.g, p64.g, before)
        assert rng32.bit_generator.state == rng64.bit_generator.state


class TestTrainGan:
    def test_history_length(self, small_encoded):
        pair = tiny_gan(data_dim=experience.ENCODED_DIM, noise_dim=4)
        hist = gan.train_gan(pair, small_encoded, 25, np.random.default_rng(1))
        assert len(hist) == 25

    def test_empty_data_rejected(self):
        pair = tiny_gan(data_dim=experience.ENCODED_DIM)
        with pytest.raises(UsageError):
            gan.train_gan(pair, np.empty((0, experience.ENCODED_DIM)), 5,
                          np.random.default_rng(0))

    def test_deterministic(self, small_encoded):
        results = []
        for _ in range(2):
            pair = gan.make_gan(np.random.default_rng(31), noise_dim=8,
                                learning_rate=1e-4)
            gan.train_gan(pair, small_encoded, 100, np.random.default_rng(32))
            results.append(pair.g.params.copy())
        assert np.array_equal(results[0], results[1])

    def test_generated_states_inside_expanded_box(self, small_buffer, small_encoded):
        stats = experience.compute_stats(small_buffer)
        pair = gan.make_gan(np.random.default_rng(41), noise_dim=16)
        gan.train_gan(pair, small_encoded, 2000, np.random.default_rng(42))
        fake = generate(pair, 1000, np.random.default_rng(43), stats)
        lo, hi = stats.state_min, stats.state_max
        margin = 0.05 * (hi - lo)  # 10% total box expansion
        inside = np.ones(len(fake), dtype=bool)
        for s in (fake.states, fake.next_states):
            inside &= np.all((s >= lo - margin) & (s <= hi + margin), axis=1)
        assert inside.mean() >= 0.95

    def test_action_frequency_matches_buffer(self, small_buffer, small_encoded):
        stats = experience.compute_stats(small_buffer)
        pair = gan.make_gan(np.random.default_rng(51), noise_dim=16)
        gan.train_gan(pair, small_encoded, 2000, np.random.default_rng(52))
        fake = generate(pair, 4000, np.random.default_rng(53), stats)
        real_freq = small_buffer.actions.mean()
        fake_freq = fake.actions.mean()
        assert abs(real_freq - fake_freq) <= 0.10


class TestGenerate:
    def test_zero_count_empty(self, small_buffer):
        pair = tiny_gan(data_dim=experience.ENCODED_DIM)
        rng = np.random.default_rng(0)
        stats = experience.compute_stats(small_buffer)
        fake = generate(pair, 0, rng, stats)
        assert len(fake) == 0
        assert fake.states.shape == fake.next_states.shape == (0, 4)
        # no draw consumed: the next generation matches a fresh stream
        after = generate(pair, 3, rng, stats)
        fresh = generate(pair, 3, np.random.default_rng(0), stats)
        assert np.array_equal(after.states, fresh.states)

    def test_output_count(self, small_buffer):
        pair = gan.make_gan(np.random.default_rng(0), noise_dim=4)
        stats = experience.compute_stats(small_buffer)
        fake = generate(pair, 37, np.random.default_rng(1), stats)
        assert len(fake) == 37

    def test_outputs_decode_to_quadruplets(self, small_buffer):
        pair = gan.make_gan(np.random.default_rng(0), noise_dim=4)
        stats = experience.compute_stats(small_buffer)
        fake = generate(pair, 10, np.random.default_rng(1), stats)
        assert set(fake.actions.tolist()) <= {0, 1}
        assert set(fake.rewards.tolist()) == {1.0}
        assert np.all(np.isfinite(fake.states))

    def test_generator_outputs_in_tanh_range(self):
        pair = gan.make_gan(np.random.default_rng(9), noise_dim=6)
        out = gan.generate_encoded(pair, 500, np.random.default_rng(10))
        assert np.all(out > -1.0) and np.all(out < 1.0)


def test_loss_history_csv(tmp_path):
    path = tmp_path / "losses.csv"
    harness.write_csv(path, "step,d_loss,g_loss", range(2), [1.5, 1.25], (0.5, 0.75))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,d_loss,g_loss"
    assert lines[1] == "0,1.5,0.5"
