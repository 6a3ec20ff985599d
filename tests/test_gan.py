import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import experience, gan, nn
from egan.errors import UsageError

from test_nn import max_rel_err


def tiny_gan(seed=0, **kwargs):
    defaults = dict(noise_dim=3, data_dim=4, g_hidden=(6,), d_hidden=(6,),
                    learning_rate=1e-3, batch_size=8)
    defaults.update(kwargs)
    return gan.make_gan(np.random.default_rng(seed), **defaults)


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


class TestGanValue:
    def test_equilibrium_value(self):
        assert gan.gan_value(0.5, 0.5) == pytest.approx(-1.3862943611198906, abs=1e-12)

    def test_perfect_discriminator_limit(self):
        assert gan.gan_value(1.0, 0.0) == pytest.approx(0.0, abs=1e-5)

    def test_direct_evaluation(self):
        assert gan.gan_value(0.8, 0.3) == pytest.approx(-0.5798184952529422, abs=1e-12)

    def test_accepts_batches(self):
        v = gan.gan_value(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert v == pytest.approx(2 * np.log(0.5), abs=1e-12)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_value_maximized_at_half(self, p):
        # V at d_real = d_fake = p is ln p + ln(1-p), peaking at p = 0.5
        assert gan.gan_value(p, p) <= gan.gan_value(0.5, 0.5) + 1e-12


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
        pair = tiny_gan(seed=7)
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
    @pytest.mark.parametrize("mode", ["paper_minimax", "non_saturating"])
    def test_step_raises_mean_discriminator_score(self, mode):
        pair = tiny_gan(seed=11, learning_rate=5e-3)
        rng_probe = np.random.default_rng(20)
        z = gan.sample_noise(rng_probe, 256, 3)

        def mean_score():
            out, _ = nn.forward(pair.g, z)
            d, _ = nn.forward(pair.d, out)
            return float(d.mean())

        before = mean_score()
        gan.generator_step(pair, np.random.default_rng(21), mode=mode)
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

    def test_bad_mode_rejected(self):
        with pytest.raises(UsageError):
            gan.generator_step(tiny_gan(), np.random.default_rng(0), mode="wgan")

    @pytest.mark.parametrize("mode", ["paper_minimax", "non_saturating"])
    def test_gradients_through_d_match_finite_differences(self, mode):
        pair = tiny_gan(seed=17)
        z = gan.sample_noise(np.random.default_rng(18), 5, 3)
        n = 5

        def loss_at(vec):
            pair.g.params[...] = vec
            out, _ = nn.forward(pair.g, z)
            d, _ = nn.forward(pair.d, out)
            if mode == "paper_minimax":
                return float(np.mean(np.log(1 - d)))
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
        if mode == "paper_minimax":
            grad_d = -1.0 / (n * (1 - d_out))
        else:
            grad_d = -1.0 / (n * d_out)
        _, grad_g_out = nn.backward(pair.d, cache_d, grad_d)
        analytic = nn.backward(pair.g, cache_g, grad_g_out)[0]
        assert max_rel_err(analytic, numeric) < 1e-4


class TestTrainGan:
    def test_history_length(self, small_encoded):
        pair = tiny_gan(data_dim=10, noise_dim=4)
        hist = gan.train_gan(pair, small_encoded, 25, np.random.default_rng(1))
        assert len(hist) == 25

    def test_empty_data_rejected(self):
        pair = tiny_gan(data_dim=10)
        with pytest.raises(UsageError):
            gan.train_gan(pair, np.empty((0, 10)), 5, np.random.default_rng(0))

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
        fake = gan.generate(pair, 1000, np.random.default_rng(43), stats)
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
        fake = gan.generate(pair, 4000, np.random.default_rng(53), stats)
        real_freq = small_buffer.actions.mean()
        fake_freq = fake.actions.mean()
        assert abs(real_freq - fake_freq) <= 0.10


class TestGenerate:
    def test_zero_count_empty(self, small_buffer):
        pair = tiny_gan(data_dim=10)
        rng = np.random.default_rng(0)
        stats = experience.compute_stats(small_buffer)
        fake = gan.generate(pair, 0, rng, stats)
        assert len(fake) == 0
        assert fake.states.shape == fake.next_states.shape == (0, 4)
        # no draw consumed: the next generation matches a fresh stream
        after = gan.generate(pair, 3, rng, stats)
        fresh = gan.generate(pair, 3, np.random.default_rng(0), stats)
        assert np.array_equal(after.states, fresh.states)

    def test_output_count(self, small_buffer):
        pair = gan.make_gan(np.random.default_rng(0), noise_dim=4)
        stats = experience.compute_stats(small_buffer)
        fake = gan.generate(pair, 37, np.random.default_rng(1), stats)
        assert len(fake) == 37

    def test_outputs_decode_to_quadruplets(self, small_buffer):
        pair = gan.make_gan(np.random.default_rng(0), noise_dim=4)
        stats = experience.compute_stats(small_buffer)
        fake = gan.generate(pair, 10, np.random.default_rng(1), stats)
        assert set(fake.actions.tolist()) <= {0, 1}
        assert set(fake.rewards.tolist()) <= {0.0, 1.0}
        assert np.all(np.isfinite(fake.states))

    def test_generator_outputs_in_tanh_range(self):
        pair = gan.make_gan(np.random.default_rng(9), noise_dim=6)
        out = gan.generate_encoded(pair, 500, np.random.default_rng(10))
        assert np.all(out > -1.0) and np.all(out < 1.0)


def test_loss_history_csv(tmp_path):
    path = tmp_path / "losses.csv"
    gan.save_loss_history([(1.5, 0.5), (1.25, 0.75)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,d_loss,g_loss"
    assert lines[1] == "0,1.5,0.5"
