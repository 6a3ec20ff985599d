import warnings
from dataclasses import replace

import numpy as np
import pytest

from egan import enhancer, experience, gan, harness, nn
from egan.errors import UsageError

from test_nn import F32_TOL, float64_copy, max_rel_err, zero_rate_optimizer


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
        pair.d_opt = zero_rate_optimizer(pair.d)
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
        batches = nn.minibatches(small_encoded, 64, np.random.default_rng(62))
        for _ in range(20):
            real = next(batches)
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
        loss32 = enhancer.train_enhancer(m32, small_encoded, 1, rng32, 64)
        loss64 = enhancer.train_enhancer(m64, small_encoded, 1, rng64, 64)
        assert_float32_close(loss32, loss64)
        self._assert_moved_alike(m32.net, m64.net, before)
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_egan_refine_round(self, pairs):
        (p32, p64), before = pairs, pairs[1].g.params.copy()
        m32 = enhancer.make_enhancer(np.random.default_rng(105))
        m64 = enhancer.EnhancerModel(float64_copy(m32.net), float64_opt(m32.opt))
        rng32, rng64 = np.random.default_rng(106), np.random.default_rng(106)
        kl32 = enhancer.egan_refine(p32, m32, rng32, k=1, n_samples=512)
        kl64 = enhancer.egan_refine(p64, m64, rng64, k=1, n_samples=512)
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


def per_step_discriminator_step(pair, real_batch, rng):
    """The D step as it was before train_gan reused its arrays: the
    allocating nn.forward/nn.backward/nn.optimizer_step composition."""
    real = np.atleast_2d(np.asarray(real_batch, dtype=pair.d.params.dtype))
    n = real.shape[0]
    if n < 2:
        raise UsageError(f"discriminator batch must have >= 2 rows, got {n}")
    z = gan.sample_noise(rng, n, pair.noise_dim)
    fake, _ = nn.forward(pair.g, z)
    d_out, cache = nn.forward(pair.d, np.concatenate([real, fake]))
    p = nn.clamp_probabilities(d_out)
    p_real, p_fake = p[:n], p[n:]
    loss = -float(np.log(p_real).sum() / n + np.log(1.0 - p_fake).sum() / n)
    grad = np.empty_like(p)
    grad[:n] = -1.0 / (n * p_real)
    grad[n:] = 1.0 / (n * (1.0 - p_fake))
    grads, _ = nn.backward(pair.d, cache, grad, inputs=False)
    nn.optimizer_step(pair.d, grads, pair.d_opt)
    return loss


def per_step_generator_step(pair, rng):
    """The G step as it was before train_gan reused its arrays."""
    n = pair.batch_size
    z = gan.sample_noise(rng, n, pair.noise_dim)
    g_out, cache_g = nn.forward(pair.g, z)
    d_out, cache_d = nn.forward(pair.d, g_out)
    p = nn.clamp_probabilities(d_out)
    loss = -float(np.log(p).sum() / n)
    _, grad_g_out = nn.backward(pair.d, cache_d, -1.0 / (n * p), params=False)
    grads_g, _ = nn.backward(pair.g, cache_g, grad_g_out, inputs=False)
    nn.optimizer_step(pair.g, grads_g, pair.g_opt)
    return loss


def per_step_train_gan(pair, encoded_real, n_steps, rng):
    data = np.atleast_2d(np.asarray(encoded_real, dtype=pair.d.params.dtype))
    batches = nn.minibatches(data, pair.batch_size, rng)
    return [(per_step_discriminator_step(pair, next(batches), rng),
             per_step_generator_step(pair, rng)) for _ in range(n_steps)]


def assert_same_pair(got, want):
    for a, b in ((got.g, want.g), (got.d, want.d)):
        assert a.params.dtype == b.params.dtype
        assert a.params.tobytes() == b.params.tobytes()
    for a, b in ((got.g_opt, want.g_opt), (got.d_opt, want.d_opt)):
        assert a.t == b.t
        assert a.m.tobytes() == b.m.tobytes() and a.v.tobytes() == b.v.tobytes()


def real_rows(width, rows, seed):
    return np.tanh(np.random.default_rng(seed).normal(size=(rows, width)))


# (pair factory, real rows): the default nets at three seeds, a buffer under
# 48 rows (OpenBLAS's small-matrix path; D then runs 78 rows, G 64), the
# pair widened to float64, and tiny_gan's one-hidden-layer nets at a batch
# that is not a power of two, where scaling by 1 / n is not exact
TRAIN_GAN_CASES = {
    "default-0": (lambda: gan.make_gan(np.random.default_rng(0)), None),
    "default-1": (lambda: gan.make_gan(np.random.default_rng(1)), None),
    "default-2": (lambda: gan.make_gan(np.random.default_rng(2)), None),
    "39-rows": (lambda: gan.make_gan(np.random.default_rng(3)), 39),
    "float64": (lambda: float64_pair(gan.make_gan(np.random.default_rng(4),
                                                  learning_rate=1e-3)), None),
    "tiny": (lambda: tiny_gan(seed=5, batch_size=12), None),
}


class TestTrainGanMatchesPerStepReference:
    """train_gan, each round in arrays made once per call, gives the bytes of
    the allocating per-step composition: the same losses, the same G, D and
    Adam moments, and the same rng state after 200 rounds."""

    @pytest.mark.parametrize("case", sorted(TRAIN_GAN_CASES))
    def test_200_rounds_bit_identical(self, case, small_encoded):
        make, rows = TRAIN_GAN_CASES[case]
        got, want = make(), make()
        width = got.d.layer_sizes[0]
        data = (small_encoded[:rows] if width == small_encoded.shape[1]
                else real_rows(width, 300, 6))
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        losses = gan.train_gan(got, data, 200, rng)
        assert losses == per_step_train_gan(want, data, 200, ref_rng)
        assert_same_pair(got, want)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("case", sorted(TRAIN_GAN_CASES))
    def test_public_steps_bit_identical(self, case, small_encoded):
        # discriminator_step and generator_step run the same code on arrays
        # made for one call
        make, _ = TRAIN_GAN_CASES[case]
        got, want = make(), make()
        data = real_rows(got.d.layer_sizes[0], 64, 8)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for real in (data, data[:39]):
            assert (gan.discriminator_step(got, real, rng)
                    == per_step_discriminator_step(want, real, ref_rng))
            assert gan.generator_step(got, rng) == per_step_generator_step(want, ref_rng)
        assert_same_pair(got, want)
        assert rng.random() == ref_rng.random()

    def test_one_row_buffer_raises_before_any_parameter_moves(self, small_encoded):
        pair, untouched = gan.make_gan(np.random.default_rng(10)), gan.make_gan(
            np.random.default_rng(10))
        with pytest.raises(UsageError):
            gan.train_gan(pair, small_encoded[:1], 5, np.random.default_rng(11))
        assert_same_pair(pair, untouched)


class FailingRng:
    """A generator whose noise draws raise after `draws` of them: a failure
    inside train_gan's round loop."""

    def __init__(self, seed, draws):
        self.rng, self.draws = np.random.default_rng(seed), draws

    def permutation(self, n):
        return self.rng.permutation(n)

    def uniform(self, *args, **kwargs):
        if self.draws == 0:
            raise RuntimeError("noise draw failed")
        self.draws -= 1
        return self.rng.uniform(*args, **kwargs)


def saturated_pair():
    """tiny_gan with a D so large that exp(-z) of its sigmoid overflows."""
    pair = tiny_gan(seed=12)
    for w in pair.d.weights:
        w *= 1e4
    return pair


class TestErrstate:
    """train_gan silences the sigmoid's overflow once, around its round loop,
    and leaves the caller's error state as it found it."""

    @pytest.fixture
    def data(self):
        return real_rows(4, 40, 13)

    def test_restored_after_return(self, data):
        with np.errstate(over="raise", under="warn"):
            before = np.geterr()
            gan.train_gan(tiny_gan(), data, 5, np.random.default_rng(14))
            assert np.geterr() == before

    def test_restored_after_raise(self, data):
        with np.errstate(over="raise", under="warn"):
            before = np.geterr()
            with pytest.raises(RuntimeError, match="noise draw failed"):
                gan.train_gan(tiny_gan(), data, 5, FailingRng(15, draws=3))
            assert np.geterr() == before

    def test_saturated_discriminator_overflows(self, data):
        # the case below does reach the overflow the errstate silences
        pair = saturated_pair()
        post = nn.layer_buffers(pair.d, data.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                nn.forward_into(pair.d, nn.input_batch(pair.d, data), post)

    def test_saturated_discriminator_warns_nothing(self, data):
        pair = saturated_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gan.train_gan(pair, data, 5, np.random.default_rng(16))
            gan.discriminator_step(pair, data[:8], np.random.default_rng(17))
            gan.generator_step(pair, np.random.default_rng(18))
        assert np.all(np.isfinite(pair.d.params)) and np.all(np.isfinite(pair.g.params))


class TestGenerate:
    def test_zero_count_rejected(self):
        pair = tiny_gan(data_dim=experience.ENCODED_DIM)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(UsageError):
            gan.generate_encoded(pair, 0, rng)
        assert rng.bit_generator.state == state  # no draw consumed

    def test_rows_are_the_generator_on_fresh_noise(self):
        pair = gan.make_gan(np.random.default_rng(0), noise_dim=4)
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        got = gan.generate_encoded(pair, 37, rng)
        want, _ = nn.forward(pair.g, gan.sample_noise(ref_rng, 37, pair.noise_dim))
        assert got.dtype == gan.DTYPE and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

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
        assert fake.dones.dtype == bool
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
