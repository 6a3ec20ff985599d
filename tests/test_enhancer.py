import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import enhancer, experience, gan, harness, nn
from egan.errors import ShapeError, UsageError

from test_nn import float64_copy, max_rel_err


def reference_moment_kl(p_batch, q_batch):
    """The two-fit KL and gradient that moment_kl replaced, kept verbatim."""

    def fit(batch):
        data = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        return data.mean(axis=0), np.maximum(data.var(axis=0), enhancer.VARIANCE_FLOOR)

    p_data = np.atleast_2d(np.asarray(p_batch, dtype=np.float64))
    p_mean, p_var = fit(p_data)
    q_mean, q_var = fit(q_batch)
    terms = (
        0.5 * np.log(q_var / p_var)
        + (p_var + (p_mean - q_mean) ** 2) / (2.0 * q_var)
        - 0.5
    )
    kl = float(terms.sum())
    n = p_data.shape[0]
    raw_var = p_data.var(axis=0)
    live = raw_var > enhancer.VARIANCE_FLOOR
    d_mean = (p_mean - q_mean) / q_var / n
    d_var = np.where(live, -0.5 / p_var + 0.5 / q_var, 0.0)
    grad = d_mean + d_var * 2.0 * (p_data - p_mean) / n
    return kl, grad


def kl(p, q):
    return enhancer.moment_kl(p, q)[0]


class TestMomentKlMatchesReference:
    def _assert_same(self, p, q):
        value, grad = enhancer.moment_kl(p, q)
        ref_value, ref_grad = reference_moment_kl(p, q)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(scale=rng.uniform(0.1, 3.0), size=(50, 5)) + rng.normal(size=5)
        q = rng.normal(scale=rng.uniform(0.1, 3.0), size=(50, 5)) + rng.normal(size=5)
        self._assert_same(p, q)

    def test_constant_column_hits_floor(self):
        rng = np.random.default_rng(11)
        p = rng.normal(size=(40, 5))
        p[:, 2] = 0.25  # floored P variance: that column gets no variance gradient
        q = rng.normal(size=(40, 5))
        q[:, 4] = -0.5  # floored Q variance
        self._assert_same(p, q)

    def test_refine_shape(self):
        rng = np.random.default_rng(12)
        p = np.tanh(rng.normal(size=(6000, 5)))
        q = np.tanh(rng.normal(loc=0.2, size=(6000, 5)))
        self._assert_same(p, q)


class TestFitGaussian:
    """The moments moment_kl fits to each batch, read back through the KL."""

    def test_two_point_batch(self):
        p = np.array([[0.0], [2.0]])  # mean 1, var 1
        assert kl(p, np.array([[2.0], [0.0], [2.0], [0.0]])) == 0.0
        assert kl(p, np.array([[-1.0], [1.0]])) == pytest.approx(0.5, abs=1e-15)

    def test_identical_rows_hit_variance_floor(self):
        row = np.array([0.3, -0.7, 1.1])
        p = np.tile(row, (5, 1))
        value, grad = enhancer.moment_kl(p, p.copy())
        assert value == 0.0
        assert np.all(grad == 0.0)
        q = np.concatenate([row - 1.0, row + 1.0]).reshape(2, 3)  # var 1 about row
        floor = enhancer.VARIANCE_FLOOR
        expected = 3 * (0.5 * np.log(1.0 / floor) + floor / 2.0 - 0.5)
        assert kl(p, q) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(40, 4))
        q = rng.normal(size=(40, 4))
        perm = rng.permutation(40)
        v1, g1 = enhancer.moment_kl(batch, q)
        v2, g2 = enhancer.moment_kl(batch[perm], q)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert np.allclose(g1[perm], g2, atol=1e-12)

    def test_single_row_rejected(self):
        two = np.zeros((2, 2))
        with pytest.raises(UsageError):
            enhancer.moment_kl(np.array([[1.0, 2.0]]), two)
        with pytest.raises(UsageError):
            enhancer.moment_kl(two, np.array([[1.0, 2.0]]))


class TestKlRegularizer:
    def test_identical_batches_zero(self):
        batch = np.random.default_rng(1).normal(size=(30, 5))
        assert kl(batch, batch.copy()) == 0.0

    def test_unit_mean_shift_five_dims(self):
        p = np.array([[0.0] * 5, [2.0] * 5])  # mean 1, var 1 per dim
        q = np.array([[-1.0] * 5, [1.0] * 5])  # mean 0, var 1 per dim
        assert kl(p, q) == pytest.approx(2.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            enhancer.moment_kl(np.zeros((3, 2)), np.ones((3, 4)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(scale=rng.uniform(0.1, 3.0), size=(12, 3)) + rng.normal(size=3)
        q = rng.normal(scale=rng.uniform(0.1, 3.0), size=(12, 3)) + rng.normal(size=3)
        assert kl(p, q) >= -1e-12

    def test_row_permutation_invariance_of_both_batches(self):
        rng = np.random.default_rng(9)
        p = rng.normal(size=(25, 4))
        q = rng.normal(size=(25, 4))
        v1 = kl(p, q)
        v2 = kl(p[rng.permutation(25)], q[rng.permutation(25)])
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        p = rng.normal(size=(10, 3))
        q = rng.normal(loc=0.5, size=(10, 3))
        _, grad = enhancer.moment_kl(p, q)
        h = 1e-5
        numeric = np.empty_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                pp = p.copy()
                pp[i, j] += h
                pm = p.copy()
                pm[i, j] -= h
                numeric[i, j] = (kl(pp, q) - kl(pm, q)) / (2 * h)
        assert max_rel_err(grad.ravel(), numeric.ravel()) < 1e-4


class TestTrainEnhancer:
    def test_beats_mean_predictor_on_holdout(self, small_encoded):
        split = int(0.8 * small_encoded.shape[0])
        train, hold = small_encoded[:split], small_encoded[split:]
        model = enhancer.make_enhancer(np.random.default_rng(5))
        enhancer.train_enhancer(model, train, 800, np.random.default_rng(6), 64)
        pred = enhancer.predict(model, hold[:, :experience.SA_DIM])
        mse = float(np.mean((pred - hold[:, experience.SA_DIM:]) ** 2))
        baseline = float(
            np.mean((hold[:, 5:] - train[:, 5:].mean(axis=0)) ** 2)
        )
        assert mse < baseline

    def test_net_maps_encoded_sa_to_next_state(self):
        model = enhancer.make_enhancer(np.random.default_rng(0), hidden=(7, 3))
        assert list(model.net.layer_sizes) == [experience.SA_DIM, 7, 3, 4] == [5, 7, 3, 4]

    def test_constant_dataset_drives_mse_to_zero(self):
        row = np.concatenate([np.full(5, 0.2), np.full(4, -0.4)])
        data = np.tile(row, (64, 1))
        model = enhancer.make_enhancer(np.random.default_rng(7), hidden=(8,))
        losses = enhancer.train_enhancer(model, data, 3000, np.random.default_rng(8), 64)
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self):
        model = enhancer.make_enhancer(np.random.default_rng(0))
        with pytest.raises(UsageError):
            enhancer.train_enhancer(model, np.empty((0, 9)), 5,
                                    np.random.default_rng(0), 64)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        model = enhancer.make_enhancer(rng, hidden=(4,))
        model.net = float64_copy(model.net)
        x1 = rng.normal(size=(6, 5))
        x2 = rng.normal(size=(6, 4))

        def loss_at(vec):
            model.net.params[...] = vec
            pred, _ = nn.forward(model.net, x1)
            return float(np.mean((pred - x2) ** 2))

        v0 = model.net.params.copy()
        h = 1e-5
        numeric = np.empty_like(v0)
        for i in range(v0.size):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            numeric[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
        model.net.params[...] = v0

        pred, cache = nn.forward(model.net, x1)
        diff = pred - x2
        analytic = nn.backward(model.net, cache, 2.0 * diff / diff.size)[0]
        assert max_rel_err(analytic, numeric) < 1e-4


class TestRefine:
    def _trained_pair(self, small_encoded, seed=60):
        pair = gan.make_gan(np.random.default_rng(seed), noise_dim=8,
                            learning_rate=1e-4)
        gan.train_gan(pair, small_encoded, 300, np.random.default_rng(seed + 1))
        model = enhancer.make_enhancer(np.random.default_rng(seed + 2), hidden=(16,))
        enhancer.train_enhancer(model, small_encoded, 300,
                                np.random.default_rng(seed + 3), 64)
        return pair, model

    def test_zero_iterations_noop(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        before = pair.g.params.copy()
        assert enhancer.egan_refine(pair, model, np.random.default_rng(0), k=0) == []
        assert np.array_equal(pair.g.params, before)

    def test_refinement_reduces_kl(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        history = enhancer.egan_refine(pair, model, np.random.default_rng(71), k=12,
                                       n_samples=2000)
        assert history[-1] < history[0]

    def test_discriminator_untouched(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        before = pair.d.params.copy()
        enhancer.egan_refine(pair, model, np.random.default_rng(72), k=3, n_samples=200)
        assert np.array_equal(pair.d.params, before)

    def test_kl_penalty_closure_shapes(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        g_out = gan.generate_encoded(pair, 50, np.random.default_rng(73))
        penalty, grad = enhancer.kl_penalty(model)(g_out)
        assert penalty >= -1e-12
        assert grad.shape == g_out.shape
        assert np.all(grad[:, :5] == 0.0)  # no gradient into the (s, a) half


def test_kl_history_csv(tmp_path):
    path = tmp_path / "kl.csv"
    harness.write_csv(path, "iter,kl", range(1, 3), [np.float64(2.5), np.float32(1.25)])
    assert path.read_text().splitlines() == ["iter,kl", "1,2.5", "2,1.25"]
