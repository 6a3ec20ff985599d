import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import enhancer, experience, gan, nn
from egan.config import ExperimentConfig
from egan.errors import ShapeError, UsageError

from test_nn import max_rel_err


class TestFitGaussian:
    def test_two_point_batch(self):
        g = enhancer.fit_gaussian(np.array([[0.0], [2.0]]))
        assert g.mean[0] == pytest.approx(1.0, abs=1e-15)
        assert g.var[0] == pytest.approx(1.0, abs=1e-15)

    def test_identical_rows_hit_variance_floor(self):
        row = np.array([0.3, -0.7, 1.1])
        g = enhancer.fit_gaussian(np.tile(row, (5, 1)))
        assert np.allclose(g.mean, row, atol=1e-15)
        assert np.all(g.var == enhancer.VARIANCE_FLOOR)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(40, 4))
        g1 = enhancer.fit_gaussian(batch)
        g2 = enhancer.fit_gaussian(batch[rng.permutation(40)])
        assert np.allclose(g1.mean, g2.mean, atol=1e-12)
        assert np.allclose(g1.var, g2.var, atol=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(UsageError):
            enhancer.fit_gaussian(np.array([[1.0, 2.0]]))


class TestKlRegularizer:
    def test_identical_batches_zero(self):
        batch = np.random.default_rng(1).normal(size=(30, 5))
        assert enhancer.kl_regularizer(batch, batch.copy()) == 0.0

    def test_unit_mean_shift_five_dims(self):
        p = np.array([[0.0] * 5, [2.0] * 5])  # mean 1, var 1 per dim
        q = np.array([[-1.0] * 5, [1.0] * 5])  # mean 0, var 1 per dim
        assert enhancer.kl_regularizer(p, q) == pytest.approx(2.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            enhancer.kl_regularizer(np.zeros((3, 2)), np.ones((3, 4)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(scale=rng.uniform(0.1, 3.0), size=(12, 3)) + rng.normal(size=3)
        q = rng.normal(scale=rng.uniform(0.1, 3.0), size=(12, 3)) + rng.normal(size=3)
        assert enhancer.kl_regularizer(p, q) >= -1e-12

    def test_row_permutation_invariance_of_both_batches(self):
        rng = np.random.default_rng(9)
        p = rng.normal(size=(25, 4))
        q = rng.normal(size=(25, 4))
        v1 = enhancer.kl_regularizer(p, q)
        v2 = enhancer.kl_regularizer(p[rng.permutation(25)], q[rng.permutation(25)])
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        p = rng.normal(size=(10, 3))
        q = rng.normal(loc=0.5, size=(10, 3))
        kl, grad = enhancer.kl_regularizer_with_grad(p, q)
        h = 1e-5
        numeric = np.empty_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                pp = p.copy()
                pp[i, j] += h
                pm = p.copy()
                pm[i, j] -= h
                numeric[i, j] = (
                    enhancer.kl_regularizer(pp, q) - enhancer.kl_regularizer(pm, q)
                ) / (2 * h)
        assert max_rel_err(grad.ravel(), numeric.ravel()) < 1e-4


class TestTrainEnhancer:
    def test_beats_mean_predictor_on_holdout(self, small_encoded):
        split = int(0.8 * small_encoded.shape[0])
        train, hold = small_encoded[:split], small_encoded[split:]
        model = enhancer.make_enhancer(np.random.default_rng(5))
        enhancer.train_enhancer(model, train, 800, np.random.default_rng(6))
        mse = enhancer.enhancer_mse(model, hold)
        baseline = float(
            np.mean((hold[:, 5:] - train[:, 5:].mean(axis=0)) ** 2)
        )
        assert mse < baseline

    def test_constant_dataset_drives_mse_to_zero(self):
        row = np.concatenate([np.full(5, 0.2), np.full(5, -0.4)])
        data = np.tile(row, (64, 1))
        model = enhancer.make_enhancer(np.random.default_rng(7), hidden=(8,))
        losses = enhancer.train_enhancer(model, data, 3000, np.random.default_rng(8))
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self):
        model = enhancer.make_enhancer(np.random.default_rng(0))
        with pytest.raises(UsageError):
            enhancer.train_enhancer(model, np.empty((0, 10)), 5,
                                    np.random.default_rng(0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        model = enhancer.make_enhancer(rng, hidden=(4,), input_dim=3, output_dim=2)
        x1 = rng.normal(size=(6, 3))
        x2 = rng.normal(size=(6, 2))

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
                                np.random.default_rng(seed + 3))
        return pair, model

    def test_zero_weight_leaves_generator_unchanged(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        before = pair.g.params.copy()
        history = enhancer.egan_refine(pair, model, 3, 0.0, np.random.default_rng(70),
                                       n_samples=200)
        assert len(history) == 3
        assert np.array_equal(pair.g.params, before)

    def test_zero_iterations_noop(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        before = pair.g.params.copy()
        assert enhancer.egan_refine(pair, model, 0, 1.0, np.random.default_rng(0)) == []
        assert np.array_equal(pair.g.params, before)

    def test_refinement_reduces_kl(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        history = enhancer.egan_refine(pair, model, 12, 1.0,
                                       np.random.default_rng(71), n_samples=2000)
        assert history[-1] < history[0]

    def test_discriminator_untouched(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        before = pair.d.params.copy()
        enhancer.egan_refine(pair, model, 3, 1.0, np.random.default_rng(72),
                             n_samples=200)
        assert np.array_equal(pair.d.params, before)

    def test_kl_penalty_closure_shapes(self, small_encoded):
        pair, model = self._trained_pair(small_encoded)
        g_out = gan.generate_encoded(pair, 50, np.random.default_rng(73))
        penalty, grad = enhancer.kl_penalty(model)(g_out)
        assert penalty >= -1e-12
        assert grad.shape == g_out.shape
        assert np.all(grad[:, :5] == 0.0)  # no gradient into the (s, a) half


class TestPipeline:
    def test_gan_mode_skips_enhancer(self):
        cfg = ExperimentConfig(mode="gan", pretrain_episodes=3, gan_train_steps=20,
                               enhancer_train_steps=20, refine_samples=100)
        pre = enhancer.pretrain_pipeline(cfg, np.random.default_rng(0))
        assert pre.enhancer is None
        assert pre.kl_history == []
        assert pre.enhancer_history == []
        assert len(pre.gan_history) == 20

    def test_egan_mode_trains_everything(self):
        cfg = ExperimentConfig(mode="egan", pretrain_episodes=3, gan_train_steps=20,
                               enhancer_train_steps=20, refine_iterations=2,
                               refine_samples=100)
        pre = enhancer.pretrain_pipeline(cfg, np.random.default_rng(0))
        assert pre.enhancer is not None
        assert len(pre.kl_history) == 2
        assert len(pre.enhancer_history) == 20

    def test_real_sample_accounting(self):
        cfg = ExperimentConfig(mode="gan", pretrain_episodes=4, gan_train_steps=10)
        pre = enhancer.pretrain_pipeline(cfg, np.random.default_rng(1))
        assert pre.real_samples == len(pre.buffer) > 0
        assert pre.buffer.dones.sum() == cfg.pretrain_episodes

    def test_mode_none_rejected(self):
        cfg = ExperimentConfig(mode="none")
        with pytest.raises(UsageError):
            enhancer.pretrain_pipeline(cfg, np.random.default_rng(0))

    def test_joint_update_flag_runs(self):
        cfg = ExperimentConfig(mode="egan", pretrain_episodes=3, gan_train_steps=20,
                               enhancer_train_steps=20, refine_iterations=1,
                               refine_samples=100, joint_update=True)
        pre = enhancer.pretrain_pipeline(cfg, np.random.default_rng(2))
        assert pre.enhancer is not None
        assert len(pre.gan_history) == 20


def test_kl_history_csv(tmp_path):
    path = tmp_path / "kl.csv"
    enhancer.save_kl_history([2.5, 1.25], path)
    assert path.read_text().splitlines() == ["iter,kl", "1,2.5", "2,1.25"]
