import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import nn
from egan.errors import ConfigError, ShapeError, UsageError


def fd_param_gradient(net, inputs, loss_weights, h=1e-5):
    """Central finite differences of L = sum(loss_weights * forward(net, x))."""
    v0 = net.params.copy()
    grad = np.empty_like(v0)

    def loss_at(vec):
        net.params[...] = vec
        out, _ = nn.forward(net, inputs)
        return float(np.sum(loss_weights * out))

    for i in range(v0.size):
        vp = v0.copy()
        vp[i] += h
        vm = v0.copy()
        vm[i] -= h
        grad[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
    net.params[...] = v0
    return grad


def max_rel_err(a, b, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


class TestInit:
    def test_deterministic_given_seed(self):
        n1 = nn.init_network([4, 32, 2], ["tanh", "softmax"], np.random.default_rng(7))
        n2 = nn.init_network([4, 32, 2], ["tanh", "softmax"], np.random.default_rng(7))
        for w1, w2 in zip(n1.weights, n2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(n1.biases, n2.biases):
            assert np.array_equal(b1, b2)

    def test_biases_zero(self):
        net = nn.init_network([3, 8, 8, 1], ["tanh", "tanh", "sigmoid"],
                              np.random.default_rng(0))
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_xavier_bound_first_layer(self):
        # fan_in 4, fan_out 32 -> bound sqrt(6/36)
        bound = np.sqrt(6.0 / 36.0)
        assert bound == pytest.approx(0.4082482904638631, abs=1e-12)
        draws = [
            nn.init_network([4, 32, 2], ["tanh", "softmax"], np.random.default_rng(s))
            for s in range(5)
        ]
        w = np.concatenate([d.weights[0].ravel() for d in draws])
        assert np.all(np.abs(w) <= bound)
        assert np.abs(w).max() > 0.9 * bound  # bound is tight, not loose

    def test_shapes(self):
        net = nn.init_network([5, 7, 3], ["tanh", "identity"], np.random.default_rng(1))
        assert net.weights[0].shape == (7, 5)
        assert net.weights[1].shape == (3, 7)
        assert net.biases[0].shape == (7,)
        assert net.biases[1].shape == (3,)

    @pytest.mark.parametrize("sizes", [[4], [], [4, 0, 2], [4, -1]])
    def test_bad_sizes(self, sizes):
        with pytest.raises(ConfigError):
            nn.init_network(sizes, ["tanh"] * max(len(sizes) - 1, 1),
                            np.random.default_rng(0))

    def test_bad_activation(self):
        with pytest.raises(ConfigError):
            nn.init_network([4, 2], ["relu"], np.random.default_rng(0))


class TestForward:
    def test_identity_network_passes_input_through(self):
        net = nn.init_network([3, 3], ["identity"], np.random.default_rng(0))
        net.weights[0][...] = np.eye(3)
        net.biases[0][...] = np.zeros(3)
        x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -0.5]])
        out, _ = nn.forward(net, x)
        assert np.array_equal(out, x)

    def test_sigmoid_of_zero_is_half(self):
        net = nn.init_network([2, 1], ["sigmoid"], np.random.default_rng(0))
        net.weights[0][:] = 0.0
        out, _ = nn.forward(net, np.array([[3.0, -7.0]]))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_scalar_tanh(self):
        net = nn.init_network([1, 1], ["tanh"], np.random.default_rng(0))
        net.weights[0][:] = 0.5
        out, _ = nn.forward(net, np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(0.46211715726000974, abs=1e-9)

    def test_softmax_rows_sum_to_one(self):
        net = nn.init_network([4, 8, 3], ["tanh", "softmax"], np.random.default_rng(3))
        out, _ = nn.forward(net, np.random.default_rng(4).normal(size=(50, 4)))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_sigmoid_open_interval(self):
        net = nn.init_network([4, 8, 1], ["tanh", "sigmoid"], np.random.default_rng(5))
        out, _ = nn.forward(net, np.random.default_rng(6).normal(size=(50, 4)))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_shape_mismatch(self):
        net = nn.init_network([4, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(ShapeError):
            nn.forward(net, np.zeros((3, 5)))

    @given(st.integers(0, 2**32 - 1), st.floats(-1e3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_no_nan_inf_for_bounded_inputs(self, seed, scale):
        rng = np.random.default_rng(seed)
        net = nn.init_network([4, 16, 8, 2], ["tanh", "sigmoid", "softmax"], rng)
        x = np.full((3, 4), scale)
        out, _ = nn.forward(net, x)
        assert np.all(np.isfinite(out))


class TestBackward:
    def test_zero_output_gradient_gives_zero_grads(self):
        net = nn.init_network([3, 5, 2], ["tanh", "softmax"], np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(4, 3))
        _, cache = nn.forward(net, x)
        grads, gin = nn.backward(net, cache, np.zeros((4, 2)))
        assert grads.shape == net.params.shape
        assert np.all(grads == 0.0)
        assert np.all(gin == 0.0)

    def test_linear_single_weight_chain_rule(self):
        # y = w*x + b, loss = y: dL/dw = x, dL/db = 1
        net = nn.init_network([1, 1], ["identity"], np.random.default_rng(0))
        net.weights[0][:] = 2.0
        _, cache = nn.forward(net, np.array([[3.0]]))
        grads, _ = nn.backward(net, cache, np.array([[1.0]]))
        # layout w0, b0
        assert grads[0] == pytest.approx(3.0, abs=1e-12)
        assert grads[1] == pytest.approx(1.0, abs=1e-12)

    def test_linear_in_output_gradient(self):
        net = nn.init_network([3, 4, 2], ["tanh", "identity"], np.random.default_rng(8))
        x = np.random.default_rng(9).normal(size=(5, 3))
        g = np.random.default_rng(10).normal(size=(5, 2))
        _, cache = nn.forward(net, x)
        g1 = nn.backward(net, cache, g)[0]
        g2 = nn.backward(net, cache, 2.5 * g)[0]
        assert np.allclose(2.5 * g1, g2, rtol=1e-12, atol=1e-12)

    def test_mismatched_cache_raises(self):
        net = nn.init_network([3, 5, 2], ["tanh", "softmax"], np.random.default_rng(2))
        other = nn.init_network([3, 2], ["identity"], np.random.default_rng(2))
        _, cache = nn.forward(net, np.zeros((2, 3)))
        with pytest.raises(UsageError):
            nn.backward(other, cache, np.zeros((2, 2)))
        with pytest.raises(UsageError):
            nn.backward(net, cache, np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "acts", [["tanh", "softmax"], ["sigmoid", "identity"], ["tanh", "sigmoid"]]
    )
    def test_gradients_match_finite_differences(self, acts):
        rng = np.random.default_rng(hash(tuple(acts)) % 2**32)
        net = nn.init_network([3, 5, 2], acts, rng)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 2))
        _, cache = nn.forward(net, x)
        analytic = nn.backward(net, cache, w)[0]
        numeric = fd_param_gradient(net, x, w)
        assert max_rel_err(analytic, numeric) < 1e-4


class TestOptimizers:
    def test_sgd_zero_gradient_no_change(self):
        net = nn.init_network([2, 2], ["identity"], np.random.default_rng(0))
        before = net.params.copy()
        opt = nn.make_optimizer(net, "sgd", 0.5)
        nn.optimizer_step(net, np.zeros(6), opt)
        assert np.array_equal(net.params, before)

    def test_sgd_single_arithmetic_step(self):
        net = nn.init_network([1, 1], ["identity"], np.random.default_rng(0))
        net.weights[0][:] = 1.0
        opt = nn.make_optimizer(net, "sgd", 0.5)
        nn.optimizer_step(net, np.array([0.1, 0.0]), opt)
        assert net.weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_sgd_zero_learning_rate_state_is_inert(self):
        # degenerate lr=0 state built directly; the factory rejects lr <= 0
        net = nn.init_network([2, 3], ["tanh"], np.random.default_rng(1))
        before = net.params.copy()
        opt = nn.OptimizerState(kind="sgd", learning_rate=0.0)
        nn.optimizer_step(net, np.ones(9), opt)
        assert np.array_equal(net.params, before)

    def test_adam_first_step_magnitude_is_learning_rate(self):
        net = nn.init_network([2, 2], ["identity"], np.random.default_rng(0))
        lr = 1e-3
        opt = nn.make_optimizer(net, "adam", lr)
        before = net.params.copy()
        nn.optimizer_step(net, np.full(6, 0.7), opt)
        delta = np.abs(net.params - before)
        # |step| = lr * g / (g + eps) at t=1
        expected = lr * 0.7 / (0.7 + 1e-8)
        assert np.allclose(delta, expected, rtol=1e-9)
        assert opt.t == 1

    def test_adam_bias_correction_two_steps(self):
        # hand evaluation of the standard update for a scalar parameter
        net = nn.init_network([1, 1], ["identity"], np.random.default_rng(0))
        net.weights[0][:] = 0.0
        net.biases[0][:] = 0.0
        opt = nn.make_optimizer(net, "adam", 0.1)
        g1, g2 = 0.3, -0.2
        m = v = 0.0
        p = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            p -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        for g in (g1, g2):
            nn.optimizer_step(net, np.array([g, 0.0]), opt)
        assert net.weights[0][0, 0] == pytest.approx(p, abs=1e-12)

    def test_bad_optimizer_config(self):
        net = nn.init_network([2, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(ConfigError):
            nn.make_optimizer(net, "rmsprop", 1e-3)
        with pytest.raises(ConfigError):
            nn.make_optimizer(net, "sgd", 0.0)


def split_like_layers(layer_sizes, vec):
    """Cut a flat w0, b0, w1, b1, ... vector into per-layer copies."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(vec[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in).copy())
        offset += fan_out * fan_in
        biases.append(vec[offset : offset + fan_out].copy())
        offset += fan_out
    return weights, biases


class ReferenceOptimizer:
    """The per-layer SGD/Adam loop the flat optimizer replaced."""

    def __init__(self, net, kind, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.weights, self.biases = split_like_layers(net.layer_sizes, net.params)
        self.kind, self.lr, self.beta1, self.beta2, self.eps = kind, lr, beta1, beta2, eps
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in self.weights]
        self.v_w = [np.zeros_like(w) for w in self.weights]
        self.m_b = [np.zeros_like(b) for b in self.biases]
        self.v_b = [np.zeros_like(b) for b in self.biases]

    def step(self, grad_w, grad_b):
        if self.kind == "sgd":
            for i in range(len(self.weights)):
                self.weights[i] -= self.lr * grad_w[i]
                self.biases[i] -= self.lr * grad_b[i]
            return
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i in range(len(self.weights)):
            for p, g, m, v in (
                (self.weights[i], grad_w[i], self.m_w[i], self.v_w[i]),
                (self.biases[i], grad_b[i], self.m_b[i], self.v_b[i]),
            ):
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * (g * g)
                p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def vector(self):
        return np.concatenate(
            [a.ravel() for w, b in zip(self.weights, self.biases) for a in (w, b)]
        )


GAN_SHAPES = {
    "generator": ([16, 40, 20, 10], ["tanh"] * 3),
    "discriminator": ([10, 40, 20, 1], ["tanh", "tanh", "sigmoid"]),
}


class TestFlatParameters:
    """The flat optimizer is bit-equal to the per-layer reference, and the
    per-layer arrays stay views into the flat vector."""

    @pytest.mark.parametrize("shape", sorted(GAN_SHAPES))
    @pytest.mark.parametrize("kind,lr", [("sgd", 1e-2), ("adam", 5e-6), ("adam", 1e-1)])
    def test_optimizer_matches_reference(self, shape, kind, lr):
        sizes, acts = GAN_SHAPES[shape]
        rng = np.random.default_rng(31)
        net = nn.init_network(sizes, acts, rng)
        opt = nn.make_optimizer(net, kind, lr)
        ref = ReferenceOptimizer(net, kind, lr)
        for _ in range(5):
            grad = rng.normal(scale=3.0, size=net.params.size)
            nn.optimizer_step(net, grad, opt)
            ref.step(*split_like_layers(sizes, grad))
        assert np.array_equal(net.params, ref.vector())
        if kind == "adam":
            assert opt.t == ref.t == 5

    def test_backward_layout_matches_per_layer_gradients(self):
        sizes, acts = GAN_SHAPES["generator"]
        rng = np.random.default_rng(32)
        net = nn.init_network(sizes, acts, rng)
        x = rng.uniform(-1.0, 1.0, size=(64, sizes[0]))
        out, cache = nn.forward(net, x)
        g_out = rng.normal(size=out.shape)
        grad, _ = nn.backward(net, cache, g_out)
        grad_w, grad_b = split_like_layers(sizes, grad)
        # the last layer's gradient by hand: dz = g * (1 - y^2)
        dz = g_out * (1.0 - out * out)
        assert np.array_equal(grad_w[-1], dz.T @ cache.post[-2])
        assert np.array_equal(grad_b[-1], dz.sum(axis=0))

    def _assert_views(self, net):
        assert net.params.ndim == 1 and net.params.dtype == np.float64
        assert net.params.size == sum(w.size + b.size for w, b in zip(net.weights, net.biases))
        for a in (*net.weights, *net.biases):
            assert np.shares_memory(net.params, a)

    def test_views_after_init_and_load(self, tmp_path):
        for sizes, acts in GAN_SHAPES.values():
            net = nn.init_network(sizes, acts, np.random.default_rng(33))
            self._assert_views(net)
            path = tmp_path / "net.txt"
            nn.save_network(net, path)
            loaded = nn.load_network(path)
            self._assert_views(loaded)
            assert np.array_equal(loaded.params, net.params)

    def test_in_place_write_shows_in_params(self):
        net = nn.init_network([3, 4, 2], ["tanh", "softmax"], np.random.default_rng(34))
        net.weights[1][...] = 7.0
        net.biases[0][...] = -2.0
        # layout w0 (4x3), b0 (4), w1 (2x4), b1 (2)
        assert np.all(net.params[12:16] == -2.0)
        assert np.all(net.params[16:24] == 7.0)
        assert np.all(net.params[24:] == 0.0)

    def test_rebinding_a_view_raises(self):
        net = nn.init_network([3, 2], ["identity"], np.random.default_rng(35))
        with pytest.raises(TypeError):
            net.weights[0] = np.eye(2, 3)
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(2)

    def test_wrong_params_length_rejected(self):
        with pytest.raises(ShapeError):
            nn.MlpNetwork([3, 2], ["identity"], np.zeros(7))

    @pytest.mark.parametrize("size", [5, 7])
    def test_optimizer_rejects_wrong_gradient_length(self, size):
        net = nn.init_network([2, 2], ["identity"], np.random.default_rng(36))
        for kind in ("sgd", "adam"):
            opt = nn.make_optimizer(net, kind, 0.1)
            before = net.params.copy()
            with pytest.raises(ShapeError):
                nn.optimizer_step(net, np.ones(size), opt)
            assert np.array_equal(net.params, before)


class TestDeterminismProperty:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_forward_backward_step_bit_identical(self, seed):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            net = nn.init_network([4, 6, 3], ["tanh", "softmax"], rng)
            x = rng.normal(size=(5, 4))
            out, cache = nn.forward(net, x)
            grads, _ = nn.backward(net, cache, np.ones_like(out))
            opt = nn.make_optimizer(net, "adam", 1e-3)
            nn.optimizer_step(net, grads, opt)
            results.append(net.params.copy())
        assert np.array_equal(results[0], results[1])


class TestCheckpointFormat:
    def test_round_trip_exact(self, tmp_path):
        net = nn.init_network([4, 6, 3], ["tanh", "softmax"], np.random.default_rng(21))
        path = tmp_path / "net.txt"
        nn.save_network(net, path)
        loaded = nn.load_network(path)
        assert loaded.layer_sizes == net.layer_sizes
        assert loaded.activations == net.activations
        assert np.array_equal(loaded.params, net.params)

    def test_header_format(self, tmp_path):
        net = nn.init_network([2, 3], ["sigmoid"], np.random.default_rng(0))
        path = tmp_path / "net.txt"
        nn.save_network(net, path)
        header = path.read_text().splitlines()[0]
        assert header == "mlp v1 2,3 sigmoid"

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(UsageError):
            nn.load_network(path)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_reject_wrong_parameter_count(self, tmp_path, delta):
        net = nn.init_network([2, 3], ["sigmoid"], np.random.default_rng(0))
        path = tmp_path / "net.txt"
        nn.save_network(net, path)
        lines = path.read_text().splitlines()
        lines[-1] = " ".join(lines[-1].split()[:-1] if delta < 0 else [*lines[-1].split(), "0.5"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UsageError, match="expected 9 parameters"):
            nn.load_network(path)
