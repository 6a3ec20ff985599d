import copy
import pickle
import warnings

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


def float64_copy(net):
    """net with its parameters widened to float64.  The nn math is
    dtype-generic, so a check that needs float64 resolution (finite
    differences, 1e-12 agreement) runs a float32 net's code on this copy."""
    return nn.MlpNetwork(net.layer_sizes, net.activations, net.params.astype(np.float64))


# Float32 against float64 on the same inputs, relative to the float64
# result's scale: a bound set from float32's epsilon (about 7.6e-6), far
# above the rounding of the nets' 5-60-wide sums and far below a step that
# went wrong or ran in a lower precision.
F32_TOL = 64 * float(np.finfo(np.float32).eps)


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


class TestForwardInputs:
    """forward converts only inputs that are not 2-D float64 arrays; every
    layout and dtype gives the output of the float64 C-contiguous input."""

    @pytest.fixture
    def net(self):
        return nn.init_network([4, 32, 2], ["tanh", "softmax"], np.random.default_rng(40))

    @pytest.fixture
    def x(self):
        return np.random.default_rng(41).normal(size=(6, 4))

    def _expected(self, net, x):
        out, _ = nn.forward(net, np.ascontiguousarray(x, dtype=np.float64))
        return out

    def test_list(self, net, x):
        assert np.array_equal(nn.forward(net, x.tolist())[0], self._expected(net, x))

    def test_int_array(self, net):
        x = np.arange(24).reshape(6, 4) - 12
        assert x.dtype.kind == "i"
        assert np.array_equal(nn.forward(net, x)[0], self._expected(net, x.astype(np.float64)))

    def test_float32(self, net, x):
        x32 = x.astype(np.float32)
        out, cache = nn.forward(net, x32)
        assert out.dtype == np.float64 and cache.inputs.dtype == np.float64
        assert np.array_equal(out, self._expected(net, x32.astype(np.float64)))

    def test_one_dimensional_row(self, net, x):
        out, _ = nn.forward(net, x[0])
        assert out.shape == (1, 2)
        assert np.array_equal(out, self._expected(net, x[:1]))

    def test_non_contiguous_slice(self, net):
        wide = np.random.default_rng(42).normal(size=(12, 6))
        for x in (wide[:6, 1:5], wide[::2, 1:5], wide[::2, ::-1][:, :4]):
            assert not x.flags.c_contiguous
            assert np.array_equal(nn.forward(net, x)[0], self._expected(net, x))

    def test_fortran_order(self, net, x):
        xf = np.asfortranarray(x)
        assert not xf.flags.c_contiguous
        assert np.array_equal(nn.forward(net, xf)[0], self._expected(net, x))

    def test_wrong_width_still_raises(self, net):
        for bad in (np.zeros((3, 5)), np.zeros(3), [[1.0, 2.0]]):
            with pytest.raises(ShapeError):
                nn.forward(net, bad)

    def test_input_left_untouched(self, net, x):
        before = x.copy()
        nn.forward(net, x)
        assert np.array_equal(x, before)


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
    def test_zero_learning_rate_state_is_inert(self):
        # degenerate lr=0 state built directly; the factory rejects lr <= 0
        net = nn.init_network([2, 3], ["tanh"], np.random.default_rng(1))
        before = net.params.copy()
        opt = zero_rate_optimizer(net)
        nn.optimizer_step(net, np.ones(9), opt)
        assert np.array_equal(net.params, before)
        assert opt.t == 1

    def test_fresh_state_has_zero_moments(self):
        net = nn.init_network([3, 2], ["identity"], np.random.default_rng(0), np.float32)
        opt = nn.make_optimizer(net, 1e-3)
        for moment in (opt.m, opt.v):
            assert moment.shape == net.params.shape and moment.dtype == np.float32
            assert not moment.any() and not np.shares_memory(moment, net.params)
        assert not np.shares_memory(opt.m, opt.v)
        assert opt.t == 0 and opt.learning_rate == 1e-3

    def test_adam_first_step_magnitude_is_learning_rate(self):
        net = nn.init_network([2, 2], ["identity"], np.random.default_rng(0))
        lr = 1e-3
        opt = nn.make_optimizer(net, lr)
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
        opt = nn.make_optimizer(net, 0.1)
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
        for lr in (0.0, -1e-3):
            with pytest.raises(ConfigError):
                nn.make_optimizer(net, lr)


def zero_rate_optimizer(net):
    """An Adam state at learning rate 0, built directly: steps move nothing."""
    return nn.OptimizerState(0.0, np.zeros_like(net.params), np.zeros_like(net.params))


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
    """The per-layer Adam loop the flat optimizer replaced."""

    def __init__(self, net, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.weights, self.biases = split_like_layers(net.layer_sizes, net.params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in self.weights]
        self.v_w = [np.zeros_like(w) for w in self.weights]
        self.m_b = [np.zeros_like(b) for b in self.biases]
        self.v_b = [np.zeros_like(b) for b in self.biases]

    def step(self, grad_w, grad_b):
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


# The four nets of the default config.
NET_SHAPES = {
    "g": ([16, 40, 20, 10], ["tanh"] * 3),
    "d": ([10, 40, 20, 1], ["tanh", "tanh", "sigmoid"]),
    "enh": ([5, 60, 60, 5], ["tanh"] * 3),
    "pi": ([4, 32, 2], ["tanh", "softmax"]),
}


class TestBackwardFlags:
    """A flag that is off skips that gradient and returns None; the other
    gradient is bit-equal to the full call's."""

    @pytest.fixture(params=sorted(NET_SHAPES))
    def setup(self, request):
        sizes, acts = NET_SHAPES[request.param]
        rng = np.random.default_rng(50)
        net = nn.init_network(sizes, acts, rng)
        out, cache = nn.forward(net, rng.uniform(-1.0, 1.0, size=(64, sizes[0])))
        return net, cache, rng.normal(size=out.shape)

    def test_params_off(self, setup):
        net, cache, g = setup
        _, gin_full = nn.backward(net, cache, g)
        grad, gin = nn.backward(net, cache, g, params=False)
        assert grad is None
        assert np.array_equal(gin, gin_full)

    def test_inputs_off(self, setup):
        net, cache, g = setup
        grad_full, _ = nn.backward(net, cache, g)
        grad, gin = nn.backward(net, cache, g, inputs=False)
        assert gin is None
        assert np.array_equal(grad, grad_full)

    def test_output_gradient_left_untouched(self, setup):
        net, cache, g = setup
        before = g.copy()
        nn.backward(net, cache, g)
        assert np.array_equal(g, before)

    def test_flags_are_keyword_only(self, setup):
        net, cache, g = setup
        with pytest.raises(TypeError):
            nn.backward(net, cache, g, False)


def reference_softmax(z):
    """nn._activate's softmax through the ndarray method reductions."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def reference_backward(net, cache, output_gradient, *, params=True, inputs=True):
    """nn.backward with the ndarray method reductions and an unconditional
    conversion of output_gradient."""
    g = np.atleast_2d(np.asarray(output_gradient, dtype=np.float64))
    grad = np.empty_like(net.params) if params else None
    end = net.params.size
    for i in range(net.n_layers - 1, -1, -1):
        w = net.weights[i]
        start = end - w.size - w.shape[0]
        y = cache.post[i]
        act = net.activations[i]
        if act == "tanh":
            dz = y * y
            np.subtract(1.0, dz, out=dz)
            dz *= g
        elif act == "sigmoid":
            dz = g * y * (1.0 - y)
        elif act == "softmax":
            dz = y * (g - (g * y).sum(axis=1, keepdims=True))
        else:
            dz = g
        if params:
            h_prev = cache.inputs if i == 0 else cache.post[i - 1]
            np.matmul(dz.T, h_prev, out=grad[start : start + w.size].reshape(w.shape))
            dz.sum(axis=0, out=grad[start + w.size : end])
        if i > 0 or inputs:
            g = dz @ w
        end = start
    return grad, (g if inputs else None)


def same_bytes(a, b):
    # tobytes, not ==: -0.0 against 0.0 must count as a difference
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


REFERENCE_ROWS = [1, 2, 32, 64, 1024]
FLAGS = [(True, True), (True, False), (False, True), (False, False)]


class TestReductionsMatchReference:
    """The ufunc-reduce softmax and backward give the bytes of the ndarray
    method versions, on the pipeline's net shapes at its batch sizes."""

    @pytest.mark.parametrize("name", sorted(NET_SHAPES))
    @pytest.mark.parametrize("rows", REFERENCE_ROWS)
    def test_softmax_activate(self, name, rows):
        rng = np.random.default_rng(rows)
        for width in NET_SHAPES[name][0][1:]:
            z = rng.normal(scale=30.0, size=(rows, width))
            assert same_bytes(nn._activate("softmax", z.copy()), reference_softmax(z.copy()))

    @pytest.mark.parametrize("name", sorted(NET_SHAPES))
    @pytest.mark.parametrize("rows", REFERENCE_ROWS)
    def test_backward(self, name, rows):
        sizes, acts = NET_SHAPES[name]
        rng = np.random.default_rng(60 + rows)
        # each net as the pipeline builds it, and with a softmax head
        for head in dict.fromkeys([acts[-1], "softmax"]):
            net = nn.init_network(sizes, acts[:-1] + [head], rng)
            out, cache = nn.forward(net, rng.uniform(-1.0, 1.0, size=(rows, sizes[0])))
            g = rng.normal(size=out.shape)
            for params, inputs in FLAGS:
                got = nn.backward(net, cache, g, params=params, inputs=inputs)
                want = reference_backward(net, cache, g, params=params, inputs=inputs)
                assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])

    @pytest.mark.parametrize("convert", [
        lambda g: g.astype(np.float32), lambda g: g.tolist(), lambda g: g[0],
    ], ids=["float32", "list", "1-d"])
    def test_backward_converts_other_gradients(self, convert):
        sizes, acts = NET_SHAPES["pi"]
        rng = np.random.default_rng(70)
        net = nn.init_network(sizes, acts, rng)
        out, cache = nn.forward(net, rng.uniform(-1.0, 1.0, size=(1, sizes[0])))
        g = convert(rng.normal(size=out.shape))
        got, want = nn.backward(net, cache, g), reference_backward(net, cache, g)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


class TestCopyAndPickle:
    """A copied network's weights/biases are views of its own params."""

    @pytest.fixture(params=["deepcopy", "pickle"])
    def pair(self, request):
        net = nn.init_network([4, 6, 3], ["tanh", "softmax"], np.random.default_rng(80))
        if request.param == "deepcopy":
            return net, copy.deepcopy(net)
        return net, pickle.loads(pickle.dumps(net))

    def test_views_rebuilt_over_copied_params(self, pair):
        net, c = pair
        assert c.layer_sizes == net.layer_sizes and c.activations == net.activations
        assert same_bytes(c.params, net.params)
        assert not np.shares_memory(c.params, net.params)
        for w, b in zip(c.weights, c.biases):
            assert np.shares_memory(w, c.params) and np.shares_memory(b, c.params)

    def test_forward_follows_optimizer_step(self, pair):
        net, c = pair
        original = net.params.copy()
        x = np.random.default_rng(81).normal(size=(5, 4))
        before, cache = nn.forward(c, x)
        before = before.copy()
        grads, _ = nn.backward(c, cache, np.ones_like(before))
        nn.optimizer_step(c, grads, nn.make_optimizer(c, 0.5))
        after, _ = nn.forward(c, x)
        assert not np.array_equal(after, before)
        assert same_bytes(after, nn.forward(nn.MlpNetwork(c.layer_sizes, c.activations,
                                                          c.params.copy()), x)[0])
        assert same_bytes(net.params, original)  # the original is untouched


class TestFlatParameters:
    """The flat optimizer is bit-equal to the per-layer reference, and the
    per-layer arrays stay views into the flat vector."""

    @pytest.mark.parametrize("shape", sorted(GAN_SHAPES))
    @pytest.mark.parametrize("lr", [5e-6, 1e-1], ids=lambda lr: f"adam-{lr}")
    def test_optimizer_matches_reference(self, shape, lr):
        sizes, acts = GAN_SHAPES[shape]
        rng = np.random.default_rng(31)
        net = nn.init_network(sizes, acts, rng)
        opt = nn.make_optimizer(net, lr)
        ref = ReferenceOptimizer(net, lr)
        for _ in range(5):
            grad = rng.normal(scale=3.0, size=net.params.size)
            nn.optimizer_step(net, grad, opt)
            ref.step(*split_like_layers(sizes, grad))
        assert np.array_equal(net.params, ref.vector())
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
        opt = nn.make_optimizer(net, 0.1)
        before = net.params.copy()
        with pytest.raises(ShapeError):
            nn.optimizer_step(net, np.ones(size), opt)
        assert np.array_equal(net.params, before)
        assert opt.t == 0


class ReferenceMinibatcher:
    """The stateful cycler that nn.minibatches replaced, kept as its reference."""

    def __init__(self, data, batch_size, rng):
        self.data = data
        self.batch_size = min(batch_size, data.shape[0])
        self.rng = rng
        self._order = np.empty(0, dtype=np.intp)
        self._pos = 0

    def next(self):
        if self._pos + self.batch_size > self._order.size:
            self._order = self.rng.permutation(self.data.shape[0])
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.data[idx]


class TestMinibatches:
    @pytest.mark.parametrize("rows", [1, 2, 5, 7, 63, 64, 65, 200])
    def test_draw_for_draw_equal_to_reference(self, rows):
        # the trainers draw noise between batches: the permutations must be
        # drawn at the same points for every batch and rng state to match
        data = np.arange(rows * 3, dtype=np.float32).reshape(rows, 3)
        for batch_size in (1, 3, 32, 64, 500):
            rng_a, rng_b = np.random.default_rng(rows), np.random.default_rng(rows)
            batches = nn.minibatches(data, batch_size, rng_a)
            reference = ReferenceMinibatcher(data, batch_size, rng_b)
            for i in range(50):
                assert np.array_equal(next(batches), reference.next())
                assert rng_a.random(i % 3).tolist() == rng_b.random(i % 3).tolist()
                assert rng_a.bit_generator.state == rng_b.bit_generator.state


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
            opt = nn.make_optimizer(net, 1e-3)
            nn.optimizer_step(net, grads, opt)
            results.append(net.params.copy())
        assert np.array_equal(results[0], results[1])


class TestFloat32Networks:
    """A float32 net draws its weights like a float64 one and stays float32
    through forward, backward and the optimizer."""

    @pytest.mark.parametrize("name", sorted(NET_SHAPES))
    def test_init_rounds_the_float64_draws(self, name):
        sizes, acts = NET_SHAPES[name]
        rng64, rng32 = np.random.default_rng(90), np.random.default_rng(90)
        net64 = nn.init_network(sizes, acts, rng64)
        net32 = nn.init_network(sizes, acts, rng32, np.float32)
        assert same_bytes(net32.params, net64.params.astype(np.float32))
        assert all(a.dtype == np.float32 for a in (*net32.weights, *net32.biases))
        assert rng32.bit_generator.state == rng64.bit_generator.state

    def test_every_array_stays_float32(self):
        sizes, acts = NET_SHAPES["d"]
        rng = np.random.default_rng(91)
        net = nn.init_network(sizes, acts, rng, np.float32)
        opt = nn.make_optimizer(net, 1e-3)
        assert opt.m.dtype == opt.v.dtype == np.float32
        out, cache = nn.forward(net, rng.uniform(-1.0, 1.0, size=(64, sizes[0])))
        assert out.dtype == cache.inputs.dtype == np.float32
        assert all(h.dtype == np.float32 for h in cache.post)
        grad, grad_in = nn.backward(net, cache, rng.normal(size=out.shape))
        assert grad.dtype == grad_in.dtype == np.float32
        nn.optimizer_step(net, grad, opt)
        assert net.params.dtype == np.float32
        for a in (*net.weights, *net.biases):
            assert np.shares_memory(a, net.params)

    @pytest.mark.parametrize("name", sorted(NET_SHAPES))
    def test_forward_and_backward_match_float64_copy(self, name):
        sizes, acts = NET_SHAPES[name]
        rng = np.random.default_rng(92)
        net = nn.init_network(sizes, acts, rng, np.float32)
        x = rng.uniform(-1.0, 1.0, size=(64, sizes[0])).astype(np.float32)
        out32, cache32 = nn.forward(net, x)
        out64, cache64 = nn.forward(float64_copy(net), x)
        g = rng.normal(size=out32.shape).astype(np.float32)
        got = nn.backward(net, cache32, g)
        want = nn.backward(float64_copy(net), cache64, g)
        for a, b in ((out32, out64), *zip(got, want)):
            assert np.abs(a - b).max() <= F32_TOL * np.abs(b).max()


class TestSigmoidRange:
    """exp(-z) overflows below z = -88.7 in float32 and -709.8 in float64;
    the sigmoid still returns its limit there, and warns of nothing."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturates_at_large_pre_activations(self, dtype):
        z = np.array([[-1e4], [-1e3], [-100.0], [0.0], [100.0], [1e3], [1e4]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nn._activate("sigmoid", z.copy())
        assert out.dtype == dtype
        assert out[0, 0] == 0.0 and out[-1, 0] == 1.0 and out[3, 0] == 0.5
        assert np.all(np.diff(out[:, 0]) >= 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_through_a_sigmoid_head(self, dtype):
        net = nn.init_network([1, 1], ["sigmoid"], np.random.default_rng(0), dtype)
        net.weights[0][...] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = nn.forward(net, np.array([[-1e4], [1e4]]))
        assert out.tolist() == [[0.0], [1.0]]

    @pytest.mark.parametrize("dtype,limit", [(np.float32, 88.0), (np.float64, 709.0)])
    def test_unchanged_where_exp_is_finite(self, dtype, limit):
        # the bytes of the plain formula, so float64 results did not move
        z = np.random.default_rng(93).uniform(-limit, limit, size=(4096, 1)).astype(dtype)
        z[:3, 0] = (-limit, 0.0, limit)
        assert same_bytes(nn._activate("sigmoid", z.copy()), 1.0 / (1.0 + np.exp(-z)))


class TestCheckpointFormat:
    def test_float32_round_trip_exact(self, tmp_path):
        net = nn.init_network([4, 6, 3], ["tanh", "softmax"], np.random.default_rng(21),
                              np.float32)
        path = tmp_path / "net.txt"
        nn.save_network(net, path)
        assert path.read_text().splitlines()[0] == "mlp v1 4,6,3 tanh,softmax"
        loaded = nn.load_network(path)
        assert loaded.layer_sizes == net.layer_sizes
        assert loaded.activations == net.activations
        assert np.array_equal(loaded.params, net.params)
        assert same_bytes(loaded.params.astype(np.float32), net.params)

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
