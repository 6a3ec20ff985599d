"""Kernel micro-benchmarks (pytest-benchmark), reported as kernel.* metrics.

Each case runs one egan kernel at the batch size the pipeline really calls it
with: 1-row policy steps, 64-row GAN and enhancer minibatches, 6000-row
refinement batches and pooled policy-gradient batches. run.py runs this file
in trace mode only; by hand:

    PYTHONPATH=src python3 -m pytest bench/kernel_bench.py -p no:cacheprovider

Each case stores its metric name in extra_info; run.py reads the median.
A case whose API no longer exists is skipped, and its metric reads missing.
"""

from __future__ import annotations

import numpy as np
import pytest

from egan import cartpole, gan, nn, policy

POOLED_PG_ROWS = 500  # 5 episodes of ~100 steps, one REINFORCE update
REFINE_ROWS = 6000  # the default refine_samples

NETS = {
    "g": ([16, 40, 20, 10], ["tanh", "tanh", "tanh"]),
    "d": ([10, 40, 20, 1], ["tanh", "tanh", "sigmoid"]),
    "enh": ([5, 60, 60, 5], ["tanh", "tanh", "tanh"]),
    "pi": ([4, 32, 2], ["tanh", "softmax"]),
}
FORWARD_CASES = [("pi", 1), ("pi", POOLED_PG_ROWS), ("g", 64), ("d", 64), ("enh", 64),
                 ("g", REFINE_ROWS), ("enh", REFINE_ROWS)]
BACKWARD_CASES = [("pi", POOLED_PG_ROWS), ("g", 64), ("d", 64), ("enh", 64), ("g", REFINE_ROWS)]


def _case_id(net, rows):
    return f"{net}_{'pooled' if (net, rows) == ('pi', POOLED_PG_ROWS) else rows}"


def metric_names() -> list[str]:
    """Every kernel.* metric the cases below report."""
    names = ["cartpole_step", "select_action", "d_step", "g_step", "pg_step",
             "adam_step.g", "adam_step.d"]
    names += [f"forward.{_case_id(*c)}" for c in FORWARD_CASES]
    names += [f"backward.{_case_id(*c)}" for c in BACKWARD_CASES]
    return [f"kernel.{n}.us" for n in names]


def _net(name, rng):
    sizes, acts = NETS[name]
    return nn.init_network(sizes, acts, rng)


def _inputs(net, rows, rng):
    return rng.uniform(-1.0, 1.0, size=(rows, net.layer_sizes[0]))


def _run(benchmark, metric, fn, *args):
    benchmark.extra_info["metric"] = metric
    benchmark(fn, *args)


def test_cartpole_step(benchmark):
    state = cartpole.CartPoleState(0.01, -0.02, 0.03, 0.04)
    _run(benchmark, "kernel.cartpole_step.us", cartpole.step, state, 1)


def test_select_action(benchmark):
    if not hasattr(policy, "select_action"):
        pytest.skip("policy.select_action no longer exists")
    rng = np.random.default_rng(0)
    agent = policy.make_agent(rng)
    state = cartpole.CartPoleState(0.01, -0.02, 0.03, 0.04)
    _run(benchmark, "kernel.select_action.us", policy.select_action, agent, state, rng)


@pytest.mark.parametrize("net_name,rows", FORWARD_CASES, ids=[_case_id(*c) for c in FORWARD_CASES])
def test_forward(benchmark, net_name, rows):
    rng = np.random.default_rng(0)
    net = _net(net_name, rng)
    x = _inputs(net, rows, rng)
    _run(benchmark, f"kernel.forward.{_case_id(net_name, rows)}.us", nn.forward, net, x)


@pytest.mark.parametrize("net_name,rows", BACKWARD_CASES, ids=[_case_id(*c) for c in BACKWARD_CASES])
def test_backward(benchmark, net_name, rows):
    rng = np.random.default_rng(0)
    net = _net(net_name, rng)
    out, cache = nn.forward(net, _inputs(net, rows, rng))
    grad = rng.normal(size=out.shape)
    _run(benchmark, f"kernel.backward.{_case_id(net_name, rows)}.us", nn.backward, net, cache, grad)


@pytest.mark.parametrize("net_name", ["g", "d"])
def test_adam_step(benchmark, net_name):
    rng = np.random.default_rng(0)
    net = _net(net_name, rng)
    out, cache = nn.forward(net, _inputs(net, 64, rng))
    grads, _ = nn.backward(net, cache, rng.normal(size=out.shape))
    opt = nn.make_optimizer(net, "adam", 5e-6)
    _run(benchmark, f"kernel.adam_step.{net_name}.us", nn.optimizer_step, net, grads, opt)


def test_d_step(benchmark):
    rng = np.random.default_rng(0)
    pair = gan.make_gan(rng)
    real = rng.uniform(-1.0, 1.0, size=(pair.batch_size, 10))
    _run(benchmark, "kernel.d_step.us", gan.discriminator_step, pair, real, rng)


def test_g_step(benchmark):
    rng = np.random.default_rng(0)
    pair = gan.make_gan(rng)
    _run(benchmark, "kernel.g_step.us", gan.generator_step, pair, rng)


def test_pg_step(benchmark):
    rng = np.random.default_rng(0)
    agent = policy.make_agent(rng, optimizer="adam")
    states = rng.uniform(-0.2, 0.2, size=(POOLED_PG_ROWS, 4))
    actions = rng.integers(0, 2, size=POOLED_PG_ROWS)
    weights = policy.normalize_weights(rng.normal(size=POOLED_PG_ROWS))
    _run(benchmark, "kernel.pg_step.us", policy.policy_gradient_step,
         agent, states, actions, weights)
