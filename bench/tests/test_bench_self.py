"""Self-tests of the benchmark's tracer, probes and metric list.

    PYTHONPATH=src python3 -m pytest bench/tests -p no:cacheprovider
"""

import json
import os
import sys
import types

import numpy as np
import pytest

import layers
import probes
from tracer import Span, Tracer, self_times

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_is_duration_minus_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, kernel_s=0.5),
        Span(1, "a", 1.0, 4.0, 0, kernel_s=1.0),
        Span(2, "b", 5.0, 9.0, 0),
        Span(3, "b.child", 6.0, 7.0, 2),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 3.0 - 4.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0})


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.work.outer (a span) calls pkg.work.leaf (a kernel) twice and
    pkg.work.inner (a span); pkg.user imported leaf by name."""
    clock = FakeClock()
    work = types.ModuleType("pkg.work")
    user = types.ModuleType("pkg.user")

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        work.leaf()

    def outer():
        clock.now += 0.5
        work.leaf()
        work.leaf()
        work.inner()

    work.leaf, work.inner, work.outer = leaf, inner, outer
    user.leaf = leaf
    for name, mod in (("pkg", types.ModuleType("pkg")), ("pkg.work", work), ("pkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return clock, work, user


def test_tracer_nests_spans_and_kernels(fake_package):
    clock, work, user = fake_package
    tracer = Tracer(package="pkg", clock=clock)
    assert tracer.span("work", "outer")
    assert tracer.span("work", "inner")
    assert tracer.kernel("work", "leaf")
    assert user.leaf is work.leaf  # a by-name import is patched too
    work.outer()
    outer, = tracer.named("work.outer")
    inner, = tracer.named("work.inner")
    assert inner.parent == outer.id and outer.parent is None
    assert outer.duration == pytest.approx(5.5)
    assert outer.kernel_s == pytest.approx(2.0) and inner.kernel_s == pytest.approx(1.0)
    assert self_times(tracer.spans)[outer.id] == pytest.approx(0.5)
    assert tracer.kernels["work.leaf"] == [3, pytest.approx(3.0)]
    tracer.uninstall()
    assert work.outer.__code__.co_name == "outer" and user.leaf is work.leaf


def test_missing_wrap_target_is_reported_not_raised(fake_package):
    tracer = Tracer(package="pkg", clock=fake_package[0])
    assert not tracer.span("work", "gone")
    assert not tracer.kernel("nomodule", "leaf")
    assert tracer.missing == ["work.gone", "nomodule.leaf"]


def test_missing_egan_function_reads_missing(monkeypatch):
    from egan import policy

    monkeypatch.delattr(policy, "select_action")
    tracer = Tracer()
    probe = layers.install(tracer, layers.RunCapture())
    try:
        metrics = layers.layer_metrics(tracer, probe, run_s=1.0)
    finally:
        tracer.uninstall()
    assert "policy.select_action" in tracer.missing
    assert metrics["policy.select_action.calls"][0] == layers.MISSING
    assert metrics["policy.select_action.us"][0] == layers.MISSING
    assert metrics["cartpole.step.calls"][0] == 0.0


def test_traced_run_phases_add_up_to_run_time():
    from egan import harness
    from egan.config import ExperimentConfig

    config = ExperimentConfig(mode="gan", seed=3, pretrain_episodes=5, gan_train_steps=5,
                              synthetic_batches=4, training_episodes=6)
    tracer = Tracer()
    capture = layers.RunCapture()
    probe = layers.install(tracer, capture)
    try:
        start = tracer.clock()
        curve, pre, _ = harness.run_experiment(config, return_details=True)
        run_s = tracer.clock() - start
    finally:
        tracer.uninstall()
    m = layers.layer_metrics(tracer, probe, run_s)
    phases = [v for k, (v, _) in m.items() if k.startswith("harness.phase.")]
    assert sum(phases) + m["harness.other_s"][0] == pytest.approx(run_s)
    assert m["experience.run_episode.calls"][0] == 5 + 6
    assert m["gan.discriminator_step.calls"][0] == 5
    assert m["policy.synthetic.batches"][0] == 4
    assert m["experience.encode_batch.rows"][0] == pre.real_samples == curve.offset
    assert m["experience.decode_batch.rows"][0] == 4 * config.gan_batch_size
    assert capture.config is config and capture.result[0] is curve


def _real_buffer(n_episodes=10):
    from egan import cartpole, experience

    buffer = experience.collect_random(cartpole.DEFAULT_PARAMS, n_episodes,
                                       np.random.default_rng(5))
    return buffer


def test_physics_residual_is_zero_on_real_and_positive_on_perturbed():
    from dataclasses import replace

    from egan.cartpole import CartPoleState

    buffer = _real_buffer()
    residual, rejected = probes.physics_residual(buffer.items)
    assert np.all(residual == 0.0) and rejected == 0.0
    assert probes.roundtrip_residual(buffer.items, buffer.stats()) < 1e-12

    def shift(q):
        s = q.s_next
        return replace(q, s_next=CartPoleState(s.x + 0.01, s.x_dot, s.theta, s.theta_dot))

    residual, _ = probes.physics_residual([shift(q) for q in buffer.items])
    assert residual[0] == pytest.approx(0.01) and np.all(residual[1:] == 0.0)


def test_every_declared_layer_metric_has_a_producer():
    import kernel_bench
    import run

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: u for k, (_, u) in layers.layer_metrics(
        Tracer(), layers.SyntheticProbe(), 1.0).items()}
    from egan.config import ExperimentConfig

    produced.update({k: u for k, (_, u) in probes.quality_metrics(
        ExperimentConfig(), None, seed=0).items()})
    produced.update(run.TRACE_RUN_METRICS)
    produced.update({name: "us" for name in kernel_bench.metric_names()})
    assert produced == declared
