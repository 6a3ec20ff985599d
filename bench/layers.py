"""Which egan functions the traced run wraps, and the per-layer metrics they give.

Every metric is (value, unit). A value of MISSING (-1) marks a metric that
could not be measured: its wrap target or probe API no longer exists, or (for
per-call times) it was called zero times. Counts and totals of a layer the
workload never reaches read 0. No metric defined here can be negative, so -1
is never a real reading.
"""

from __future__ import annotations

import time

import numpy as np

from tracer import Tracer, self_times

MISSING = -1.0

# (input width, output width) -> short net name, for the default config's nets:
# generator [16,40,20,10], discriminator [10,40,20,1], enhancer [5,60,60,5],
# policy [4,32,2].
NET_NAMES = {(16, 10): "g", (10, 1): "d", (5, 5): "enh", (4, 2): "pi"}
NN_KERNELS = ("forward", "backward", "optimizer_step")

# module, attr, info(args, kwargs, result) -> dict
SPANS = (
    ("harness", "run_experiment", None),
    ("enhancer", "pretrain_pipeline", None),
    ("experience", "collect_random", None),
    ("experience", "encode_batch", lambda a, k, r: {"rows": r.shape[0]}),
    ("gan", "train_gan", None),
    ("enhancer", "train_enhancer", None),
    ("enhancer", "egan_refine", None),
    ("policy", "pretrain_on_synthetic", None),
    ("gan", "generate_encoded", lambda a, k, r: {"rows": r.shape[0]}),
    ("experience", "decode_batch", lambda a, k, r: {"rows": len(r)}),
    ("experience", "run_episode", None),
    ("policy", "update_on_episodes",
     lambda a, k, r: {"rows": sum(len(t.actions) for t in a[1])}),
)
KERNELS = (
    ("cartpole", "step"),
    ("policy", "select_action"),
    ("gan", "discriminator_step"),
    ("gan", "generator_step"),
)

# harness.phase.<name>_s <- total time of these spans
PHASES = (
    ("collect", "experience.collect_random"),
    ("encode", "experience.encode_batch"),
    ("gan", "gan.train_gan"),
    ("enhancer", "enhancer.train_enhancer"),
    ("refine", "enhancer.egan_refine"),
    ("synthetic", "policy.pretrain_on_synthetic"),
)
PRETRAIN_SPANS = ("enhancer.pretrain_pipeline", "policy.pretrain_on_synthetic")


def _net_key(name, args):
    try:
        sizes = args[0].layer_sizes
        return f"{name}.{NET_NAMES.get((sizes[0], sizes[-1]), 'other')}"
    except (AttributeError, IndexError, TypeError):
        return f"{name}.other"


def param_vector(net):
    return np.concatenate([w.ravel() for w in net.weights] + [b.ravel() for b in net.biases])


class SyntheticProbe:
    """Watches the synthetic phase: batches, non-zero-weight batches, policy delta."""

    def __init__(self):
        self.active = False
        self.batches = 0
        self.useful = 0
        self.param_delta = None

    def wrap_phase(self, fn):
        def wrapper(agent, *args, **kwargs):
            try:
                before = param_vector(agent.net)
            except AttributeError:
                before = None
            self.active = True
            try:
                return fn(agent, *args, **kwargs)
            finally:
                self.active = False
                if before is not None:
                    self.param_delta = float(np.linalg.norm(param_vector(agent.net) - before))

        return wrapper

    def wrap_step(self, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                weights = kwargs.get("weights", args[3] if len(args) > 3 else None)
                if weights is not None:
                    self.batches += 1
                    self.useful += bool(np.any(np.asarray(weights) != 0.0))
            return fn(*args, **kwargs)

        return wrapper


class RunCapture:
    """Outermost hook on harness.run_experiment: start time, config and result."""

    def __init__(self):
        self.t_start = None
        self.config = None
        self.result = None

    def wrap(self, fn):
        def wrapper(config, *args, **kwargs):
            self.t_start = time.monotonic()
            self.config = config
            self.result = fn(config, *args, **kwargs)
            return self.result

        return wrapper


def install(tracer: Tracer, capture: RunCapture) -> SyntheticProbe:
    """Wrap every layer boundary; the run capture goes on last, outermost."""
    for module, attr, info in SPANS:
        tracer.span(module, attr, info)
    for module, attr in KERNELS:
        tracer.kernel(module, attr)
    for attr in NN_KERNELS:
        tracer.kernel("nn", attr, key=_net_key)
    probe = SyntheticProbe()
    tracer.hook("policy", "pretrain_on_synthetic", probe.wrap_phase)
    tracer.hook("policy", "policy_gradient_step", probe.wrap_step)
    tracer.hook("harness", "run_experiment", capture.wrap)
    return probe


def _per_call_us(tracer: Tracer, name: str) -> tuple[float, float]:
    calls, total = tracer.kernels.get(name, (0, 0.0))
    return float(calls), (total / calls * 1e6 if calls else MISSING)


def layer_metrics(tracer: Tracer, probe: SyntheticProbe, run_s: float) -> dict:
    """Per-layer metrics of one traced run; run_s is its traced wall time."""
    m = {}

    def measured(target, value):
        return MISSING if target in tracer.missing else value

    kernels = [(f"{mod}.{attr}", f"{mod}.{attr}") for mod, attr in KERNELS]
    kernels += [(f"nn.{k}.{net}", f"nn.{k}") for k in NN_KERNELS for net in NET_NAMES.values()]
    for name, target in kernels:
        calls, us = _per_call_us(tracer, name)
        m[f"{name}.calls"] = (measured(target, calls), "count")
        m[f"{name}.us"] = (measured(target, us), "us")
    for name in ("experience.run_episode", "policy.update_on_episodes"):
        m[f"{name}.calls"] = (measured(name, float(len(tracer.named(name)))), "count")
    for name in ("experience.run_episode", "experience.collect_random",
                 "experience.encode_batch", "experience.decode_batch", "gan.train_gan",
                 "gan.generate_encoded", "enhancer.train_enhancer", "enhancer.egan_refine",
                 "policy.update_on_episodes", "policy.pretrain_on_synthetic"):
        m[f"{name}.s"] = (measured(name, tracer.total(name)), "s")
    for name in ("experience.encode_batch", "experience.decode_batch",
                 "gan.generate_encoded", "policy.update_on_episodes"):
        rows = sum(s.info.get("rows", 0) for s in tracer.named(name))
        m[f"{name}.rows"] = (measured(name, float(rows)), "count")

    selfs = self_times(tracer.spans)
    episode_self = sum(selfs[s.id] for s in tracer.named("experience.run_episode"))
    m["experience.run_episode.self_s"] = (measured("experience.run_episode", episode_self), "s")
    decode_s, decode_rows = m["experience.decode_batch.s"][0], m["experience.decode_batch.rows"][0]
    m["experience.decode_batch.us_per_row"] = (
        decode_s / decode_rows * 1e6 if decode_rows > 0 else MISSING, "us")

    watched = not {"policy.policy_gradient_step", "policy.pretrain_on_synthetic"} & set(tracer.missing)
    m["policy.synthetic.batches"] = (float(probe.batches) if watched else MISSING, "count")
    m["policy.synthetic.useful_ratio"] = (
        probe.useful / probe.batches if watched and probe.batches else MISSING, "ratio")
    m["policy.synthetic.param_delta"] = (
        probe.param_delta if probe.param_delta is not None else MISSING, "l2")
    m.update(phase_metrics(tracer, run_s))
    return m


def phase_metrics(tracer: Tracer, run_s: float) -> dict:
    """Split the traced run_s into pipeline phases plus the rest (harness.other_s).

    The online phase is everything run_experiment does after its last
    pre-training span ends (or from its start, for mode none); it holds the
    episode loop and the per-episode array rebuild.
    """
    roots = tracer.named("harness.run_experiment")
    m = {}
    if len(roots) != 1:
        for name, _ in PHASES:
            m[f"harness.phase.{name}_s"] = (MISSING, "s")
        m["harness.phase.online_s"] = (MISSING, "s")
        m["harness.other_s"] = (MISSING, "s")
        return m
    root = roots[0]
    phases = {}
    for name, span_name in PHASES:
        phases[name] = tracer.total(span_name) if span_name not in tracer.missing else 0.0
    pre_end = max((s.end for n in PRETRAIN_SPANS for s in tracer.named(n)), default=root.start)
    phases["online"] = root.end - pre_end
    for name, value in phases.items():
        m[f"harness.phase.{name}_s"] = (value, "s")
    m["harness.other_s"] = (run_s - sum(phases.values()), "s")
    return m
