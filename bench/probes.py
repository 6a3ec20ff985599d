"""Quality probes, run untimed after a traced run.

They are reported, never gated: a later change may alter RNG use and so move
them without being wrong. Each probe that needs an API the program no longer
has is reported as MISSING instead of failing the run.
"""

from __future__ import annotations

import numpy as np

from layers import MISSING

STATE_DIMS = ("x", "x_dot", "theta", "theta_dot")
GENERATED_ROWS = 2000
HOLDOUT_EPISODES = 50
CONTROL_EPISODES = 20
PROBE_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError, ImportError)


def physics_residual(quads, params=None) -> tuple[np.ndarray, float]:
    """Mean |s' - cartpole.step(s, a)| per state dim over the transitions whose
    s the simulator accepts, plus the share of s it rejects as terminal."""
    from egan import cartpole

    params = params or cartpole.DEFAULT_PARAMS
    total = np.zeros(len(STATE_DIMS))
    stepped = rejected = 0
    for q in quads:
        if cartpole.is_terminal(q.s_t, params):
            rejected += 1
            continue
        nxt, _, _ = cartpole.step(q.s_t, q.a, params)
        total += np.abs(nxt.as_array() - q.s_next.as_array())
        stepped += 1
    mean = total / stepped if stepped else np.full(len(STATE_DIMS), np.nan)
    return mean, rejected / max(len(quads), 1)


def roundtrip_residual(quads, stats, params=None) -> float:
    """Physics residual of real transitions after encode and decode; the
    control for the generated-data residual, expected at rounding level."""
    from egan import cartpole, experience

    params = params or cartpole.DEFAULT_PARAMS
    decoded = experience.decode_batch(experience.encode_batch(quads, stats), stats, params)
    return float(physics_residual(decoded, params)[0].mean())


def control_residual(seed: int, params=None) -> float:
    """Roundtrip residual on fresh random-policy episodes drawn from seed."""
    from egan import cartpole, experience

    params = params or cartpole.DEFAULT_PARAMS
    buffer = experience.collect_random(params, CONTROL_EPISODES, np.random.default_rng(seed))
    return roundtrip_residual(buffer.items, buffer.stats(), params)


def _guard(metrics: dict, names_units, fn) -> None:
    """Run fn() -> values; on a missing API, mark every named metric MISSING."""
    try:
        values = fn()
    except PROBE_ERRORS:
        values = [MISSING] * len(names_units)
    for (name, unit), value in zip(names_units, values):
        metrics[name] = (float(value), unit)


def quality_metrics(config, pre, seed: int) -> dict:
    """Probes of the pre-training result (None for mode none)."""
    from egan import cartpole, enhancer, experience, gan, nn

    m = {}
    params = cartpole.EnvParams(max_steps=config.env_max_steps)
    rng = np.random.default_rng([seed, 7])  # apart from every stream the run used

    if pre is not None:
        _guard(m, [("experience.roundtrip_residual", "state")],
               lambda: [roundtrip_residual(pre.buffer.items, pre.stats, params)])
    else:
        _guard(m, [("experience.roundtrip_residual", "state")],
               lambda: [control_residual(seed + 1, params)])

    gen_names = [(f"gan.physics_residual.{d}", "state") for d in STATE_DIMS]
    gen_names += [("gan.terminal_start_share", "ratio"),
                  ("gan.d_real_mean", "prob"), ("gan.d_fake_mean", "prob")]

    def generated():
        if pre is None:
            raise AttributeError("no generator in mode none")
        fake = gan.generate_encoded(pre.gan, GENERATED_ROWS, rng)
        residual, rejected = physics_residual(experience.decode_batch(fake, pre.stats, params),
                                              params)
        real = experience.encode_batch(pre.buffer.items, pre.stats)
        d_real = nn.forward(pre.gan.d, real)[0].mean()
        d_fake = nn.forward(pre.gan.d, fake)[0].mean()
        return [*np.nan_to_num(residual, nan=MISSING), rejected, d_real, d_fake]

    _guard(m, gen_names, generated)

    def enhancer_probes():
        if pre is None or pre.enhancer is None:
            raise AttributeError("no enhancer in this mode")
        holdout = experience.collect_random(params, HOLDOUT_EPISODES,
                                            np.random.default_rng([seed, 11]))
        encoded = experience.encode_batch(holdout.items, pre.stats)
        kl = pre.kl_history
        return [enhancer.enhancer_mse(pre.enhancer, encoded),
                kl[0] if kl else MISSING, kl[-1] if kl else MISSING]

    _guard(m, [("enhancer.holdout_mse", "mse"), ("enhancer.kl_first", "nats"),
               ("enhancer.kl_last", "nats")], enhancer_probes)
    return m
