"""Experiment orchestration, sample accounting, and curve metrics.

This module owns every phase of a run and their order; pretrain_pipeline
draws all pre-training rng values from one generator, in a fixed order.

The x-axis of every comparison is cumulative REAL environment samples:
synthetic replay costs zero, pre-training experience is charged as a fixed
offset before the first training episode.  The online phase acts through
the policy's log-odds (policy.logit_function) and never forms a
probability: a Bernoulli(sigmoid(g)) action is g >= log((1 - u) / u), so
the per-step sigmoid would be pure cost.

write_csv is the one formatter of every CSV cell the package writes: the
curve, aggregate, sweep and report tables here, and the loss and KL
histories egan.cli saves.  A float cell is the repr of a Python float, an
integer cell its digits and a string cell the string itself; no numpy scalar
is ever formatted, so every number cell parses back with int() or float().
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import cartpole, enhancer, experience, gan, policy
from .config import ExperimentConfig, validate
from .errors import ConfigError, CsvParseError, UsageError

DEFAULT_SEEDS = tuple(range(10))
CURVE_HEADER = "episode,reward,cumulative_samples"
_CURVE_RE = re.compile(r"curve_(?P<mode>[a-z]+)_(?P<seed>\d+)\.csv$")
# synthetic batches per generator call; 64 ran no faster and raised peak RSS
# by 2 MB, from the 4096-row generator activations
SYNTHETIC_CHUNK_BATCHES = 16


@dataclass
class LearningCurve:
    mode: str
    seed: int
    rewards: np.ndarray  # per-episode reward (= episode length on CartPole)
    cumulative_samples: np.ndarray  # offset included, strictly increasing
    offset: int

    def __len__(self) -> int:
        return len(self.rewards)


@dataclass
class Aggregate:
    bins: np.ndarray  # common cumulative-sample grid
    mean: np.ndarray
    std: np.ndarray


@dataclass
class PretrainResult:
    gan: gan.GanPair
    enhancer: enhancer.EnhancerModel | None  # None in mode gan
    stats: experience.NormalizationStats  # of the collected buffer
    buffer: experience.Transitions  # the collected random-policy transitions
    real_samples: int  # environment transitions consumed, charged to the curve
    gan_history: list
    enhancer_history: list
    kl_history: list
    useful_synthetic_batches: int  # synthetic batches with terminal and non-terminal rows


def _env_params(config: ExperimentConfig) -> cartpole.EnvParams:
    return replace(cartpole.DEFAULT_PARAMS, max_steps=config.env_max_steps)


def _synthetic_batches(pair: gan.GanPair, stats: experience.NormalizationStats,
                       config: ExperimentConfig, rng: np.random.Generator,
                       params: cartpole.EnvParams):
    """config.synthetic_batches generated batches of config.gan_batch_size rows.

    The generator runs once per SYNTHETIC_CHUNK_BATCHES batches; the noise
    is drawn in order either way, so the batches and the rng state after
    them equal one generate-and-decode call per batch.
    """
    size = config.gan_batch_size
    for first in range(0, config.synthetic_batches, SYNTHETIC_CHUNK_BATCHES):
        n = min(SYNTHETIC_CHUNK_BATCHES, config.synthetic_batches - first)
        encoded = gan.generate_encoded(pair, n * size, rng)
        chunk = experience.decode_batch(encoded, stats, params)
        for i in range(n):
            yield chunk.slice(i * size, (i + 1) * size)


def pretrain_pipeline(config: ExperimentConfig, agent: policy.PolicyAgent,
                      rng: np.random.Generator,
                      params: cartpole.EnvParams) -> PretrainResult:
    """Collect random experience, train the GAN (and, for egan, the enhancer
    plus the refinement loop), then pre-train the agent on generated batches;
    returns the models and the real-sample count the curve is offset by."""
    if config.mode not in ("gan", "egan"):
        raise UsageError(f"pretrain_pipeline needs mode gan or egan, got {config.mode!r}")
    buffer = experience.collect_random(params, config.pretrain_episodes, rng)
    stats = experience.compute_stats(buffer)
    encoded = experience.encode_batch(buffer, stats)

    pair = gan.make_gan(
        rng,
        noise_dim=config.noise_dim,
        g_hidden=config.g_hidden,
        d_hidden=config.d_hidden,
        learning_rate=config.gan_learning_rate,
        batch_size=config.gan_batch_size,
    )
    model = None
    enhancer_history, kl_history = [], []
    if config.mode == "egan":
        # built before train_gan, so its init draws come first from rng
        model = enhancer.make_enhancer(
            rng,
            hidden=config.enhancer_hidden,
            learning_rate=config.enhancer_learning_rate,
        )
    gan_history = gan.train_gan(pair, encoded, config.gan_train_steps, rng)
    if model is not None:
        enhancer_history = enhancer.train_enhancer(
            model, encoded, config.enhancer_train_steps, rng,
            batch_size=config.gan_batch_size,
        )
        kl_history = enhancer.egan_refine(
            pair,
            model,
            config.refine_iterations,
            config.kl_weight,
            rng,
            n_samples=config.refine_samples,
            learning_rate=config.refine_learning_rate,
        )
    del encoded  # freed before the synthetic phase, whose generator chunks set peak RSS
    useful_synthetic_batches = policy.pretrain_on_synthetic(
        agent,
        _synthetic_batches(pair, stats, config, rng, params),
        learning_rate=config.pretrain_learning_rate,
    )
    return PretrainResult(
        gan=pair,
        enhancer=model,
        stats=stats,
        buffer=buffer,
        real_samples=len(buffer),
        gan_history=gan_history,
        enhancer_history=enhancer_history,
        kl_history=kl_history,
        useful_synthetic_batches=useful_synthetic_batches,
    )


def run_experiment(config: ExperimentConfig, return_details: bool = False):
    """One full run of the configured mode; returns its learning curve.

    Mode none trains from scratch; gan/egan first run pretrain_pipeline
    (zero real samples on the synthetic batches) and start the curve offset
    by the pre-training buffer size.  Online episodes run in lockstep groups
    of pg_update_frequency on the frozen policy, each on its own child of the
    training SeedSequence; each group acts through one policy.logit_function
    built at its start, in log-odds space (experience.run_episodes compares
    each logit with a threshold drawn once per episode, so no step forms a
    probability), and each full group then takes one update (a trailing
    partial group takes none).  With return_details=True, also
    returns the pre-training result (None for mode none) and the trained agent.
    """
    validate(config)
    params = _env_params(config)
    pretrain_ss, agent_ss, train_ss = np.random.SeedSequence(config.seed).spawn(3)
    agent = policy.make_agent(
        np.random.default_rng(agent_ss),
        hidden=config.policy_hidden,
        learning_rate=config.pg_learning_rate,
        gamma=config.pg_discount,
    )
    pre = None
    if config.mode in ("gan", "egan"):
        pre = pretrain_pipeline(config, agent, np.random.default_rng(pretrain_ss), params)
    offset = pre.real_samples if pre else 0

    n_episodes = config.total_episodes()
    rewards = np.empty(n_episodes)
    cumulative = np.empty(n_episodes, dtype=np.int64)
    total = offset
    group = config.pg_update_frequency
    for start in range(0, n_episodes, group):
        logit = policy.logit_function(agent.net)
        rngs = [np.random.default_rng(s) for s in train_ss.spawn(min(group, n_episodes - start))]
        episodes = experience.run_episodes(logit, rngs, params)
        for ep, episode in enumerate(episodes, start):
            total += len(episode)
            rewards[ep] = episode.rewards.sum()
            cumulative[ep] = total
        if len(episodes) == group:
            policy.update_on_episodes(agent, episodes)
    curve = LearningCurve(config.mode, config.seed, rewards, cumulative, offset)
    if return_details:
        return curve, pre, agent
    return curve


def rolling_average(rewards, window: int = 100) -> np.ndarray:
    """Trailing mean; windows shorter than `window` average what is available."""
    if window < 1:
        raise UsageError(f"window must be >= 1, got {window}")
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        return r.copy()
    csum = np.cumsum(r)
    out = np.empty_like(r)
    head = min(window, r.size)
    out[:head] = csum[:head] / np.arange(1, head + 1)
    if r.size > window:
        out[window:] = (csum[window:] - csum[:-window]) / window
    return out


def samples_to_threshold(
    curve: LearningCurve, r_star: float, window: int = 100
) -> int | None:
    """Cumulative samples (offset included) at the first rolling-average
    crossing of r_star, or None when the curve never reaches it."""
    rolled = rolling_average(curve.rewards, window)
    hits = np.nonzero(rolled >= r_star)[0]
    if hits.size == 0:
        return None
    return int(curve.cumulative_samples[hits[0]])


def aggregate_runs(
    curves, bin_width: int = 500, window: int = 100
) -> Aggregate:
    """Resample rolling-average curves onto a shared cumulative-sample grid."""
    curves = list(curves)
    if len(curves) < 2:
        raise UsageError(f"aggregation needs >= 2 curves, got {len(curves)}")
    lo = max(int(c.cumulative_samples[0]) for c in curves)
    hi = min(int(c.cumulative_samples[-1]) for c in curves)
    start = int(math.ceil(lo / bin_width)) * bin_width
    if start > hi:
        raise UsageError("curves share no common cumulative-sample range")
    bins = np.arange(start, hi + 1, bin_width, dtype=np.int64)
    resampled = np.empty((len(curves), bins.size))
    for i, c in enumerate(curves):
        rolled = rolling_average(c.rewards, window)
        resampled[i] = np.interp(bins, c.cumulative_samples, rolled)
    return Aggregate(bins=bins, mean=resampled.mean(axis=0), std=resampled.std(axis=0))


@dataclass
class SweepResult:
    pretrain_episodes: int
    episode_mean: np.ndarray  # rolling reward vs online episode number
    episode_std: np.ndarray
    samples: Aggregate  # rolling reward vs cumulative real samples
    curves: list


def sweep_pretrain_length(
    base_config: ExperimentConfig,
    lengths,
    seeds=DEFAULT_SEEDS,
    window: int = 100,
    bin_width: int = 500,
) -> Iterator[SweepResult]:
    """Re-run the base configuration at each pre-training length over a shared
    seed set; aggregate per online episode number and per cumulative sample.
    The lists and every run's config are checked in this call; the runs go
    one length at a time as the returned iterator is consumed.  A length's
    curves are written to <out_dir>/len_<length>/ before they are aggregated,
    so a failed aggregation keeps every trained curve; its
    sweep_episodes_<length>.csv and sweep_samples_<length>.csv follow, and
    then its SweepResult is yielded."""
    lengths, seeds = list(lengths), list(seeds)
    if not lengths:
        raise ConfigError("lengths must be nonempty")
    if len(seeds) < 2:
        raise ConfigError(f"a sweep aggregates over seeds and needs >= 2, got {len(seeds)}")
    for name, values in (("lengths", lengths), ("seeds", seeds)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} must not repeat an entry, got {values}")
    grid = [[replace(base_config, pretrain_episodes=length, seed=seed) for seed in seeds]
            for length in lengths]
    for config in (c for configs in grid for c in configs):
        validate(config)
    out_dir = base_config.out_dir

    def results():
        for length, configs in zip(lengths, grid):
            curves = [run_experiment(config) for config in configs]
            curves_dir = os.path.join(out_dir, f"len_{length}")
            os.makedirs(curves_dir, exist_ok=True)
            for curve in curves:
                path = os.path.join(curves_dir, curve_filename(curve.mode, curve.seed))
                save_curve_csv(curve, path)
            rolled = np.array([rolling_average(c.rewards, window) for c in curves])
            res = SweepResult(
                pretrain_episodes=length,
                episode_mean=rolled.mean(axis=0),
                episode_std=rolled.std(axis=0),
                samples=aggregate_runs(curves, bin_width=bin_width, window=window),
                curves=curves,
            )
            write_csv(os.path.join(out_dir, f"sweep_episodes_{length}.csv"), "episode,mean,std",
                      np.arange(1, res.episode_mean.size + 1), res.episode_mean, res.episode_std)
            save_aggregate_csv(res.samples, os.path.join(out_dir, f"sweep_samples_{length}.csv"))
            yield res

    return results()


# ---------------------------------------------------------------------------
# CSV artifacts


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns as CSV rows under `header`.

    Each column goes through tolist(), so its cells are Python ints, floats
    or strings; str() of a Python float is its repr, the shortest text that
    reads back as the same float.
    """
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def curve_filename(mode: str, seed: int) -> str:
    return f"curve_{mode}_{seed}.csv"


def save_curve_csv(curve: LearningCurve, path) -> None:
    write_csv(path, CURVE_HEADER, np.arange(1, len(curve) + 1), curve.rewards,
              curve.cumulative_samples)


def load_curve_csv(path) -> LearningCurve:
    name = os.path.basename(str(path))
    match = _CURVE_RE.search(name)
    mode, seed = (match.group("mode"), int(match.group("seed"))) if match else ("?", -1)
    rewards, cumulative = [], []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CURVE_HEADER:
            raise CsvParseError(str(path), 1, f"unexpected header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise CsvParseError(str(path), line_no, "expected 3 fields")
            try:
                rewards.append(float(parts[1]))
                cumulative.append(int(parts[2]))
            except ValueError as exc:
                raise CsvParseError(str(path), line_no, str(exc)) from exc
    if not rewards:
        raise CsvParseError(str(path), 2, "curve file has no data rows")
    # episode reward equals episode length, so the offset is recoverable
    offset = cumulative[0] - int(rewards[0])
    return LearningCurve(
        mode, seed, np.array(rewards), np.array(cumulative, dtype=np.int64), offset
    )


def save_aggregate_csv(agg: Aggregate, path) -> None:
    write_csv(path, "samples_bin,mean,std", agg.bins, agg.mean, agg.std)


def find_curves(runs_dir) -> dict[str, list[LearningCurve]]:
    """All curve_<mode>_<seed>.csv files in a directory, grouped by mode."""
    groups: dict[str, list[LearningCurve]] = {}
    for name in sorted(os.listdir(runs_dir)):
        if _CURVE_RE.fullmatch(name):
            curve = load_curve_csv(os.path.join(runs_dir, name))
            groups.setdefault(curve.mode, []).append(curve)
    return groups


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    """Linear-interpolated quantile that stays silent on repeated infinities."""
    pos = q * (sorted_values.size - 1)
    lo, hi = int(math.floor(pos)), int(math.ceil(pos))
    a, b = float(sorted_values[lo]), float(sorted_values[hi])
    if a == b:
        return a
    frac = pos - lo
    return a * (1.0 - frac) + b * frac


def threshold_summary(curves, r_star: float, window: int = 100) -> tuple[float, float]:
    """(median, IQR) of samples-to-threshold; unreached runs count as inf, and
    equal quartiles, both unreached included, give an IQR of 0.0."""
    reached = (samples_to_threshold(c, r_star, window) for c in curves)
    values = np.sort([np.inf if v is None else float(v) for v in reached])
    lower, upper = _quantile(values, 0.25), _quantile(values, 0.75)
    return _quantile(values, 0.5), 0.0 if lower == upper else upper - lower


def write_report(runs_dir, r_star: float, window: int = 100,
                 bin_width: int = 500) -> list[tuple[str, float, float]]:
    """Aggregate every mode found in runs_dir and emit report.csv rows."""
    groups = find_curves(runs_dir)
    if not groups:
        raise UsageError(f"no curve CSVs found in {runs_dir}")
    order = [m for m in ("none", "gan", "egan") if m in groups] + sorted(
        m for m in groups if m not in ("none", "gan", "egan")
    )
    rows = []
    for mode in order:
        curves = groups[mode]
        if len(curves) >= 2:
            try:
                agg = aggregate_runs(curves, bin_width=bin_width, window=window)
            except UsageError:
                pass  # curves too short to share a bin; report rows still apply
            else:
                save_aggregate_csv(agg, os.path.join(runs_dir, f"aggregate_{mode}.csv"))
        median, iqr = threshold_summary(curves, r_star, window)
        rows.append((mode, median, iqr))
    write_csv(os.path.join(runs_dir, "report.csv"), "mode,median_samples_to_threshold,iqr",
              *zip(*rows))
    return rows
