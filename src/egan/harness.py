"""Experiment orchestration, sample accounting, curve metrics and artifacts.

This module owns every phase of a run and their order; pretrain_pipeline
draws all pre-training rng values from one generator, in a fixed order.
run_experiment returns one Run record.  This module names every file the
package writes: write_run a run's and write_report a report's, and
sweep_pretrain_length calls both for each pre-training length.  The online
phase acts in log-odds (egan.policy).

The x-axis of every comparison is cumulative REAL environment samples:
synthetic replay costs zero, pre-training experience is charged as a fixed
offset, the size of its buffer, before the first training episode.

write_csv is the one formatter of every CSV cell the package writes.  A
float cell is the repr of a Python float, an integer cell its digits and a
string cell the string itself; no numpy scalar is ever formatted, so every
number cell parses back with int() or float().
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import cartpole, enhancer, experience, gan, nn, policy
from .config import ExperimentConfig, config_to_text, validate
from .errors import ConfigError, CsvParseError, UsageError

DEFAULT_SEEDS = tuple(range(10))
DEFAULT_THRESHOLD = 120.0  # the pre-registered r*, in rolling-average reward
CURVE_HEADER = "episode,reward,cumulative_samples"
_CURVE_RE = re.compile(r"curve_(?P<mode>[a-z]+)_(?P<seed>\d+)\.csv$")
# synthetic batches per generator call; 64 ran no faster and raised peak RSS
# by 2 MB, from the 4096-row generator activations
SYNTHETIC_CHUNK_BATCHES = 16
EPISODES_PER_UPDATE = 5  # the paper's policy update frequency


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
    buffer: experience.Transitions  # the random-policy transitions, charged to the curve
    gan_history: list
    enhancer_history: list
    kl_history: list
    useful_synthetic_batches: int  # synthetic batches with terminal and non-terminal rows


def _env_params(config: ExperimentConfig) -> cartpole.EnvParams:
    return replace(cartpole.DEFAULT_PARAMS, max_steps=config.env_max_steps)


def _synthetic_batches(pair: gan.GanPair, stats: experience.NormalizationStats,
                       config: ExperimentConfig, rng: np.random.Generator,
                       params: cartpole.EnvParams):
    """config.synthetic_batches generated batches of pair.batch_size rows.

    The generator runs once per SYNTHETIC_CHUNK_BATCHES batches; the noise
    is drawn in order either way, so the batches and the rng state after
    them equal one generate-and-decode call per batch.
    """
    size = pair.batch_size
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
    returns the models and the buffer whose size the curve is offset by."""
    if config.mode not in ("gan", "egan"):
        raise UsageError(f"pretrain_pipeline needs mode gan or egan, got {config.mode!r}")
    buffer = experience.collect_random(params, config.pretrain_episodes, rng)
    stats = experience.compute_stats(buffer)
    encoded = experience.encode_batch(buffer, stats)

    pair = gan.make_gan(rng)
    model = None
    enhancer_history, kl_history = [], []
    if config.mode == "egan":
        # built before train_gan, so its init draws come first from rng
        model = enhancer.make_enhancer(rng)
    gan_history = gan.train_gan(pair, encoded, config.gan_train_steps, rng)
    if model is not None:
        enhancer_history = enhancer.train_enhancer(
            model, encoded, config.enhancer_train_steps, rng, batch_size=pair.batch_size)
        kl_history = enhancer.egan_refine(pair, model, rng)
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
        gan_history=gan_history,
        enhancer_history=enhancer_history,
        kl_history=kl_history,
        useful_synthetic_batches=useful_synthetic_batches,
    )


class Run(NamedTuple):
    """Everything one run produced; write_run saves it."""
    curve: LearningCurve
    pretrain: PretrainResult | None  # None in mode none
    agent: policy.PolicyAgent  # the trained policy


def run_experiment(config: ExperimentConfig) -> Run:
    """One full run of the configured mode.

    Mode none trains from scratch; gan/egan first run pretrain_pipeline
    (zero real samples on the synthetic batches) and start the curve offset
    by the pre-training buffer size.  Online episodes run in lockstep groups
    of EPISODES_PER_UPDATE on the frozen policy, each on its own child of the
    training SeedSequence; each group acts through one policy.logit_function
    built at its start (log-odds acting, see egan.policy), and each full
    group then takes one update (a trailing partial group takes none).
    """
    validate(config)
    params = _env_params(config)
    pretrain_ss, agent_ss, train_ss = np.random.SeedSequence(config.seed).spawn(3)
    agent = policy.make_agent(np.random.default_rng(agent_ss))
    pre = None
    if config.mode in ("gan", "egan"):
        pre = pretrain_pipeline(config, agent, np.random.default_rng(pretrain_ss), params)
    offset = len(pre.buffer) if pre else 0

    n_episodes = config.total_episodes()
    rewards = np.empty(n_episodes)
    cumulative = np.empty(n_episodes, dtype=np.int64)
    total = offset
    group = EPISODES_PER_UPDATE
    for start in range(0, n_episodes, group):
        logit = policy.logit_function(agent.net)
        rngs = [np.random.default_rng(s) for s in train_ss.spawn(min(group, n_episodes - start))]
        episodes = experience.run_episodes(logit, rngs, params)
        for ep, episode in enumerate(episodes, start):
            total += len(episode)
            rewards[ep] = len(episode)
            cumulative[ep] = total
        if len(episodes) == group:
            policy.update_on_episodes(agent, episodes)
    return Run(LearningCurve(config.mode, config.seed, rewards, cumulative, offset), pre, agent)


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


def sweep_pretrain_length(
    base_config: ExperimentConfig, lengths, seeds=DEFAULT_SEEDS
) -> Iterator[tuple[int, list[Run]]]:
    """Re-run the base configuration at each pre-training length over a shared
    seed set.  The lists and every run's config are checked, and the output
    directories made, in this call; the returned iterator runs one length at
    a time.  write_run writes each run into <out_dir>/len_<length>/, as
    `egan run` would; write_report then aggregates that directory at
    DEFAULT_THRESHOLD, and (length, runs) is yielded, one Run per seed."""
    lengths, seeds = list(lengths), list(seeds)
    for name, values in (("lengths", lengths), ("seeds", seeds)):
        if not values:
            raise ConfigError(f"{name} must be nonempty")
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} must not repeat an entry, got {values}")
    grid = {length: [replace(base_config, pretrain_episodes=length, seed=seed,
                             out_dir=os.path.join(base_config.out_dir, f"len_{length}"))
                     for seed in seeds]
            for length in lengths}
    for config in (c for configs in grid.values() for c in configs):
        validate(config)
    for configs in grid.values():
        make_out_dir(configs[0].out_dir)

    def results():
        for length, configs in grid.items():
            runs = []
            for config in configs:
                run = run_experiment(config)
                write_run(run, config)
                runs.append(run)
            write_report(configs[0].out_dir, DEFAULT_THRESHOLD)
            yield length, runs

    return results()


# ---------------------------------------------------------------------------
# Artifacts


def make_out_dir(path):
    """Create the output directory path and return it; ConfigError if it cannot be one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {str(path)!r}: {exc.strerror}") from exc
    return path


def write_run(run: Run, config: ExperimentConfig) -> str:
    """Write a run's files into config.out_dir (see make_out_dir); returns the
    curve's path.  With tag <mode>_<seed>, every mode writes curve_<tag>.csv,
    meta_<tag>.txt (the config) and policy_<tag>.txt; gan and egan add
    gan_losses_<tag>.csv, generator_<tag>.txt and discriminator_<tag>.txt;
    egan adds enhancer_losses_<tag>.csv, kl_history_<tag>.csv and
    enhancer_<tag>.txt.  Each .txt net is an nn.save_network checkpoint."""
    curve, pre, agent = run

    def path(kind: str, ext: str = "txt") -> str:
        return os.path.join(config.out_dir, f"{kind}_{config.mode}_{config.seed}.{ext}")

    curve_path = os.path.join(config.out_dir, curve_filename(config.mode, config.seed))
    save_curve_csv(curve, curve_path)
    with open(path("meta"), "w") as fh:
        fh.write(config_to_text(config))
    nn.save_network(agent.net, path("policy"))
    if pre is not None:
        d_loss, g_loss = zip(*pre.gan_history)  # gan_train_steps >= 1 rounds
        write_csv(path("gan_losses", "csv"), "step,d_loss,g_loss", range(len(d_loss)),
                  d_loss, g_loss)
        nn.save_network(pre.gan.g, path("generator"))
        nn.save_network(pre.gan.d, path("discriminator"))
        if pre.enhancer is not None:
            write_csv(path("enhancer_losses", "csv"), "step,mse",
                      range(len(pre.enhancer_history)), pre.enhancer_history)
            write_csv(path("kl_history", "csv"), "iter,kl", range(1, len(pre.kl_history) + 1),
                      pre.kl_history)
            nn.save_network(pre.enhancer.net, path("enhancer"))
    return curve_path


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


def find_curves(runs_dir) -> dict[str, list[LearningCurve]]:
    """All curve_<mode>_<seed>.csv files in a directory, grouped by mode."""
    if not os.path.isdir(runs_dir):
        raise ConfigError(f"runs directory {str(runs_dir)!r}: no such directory")
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
    """Aggregate every mode found in runs_dir and emit report.csv rows.  A mode
    with >= 2 curves gets aggregate_episodes_<mode>.csv, the mean and std of
    the rolling averages at each online episode all its curves have, and,
    unless its curves share no bin, aggregate_<mode>.csv (aggregate_runs).
    A reported mode's table that this report does not write is removed, so
    no table outlives the curves it was made from."""
    groups = find_curves(runs_dir)
    if not groups:
        raise UsageError(f"no curve CSVs found in {runs_dir}")
    order = [m for m in ("none", "gan", "egan") if m in groups] + sorted(
        m for m in groups if m not in ("none", "gan", "egan")
    )
    rows = []
    for mode in order:
        curves = groups[mode]
        episodes_table = os.path.join(runs_dir, f"aggregate_episodes_{mode}.csv")
        samples_table = os.path.join(runs_dir, f"aggregate_{mode}.csv")
        for path in (episodes_table, samples_table):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if len(curves) >= 2:
            n = min(map(len, curves))
            rolled = np.array([rolling_average(c.rewards[:n], window) for c in curves])
            write_csv(episodes_table, "episode,mean,std", np.arange(1, n + 1),
                      rolled.mean(axis=0), rolled.std(axis=0))
            try:
                agg = aggregate_runs(curves, bin_width=bin_width, window=window)
            except UsageError:
                pass  # curves too short to share a bin; report rows still apply
            else:
                write_csv(samples_table, "samples_bin,mean,std", agg.bins, agg.mean, agg.std)
        median, iqr = threshold_summary(curves, r_star, window)
        rows.append((mode, median, iqr))
    write_csv(os.path.join(runs_dir, "report.csv"), "mode,median_samples_to_threshold,iqr",
              *zip(*rows))
    return rows
