"""Experiment configuration: one flat dataclass, one flat key=value file format.

The dataclass holds what a run varies: the mode, the seed, the output
directory, the phase lengths, the environment's step cap and the synthetic
phase's step size.  Its defaults are the reference run: a 500-episode
pre-training buffer, 30k GAN steps, 3000 enhancer steps, 5000 training
episodes, 6000 synthetic batches and a 200-step cap.

The paper's fixed hyperparameters are no config keys.  Each is the default
of the one function that uses it: the D/G nets [40, 20] at lr 5e-6 on
64-row batches (gan.make_gan), the enhancer [60, 60] (enhancer.make_enhancer),
k = 2 refinement rounds (enhancer.egan_refine), the policy net [32] at lr
1e-3 with discount 0.99 (policy.make_agent), and one update per 5 episodes
(harness.EPISODES_PER_UPDATE).

No key selects a numeric precision: the generator, discriminator and
enhancer always train in float32 and the policy in float64 (see egan.nn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

MODES = ("none", "gan", "egan")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "none"
    seed: int = 0
    out_dir: str = "runs"

    # pre-training phase
    pretrain_episodes: int = 500
    gan_train_steps: int = 30000  # adam at 5e-6 needs ~30k steps to leave init
    enhancer_train_steps: int = 3000

    # training phase
    training_episodes: int = 5000
    synthetic_batches: int = 6000
    pretrain_learning_rate: float = 1e-5  # step size for the synthetic phase

    # environment
    env_max_steps: int = 200

    def total_episodes(self) -> int:
        """Mode none trains longer by the pre-training budget, for fair totals."""
        if self.mode == "none":
            return self.training_episodes + self.pretrain_episodes
        return self.training_episodes


def validate(config: ExperimentConfig) -> None:
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}")
    minimums = {
        "seed": 0,  # np.random.SeedSequence rejects negative entropy
        "pretrain_episodes": 1,
        "gan_train_steps": 1,
        "enhancer_train_steps": 1,
        "training_episodes": 1,
        "env_max_steps": 1,
        "synthetic_batches": 0,
    }
    for name, least in minimums.items():
        if getattr(config, name) < least:
            raise ConfigError(f"{name} must be >= {least}, got {getattr(config, name)}")
    # nan is false under every ordered comparison, so it slips past the
    # bound check below, and inf passes it: check finiteness first, on every
    # float field
    for f in fields(ExperimentConfig):
        if isinstance(f.default, float) and not math.isfinite(getattr(config, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(config, f.name)}")
    if config.pretrain_learning_rate <= 0:
        raise ConfigError(
            f"pretrain_learning_rate must be positive, got {config.pretrain_learning_rate}")


def _parse_value(name: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply string-valued overrides, parsed per the target field's type."""
    types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    updates = {}
    for name, raw in overrides.items():
        if name not in types:
            raise ConfigError(f"unknown config key {name!r}")
        updates[name] = _parse_value(name, raw, types[name])
    return replace(config, **updates)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read `key = value` lines; '#' starts a comment, blank lines are ignored."""
    overrides = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, value = line.split("=", 1)
                overrides[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return apply_overrides(base or ExperimentConfig(), overrides)


def config_to_text(config: ExperimentConfig) -> str:
    """One `key = value` line per field; str() of a float is its repr, which
    reads back as the same float."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"
