"""Experiment configuration: one flat dataclass, one flat key=value file format.

Defaults reproduce the reference hyperparameter table exactly: D/G nets
[40, 20] at lr 5e-6 with sample size 64, enhancer [60, 60], policy net [32]
at lr 1e-3 with discount 0.99 and update frequency 5, a 500-episode
pre-training buffer, 5000 training episodes, 6000 synthetic batches, and
k = 2 refinement iterations.

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
    g_hidden: tuple = (40, 20)
    d_hidden: tuple = (40, 20)
    gan_learning_rate: float = 5e-6
    gan_batch_size: int = 64
    gan_train_steps: int = 30000  # adam at 5e-6 needs ~30k steps to leave init
    noise_dim: int = 16
    enhancer_hidden: tuple = (60, 60)
    enhancer_learning_rate: float = 1e-3
    enhancer_train_steps: int = 3000
    refine_iterations: int = 2  # k
    refine_learning_rate: float = 1e-3
    refine_samples: int = 6000
    kl_weight: float = 1.0  # lambda

    # training phase
    training_episodes: int = 5000
    synthetic_batches: int = 6000
    pretrain_learning_rate: float = 1e-5  # step size for the synthetic phase
    policy_hidden: tuple = (32,)
    pg_learning_rate: float = 1e-3
    pg_discount: float = 0.99
    pg_update_frequency: int = 5

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
    # a D step and a moment fit each need >= 2 batch rows
    minimums = {
        "seed": 0,  # np.random.SeedSequence rejects negative entropy
        "pretrain_episodes": 1,
        "gan_batch_size": 2,
        "gan_train_steps": 1,
        "noise_dim": 1,
        "enhancer_train_steps": 1,
        "refine_samples": 2,
        "training_episodes": 1,
        "pg_update_frequency": 1,
        "env_max_steps": 1,
        "synthetic_batches": 0,
        "refine_iterations": 0,
    }
    for name, least in minimums.items():
        if getattr(config, name) < least:
            raise ConfigError(f"{name} must be >= {least}, got {getattr(config, name)}")
    # nan is false under every ordered comparison, so it slips past the
    # bound checks below, and inf passes the lower bounds: check finiteness
    # first, on every float field
    for f in fields(ExperimentConfig):
        if isinstance(f.default, float) and not math.isfinite(getattr(config, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(config, f.name)}")
    positive_floats = (
        "gan_learning_rate",
        "enhancer_learning_rate",
        "refine_learning_rate",
        "pg_learning_rate",
        "pretrain_learning_rate",
    )
    for name in positive_floats:
        if getattr(config, name) <= 0:
            raise ConfigError(f"{name} must be positive, got {getattr(config, name)}")
    if config.kl_weight < 0:
        raise ConfigError(f"kl_weight must be >= 0, got {config.kl_weight}")
    if not 0.0 < config.pg_discount <= 1.0:
        raise ConfigError(f"pg_discount must be in (0, 1], got {config.pg_discount}")
    for name in ("g_hidden", "d_hidden", "enhancer_hidden", "policy_hidden"):
        value = getattr(config, name)
        if not value or any(int(v) < 1 for v in value):
            raise ConfigError(f"{name} must be nonempty positive ints, got {value}")


def _parse_value(name: str, text: str, target_type):
    text = text.strip()
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is tuple:
            return tuple(int(tok) for tok in text.split(",") if tok.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply string-valued overrides, parsed per the target field's type."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    updates = {}
    for name, raw in overrides.items():
        if name not in types:
            raise ConfigError(f"unknown config key {name!r}")
        updates[name] = _parse_value(name, raw, type(getattr(defaults, name)))
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
    lines = [
        f"{f.name} = {_format_value(getattr(config, f.name))}"
        for f in fields(ExperimentConfig)
    ]
    return "\n".join(lines) + "\n"
