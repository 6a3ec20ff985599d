"""Command-line entry points: run / sweep / report.

The CLI parses arguments, dispatches to egan.harness and prints; harness
makes the output directories before any training and writes every file.
`sweep` runs `run` at each (pre-training length, seed) into len_<length>/
and then `report` over each length's directory.  Both `run` and `sweep`
print one stderr warning per run whose synthetic phase left the policy
unchanged; stdout stays one summary line per run or per length.
A config value comes from its flag (--mode, --seed, --out), else from --set,
else from the --config file, else from the ExperimentConfig default.
`sweep` rejects seed and pretrain_episodes there: --seeds and --lengths set them.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import harness
from .config import ExperimentConfig, apply_overrides, read_config_file, validate
from .errors import ConfigError


def _build_config(args, fixed: dict[str, str]) -> ExperimentConfig:
    """The command's config; a `fixed` key (key -> its flag) in --set or --config is an error."""
    items = read_config_file(args.config) if getattr(args, "config", None) else {}
    config = apply_overrides(ExperimentConfig(), items)
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    named = sorted(fixed.keys() & (items.keys() | overrides.keys()))
    if named:
        raise ConfigError(f"{args.command} takes {named[0]} from {fixed[named[0]]}, "
                          "not from --set or --config")
    # a flag beats a --set of its key, as --set beats the config file
    flags = {"mode": args.mode, "seed": getattr(args, "seed", None), "out_dir": args.out}
    overrides.update({name: str(value) for name, value in flags.items() if value is not None})
    config = apply_overrides(config, overrides)
    validate(config)
    return config


def _warn_if_unmoved(run: harness.Run, synthetic_batches: int, label: str) -> None:
    """One stderr line for a run whose synthetic phase left the policy unchanged."""
    pre = run.pretrain
    if pre is not None and synthetic_batches and not pre.useful_synthetic_batches:
        print(f"warning: {label}: none of the {synthetic_batches} synthetic batches moved "
              "the policy; pre-training left it unchanged", file=sys.stderr)


def _cmd_run(args) -> int:
    config = _build_config(args, {})
    harness.make_out_dir(config.out_dir)
    run = harness.run_experiment(config)
    path = harness.write_run(run, config)
    _warn_if_unmoved(run, config.synthetic_batches, f"seed={config.seed}")
    final = harness.rolling_average(run.curve.rewards)[-1]
    print(f"mode={config.mode} seed={config.seed} episodes={len(run.curve)} "
          f"offset={run.curve.offset} final_rolling_reward={final:.1f} -> {path}")
    return 0


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _cmd_sweep(args) -> int:
    config = _build_config(args, {"seed": "--seeds", "pretrain_episodes": "--lengths"})
    lengths = _int_list("--lengths", args.lengths)
    seeds = (list(harness.DEFAULT_SEEDS) if args.seeds is None
             else _int_list("--seeds", args.seeds))
    for length, runs in harness.sweep_pretrain_length(config, lengths, seeds=seeds):
        for run in runs:
            _warn_if_unmoved(run, config.synthetic_batches,
                             f"pretrain_episodes={length} seed={run.curve.seed}")
        final = sum(harness.rolling_average(r.curve.rewards)[-1] for r in runs) / len(runs)
        print(f"pretrain_episodes={length} seeds={len(runs)} final_mean_rolling={final:.1f}",
              flush=True)
    return 0


def _cmd_report(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    rows = harness.write_report(args.runs, args.threshold, window=args.window)
    for mode, median, iqr in rows:
        print(f"{mode}: median_samples_to_threshold={median} iqr={iqr}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egan",
        description="Synthetic-replay pre-training experiments on CartPole",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its curve")
    run.add_argument("--mode", choices=("none", "gan", "egan"), required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--config", default=None, help="key=value config file")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override any config field")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="sweep pre-training lengths over seeds")
    sweep.add_argument("--lengths", required=True, help="e.g. 500,5000")
    sweep.add_argument("--seeds", default=None, help="e.g. 0,1,2 (default 0..9)")
    sweep.add_argument("--mode", choices=("gan", "egan"), required=True)
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="aggregate curves and summarize thresholds")
    report.add_argument("--runs", required=True, help="directory of curve CSVs")
    report.add_argument("--threshold", type=float, default=harness.DEFAULT_THRESHOLD)
    report.add_argument("--window", type=int, default=100)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
