"""Command-line entry points: run / sweep / report.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import enhancer, gan, harness, nn
from .config import ExperimentConfig, apply_overrides, config_to_text, load_config, validate
from .errors import ConfigError


def _build_config(args) -> ExperimentConfig:
    config = ExperimentConfig()
    if getattr(args, "config", None):
        config = load_config(args.config, base=config)
    flags = {"mode": args.mode, "seed": getattr(args, "seed", None), "out_dir": args.out}
    overrides = {name: str(value) for name, value in flags.items() if value is not None}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    config = apply_overrides(config, overrides)
    validate(config)
    return config


def _write_run_artifacts(config: ExperimentConfig, curve, pre, agent, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{config.mode}_{config.seed}"
    curve_path = os.path.join(out_dir, harness.curve_filename(config.mode, config.seed))
    harness.save_curve_csv(curve, curve_path)
    with open(os.path.join(out_dir, f"meta_{tag}.txt"), "w") as fh:
        fh.write(config_to_text(config))
    nn.save_network(agent.net, os.path.join(out_dir, f"policy_{tag}.txt"))
    if pre is not None:
        gan.save_loss_history(
            pre.gan_history, os.path.join(out_dir, f"gan_losses_{tag}.csv")
        )
        nn.save_network(pre.gan.g, os.path.join(out_dir, f"generator_{tag}.txt"))
        nn.save_network(pre.gan.d, os.path.join(out_dir, f"discriminator_{tag}.txt"))
        if pre.enhancer is not None:
            enhancer.save_kl_history(
                pre.kl_history, os.path.join(out_dir, f"kl_history_{tag}.csv")
            )
            nn.save_network(
                pre.enhancer.net, os.path.join(out_dir, f"enhancer_{tag}.txt")
            )
    return curve_path


def _cmd_run(args) -> int:
    config = _build_config(args)
    curve, pre, agent = harness.run_experiment(config, return_details=True)
    path = _write_run_artifacts(config, curve, pre, agent, config.out_dir)
    if pre is not None and config.synthetic_batches and not pre.useful_synthetic_batches:
        print(f"warning: all {config.synthetic_batches} synthetic batches had constant "
              "rewards; pre-training left the policy unchanged", file=sys.stderr)
    final = harness.rolling_average(curve.rewards)[-1]
    print(
        f"mode={config.mode} seed={config.seed} episodes={len(curve)} "
        f"offset={curve.offset} final_rolling_reward={final:.1f} -> {path}"
    )
    return 0


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    lengths = _int_list("--lengths", args.lengths)
    if not lengths:
        raise ConfigError("--lengths must name at least one pre-training length")
    seeds = _int_list("--seeds", args.seeds) if args.seeds else list(harness.DEFAULT_SEEDS)
    if len(seeds) < 2:
        raise ConfigError(f"--seeds must name at least 2 seeds to aggregate, got {len(seeds)}")
    results = harness.sweep_pretrain_length(config, lengths, seeds=seeds)
    for res in results:
        subdir = os.path.join(config.out_dir, f"len_{res.pretrain_episodes}")
        os.makedirs(subdir, exist_ok=True)  # and out_dir with it
        for curve in res.curves:
            harness.save_curve_csv(
                curve, os.path.join(subdir, harness.curve_filename(curve.mode, curve.seed))
            )
        ep_path = os.path.join(config.out_dir, f"sweep_episodes_{res.pretrain_episodes}.csv")
        lines = ["episode,mean,std"]
        for i, (m, s) in enumerate(zip(res.episode_mean, res.episode_std)):
            lines.append(f"{i + 1},{m!r},{s!r}")
        with open(ep_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        harness.save_aggregate_csv(
            res.samples,
            os.path.join(config.out_dir, f"sweep_samples_{res.pretrain_episodes}.csv"),
        )
        print(
            f"pretrain_episodes={res.pretrain_episodes} seeds={len(res.curves)} "
            f"final_mean_rolling={res.episode_mean[-1]:.1f}"
        )
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
    sweep.add_argument("--mode", choices=("gan", "egan"), default="egan")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="aggregate curves and summarize thresholds")
    report.add_argument("--runs", required=True, help="directory of curve CSVs")
    report.add_argument("--threshold", type=float, default=120.0)
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
