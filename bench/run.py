"""Benchmark of the user-facing `egan run` path.

    python3 bench/run.py --workload online --seed 0 --seconds 32 --trace 0

Run from the repository root. With --trace 0 it launches `egan run`
repetitions of the workload, one fresh worker interpreter at a time, until
--seconds have passed, checks every repetition's output, and reports the
end-to-end metrics over the repetitions. With --trace 1 it runs the kernel
micro-benchmarks and two untraced and two traced repetitions, and reports the
per-layer metrics. --workload all runs every workload in turn.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Metric names and units come from BENCHMARK.json at the
repository root; a metric the run could not measure reads -1 (see layers.py).
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MISSING = -1.0
WORKLOAD_LIMIT_S = 170  # every repetition of one workload ends within this
ROUNDTRIP_TOLERANCE = 1e-9  # state units; real transitions probe at ~1e-16
RANDOM_POLICY_REWARD = 22.0  # mean CartPole episode length under random actions
MIN_FINAL_REWARD = 2.5 * RANDOM_POLICY_REWARD
THRESHOLD_SHARE = 0.6  # samples_to_threshold uses 0.6 * env_max_steps (120 at 200)
ROLLING_WINDOW = 100
CURVE_HEADER = "episode,reward,cumulative_samples"

# One BLAS thread per worker: the nets are tiny, so extra threads only add
# scheduling noise on a small machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Each workload is one `egan run` configuration; see README.md for why.
WORKLOADS = {
    "online": {
        "mode": "none",
        "set": {"training_episodes": 2000, "pretrain_episodes": 500, "env_max_steps": 100},
    },
    "egan_pretrain": {
        "mode": "egan",
        "set": {"pretrain_episodes": 500, "gan_train_steps": 3000,
                "enhancer_train_steps": 1000, "synthetic_batches": 100,
                "training_episodes": 20},
    },
    "synthetic_replay": {
        "mode": "gan",
        "set": {"pretrain_episodes": 500, "gan_train_steps": 200,
                "synthetic_batches": 1500, "training_episodes": 20},
    },
}
ENV_MAX_STEPS_DEFAULT = 200
# Per-layer metrics run.py itself derives from the traced repetition.
TRACE_RUN_METRICS = {"harness.run_s": "s", "trace.overhead_s": "s",
                     "harness.final_rolling_reward": "reward",
                     "harness.samples_to_threshold": "count"}


class Rep:
    """One `egan run` repetition: its readings and whatever it failed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.problems: list[str] = []
        self.worker: dict = {}
        self.setup_s = self.run_s = None
        self.rewards: list[float] = []
        self.cumulative: list[int] = []
        self.curve_digest = None

    @property
    def ok(self) -> bool:
        return not self.problems


def egan_seeds(workload: str, seed: int, n: int = 64) -> list[int]:
    """The program seeds a benchmark seed stands for; same seed, same list."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def env_max_steps(workload: str) -> int:
    return WORKLOADS[workload]["set"].get("env_max_steps", ENV_MAX_STEPS_DEFAULT)


def expected_episodes(workload: str) -> int:
    """config.total_episodes(): mode none also trains for the pre-training budget."""
    spec = WORKLOADS[workload]
    episodes = spec["set"]["training_episodes"]
    if spec["mode"] == "none":
        episodes += spec["set"]["pretrain_episodes"]
    return episodes


def rolling_mean(values: list[float], window: int = ROLLING_WINDOW) -> list[float]:
    """Trailing mean; the first windows average what is available."""
    out, acc = [], 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def run_rep(root: str, workload: str, seed: int, work_dir: str, traced: bool,
            deadline: float) -> Rep:
    rep = Rep(workload, seed)
    spec = WORKLOADS[workload]
    out_dir = tempfile.mkdtemp(prefix=f"{workload}_{seed}_", dir=work_dir)
    result_path = os.path.join(out_dir, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), result_path,
           "1" if traced else "0", "--", "run", "--mode", spec["mode"],
           "--seed", str(seed), "--out", out_dir]
    for key, value in spec["set"].items():
        cmd += ["--set", f"{key}={value}"]
    env = dict(os.environ, **BLAS_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        rep.problems.append(f"timed out after {time.monotonic() - t_spawn:.0f} s")
        return rep
    if proc.returncode != 0:
        rep.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rep
    try:
        with open(result_path) as fh:
            rep.worker = json.load(fh)
    except (OSError, ValueError) as exc:
        rep.problems.append(f"no worker result: {exc}")
        return rep
    if not rep.worker["hooked"]:
        print("harness.run_experiment is gone: setup_s covers imports only",
              file=sys.stderr)
    rep.setup_s = rep.worker["t_work"] - t_spawn
    rep.run_s = rep.worker["t_end"] - rep.worker["t_work"]
    check_rep(rep, proc.stdout, os.path.join(out_dir, f"curve_{spec['mode']}_{seed}.csv"))
    return rep


def check_rep(rep: Rep, stdout: str, curve_path: str) -> None:
    """The per-repetition correctness checks; failures go to rep.problems."""
    spec = WORKLOADS[rep.workload]
    problems = rep.problems
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith(f"mode={spec['mode']} "):
        problems.append(f"stdout is not one summary line: {stdout!r}")
    try:
        with open(curve_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        problems.append(f"no curve: {exc}")
        return
    rep.curve_digest = hashlib.sha256(data).hexdigest()
    rows = data.decode().splitlines()
    if not rows or rows[0] != CURVE_HEADER:
        problems.append("curve header differs")
        return
    try:
        for row in rows[1:]:
            _, reward, cumulative = row.split(",")
            rep.rewards.append(float(reward))
            rep.cumulative.append(int(cumulative))
    except ValueError as exc:
        problems.append(f"bad curve row: {exc}")
        return
    if len(rep.rewards) != expected_episodes(rep.workload):
        problems.append(f"curve has {len(rep.rewards)} rows, "
                        f"expected {expected_episodes(rep.workload)}")
        return
    if any(b <= a for a, b in zip(rep.cumulative, rep.cumulative[1:])):
        problems.append("cumulative_samples is not strictly increasing")
    cap = env_max_steps(rep.workload)
    if not all(1.0 <= r <= cap for r in rep.rewards):
        problems.append(f"a reward lies outside [1, {cap}]")
    offset = rep.cumulative[0] - int(rep.rewards[0])
    if f" offset={offset} " not in f" {stdout.strip()} ":
        problems.append(f"summary offset differs from the curve's offset {offset}")
    if spec["mode"] == "none":
        if offset != 0:
            problems.append(f"mode none has offset {offset}")
    elif not spec["set"]["pretrain_episodes"] <= offset <= spec["set"]["pretrain_episodes"] * cap:
        problems.append(f"offset {offset} is not a pre-training buffer size")
    buffer_size = rep.worker.get("pretrain_buffer_size")
    if buffer_size is not None and buffer_size != offset:
        problems.append(f"offset {offset} != pre-training buffer size {buffer_size}")
    residual = rep.worker.get("roundtrip_residual", MISSING)
    if residual != MISSING and not 0.0 <= residual < ROUNDTRIP_TOLERANCE:
        problems.append(f"encode/decode roundtrip residual {residual} above rounding level")
    if rep.workload == "online" and rolling_mean(rep.rewards)[-1] < MIN_FINAL_REWARD:
        problems.append(f"final rolling reward {rolling_mean(rep.rewards)[-1]:.1f} "
                        f"below {MIN_FINAL_REWARD}")


def check_determinism(reps: list[Rep]) -> None:
    """Every repetition with the same seed must give a byte-identical curve."""
    first = {}
    for rep in reps:
        if rep.curve_digest is None:
            continue
        digest = first.setdefault(rep.seed, rep.curve_digest)
        if digest != rep.curve_digest:
            rep.problems.append(f"curve of seed {rep.seed} differs from an earlier repetition")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else MISSING


def end_to_end(reps: list[Rep]) -> dict:
    good = [r for r in reps if r.ok]
    return {
        "setup_s": _median([r.setup_s for r in good]),
        "run_s": _median([r.run_s for r in good]),
        "real_samples_per_s": (sum(r.cumulative[-1] for r in good)
                               / sum(r.run_s for r in good)) if good else MISSING,
        "peak_rss_mb": _median([r.worker["maxrss_kb"] / 1024.0 for r in good]),
    }


def measure(root, workload, seed, seconds, work_dir, deadline) -> tuple[list[Rep], dict]:
    """Repetitions until `seconds` have passed; the first seed runs twice so the
    determinism check always has a pair."""
    seeds = egan_seeds(workload, seed)
    order = [seeds[0]] + seeds
    reps = []
    start = time.monotonic()
    while len(reps) < len(order) and (len(reps) < 2 or time.monotonic() - start < seconds):
        reps.append(run_rep(root, workload, order[len(reps)], work_dir, False, deadline))
    check_determinism(reps)
    return reps, end_to_end(reps)


def kernel_metrics(root: str, work_dir: str, timeout: float) -> dict:
    """Run kernel_bench.py under pytest-benchmark; metric -> median in us."""
    json_path = os.path.join(work_dir, "kernels.json")
    cmd = [sys.executable, "-m", "pytest", os.path.join(HERE, "kernel_bench.py"), "-q",
           "-p", "no:cacheprovider", "-p", "no:hypothesispytest", f"--benchmark-json={json_path}",
           f"--benchmark-storage=file://{os.path.join(work_dir, 'benchmarks')}",
           "--benchmark-max-time=0.1", "--benchmark-min-rounds=20"]
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                       timeout=timeout)
        with open(json_path) as fh:
            data = json.load(fh)
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"kernel benchmarks gave no result: {exc}", file=sys.stderr)
        return {}
    return {b["extra_info"]["metric"]: b["stats"]["median"] * 1e6
            for b in data.get("benchmarks", []) if "metric" in b.get("extra_info", {})}


def trace(root, workload, seed, work_dir, deadline) -> tuple[list[Rep], dict]:
    """Kernels, then untraced and traced repetitions of one seed, alternating.

    The per-layer metrics come from the last traced repetition; the tracing
    overhead compares the traced and untraced medians."""
    metrics = kernel_metrics(root, work_dir, timeout=60.0)
    s0 = egan_seeds(workload, seed)[0]
    reps = [run_rep(root, workload, s0, work_dir, traced, deadline)
            for traced in (False, True, False, True)]
    check_determinism(reps)
    if not all(r.ok for r in reps):
        return reps, metrics
    traced = reps[-1]
    metrics.update(traced.worker.get("metrics", {}))
    metrics["harness.run_s"] = traced.run_s
    metrics["trace.overhead_s"] = (_median([r.run_s for r in reps[1::2]])
                                   - _median([r.run_s for r in reps[0::2]]))
    rolled = rolling_mean(traced.rewards)
    metrics["harness.final_rolling_reward"] = rolled[-1]
    threshold = THRESHOLD_SHARE * env_max_steps(workload)
    hit = next((i for i, v in enumerate(rolled) if v >= threshold), None)
    metrics["harness.samples_to_threshold"] = (
        float(traced.cumulative[hit]) if hit is not None else MISSING)
    return reps, metrics


def declared_metrics(root: str, traced: bool) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def run_workload(root, workload, seed, seconds, traced, work_dir) -> dict:
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    if traced:
        reps, measured = trace(root, workload, seed, work_dir, deadline)
    else:
        reps, measured = measure(root, workload, seed, seconds, work_dir, deadline)
    metrics, absent = {}, []
    for decl in declared_metrics(root, traced):
        value = measured.get(decl["name"], MISSING)
        if value == MISSING:
            absent.append(decl["name"])
        metrics[decl["name"]] = {"value": value, "unit": decl["unit"]}
    failed = sum(not r.ok for r in reps)
    for r in reps:
        for problem in r.problems:
            print(f"FAILED {workload} seed={r.seed}: {problem}", file=sys.stderr)
    good = [r for r in reps if r.ok]
    print(f"workload={workload} seed={seed} repetitions={len(reps)} failed={failed}")
    if not traced and good:
        print("  per repetition (run_s/setup_s/final rolling reward): " + " ".join(
            f"{r.run_s:.3f}/{r.setup_s:.3f}/{rolling_mean(r.rewards)[-1]:.1f}" for r in good))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"  not measured on this workload/commit (-1): {', '.join(absent)}")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/egan/cli.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run_", dir=work_root)
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace), work_dir)
                   for n in names}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another benchmark run is still using it
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
