import numpy as np
import pytest

from egan import harness
from egan.cli import main

from test_harness import fixed_reward_batches, never_called

TINY_SETS = [
    "--set", "training_episodes=60",
    "--set", "pretrain_episodes=3",
    "--set", "gan_train_steps=20",
    "--set", "enhancer_train_steps=20",
    "--set", "synthetic_batches=5",
    "--set", "refine_samples=64",
]


def test_run_none(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["run", "--mode", "none", "--seed", "1", "--out", str(out)] + TINY_SETS)
    assert code == 0
    assert (out / "curve_none_1.csv").exists()
    assert (out / "meta_none_1.txt").exists()
    assert (out / "policy_none_1.txt").exists()
    assert "mode=none seed=1" in capsys.readouterr().out


def test_run_egan_writes_pretrain_artifacts(tmp_path):
    out = tmp_path / "runs"
    code = main(["run", "--mode", "egan", "--seed", "2", "--out", str(out)] + TINY_SETS)
    assert code == 0
    for name in (
        "curve_egan_2.csv",
        "gan_losses_egan_2.csv",
        "kl_history_egan_2.csv",
        "generator_egan_2.txt",
        "discriminator_egan_2.txt",
        "enhancer_egan_2.txt",
    ):
        assert (out / name).exists(), name


def test_run_respects_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("training_episodes = 12\npretrain_episodes = 2\n"
                   "gan_train_steps = 10\nenhancer_train_steps = 10\n"
                   "synthetic_batches = 2\nrefine_samples = 64\n")
    out = tmp_path / "runs"
    code = main(["run", "--mode", "gan", "--seed", "0", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    curve = harness.load_curve_csv(out / "curve_gan_0.csv")
    assert len(curve) == 12


def test_config_error_exit_code(tmp_path, capsys):
    code = main(["run", "--mode", "none", "--seed", "0", "--out", str(tmp_path),
                 "--set", "pg_discount=7"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["gan_batch_size=1", "refine_samples=1"])
def test_one_row_batch_is_config_error(tmp_path, capsys, setting):
    code = main(["run", "--mode", "egan", "--seed", "0", "--out", str(tmp_path)]
                + TINY_SETS + ["--set", setting])
    assert code == 2
    assert "must be >= 2" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_report_bad_window_is_config_error(tmp_path, capsys):
    assert main(["run", "--mode", "none", "--seed", "0", "--out", str(tmp_path)]
                + TINY_SETS) == 0
    code = main(["report", "--runs", str(tmp_path), "--window", "0"])
    assert code == 2
    assert "--window must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["pg_learning_rate=nan", "kl_weight=inf"])
def test_non_finite_float_is_config_error(tmp_path, capsys, setting):
    code = main(["run", "--mode", "egan", "--seed", "0", "--out", str(tmp_path)]
                + TINY_SETS + ["--set", setting])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_report_non_finite_threshold_is_config_error(tmp_path, capsys, threshold):
    assert main(["run", "--mode", "none", "--seed", "0", "--out", str(tmp_path)]
                + TINY_SETS) == 0
    code = main(["report", "--runs", str(tmp_path), f"--threshold={threshold}"])
    assert code == 2
    assert "--threshold must be finite" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path):
    code = main(["run", "--mode", "none", "--out", str(tmp_path),
                 "--set", "flux_capacitor=1"])
    assert code == 2


def test_negative_seed_is_config_error(tmp_path, capsys):
    code = main(["run", "--mode", "none", "--seed", "-1", "--out", str(tmp_path)]
                + TINY_SETS)
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "setting",
    ["joint_update=true", "gan_generator_mode=paper_minimax", "pg_optimizer=sgd"],
)
def test_removed_keys_are_unknown(tmp_path, capsys, setting):
    code = main(["run", "--mode", "egan", "--seed", "0", "--out", str(tmp_path)]
                + TINY_SETS + ["--set", setting])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_runtime_error_exit_code(tmp_path, capsys):
    code = main(["report", "--runs", str(tmp_path), "--threshold", "120"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_report_over_runs(tmp_path, capsys):
    out = tmp_path / "runs"
    for seed in ("0", "1"):
        assert main(["run", "--mode", "none", "--seed", seed, "--out", str(out)]
                    + TINY_SETS) == 0
    code = main(["report", "--runs", str(out), "--threshold", "5", "--window", "10"])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "aggregate_none.csv").exists()
    assert "none: median_samples_to_threshold=" in capsys.readouterr().out


def test_sweep_writes_curves_and_aggregates(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--lengths", "2,4", "--seeds", "0,1", "--mode", "gan",
        "--out", str(out),
    ] + TINY_SETS)
    assert code == 0
    for length in (2, 4):
        assert (out / f"sweep_episodes_{length}.csv").exists()
        assert (out / f"sweep_samples_{length}.csv").exists()
        assert (out / f"len_{length}" / "curve_gan_0.csv").exists()
        assert (out / f"len_{length}" / "curve_gan_1.csv").exists()


@pytest.mark.parametrize("lists", [
    ["--lengths", "a", "--seeds", "0,1"],
    ["--lengths", "2", "--seeds", "x"],
    ["--lengths", "2", "--seeds", "0,1.5"],
    ["--lengths", "2", "--seeds", "3"],
    ["--lengths", "2", "--seeds", "0,-1"],
])
def test_sweep_bad_lists_exit_2_before_any_run(tmp_path, capsys, monkeypatch, lists):
    monkeypatch.setattr(harness, "run_experiment", never_called)
    code = main(["sweep", "--mode", "gan", "--out", str(tmp_path / "sweep")] + lists
                + TINY_SETS)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_same_seed_cli_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--mode", "egan", "--seed", "7", "--out", str(out)]
                    + TINY_SETS) == 0
    c1 = (out1 / "curve_egan_7.csv").read_bytes()
    c2 = (out2 / "curve_egan_7.csv").read_bytes()
    assert c1 == c2


@pytest.mark.parametrize("rewards,warned", [([1.0] * 8, True), ([1.0, 0.0] * 4, False)])
def test_constant_synthetic_rewards_warn_on_stderr(tmp_path, capsys, monkeypatch,
                                                   rewards, warned):
    monkeypatch.setattr(harness, "_synthetic_batches", fixed_reward_batches(rewards))
    code = main(["run", "--mode", "gan", "--seed", "0", "--out", str(tmp_path)] + TINY_SETS)
    out, err = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 1 and out.startswith("mode=gan seed=0 ")
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == warned
    if warned:
        assert "all 5 synthetic batches had constant rewards" in warnings[0]
