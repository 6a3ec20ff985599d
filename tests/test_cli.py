import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from egan import harness
from egan.cli import main
from egan.errors import UsageError

from test_harness import fixed_done_batches, never_called

TINY_SETS = [
    "--set", "training_episodes=60",
    "--set", "pretrain_episodes=3",
    "--set", "gan_train_steps=20",
    "--set", "enhancer_train_steps=20",
    "--set", "synthetic_batches=5",
]

# the keys of the paper's fixed hyperparameters, which are no config keys
FIXED_KEYS = ["g_hidden=8,4", "d_hidden=8,4", "noise_dim=4", "gan_learning_rate=1e-4",
              "gan_batch_size=32", "enhancer_hidden=8", "enhancer_learning_rate=1e-2",
              "refine_iterations=1", "refine_learning_rate=1e-2", "refine_samples=64",
              "kl_weight=0.5", "policy_hidden=8", "pg_learning_rate=1e-2",
              "pg_discount=0.9", "pg_update_frequency=2"]


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
        "enhancer_losses_egan_2.csv",
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
                   "synthetic_batches = 2\n")
    out = tmp_path / "runs"
    code = main(["run", "--mode", "gan", "--seed", "0", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    curve = harness.load_curve_csv(out / "curve_gan_0.csv")
    assert len(curve) == 12


def test_config_error_exit_code(tmp_path, capsys):
    code = main(["run", "--mode", "none", "--seed", "0", "--out", str(tmp_path),
                 "--set", "training_episodes=0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_report_bad_window_is_config_error(tmp_path, capsys):
    assert main(["run", "--mode", "none", "--seed", "0", "--out", str(tmp_path)]
                + TINY_SETS) == 0
    code = main(["report", "--runs", str(tmp_path), "--window", "0"])
    assert code == 2
    assert "--window must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["pretrain_learning_rate=nan",
                                     "pretrain_learning_rate=inf"])
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
    ["joint_update=true", "gan_generator_mode=paper_minimax", "pg_optimizer=sgd", *FIXED_KEYS],
)
def test_removed_keys_are_unknown(tmp_path, capsys, monkeypatch, setting):
    # through --set, and through --config as an older meta_<mode>_<seed>.txt names it
    monkeypatch.setattr(harness, "run_experiment", never_called)
    cfg = tmp_path / "meta_egan_0.txt"
    cfg.write_text(setting.replace("=", " = ", 1) + "\n")
    out = tmp_path / "out"
    for flags in (["--set", setting], ["--config", str(cfg)]):
        code = main(["run", "--mode", "egan", "--seed", "0", "--out", str(out)] + flags)
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


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


def test_sweep_writes_curves_and_aggregates(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--lengths", "2,4", "--seeds", "0,1", "--mode", "gan",
        "--out", str(out),
    ] + TINY_SETS)
    assert code == 0
    out_text, err = capsys.readouterr()
    # no tiny run's synthetic phase moves its policy: one warning per run
    assert err.splitlines() == [
        f"warning: pretrain_episodes={length} seed={seed}: none of the 5 synthetic "
        "batches moved the policy; pre-training left it unchanged"
        for length in (2, 4) for seed in (0, 1)]
    lines = out_text.splitlines()
    for line, length in zip(lines, (2, 4), strict=True):
        runs = out / f"len_{length}"
        assert (runs / "aggregate_gan.csv").exists()
        assert (runs / "report.csv").exists()
        curves = harness.find_curves(runs)["gan"]
        assert [c.seed for c in curves] == [0, 1]
        # the episode table is exactly the mean and std of the saved curves' rolling averages
        rolled = np.array([harness.rolling_average(c.rewards) for c in curves])
        table = np.loadtxt(runs / "aggregate_episodes_gan.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], np.arange(1, rolled.shape[1] + 1))
        assert np.array_equal(table[:, 1], rolled.mean(axis=0))
        assert np.array_equal(table[:, 2], rolled.std(axis=0))
        assert line == (f"pretrain_episodes={length} seeds=2 "
                        f"final_mean_rolling={table[-1, 1]:.1f}")


def _run_files(out_dir, mode, seed):
    """Bytes of one run's files by name; the meta file without its out_dir line."""
    files = {}
    for path in sorted(out_dir.glob(f"*_{mode}_{seed}.*")):
        data = path.read_bytes()
        if path.name.startswith("meta_"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out_dir"))
        files[path.name] = data
    return files


def test_sweep_runs_equal_lone_runs_and_re_report(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--lengths", "2,4", "--seeds", "0,1", "--mode", "gan",
                 "--out", str(out)] + TINY_SETS) == 0
    for length in (2, 4):
        for seed in (0, 1):
            lone = tmp_path / f"lone_{length}_{seed}"
            assert main(["run", "--mode", "gan", "--seed", str(seed), "--out", str(lone)]
                        + TINY_SETS + ["--set", f"pretrain_episodes={length}"]) == 0
            expected = _run_files(lone, "gan", seed)
            assert len(expected) == 6
            assert _run_files(out / f"len_{length}", "gan", seed) == expected
    # a length re-reported at another threshold: new report rows, same aggregates
    runs = out / "len_2"
    tables = {name: (runs / name).read_bytes()
              for name in ("aggregate_gan.csv", "aggregate_episodes_gan.csv")}
    # no run reaches the default threshold in 60 tiny episodes; every run reaches 5
    assert (runs / "report.csv").read_text().splitlines()[1] == "gan,inf,0.0"
    assert main(["report", "--runs", str(runs), "--threshold", "5"]) == 0
    mode, median, _ = (runs / "report.csv").read_text().splitlines()[1].split(",")
    assert mode == "gan" and math.isfinite(float(median))
    assert {name: (runs / name).read_bytes() for name in tables} == tables


def test_sweep_mode_is_required(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_experiment", never_called)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--lengths", "2", "--seeds", "0,1", "--out", str(tmp_path / "sweep")])
    assert exc.value.code == 2
    assert not (tmp_path / "sweep").exists()


def test_sweep_mode_flag_with_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mode = gan\ntraining_episodes = 12\ngan_train_steps = 10\n"
                   "synthetic_batches = 2\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--mode", "gan", "--lengths", "2", "--seeds", "0,1",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "len_2").glob("curve_*")) == [
        "curve_gan_0.csv", "curve_gan_1.csv"]


def test_sweep_failed_aggregation_keeps_finished_lengths_tables(tmp_path, capsys, monkeypatch):
    write_report, calls = harness.write_report, []

    def fail_on_second_length(runs_dir, *args, **kwargs):
        calls.append(runs_dir)
        if len(calls) == 2:
            raise UsageError("aggregation failed")
        return write_report(runs_dir, *args, **kwargs)

    monkeypatch.setattr(harness, "write_report", fail_on_second_length)
    out = tmp_path / "sweep"
    code = main(["sweep", "--lengths", "2,4", "--seeds", "0,1", "--mode", "gan",
                 "--out", str(out)] + TINY_SETS)
    assert code == 3
    assert capsys.readouterr().out.startswith("pretrain_episodes=2 seeds=2 ")
    for name in ("report.csv", "aggregate_episodes_gan.csv", "aggregate_gan.csv"):
        assert (out / "len_2" / name).exists()
        assert not (out / "len_4" / name).exists()
    assert (out / "len_4" / "curve_gan_1.csv").exists()


def test_every_csv_cell_reads_back_as_a_number(tmp_path):
    runs = tmp_path / "runs"
    for mode, seed in (("none", "0"), ("none", "1"), ("gan", "0"), ("egan", "0")):
        assert main(["run", "--mode", mode, "--seed", seed, "--out", str(runs)]
                    + TINY_SETS) == 0
    assert main(["report", "--runs", str(runs), "--threshold", "20", "--window", "10"]) == 0
    assert main(["sweep", "--lengths", "2,4", "--seeds", "0,1", "--mode", "gan",
                 "--out", str(tmp_path / "sweep")] + TINY_SETS) == 0
    tables = sorted(tmp_path.rglob("*.csv"))
    assert {p.name for p in tables} >= {
        "curve_egan_0.csv", "gan_losses_egan_0.csv", "kl_history_egan_0.csv",
        "enhancer_losses_egan_0.csv", "aggregate_none.csv", "aggregate_episodes_none.csv",
        "report.csv", "aggregate_episodes_gan.csv", "aggregate_gan.csv"}
    for path in tables:
        header, *rows = path.read_text().splitlines()
        assert rows, path
        for row in rows:
            cells = row.split(",")
            assert len(cells) == header.count(",") + 1, (path, row)
            if path.name == "report.csv":
                assert cells.pop(0) in ("none", "gan", "egan")
            for cell in cells:
                float(cell)  # an int's digits parse as a float too


def test_sweep_failed_aggregation_keeps_trained_curves(tmp_path, capsys):
    # 20 short episodes after pre-training buffers of different sizes: the two
    # curves share no 500-sample bin, so the report has no sample table, as
    # `egan report` over the same curves
    out = tmp_path / "sweep"
    code = main(["sweep", "--mode", "gan", "--lengths", "3", "--seeds", "0,1",
                 "--out", str(out), "--set", "training_episodes=20",
                 "--set", "gan_train_steps=20", "--set", "synthetic_batches=2"])
    assert code == 0
    runs = out / "len_3"
    for seed in (0, 1):
        curve = harness.load_curve_csv(runs / f"curve_gan_{seed}.csv")
        assert len(curve) == 20
    assert (runs / "report.csv").exists()
    assert (runs / "aggregate_episodes_gan.csv").exists()
    assert not (runs / "aggregate_gan.csv").exists()


@pytest.mark.parametrize("lists", [
    ["--lengths", "a", "--seeds", "0,1"],
    ["--lengths", "2", "--seeds", "x"],
    ["--lengths", "2", "--seeds", "0,1.5"],
    ["--lengths", "2", "--seeds", ","],
    ["--lengths", "2", "--seeds", "0,-1"],
    ["--lengths", "2,2", "--seeds", "0,1"],
    ["--lengths", "2", "--seeds", "0,0"],
    ["--lengths", "2,3", "--seeds", "0,1,0"],
    ["--lengths", "", "--seeds", "0,1"],
    ["--lengths", "2", "--seeds", ""],
])
def test_sweep_bad_lists_exit_2_before_any_run(tmp_path, capsys, monkeypatch, lists):
    monkeypatch.setattr(harness, "run_experiment", never_called)
    code = main(["sweep", "--mode", "gan", "--out", str(tmp_path / "sweep")] + lists
                + TINY_SETS)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("argv,taken", [
    (["run", "--mode", "gan", "--seed", "0"], "out"),
    (["sweep", "--mode", "gan", "--lengths", "3", "--seeds", "0,1"], "out"),
    (["sweep", "--mode", "gan", "--lengths", "2,3", "--seeds", "0,1"], "out/len_3"),
])
def test_unusable_out_dir_exits_2_before_any_run(tmp_path, capsys, monkeypatch, argv, taken):
    # a file where an output directory must go
    monkeypatch.setattr(harness, "run_experiment", never_called)
    (tmp_path / taken).parent.mkdir(exist_ok=True)
    (tmp_path / taken).write_text("keep")
    code = main(argv + ["--out", str(tmp_path / "out")] + TINY_SETS)
    assert code == 2
    assert "configuration error: output directory" in capsys.readouterr().err
    assert (tmp_path / taken).read_text() == "keep"


@pytest.mark.parametrize("runs", ["missing", "file"])
def test_unusable_runs_dir_is_config_error(tmp_path, capsys, monkeypatch, runs):
    monkeypatch.setattr(harness, "run_experiment", never_called)
    (tmp_path / "file").write_text("keep")
    code = main(["report", "--runs", str(tmp_path / runs), "--threshold", "120"])
    assert code == 2
    assert "configuration error: runs directory" in capsys.readouterr().err


def test_same_seed_cli_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--mode", "egan", "--seed", "7", "--out", str(out)]
                    + TINY_SETS) == 0
    c1 = (out1 / "curve_egan_7.csv").read_bytes()
    c2 = (out2 / "curve_egan_7.csv").read_bytes()
    assert c1 == c2


@pytest.mark.parametrize("dones,warned", [([False] * 8, True), ([False] * 7 + [True], False)])
def test_unmoved_policy_warns_on_stderr(tmp_path, capsys, monkeypatch, dones, warned):
    monkeypatch.setattr(harness, "_synthetic_batches", fixed_done_batches(dones))
    code = main(["run", "--mode", "gan", "--seed", "0", "--out", str(tmp_path)] + TINY_SETS)
    out, err = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 1 and out.startswith("mode=gan seed=0 ")
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == warned
    if warned:
        assert "none of the 5 synthetic batches moved the policy" in warnings[0]


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["egan"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
