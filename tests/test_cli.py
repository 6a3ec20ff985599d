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
        assert (out / f"sweep_samples_{length}.csv").exists()
        curves = harness.find_curves(out / f"len_{length}")["gan"]
        assert [c.seed for c in curves] == [0, 1]
        # the episode table is exactly the mean and std of the saved curves' rolling averages
        rolled = np.array([harness.rolling_average(c.rewards) for c in curves])
        table = np.loadtxt(out / f"sweep_episodes_{length}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], np.arange(1, rolled.shape[1] + 1))
        assert np.array_equal(table[:, 1], rolled.mean(axis=0))
        assert np.array_equal(table[:, 2], rolled.std(axis=0))


def test_sweep_failed_aggregation_keeps_finished_lengths_tables(tmp_path, capsys, monkeypatch):
    aggregate_runs, calls = harness.aggregate_runs, []

    def fail_on_second_length(curves, **kwargs):
        calls.append(curves)
        if len(calls) == 2:
            raise UsageError("aggregation failed")
        return aggregate_runs(curves, **kwargs)

    monkeypatch.setattr(harness, "aggregate_runs", fail_on_second_length)
    out = tmp_path / "sweep"
    code = main(["sweep", "--lengths", "2,4", "--seeds", "0,1", "--mode", "gan",
                 "--out", str(out)] + TINY_SETS)
    assert code == 3
    assert capsys.readouterr().out.startswith("pretrain_episodes=2 seeds=2 ")
    assert (out / "sweep_episodes_2.csv").exists()
    assert (out / "sweep_samples_2.csv").exists()
    assert not (out / "sweep_episodes_4.csv").exists()


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
        "aggregate_none.csv", "report.csv", "sweep_episodes_2.csv", "sweep_samples_2.csv"}
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
    # curves share no 500-sample bin, which is found only after both runs
    out = tmp_path / "sweep"
    code = main(["sweep", "--mode", "gan", "--lengths", "3", "--seeds", "0,1",
                 "--out", str(out), "--set", "training_episodes=20",
                 "--set", "gan_train_steps=20", "--set", "synthetic_batches=2"])
    assert code == 3
    assert "curves share no common cumulative-sample range" in capsys.readouterr().err
    for seed in (0, 1):
        curve = harness.load_curve_csv(out / "len_3" / f"curve_gan_{seed}.csv")
        assert len(curve) == 20


@pytest.mark.parametrize("lists", [
    ["--lengths", "a", "--seeds", "0,1"],
    ["--lengths", "2", "--seeds", "x"],
    ["--lengths", "2", "--seeds", "0,1.5"],
    ["--lengths", "2", "--seeds", "3"],
    ["--lengths", "2", "--seeds", "0,-1"],
    ["--lengths", "2,2", "--seeds", "0,1"],
    ["--lengths", "2", "--seeds", "0,0"],
    ["--lengths", "2,3", "--seeds", "0,1,0"],
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
