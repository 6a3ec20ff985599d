import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egan import experience, gan, harness, nn, policy
from egan.cartpole import EnvParams
from egan.config import ExperimentConfig, apply_overrides
from egan.errors import ConfigError, CsvParseError, UsageError
from egan.experience import Transitions
from egan.harness import Aggregate, LearningCurve

from test_experience import assert_same, forward_logit
from test_golden import TINY_SETS


def make_curve(rewards, offset=0, mode="none", seed=0):
    rewards = np.asarray(rewards, dtype=np.float64)
    cumulative = offset + np.cumsum(rewards).astype(np.int64)
    return LearningCurve(mode, seed, rewards, cumulative, offset)


TINY = dict(
    training_episodes=40,
    pretrain_episodes=3,
    gan_train_steps=30,
    enhancer_train_steps=30,
    synthetic_batches=10,
)


class TestRollingAverage:
    def test_constant_rewards(self):
        out = harness.rolling_average(np.full(250, 7.0), 100)
        assert np.allclose(out, 7.0, atol=1e-12)

    def test_two_point_window(self):
        assert np.allclose(
            harness.rolling_average([0.0, 100.0], 2), [0.0, 50.0], atol=1e-12
        )

    def test_length_preserved(self):
        assert harness.rolling_average(np.arange(17.0), 100).shape == (17,)

    def test_partial_windows_average_available(self):
        out = harness.rolling_average([2.0, 4.0, 6.0], 100)
        assert np.allclose(out, [2.0, 3.0, 4.0], atol=1e-12)

    def test_bad_window(self):
        with pytest.raises(UsageError):
            harness.rolling_average([1.0], 0)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=300),
        st.floats(-50, 50),
        st.integers(1, 120),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_equivariance(self, rewards, shift, window):
        base = harness.rolling_average(rewards, window)
        shifted = harness.rolling_average(np.asarray(rewards) + shift, window)
        assert np.allclose(shifted, base + shift, atol=1e-8)


class TestSamplesToThreshold:
    def test_zero_threshold_first_episode(self):
        curve = make_curve([10.0, 20.0, 30.0])
        assert harness.samples_to_threshold(curve, 0.0) == 10

    def test_unattainable_is_none(self):
        curve = make_curve([10.0, 20.0, 30.0])
        assert harness.samples_to_threshold(curve, 2000.0) is None

    def test_offset_counted(self):
        curve = make_curve([50.0, 60.0], offset=1000)
        assert harness.samples_to_threshold(curve, 40.0) == 1050

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        curve = make_curve(rng.integers(1, 200, size=400).astype(float))
        previous = 0
        for r_star in (10, 50, 90, 130):
            hit = harness.samples_to_threshold(curve, r_star)
            if hit is None:
                break
            assert hit >= previous
            previous = hit


class TestAggregateRuns:
    def test_identical_curves_zero_std(self):
        rng = np.random.default_rng(1)
        rewards = rng.integers(5, 200, size=300).astype(float)
        agg = harness.aggregate_runs([make_curve(rewards), make_curve(rewards)])
        assert np.all(agg.std == 0.0)

    def test_two_constant_curves(self):
        a = make_curve(np.full(300, 100.0))
        b = make_curve(np.full(300, 200.0))
        agg = harness.aggregate_runs([a, b])
        assert np.allclose(agg.mean, 150.0, atol=1e-9)
        assert np.allclose(agg.std, 50.0, atol=1e-9)

    def test_grid_spans_common_domain(self):
        a = make_curve(np.full(300, 100.0))  # cumulative 100..30000
        b = make_curve(np.full(100, 150.0), offset=5000)  # 5150..20000
        agg = harness.aggregate_runs([a, b], bin_width=500)
        assert agg.bins[0] >= 5150
        assert agg.bins[-1] <= 20000
        assert np.all(np.diff(agg.bins) == 500)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(UsageError):
            harness.aggregate_runs([make_curve(np.full(10, 1.0))])

    def test_disjoint_domains_rejected(self):
        a = make_curve(np.full(5, 10.0))  # up to 50
        b = make_curve(np.full(5, 10.0), offset=10_000)
        with pytest.raises(UsageError):
            harness.aggregate_runs([a, b])


class TestRunExperiment:
    def test_mode_none_accounting(self):
        cfg = ExperimentConfig(mode="none", seed=1, **TINY)
        curve = harness.run_experiment(cfg).curve
        assert len(curve) == cfg.training_episodes + cfg.pretrain_episodes
        assert curve.offset == 0
        assert curve.cumulative_samples[-1] == int(curve.rewards.sum())

    def test_episode_reward_is_its_sample_count(self):
        cfg = ExperimentConfig(mode="gan", seed=3, **TINY)
        curve = harness.run_experiment(cfg).curve
        steps = np.diff(curve.cumulative_samples, prepend=curve.offset)
        assert curve.rewards.dtype == np.float64
        assert np.array_equal(curve.rewards, steps)

    def test_conservation_identity(self):
        cfg = ExperimentConfig(mode="egan", seed=2, **TINY)
        curve = harness.run_experiment(cfg).curve
        assert curve.cumulative_samples[-1] == curve.offset + int(curve.rewards.sum())
        assert np.all(np.diff(curve.cumulative_samples) > 0)

    def test_deterministic_per_seed(self):
        cfg = ExperimentConfig(mode="egan", seed=3, **TINY)
        c1 = harness.run_experiment(cfg).curve
        c2 = harness.run_experiment(cfg).curve
        assert np.array_equal(c1.rewards, c2.rewards)
        assert np.array_equal(c1.cumulative_samples, c2.cumulative_samples)

    def test_gan_mode_offset_positive(self):
        cfg = ExperimentConfig(mode="gan", seed=4, **TINY)
        curve = harness.run_experiment(cfg).curve
        assert curve.offset >= cfg.pretrain_episodes  # >= 1 step per episode
        assert len(curve) == cfg.training_episodes

    def test_invalid_config_rejected_before_work(self):
        from egan.errors import ConfigError

        with pytest.raises(ConfigError):
            harness.run_experiment(ExperimentConfig(mode="worst", **TINY))

    def test_last_partial_group(self):
        # 7 episodes at update frequency 5: a group of 5, one update, then 2
        cfg = ExperimentConfig(mode="none", seed=6, **{**TINY, "training_episodes": 4})
        curve, _, agent = harness.run_experiment(cfg)
        assert cfg.total_episodes() == 7 and len(curve) == 7
        assert agent.opt.t == 1  # the trailing group of 2 takes no step

    def test_lockstep_run_equals_serial_replay(self):
        # each episode runs on its own child of the training SeedSequence and
        # the policy changes only between groups, so playing the episodes one
        # at a time, updating once per EPISODES_PER_UPDATE recorded episodes,
        # gives the same curve and the same policy
        cfg = ExperimentConfig(mode="none", seed=9, **TINY)
        curve, _, trained = harness.run_experiment(cfg)
        _, agent_ss, train_ss = np.random.SeedSequence(cfg.seed).spawn(3)
        agent = policy.make_agent(np.random.default_rng(agent_ss))
        lengths, pending = [], []
        for ss in train_ss.spawn(cfg.total_episodes()):
            episode, = experience.run_episodes(
                forward_logit(agent.net), [np.random.default_rng(ss)],
                EnvParams(max_steps=cfg.env_max_steps))
            lengths.append(len(episode))
            pending.append(episode)
            if len(pending) == harness.EPISODES_PER_UPDATE:
                policy.update_on_episodes(agent, pending)
                pending = []
        assert agent.opt.t == cfg.total_episodes() // harness.EPISODES_PER_UPDATE > 1
        assert curve.rewards.tolist() == lengths
        assert np.array_equal(trained.net.params, agent.net.params)

    @pytest.mark.parametrize("mode", ["none", "gan", "egan"])
    def test_run_record(self, mode):
        # one record in every mode, offset by the pre-training buffer, and
        # picklable bit for bit, as a worker process returns it
        run = harness.run_experiment(ExperimentConfig(mode=mode, seed=7, **TINY))
        assert isinstance(run, harness.Run)
        assert (run.pretrain is None) == (mode == "none")
        assert run.curve.offset == (0 if run.pretrain is None else len(run.pretrain.buffer))
        back = pickle.loads(pickle.dumps(run))
        assert isinstance(back, harness.Run)
        for name, before, after in (
            ("rewards", run.curve.rewards, back.curve.rewards),
            ("cumulative_samples", run.curve.cumulative_samples, back.curve.cumulative_samples),
            ("params", run.agent.net.params, back.agent.net.params),
        ):
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes(), name

    @pytest.mark.parametrize("dones,useful", [([False] * 8, 0), ([True] * 8, 0),
                                              ([False] * 7 + [True], 10)])
    def test_synthetic_phase_counts_useful_batches(self, monkeypatch, dones, useful):
        monkeypatch.setattr(harness, "_synthetic_batches", fixed_done_batches(dones))
        cfg = ExperimentConfig(mode="gan", seed=4, **TINY)
        _, pre, _ = harness.run_experiment(cfg)
        assert cfg.synthetic_batches == 10
        assert pre.useful_synthetic_batches == useful


class TestPipeline:
    @staticmethod
    def pretrain(cfg, seed):
        agent = policy.make_agent(np.random.default_rng(100 + seed))
        return harness.pretrain_pipeline(cfg, agent, np.random.default_rng(seed),
                                         EnvParams(max_steps=cfg.env_max_steps))

    def test_gan_mode_skips_enhancer(self):
        cfg = ExperimentConfig(mode="gan", pretrain_episodes=3, gan_train_steps=20,
                               enhancer_train_steps=20, synthetic_batches=2)
        pre = self.pretrain(cfg, 0)
        assert pre.enhancer is None
        assert pre.kl_history == []
        assert pre.enhancer_history == []
        assert len(pre.gan_history) == 20

    def test_egan_mode_trains_everything(self):
        cfg = ExperimentConfig(mode="egan", pretrain_episodes=3, gan_train_steps=20,
                               enhancer_train_steps=20, synthetic_batches=2)
        pre = self.pretrain(cfg, 0)
        assert pre.enhancer is not None
        assert len(pre.kl_history) == 2
        assert len(pre.enhancer_history) == 20

    def test_real_sample_accounting(self):
        cfg = ExperimentConfig(mode="gan", pretrain_episodes=4, gan_train_steps=10,
                               synthetic_batches=2)
        pre = self.pretrain(cfg, 1)
        assert len(pre.buffer) > 0
        assert pre.buffer.dones.sum() == cfg.pretrain_episodes

    def test_mode_none_rejected(self):
        with pytest.raises(UsageError):
            self.pretrain(ExperimentConfig(mode="none"), 0)


# sha256 of the json (sorted keys) of the pre-training rng's bit_generator
# state after pretrain_pipeline, at the golden runs' tiny config, recorded
# with the 9-column encoded row (generator [16, 40, 20, 9], discriminator
# [9, 40, 20, 1], enhancer [5, 60, 60, 4]): a change of the models' precision
# or of a speed path must leave every rng draw of a run as it was
PRETRAIN_RNG_DIGESTS = {
    ("egan", 2): "78ae8083ca6f864bbaf8c387ac80db0dbac50b56740520a46f9f67e20e93bcae",
    ("gan", 4): "4788950e8c2e252bb0f761a9cadf547949c105ac4c7ea2631b65a874fc3aae25",
}


@pytest.mark.parametrize("mode,seed", sorted(PRETRAIN_RNG_DIGESTS))
def test_pretrain_rng_consumption_pinned(mode, seed):
    overrides = dict(item.split("=") for item in TINY_SETS[1::2])
    cfg = apply_overrides(ExperimentConfig(mode=mode, seed=seed), overrides)
    pretrain_ss, agent_ss, _ = np.random.SeedSequence(seed).spawn(3)
    agent = policy.make_agent(np.random.default_rng(agent_ss))
    rng = np.random.default_rng(pretrain_ss)
    harness.pretrain_pipeline(cfg, agent, rng, harness._env_params(cfg))
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    assert hashlib.sha256(state).hexdigest() == PRETRAIN_RNG_DIGESTS[(mode, seed)]


@pytest.mark.slow
def test_default_pretraining_moves_the_policy():
    """At the default pre-training config the synthetic phase has batches with
    non-zero weights, so the online phase starts from a different policy than
    a fresh agent's."""
    cfg = ExperimentConfig(mode="gan", seed=0, training_episodes=5)
    pretrain_ss, agent_ss, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    pretrained, fresh = (policy.make_agent(np.random.default_rng(agent_ss)) for _ in range(2))
    pre = harness.pretrain_pipeline(cfg, pretrained, np.random.default_rng(pretrain_ss),
                                    harness._env_params(cfg))
    assert pre.useful_synthetic_batches > 0
    assert not np.array_equal(pretrained.net.params, fresh.net.params)


class TestSyntheticBatches:
    @pytest.mark.parametrize("n_batches", [0, 1, 16, 17, 64, 70, 129])
    def test_chunked_generation_equals_per_batch_loop(self, n_batches):
        cfg = ExperimentConfig(mode="gan", synthetic_batches=n_batches)
        pair = gan.make_gan(np.random.default_rng(2))
        stats = experience.NormalizationStats(np.full(4, -0.5), np.full(4, 0.5))
        params = EnvParams()
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = list(harness._synthetic_batches(pair, stats, cfg, rng, params))
        # the reference: one generator call per batch
        ref = [experience.decode_batch(gan.generate_encoded(pair, pair.batch_size, ref_rng),
                                       stats, params)
               for _ in range(n_batches)]
        assert len(got) == n_batches
        for batch, expected in zip(got, ref):
            assert_same(batch, expected)
        assert rng.random() == ref_rng.random()


def fixed_done_batches(dones):
    """Stands in for the generator: every synthetic batch carries `dones`."""
    dones = np.asarray(dones, dtype=bool)

    def batches(pair, stats, config, rng, params):
        for _ in range(config.synthetic_batches):
            states = rng.uniform(-0.05, 0.05, size=(dones.size, 4))
            actions = rng.integers(0, 2, size=dones.size).astype(np.intp)
            yield Transitions(states, actions, states, dones)

    return batches


# sha256 of the curve CSV and the policy file of the online workload config;
# a speed change to the rollout path must leave both unchanged
ONLINE_DIGESTS = {
    0: ("2953d01fae719c34d9edb8541e35c6bf4229be635d6ada25660dfe9cf3777e2b",
        "6a6cb221a6a87fe4c3edf36c9103b126c1f79971be283d7393e04d007126f0ad"),
    1: ("86f5065114ef64a6af6e79de76d469ea2714942d52cbe53ca537cc9377182e9e",
        "7a2f554bb4a3eae6a0f129182702a1d119135f72c776da716a56e5fb0c70319d"),
}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
def test_online_benchmark_config_learns(seed, tmp_path):
    """The benchmark's online workload config clears its learning bar, and
    writes the recorded curve and policy bytes."""
    cfg = ExperimentConfig(mode="none", seed=seed, training_episodes=2000,
                           pretrain_episodes=500, env_max_steps=100)
    curve, _, agent = harness.run_experiment(cfg)
    assert len(curve) == 2500
    assert harness.rolling_average(curve.rewards)[-1] >= 55.0
    harness.save_curve_csv(curve, tmp_path / "curve.csv")
    nn.save_network(agent.net, tmp_path / "policy.txt")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("curve.csv", "policy.txt"))
    assert digests == ONLINE_DIGESTS[seed]


class TestCurveCsv:
    def test_round_trip_and_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(mode="gan", seed=5, **TINY)
        curve = harness.run_experiment(cfg).curve
        p1, p2 = tmp_path / "curve_gan_5.csv", tmp_path / "again"
        p2.mkdir()
        p2 = p2 / "curve_gan_5.csv"
        harness.save_curve_csv(curve, p1)
        harness.save_curve_csv(harness.run_experiment(cfg).curve, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = harness.load_curve_csv(p1)
        assert loaded.mode == "gan"
        assert loaded.seed == 5
        assert loaded.offset == curve.offset
        assert np.array_equal(loaded.rewards, curve.rewards)
        assert np.array_equal(loaded.cumulative_samples, curve.cumulative_samples)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "curve_none_0.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(CsvParseError):
            harness.load_curve_csv(path)


class TestReport:
    def _write_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        for mode, offset in (("none", 0), ("gan", 900), ("egan", 900)):
            for seed in (0, 1):
                rewards = rng.integers(80, 200, size=200).astype(float)
                harness.save_curve_csv(
                    make_curve(rewards, offset=offset, mode=mode, seed=seed),
                    tmp_path / harness.curve_filename(mode, seed),
                )

    def test_report_and_aggregates_written(self, tmp_path):
        self._write_runs(tmp_path)
        rows = harness.write_report(tmp_path, 120.0)
        assert [r[0] for r in rows] == ["none", "gan", "egan"]
        assert (tmp_path / "report.csv").exists()
        for mode in ("none", "gan", "egan"):
            assert (tmp_path / f"aggregate_{mode}.csv").exists()
            assert (tmp_path / f"aggregate_episodes_{mode}.csv").exists()
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "mode,median_samples_to_threshold,iqr"

    def test_episode_table_over_common_episodes(self, tmp_path):
        rng = np.random.default_rng(1)
        curves = [make_curve(rng.integers(10, 200, size=n).astype(float), mode="gan", seed=seed)
                  for seed, n in ((0, 150), (1, 90))]
        curves.append(make_curve(np.full(50, 30.0), mode="egan", seed=0))
        for c in curves:
            harness.save_curve_csv(c, tmp_path / harness.curve_filename(c.mode, c.seed))
        harness.write_report(tmp_path, 120.0)
        table = np.loadtxt(tmp_path / "aggregate_episodes_gan.csv", delimiter=",", skiprows=1)
        rolled = np.array([harness.rolling_average(c.rewards)[:90] for c in curves[:2]])
        assert table.shape == (90, 3)
        assert np.array_equal(table[:, 0], np.arange(1, 91))
        assert np.array_equal(table[:, 1], rolled.mean(axis=0))
        assert np.array_equal(table[:, 2], rolled.std(axis=0))
        # a mode with one curve gets no aggregate table, only its report row
        assert not (tmp_path / "aggregate_episodes_egan.csv").exists()
        assert not (tmp_path / "aggregate_egan.csv").exists()

    def test_second_report_leaves_no_stale_table(self, tmp_path):
        def save(curve):
            harness.save_curve_csv(curve, tmp_path / harness.curve_filename(curve.mode, curve.seed))

        for seed in (0, 1):
            save(make_curve(np.full(150, 10.0), mode="gan", seed=seed))
        save(make_curve(np.full(150, 10.0), mode="none", seed=0))
        save(make_curve(np.full(150, 10.0), mode="none", seed=1))
        harness.write_report(tmp_path, 120.0)
        for mode in ("gan", "none"):
            assert (tmp_path / f"aggregate_{mode}.csv").exists()
            assert (tmp_path / f"aggregate_episodes_{mode}.csv").exists()
        # gan's curves now share no bin, and none keeps one curve
        save(make_curve(np.full(150, 10.0), offset=10_000, mode="gan", seed=1))
        (tmp_path / harness.curve_filename("none", 1)).unlink()
        assert [row[0] for row in harness.write_report(tmp_path, 120.0)] == ["none", "gan"]
        assert (tmp_path / "aggregate_episodes_gan.csv").exists()
        for name in ("aggregate_gan.csv", "aggregate_none.csv", "aggregate_episodes_none.csv"):
            assert not (tmp_path / name).exists(), name

    def test_unreached_reported_as_inf(self, tmp_path):
        for seed in (0, 1):
            harness.save_curve_csv(
                make_curve(np.full(150, 10.0), mode="none", seed=seed),
                tmp_path / harness.curve_filename("none", seed),
            )
        rows = harness.write_report(tmp_path, 120.0)
        assert rows[0][1] == float("inf")

    def test_all_unreached_iqr_is_zero(self):
        curves = [make_curve(np.full(150, 10.0), seed=seed) for seed in (0, 1)]
        assert harness.threshold_summary(curves, 120.0) == (float("inf"), 0.0)

    def test_unreached_upper_quartile_iqr_is_inf(self):
        curves = [make_curve(np.full(150, 150.0), seed=seed) for seed in range(3)]
        curves.append(make_curve(np.full(150, 10.0), seed=3))
        assert harness.threshold_summary(curves, 120.0) == (150.0, float("inf"))

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            harness.write_report(tmp_path, 120.0)


class TestSweep:
    def test_singleton_length(self, tmp_path):
        cfg = ExperimentConfig(mode="gan", out_dir=str(tmp_path), **TINY)
        [(length, runs)] = harness.sweep_pretrain_length(cfg, [3], seeds=(0, 1))
        curves = [run.curve for run in runs]
        assert length == 3
        assert [c.seed for c in curves] == [0, 1]
        # the sweep runs equal run_experiment at the same (length, seed)
        direct = harness.run_experiment(ExperimentConfig(mode="gan", seed=0, **TINY)).curve
        assert np.array_equal(curves[0].rewards, direct.rewards)
        # and their curves are on disk under out_dir/len_<length>, with its report
        saved = harness.find_curves(tmp_path / "len_3")["gan"]
        assert [c.seed for c in saved] == [0, 1]
        assert np.array_equal(saved[0].cumulative_samples, direct.cumulative_samples)
        assert (tmp_path / "len_3" / "report.csv").exists()

    def test_longer_pretraining_shifts_offset(self, tmp_path):
        cfg = ExperimentConfig(mode="gan", out_dir=str(tmp_path),
                               **{**TINY, "training_episodes": 10})
        (_, short), (_, long) = harness.sweep_pretrain_length(cfg, [2, 20], seeds=(0, 1))
        assert min(r.curve.offset for r in long) > max(r.curve.offset for r in short)

    def test_one_seed_reports_without_aggregates(self, tmp_path):
        cfg = ExperimentConfig(mode="gan", out_dir=str(tmp_path), **TINY)
        [(length, runs)] = harness.sweep_pretrain_length(cfg, [3], seeds=(5,))
        assert length == 3 and [r.curve.seed for r in runs] == [5]
        names = sorted(p.name for p in (tmp_path / "len_3").glob("*.csv"))
        assert names == ["curve_gan_5.csv", "gan_losses_gan_5.csv", "report.csv"]

    def test_empty_lengths_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            harness.sweep_pretrain_length(ExperimentConfig(mode="gan"), [])

    def test_empty_seeds_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", never_called)
        with pytest.raises(ConfigError, match="nonempty"):
            harness.sweep_pretrain_length(ExperimentConfig(mode="gan"), [3], seeds=())

    @pytest.mark.parametrize("lengths,seeds", [([3, 3], (0, 1)), ([3], (0, 0)),
                                               ([3, 5], (0, 1, 1))])
    def test_repeated_entries_rejected_before_any_run(self, monkeypatch, lengths, seeds):
        monkeypatch.setattr(harness, "run_experiment", never_called)
        with pytest.raises(ConfigError, match="repeat"):
            harness.sweep_pretrain_length(ExperimentConfig(mode="gan"), lengths, seeds=seeds)

    def test_invalid_seed_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", never_called)
        with pytest.raises(ConfigError):
            harness.sweep_pretrain_length(ExperimentConfig(mode="gan"), [3, 5], seeds=(0, -1))


def never_called(*args, **kwargs):
    raise AssertionError("a run started before the sweep's arguments were checked")
