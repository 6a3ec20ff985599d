import inspect
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egan import enhancer, gan, harness, policy
from egan.config import (
    MODES,
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
    validate,
)
from egan.errors import ConfigError
from egan.experience import ENCODED_DIM, SA_DIM


def test_defaults_match_reference_table():
    """The paper's hyperparameter table: the config's defaults for what a run
    varies, and the defaults of the functions that build and train the nets
    for the rest."""
    cfg = ExperimentConfig()
    assert (cfg.pretrain_episodes, cfg.training_episodes, cfg.synthetic_batches) == (
        500, 5000, 6000)
    rng = np.random.default_rng(0)
    pair = gan.make_gan(rng)
    assert pair.g.layer_sizes == [16, 40, 20, ENCODED_DIM]
    assert pair.d.layer_sizes == [ENCODED_DIM, 40, 20, 1]
    assert pair.g_opt.learning_rate == pair.d_opt.learning_rate == 5e-6
    assert pair.batch_size == 64
    model = enhancer.make_enhancer(rng)
    assert model.net.layer_sizes == [SA_DIM, 60, 60, ENCODED_DIM - SA_DIM]
    assert model.opt.learning_rate == 1e-3
    refine = inspect.signature(enhancer.egan_refine).parameters
    assert (refine["k"].default, refine["n_samples"].default,
            refine["learning_rate"].default) == (2, 6000, 1e-3)
    agent = policy.make_agent(rng)
    assert agent.net.layer_sizes == [4, 32, 2]
    assert agent.opt.learning_rate == 1e-3
    assert agent.gamma == 0.99
    assert harness.EPISODES_PER_UPDATE == 5


def test_config_holds_only_what_a_run_varies():
    from dataclasses import fields

    assert [f.name for f in fields(ExperimentConfig)] == [
        "mode", "seed", "out_dir", "pretrain_episodes", "gan_train_steps",
        "enhancer_train_steps", "training_episodes", "synthetic_batches",
        "pretrain_learning_rate", "env_max_steps"]


def test_mode_none_budget_includes_pretrain_episodes():
    assert ExperimentConfig(mode="none").total_episodes() == 5500
    assert ExperimentConfig(mode="egan").total_episodes() == 5000


def test_validate_accepts_defaults():
    for mode in ("none", "gan", "egan"):
        validate(ExperimentConfig(mode=mode))


@pytest.mark.parametrize(
    "field,value",
    [
        ("mode", "both"),
        ("pretrain_episodes", 0),
        ("pretrain_learning_rate", 0.0),
        ("seed", -1),
    ],
)
def test_validate_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError):
        validate(ExperimentConfig(**{field: value}))


FLOAT_FIELDS = ("pretrain_learning_rate",)


def test_float_fields_are_every_float_field():
    from dataclasses import fields

    assert set(FLOAT_FIELDS) == {
        f.name for f in fields(ExperimentConfig) if isinstance(f.default, float)
    }


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_validate_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        validate(ExperimentConfig(**{field: value}))


def test_text_round_trip(tmp_path):
    cfg = ExperimentConfig(mode="egan", seed=3, pretrain_learning_rate=0.1 + 0.2,
                           env_max_steps=50)
    path = tmp_path / "meta_egan_3.txt"  # what `egan run` writes, and --config reads
    path.write_text(config_to_text(cfg))
    assert load_config(path) == cfg


@pytest.mark.parametrize("out_dir", ["a#b", "#", "a\nb", "a\rb", " a", "a ", "a\t"])
def test_validate_rejects_out_dir_that_cannot_read_back(out_dir):
    with pytest.raises(ConfigError, match="out_dir"):
        validate(ExperimentConfig(out_dir=out_dir))


VALID_CONFIGS = st.builds(
    ExperimentConfig,
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0),
    out_dir=st.text(),
    pretrain_episodes=st.integers(min_value=1),
    gan_train_steps=st.integers(min_value=1),
    enhancer_train_steps=st.integers(min_value=1),
    training_episodes=st.integers(min_value=1),
    synthetic_batches=st.integers(min_value=0),
    pretrain_learning_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    env_max_steps=st.integers(min_value=1),
)


@given(VALID_CONFIGS)
@settings(max_examples=300, deadline=None)
def test_text_round_trip_of_every_valid_config(cfg):
    try:
        validate(cfg)
    except ConfigError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "meta.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_to_text(cfg))
        assert load_config(path) == cfg


def test_every_field_present_in_text():
    text = config_to_text(ExperimentConfig())
    from dataclasses import fields

    for f in fields(ExperimentConfig):
        assert f"{f.name} = " in text


def test_load_config_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\nmode = gan\nseed = 9  # trailing comment\n\n")
    cfg = load_config(path)
    assert cfg.mode == "gan"
    assert cfg.seed == 9


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), {"warp_speed": "9"})


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), {"seed": "banana"})


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_malformed_line_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mode gan\n")
    with pytest.raises(ConfigError):
        load_config(path)
