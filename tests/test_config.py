import pytest

from egan.config import (
    ExperimentConfig,
    apply_overrides,
    config_to_text,
    load_config,
    validate,
)
from egan.errors import ConfigError


def test_defaults_match_reference_table():
    cfg = ExperimentConfig()
    assert cfg.g_hidden == (40, 20)
    assert cfg.d_hidden == (40, 20)
    assert cfg.enhancer_hidden == (60, 60)
    assert cfg.gan_learning_rate == 5e-6
    assert cfg.gan_batch_size == 64
    assert cfg.pretrain_episodes == 500
    assert cfg.refine_iterations == 2
    assert cfg.policy_hidden == (32,)
    assert cfg.pg_learning_rate == 1e-3
    assert cfg.pg_discount == 0.99
    assert cfg.pg_update_frequency == 5
    assert cfg.training_episodes == 5000
    assert cfg.synthetic_batches == 6000


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
        ("gan_learning_rate", -1.0),
        ("pg_discount", 0.0),
        ("pg_discount", 1.5),
        ("kl_weight", -0.1),
        ("seed", -1),
        ("gan_batch_size", 1),
        ("policy_hidden", ()),
        ("refine_samples", 1),
    ],
)
def test_validate_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError):
        validate(ExperimentConfig(**{field: value}))


FLOAT_FIELDS = (
    "gan_learning_rate",
    "enhancer_learning_rate",
    "refine_learning_rate",
    "kl_weight",
    "pretrain_learning_rate",
    "pg_learning_rate",
    "pg_discount",
)


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
    cfg = ExperimentConfig(mode="egan", seed=3, kl_weight=0.5, g_hidden=(16, 8))
    path = tmp_path / "meta_egan_3.txt"  # what `egan run` writes, and --config reads
    path.write_text(config_to_text(cfg))
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


def test_tuple_and_bool_parsing():
    cfg = apply_overrides(ExperimentConfig(), {"g_hidden": "8,4"})
    assert cfg.g_hidden == (8, 4)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_malformed_line_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mode gan\n")
    with pytest.raises(ConfigError):
        load_config(path)
