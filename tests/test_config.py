import json

import pytest

from useg.config import ConfigError, load_experiment, parse_experiment
from useg.segnet import SegModelConfig

BASE = {"seed": 0, "out_dir": "run", "scenario": {"teacher_organs": 2, "new_organ": 3}}


@pytest.mark.parametrize("section, key, value", [
    ("train", "batch_size", 1.5),
    ("train", "batch_size", True),
    ("train", "teacher_epochs", "3"),
    ("train", "learning_rate", True),
    ("train", "learning_rate", "1e-3"),
    ("train", "uncertainty_mode", 1),
    ("phantom", "radius_range", "2.5"),
    ("model", "hidden", 8),
    ("scenario", "new_organ", 3.0),
    ("train", "learning_rate", float("nan")),
    ("train", "lambda1", float("inf")),
    pytest.param("phantom", "noise_sigma", 10**400, id="phantom-noise_sigma-10**400"),
])
def test_field_type_rejected(section, key, value):
    doc = {**BASE, section: {**BASE.get(section, {}), key: value}}
    with pytest.raises(ConfigError, match=f"{section}.{key}: expected"):
        parse_experiment(doc)


@pytest.mark.parametrize("key, value", [
    ("seed", True), ("seed", 1.0), ("num_samples", "7"), ("num_samples", False)])
def test_top_level_type_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key}: expected int"):
        parse_experiment({**BASE, key: value})


def test_float_field_accepts_int_and_tuple_field_accepts_list():
    cfg = parse_experiment({**BASE, "train": {"learning_rate": 1},
                            "pool": {"contrast_range": [0.8, 1.2]}})
    assert cfg.train.learning_rate == 1
    assert cfg.pool.contrast_range == (0.8, 1.2)


@pytest.mark.parametrize("section, key", [("train", "smooth_fg"),
                                          ("phantom", "background_mean")])
def test_retired_field_rejected(section, key):
    # label smoothing's 0.7 lives in `losses.smooth_labels` and the phantom
    # background in `phantom.BACKGROUND_MEAN`; no document sets either
    with pytest.raises(ConfigError, match=f"{section}.{key}: unknown field"):
        parse_experiment({**BASE, section: {key: 0.5}})


def test_model_section_defaults():
    cfg = parse_experiment(BASE)
    assert cfg.model == SegModelConfig(num_classes=3)


def test_unknown_top_level_field():
    with pytest.raises(ConfigError, match="extra: unknown field"):
        parse_experiment({**BASE, "extra": 1})


def test_model_num_classes_follows_scenario():
    # the teacher has K organs + background; the document may not say otherwise
    with pytest.raises(ConfigError, match="model.num_classes: unknown field"):
        parse_experiment({**BASE, "model": {"num_classes": 3}})
    cfg = parse_experiment({**BASE, "model": {"hidden": [4]}})
    assert (cfg.model.num_classes, cfg.model.hidden) == (3, (4,))


@pytest.mark.parametrize("section", ["phantom", "train"])
def test_section_seed_rejected(section):
    # one seed per document: a section seed would survive a --seed override
    with pytest.raises(ConfigError, match=f"{section}.seed: unknown field"):
        parse_experiment({**BASE, section: {"seed": 0}})


def test_seed_override_reaches_every_section(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    cfg = load_experiment(path, {"seed": 5})
    assert (cfg.seed, cfg.phantom.seed, cfg.train.seed) == (5, 5, 5)
