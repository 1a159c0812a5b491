"""Experiment configuration: JSON document -> validated dataclasses."""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .phantom import PhantomConfig, PhantomError
from .segnet import ModelError, SegModelConfig
from .trainer import TrainConfig, TrainError
from .uncertainty import PerturbationError, PoolConfig


class ConfigError(Exception):
    """Invalid experiment config; message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    teacher_organs: int      # K
    new_organ: int           # organ id to add incrementally

    def __post_init__(self):
        if self.teacher_organs < 1:
            raise ConfigError("scenario.teacher_organs must be >= 1")
        if self.new_organ <= self.teacher_organs:
            raise ConfigError("scenario.new_organ must be an organ beyond the teacher's K")


# 100x the default 100 samples; at the default size they hold 160 MB
MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    phantom: PhantomConfig
    train: TrainConfig
    scenario: Scenario
    pool: PoolConfig
    model: SegModelConfig  # the teacher's
    num_samples: int
    out_dir: str
    seed: int

    def __post_init__(self):
        if not 5 <= self.num_samples <= MAX_SAMPLES:
            raise ConfigError(f"num_samples must be in 5..{MAX_SAMPLES} (>= 5 for a 4:1 split)")
        if self.scenario.new_organ > self.phantom.num_organs:
            raise ConfigError("scenario.new_organ exceeds phantom.num_organs")


# JSON types accepted for a field, by its annotation
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _shown(value) -> str:
    """`value` as JSON, cut short: an integer may have hundreds of digits,
    and a list may nest deeper than `json.dumps` can follow."""
    try:
        text = json.dumps(value)
    except RecursionError:
        text = "[" * 40
    return text if len(text) <= 40 else text[:37] + "..."


def _check_type(name: str, value, annotation: str):
    """A tuple field is a list of one item type: "tuple[float, float]" of
    that length, "tuple[int, ...]" of any length. A float must be finite
    as a float, which refuses NaN, Infinity and 10**400."""
    items = annotation[6:-1].split(", ") if annotation.startswith("tuple[") else None
    if items is None:
        ok = isinstance(value, _JSON_TYPES[annotation])
    else:
        ok = isinstance(value, list) and (items[-1] == "..." or len(value) == len(items))
    # bool is an int subclass, but `true` is not a number
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{name}: expected {annotation}, got {_shown(value)}")
    # ints compare with floats exactly, and NaN compares false
    if annotation == "float" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name}: expected a finite float, got {_shown(value)}")
    if items is not None:
        for i, item in enumerate(value):
            _check_type(f"{name}[{i}]", item, items[0])


def _build(cls, payload: dict, prefix: str, derived: dict | None = None):
    """`cls` from a JSON object; the fields in `derived` are set from
    elsewhere in the document, and the object may not name them."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{prefix}: expected an object")
    derived = derived or {}
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in payload.items():
        if key not in fields or key in derived:
            raise ConfigError(f"{prefix}.{key}: unknown field")
        _check_type(f"{prefix}.{key}", value, fields[key])
    fixed = {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
    try:
        return cls(**fixed, **derived)
    except (TypeError, ValueError, PhantomError, TrainError, PerturbationError, ModelError,
            ConfigError) as e:
        raise ConfigError(f"{prefix}: {e}") from e


_REQUIRED = ("scenario", "out_dir", "seed")


def parse_experiment(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for key in _REQUIRED:
        if key not in doc:
            raise ConfigError(f"missing required field {key!r}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    seed = doc["seed"]
    _check_type("seed", seed, "int")
    if seed < 0:  # numpy's SeedSequence takes none
        raise ConfigError(f"seed: expected a non-negative int, got {seed}")
    num_samples = doc.get("num_samples", 100)
    _check_type("num_samples", num_samples, "int")
    _check_type("out_dir", doc["out_dir"], "str")

    scenario = _build(Scenario, doc["scenario"], "scenario")
    return ExperimentConfig(
        # one seed: the sections take the top-level one and may not set theirs
        phantom=_build(PhantomConfig, doc.get("phantom", {}), "phantom",
                       derived={"seed": seed}),
        train=_build(TrainConfig, doc.get("train", {}), "train",
                     derived={"seed": seed}),
        scenario=scenario,
        pool=_build(PoolConfig, doc.get("pool", {}), "pool"),
        # the teacher's classes follow from the scenario: K organs + background
        model=_build(SegModelConfig, doc.get("model", {}), "model",
                     derived={"num_classes": scenario.teacher_organs + 1}),
        num_samples=num_samples,
        out_dir=doc["out_dir"],
        seed=seed,
    )


def load_experiment(path, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, or nested too deep
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    return parse_experiment(doc)
