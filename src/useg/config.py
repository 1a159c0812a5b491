"""Experiment configuration: JSON document -> validated dataclasses."""

from __future__ import annotations

import dataclasses
import json
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


@dataclass(frozen=True)
class ExperimentConfig:
    phantom: PhantomConfig
    train: TrainConfig
    scenario: Scenario
    pool: PoolConfig
    model: SegModelConfig | None  # the teacher's; SegModelConfig's defaults when None
    num_samples: int
    out_dir: str
    seed: int

    def __post_init__(self):
        if self.num_samples < 5:
            raise ConfigError("num_samples must be >= 5 for a 4:1 split")
        if self.scenario.new_organ > self.phantom.num_organs:
            raise ConfigError("scenario.new_organ exceeds phantom.num_organs")


# JSON types accepted for a field, by its annotation
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _check_type(name: str, value, annotation: str):
    """A tuple field is a list of one item type: "tuple[float, float]" of
    that length, "tuple[int, ...]" of any length."""
    items = annotation[6:-1].split(", ") if annotation.startswith("tuple[") else None
    if items is None:
        ok = isinstance(value, _JSON_TYPES[annotation])
    else:
        ok = isinstance(value, list) and (items[-1] == "..." or len(value) == len(items))
    # bool is an int subclass, but `true` is not a number
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{name}: expected {annotation}, got {json.dumps(value)}")
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
    num_samples = doc.get("num_samples", 100)
    _check_type("num_samples", num_samples, "int")
    _check_type("out_dir", doc["out_dir"], "str")

    scenario = _build(Scenario, doc["scenario"], "scenario")
    model = None
    if "model" in doc:
        # the teacher's classes follow from the scenario: K organs + background
        model = _build(SegModelConfig, doc["model"], "model",
                       derived={"num_classes": scenario.teacher_organs + 1})
    return ExperimentConfig(
        # one seed: the sections take the top-level one and may not set theirs
        phantom=_build(PhantomConfig, doc.get("phantom", {}), "phantom",
                       derived={"seed": seed}),
        train=_build(TrainConfig, doc.get("train", {}), "train",
                     derived={"seed": seed}),
        scenario=scenario,
        pool=_build(PoolConfig, doc.get("pool", {}), "pool"),
        model=model,
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
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    return parse_experiment(doc)
