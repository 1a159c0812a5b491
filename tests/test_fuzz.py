"""Fuzz the files a command reads through the CLI: a `.useg` weights file
and the PGM rasters of a dataset passed to `useg evaluate`, a single-organ
raster passed to `useg distill`, and `manifest.json` passed to `useg
train-teacher` and `useg distill`, each truncated, bit-flipped or with a
byte inserted. Every case must end with exit code 0, 1 or 2; a refusal
must print an `error:` line, no traceback, and leave the output tree as it
was.

Fuzz the config parser too: documents whose fields, taken from the config
dataclasses, are swapped for hostile values must either be refused with a
`ConfigError` or build their first phantom and their teacher."""

import dataclasses
import json
import typing

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import read_tree_bytes
from useg import phantom, segnet
from useg.cli import main
from useg.config import ConfigError, ExperimentConfig, load_experiment

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# half the positions fall here: a .useg header with two hidden layers is 32
# bytes, a PGM header of these rasters at most 15, and the manifest's
# first 32 bytes hold its phantom section's first fields
HOT_BYTES = 32


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    doc = {
        "seed": 5,
        "out_dir": str(root / "run"),
        "num_samples": 5,
        "phantom": {"size": 12, "num_organs": 3, "organ_means": [0.35, 0.6, 0.85],
                    "radius_range": [1.8, 2.2]},
        "scenario": {"teacher_organs": 2, "new_organ": 3},
        "train": {"teacher_epochs": 1, "distill_epochs": 1, "batch_size": 2},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc))
    runner = CliRunner()
    for command in ("generate", "train-teacher"):
        assert runner.invoke(main, [command, "--config", str(cfg_path)]).exit_code == 0
    return cfg_path, root / "run"


def mutations(size: int):
    """A truncation, a bit flip or a one-byte insertion of a `size`-byte
    file."""
    pos = st.one_of(st.integers(0, HOT_BYTES), st.integers(0, size))
    return st.one_of(
        st.tuples(st.just("truncate"), pos.map(lambda p: min(p, size - 1))),
        st.tuples(st.just("flip"), pos.map(lambda p: min(p, size - 1)),
                  st.integers(0, 7)),
        st.tuples(st.just("insert"), pos, st.integers(0, 255)),
    )


def mutate(raw: bytes, mutation) -> bytes:
    kind, pos, *arg = mutation
    if kind == "truncate":
        return raw[:pos]
    if kind == "flip":
        return raw[:pos] + bytes([raw[pos] ^ (1 << arg[0])]) + raw[pos + 1:]
    return raw[:pos] + bytes(arg) + raw[pos:]


def assert_total(cfg_path, out, command, *args):
    before = read_tree_bytes(out)
    result = CliRunner().invoke(main, [command, "--config", str(cfg_path), *args])
    assert result.exit_code in (0, 1, 2)
    assert isinstance(result.exception, (SystemExit, type(None)))
    if result.exit_code:
        assert "Traceback" not in result.output
        assert any(line.startswith("error:") for line in result.stderr.splitlines())
        assert read_tree_bytes(out) == before


def test_corrupted_weights(run, tmp_path_factory):
    cfg_path, out = run
    raw = (out / "teacher.useg").read_bytes()
    bad = tmp_path_factory.mktemp("weights") / "bad.useg"

    @FUZZ
    @given(mutations(len(raw)))
    def check(mutation):
        bad.write_bytes(mutate(raw, mutation))
        assert_total(cfg_path, out, "evaluate", "--weights", str(bad))

    check()


def fuzz_dataset_file(run, name, command):
    cfg_path, out = run
    path = out / "dataset" / name
    raw = path.read_bytes()
    args = ["--weights", str(out / "teacher.useg")] if command == "evaluate" else []

    @FUZZ
    @given(mutations(len(raw)))
    def check(mutation):
        path.write_bytes(mutate(raw, mutation))
        try:
            assert_total(cfg_path, out, command, *args)
        finally:
            path.write_bytes(raw)

    check()


# sample 4 is the held-out one, which evaluate reads; distill trains on
# sample 0's new-organ labels
@pytest.mark.parametrize("raster", ["images/4.pgm", "labels_full/4.pgm",
                                    "labels_organ3/0.pgm"])
def test_corrupted_raster(run, raster):
    fuzz_dataset_file(run, raster,
                      "distill" if raster.startswith("labels_organ") else "evaluate")


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_corrupted_manifest(run, command):
    fuzz_dataset_file(run, "manifest.json", command)


# The fuzz's valid starting point: a first phantom and a teacher of it
# build in milliseconds.
BASE = {"seed": 5, "out_dir": "run", "num_samples": 5,
        "phantom": {"size": 12, "num_organs": 3, "organ_means": [0.35, 0.6, 0.85],
                    "radius_range": [1.8, 2.2]},
        "scenario": {"teacher_organs": 2, "new_organ": 3}}
SECTIONS = {name: cls for name, cls in typing.get_type_hints(ExperimentConfig).items()
            if dataclasses.is_dataclass(cls)}
# a section's seed and the model's classes are set from elsewhere in the document
DERIVED = ("seed", "num_classes")
FIELDS = ([(None, f.name) for f in dataclasses.fields(ExperimentConfig)
           if f.name not in SECTIONS]
          + [(section, f.name) for section, cls in SECTIONS.items()
             for f in dataclasses.fields(cls) if f.name not in DERIVED])

HOSTILE = st.sampled_from([-1, -0.5, 0, 10**30, 10**400, -10**400, float("nan"),
                           float("inf"), float("-inf"), True, None, "x", {}])
# plausible numbers, so that some documents build
NUMBERS = st.one_of(st.integers(-2, 40), st.floats(-1.0, 40.0))
# lists of the wrong length, or of hostile items, in place of any field
VALUES = st.one_of(HOSTILE, NUMBERS, st.lists(st.one_of(HOSTILE, NUMBERS), max_size=4))


def test_config_documents(tmp_path):
    path = tmp_path / "config.json"

    @FUZZ
    @given(st.lists(st.tuples(st.sampled_from(FIELDS), VALUES), min_size=1, max_size=3))
    def check(swaps):
        doc = json.loads(json.dumps(BASE))
        for (section, name), value in swaps:
            (doc.setdefault(section, {}) if section else doc)[name] = value
        # NaN and Infinity go into the file as JSON's NaN/Infinity tokens
        path.write_text(json.dumps(doc))
        try:
            cfg = load_experiment(path)
        except ConfigError:
            return
        phantom.generate_dataset(cfg.phantom, 1)
        segnet.init_random(cfg.model, cfg.seed)

    check()
