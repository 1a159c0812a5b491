import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from useg import phantom, segnet
from useg.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def make_config(tmp_path, **overrides):
    doc = {
        "seed": 13,
        "out_dir": str(tmp_path / "run"),
        "num_samples": 10,
        "phantom": {"size": 16, "num_organs": 3,
                    "organ_means": [0.35, 0.6, 0.85],
                    "radius_range": [1.8, 2.6]},
        "scenario": {"teacher_organs": 2, "new_organ": 3},
        "train": {"teacher_epochs": 3, "distill_epochs": 2,
                  "learning_rate": 1e-3, "ensemble_size": 2},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, Path(doc["out_dir"])


def read_tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerate:
    def test_writes_layout(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path)
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        ds = out / "dataset"
        assert (ds / "manifest.json").exists()
        for sub in ("images", "labels_full", "labels_organ1", "labels_organ2",
                    "labels_organ3"):
            assert len(list((ds / sub).glob("*.pgm"))) == 10

    def test_idempotent_bytes(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path)
        assert runner.invoke(main, ["generate", "--config", str(cfg_path)]).exit_code == 0
        first = read_tree_bytes(out / "dataset")
        assert runner.invoke(main, ["generate", "--config", str(cfg_path)]).exit_code == 0
        assert read_tree_bytes(out / "dataset") == first

    def test_single_sample(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path, num_samples=5)
        assert runner.invoke(main, ["generate", "--config", str(cfg_path)]).exit_code == 0
        assert len(list((out / "dataset" / "images").glob("*.pgm"))) == 5

    def test_missing_field_names_it(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "out_dir": str(tmp_path / "x")}))
        result = runner.invoke(main, ["generate", "--config", str(path)])
        assert result.exit_code == 1
        assert "scenario" in result.output

    def test_unknown_field_names_it(self, runner, tmp_path):
        cfg_path, _ = make_config(tmp_path, bogus_field=1)
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert "bogus_field" in result.output

    def test_lockfile_guard(self, runner, tmp_path):
        # a lock held by a live process (this one) refuses
        cfg_path, out = make_config(tmp_path)
        out.mkdir(parents=True)
        (out / ".lock").write_text(str(os.getpid()))
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert "lock" in result.output

    def test_empty_lockfile_refuses(self, runner, tmp_path):
        # a run may have created its lock but not yet written its pid
        cfg_path, out = make_config(tmp_path)
        out.mkdir(parents=True)
        (out / ".lock").write_text("")
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert "lock" in result.output

    def test_lock_of_exited_process_is_replaced(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path)
        out.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        (out / ".lock").write_text(str(child.pid))
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (out / "dataset" / "manifest.json").exists()
        assert not (out / ".lock").exists()


def config_commands(out):
    """The commands that read a config, each with the arguments it also needs."""
    return {"generate": [], "train-teacher": [], "distill": [], "ablate": [],
            "evaluate": ["--weights", str(out / "teacher.useg")]}


def assert_refused(result, out, tree_before):
    """Exit 1 with an `error:` line, no traceback, output tree untouched."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert any(line.startswith("error:") for line in result.stderr.splitlines())
    tree_after = read_tree_bytes(out) if out.exists() else {}
    assert tree_after == tree_before


class TestMalformedInput:
    def test_num_samples_string(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path, num_samples="7")
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert_refused(result, out, {})
        assert "num_samples" in result.stderr

    def test_fractional_batch_size(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path, train={"batch_size": 1.5})
        # generate reads no train settings, so it writes the dataset
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert_refused(result, out, read_tree_bytes(out))
        assert "train.batch_size" in result.stderr

    def test_untrainable_lengths_rejected(self, runner, generated):
        # refused before training: no untrained teacher.useg, no empty log
        cfg_path, out = generated
        doc = json.loads(cfg_path.read_text())
        doc["train"].update(teacher_epochs=-3, weight_decay=-0.5)
        cfg_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert_refused(result, out, read_tree_bytes(out))
        assert "error: train:" in result.stderr

    def test_section_seed_rejected(self, runner, tmp_path):
        # the top-level seed (or --seed) is the one seed; a section may not
        # keep its own that the override would leave behind
        cfg_path, out = make_config(tmp_path, train={"teacher_epochs": 3, "seed": 0})
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path),
                                      "--seed", "5"])
        assert_refused(result, out, {})
        assert "error: train.seed: unknown field" in result.stderr

    def test_model_num_classes_rejected(self, runner, tmp_path):
        # the class count follows scenario.teacher_organs; a document may not set it
        cfg_path, out = make_config(tmp_path, model={"num_classes": 3, "hidden": [4]})
        result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
        assert_refused(result, out, {})
        assert "model.num_classes" in result.stderr

    def test_test_index_out_of_range(self, runner, generated):
        cfg_path, out = generated
        manifest = out / "dataset" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["test_indices"].append(doc["num_samples"])
        manifest.write_text(json.dumps(doc))
        before = read_tree_bytes(out)
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert_refused(result, out, before)
        assert "manifest" in result.stderr

    @pytest.mark.parametrize("empty", ["train_indices", "test_indices"])
    def test_empty_split(self, runner, generated, empty):
        # refused before training: an empty train split leaves nothing to
        # stack, an empty test split nothing to score
        cfg_path, out = generated
        manifest = out / "dataset" / "manifest.json"
        doc = json.loads(manifest.read_text())
        other = "test_indices" if empty == "train_indices" else "train_indices"
        doc[other] = list(range(doc["num_samples"]))
        doc[empty] = []
        manifest.write_text(json.dumps(doc))
        before = read_tree_bytes(out)
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert_refused(result, out, before)
        assert "at least one sample" in result.stderr

    @pytest.mark.parametrize("key, value, args, field", [
        ("pool", {"contrast_range": [1]}, [], "pool.contrast_range"),
        ("phantom", {"radius_range": [3]}, [], "phantom.radius_range"),
        ("phantom", {"organ_means": ["a", "b", "c"]}, [], "phantom.organ_means[0]"),
        ("phantom", {"size": 8}, [], "phantom: size 8"),
        ("model", {"hidden": [8.5]}, [], "model.hidden[0]"),
        ("phantom", {"noise_sigma": -0.01}, [], "phantom: noise_sigma must be >= 0"),
        ("seed", -1, [], "seed: expected a non-negative int, got -1"),
        ("seed", 13, ["--seed", "-1"], "seed: expected a non-negative int, got -1"),
        ("train", {"learning_rate": 10**400}, [], "train.learning_rate: expected a finite"),
        ("train", {"weight_decay": 10**400}, [], "train.weight_decay: expected a finite"),
        ("phantom", {"noise_sigma": 10**400}, [], "phantom.noise_sigma: expected a finite"),
        ("phantom", {"size": 10**30}, [], f"phantom: size {10**30} exceeds"),
        ("num_samples", 10**30, [], "num_samples must be in 5..10000"),
        ("model", {"hidden": [4000000000]}, [], "model: the widths and kernel size give"),
        ("model", {"kernel_size": 4000000001}, [], "model: the widths and kernel size give"),
        ("train", {"ensemble_size": 10**8}, [], "train: ensemble size Q must be in 1..256"),
        ("pool", {"blur_sigma_range": [0.5, 1e300]}, [], "pool: blur sigmas must be in (0, "),
    ], ids=["contrast_range", "radius_range", "organ_means", "size", "hidden", "noise_sigma",
            "seed_negative", "seed_option_negative", "learning_rate_huge",
            "weight_decay_huge", "noise_sigma_huge", "size_huge", "num_samples_huge",
            "hidden_huge", "kernel_size_huge", "ensemble_size_huge", "blur_sigma_huge"])
    def test_config_value_refused_before_any_work(self, runner, generated, key, value,
                                                  args, field):
        # each ended in a traceback from the constructors, `SeedSequence`,
        # `generate`, `init_random` or `distill` (a segfault for Q = 10**8, a
        # `ValueError` from the blur's `np.arange` for σ = 1e300), or (a
        # negative noise_sigma) in noise-free phantoms; now the config parse
        # refuses it in every command that reads it. `generate` reads no
        # train settings.
        cfg_path, out = generated
        doc = json.loads(cfg_path.read_text())
        doc[key] = value
        cfg_path.write_text(json.dumps(doc))
        before = read_tree_bytes(out)
        for command, extra in config_commands(out).items():
            if key == "train" and command == "generate":
                continue
            result = runner.invoke(main, [command, "--config", str(cfg_path), *args, *extra])
            assert_refused(result, out, before)
            assert f"error: {field}" in result.stderr

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested"])
    def test_unreadable_config(self, runner, trained, tmp_path, raw):
        # a UnicodeDecodeError and a RecursionError from `json.loads` once
        _, out = trained
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        before = read_tree_bytes(tmp_path)
        for command, extra in config_commands(out).items():
            result = runner.invoke(main, [command, "--config", str(bad), *extra])
            assert_refused(result, tmp_path, before)
            assert f"error: {bad}: invalid JSON" in result.stderr

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested"])
    def test_unreadable_manifest(self, runner, trained, raw):
        cfg_path, out = trained
        manifest = out / "dataset" / "manifest.json"
        manifest.write_bytes(raw)
        before = read_tree_bytes(out)
        for command, extra in config_commands(out).items():
            if command == "generate":  # writes the manifest, reads none
                continue
            result = runner.invoke(main, [command, "--config", str(cfg_path), *extra])
            assert_refused(result, out, before)
            assert f"error: corrupt manifest at {manifest}" in result.stderr

    def test_manifest_num_samples_huge(self, runner, generated):
        # the split check built `list(range(num_samples))`: an OverflowError
        cfg_path, out = generated
        manifest = out / "dataset" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "num_samples": 10**30}))
        before = read_tree_bytes(out)
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert_refused(result, out, before)
        assert "error: manifest train and test indices must be disjoint" in result.stderr

    def test_out_dir_not_a_string(self, runner, tmp_path):
        # once taken as the directory "7" under the working directory
        cfg_path, _ = make_config(tmp_path)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "out_dir": 7}))
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            result = runner.invoke(main, ["generate", "--config", str(cfg_path)])
            assert_refused(result, Path(cwd), {})
        assert "error: out_dir: expected str, got 7" in result.stderr

    def test_raster_of_wrong_size(self, runner, generated):
        # refused while loading, before training stacks the images
        cfg_path, out = generated
        ds = out / "dataset"
        phantom.image_to_pgm(np.zeros((8, 8)), ds / "images" / "0.pgm")
        phantom.write_pgm(np.zeros((8, 8), dtype=np.int64), ds / "labels_full" / "0.pgm", 3)
        before = read_tree_bytes(out)
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert_refused(result, out, before)
        assert "images/0.pgm: raster is 8x8, but the manifest's size is 16" in result.stderr


@pytest.fixture()
def generated(runner, tmp_path):
    cfg_path, out = make_config(tmp_path)
    assert runner.invoke(main, ["generate", "--config", str(cfg_path)]).exit_code == 0
    return cfg_path, out


class TestTrainTeacher:
    def test_outputs_and_csv(self, runner, generated):
        cfg_path, out = generated
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (out / "teacher.useg").exists()
        with open(out / "teacher_log.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert {"epoch", "loss", "dice_organ1", "dice_organ2"} <= set(rows[0])
        assert "organ 1" in result.output

    def test_model_section_sets_architecture(self, runner, tmp_path):
        cfg_path, out = make_config(tmp_path, model={"hidden": [4]})
        assert runner.invoke(main, ["generate", "--config", str(cfg_path)]).exit_code == 0
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        teacher = segnet.load(out / "teacher.useg")
        assert (teacher.config.hidden, teacher.config.num_classes) == ((4,), 3)

    def test_missing_dataset(self, runner, tmp_path):
        cfg_path, _ = make_config(tmp_path)
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert result.exit_code == 1

    def test_corrupt_manifest(self, runner, generated):
        cfg_path, out = generated
        (out / "dataset" / "manifest.json").write_text("{broken")
        result = runner.invoke(main, ["train-teacher", "--config", str(cfg_path)])
        assert result.exit_code == 1

    def test_dataset_config_mismatch(self, runner, generated, tmp_path):
        cfg_path, out = generated
        (tmp_path / "sub").mkdir()
        other_path, _ = make_config(tmp_path / "sub",
                                    phantom={"size": 16, "num_organs": 3,
                                             "organ_means": [0.3, 0.5, 0.7],
                                             "radius_range": [1.8, 2.6]})
        result = runner.invoke(main, ["train-teacher", "--config", str(other_path),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert ("dataset manifest does not match the phantom config; "
                "regenerate the dataset") in result.stderr


@pytest.fixture()
def trained(runner, generated):
    cfg_path, out = generated
    assert runner.invoke(main, ["train-teacher", "--config", str(cfg_path)]).exit_code == 0
    return cfg_path, out


class TestDistill:
    def test_outputs(self, runner, trained):
        cfg_path, out = trained
        result = runner.invoke(main, ["distill", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (out / "student.useg").exists()
        student = segnet.load(out / "student.useg")
        assert student.config.num_classes == 4
        report = json.loads((out / "eval_report.json").read_text())
        assert set(report["per_organ"]) == {"1", "2", "3"}
        with open(out / "distill_log.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert {"epoch", "loss_total", "loss_old", "loss_new", "mean_u"} <= set(rows[0])

    def test_uncertainty_off_flag(self, runner, trained):
        cfg_path, out = trained
        result = runner.invoke(main, ["distill", "--config", str(cfg_path),
                                      "--uncertainty", "off"])
        assert result.exit_code == 0, result.output
        with open(out / "distill_log.csv") as f:
            rows = list(csv.DictReader(f))
        assert all(float(r["mean_u"]) == 1.0 for r in rows)

    def test_wrong_teacher_rejected_before_training(self, runner, trained, tmp_path):
        cfg_path, out = trained
        wrong = segnet.init_random(segnet.SegModelConfig(num_classes=5), 0)
        wrong_path = tmp_path / "wrong.useg"
        segnet.save(wrong, wrong_path)
        result = runner.invoke(main, ["distill", "--config", str(cfg_path),
                                      "--teacher", str(wrong_path)])
        assert result.exit_code == 1
        assert "classes" in result.output
        assert not (out / "student.useg").exists()

    def test_write_failing_halfway_leaves_outputs_whole(self, runner, trained,
                                                       monkeypatch):
        from test_segnet import fail_writes_halfway
        cfg_path, out = trained
        assert runner.invoke(main, ["distill", "--config", str(cfg_path)]).exit_code == 0
        before = read_tree_bytes(out)
        fail_writes_halfway(monkeypatch)
        result = runner.invoke(main, ["distill", "--config", str(cfg_path),
                                      "--uncertainty", "off"])
        assert result.exit_code == 2
        assert any(line.startswith("error:") for line in result.stderr.splitlines())
        assert read_tree_bytes(out) == before

    def test_csv_failing_halfway_keeps_old_file(self, tmp_path):
        from useg.cli import _write_csv
        path = tmp_path / "log.csv"
        _write_csv(path, [{"a": 1}])
        before = path.read_bytes()
        with pytest.raises(ValueError):
            _write_csv(path, [{"a": 2}, {"a": 3, "b": 4}])  # row 2 has an unknown key
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_determinism(self, runner, trained):
        cfg_path, out = trained
        assert runner.invoke(main, ["distill", "--config", str(cfg_path)]).exit_code == 0
        first = (out / "student.useg").read_bytes()
        first_report = (out / "eval_report.json").read_bytes()
        assert runner.invoke(main, ["distill", "--config", str(cfg_path)]).exit_code == 0
        assert (out / "student.useg").read_bytes() == first
        assert (out / "eval_report.json").read_bytes() == first_report


class TestDataFree:
    def test_each_command_opens_only_what_its_stage_may_see(self, runner, trained,
                                                            monkeypatch):
        # the incremental stage trains "without accessing any data belonging
        # to the previous training stages": it opens the new organ's labels
        # for the train split, and the full labels of the held-out split only
        cfg_path, out = trained
        ds = out / "dataset"
        manifest = json.loads((ds / "manifest.json").read_text())
        train, test = manifest["train_indices"], manifest["test_indices"]
        opened = []
        read_pgm = phantom.read_pgm

        def recording(path):
            opened.append(Path(path).relative_to(ds).as_posix())
            return read_pgm(path)

        monkeypatch.setattr(phantom, "read_pgm", recording)

        def files(folder, split):
            return [f"{folder}/{i}.pgm" for i in split]

        held_out = files("images", test) + files("labels_full", test)
        incremental = files("images", train) + files("labels_organ3", train) + held_out
        expected = {
            "train-teacher": files("images", train) + files("labels_full", train) + held_out,
            "distill": incremental,
            "ablate": incremental,
            "evaluate": held_out,
        }
        for command, want in expected.items():
            opened.clear()
            result = runner.invoke(main, [command, "--config", str(cfg_path),
                                          *config_commands(out)[command]])
            assert result.exit_code == 0, result.output
            if command in ("distill", "ablate"):
                assert not set(opened) & set(files("labels_full", train)), command
            if command == "evaluate":
                assert not [f for f in opened if int(Path(f).stem) in train]
            if command == "train-teacher":
                assert not [f for f in opened if f.startswith("labels_organ")]
            # every file of the split once, and nothing else
            assert sorted(opened) == sorted(want), command


class TestAblate:
    def test_rows_and_schema(self, runner, trained):
        cfg_path, out = trained
        result = runner.invoke(main, ["ablate", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        with open(out / "ablation.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["variant"] for r in rows] == \
            ["as-paper", "confidence", "off", "new-task-only"]
        schema = set(rows[0])
        assert all(set(r) == schema for r in rows)
        assert {"old_mean", "new_dice", "dice_organ1"} <= schema


class TestEvaluate:
    def test_report(self, runner, trained):
        cfg_path, out = trained
        result = runner.invoke(main, ["evaluate", "--config", str(cfg_path),
                                      "--weights", str(out / "teacher.useg")])
        assert result.exit_code == 0, result.output
        assert "mean:" in result.output


@pytest.mark.parametrize("command, flag", [("evaluate", "--weights"),
                                           ("distill", "--teacher")])
def test_nan_weights_rejected(runner, trained, tmp_path, command, flag):
    # a weight file that holds a NaN is malformed input, not a traceback
    cfg_path, out = trained
    model = segnet.load(out / "teacher.useg")
    model.flat[3] = np.nan
    bad = tmp_path / "nan.useg"
    segnet.save(model, bad)
    before = read_tree_bytes(out)
    result = runner.invoke(main, [command, "--config", str(cfg_path), flag, str(bad)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "error: non-finite values in a parameter" in result.stderr.splitlines()
    assert read_tree_bytes(out) == before


@pytest.mark.parametrize("command, flag", [("evaluate", "--weights"),
                                           ("distill", "--teacher")])
@pytest.mark.parametrize("byte, mask", [(11, 0x01), (27, 0x10)])
def test_corrupted_weights_header_rejected(runner, trained, tmp_path, command, flag,
                                           byte, mask):
    # one flipped bit in in_channels (byte 11) or kernel_size (byte 27) makes
    # the header promise far more weights than the file holds
    cfg_path, out = trained
    raw = bytearray((out / "teacher.useg").read_bytes())
    raw[byte] ^= mask
    bad = tmp_path / "bad.useg"
    bad.write_bytes(bytes(raw))
    before = read_tree_bytes(out)
    result = runner.invoke(main, [command, "--config", str(cfg_path), flag, str(bad)])
    assert_refused(result, out, before)
    assert f"bytes, got {len(raw)}" in result.stderr


class TestGradcheck:
    def test_default_seed_passes(self, runner):
        result = runner.invoke(main, ["gradcheck", "--seed", "0"])
        assert result.exit_code == 0, result.output
        assert "passed" in result.output
        assert "layer" in result.output

    def test_flags_override(self, runner):
        result = runner.invoke(main, ["gradcheck", "--seed", "1",
                                      "--step", "1e-4", "--tol", "1e-3"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--step", "0"], ["--step", "nan"]],
                             ids=["seed_negative", "step_zero", "step_nan"])
    def test_bad_option_refused(self, runner, args):
        # a ValueError from PCG64, a ZeroDivisionError, or a NaN that passed
        result = runner.invoke(main, ["gradcheck", *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: gradcheck needs --seed >= 0 and a finite --step > 0" in result.stderr

    def test_impossible_tolerance_fails(self, runner):
        result = runner.invoke(main, ["gradcheck", "--seed", "0", "--tol", "1e-18"])
        assert result.exit_code == 2


def test_cli_imports_no_scipy():
    # the runtime is numpy and click; scipy is only a test oracle
    root = Path(__file__).resolve().parent.parent
    code = ("import useg.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert result.stdout.strip() == "[]"
