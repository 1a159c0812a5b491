import json

import numpy as np
import pytest

from useg import phantom
from useg.phantom import (
    PhantomConfig,
    PhantomError,
    generate_dataset,
    load_dataset,
    read_pgm,
    split_indices,
    to_first_k_organs,
    to_single_organ,
    write_dataset,
    write_pgm,
)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(PhantomConfig(seed=3), 8)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_dataset(PhantomConfig(seed=1), 4)
        b = generate_dataset(PhantomConfig(seed=1), 4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.labels, sb.labels)

    def test_noise_free_images_take_configured_values(self):
        cfg = PhantomConfig(seed=2, noise_sigma=0.0)
        for s in generate_dataset(cfg, 3):
            values = set(np.unique(s.image))
            assert values <= {0.1, 0.35, 0.6, 0.85}

    def test_all_organs_present(self, small_dataset):
        for s in small_dataset:
            assert set(np.unique(s.labels)) == {0, 1, 2, 3}

    def test_organs_disjoint_and_big_enough(self, small_dataset):
        for s in small_dataset:
            for organ in (1, 2, 3):
                assert (s.labels == organ).sum() >= 9

    def test_image_range_and_shape(self, small_dataset):
        for s in small_dataset:
            assert s.image.shape == (1, 32, 32)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_crowded_config_errors(self):
        cfg = PhantomConfig(size=12, num_organs=3, organ_means=(0.3, 0.5, 0.7),
                            radius_range=(5.0, 5.5), seed=0)
        with pytest.raises(PhantomError):
            generate_dataset(cfg, 1)

    def test_bad_n(self):
        with pytest.raises(PhantomError):
            generate_dataset(PhantomConfig(), 0)


class TestLabelViews:
    def test_single_organ_binary(self, small_dataset):
        s = small_dataset[0]
        view = to_single_organ(s, 3, 3)
        assert set(np.unique(view.labels)) <= {0, 1}
        assert np.array_equal(view.labels == 1, s.labels == 3)
        assert view.image is s.image

    def test_single_organ_foreground_count(self, small_dataset):
        for s in small_dataset:
            for organ in (1, 2, 3):
                view = to_single_organ(s, organ, 3)
                assert view.labels.sum() == (s.labels == organ).sum()

    def test_reconstruction_from_single_organ_views(self, small_dataset):
        # organs are disjoint, so superimposing the views recovers the map
        for s in small_dataset:
            rebuilt = np.zeros_like(s.labels)
            for organ in (1, 2, 3):
                rebuilt += organ * to_single_organ(s, organ, 3).labels
            assert np.array_equal(rebuilt, s.labels)

    def test_single_organ_bad_id(self, small_dataset):
        with pytest.raises(PhantomError):
            to_single_organ(small_dataset[0], 0, 3)
        with pytest.raises(PhantomError):
            to_single_organ(small_dataset[0], 4, 3)

    def test_first_k_identity(self, small_dataset):
        s = small_dataset[0]
        assert np.array_equal(to_first_k_organs(s, 3, 3).labels, s.labels)

    def test_first_zero_all_background(self, small_dataset):
        assert to_first_k_organs(small_dataset[0], 0, 3).labels.sum() == 0

    def test_first_two_drops_organ_three(self, small_dataset):
        s = small_dataset[0]
        view = to_first_k_organs(s, 2, 3)
        assert (view.labels[s.labels == 3] == 0).all()
        assert np.array_equal(view.labels == 1, s.labels == 1)

    def test_first_k_out_of_range(self, small_dataset):
        with pytest.raises(PhantomError):
            to_first_k_organs(small_dataset[0], 4, 3)


class TestPgm:
    def test_label_roundtrip_exact(self, tmp_path, small_dataset):
        path = tmp_path / "l.pgm"
        labels = small_dataset[0].labels
        write_pgm(labels, path, 3)
        got, maxval = read_pgm(path)
        assert maxval == 3
        assert np.array_equal(got, labels)

    def test_image_roundtrip_quantization_bound(self, tmp_path, small_dataset):
        path = tmp_path / "i.pgm"
        image = small_dataset[0].image
        phantom.image_to_pgm(image, path)
        got = phantom.image_from_pgm(path)
        assert np.abs(got - image).max() <= 1.0 / 65535

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"\x89PNG\r\n")
        with pytest.raises(PhantomError, match="not a binary PGM"):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PhantomError, match="raster truncated"):
            read_pgm(path)

    def test_out_of_range_values_rejected(self, tmp_path):
        with pytest.raises(PhantomError, match="values out of PGM range"):
            write_pgm(np.array([[5]]), tmp_path / "o.pgm", 3)

    @pytest.mark.parametrize("header, raster", [
        (b"P5 2 2 100\n", bytes([0, 50, 200, 255])),  # decoded to 2.0 and 2.55 once
        (b"P5 2 1 1\n", bytes([0, 2])),                # a single-organ raster
        (b"P5 1 1 256\n", bytes([1, 1])),              # 16 bits: 257
    ], ids=["u8", "single_organ", "u16"])
    def test_value_above_maxval_rejected(self, tmp_path, header, raster):
        path = tmp_path / "v.pgm"
        path.write_bytes(header + raster)
        with pytest.raises(PhantomError, match="above maxval"):
            read_pgm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
        arr, maxval = read_pgm(path)
        assert maxval == 255
        assert np.array_equal(arr, [[7, 9]])

    @pytest.mark.parametrize("header", [
        b"P55\n8 6\n256\n",     # the magic runs into the width
        b"P5\n+4 2\n255\n",      # a sign
        b"P5\n3_2 2\n255\n",     # a digit separator
        b"P5\n1 1\n0000000255\n",  # ten digits
    ])
    def test_header_fields_not_pgm_rejected(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(256))  # raster bytes to spare
        with pytest.raises(PhantomError, match="malformed or truncated header"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5\n2#width\n1\n255\n",                  # a comment right after a number
        b"P5#a\n2\n#b\n#c\n1#d\n \t#e\n255\n",  # comments between every pair of fields
    ])
    def test_comments_between_fields(self, tmp_path, header):
        path = tmp_path / "c.pgm"
        path.write_bytes(header + b"\x07\x09")
        arr, maxval = read_pgm(path)
        assert maxval == 255
        assert np.array_equal(arr, [[7, 9]])


class TestDatasetIO:
    def test_split_ratio(self):
        train, test = split_indices(100)
        assert len(train) == 80 and len(test) == 20
        assert train + test == list(range(100))

    def test_write_load_roundtrip(self, tmp_path):
        cfg = PhantomConfig(seed=5)
        samples = generate_dataset(cfg, 6)
        write_dataset(tmp_path / "ds", cfg, samples)
        train = load_dataset(tmp_path / "ds", cfg, "train")
        test = load_dataset(tmp_path / "ds", cfg, "test")
        assert len(train) == 4 and len(test) == 2
        for a, b in zip(samples, train + test):
            assert np.array_equal(a.labels, b.labels)
            assert np.abs(a.image - b.image).max() <= 1.0 / 65535
        for organ in range(1, cfg.num_organs + 1):
            for a, b in zip(train, load_dataset(tmp_path / "ds", cfg, "train", organ)):
                assert np.array_equal(b.image, a.image)
                assert np.array_equal(b.labels, to_single_organ(a, organ, 3).labels)

    def test_reproducible_bytes(self, tmp_path):
        cfg = PhantomConfig(seed=6)
        for d in ("a", "b"):
            write_dataset(tmp_path / d, cfg, generate_dataset(cfg, 3))
        for rel in ["images/0.pgm", "labels_full/2.pgm", "labels_organ1/1.pgm",
                    "manifest.json"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PhantomError):
            load_dataset(tmp_path, PhantomConfig(), "train")

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(PhantomError):
            load_dataset(tmp_path, PhantomConfig(), "train")

    @pytest.mark.parametrize("change", [
        {"num_samples": 0}, {"num_samples": True}, {"num_samples": "5"},
        {"test_indices": [4, 5]},           # out of range
        {"test_indices": [3, 4]},           # overlaps train
        {"train_indices": [0, 1, 2]},       # sample 3 in neither split
        {"test_indices": [3.0, 4]},         # not an integer
        {"train_indices": "0123"},
        {"phantom": []},
        {"phantom": {"bogus": 1}},
        {"phantom": {"num_organs": "3"}},
        {"train_indices": [], "test_indices": [0, 1, 2, 3, 4]},
        {"train_indices": [0, 1, 2, 3, 4], "test_indices": []},
        {"phantom": {"radius_range": [3]}},
        {"phantom": {"radius_range": [4, 3]}},
        {"phantom": {"size": 32, "num_organs": 3, "organ_means": [0.35, 0.6, 0.85],
                     "noise_sigma": 0.03, "radius_range": [2.5, 5.0], "seed": 6}},
    ])
    def test_malformed_manifest_rejected(self, tmp_path, change):
        cfg = PhantomConfig(seed=5)
        write_dataset(tmp_path, cfg, generate_dataset(cfg, 5))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps({**doc, **change}))
        with pytest.raises(PhantomError, match="manifest"):
            load_dataset(tmp_path, cfg, "train")

    def test_phantom_section_is_compared_not_parsed(self, tmp_path):
        cfg = PhantomConfig(seed=5)
        write_dataset(tmp_path, cfg, generate_dataset(cfg, 5))
        with pytest.raises(PhantomError, match="does not match the phantom config; "
                                               "regenerate the dataset"):
            load_dataset(tmp_path, PhantomConfig(seed=6), "test")

    @pytest.mark.parametrize("folder, organ", [
        ("images", None), ("labels_full", None), ("labels_organ2", 2)],
        ids=["images", "labels_full", "labels_organ2"])
    def test_raster_of_wrong_size_rejected(self, tmp_path, folder, organ):
        cfg = PhantomConfig(seed=5)
        write_dataset(tmp_path, cfg, generate_dataset(cfg, 5))
        write_pgm(np.zeros((16, 16), dtype=np.int64), tmp_path / folder / "3.pgm", 3)
        with pytest.raises(PhantomError, match=f"{folder}/3.pgm: raster is 16x16"):
            load_dataset(tmp_path, cfg, "train", organ)

    def test_single_organ_raster_needs_maxval_one(self, tmp_path):
        cfg = PhantomConfig(seed=5)
        samples = generate_dataset(cfg, 5)
        write_dataset(tmp_path, cfg, samples)
        write_pgm(samples[1].labels == 2, tmp_path / "labels_organ2" / "1.pgm", 3)
        with pytest.raises(PhantomError, match="labels_organ2/1.pgm: maxval 3, expected 1"):
            load_dataset(tmp_path, cfg, "train", 2)

    def test_manifest_write_failing_halfway_keeps_old_manifest(self, tmp_path, monkeypatch):
        from test_segnet import fail_writes_halfway
        cfg = PhantomConfig(seed=5)
        write_dataset(tmp_path, cfg, generate_dataset(cfg, 5))
        before = (tmp_path / "manifest.json").read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            write_dataset(tmp_path, cfg, generate_dataset(cfg, 6))
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert not list(tmp_path.glob(".manifest.json*"))
        assert len(load_dataset(tmp_path, cfg, "train")) == 4
