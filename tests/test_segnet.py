import tracemalloc

import numpy as np
import pytest

from useg import atomic, segnet
from useg.autodiff import conv_forward
from useg.losses import softmax
from useg.segnet import (
    ModelError,
    SegModelConfig,
    extend_for_increment,
    init_random,
    load,
    save,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def logits(model, image):
    """[Cin,H,W] image -> [C,H,W] logits, by the no-grad entry point."""
    return segnet.infer(model, image[None])[0]


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ModelError):
            SegModelConfig(num_classes=1)
        with pytest.raises(ModelError):
            SegModelConfig(num_classes=3, kernel_size=4)
        with pytest.raises(ModelError):
            SegModelConfig(num_classes=3, hidden=(0, 4))

    def test_layer_shapes_chain(self):
        cfg = SegModelConfig(num_classes=4, hidden=(8, 16))
        shapes = cfg.layer_shapes()
        assert shapes[0][0] == (8, 1, 3, 3)
        assert shapes[1][0] == (16, 8, 3, 3)
        assert shapes[2][0] == (4, 16, 3, 3)


class TestInitRandom:
    def test_deterministic(self):
        cfg = SegModelConfig(num_classes=3)
        a = init_random(cfg, 5)
        b = init_random(cfg, 5)
        assert a.weights_digest() == b.weights_digest()

    def test_different_seed_differs(self):
        cfg = SegModelConfig(num_classes=3)
        assert init_random(cfg, 1).weights_digest() != init_random(cfg, 2).weights_digest()

    def test_biases_zero(self):
        model = init_random(SegModelConfig(num_classes=3), 0)
        for _, bias in model.layers:
            assert np.array_equal(bias.data, np.zeros_like(bias.data))

    def test_zero_image_uniform_softmax(self):
        model = init_random(SegModelConfig(num_classes=4), 3)
        probs = softmax(logits(model, np.zeros((1, 6, 6))))
        assert np.allclose(probs, 0.25)

    def test_kernel_bound(self):
        cfg = SegModelConfig(num_classes=3, hidden=(8,))
        model = init_random(cfg, 0)
        kern = model.layers[0][0].data  # 1 -> 8 channels, k=3
        bound = np.sqrt(6.0 / (1 * 9 + 8 * 9))
        assert np.abs(kern).max() <= bound


class TestForward:
    def test_single_layer_equals_conv(self):
        cfg = SegModelConfig(num_classes=2, hidden=())
        model = init_random(cfg, 4)
        img = rng_for(0).uniform(0, 1, (1, 5, 5))
        kern, bias = model.layers[0]
        direct = conv_forward(img[None], kern.data, bias.data)[0][0]
        assert np.array_equal(logits(model, img), direct)

    @pytest.mark.parametrize("h,w", [(1, 1), (3, 7), (16, 16)])
    def test_resolution_preserved(self, h, w):
        model = init_random(SegModelConfig(num_classes=3), 0)
        out = logits(model, np.zeros((1, h, w)))
        assert out.shape == (3, h, w)

    def test_forward_deterministic(self):
        model = init_random(SegModelConfig(num_classes=3), 0)
        img = rng_for(1).uniform(0, 1, (1, 8, 8))
        a = logits(model, img)
        b = logits(model, img)
        assert np.array_equal(a, b)

    def test_batched_matches_per_image(self):
        model = init_random(SegModelConfig(num_classes=3), 9)
        imgs = rng_for(2).uniform(0, 1, (4, 1, 6, 6))
        batched = segnet.forward(model, imgs)[0]
        for i in range(4):
            single = logits(model, imgs[i])
            assert np.abs(batched[i] - single).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 6])
    def test_batched_matches_per_image_on_trainable_student(self, n):
        teacher = init_random(SegModelConfig(num_classes=3), 11)
        teacher.freeze()
        student = extend_for_increment(teacher, 1, 12)
        assert not student.frozen
        imgs = rng_for(3).uniform(0, 1, (n, 1, 9, 7))
        batched = segnet.forward(student, imgs)[0]
        for i in range(n):
            single = logits(student, imgs[i])
            assert np.abs(batched[i] - single).max() < 1e-12

    def test_wrong_channels_rejected(self):
        model = init_random(SegModelConfig(num_classes=3), 0)
        with pytest.raises(ModelError):
            segnet.forward(model, np.zeros((1, 2, 4, 4)))


def traced_peak(fn):
    """(peak bytes tracemalloc saw while `fn` ran, its result)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


class TestInfer:
    C = segnet.INFER_CHUNK

    @pytest.mark.parametrize("n", sorted({1, C - 1, C, C + 1, 3 * C + 1} - {0}))
    def test_bytes_equal_one_forward(self, n):
        model = init_random(SegModelConfig(num_classes=4), 3)
        imgs = rng_for(n).uniform(0, 1, (n, 1, 7, 5))
        got = segnet.infer(model, imgs)
        assert got.shape == (n, 4, 7, 5)
        assert got.tobytes() == segnet.forward(model, imgs, cache=False)[0].tobytes()

    def test_no_images(self):
        model = init_random(SegModelConfig(num_classes=4), 0)
        out = segnet.infer(model, np.zeros((0, 1, 6, 5)))
        assert isinstance(out, np.ndarray) and out.shape == (0, 4, 6, 5)
        with pytest.raises(ModelError):
            segnet.infer(model, np.zeros((0, 2, 6, 5)))

    def test_working_set_does_not_grow_with_n(self):
        # the peak beyond the output is one chunk's, however many images:
        # one forward over all 64 would hold 64 images' unfolded inputs
        model = init_random(SegModelConfig(num_classes=4), 0)
        many = rng_for(5).uniform(0, 1, (64, 1, 32, 32))
        few = many[:self.C].copy()
        segnet.infer(model, few)  # fill the tap caches outside the traces
        peak_few, _ = traced_peak(lambda: segnet.infer(model, few))
        peak_many, out = traced_peak(lambda: segnet.infer(model, many))
        assert peak_many - out.nbytes <= peak_few + 64 * 1024


class TestExtend:
    def test_teacher_unchanged(self):
        teacher = init_random(SegModelConfig(num_classes=3), 6)
        before = teacher.weights_digest()
        extend_for_increment(teacher, 1, 7)
        assert teacher.weights_digest() == before

    def test_zero_new_classes_is_exact_copy(self):
        teacher = init_random(SegModelConfig(num_classes=3), 6)
        student = extend_for_increment(teacher, 0, 7)
        img = rng_for(3).uniform(0, 1, (1, 6, 6))
        assert np.array_equal(logits(student, img), logits(teacher, img))

    def test_parameter_count_delta(self):
        teacher = init_random(SegModelConfig(num_classes=3, hidden=(8, 16)), 6)
        student = extend_for_increment(teacher, 2, 7)
        k = teacher.config.kernel_size
        expected = (16 * k * k + 1) * 2
        assert student.flat.size - teacher.flat.size == expected

    def test_argmax_agreement_after_extension(self):
        teacher = init_random(SegModelConfig(num_classes=3), 8)
        # push teacher logits away from ties
        for kern, _ in teacher.layers:
            kern.data *= 3.0
        student = extend_for_increment(teacher, 1, 9)
        rng = rng_for(4)
        img = rng.uniform(0, 1, (1, 10, 10))
        t_arg = logits(teacher, img).argmax(axis=0)
        s_logits = logits(student, img)
        s_arg = s_logits[:3].argmax(axis=0)  # renormalized over old channels
        assert np.array_equal(t_arg, s_arg)

    def test_student_trainable_even_from_frozen_teacher(self):
        teacher = init_random(SegModelConfig(num_classes=3), 6)
        teacher.freeze()
        student = extend_for_increment(teacher, 1, 7)
        assert not student.frozen
        assert all(p.requires_grad for p in student.parameters())


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = init_random(SegModelConfig(num_classes=4, hidden=(3, 5)), 10)
        path = tmp_path / "m.useg"
        save(model, path)
        loaded = load(path)
        assert loaded.config == model.config
        assert loaded.weights_digest() == model.weights_digest()
        img = rng_for(5).uniform(0, 1, (1, 6, 6))
        assert np.array_equal(logits(loaded, img), logits(model, img))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.useg"
        model = init_random(SegModelConfig(num_classes=3), 0)
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XSEG"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelError, match="bad magic"):
            load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.useg"
        save(init_random(SegModelConfig(num_classes=3), 0), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelError, match="version 99 != 1"):
            load(path)

    def test_truncated_weights(self, tmp_path):
        path = tmp_path / "m.useg"
        save(init_random(SegModelConfig(num_classes=3), 0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 17])
        with pytest.raises(ModelError, match=r"expected \d+ bytes, got \d+"):
            load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.useg"
        path.write_bytes(b"USEG\x01\x00")
        with pytest.raises(ModelError, match=r"expected \d+ bytes, got \d+"):
            load(path)

    # byte 11 is the high byte of in_channels, byte 27 that of kernel_size
    # (hidden = (8, 16)): the header then promises gigabytes, or a count
    # that wraps in int64, and the file's length must refuse it unread
    @pytest.mark.parametrize("byte, mask", [(11, 0x01), (27, 0x10)])
    def test_corrupted_header_promising_huge_weights(self, tmp_path, byte, mask):
        path = tmp_path / "m.useg"
        save(init_random(SegModelConfig(num_classes=3), 0), path)
        raw = bytearray(path.read_bytes())
        raw[byte] ^= mask
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelError, match=rf"expected \d+ bytes, got {len(raw)}"):
            load(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.useg"
        save(init_random(SegModelConfig(num_classes=3), 0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelError, match=r"expected \d+ bytes, got \d+"):
            load(path)


class HalfWriter:
    """A file that takes half of the first write and then fails, as a full
    disk does."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def fail_writes_halfway(monkeypatch):
    """Make every file `write_atomic` opens for writing take half a write,
    then fail."""
    def half_open(path, mode):
        return HalfWriter(open(path, mode)) if "w" in mode else open(path, mode)

    monkeypatch.setattr(atomic, "open", half_open, raising=False)


class TestAtomicSave:
    def test_write_failing_halfway_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.useg"
        save(init_random(SegModelConfig(num_classes=3), 0), path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            save(init_random(SegModelConfig(num_classes=3), 1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.useg"]

    def test_write_failing_halfway_leaves_no_file(self, tmp_path, monkeypatch):
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            save(init_random(SegModelConfig(num_classes=3), 0), tmp_path / "m.useg")
        assert list(tmp_path.iterdir()) == []

    def test_replace_failing_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.useg"
        save(init_random(SegModelConfig(num_classes=3), 0), path)
        before = path.read_bytes()

        def no_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(atomic.os, "replace", no_replace)
        with pytest.raises(OSError):
            save(init_random(SegModelConfig(num_classes=3), 1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.useg"]
