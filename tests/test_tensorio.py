"""File format round-trips, exact byte layouts, and rejection of bad input."""

import os
import stat
import struct

import numpy as np
import pytest

import eaparse as ea
from eaparse import tensorio
from eaparse.errors import (
    BadMagic,
    BadVersion,
    InvalidRaster,
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    TrailingData,
    TruncatedData,
    UnsupportedMaxval,
)


def test_pgm_documented_layout(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
    m = ea.read_label_map(p)
    assert m.tolist() == [[0, 1], [2, 3]]
    assert m.dtype == np.uint8


def test_pgm_writer_exact_bytes(tmp_path):
    p = tmp_path / "a.pgm"
    ea.write_label_map(np.array([[7]], dtype=np.uint8), p)
    assert p.read_bytes() == b"P5\n1 1\n255\n\x07"


def test_ppm_single_red_pixel(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = ea.read_rgb_image(p)
    assert img.shape == (1, 1, 3)
    assert img[0, 0].tolist() == [255, 0, 0]


def test_fplt_documented_layout(tmp_path):
    p = tmp_path / "a.fplt"
    ea.write_logits(np.zeros((1, 1, 1), dtype=np.float32), p)
    data = p.read_bytes()
    assert len(data) == 24
    assert data[:4] == b"FPLT"
    assert struct.unpack("<IIII", data[4:20]) == (1, 1, 1, 1)
    assert data[20:] == b"\x00\x00\x00\x00"


@pytest.mark.parametrize("seed", range(100))
def test_round_trips(tmp_path, seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    c = int(rng.integers(1, 5))

    lm = rng.integers(0, 256, (h, w)).astype(np.uint8)
    ea.write_label_map(lm, tmp_path / "m.pgm")
    assert (ea.read_label_map(tmp_path / "m.pgm") == lm).all()
    # re-writing what was read reproduces the file byte for byte
    ea.write_label_map(ea.read_label_map(tmp_path / "m.pgm"), tmp_path / "m2.pgm")
    assert (tmp_path / "m.pgm").read_bytes() == (tmp_path / "m2.pgm").read_bytes()

    img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    ea.write_rgb_image(img, tmp_path / "i.ppm")
    assert (ea.read_rgb_image(tmp_path / "i.ppm") == img).all()
    ea.write_rgb_image(ea.read_rgb_image(tmp_path / "i.ppm"), tmp_path / "i2.ppm")
    assert (tmp_path / "i.ppm").read_bytes() == (tmp_path / "i2.ppm").read_bytes()

    t = rng.normal(0, 3, (c, h, w)).astype(np.float32)
    ea.write_logits(t, tmp_path / "t.fplt")
    assert (ea.read_logits(tmp_path / "t.fplt") == t).all()
    ea.write_logits(ea.read_logits(tmp_path / "t.fplt"), tmp_path / "t2.fplt")
    assert (tmp_path / "t.fplt").read_bytes() == (tmp_path / "t2.fplt").read_bytes()


def test_pgm_maxval_rejected(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedMaxval):
        ea.read_label_map(p)


def test_pgm_magic_into_ppm_reader(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(MalformedHeader):
        ea.read_rgb_image(p)


def test_pgm_comment_rejected(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n# c\n1 1\n255\n\x00")
    with pytest.raises(MalformedHeader):
        ea.read_label_map(p)


def test_pgm_zero_dimension_rejected(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n0 1\n255\n")
    with pytest.raises(MalformedHeader):
        ea.read_label_map(p)


def test_pgm_truncated_payload(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(TruncatedData):
        ea.read_label_map(p)


def test_pgm_trailing_bytes(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(TrailingData):
        ea.read_label_map(p)


def test_ppm_truncated_payload(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
    with pytest.raises(TruncatedData):
        ea.read_rgb_image(p)


def test_fplt_bad_magic(tmp_path):
    p = tmp_path / "a.fplt"
    p.write_bytes(b"XPLT" + struct.pack("<IIII", 1, 1, 1, 1) + bytes(4))
    with pytest.raises(BadMagic):
        ea.read_logits(p)


@pytest.mark.parametrize("data", [b"", b"F", b"FP", b"FPL", b"XYZ"])
def test_fplt_shorter_than_its_magic(tmp_path, data):
    p = tmp_path / "a.fplt"
    p.write_bytes(data)
    with pytest.raises(BadMagic) as info:
        ea.read_logits(p)
    assert str(info.value) == f"{p}: expected magic FPLT, found {data!r}"


def test_fplt_bad_version(tmp_path):
    p = tmp_path / "a.fplt"
    p.write_bytes(b"FPLT" + struct.pack("<IIII", 2, 1, 1, 1) + bytes(4))
    with pytest.raises(BadVersion):
        ea.read_logits(p)


def test_fplt_truncated(tmp_path):
    p = tmp_path / "a.fplt"
    p.write_bytes(b"FPLT" + struct.pack("<IIII", 1, 1, 2, 2) + bytes(15))
    with pytest.raises(TruncatedData):
        ea.read_logits(p)


def test_fplt_trailing(tmp_path):
    p = tmp_path / "a.fplt"
    p.write_bytes(b"FPLT" + struct.pack("<IIII", 1, 1, 1, 1) + bytes(8))
    with pytest.raises(TrailingData):
        ea.read_logits(p)


def test_fplt_nan_rejected(tmp_path):
    p = tmp_path / "a.fplt"
    payload = struct.pack("<f", float("nan"))
    p.write_bytes(b"FPLT" + struct.pack("<IIII", 1, 1, 1, 1) + payload)
    with pytest.raises(NonFiniteValue):
        ea.read_logits(p)


def test_missing_file_wrapped(tmp_path):
    with pytest.raises(IoFailure):
        ea.read_label_map(tmp_path / "nope.pgm")


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "l.pgm"
    target.write_bytes(b"old bytes")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoFailure, match="rename refused"):
        ea.write_label_map(np.zeros((2, 2), dtype=np.uint8), target)
    assert target.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.pgm"]


def test_failed_write_of_a_later_file_replaces_none(tmp_path):
    first = tmp_path / "a.pgm"
    first.write_bytes(b"old bytes")
    items = [(first, b"new a"), (tmp_path / "b.pgm", b"new b"), (tmp_path / "absent" / "c.pgm", b"new c")]
    with pytest.raises(IoFailure, match="absent"):
        tensorio._write_files(items)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm"]
    assert first.read_bytes() == b"old bytes"
    tensorio._write_files(items[:2])
    assert first.read_bytes() == b"new a" and (tmp_path / "b.pgm").read_bytes() == b"new b"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.parametrize("spelling", ["same", "dotdot"])
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_two_items_naming_one_file_write_nothing(tmp_path, spelling, existing):
    target = tmp_path / "x.pgm"
    (tmp_path / "d").mkdir()
    other = target if spelling == "same" else tmp_path / "d" / ".." / "x.pgm"
    if existing:
        target.write_bytes(b"old bytes")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(IoFailure, match=r"x\.pgm"):
        tensorio._write_files([(tmp_path / "y.pgm", b"y"), (target, b"labels"), (other, b"trace")])
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing:
        assert target.read_bytes() == b"old bytes"


def test_a_symlink_and_its_target_are_two_files(tmp_path):
    target = tmp_path / "x.pgm"
    link = tmp_path / "link.pgm"
    link.symlink_to(target)
    (tmp_path / "sub").symlink_to(tmp_path, target_is_directory=True)
    with pytest.raises(IoFailure, match="same file"):
        tensorio._write_files([(target, b"a"), (tmp_path / "sub" / "x.pgm", b"b")])
    tensorio._write_files([(target, b"a"), (link, b"b")])  # the link itself is replaced
    assert target.read_bytes() == b"a" and not link.is_symlink() and link.read_bytes() == b"b"


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    # a name at the usual 255-byte limit leaves no room for a suffixed temp name
    fresh, replaced = tmp_path / ("f" * 251 + ".pgm"), tmp_path / "replaced.pgm"
    replaced.write_bytes(b"old")
    for path in (fresh, replaced):
        ea.write_label_map(np.zeros((2, 2), dtype=np.uint8), path)
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [fresh.name, "plain", "replaced.pgm"]


def test_validators_reject_bad_shapes():
    with pytest.raises(InvalidRaster):
        ea.ensure_label_map(np.zeros((0, 0), dtype=np.uint8))
    with pytest.raises(InvalidRaster):
        ea.ensure_rgb_image(np.zeros((2, 2, 4), dtype=np.uint8))
    with pytest.raises(InvalidRaster):
        ea.ensure_binary_mask(np.array([[0, 2]], dtype=np.uint8))
    with pytest.raises(InvalidRaster):
        ea.ensure_logits(np.array([[[np.inf]]], dtype=np.float32))
    with pytest.raises(InvalidRaster):
        ea.write_label_map(np.zeros((2, 2)) - 1, "/tmp/never-written.pgm")


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_validators_convert_wide_integers_in_range(dtype):
    labels = np.array([[0, 7], [200, 255]], dtype=dtype)
    got = ea.ensure_label_map(labels)
    assert got.dtype == np.uint8 and got.tolist() == labels.tolist()
    image = np.arange(12, dtype=dtype).reshape(2, 2, 3) * 23
    got = ea.ensure_rgb_image(image)
    assert got.dtype == np.uint8 and got.tolist() == image.tolist()


@pytest.mark.parametrize(
    "validator, shape, kind, byte_message",
    [
        (ea.ensure_label_map, (2, 2), "label map", "label ids must fit in one unsigned byte"),
        (ea.ensure_rgb_image, (2, 2, 3), "rgb image", "channel values must fit in one unsigned byte"),
    ],
)
def test_validators_reject_values_outside_a_byte_and_floats(validator, shape, kind, byte_message):
    for bad in (-1, 256):
        a = np.zeros(shape, dtype=np.int16)
        a.flat[-1] = bad
        with pytest.raises(InvalidRaster, match=f"^{byte_message}$"):
            validator(a)
    with pytest.raises(InvalidRaster, match=f"^{kind} must hold integers, got dtype float64$"):
        validator(np.zeros(shape))


def test_binary_mask_accepts_bools():
    got = ea.ensure_binary_mask(np.array([[True, False], [False, True]]))
    assert got.dtype == np.uint8 and got.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P52 2 255\n", "missing whitespace between header fields"),
        (b"P5\n2 x 255\n", "expected an unsigned integer in header"),
        (b"P5\n2 2 255x", "header must end with a single whitespace byte"),
    ],
)
def test_pnm_header_grammar_errors(tmp_path, header, message):
    p = tmp_path / "a.pgm"
    p.write_bytes(header + bytes(4))
    with pytest.raises(MalformedHeader, match=message):
        ea.read_label_map(p)


def test_fplt_shorter_than_its_header(tmp_path):
    p = tmp_path / "a.fplt"
    p.write_bytes(b"FPLT" + struct.pack("<III", 1, 1, 1))
    with pytest.raises(TruncatedData, match="header needs 20 bytes, file has 16"):
        ea.read_logits(p)


@pytest.mark.parametrize("chw", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_fplt_zero_dimension_rejected(tmp_path, chw):
    p = tmp_path / "a.fplt"
    p.write_bytes(b"FPLT" + struct.pack("<IIII", 1, *chw))
    with pytest.raises(MalformedHeader, match=r"C, H, W must all be >= 1"):
        ea.read_logits(p)
