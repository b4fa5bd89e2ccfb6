"""Box arithmetic, margin expansion, crop and paste-back rules."""

import numpy as np
import pytest

import eaparse as ea
from eaparse.errors import InvalidBox, OutOfBounds, SizeMismatch


def test_box_is_half_open():
    b = ea.Box(2, 3, 7, 9)
    assert b.width == 5 and b.height == 6


def test_box_rejects_empty_or_non_integer():
    with pytest.raises(InvalidBox):
        ea.Box(3, 0, 3, 5)
    with pytest.raises(InvalidBox):
        ea.Box(4, 0, 3, 5)
    with pytest.raises(InvalidBox):
        ea.Box(0.5, 0, 3, 5)
    with pytest.raises(InvalidBox):
        ea.Box(True, 0, 3, 5)


def test_expand_documented_example():
    b = ea.expand_box(ea.Box(10, 10, 30, 30), 0.5, 100, 100)
    assert (b.x0, b.y0, b.x1, b.y1) == (5, 5, 35, 35)


def test_expand_rounds_outward_and_clamps():
    b = ea.expand_box(ea.Box(1, 1, 4, 4), 0.3, 100, 100)
    # margin 0.45 per side: floor(0.55) = 0, ceil(4.45) = 5
    assert (b.x0, b.y0, b.x1, b.y1) == (0, 0, 5, 5)
    c = ea.expand_box(ea.Box(0, 0, 10, 10), 1.0, 12, 12)
    assert (c.x0, c.y0, c.x1, c.y1) == (0, 0, 12, 12)


def test_expand_zero_is_identity_inside_frame():
    b = ea.Box(3, 4, 8, 9)
    assert ea.expand_box(b, 0.0, 20, 20) == b


def test_expand_rejects_bad_inputs():
    with pytest.raises(InvalidBox):
        ea.expand_box(ea.Box(0, 0, 2, 2), -0.1, 10, 10)
    for ratio in (float("nan"), float("inf")):
        with pytest.raises(InvalidBox):
            ea.expand_box(ea.Box(0, 0, 2, 2), ratio, 10, 10)
    with pytest.raises(InvalidBox):
        ea.expand_box(ea.Box(50, 50, 60, 60), 0.2, 10, 10)
    with pytest.raises(InvalidBox, match="frame must be at least 1 x 1"):
        ea.expand_box(ea.Box(0, 0, 2, 2), 0.2, 0, 10)
    # margins and sides beyond float range
    for box, ratio in [
        (ea.Box(0, 0, 5, 5), 1e308),
        (ea.Box(0, 0, 4, 10**400), 0.2),
        (ea.Box(-(10**400), 0, 4, 4), 0.0),
    ]:
        with pytest.raises(InvalidBox, match="cannot expand the box by"):
            ea.expand_box(box, ratio, 10, 10)
    # just inside float range the result is the clamped box, as it always was
    assert ea.expand_box(ea.Box(0, 0, 1, 1), 1e308, 10, 10) == ea.Box(0, 0, 10, 10)
    assert ea.expand_box(ea.Box(-(10**300), 2, 10**300, 4), 0.2, 10, 10) == ea.Box(0, 1, 10, 5)


def test_crop_labels_and_image():
    lab = np.arange(20, dtype=np.uint8).reshape(4, 5)
    got = ea.crop(lab, ea.Box(1, 2, 4, 4))
    assert got.tolist() == [[11, 12, 13], [16, 17, 18]]
    img = np.repeat(lab[:, :, None], 3, axis=2)
    gi = ea.crop(img, ea.Box(1, 2, 4, 4))
    assert gi.shape == (2, 3, 3)
    assert (gi[:, :, 1] == got).all()
    got[0, 0] = 99
    assert lab[2, 1] == 11


def test_crop_out_of_bounds():
    lab = np.zeros((4, 5), dtype=np.uint8)
    with pytest.raises(OutOfBounds):
        ea.crop(lab, ea.Box(2, 2, 6, 4))


def test_paste_default_skips_background():
    canvas = np.full((4, 4), 7, dtype=np.uint8)
    patch = np.array([[0, 1], [2, 0]], dtype=np.uint8)
    out = ea.paste(canvas, patch, ea.Box(1, 1, 3, 3))
    assert out.tolist() == [
        [7, 7, 7, 7],
        [7, 7, 1, 7],
        [7, 2, 7, 7],
        [7, 7, 7, 7],
    ]
    assert (canvas == 7).all()


def test_paste_confidence_strictly_greater_wins():
    canvas = np.full((2, 3), 5, dtype=np.uint8)
    patch = np.array([[1, 2, 3]], dtype=np.uint8)
    cc = np.array([[0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
    pc = np.array([[0.6, 0.5, 0.4]])
    out = ea.paste(canvas, patch, ea.Box(0, 0, 3, 1), canvas_confidence=cc, patch_confidence=pc)
    assert out.tolist() == [[1, 5, 5], [5, 5, 5]]


def test_paste_confidence_can_write_background():
    canvas = np.full((1, 2), 4, dtype=np.uint8)
    patch = np.zeros((1, 2), dtype=np.uint8)
    cc = np.array([[0.2, 0.8]])
    pc = np.array([[0.5, 0.5]])
    out = ea.paste(canvas, patch, ea.Box(0, 0, 2, 1), canvas_confidence=cc, patch_confidence=pc)
    assert out.tolist() == [[0, 4]]


def test_paste_error_cases():
    canvas = np.zeros((4, 4), dtype=np.uint8)
    patch = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(OutOfBounds):
        ea.paste(canvas, patch, ea.Box(3, 3, 5, 5))
    with pytest.raises(SizeMismatch):
        ea.paste(canvas, patch, ea.Box(0, 0, 3, 3))
    with pytest.raises(SizeMismatch):
        ea.paste(canvas, patch, ea.Box(0, 0, 2, 2), patch_confidence=np.ones((2, 2)))
    with pytest.raises(SizeMismatch):
        ea.paste(
            canvas,
            patch,
            ea.Box(0, 0, 2, 2),
            canvas_confidence=np.ones((3, 3)),
            patch_confidence=np.ones((2, 2)),
        )
    with pytest.raises(SizeMismatch, match="patch confidence shape"):
        ea.paste(
            canvas,
            patch,
            ea.Box(0, 0, 2, 2),
            canvas_confidence=np.ones((4, 4)),
            patch_confidence=np.ones((2, 3)),
        )


def test_crop_paste_round_trip():
    rng = np.random.default_rng(0)
    lab = rng.integers(1, 9, (8, 8)).astype(np.uint8)
    box = ea.Box(2, 1, 6, 5)
    patch = ea.crop(lab, box)
    assert (ea.paste(lab, patch, box) == lab).all()


def _column_logits(columns) -> np.ndarray:
    """(3, 2, len(columns)) logits whose column j holds ``columns[j]`` on both rows."""
    return np.repeat(np.array(columns, dtype=np.float32).T[:, None, :], 2, axis=1)


SURE_1, SURE_2 = [-100, 0, -100], [-100, -100, 0]  # confidence exactly 1.0: e**-100 vanishes beside 1
UNSURE_1, UNSURE_2 = [0, 1, 0], [0, 0, 1]  # confidence below 1


def test_fuse_frame_later_box_wins_only_where_strictly_more_confident():
    image = np.zeros((2, 8, 3), dtype=np.uint8)
    boxes = [ea.Box(0, 0, 6, 2), ea.Box(2, 0, 8, 2)]  # the overlap is columns 2..5
    first = _column_logits([SURE_1] * 4 + [UNSURE_1] * 2)
    # over the overlap: less sure, a tie at 1.0, then more sure twice
    second = _column_logits([UNSURE_2, SURE_2, SURE_2, SURE_2, UNSURE_2, UNSURE_2])
    fused = ea.fuse_frame(image, boxes, [[first], [second]], expand_ratio=0)
    assert fused.tolist() == [[1, 1, 1, 1, 2, 2, 2, 2]] * 2
    # the other order: the tie at column 3 stays with the box pasted first
    fused = ea.fuse_frame(image, boxes[::-1], [[second], [first]], expand_ratio=0)
    assert fused.tolist() == [[1, 1, 1, 2, 2, 2, 2, 2]] * 2


def test_fuse_frame_argument_rules():
    image = np.zeros((2, 8, 3), dtype=np.uint8)
    boxes = [ea.Box(0, 0, 6, 2)]
    members = [[_column_logits([SURE_1] * 6)]]
    with pytest.raises(SizeMismatch):
        ea.fuse_frame(image, boxes, members * 2)
    plain = ea.fuse_frame(image, boxes, members, expand_ratio=0)
    assert plain.tolist() == [[1] * 6 + [0] * 2] * 2
    # ids outside 0..255 are absent from every map: nothing to refine
    assert (ea.fuse_frame(image, boxes, members, expand_ratio=0, refine_ids=[300, -1]) == plain).all()
    assert ea.fuse_frame(image, [], []).tolist() == [[0] * 8] * 2

