"""Geometric augmentations: documented examples, involutions, size formulas."""

import numpy as np
import pytest

import eaparse as ea
from eaparse.errors import LabelOutOfRange, ShapeMismatch, TooSmall


def _pair(rng, h, w):
    img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    lab = rng.integers(0, 6, (h, w)).astype(np.uint8)
    return img, lab


def test_hflip_swaps_paired_ids():
    img = np.zeros((1, 3, 3), dtype=np.uint8)
    lab = np.array([[2, 0, 3]], dtype=np.uint8)
    swaps = ea.SwapTable([(2, 3)])
    _, out = ea.hflip_with_swap(img, lab, swaps)
    assert out.tolist() == [[2, 0, 3]]
    _, out2 = ea.hflip_with_swap(img, np.array([[2, 1, 0]], dtype=np.uint8), swaps)
    assert out2.tolist() == [[0, 1, 3]]


def test_hflip_is_an_involution():
    swaps = ea.SwapTable([(1, 2), (4, 5)])
    rng = np.random.default_rng(0)
    for h, w in [(3, 3), (4, 5), (5, 4), (1, 7), (6, 1)]:
        img, lab = _pair(rng, h, w)
        i1, l1 = ea.hflip_with_swap(img, lab, swaps)
        i2, l2 = ea.hflip_with_swap(i1, l1, swaps)
        assert (i2 == img).all() and (l2 == lab).all()


def test_rotate_quarter_documented_example():
    lab = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
    img = np.repeat(lab[:, :, None], 3, axis=2)
    ri, rl = ea.rotate_quarter(img, lab, 1)
    assert rl.tolist() == [[4, 1], [5, 2], [6, 3]]
    assert ri[:, :, 0].tolist() == rl.tolist()
    bi, bl = ea.rotate_quarter(ri, rl, 3)
    assert (bl == lab).all() and (bi == img).all()


def test_rotate_four_times_is_identity():
    rng = np.random.default_rng(1)
    for h, w in [(2, 3), (5, 5), (3, 4), (1, 2)]:
        img, lab = _pair(rng, h, w)
        ci, cl = img, lab
        for _ in range(4):
            ci, cl = ea.rotate_quarter(ci, cl, 1)
        assert (ci == img).all() and (cl == lab).all()


def test_rotate_rejects_other_quarter_counts():
    img, lab = _pair(np.random.default_rng(2), 2, 2)
    for q in (0, 2, 4, -1, "1", None):
        with pytest.raises(ea.InvalidChoice, match="quarters must be 1 or 3"):
            ea.rotate_quarter(img, lab, q)


def test_cut_half_size_formulas():
    rng = np.random.default_rng(3)
    for w in range(2, 10):
        img, lab = _pair(rng, 4, w)
        _, ll = ea.cut_half(img, lab, "left")
        _, rl = ea.cut_half(img, lab, "right")
        assert ll.shape == (4, w // 2)
        assert rl.shape == (4, w - (w + 1) // 2)
        assert (ll == lab[:, : w // 2]).all()
        assert (rl == lab[:, (w + 1) // 2 :]).all()
    for h in range(2, 10):
        img, lab = _pair(rng, h, 4)
        _, tl = ea.cut_half(img, lab, "top")
        _, bl = ea.cut_half(img, lab, "bottom")
        assert tl.shape == (h // 2, 4)
        assert bl.shape == (h - (h + 1) // 2, 4)


def test_cut_half_odd_width_drops_middle_column():
    img = np.zeros((1, 5, 3), dtype=np.uint8)
    lab = np.array([[0, 1, 2, 3, 4]], dtype=np.uint8)
    _, left = ea.cut_half(img, lab, "left")
    _, right = ea.cut_half(img, lab, "right")
    assert left.tolist() == [[0, 1]]
    assert right.tolist() == [[3, 4]]


def test_cut_half_rejects_tiny_dimension():
    img, lab = _pair(np.random.default_rng(4), 1, 4)
    with pytest.raises(TooSmall):
        ea.cut_half(img, lab, "top")
    img, lab = _pair(np.random.default_rng(5), 4, 1)
    with pytest.raises(TooSmall):
        ea.cut_half(img, lab, "left")


def test_cut_half_rejects_other_sides():
    img, lab = _pair(np.random.default_rng(6), 4, 4)
    for side in ("", "LEFT", "middle", None, 0):
        with pytest.raises(ea.InvalidChoice, match="side must be left/right/top/bottom"):
            ea.cut_half(img, lab, side)


def test_swap_table_validation():
    with pytest.raises(LabelOutOfRange):
        ea.SwapTable([(1, 1)])
    with pytest.raises(LabelOutOfRange):
        ea.SwapTable([(0, 300)])
    with pytest.raises(LabelOutOfRange):
        ea.SwapTable([(1, 2), (2, 3)])


def test_mismatched_pair_is_rejected():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    lab = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(ShapeMismatch):
        ea.hflip_with_swap(img, lab, ea.SwapTable())
