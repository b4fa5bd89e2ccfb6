"""Boundary extraction and disk morphology against double-loop oracles."""

import numpy as np
import pytest

import helpers
import eaparse as ea
from eaparse import boundary


def test_uniform_map_has_no_boundary():
    assert ea.extract_boundary(np.full((5, 5), 3, dtype=np.uint8)).sum() == 0


def test_two_column_map_fully_boundary():
    m = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    assert ea.extract_boundary(m).tolist() == [[1, 1], [1, 1]]


@pytest.mark.parametrize("seed", range(20))
def test_boundary_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 4, (8, 8)).astype(np.uint8)
    assert (ea.extract_boundary(m) == helpers.oracle_boundary(m)).all()


def test_boundary_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    m = rng.integers(0, 4, (8, 8)).astype(np.uint8)
    relabeled = np.array([9, 4, 7, 1], dtype=np.uint8)[m]
    assert (ea.extract_boundary(m) == ea.extract_boundary(relabeled)).all()


def test_dilate_radius_zero_is_identity():
    rng = np.random.default_rng(1)
    m = (rng.random((6, 6)) < 0.4).astype(np.uint8)
    assert (ea.dilate_mask(m, 0) == m).all()


def test_dilate_single_pixel_radius_one_is_plus():
    m = np.zeros((5, 5), dtype=np.uint8)
    m[2, 2] = 1
    out = ea.dilate_mask(m, 1)
    expected = np.zeros((5, 5), dtype=np.uint8)
    for r, c in ((2, 2), (1, 2), (3, 2), (2, 1), (2, 3)):
        expected[r, c] = 1
    assert (out == expected).all()


@pytest.mark.parametrize("seed", range(20))
def test_dilate_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    m = (rng.random((8, 8)) < 0.25).astype(np.uint8)
    assert (ea.dilate_mask(m, 2) == helpers.oracle_dilate(m, 2)).all()


@pytest.mark.parametrize("seed", range(20))
def test_erode_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    m = (rng.random((8, 8)) < 0.7).astype(np.uint8)
    assert (ea.erode_mask(m, 2) == helpers.oracle_erode(m, 2)).all()


def test_dilate_monotone_in_radius():
    rng = np.random.default_rng(2)
    m = (rng.random((9, 9)) < 0.2).astype(np.uint8)
    d1 = ea.dilate_mask(m, 1)
    d2 = ea.dilate_mask(m, 2)
    assert ((d1 == 1) <= (d2 == 1)).all()
    assert ea.dilate_mask(np.zeros((4, 4), dtype=np.uint8), 3).sum() == 0


def test_radius_beyond_frame_acts_as_frame_size(monkeypatch):
    h, w = 4, 5
    helpers.forbid_disks_beyond(monkeypatch, h + w)
    rng = np.random.default_rng(4)
    m = (rng.random((h, w)) < 0.4).astype(np.uint8)
    m[1, 2] = 1
    for radius in range(2 * (h + w) + 3):
        assert (ea.dilate_mask(m, radius) == helpers.oracle_dilate(m, radius)).all()
        assert (ea.erode_mask(m, radius) == helpers.oracle_erode(m, radius)).all()
    assert (ea.dilate_mask(m, 10**9) == helpers.oracle_dilate(m, 10**9)).all()
    assert ea.erode_mask(np.ones((h, w), dtype=np.uint8), 10**9).sum() == 0
    with pytest.raises(ea.InvalidRaster):
        ea.dilate_mask(m, -1)


def test_edge_attention_mask_uniform_is_empty():
    assert ea.edge_attention_mask(np.zeros((6, 6), dtype=np.uint8), 4).sum() == 0


def test_edge_attention_mask_vertical_split():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[:, 2:] = 1
    r0 = ea.edge_attention_mask(m, 0)
    assert (r0[:, 1:3] == 1).all()
    assert r0[:, 0].sum() == 0 and r0[:, 3].sum() == 0
    r1 = ea.edge_attention_mask(m, 1)
    expected = helpers.oracle_dilate(helpers.oracle_boundary(m), 1)
    assert (r1 == expected).all()


def test_edge_attention_mask_superset_of_boundary():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 3, (10, 10)).astype(np.uint8)
    for radius in (0, 1, 2, 3):
        band = ea.edge_attention_mask(m, radius)
        assert ((ea.extract_boundary(m) == 1) <= (band == 1)).all()


def test_row_run_morphology_matches_oracles_on_random_frames():
    rng = np.random.default_rng(14)
    for i in range(120):
        h, w = (int(v) for v in rng.integers(1, 9, 2))
        if i % 10 == 0:  # one-pixel rows and columns
            h, w = (1, w) if i % 20 else (h, 1)
        m = (rng.random((h, w)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        radius = int(rng.integers(0, h + w + 3))
        assert (ea.dilate_mask(m, radius) == helpers.oracle_dilate(m, radius)).all()
        assert (ea.erode_mask(m, radius) == helpers.oracle_erode(m, radius)).all()


def test_morphology_of_a_stack_is_per_slice():
    rng = np.random.default_rng(15)
    for radius in (0, 1, 2, 3, 7, 40):
        stack = rng.random((4, 9, 11)) < 0.3
        for erode in (False, True):
            got = boundary._disk_morph(stack, radius, erode)
            assert got.shape == stack.shape and got.dtype == bool
            for m, g in zip(stack, got):
                assert (g == boundary._disk_morph(m, radius, erode)).all()


def test_negative_radius_raises_for_both_operations():
    m = np.ones((3, 3), dtype=np.uint8)
    for op in (ea.dilate_mask, ea.erode_mask):
        with pytest.raises(ea.InvalidRaster):
            op(m, -1)
        with pytest.raises(ea.InvalidRaster):
            op(np.zeros((1, 1), dtype=np.uint8), -5)


def test_disk_offsets_are_every_offset_within_the_radius_in_row_order():
    for radius in range(41):
        span = range(-radius, radius + 1)
        want = [(dr, dc) for dr in span for dc in span if dr * dr + dc * dc <= radius * radius]
        assert boundary.disk_offsets(radius) == want
    with pytest.raises(ea.InvalidRaster, match="radius must be >= 0, got -1"):
        boundary.disk_offsets(-1)


def test_morphology_and_scores_never_list_disk_offsets(monkeypatch):
    def refuse(radius):
        raise AssertionError(f"disk_offsets({radius}) was called")

    monkeypatch.setattr(boundary, "disk_offsets", refuse)
    rng = np.random.default_rng(16)
    labels = rng.integers(0, 3, (12, 10)).astype(np.uint8)
    mask = (labels == 1).astype(np.uint8)
    for radius in (0, 1, 5, 40):
        assert (ea.dilate_mask(mask, radius) == helpers.oracle_dilate(mask, radius)).all()
        assert (ea.erode_mask(mask, radius) == helpers.oracle_erode(mask, radius)).all()
        band = helpers.oracle_dilate(helpers.oracle_boundary(labels), radius)
        assert (ea.edge_attention_mask(labels, radius) == band).all()
        pred = np.where(rng.random(labels.shape) < 0.2, 2, labels).astype(np.uint8)
        want = helpers.oracle_evaluate_frames([pred], [labels], [1, 2], radius)
        assert ea.evaluate_frames([pred], [labels], [1, 2], radius).to_json_dict() == want


def test_disk_guard_fails_fast_above_its_limit(monkeypatch):
    helpers.forbid_disks_beyond(monkeypatch, 3)
    m = np.zeros((20, 20), dtype=np.uint8)
    m[10, 10] = 1
    assert ea.dilate_mask(m, 3).sum() == len(boundary.disk_offsets(3))
    for op in (ea.dilate_mask, ea.erode_mask):
        with pytest.raises(AssertionError, match=r"_disk_rows\(4\) asked for more than 3"):
            op(m, 4)
