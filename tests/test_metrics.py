"""Region and boundary scores against brute-force oracles and edge rules."""

import json
import math

import numpy as np
import pytest

import helpers
import eaparse as ea
from eaparse.errors import EmptyInput, InvalidRaster, NoClassEverPresent, ShapeMismatch


def test_jaccard_hand_cases():
    pred = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    gt = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    assert ea.region_jaccard(pred, gt, 1) == pytest.approx(1 / 3)
    assert ea.region_jaccard(pred, pred, 1) == 1.0
    assert ea.region_jaccard(pred, gt, 7) is None
    assert ea.region_jaccard(pred, np.zeros_like(gt), 1) == 0.0


def test_jaccard_matches_pixel_count_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.integers(0, 3, (9, 7)).astype(np.uint8)
        gt = rng.integers(0, 3, (9, 7)).astype(np.uint8)
        for c in range(3):
            assert ea.region_jaccard(pred, gt, c) == helpers.oracle_jaccard(pred, gt, c)


def test_default_tolerance_values():
    assert ea.default_tolerance(16, 16) == 1
    assert ea.default_tolerance(480, 854) == 8
    assert ea.default_tolerance(1080, 1920) == 18


def test_boundary_f_perfect_and_disjoint():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    assert ea.boundary_f(gt, gt, 1, 0) == 1.0
    assert ea.boundary_f(gt, gt, 1) == 1.0  # the size-based default tolerance
    pred = np.zeros_like(gt)
    pred[0, 0] = 1
    assert ea.boundary_f(pred, gt, 1, 0) < 1.0
    assert ea.boundary_f(pred, gt, 1) == ea.boundary_f(pred, gt, 1, ea.default_tolerance(8, 8))
    assert ea.boundary_f(gt, gt, 5, 0) is None
    assert ea.boundary_f(np.zeros_like(gt), gt, 1, 0) == 0.0
    assert ea.boundary_f(gt, np.zeros_like(gt), 1, 0) == 0.0


def test_boundary_f_one_pixel_shift_forgiven_at_tolerance_one():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    pred = np.zeros_like(gt)
    pred[2:6, 3:7] = 1
    assert ea.boundary_f(pred, gt, 1, 0) < 1.0
    assert ea.boundary_f(pred, gt, 1, 1) == 1.0


def test_boundary_f_matches_distance_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred = rng.integers(0, 4, (16, 16)).astype(np.uint8)
        gt = rng.integers(0, 4, (16, 16)).astype(np.uint8)
        for c in range(4):
            for tol in (0, 1, 2):
                got = ea.boundary_f(pred, gt, c, tol)
                want = helpers.oracle_boundary_f(pred, gt, c, tol)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-12)


def test_evaluate_frames_aggregates_per_class():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    pred_good = gt.copy()
    pred_bad = np.zeros_like(gt)
    report = ea.evaluate_frames([pred_good, pred_bad], [gt, gt], [1])
    s = report.per_class[0]
    assert s.class_id == 1 and s.frames_counted == 2
    assert s.mean_j == pytest.approx(0.5)
    assert s.mean_f == pytest.approx(0.5)
    assert report.j_and_f == pytest.approx(0.5)


def test_evaluate_frames_skips_absent_class_frames():
    gt1 = np.zeros((6, 6), dtype=np.uint8)
    gt1[1:4, 1:4] = 2
    gt0 = np.zeros((6, 6), dtype=np.uint8)
    report = ea.evaluate_frames([gt1, gt0], [gt1, gt0], [2])
    assert report.per_class[0].frames_counted == 1
    assert report.per_class[0].mean_j == 1.0


def test_evaluate_frames_drops_never_present_classes():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[2:4, 2:4] = 1
    report = ea.evaluate_frames([gt], [gt], [1, 9])
    assert [s.class_id for s in report.per_class] == [1]


def test_evaluate_frames_order_invariance():
    rng = np.random.default_rng(2)
    preds = [rng.integers(0, 3, (10, 10)).astype(np.uint8) for _ in range(4)]
    gts = [rng.integers(0, 3, (10, 10)).astype(np.uint8) for _ in range(4)]
    fwd = ea.evaluate_frames(preds, gts, [0, 1, 2], 1)
    rev = ea.evaluate_frames(preds[::-1], gts[::-1], [0, 1, 2], 1)
    assert fwd.to_json_dict() == rev.to_json_dict()


def test_report_json_layout():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[2:4, 2:4] = 3
    d = ea.evaluate_frames([gt], [gt], [3]).to_json_dict()
    assert d == {
        "per_class": {"3": {"J": 1.0, "F": 1.0, "frames": 1}},
        "mean_J": 1.0,
        "mean_F": 1.0,
        "J_and_F": 1.0,
    }


def test_evaluate_frames_error_cases():
    gt = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(EmptyInput):
        ea.evaluate_frames([], [], [1])
    with pytest.raises(ShapeMismatch):
        ea.evaluate_frames([gt], [gt, gt], [1])
    with pytest.raises(NoClassEverPresent):
        ea.evaluate_frames([gt], [gt], [5])
    with pytest.raises(ShapeMismatch):
        ea.region_jaccard(gt, np.zeros((5, 5), dtype=np.uint8), 0)


def _random_frame(rng, h, w, n_classes, style):
    if style == 0:  # salt and pepper: label changes everywhere, edges included
        return rng.integers(0, n_classes, (h, w)).astype(np.uint8)
    if style == 1:  # blocks
        blocks = rng.integers(0, n_classes, (h // 3 + 1, w // 3 + 1))
        return np.kron(blocks, np.ones((3, 3), dtype=np.int64))[:h, :w].astype(np.uint8)
    frame = np.full((h, w), rng.integers(0, n_classes), dtype=np.uint8)
    if style == 2:  # one change on the frame edge
        frame[rng.integers(0, h), 0 if rng.random() < 0.5 else w - 1] = n_classes
    return frame  # style 3: constant, no change at all


def test_evaluate_frames_report_is_byte_equal_to_per_class_oracle_loop():
    rng = np.random.default_rng(14)
    for i in range(220):
        h, w = (1, 1) if i % 11 == 0 else tuple(int(v) for v in rng.integers(1, 11, 2))
        n_classes = int(rng.integers(1, 5))
        preds, gts = [], []
        for _ in range(int(rng.integers(1, 4))):
            pred = _random_frame(rng, h, w, n_classes, int(rng.integers(0, 4)))
            gt = pred.copy() if rng.random() < 0.2 else _random_frame(rng, h, w, n_classes, int(rng.integers(0, 4)))
            preds.append(pred)
            gts.append(gt)
        # ids beyond the drawn labels are absent from one or both maps
        class_ids = [int(c) for c in rng.choice(n_classes + 3, size=int(rng.integers(1, 5)), replace=False)]
        tolerance = [None, 0, 1, 2, h + w, h + w + 7][i % 6]
        want = helpers.oracle_evaluate_frames(preds, gts, class_ids, tolerance)
        if want is None:
            with pytest.raises(NoClassEverPresent):
                ea.evaluate_frames(preds, gts, class_ids, tolerance)
            continue
        got = ea.evaluate_frames(preds, gts, class_ids, tolerance).to_json_dict()
        assert json.dumps(got) == json.dumps(want)


def test_evaluate_frames_keeps_duplicate_and_out_of_range_class_ids():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[1:4, 1:5] = 1
    pred = np.roll(gt, 1, axis=1)
    class_ids = [1, 1, 300, -2, 0]
    want = helpers.oracle_evaluate_frames([pred, gt], [gt, gt], class_ids, 0)
    assert ea.evaluate_frames([pred, gt], [gt, gt], class_ids, 0).to_json_dict() == want
    assert ea.region_jaccard(pred, gt, 300) is None and ea.boundary_f(pred, gt, -2, 1) is None


def test_negative_tolerance_raises_whatever_the_frames_hold():
    gt = np.zeros((6, 6), dtype=np.uint8)
    gt[2:4, 2:4] = 1
    with pytest.raises(InvalidRaster):
        ea.boundary_f(gt, gt, 1, -1)
    with pytest.raises(InvalidRaster):
        ea.evaluate_frames([gt], [gt], [1], -1)
    with pytest.raises(InvalidRaster):  # no boundary pair, and still checked
        ea.boundary_f(gt, np.zeros_like(gt), 1, -1)


def test_evaluate_frames_without_class_ids_scores_the_ground_truth_classes():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        gts = [rng.integers(0, int(rng.integers(1, 6)), (7, 9), dtype=np.uint8) for _ in range(n)]
        preds = [rng.integers(0, 6, (7, 9), dtype=np.uint8) for _ in range(n)]
        held = sorted({int(c) for g in gts for c in np.unique(g) if c})
        if not held:
            with pytest.raises(NoClassEverPresent):
                ea.evaluate_frames(preds, gts, None)
            continue
        want = ea.evaluate_frames(preds, gts, held).to_json_dict()
        assert ea.evaluate_frames(preds, gts, None).to_json_dict() == want


def _frame_holding(rng, labels, h, w, block):
    """An h x w frame in which every label of ``labels`` fills some block x block cell."""
    hb, wb = -(-h // block), -(-w // block)
    cells = rng.permutation(np.resize(labels, hb * wb)).reshape(hb, wb)
    return np.kron(cells, np.ones((block, block), dtype=np.int64))[:h, :w].astype(np.uint8)


def test_evaluate_frames_matches_the_oracle_on_every_bit_plane_width():
    # F scores up to 64 classes per bit plane, in the smallest unsigned dtype that
    # holds them: 9, 17, 33 and 65 classes are one more than an 8-, 16-, 32- and
    # 64-bit plane holds, and 65 or more requested classes need a second plane
    rng = np.random.default_rng(32)
    for i, n in enumerate((8, 9, 16, 17, 32, 33, 64, 65, 130, 256)):
        block = 1 if n > 64 else 2
        side = math.isqrt(n - 1) + 1
        h, w = side * block + int(rng.integers(0, 2)), side * block
        labels = rng.choice(256, n, replace=False)
        gts = [_frame_holding(rng, labels, h, w, block) for _ in range(2)]
        preds = [np.roll(gts[0], 1, axis=i % 2), _frame_holding(rng, labels, h, w, block)]
        if i % 3 == 0:  # a frame that holds only a few of the labels
            preds.append(_frame_holding(rng, labels[:3], h, w, block))
            gts.append(preds[-1].copy())
        # every label, some absent ids and ids outside 0..255, in any order
        class_ids = [*labels.tolist(), *rng.choice(256, 5).tolist(), -1, 256, 999]
        class_ids = [int(c) for c in rng.permutation(class_ids)]
        tolerance = [0, 1, None, h + w, h + w + 3][i % 5]
        want = helpers.oracle_evaluate_frames(preds, gts, class_ids, tolerance)
        got = ea.evaluate_frames(preds, gts, class_ids, tolerance).to_json_dict()
        assert json.dumps(got) == json.dumps(want), n
        held = sorted({int(c) for g in gts for c in np.unique(g) if c})
        want = helpers.oracle_evaluate_frames(preds, gts, held, tolerance)
        assert json.dumps(ea.evaluate_frames(preds, gts, None, tolerance).to_json_dict()) == json.dumps(want), n
