"""Loss values against closed forms and gradients against finite differences."""

import math

import numpy as np
import pytest

import helpers
import eaparse as ea
from eaparse.errors import EmptyMask, InvalidRaster, LabelOutOfRange, MissingGradient, ShapeMismatch


def test_uniform_logits_give_log_c():
    logits = np.ones((4, 3, 3), dtype=np.float32)
    labels = np.random.default_rng(0).integers(0, 4, (3, 3)).astype(np.uint8)
    r = ea.softmax_cross_entropy(logits, labels)
    assert abs(r.loss - math.log(4)) < 1e-12
    assert r.contributing_pixels == 9


def test_saturated_logits_vanishing_loss():
    labels = np.array([[2]], dtype=np.uint8)
    logits = np.zeros((3, 1, 1), dtype=np.float32)
    logits[2] = 100.0
    assert ea.softmax_cross_entropy(logits, labels).loss < 1e-6


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    logits = rng.uniform(-2, 2, (3, 4, 4))
    labels = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    r = ea.softmax_cross_entropy(logits, labels, want_gradient=True)
    fd = helpers.fd_gradient(lambda x: ea.softmax_cross_entropy(x, labels).loss, logits)
    assert helpers.max_rel_err(r.gradient, fd) <= 1e-4


def test_ce_gradient_channel_sums_vanish():
    rng = np.random.default_rng(9)
    logits = rng.uniform(-2, 2, (4, 5, 5))
    labels = rng.integers(0, 4, (5, 5)).astype(np.uint8)
    mask = (rng.random((5, 5)) < 0.5).astype(np.uint8)
    mask[0, 0] = 1
    r = ea.softmax_cross_entropy(logits, labels, mask, want_gradient=True)
    assert np.abs(r.gradient.sum(axis=0)).max() < 1e-12
    assert (r.gradient[:, mask == 0] == 0).all()


def test_masked_ce_is_additive_over_disjoint_masks():
    rng = np.random.default_rng(17)
    logits = rng.uniform(-2, 2, (3, 6, 6))
    labels = rng.integers(0, 3, (6, 6)).astype(np.uint8)
    m1 = np.zeros((6, 6), dtype=np.uint8)
    m1[:3] = 1
    m2 = 1 - m1
    r1 = ea.softmax_cross_entropy(logits, labels, m1)
    r2 = ea.softmax_cross_entropy(logits, labels, m2)
    r12 = ea.softmax_cross_entropy(logits, labels, m1 | m2)
    lhs = r12.contributing_pixels * r12.loss
    rhs = r1.contributing_pixels * r1.loss + r2.contributing_pixels * r2.loss
    assert abs(lhs - rhs) < 1e-9


def test_edge_loss_saturated_mask_equals_plain_ce():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-2, 2, (3, 4, 4))
    labels = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    full = np.ones((4, 4), dtype=np.uint8)
    assert ea.edge_attention_loss(logits, labels, full).loss == ea.softmax_cross_entropy(logits, labels).loss


def test_edge_loss_single_pixel():
    rng = np.random.default_rng(4)
    logits = rng.uniform(-2, 2, (3, 4, 4)).astype(np.float32)
    labels = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    m = np.zeros((4, 4), dtype=np.uint8)
    m[1, 2] = 1
    got = ea.edge_attention_loss(logits, labels, m)
    col = logits[:, 1, 2].astype(np.float64)
    z = col - col.max()
    expected = -(z[labels[1, 2]] - math.log(np.exp(z).sum()))
    assert abs(got.loss - expected) < 1e-12
    assert got.contributing_pixels == 1


def test_masked_loss_matches_coordinate_list_oracle():
    rng = np.random.default_rng(11)
    logits = rng.uniform(-2, 2, (3, 5, 5)).astype(np.float32)
    labels = rng.integers(0, 3, (5, 5)).astype(np.uint8)
    mask = (rng.random((5, 5)) < 0.4).astype(np.uint8)
    mask[2, 2] = 1
    coords = [(r, c) for r in range(5) for c in range(5) if mask[r, c]]
    total = 0.0
    for r, c in coords:
        col = logits[:, r, c].astype(np.float64)
        z = col - col.max()
        total += -(z[labels[r, c]] - math.log(np.exp(z).sum()))
    got = ea.edge_attention_loss(logits, labels, mask)
    assert abs(got.loss - total / len(coords)) < 1e-12


def test_bce_zero_logits_is_log_two():
    r = ea.boundary_bce(np.zeros((1, 3, 3), dtype=np.float32), np.zeros((3, 3), dtype=np.uint8))
    assert abs(r.loss - math.log(2)) < 1e-12
    assert r.contributing_pixels == 9
    plane = ea.boundary_bce(np.zeros((3, 3), dtype=np.float32), np.zeros((3, 3), dtype=np.uint8), want_gradient=True)
    assert abs(plane.loss - math.log(2)) < 1e-12 and plane.contributing_pixels == 9
    assert plane.gradient.shape == (3, 3)


def test_bce_saturated():
    x = np.full((1, 2, 2), 100.0, dtype=np.float32)
    y = np.ones((2, 2), dtype=np.uint8)
    assert ea.boundary_bce(x, y).loss < 1e-6


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, (1, 4, 4))
    y = (rng.random((4, 4)) < 0.5).astype(np.uint8)
    r = ea.boundary_bce(x, y, want_gradient=True)
    assert r.gradient.shape == x.shape
    fd = helpers.fd_gradient(lambda z: ea.boundary_bce(z, y).loss, x)
    assert helpers.max_rel_err(r.gradient, fd) <= 1e-4


def test_total_loss_zero_weights_is_seg():
    rng = np.random.default_rng(2)
    logits = rng.uniform(-2, 2, (3, 4, 4))
    labels = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    seg = ea.softmax_cross_entropy(logits, labels)
    edge = ea.edge_attention_loss(logits, labels, np.ones((4, 4), dtype=np.uint8))
    bnd = ea.boundary_bce(rng.uniform(-1, 1, (1, 4, 4)), (rng.random((4, 4)) < 0.5).astype(np.uint8))
    total = ea.total_loss(seg, edge, bnd, ea.LossWeights(0.0, 0.0))
    assert total.loss == seg.loss
    assert total.contributing_pixels == seg.contributing_pixels


def test_total_loss_doubles_with_saturated_edge_mask():
    rng = np.random.default_rng(6)
    logits = rng.uniform(-2, 2, (3, 4, 4))
    labels = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    seg = ea.softmax_cross_entropy(logits, labels)
    edge = ea.edge_attention_loss(logits, labels, np.ones((4, 4), dtype=np.uint8))
    zero_bnd = ea.LossResult(0.0, 0)
    total = ea.total_loss(seg, edge, zero_bnd, ea.LossWeights(1.0, 1.0))
    assert abs(total.loss - 2 * seg.loss) < 1e-12


def test_total_gradient_matches_combined_finite_differences():
    rng = np.random.default_rng(13)
    logits = rng.uniform(-2, 2, (3, 4, 4))
    labels = rng.integers(0, 3, (4, 4)).astype(np.uint8)
    em = ea.edge_attention_mask(labels, 1)
    w = ea.LossWeights(lambda_edge=0.7, lambda_boundary=0.3)

    def scalar(x):
        seg = ea.softmax_cross_entropy(x, labels)
        edge = ea.edge_attention_loss(x, labels, em)
        return seg.loss + w.lambda_edge * edge.loss

    seg = ea.softmax_cross_entropy(logits, labels, want_gradient=True)
    edge = ea.edge_attention_loss(logits, labels, em, want_gradient=True)
    bnd = ea.boundary_bce(np.zeros((1, 4, 4)), np.zeros((4, 4), dtype=np.uint8), want_gradient=True)
    total = ea.total_loss(seg, edge, bnd, w)
    fd = helpers.fd_gradient(scalar, logits)
    assert helpers.max_rel_err(total.gradient, fd) <= 1e-4


def test_loss_error_cases():
    logits = np.zeros((2, 2, 2), dtype=np.float32)
    labels = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(EmptyMask):
        ea.softmax_cross_entropy(logits, labels, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(LabelOutOfRange):
        ea.softmax_cross_entropy(logits, np.full((2, 2), 5, dtype=np.uint8))
    with pytest.raises(ShapeMismatch):
        ea.softmax_cross_entropy(logits, np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ShapeMismatch):
        ea.boundary_bce(np.zeros((2, 2, 2)), labels)
    seg = ea.softmax_cross_entropy(logits, labels, want_gradient=True)
    plain = ea.softmax_cross_entropy(logits, labels)
    with pytest.raises(MissingGradient):
        ea.total_loss(seg, plain, plain)


def test_loss_result_compares_and_hashes_by_identity():
    logits = np.zeros((2, 2, 2), dtype=np.float32)
    labels = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    a = ea.softmax_cross_entropy(logits, labels, want_gradient=True)
    b = ea.softmax_cross_entropy(logits, labels, want_gradient=True)
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    assert a in {a} and b not in {a}


@pytest.mark.parametrize(
    "weights",
    [
        {"lambda_edge": float("nan")},
        {"lambda_boundary": -1.0},
        {"lambda_edge": float("inf")},
        {"lambda_boundary": True},
        {"lambda_edge": "1"},
        {"lambda_edge": float("nan"), "lambda_boundary": -1.0},
    ],
    ids=["nan", "negative", "inf", "bool", "string", "both"],
)
def test_loss_weights_reject_a_weight_that_makes_the_loss_meaningless(weights):
    with pytest.raises(InvalidRaster, match=f"^{next(iter(weights))} must be a finite number >= 0, got "):
        ea.LossWeights(**weights)


def test_loss_weights_accept_zero_and_numpy_numbers():
    w = ea.LossWeights(0, np.float32(0.5))
    assert (w.lambda_edge, w.lambda_boundary) == (0, 0.5)
