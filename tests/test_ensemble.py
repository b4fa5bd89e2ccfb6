"""Softmax maps, bilinear resizing, probability averaging and argmax ties."""

import numpy as np
import pytest

import helpers
import eaparse as ea
from eaparse.ensemble import _first_max
from eaparse.errors import ChannelMismatch, EmptyInput, InvalidRaster, LabelOutOfRange


def test_softmax_map_rows_sum_to_one_and_order():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-3, 3, (4, 5, 5)).astype(np.float32)
    p = ea.softmax_map(logits)
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
    assert (p.argmax(axis=0) == logits.argmax(axis=0)).all()


def test_softmax_map_is_shift_invariant():
    # eighths stay exactly representable in float32 after a +128 shift, so
    # the per-pixel max subtraction cancels the shift without rounding
    rng = np.random.default_rng(1)
    logits = (rng.integers(-16, 17, (3, 4, 4)) / 8.0).astype(np.float32)
    assert (ea.softmax_map(logits) == ea.softmax_map(logits + np.float32(128.0))).all()


def test_resize_same_size_is_identity_copy():
    a = np.random.default_rng(2).uniform(0, 1, (2, 3, 5))
    out = ea.resize_bilinear(a, 3, 5)
    assert (out == a).all()
    out[0, 0, 0] = 9.0
    assert a[0, 0, 0] != 9.0


def test_resize_documented_upsample():
    a = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    out = ea.resize_bilinear(a, 3, 3)
    # half-pixel centers: source coords for dst 0,1,2 are clamp(-1/6, 1/2, 7/6) = 0, 1/2, 1
    row = [0.0, 0.5, 1.0]
    expected = np.array([[r + c for c in row] for r in [0.0, 1.0, 2.0]])
    assert np.allclose(out[0], expected, atol=1e-12)


def test_resize_preserves_constant_fields():
    a = np.full((3, 4, 7), 0.25)
    out = ea.resize_bilinear(a, 9, 2)
    assert out.shape == (3, 9, 2)
    assert np.allclose(out, 0.25, atol=1e-15)


def test_resize_downsample_averages_neighbors():
    a = np.array([[[0.0, 2.0, 4.0, 6.0]]])  # 1 x 1 x 4
    out = ea.resize_bilinear(a, 1, 2)
    # dst centers 0.5, 1.5 map to source 0.5 and 2.5
    assert np.allclose(out[0, 0], [1.0, 5.0], atol=1e-12)


def test_ensemble_single_member_identity():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-2, 2, (3, 4, 4)).astype(np.float32)
    assert np.allclose(ea.ensemble_probabilities([logits]), ea.softmax_map(logits), atol=1e-15)


def test_ensemble_mean_of_two():
    rng = np.random.default_rng(4)
    a = rng.uniform(-2, 2, (3, 4, 4)).astype(np.float32)
    b = rng.uniform(-2, 2, (3, 4, 4)).astype(np.float32)
    got = ea.ensemble_probabilities([a, b])
    want = (ea.softmax_map(a) + ea.softmax_map(b)) / 2
    assert np.allclose(got, want, atol=1e-15)


def test_ensemble_resizes_to_first_member_grid():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (2, 6, 6)).astype(np.float32)
    b = rng.uniform(-1, 1, (2, 3, 3)).astype(np.float32)
    got = ea.ensemble_probabilities([a, b])
    assert got.shape == (2, 6, 6)
    explicit = ea.ensemble_probabilities([a, b], 6, 6)
    assert (got == explicit).all()
    assert np.allclose(got.sum(axis=0), 1.0, atol=1e-12)


def test_ensemble_order_is_deterministic():
    rng = np.random.default_rng(6)
    members = [rng.uniform(-1, 1, (3, 5, 5)).astype(np.float32) for _ in range(3)]
    p1 = ea.ensemble_probabilities(members)
    p2 = ea.ensemble_probabilities(list(members))
    assert (p1 == p2).all()


@pytest.mark.parametrize("shape", [(1, 4), (5, 7), (3, 4, 5), (4, 2, 3, 2), (3,)])
def test_first_max_is_axis_0_argmax_and_max(shape):
    rng = np.random.default_rng(len(shape))
    rows = rng.integers(0, 3, shape).astype(np.float64)  # values 0-2: many exact ties
    index, value = _first_max(rows)
    assert index.shape == value.shape == shape[1:]
    assert (index == rows.argmax(axis=0)).all() and (value == rows.max(axis=0)).all()
    assert index.dtype == np.intp and value.dtype == rows.dtype


def test_argmax_ties_take_lowest_id():
    logits = np.zeros((3, 2, 2), dtype=np.float32)
    assert (ea.ensemble_argmax([logits]) == 0).all()
    opposed = [np.zeros((2, 1, 1), dtype=np.float32), np.zeros((2, 1, 1), dtype=np.float32)]
    opposed[0][0] = 3.0
    opposed[1][1] = 3.0
    assert ea.ensemble_argmax(opposed)[0, 0] == 0


# the library's two label makers, on one member
LABELLERS = {
    "ensemble_argmax": lambda logits: ea.ensemble_argmax([logits]),
    "fuse_frame": lambda logits: ea.fuse_frame(np.zeros((4, 4, 3), np.uint8), [ea.Box(0, 0, 4, 4)], [[logits]]),
}


@pytest.mark.parametrize("labeller", LABELLERS.values(), ids=LABELLERS.keys())
def test_more_classes_than_a_label_map_holds_raise(labeller):
    assert (labeller(helpers.last_class_wins(256)) == 255).all()
    for channels in (257, 300):  # class 256 would read as 0, class 299 as 43
        with pytest.raises(LabelOutOfRange, match=f"{channels} classes"):
            labeller(helpers.last_class_wins(channels))


def test_ensemble_error_cases():
    with pytest.raises(EmptyInput):
        ea.ensemble_probabilities([])
    a = np.zeros((2, 3, 3), dtype=np.float32)
    b = np.zeros((3, 3, 3), dtype=np.float32)
    with pytest.raises(ChannelMismatch):
        ea.ensemble_probabilities([a, b])
    with pytest.raises(InvalidRaster):
        ea.resize_bilinear(np.zeros((2, 2)), 3, 3)


# --- byte equality with the allocate-per-step oracles ---


def _random_sizes(rng, i):
    """Source and target sides: up-, down- and mixed scaling, 1-pixel sides, same size."""
    h, w = (int(v) for v in rng.integers(1, 24, 2))
    kind = i % 6
    if kind == 0:
        return (h, w), (h, w)
    if kind == 1:
        return (h, w), (int(rng.integers(h, 3 * h + 2)), int(rng.integers(w, 3 * w + 2)))
    if kind == 2:
        return (h, w), (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
    if kind == 3:
        return (h, w), (int(rng.integers(1, h + 1)), int(rng.integers(w, 3 * w + 2)))
    if kind == 4:
        return (1, w), (int(rng.integers(1, 9)), 1)
    return (h, 1), (1, int(rng.integers(1, 9)))


def _bytes(a: np.ndarray):
    return a.dtype.str, a.shape, a.tobytes()


def test_resize_and_softmax_match_oracles_byte_for_byte():
    rng = np.random.default_rng(14)
    for i in range(240):
        (h, w), (oh, ow) = _random_sizes(rng, i)
        c = 1 if i % 4 == 0 else int(rng.integers(2, 12))
        dtype = np.float32 if i % 2 else np.float64
        a = rng.normal(0, 4, (c, h, w)).astype(dtype)
        assert _bytes(ea.resize_bilinear(a, oh, ow)) == _bytes(helpers.oracle_resize_bilinear(a, oh, ow))
        assert _bytes(ea.softmax_map(a)) == _bytes(helpers.oracle_softmax_map(a))


def test_ensemble_matches_oracle_byte_for_byte():
    rng = np.random.default_rng(15)
    for i in range(240):
        (h, w), (oh, ow) = _random_sizes(rng, i)
        c = 1 if i % 4 == 0 else int(rng.integers(2, 12))
        members = [rng.normal(0, 3, (c, h, w)).astype(np.float32)]
        for _ in range(int(rng.integers(0, 4))):
            size = (h, w) if rng.random() < 0.5 else tuple(int(v) for v in rng.integers(1, 24, 2))
            members.append(rng.normal(0, 3, (c,) + size).astype(np.float32))
        size = () if i % 3 == 0 else (oh, ow)
        got = ea.ensemble_probabilities(members, *size)
        assert _bytes(got) == _bytes(helpers.oracle_ensemble_probabilities(members, *size))


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):  # resize_bilinear passes NaN and Inf through
            return _bytes(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


BAD_MEMBERS = {
    "nan": np.array([[[0.0, np.nan]], [[1.0, 2.0]]], dtype=np.float32),
    "inf": np.array([[[0.0, np.inf]], [[1.0, 2.0]]], dtype=np.float64),
    "ndim-2": np.zeros((3, 3), dtype=np.float32),
    "ndim-4": np.zeros((1, 2, 3, 3), dtype=np.float32),
    "integer": np.zeros((2, 3, 3), dtype=np.int32),
}


@pytest.mark.parametrize("bad", BAD_MEMBERS.values(), ids=BAD_MEMBERS.keys())
def test_bad_inputs_raise_as_the_oracles_do(bad):
    good = np.zeros((2, 1, 2), dtype=np.float32)
    assert _outcome(ea.softmax_map, bad) == _outcome(helpers.oracle_softmax_map, bad)
    assert _outcome(ea.softmax_map, bad) == InvalidRaster
    assert _outcome(ea.resize_bilinear, bad, 2, 3) == _outcome(helpers.oracle_resize_bilinear, bad, 2, 3)
    for members in ([bad], [good, bad], [bad, good]):
        assert _outcome(ea.ensemble_probabilities, members) == InvalidRaster
        assert _outcome(helpers.oracle_ensemble_probabilities, members) == InvalidRaster


def test_channel_mismatch_and_bad_sizes_raise_as_the_oracles_do():
    a = np.zeros((2, 3, 3), dtype=np.float32)
    b = np.zeros((3, 2, 2), dtype=np.float32)
    for args in (([a, b],), ([a, b], 4, 4), ([a, a], 0, 3), ([a, b[:, :1]], 3, 0), ([],)):
        assert _outcome(ea.ensemble_probabilities, *args) == _outcome(helpers.oracle_ensemble_probabilities, *args)
    assert _outcome(ea.ensemble_probabilities, [a, b]) == ChannelMismatch
    # a size is a count by the one number rule, where the oracle's np.zeros raises TypeError
    for size in ((3.0, 3), (2.5, 4), (3, True)):
        assert _outcome(ea.ensemble_probabilities, [a], *size) == InvalidRaster
    for size in ((0, 3), (3, 0), (-1, 2)):
        assert _outcome(ea.resize_bilinear, a, *size) == InvalidRaster


def test_resize_takes_integer_sizes_only():
    a = np.random.default_rng(18).uniform(0, 1, (2, 6, 6))
    for size, name in (((6.5, 3), "out_height"), ((3, 6.5), "out_width"), ((6.0, 6), "out_height"),
                       ((np.float64(4.0), 3), "out_height"), ((True, 3), "out_height")):
        with pytest.raises(InvalidRaster, match=name):
            ea.resize_bilinear(a, *size)
    out = ea.resize_bilinear(a, np.int64(4), np.uint8(3))
    assert _bytes(out) == _bytes(ea.resize_bilinear(a, 4, 3))
    assert out.shape == (2, 4, 3)


def test_ensemble_leaves_members_unchanged():
    rng = np.random.default_rng(16)
    members = [
        rng.normal(0, 2, (3, 5, 4)).astype(np.float32),
        rng.normal(0, 2, (3, 5, 4)).astype(np.float64),
        rng.normal(0, 2, (3, 3, 2)).astype(np.float32),
        rng.normal(0, 2, (3, 5, 4)).astype(np.float32),
    ]
    before = [_bytes(m) for m in members]
    for size in ((), (5, 4), (7, 9)):
        probs = ea.ensemble_probabilities(members, *size)
        probs[...] = -1.0  # writing to the result reaches no member either
        assert [_bytes(m) for m in members] == before
    for m in members:
        ea.softmax_map(m)
        ea.resize_bilinear(m, 5, 4)
        assert [_bytes(m) for m in members] == before


def test_same_size_resize_copies_float64_input():
    a = np.random.default_rng(17).uniform(0, 1, (2, 3, 5))
    out = ea.resize_bilinear(a, 3, 5)
    assert out is not a and not np.shares_memory(out, a)
    assert _bytes(out) == _bytes(a)
