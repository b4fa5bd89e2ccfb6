"""Probability-space model ensembling and bilinear resizing.

Averaging class probabilities, not logits: softmax is scale-sensitive, so
models with different logit temperatures would dominate a logit average.
Members trained at different resolutions are bilinearly resized to a common
grid first.

Every step works on whole tensors in place: the softmax subtracts, exponentiates
and normalises one float64 copy of the logits; the resize interpolates
columns over every source row, then rows of that column pass; the ensemble
sums into the first member's probabilities. Each product and sum is the one
a gather-per-corner formulation takes, in the same order, so the results
are the same bytes.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ChannelMismatch, EmptyInput, InvalidRaster
from .tensorio import ensure_logits


def _softmax(lg: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of validated float32 logits, in a new float64 array."""
    z = lg.astype(np.float64)
    z -= z.max(axis=0, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=0, keepdims=True)
    return z


def softmax_map(logits) -> np.ndarray:
    """Per-pixel softmax of a (C, H, W) logits tensor, in float64."""
    return _softmax(ensure_logits(logits))


def _axis_coords(n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Low and high source index and the high weight of each output index."""
    src = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
    src = np.clip(src, 0.0, n_src - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_src - 1)
    return lo, hi, src - lo


def resize_bilinear(tensor, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize of a (C, H, W) float tensor with half-pixel centers.

    Source coordinates are (dst + 0.5) * scale - 0.5, clamped to the valid
    range, matching the align_corners=False convention. A same-size call
    returns a bit-identical copy.
    """
    a = np.asarray(tensor, dtype=np.float64)
    if a.ndim != 3:
        raise InvalidRaster(f"expected a (C, H, W) tensor, got shape {a.shape}")
    h, w = a.shape[1:]
    # integer sizes only (TypeError otherwise): np.arange(6.5) would give 7 rows
    out_height, out_width = operator.index(out_height), operator.index(out_width)
    if out_height < 1 or out_width < 1:
        raise InvalidRaster("output size must be at least 1 x 1")
    if (h, w) == (out_height, out_width):
        return a.copy()

    r0, r1, fr = _axis_coords(h, out_height)
    c0, c1, fc = _axis_coords(w, out_width)
    # columns first, over every source row: rows r0 and r1 of this pass are
    # the top and bottom rows of each output pixel's four-corner blend
    cols = np.take(a, c0, axis=2)
    cols *= 1 - fc
    right = np.take(a, c1, axis=2)
    right *= fc
    cols += right
    out = np.take(cols, r0, axis=1)
    out *= (1 - fr)[:, None]
    bot = np.take(cols, r1, axis=1)
    bot *= fr[:, None]
    out += bot
    return out


def _first_max(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of the largest entry along axis 0, the first index on
    ties, as ``argmax(axis=0)`` and ``max(axis=0)``, for any trailing shape.

    The rows are visited in order, so a row that beats the running best takes
    a larger index than every row before it. Each row is one contiguous pass,
    where an axis-0 ``argmax`` strides across the rows for every element.
    """
    best = np.array(rows[0])  # a copy, and an array even where rows is 1-D
    index = np.zeros(rows.shape[1:], dtype=np.intp)
    for i in range(1, rows.shape[0]):
        np.maximum(index, (rows[i] > best) * i, out=index)
        np.maximum(best, rows[i], out=best)
    return index, best


def ensemble_probabilities(
    logits_list, out_height: int | None = None, out_width: int | None = None
) -> np.ndarray:
    """Mean class-probability map of several logit tensors.

    Members must share the channel count; spatial sizes may differ and are
    resized to (out_height, out_width), defaulting to the first member's
    grid. Averaging follows the order of the input list, so the result is
    deterministic for a fixed argument order. The members are not modified.
    """
    tensors = [ensure_logits(t) for t in logits_list]
    if not tensors:
        raise EmptyInput("ensemble needs at least one member")
    c = tensors[0].shape[0]
    for t in tensors[1:]:
        if t.shape[0] != c:
            raise ChannelMismatch(f"members disagree on classes: {c} vs {t.shape[0]}")
    # integer sizes only (TypeError otherwise): 6.0 would pass the grid test below
    oh = operator.index(out_height if out_height is not None else tensors[0].shape[1])
    ow = operator.index(out_width if out_width is not None else tensors[0].shape[2])

    acc = None
    for t in tensors:
        p = _softmax(t)  # a fresh array: summing into it leaves the member alone
        if p.shape[1:] != (oh, ow):
            p = resize_bilinear(p, oh, ow)
        if acc is None:
            acc = p
        else:
            acc += p
    acc /= len(tensors)
    return acc


def ensemble_argmax(
    logits_list, out_height: int | None = None, out_width: int | None = None
) -> np.ndarray:
    """Argmax label map of the ensembled probabilities; ties go to the lowest id."""
    probs = ensemble_probabilities(logits_list, out_height, out_width)
    return _first_max(probs)[0].astype(np.uint8)
