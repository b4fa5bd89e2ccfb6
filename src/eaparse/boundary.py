"""Boundary extraction and disk morphology on label maps and masks.

A pixel is a boundary pixel when any of its 4-neighbors carries a different
label; pixels on the image border are compared only against neighbors that
exist, so a constant map has no boundary. Dilation and erosion use a disk
structuring element: offsets (dr, dc) with dr*dr + dc*dc <= radius*radius.
Pixels outside the frame count as background (erosion shrinks at the border).
A radius is an integer >= 0, numpy integers included; anything else, a bool
too, raises InvalidRaster naming it. A radius above h + w acts as h + w: that
disk already holds every offset that keeps a pixel in an h x w frame and one
that moves every pixel out of it.

The disk is applied by its row runs: row dr of the disk is the segment
|dc| <= k(dr), with k(dr) = isqrt(r^2 - dr^2) for radius r, so a running
horizontal dilation (or erosion) grown from k = 0 to the radius is
combined, shifted by +dr and -dr, into the result whenever k reaches
k(dr). That is about 4 * radius + 1 in-place slice operations on two
frame-size arrays, whatever the disk's area. Both operations, like the
boundary, act on the last two axes, so a stack of masks is processed in
one pass."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidRaster
from .tensorio import _check_number, ensure_binary_mask, ensure_label_map

# radius, in pixels, of the attention band painted around class boundaries
DEFAULT_EDGE_RADIUS = 2


def _edges(a: np.ndarray) -> np.ndarray:
    """Boolean boundary of the maps stacked along the leading axes of ``a``."""
    out = np.zeros(a.shape, dtype=bool)
    out[..., :-1, :] |= a[..., :-1, :] != a[..., 1:, :]
    out[..., 1:, :] |= a[..., 1:, :] != a[..., :-1, :]
    out[..., :, :-1] |= a[..., :, :-1] != a[..., :, 1:]
    out[..., :, 1:] |= a[..., :, 1:] != a[..., :, :-1]
    return out


def extract_boundary(label_map) -> np.ndarray:
    """Mark every pixel whose 4-neighborhood contains a different label.

    Both sides of a class change are flagged, so boundaries are two pixels
    thick. Returns a BinaryMask of the input's shape.
    """
    return _edges(ensure_label_map(label_map)).astype(np.uint8)


def _disk_rows(radius: int) -> list[int]:
    """k(dr) for dr = 0..radius: the disk's row dr is the run |dc| <= k(dr)."""
    _check_number("radius", radius, integer=True)
    if radius < 0:
        raise InvalidRaster(f"radius must be >= 0, got {radius}")
    return [math.isqrt(radius * radius - dr * dr) for dr in range(radius + 1)]


def disk_offsets(radius: int) -> list[tuple[int, int]]:
    """All integer offsets within euclidean distance ``radius`` of the origin."""
    rows = _disk_rows(radius)
    return [(dr, dc) for dr in range(-radius, radius + 1) for dc in range(-rows[abs(dr)], rows[abs(dr)] + 1)]


def _fold(dst: np.ndarray, src: np.ndarray, shift: int, axis: int, erode: bool) -> None:
    """Combine ``src`` moved by ``shift`` along ``axis`` into ``dst``, in place.

    OR for dilation, AND for erosion; positions whose source lies off the
    frame read 0, which leaves a dilation alone and clears an erosion.
    """
    n = dst.shape[axis]
    t = min(abs(shift), n)
    lead = (slice(None),) * (axis % dst.ndim)
    moved, kept, off = (slice(t, n), slice(0, n - t), slice(0, t))
    if shift < 0:
        moved, kept, off = (slice(0, n - t), slice(t, n), slice(n - t, n))
    if erode:
        dst[lead + (moved,)] &= src[lead + (kept,)]
        dst[lead + (off,)] = False
    else:
        dst[lead + (moved,)] |= src[lead + (kept,)]


def _disk_morph(m: np.ndarray, radius: int, erode: bool) -> np.ndarray:
    """Disk dilation or erosion of boolean masks stacked along leading axes."""
    _check_number("radius", radius, integer=True)  # before min, which would compare it
    rows = _disk_rows(min(radius, sum(m.shape[-2:])))
    run = m.copy()  # m folded over |dc| <= k along each row
    out = np.full(m.shape, erode)
    k = 0
    for dr in reversed(range(len(rows))):  # k(dr) grows as dr falls
        while k < rows[dr]:
            k += 1
            _fold(run, m, k, -1, erode)
            _fold(run, m, -k, -1, erode)
        _fold(out, run, dr, -2, erode)
        if dr:
            _fold(out, run, -dr, -2, erode)
    return out


def dilate_mask(mask, radius: int) -> np.ndarray:
    """Disk dilation: a pixel turns on if any source pixel lies within ``radius``."""
    m = ensure_binary_mask(mask).astype(bool)
    return _disk_morph(m, radius, erode=False).astype(np.uint8)


def erode_mask(mask, radius: int) -> np.ndarray:
    """Disk erosion, dual of :func:`dilate_mask`; off-frame pixels count as 0."""
    m = ensure_binary_mask(mask).astype(bool)
    return _disk_morph(m, radius, erode=True).astype(np.uint8)


def edge_attention_mask(label_map, radius: int = DEFAULT_EDGE_RADIUS) -> np.ndarray:
    """Band of pixels within ``radius`` of any class boundary.

    This is the region the edge-weighted loss terms restrict themselves to.
    """
    return dilate_mask(extract_boundary(label_map), radius)
