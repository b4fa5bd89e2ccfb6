"""Boundary extraction and disk morphology on label maps and masks.

A pixel is a boundary pixel when any of its 4-neighbors carries a different
label; pixels on the image border are compared only against neighbors that
exist, so a constant map has no boundary. Dilation and erosion use a disk
structuring element: offsets (dr, dc) with dr*dr + dc*dc <= radius*radius.
Pixels outside the frame count as background (erosion shrinks at the border).
A radius above h + w acts as h + w: that disk already holds every offset that
keeps a pixel in an h x w frame and one that moves every pixel out of it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRaster
from .tensorio import ensure_binary_mask, ensure_label_map

# radius, in pixels, of the attention band painted around class boundaries
DEFAULT_EDGE_RADIUS = 2


def extract_boundary(label_map) -> np.ndarray:
    """Mark every pixel whose 4-neighborhood contains a different label.

    Both sides of a class change are flagged, so boundaries are two pixels
    thick. Returns a BinaryMask of the input's shape.
    """
    a = ensure_label_map(label_map)
    out = np.zeros(a.shape, dtype=bool)
    out[:-1, :] |= a[:-1, :] != a[1:, :]
    out[1:, :] |= a[1:, :] != a[:-1, :]
    out[:, :-1] |= a[:, :-1] != a[:, 1:]
    out[:, 1:] |= a[:, 1:] != a[:, :-1]
    return out.astype(np.uint8)


def disk_offsets(radius: int) -> list[tuple[int, int]]:
    """All integer offsets within euclidean distance ``radius`` of the origin."""
    if radius < 0:
        raise InvalidRaster(f"radius must be >= 0, got {radius}")
    r2 = radius * radius
    return [
        (dr, dc)
        for dr in range(-radius, radius + 1)
        for dc in range(-radius, radius + 1)
        if dr * dr + dc * dc <= r2
    ]


def _shifted(mask: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """``mask`` translated by (dr, dc) with zero fill outside the frame."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    src_r = slice(max(0, -dr), min(h, h - dr))
    src_c = slice(max(0, -dc), min(w, w - dc))
    dst_r = slice(max(0, dr), min(h, h + dr))
    dst_c = slice(max(0, dc), min(w, w + dc))
    if src_r.start < src_r.stop and src_c.start < src_c.stop:
        out[dst_r, dst_c] = mask[src_r, src_c]
    return out


def dilate_mask(mask, radius: int) -> np.ndarray:
    """Disk dilation: a pixel turns on if any source pixel lies within ``radius``."""
    m = ensure_binary_mask(mask).astype(bool)
    out = np.zeros_like(m)
    for dr, dc in disk_offsets(min(radius, sum(m.shape))):
        out |= _shifted(m, dr, dc)
    return out.astype(np.uint8)


def erode_mask(mask, radius: int) -> np.ndarray:
    """Disk erosion, dual of :func:`dilate_mask`; off-frame pixels count as 0."""
    m = ensure_binary_mask(mask).astype(bool)
    out = np.ones_like(m)
    for dr, dc in disk_offsets(min(radius, sum(m.shape))):
        out &= _shifted(m, dr, dc)
    return out.astype(np.uint8)


def edge_attention_mask(label_map, radius: int = DEFAULT_EDGE_RADIUS) -> np.ndarray:
    """Band of pixels within ``radius`` of any class boundary.

    This is the region the edge-weighted loss terms restrict themselves to.
    """
    return dilate_mask(extract_boundary(label_map), radius)
