"""Axis-aligned boxes, margin expansion, crop and paste-back.

Detection-driven pipelines process faces through a crop: expand the detector
box by a margin, run the model on the crop, then write the result back into
the full frame. Boxes are half-open pixel rectangles [x0, x1) x [y0, y1), so
width is x1 - x0 and adjacent boxes never share pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBox, OutOfBounds, SizeMismatch
from .tensorio import ensure_label_map, ensure_rgb_image

# fraction of box width/height added as margin on each side, total, by default
DEFAULT_EXPAND_RATIO = 0.2


@dataclass(frozen=True)
class Box:
    """Half-open rectangle [x0, x1) x [y0, y1) in pixel coordinates."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        for v in (self.x0, self.y0, self.x1, self.y1):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidBox(f"box coordinates must be integers, got {v!r}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise InvalidBox(
                f"box must have positive extent, got ({self.x0},{self.y0})-({self.x1},{self.y1})"
            )

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0


def expand_box(box: Box, ratio: float, frame_w: int, frame_h: int) -> Box:
    """Grow ``box`` by ``ratio`` of its size, clamped to the frame.

    Each side moves outward by ratio * extent / 2, rounded outward (floor on
    the low edge, ceil on the high edge), then clamps to
    [0, frame_w) x [0, frame_h). Expanding by 0 returns the box unchanged
    apart from clamping. A side or margin beyond float range raises
    InvalidBox, as a negative or non-finite ratio does.
    """
    if not math.isfinite(ratio) or ratio < 0:
        raise InvalidBox(f"expand ratio must be finite and >= 0, got {ratio}")
    if frame_h < 1 or frame_w < 1:
        raise InvalidBox("frame must be at least 1 x 1")
    try:  # a side beyond float range, or a margin that rounds to infinity
        dx = ratio * box.width / 2.0
        dy = ratio * box.height / 2.0
        x0 = max(0, math.floor(box.x0 - dx))
        y0 = max(0, math.floor(box.y0 - dy))
        x1 = min(frame_w, math.ceil(box.x1 + dx))
        y1 = min(frame_h, math.ceil(box.y1 + dy))
    except OverflowError as exc:
        raise InvalidBox(f"cannot expand the box by {ratio}: {exc}") from exc
    if x1 <= x0 or y1 <= y0:
        raise InvalidBox("box lies entirely outside the frame")
    return Box(x0, y0, x1, y1)


def _in_frame(box: Box, shape) -> tuple[slice, slice]:
    """The rows and columns of ``box`` in a raster of ``shape``; OutOfBounds unless it fits."""
    h, w = shape[:2]
    if box.x0 < 0 or box.y0 < 0 or box.x1 > w or box.y1 > h:
        raise OutOfBounds(f"box ({box.x0},{box.y0})-({box.x1},{box.y1}) exceeds frame {w} x {h}")
    return slice(box.y0, box.y1), slice(box.x0, box.x1)


def crop(raster, box: Box) -> np.ndarray:
    """Copy the pixels of ``box`` out of a label map or RGB image."""
    a = np.asarray(raster)
    a = ensure_rgb_image(a) if a.ndim == 3 else ensure_label_map(a)
    return a[_in_frame(box, a.shape)].copy()


def paste(
    canvas,
    patch,
    box: Box,
    *,
    canvas_confidence: np.ndarray | None = None,
    patch_confidence: np.ndarray | None = None,
) -> np.ndarray:
    """Write ``patch`` into ``canvas`` at ``box`` and return a new canvas.

    Default rule: non-background patch pixels (id != 0) overwrite the canvas,
    background patch pixels leave it alone. With both confidence maps given
    (canvas-sized and patch-sized float arrays), a patch pixel wins only
    where its confidence is strictly greater than the canvas's.
    """
    cv = ensure_label_map(canvas)
    pt = ensure_label_map(patch)
    rows_cols = _in_frame(box, cv.shape)
    if pt.shape != (box.height, box.width):
        raise SizeMismatch(
            f"patch shape {pt.shape} != box extent {(box.height, box.width)}"
        )
    if (canvas_confidence is None) != (patch_confidence is None):
        raise SizeMismatch("confidence must be given for both canvas and patch or neither")

    out = cv.copy()
    window = out[rows_cols]
    if canvas_confidence is None:
        take = pt != 0
    else:
        cc = np.asarray(canvas_confidence, dtype=np.float64)
        pc = np.asarray(patch_confidence, dtype=np.float64)
        if cc.shape != cv.shape:
            raise SizeMismatch(f"canvas confidence shape {cc.shape} != canvas {cv.shape}")
        if pc.shape != pt.shape:
            raise SizeMismatch(f"patch confidence shape {pc.shape} != patch {pt.shape}")
        take = pc > cc[rows_cols]
    window[take] = pt[take]
    return out
