"""Axis-aligned boxes, margin expansion, crop and paste-back, and the fusion
of a frame's face crops into its label map.

Detection-driven pipelines process faces through a crop: expand the detector
box by a margin, run the model on the crop, then write the result back into
the full frame. Boxes are half-open pixel rectangles [x0, x1) x [y0, y1), so
width is x1 - x0 and adjacent boxes never share pixels. ``fuse_frame`` does
the whole write-back of one frame from arrays: every box's ensemble, pasted
by confidence, then GrabCut refinement of the classes asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import _labels, ensemble_probabilities
from .errors import InvalidBox, OutOfBounds, SizeMismatch
from .grabcut import refine_class
from .tensorio import _check_number, _is_number, ensure_label_map, ensure_rgb_image

# fraction of box width/height added as margin on each side, total, by default
DEFAULT_EXPAND_RATIO = 0.2


@dataclass(frozen=True)
class Box:
    """Half-open rectangle [x0, x1) x [y0, y1) in pixel coordinates.

    The coordinates are integers (numpy integers too, never a bool) with
    x0 < x1 and y0 < y1, else InvalidBox. A box may lie partly or wholly
    outside a frame: ``crop`` and ``paste`` reject it there with
    OutOfBounds, and ``expand_box`` clamps it.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        for v in (self.x0, self.y0, self.x1, self.y1):
            if not _is_number(v, integer=True):
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
    InvalidBox, as a ratio that is negative, not finite, not a real number
    or a bool does, and frame sizes that are not integers >= 1.
    """
    if not _is_number(ratio) or ratio < 0:
        raise InvalidBox(f"expand ratio must be finite and >= 0, got {ratio}")
    if not all(_is_number(v, integer=True) and v >= 1 for v in (frame_w, frame_h)):
        raise InvalidBox(f"frame must be at least 1 x 1 integer pixels, got {frame_w=}, {frame_h=}")
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


def fuse_frame(image, boxes, members, expand_ratio=DEFAULT_EXPAND_RATIO, refine_ids=(), params=None) -> np.ndarray:
    """The label map of one frame from its face boxes and each box's members.

    ``members[k]`` is box k's list of logit tensors, on any grid. The map
    starts as background (0) at confidence 0. Box by box, in order: the box
    grows by ``expand_ratio`` (``expand_box``), its members are ensembled on
    that grid (``ensemble_probabilities``), the first maximum gives each
    pixel's label and confidence, and the patch is pasted where its confidence
    is strictly greater than the best of the boxes before, so on a tie the
    earlier box keeps the pixel. Then ``refine_class`` refines, in turn, each
    id of ``refine_ids`` (any iterable, read once) that the map holds, with
    ``params`` (None: the ``GrabcutParams`` defaults); an id outside 0..255 is
    absent from every map and skipped. Each id must be an integer
    (InvalidRaster, checked before any work); ``members`` of another length
    than ``boxes`` raise SizeMismatch, and more than 256 classes
    LabelOutOfRange.
    """
    if len(boxes) != len(members):
        raise SizeMismatch(f"{len(boxes)} boxes but {len(members)} member lists")
    refine_ids = [_check_number(f"refine_ids[{i}]", c, integer=True) for i, c in enumerate(refine_ids)]
    image = ensure_rgb_image(image)
    h, w = image.shape[:2]
    canvas = np.zeros((h, w), dtype=np.uint8)
    confidence = np.zeros((h, w), dtype=np.float64)
    for box, logits in zip(boxes, members):
        roi_box = expand_box(box, expand_ratio, w, h)
        patch, patch_conf = _labels(ensemble_probabilities(logits, roi_box.height, roi_box.width))
        canvas = paste(canvas, patch, roi_box, canvas_confidence=confidence, patch_confidence=patch_conf)
        window = confidence[roi_box.y0 : roi_box.y1, roi_box.x0 : roi_box.x1]
        np.maximum(window, patch_conf, out=window)
    for class_id in refine_ids:
        if 0 <= class_id <= 255 and (canvas == class_id).any():
            canvas = refine_class(canvas, image, class_id, params)
    return canvas
