"""Symmetry-aware geometric augmentations for image/label pairs.

Mirroring a face swaps left and right: after a horizontal flip the pixel
that used to show the left eye shows the right eye but still carries the
left-eye id. A SwapTable lists the class-id pairs to exchange whenever an
augmentation mirrors the image, so semantics follow geometry. Quarter
rotations and half crops do not mirror, so they relabel nothing.

Each operation applies one geometric transform identically to the image and
its label map and returns the new pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidChoice, LabelOutOfRange, ShapeMismatch, TooSmall
from .tensorio import ensure_label_map, ensure_rgb_image


def _swap_pair(entry) -> tuple[int, int]:
    if (
        not isinstance(entry, (list, tuple, np.ndarray))
        or len(entry) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in entry)
    ):
        raise LabelOutOfRange(f"swap pair must be two integers, got {entry!r}")
    return int(entry[0]), int(entry[1])


@dataclass(frozen=True)
class SwapTable:
    """Pairs of class ids to exchange under mirroring, e.g. [(2, 3), (4, 5)].

    Each pair is exactly two integers (not bools), ids must fit in a byte, a
    pair may not map an id to itself, and no id may appear in two pairs; the
    induced relabeling is therefore an involution.
    """

    pairs: tuple[tuple[int, int], ...]
    _lut: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, pairs=()):
        if not isinstance(pairs, (list, tuple, np.ndarray)):
            raise LabelOutOfRange(f"swap pairs must be a list of pairs, got {pairs!r}")
        norm = tuple(_swap_pair(entry) for entry in pairs)
        lut = np.arange(256, dtype=np.uint8)
        seen = set()
        for a, b in norm:
            if not (0 <= a <= 255 and 0 <= b <= 255):
                raise LabelOutOfRange(f"swap pair ({a}, {b}) outside byte range")
            if a == b:
                raise LabelOutOfRange(f"class {a} cannot swap with itself")
            if a in seen or b in seen:
                raise LabelOutOfRange(f"class id occurs in more than one swap pair: ({a}, {b})")
            seen.update((a, b))
            lut[a], lut[b] = b, a
        object.__setattr__(self, "pairs", norm)
        object.__setattr__(self, "_lut", lut)

    def apply(self, label_map: np.ndarray) -> np.ndarray:
        return self._lut[label_map]


def _check_pair(image, labels) -> tuple[np.ndarray, np.ndarray]:
    img = ensure_rgb_image(image)
    lab = ensure_label_map(labels)
    if img.shape[:2] != lab.shape:
        raise ShapeMismatch(f"image {img.shape[:2]} and labels {lab.shape} differ")
    return img, lab


def hflip_with_swap(image, labels, swaps: SwapTable):
    """Mirror both rasters left-right and exchange paired class ids.

    The image's channels pass through untouched; only label ids are
    remapped. Applying the operation twice restores the input exactly.
    """
    img, lab = _check_pair(image, labels)
    return np.flip(img, axis=1).copy(), swaps.apply(np.flip(lab, axis=1)).copy()


def rotate_quarter(image, labels, quarters: int):
    """Rotate both rasters clockwise by 90 (quarters=1) or 270 (quarters=3) degrees.

    No mirroring is involved, so class ids pass through untouched; the two
    values are mutual inverses.
    """
    if quarters not in (1, 3):
        raise InvalidChoice(f"quarters must be 1 or 3, got {quarters!r}")
    img, lab = _check_pair(image, labels)
    return (
        np.rot90(img, k=-quarters, axes=(0, 1)).copy(),
        np.rot90(lab, k=-quarters).copy(),
    )


def cut_half(image, labels, side: str):
    """Keep one half of both rasters: 'left', 'right', 'top' or 'bottom'.

    For odd sizes the middle row/column belongs to neither half: left keeps
    columns [0, floor(W/2)), right keeps [ceil(W/2), W), and top/bottom act
    the same on rows. The cut dimension must be at least 2. No padding or
    resizing happens here.
    """
    img, lab = _check_pair(image, labels)
    h, w = lab.shape
    if side in ("left", "right"):
        if w < 2:
            raise TooSmall(f"width {w} too small to cut in half")
        cols = slice(0, w // 2) if side == "left" else slice((w + 1) // 2, w)
        return img[:, cols].copy(), lab[:, cols].copy()
    if side in ("top", "bottom"):
        if h < 2:
            raise TooSmall(f"height {h} too small to cut in half")
        rows = slice(0, h // 2) if side == "top" else slice((h + 1) // 2, h)
        return img[rows, :].copy(), lab[rows, :].copy()
    raise InvalidChoice(f"side must be left/right/top/bottom, got {side!r}")
