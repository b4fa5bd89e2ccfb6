"""Region (J) and boundary (F) quality measures with per-class aggregation.

J is the Jaccard index of the predicted and ground-truth pixel sets of one
class. F is the F-measure of boundary precision and recall, where a boundary
pixel matches when the other map has a boundary pixel within a tolerance
radius. Frames where a class appears in neither map are skipped, not scored:
scoring an absent class as perfect would inflate averages, scoring it as
zero would punish correct rejections.

Scoring takes one pass per frame for all classes at once, and reduces the
frame to a small record (``_frame_scores``): the non-zero classes its ground
truth holds, and J and F per class. J comes from three per-label pixel
counts: of the prediction, of the ground truth, and of the pixels where the
two agree. F maps each map through ``bit[labels]`` to a plane of class bits,
one bit per requested class and up to 64 classes per plane, in the smallest
unsigned dtype that holds them. On each map's plane one ``_edges`` call
gives every class's boundary and one ``_disk_morph`` dilates them all; the
pixels with each bit set are counted from the plane's little-endian bytes,
whatever the machine's byte order. ``_report`` aggregates the records in
frame order, and ``evaluate_frames`` is the two composed. The CLI's
``eval`` and ``pipeline`` score each frame as it runs and aggregate once at
the end, so no frame's maps are kept for the report. ``region_jaccard`` and
``boundary_f`` are the one-class case of the same code.

A class id is an integer (numpy integers too, never a bool); an id outside
0..255 names no label, so it is absent from every frame and skipped. A
tolerance is an integer >= 0, or None for ``default_tolerance``. Anything
else raises InvalidRaster naming the argument, whatever the frames hold.
``evaluate_frames`` takes None for its class ids, as the CLI's ``eval``
does: every non-zero class that some ground truth holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import _disk_morph, _edges
from .errors import EmptyInput, NoClassEverPresent, ShapeMismatch
from .tensorio import _check_number, ensure_label_map


def default_tolerance(height: int, width: int) -> int:
    """Boundary match radius scaled to image size: 0.8% of the diagonal.

    Rounded half-up and floored at 1 pixel so tiny frames still tolerate
    one-pixel boundary shifts. Both sizes are integers >= 1.
    """
    for name, size in (("height", height), ("width", width)):
        _check_number(name, size, 1, integer=True)
    diag = math.hypot(height, width)
    return max(1, int(math.floor(0.008 * diag + 0.5)))


def _label_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p = ensure_label_map(pred)
    g = ensure_label_map(gt)
    if p.shape != g.shape:
        raise ShapeMismatch(f"prediction shape {p.shape} != ground truth shape {g.shape}")
    return p, g


def _counts(p: np.ndarray, g: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Pixel count of each label of one frame: in p, in g, and where they agree."""
    return tuple(np.bincount(a.ravel(), minlength=256).tolist() for a in (p, g, p[p == g]))


def _jaccards(counts, class_ids) -> list[float | None]:
    """J of each class of one frame, from its ``_counts``; None when absent."""
    n_p, n_g, inter = counts
    out = []
    for c in class_ids:
        u = n_p[c] + n_g[c] - inter[c] if 0 <= c < 256 else 0
        out.append(inter[c] / u if u else None)
    return out


def _bit_counts(plane: np.ndarray) -> list[int]:
    """Pixels of ``plane`` with bit k set, for each bit k of its dtype."""
    v = plane[plane != 0].astype(plane.dtype.newbyteorder("<"), copy=False)  # byte 0: bits 0-7
    return np.unpackbits(v.view(np.uint8), bitorder="little").reshape(-1, 8 * v.itemsize).sum(axis=0).tolist()


def _boundary_fs(p: np.ndarray, g: np.ndarray, class_ids, tolerance: int) -> list[float | None]:
    """F of each class of one frame, 64 classes per bit plane; None when absent."""
    ids = sorted({c for c in class_ids if 0 <= c < 256})
    counts = {}
    for first in range(0, len(ids), 64):
        plane_ids = ids[first : first + 64]
        bit = np.zeros(256, np.min_scalar_type((1 << len(plane_ids)) - 1))
        bit[plane_ids] = [1 << k for k in range(len(plane_ids))]
        bp, bg = _edges(bit[p]), _edges(bit[g])
        hit_p = hit_g = [0] * len(plane_ids)
        if bp.any() and bg.any():
            hit_p = _bit_counts(bp & _disk_morph(bg, tolerance, erode=False))
            hit_g = _bit_counts(bg & _disk_morph(bp, tolerance, erode=False))
        counts.update(zip(plane_ids, zip(_bit_counts(bp), _bit_counts(bg), hit_p, hit_g)))

    out = []
    for c in class_ids:
        np_, ng, tp_p, tp_g = counts.get(c, (0, 0, 0, 0))
        if np_ == 0 or ng == 0:  # None when both are 0
            out.append(None if np_ == ng else 0.0)
            continue
        precision, recall = tp_p / np_, tp_g / ng
        out.append(2.0 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return out


def region_jaccard(pred, gt, class_id: int) -> float | None:
    """|pred ∩ gt| / |pred ∪ gt| for one class; None when both are empty."""
    _check_number("class_id", class_id, integer=True)
    return _jaccards(_counts(*_label_pair(pred, gt)), [class_id])[0]


def boundary_f(pred, gt, class_id: int, tolerance: int | None = None) -> float | None:
    """F-measure of boundary agreement for one class within ``tolerance`` pixels.

    None when neither map has any boundary for the class; 0.0 when exactly
    one side does. Precision counts predicted boundary pixels within the
    tolerance of some ground-truth boundary pixel, recall the reverse.
    """
    _check_number("class_id", class_id, integer=True)
    p, g = _label_pair(pred, gt)
    if tolerance is None:
        tolerance = default_tolerance(*p.shape)
    _check_number("tolerance", tolerance, 0, integer=True)
    return _boundary_fs(p, g, [class_id], tolerance)[0]


def _frame_scores(pred, gt, class_ids, tolerance):
    """One frame's record: the non-zero classes its ground truth holds, and
    (class, J, F) for each class of ``class_ids`` or, for None, of every
    non-zero class either map holds; J and F are None where skipped. Callers
    check the tolerance first, by ``evaluate_frames``'s rule."""
    p, g = _label_pair(pred, gt)
    counts = _counts(p, g)
    n_p, n_g, _ = counts
    in_gt = [c for c in range(1, 256) if n_g[c]]
    if class_ids is None:
        class_ids = [c for c in range(1, 256) if n_p[c] or n_g[c]]
    tol = default_tolerance(*p.shape) if tolerance is None else tolerance
    scores = zip(class_ids, _jaccards(counts, class_ids), _boundary_fs(p, g, class_ids, tol))
    return in_gt, list(scores)


@dataclass
class ClassScore:
    """Mean J and F of one class over the frames where it was scoreable."""

    class_id: int
    mean_j: float
    mean_f: float
    frames_counted: int


@dataclass
class EvalReport:
    """Per-class scores plus dataset-level means; J&F is their midpoint."""

    per_class: list[ClassScore] = field(default_factory=list)
    mean_j: float = 0.0
    mean_f: float = 0.0
    j_and_f: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "per_class": {
                str(s.class_id): {
                    "J": s.mean_j,
                    "F": s.mean_f,
                    "frames": s.frames_counted,
                }
                for s in self.per_class
            },
            "mean_J": self.mean_j,
            "mean_F": self.mean_f,
            "J_and_F": self.j_and_f,
        }


def evaluate_frames(
    preds, gts, class_ids, tolerance: int | None = None
) -> EvalReport:
    """Score prediction/ground-truth frame lists for each class and aggregate.

    Per class and frame, J and F are skipped independently (None). A class
    with no scoreable frame at all is dropped from the report; if that
    happens for every class the dataset carries no signal and
    NoClassEverPresent is raised. Dataset means average the per-class means,
    each class weighted equally, and J&F = (mean_J + mean_F) / 2. The result
    depends only on the multiset of frames, not their processing order.
    ``class_ids`` None scores every non-zero class that some ground truth
    holds. A tolerance or class id that breaks the rules above raises
    InvalidRaster before any frame is scored, whatever the frames hold.
    """
    preds = list(preds)
    gts = list(gts)
    if not preds or not gts:
        raise EmptyInput("evaluation needs at least one frame")
    if len(preds) != len(gts):
        raise ShapeMismatch(f"{len(preds)} predictions vs {len(gts)} ground truths")
    tolerance = tolerance if tolerance is None else _check_number("tolerance", tolerance, 0, integer=True)
    if class_ids is not None:
        class_ids = [int(_check_number(f"class_ids[{i}]", c, integer=True)) for i, c in enumerate(class_ids)]
        if not class_ids:  # nothing to score, and no frame is read
            raise NoClassEverPresent("no requested class appears in any frame")
    return _report((_frame_scores(p, g, class_ids, tolerance) for p, g in zip(preds, gts)), class_ids)


def _report(records, class_ids) -> EvalReport:
    """The report of ``_frame_scores`` records, in frame order, on ``class_ids``
    or, for None, on every non-zero class that some ground truth holds."""
    records = list(records)
    if class_ids is None:
        class_ids = sorted(set().union(*(held for held, _ in records)))
    j_scores: dict[int, list[float]] = {c: [] for c in class_ids}
    f_scores: dict[int, list[float]] = {c: [] for c in class_ids}
    for _, scores in records:
        for c, j, f in scores:  # a class only a prediction holds is in neither dict
            if j is not None and c in j_scores:
                j_scores[c].append(j)
            if f is not None and c in f_scores:
                f_scores[c].append(f)

    report = EvalReport()
    for c in class_ids:
        if not j_scores[c]:
            continue
        # value-sorted reduction: the means, and with them the whole report,
        # depend only on the multiset of frames, not the list order
        mj = float(np.mean(np.sort(j_scores[c])))
        mf = float(np.mean(np.sort(f_scores[c]))) if f_scores[c] else 0.0
        report.per_class.append(
            ClassScore(class_id=c, mean_j=mj, mean_f=mf, frames_counted=len(j_scores[c]))
        )
    if not report.per_class:
        raise NoClassEverPresent("no requested class appears in any frame")
    report.mean_j = float(np.mean([s.mean_j for s in report.per_class]))
    f_classes = [s.mean_f for s in report.per_class if f_scores[s.class_id]]
    report.mean_f = float(np.mean(f_classes)) if f_classes else 0.0
    report.j_and_f = (report.mean_j + report.mean_f) / 2.0
    return report
