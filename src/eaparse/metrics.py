"""Region (J) and boundary (F) quality measures with per-class aggregation.

J is the Jaccard index of the predicted and ground-truth pixel sets of one
class. F is the F-measure of boundary precision and recall, where a boundary
pixel matches when the other map has a boundary pixel within a tolerance
radius. Frames where a class appears in neither map are skipped, not scored:
scoring an absent class as perfect would inflate averages, scoring it as
zero would punish correct rejections.

Scoring takes one pass per frame for all classes at once, and reduces the
frame to a small record (``_frame_scores``): the non-zero classes its ground
truth holds, and J and F per class. J comes from one confusion count of
(prediction, ground truth) label pairs, and F from a stack of per-class
masks of each map, cropped to the bounding box of every label change in
either map. Every class boundary lies inside that box, and so does every
differing neighbor of a pixel in it, so the crop changes no boundary pixel
and no count. ``_report`` aggregates the records in frame order, and
``evaluate_frames`` is the two composed. The CLI's ``eval`` and ``pipeline``
score each frame as it runs and aggregate once at the end, so no frame's
maps are kept for the report. ``region_jaccard`` and ``boundary_f`` are the
one-class case of the same code.

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


def _confusion(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pixel count of each (prediction, ground truth) label pair of one frame."""
    return np.bincount((p.astype(np.intp) << 8 | g).ravel(), minlength=65536).reshape(256, 256)


def _jaccards(conf: np.ndarray, class_ids) -> list[float | None]:
    """J of each class of one frame, from its confusion count; None when absent."""
    inter = conf.diagonal().tolist()
    union = (conf.sum(axis=1) + conf.sum(axis=0)).tolist()
    out = []
    for c in class_ids:
        u = union[c] - inter[c] if 0 <= c < 256 else 0
        out.append(inter[c] / u if u else None)
    return out


def _boundary_fs(p: np.ndarray, g: np.ndarray, class_ids, tolerance: int) -> list[float | None]:
    """F of each class of one frame, all classes in one stack; None when absent."""
    changes = _edges(p) | _edges(g)
    rows = np.flatnonzero(changes.any(axis=1))
    if rows.size == 0:
        return [None] * len(class_ids)
    cols = np.flatnonzero(changes.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    ids = sorted({c for c in class_ids if 0 <= c < 256})
    stack = np.array(ids, dtype=np.uint8)[:, None, None]
    bp = _edges(p[box] == stack)
    bg = _edges(g[box] == stack)
    n_p = bp.sum(axis=(1, 2))
    n_g = bg.sum(axis=(1, 2))
    hit_p = np.zeros_like(n_p)
    hit_g = np.zeros_like(n_g)
    both = (n_p > 0) & (n_g > 0)
    if both.any():
        bp, bg = bp[both], bg[both]
        hit_p[both] = (bp & _disk_morph(bg, tolerance, erode=False)).sum(axis=(1, 2))
        hit_g[both] = (bg & _disk_morph(bp, tolerance, erode=False)).sum(axis=(1, 2))
    counts = dict(zip(ids, zip(n_p.tolist(), n_g.tolist(), hit_p.tolist(), hit_g.tolist())))

    out = []
    for c in class_ids:
        np_, ng, tp_p, tp_g = counts.get(c, (0, 0, 0, 0))
        if np_ == 0 and ng == 0:
            out.append(None)
        elif np_ == 0 or ng == 0:
            out.append(0.0)
        else:
            precision = tp_p / np_
            recall = tp_g / ng
            if precision + recall == 0:
                out.append(0.0)
            else:
                out.append(2.0 * precision * recall / (precision + recall))
    return out


def region_jaccard(pred, gt, class_id: int) -> float | None:
    """|pred ∩ gt| / |pred ∪ gt| for one class; None when both are empty."""
    _check_number("class_id", class_id, integer=True)
    return _jaccards(_confusion(*_label_pair(pred, gt)), [class_id])[0]


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
    conf = _confusion(p, g)
    in_gt = conf.sum(axis=0)[1:] > 0
    if class_ids is None:
        class_ids = (np.flatnonzero(in_gt | (conf.sum(axis=1)[1:] > 0)) + 1).tolist()
    tol = default_tolerance(*p.shape) if tolerance is None else tolerance
    scores = zip(class_ids, _jaccards(conf, class_ids), _boundary_fs(p, g, class_ids, tol))
    return (np.flatnonzero(in_gt) + 1).tolist(), list(scores)


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
