"""Region (J) and boundary (F) quality measures with per-class aggregation.

J is the Jaccard index of the predicted and ground-truth pixel sets of one
class. F is the F-measure of boundary precision and recall, where a boundary
pixel matches when the other map has a boundary pixel within a tolerance
radius. Frames where a class appears in neither map are skipped, not scored:
scoring an absent class as perfect would inflate averages, scoring it as
zero would punish correct rejections.

Scoring takes one pass per frame for all classes at once: J comes from one
confusion count of (prediction, ground truth) label pairs, and F from a
stack of per-class masks of each map, cropped to the bounding box of every
label change in either map. Every class boundary lies inside that box, and
so does every differing neighbor of a pixel in it, so the crop changes no
boundary pixel and no count. ``region_jaccard`` and ``boundary_f`` are the
one-class case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import _disk_morph, _edges
from .errors import EmptyInput, NoClassEverPresent, ShapeMismatch
from .tensorio import ensure_label_map


def default_tolerance(height: int, width: int) -> int:
    """Boundary match radius scaled to image size: 0.8% of the diagonal.

    Rounded half-up and floored at 1 pixel so tiny frames still tolerate
    one-pixel boundary shifts.
    """
    diag = math.hypot(height, width)
    return max(1, int(math.floor(0.008 * diag + 0.5)))


def _label_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p = ensure_label_map(pred)
    g = ensure_label_map(gt)
    if p.shape != g.shape:
        raise ShapeMismatch(f"prediction shape {p.shape} != ground truth shape {g.shape}")
    return p, g


def _jaccards(p: np.ndarray, g: np.ndarray, class_ids) -> list[float | None]:
    """J of each class of one frame, from one confusion count; None when absent."""
    conf = np.bincount((p.astype(np.intp) << 8 | g).ravel(), minlength=65536).reshape(256, 256)
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
    return _jaccards(*_label_pair(pred, gt), [class_id])[0]


def boundary_f(pred, gt, class_id: int, tolerance: int | None = None) -> float | None:
    """F-measure of boundary agreement for one class within ``tolerance`` pixels.

    None when neither map has any boundary for the class; 0.0 when exactly
    one side does. Precision counts predicted boundary pixels within the
    tolerance of some ground-truth boundary pixel, recall the reverse.
    """
    p, g = _label_pair(pred, gt)
    if tolerance is None:
        tolerance = default_tolerance(*p.shape)
    return _boundary_fs(p, g, [class_id], tolerance)[0]


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
    """
    preds = list(preds)
    gts = list(gts)
    if not preds or not gts:
        raise EmptyInput("evaluation needs at least one frame")
    if len(preds) != len(gts):
        raise ShapeMismatch(f"{len(preds)} predictions vs {len(gts)} ground truths")
    class_ids = [int(c) for c in class_ids]
    if not class_ids:  # nothing to score, and no frame is read
        raise NoClassEverPresent("no requested class appears in any frame")
    j_scores: dict[int, list[float]] = {c: [] for c in class_ids}
    f_scores: dict[int, list[float]] = {c: [] for c in class_ids}
    for pred, gt in zip(preds, gts):
        p, g = _label_pair(pred, gt)
        tol = default_tolerance(*p.shape) if tolerance is None else tolerance
        js = _jaccards(p, g, class_ids)
        fs = _boundary_fs(p, g, class_ids, tol)
        for c, j, f in zip(class_ids, js, fs):
            if j is not None:
                j_scores[c].append(j)
            if f is not None:
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
