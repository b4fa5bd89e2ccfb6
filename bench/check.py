"""Output checks for the pipeline benchmark, independent of ``eaparse``.

Everything here re-derives the expected result from the input files with
numpy and ``scipy.ndimage`` (the benchmark may use scipy; the runtime may
not), so a defect in ``eaparse`` cannot hide behind a shared helper:

* fusion      -- without refinement the label maps equal a reference
  softmax-average, bilinear resize and confidence paste of the members;
* scores      -- report.json's per-class J and F and its J_and_F equal J/F
  recomputed from the written label maps, to 1e-9;
* refinement  -- refined maps differ from the reference fusion only inside
  the dilated envelopes of the refined classes, and score a higher J&F.
"""

from __future__ import annotations

import json
import math
import re
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage

from gen import EXPAND_RATIO, expand_box

SCORE_TOL = 1e-9
DILATE_RADIUS = 10  # eaparse's default grabcut.dilate_radius, the trimap envelope

_CROSS = ndimage.generate_binary_structure(2, 1)


# --- readers for the two formats the checks need ---


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s(\d+)\s(\d+)\s255\s", data)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM with maxval 255")
    w, h = int(m.group(1)), int(m.group(2))
    if len(data) - m.end() != h * w:
        raise ValueError(f"{path}: payload is not {h} x {w} bytes")
    return np.frombuffer(data[m.end() :], dtype=np.uint8).reshape(h, w)


def read_fplt(path) -> np.ndarray:
    data = Path(path).read_bytes()
    _, c, h, w = struct.unpack("<IIII", data[4:20])
    return np.frombuffer(data[20:], dtype="<f4").reshape(c, h, w)


# --- reference fusion ---


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=0))
    return z / z.sum(axis=0)


def _resize(probs: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bilinear resize, half-pixel centres, edge-clamped."""

    def weights(n_src: int, n_dst: int) -> np.ndarray:
        # (n_dst, n_src) interpolation matrix
        src = np.clip((np.arange(n_dst) + 0.5) * n_src / n_dst - 0.5, 0.0, n_src - 1.0)
        lo = np.floor(src).astype(int)
        frac = src - lo
        m = np.zeros((n_dst, n_src))
        m[np.arange(n_dst), lo] += 1.0 - frac
        m[np.arange(n_dst), np.minimum(lo + 1, n_src - 1)] += frac
        return m

    _, h, w = probs.shape
    if (h, w) == (out_h, out_w):
        return probs
    return weights(h, out_h) @ probs @ weights(w, out_w).T


def reference_fusion(clip: dict, stem: str, boxes: list) -> np.ndarray:
    """Unrefined label map of one frame: per box, average, argmax, paste."""
    h, w = read_pgm(Path(clip["gt"]) / f"{stem}.pgm").shape
    canvas = np.zeros((h, w), dtype=np.uint8)
    conf = np.zeros((h, w))
    for k, box in enumerate(boxes):
        x0, y0, x1, y1 = expand_box(box, EXPAND_RATIO, w, h)
        probs = np.mean(
            [
                _resize(_softmax(read_fplt(Path(d) / f"{stem}__{k}.fplt").astype(np.float64)), y1 - y0, x1 - x0)
                for d in clip["members"]
            ],
            axis=0,
        )
        patch, patch_conf = probs.argmax(axis=0), probs.max(axis=0)
        take = patch_conf > conf[y0:y1, x0:x1]
        canvas[y0:y1, x0:x1][take] = patch[take]
        conf[y0:y1, x0:x1] = np.maximum(conf[y0:y1, x0:x1], patch_conf)
    return canvas


def read_boxes(clip: dict) -> dict[str, list]:
    boxes: dict[str, list] = {}
    for line in Path(clip["boxes"]).read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        boxes.setdefault(entry["frame"], []).append(tuple(entry["box"]))
    return boxes


# --- J and F ---


def _disk(radius: int) -> np.ndarray:
    yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    return yy * yy + xx * xx <= radius * radius


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Pixels with a 4-neighbour on the other side; the frame edge is no side."""
    inner = mask & ~ndimage.binary_erosion(mask, _CROSS, border_value=1)
    outer = ~mask & ndimage.binary_dilation(mask, _CROSS)
    return inner | outer


def frame_scores(pred: np.ndarray, gt: np.ndarray, class_id: int, tol: int):
    """(J, F) of one class in one frame; None where the class is unscoreable."""
    p, g = pred == class_id, gt == class_id
    union = int((p | g).sum())
    j = int((p & g).sum()) / union if union else None
    bp, bg = _boundary(p), _boundary(g)
    n_p, n_g = int(bp.sum()), int(bg.sum())
    if n_p == 0 and n_g == 0:
        return j, None
    if n_p == 0 or n_g == 0:
        return j, 0.0
    disk = _disk(tol)
    precision = int((bp & ndimage.binary_dilation(bg, disk)).sum()) / n_p
    recall = int((bg & ndimage.binary_dilation(bp, disk)).sum()) / n_g
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return j, f


def jf_report(preds: list, gts: list) -> dict:
    """Per-class mean J and F over the non-zero ground-truth classes, and J&F."""
    h, w = gts[0].shape
    tol = max(1, int(math.floor(0.008 * math.hypot(h, w) + 0.5)))
    classes = sorted(set(np.unique(np.concatenate([g.ravel() for g in gts])).tolist()) - {0})
    per_class = {}
    for c in classes:
        scores = [frame_scores(p, g, c, tol) for p, g in zip(preds, gts)]
        js = [j for j, _ in scores if j is not None]
        fs = [f for _, f in scores if f is not None]
        if js:
            per_class[c] = (float(np.mean(js)), float(np.mean(fs)) if fs else None)
    mean_j = float(np.mean([j for j, _ in per_class.values()]))
    f_means = [f for _, f in per_class.values() if f is not None]
    mean_f = float(np.mean(f_means)) if f_means else 0.0
    return {"per_class": per_class, "J_and_F": (mean_j + mean_f) / 2.0}


# --- the checks ---


class Reference:
    """Expected values of one clip, computed once from its input files."""

    def __init__(self, clip: dict):
        self.clip = clip
        self.boxes = read_boxes(clip)
        self.stems = sorted(self.boxes)
        self.gts = [read_pgm(Path(clip["gt"]) / f"{s}.pgm") for s in self.stems]
        self.fused = [reference_fusion(clip, s, self.boxes[s]) for s in self.stems]
        self.fused_jf = jf_report(self.fused, self.gts)["J_and_F"]
        envelope = _disk(DILATE_RADIUS)
        self.envelopes = [
            np.any(
                [ndimage.binary_dilation(f == c, envelope) for c in clip["workload"].refine],
                axis=0,
            )
            if clip["workload"].refine
            else np.zeros(f.shape, dtype=bool)
            for f in self.fused
        ]

    def problems(self, out_dir) -> list[str]:
        """Everything wrong with one pipeline output directory; [] when correct."""
        out_dir = Path(out_dir)
        try:
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            preds = [read_pgm(out_dir / f"{s}.pgm") for s in self.stems]
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        found = []
        refine = self.clip["workload"].refine
        for stem, pred, fused, env in zip(self.stems, preds, self.fused, self.envelopes):
            if pred.shape != fused.shape:
                found.append(f"{stem}: shape {pred.shape} != {fused.shape}")
                continue
            changed = pred != fused
            if not refine and changed.any():
                found.append(f"{stem}: {int(changed.sum())} pixels differ from the reference fusion")
            if refine and (changed & ~env).any():
                found.append(f"{stem}: {int((changed & ~env).sum())} pixels changed outside the refined envelopes")
        if found:
            return found

        ours = jf_report(preds, self.gts)
        theirs = report.get("per_class", {})
        if sorted(theirs, key=int) != [str(c) for c in ours["per_class"]]:
            found.append(f"scored classes {sorted(theirs, key=int)} != {list(ours['per_class'])}")
        for c, (j, f) in ours["per_class"].items():
            entry = theirs.get(str(c), {})
            for name, want in (("J", j), ("F", 0.0 if f is None else f)):
                got = entry.get(name)
                if not isinstance(got, (int, float)) or abs(got - want) > SCORE_TOL:
                    found.append(f"class {c} {name}: report {got} != {want}")
        jf = report.get("J_and_F")
        if not isinstance(jf, (int, float)) or abs(jf - ours["J_and_F"]) > SCORE_TOL:
            found.append(f"J_and_F: report {jf} != {ours['J_and_F']}")
        elif refine and not jf > self.fused_jf:
            found.append(f"refined J&F {jf} is not above the unrefined fusion's {self.fused_jf}")
        return found
