"""Seeded synthetic clips for the ``eaparse pipeline`` benchmark.

A clip is the file set ``pipeline`` reads: ``images/<f>.ppm``, ``gt/<f>.pgm``,
``boxes.jsonl`` and one directory of per-box FPLT logits per ensemble member.
Everything here is stdlib + numpy and never imports ``eaparse``: the program
under test sees only the files.

Each frame holds synthetic faces drawn from ellipses (ten classes: skin,
hair, brows, eyes, nose, lips, neck) on a smooth background, with
per-pixel Gaussian colour noise. The members predict the ground truth of the
expanded face box as one-hot logits plus Gaussian logit noise; without
refinement each member is also shifted by up to one pixel, so that the
members disagree along every boundary. (Refine workloads keep the members
aligned: a shifted init leaks feature pixels into the skin colour model,
and GrabCut then swallows small features on some seeds.) The members:

* ``good``  -- strength 3.0, the better member;
* ``weak``  -- strength 2.0, with a planted hole in the skin that it labels
  background at strength 6.0, so the hole survives the fusion and the
  refinement has something to recover;
* ``lowres`` -- strength 2.5 at half the box resolution, so the ensemble
  resizes it (fuse-eval only).

Regenerate a workload's inputs with
``python3 bench/gen.py --workload refine-face --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_CLASSES = 11  # background + ten face classes
SKIN, HAIR = 1, 2
EXPAND_RATIO = 0.2  # eaparse's default box margin; logits cover the expanded box
IMAGE_NOISE = 10.0  # per-pixel colour noise, standard deviation in 8-bit levels
LOGIT_NOISE = 0.5  # Gaussian noise on every logit, standard deviation

# base RGB per class id, well apart so that a colour model can tell the
# classes from each other; each frame jitters them by up to +-6 levels
CLASS_COLORS = np.array(
    [
        (70, 90, 140),  # 0 background, plus a gradient
        (210, 165, 135),  # 1 skin
        (50, 35, 25),  # 2 hair
        (125, 80, 40),  # 3 left brow
        (125, 80, 40),  # 4 right brow
        (240, 240, 235),  # 5 left eye
        (240, 240, 235),  # 6 right eye
        (70, 120, 60),  # 7 nose
        (205, 40, 60),  # 8 upper lip
        (140, 20, 95),  # 9 lower lip
        (235, 205, 80),  # 10 neck
    ],
    dtype=np.float64,
)

MEMBER_STRENGTH = {"good": 3.0, "weak": 2.0, "lowres": 2.5}
HOLE_STRENGTH = 6.0


@dataclass(frozen=True)
class Workload:
    """The make-up of one workload's clip and the pipeline flags it runs with."""

    frames: int
    height: int
    width: int
    faces: int
    face_rx: float  # skin half-width in pixels; the half-height is 1.2x
    members: tuple[str, ...]
    refine: tuple[int, ...]  # --refine-classes; empty for no refinement
    jobs: int


WORKLOADS = {
    "refine-face": Workload(
        frames=2, height=96, width=96, faces=1, face_rx=27.0,
        members=("good", "weak"), refine=(SKIN, HAIR), jobs=2,
    ),
    "refine-wide": Workload(
        frames=1, height=144, width=192, faces=1, face_rx=12.0,
        members=("good", "weak"), refine=(SKIN,), jobs=1,
    ),
    "fuse-eval": Workload(
        frames=32, height=128, width=192, faces=2, face_rx=24.0,
        members=("good", "weak", "lowres"), refine=(), jobs=1,
    ),
}


# --- box geometry, mirrored from the pipeline's input contract ---


def expand_box(box, ratio, frame_w, frame_h):
    """Half-open box grown by ``ratio`` of its size, rounded outward, clamped."""
    x0, y0, x1, y1 = box
    dx = ratio * (x1 - x0) / 2.0
    dy = ratio * (y1 - y0) / 2.0
    return (
        max(0, math.floor(x0 - dx)),
        max(0, math.floor(y0 - dy)),
        min(frame_w, math.ceil(x1 + dx)),
        min(frame_h, math.ceil(y1 + dy)),
    )


# --- file writers (the formats documented in eaparse.tensorio) ---


def write_pgm(labels: np.ndarray, path) -> None:
    h, w = labels.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + labels.astype(np.uint8).tobytes())


def write_ppm(image: np.ndarray, path) -> None:
    h, w, _ = image.shape
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + image.astype(np.uint8).tobytes())


def write_fplt(logits: np.ndarray, path) -> None:
    c, h, w = logits.shape
    header = b"FPLT" + struct.pack("<IIII", 1, c, h, w)
    Path(path).write_bytes(header + logits.astype("<f4").tobytes())


# --- scene synthesis ---


def _ellipse(yy, xx, cy, cx, ry, rx) -> np.ndarray:
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def draw_face(labels: np.ndarray, cy: float, cx: float, rx: float) -> tuple[int, int, int, int]:
    """Paint one face into ``labels``; returns its box (skin, hair and neck)."""
    h, w = labels.shape
    ry = 1.2 * rx
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    skin = _ellipse(yy, xx, cy, cx, ry, rx)
    hair = _ellipse(yy, xx, cy - 0.18 * ry, cx, 1.1 * ry, 1.14 * rx) & (yy < cy + 0.15 * ry)
    neck = (np.abs(xx - cx) <= 0.45 * rx) & (yy >= cy + 0.6 * ry) & (yy <= cy + 1.25 * ry)
    labels[neck] = 10
    labels[hair] = HAIR
    labels[skin] = SKIN
    for side, (brow, eye) in ((-1, (3, 5)), (1, (4, 6))):
        ex = cx + side * 0.4 * rx
        labels[_ellipse(yy, xx, cy - 0.36 * ry, ex, 0.07 * ry, 0.24 * rx)] = brow
        labels[_ellipse(yy, xx, cy - 0.18 * ry, ex, 0.09 * ry, 0.17 * rx)] = eye
    labels[_ellipse(yy, xx, cy + 0.1 * ry, cx, 0.2 * ry, 0.11 * rx)] = 7
    labels[_ellipse(yy, xx, cy + 0.44 * ry, cx, 0.06 * ry, 0.3 * rx)] = 8
    labels[_ellipse(yy, xx, cy + 0.54 * ry, cx, 0.07 * ry, 0.26 * rx)] = 9
    rows, cols = np.nonzero(skin | hair | neck)
    return (int(cols.min()), int(rows.min()), int(cols.max()) + 1, int(rows.max()) + 1)


def render_image(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    h, w = labels.shape
    colors = CLASS_COLORS + rng.uniform(-6.0, 6.0, CLASS_COLORS.shape)
    img = colors[labels]
    yy, xx = np.mgrid[0:h, 0:w]
    bg = labels == 0
    img[bg, 0] += 30.0 * xx[bg] / w
    img[bg, 2] -= 30.0 * yy[bg] / h
    img += rng.normal(0.0, IMAGE_NOISE, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def member_logits(crop_gt, member: str, rng: np.random.Generator, hole, shift: bool) -> np.ndarray:
    """(C, H, W) float32 logits a member predicts for one expanded box."""
    dy, dx = (int(v) for v in rng.integers(-1, 2, 2)) if shift else (0, 0)
    pred = np.roll(crop_gt, (dy, dx), axis=(0, 1))
    strength = np.full(pred.shape, MEMBER_STRENGTH[member])
    if member == "weak":
        hy, hx, hr = hole
        yy, xx = np.mgrid[0 : pred.shape[0], 0 : pred.shape[1]]
        in_hole = ((yy - hy) ** 2 + (xx - hx) ** 2 <= hr * hr) & (pred == SKIN)
        pred[in_hole] = 0
        strength[in_hole] = HOLE_STRENGTH
    if member == "lowres":
        pred = pred[::2, ::2]
        strength = strength[::2, ::2]
    onehot = np.arange(N_CLASSES)[:, None, None] == pred[None]
    logits = rng.normal(0.0, LOGIT_NOISE, onehot.shape) + onehot * strength[None]
    return logits.astype(np.float32)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def make_clip(workload: str, seed: int, root) -> dict:
    """Write one clip under ``root``; returns the paths and pipeline flags."""
    wl = WORKLOADS[workload]
    rng = _rng(workload, seed)
    root = Path(root)
    members = {m: root / m for m in wl.members}
    for d in (root / "images", root / "gt", *members.values()):
        d.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(wl.frames):
        stem = f"f{i:03d}"
        gt = np.zeros((wl.height, wl.width), dtype=np.uint8)
        boxes = []
        for k in range(wl.faces):
            slot_w = wl.width / wl.faces
            cx = slot_w * (k + 0.5) + rng.uniform(-3.0, 3.0)
            cy = wl.height * 0.45 + rng.uniform(-3.0, 3.0)
            rx = wl.face_rx * rng.uniform(0.95, 1.05)
            boxes.append(draw_face(gt, cy, cx, rx))
        write_ppm(render_image(gt, rng), root / "images" / f"{stem}.ppm")
        write_pgm(gt, root / "gt" / f"{stem}.pgm")
        for k, box in enumerate(boxes):
            lines.append(json.dumps({"frame": stem, "box": list(box)}))
            x0, y0, x1, y1 = expand_box(box, EXPAND_RATIO, wl.width, wl.height)
            crop_gt = gt[y0:y1, x0:x1]
            # hole centre on the cheek, well inside the skin
            sy, sx = np.nonzero(crop_gt == SKIN)
            cy_s, cx_s = sy.mean(), sx.mean()
            span = 0.25 * (sx.max() - sx.min())
            hole = (
                cy_s + rng.uniform(0.0, 0.3) * span,
                cx_s + rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.1) * span,
                0.45 * span,
            )
            for m, d in members.items():
                write_fplt(member_logits(crop_gt, m, rng, hole, not wl.refine), d / f"{stem}__{k}.fplt")
    (root / "boxes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "root": root,
        "images": root / "images",
        "gt": root / "gt",
        "boxes": root / "boxes.jsonl",
        "members": [members[m] for m in wl.members],
        "workload": wl,
    }


def pipeline_args(clip: dict, out_dir) -> list[str]:
    """The ``eaparse`` argument list that runs the pipeline on ``clip``."""
    wl = clip["workload"]
    args = ["--jobs", str(wl.jobs), "pipeline", "--images", str(clip["images"])]
    args += ["--boxes", str(clip["boxes"]), "--gt-dir", str(clip["gt"])]
    for d in clip["members"]:
        args += ["--logits-dir", str(d)]
    if wl.refine:
        args += ["--refine-classes", ",".join(str(c) for c in wl.refine)]
    return args + ["--out-dir", str(out_dir)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, metavar="DIR")
    args = ap.parse_args()
    clip = make_clip(args.workload, args.seed, args.out)
    print("python3 -m eaparse " + " ".join(pipeline_args(clip, Path(args.out) / "out")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
