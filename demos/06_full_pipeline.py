"""The eaparse executable end to end: boxes, ensembling, refinement, scoring.

Builds a tiny 3-frame clip in a temporary directory, then drives the
``pipeline`` subcommand exactly as a shell user would, and shows that the
library's ``fuse_frame`` makes the same label map from arrays. The directory
is removed on exit.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import eaparse as ea

# each frame: a red disk on blue, ground truth = the disk, one detector box
yy, xx = np.mgrid[0:32, 0:32]
disk = (((yy - 16) ** 2 + (xx - 16) ** 2) <= 81).astype(np.uint8)
box = ea.Box(4, 4, 28, 28)
roi = ea.expand_box(box, 0.2, 32, 32)  # the pipeline pads boxes the same way


def logits_for(mask, strength):
    out = np.zeros((2,) + mask.shape, dtype=np.float32)
    out[1] = np.where(mask == 1, strength, -strength)
    out[0] = -out[1]
    return out


def write_clip(work):
    for sub in ("images", "gt", "clean", "degraded"):
        (work / sub).mkdir()
    lines = []
    for i in range(3):
        stem = f"{i:03d}"
        image = np.zeros((32, 32, 3), dtype=np.uint8)
        image[:] = (20, 30, 200)
        image[disk == 1] = (210, 40, 35)
        ea.write_rgb_image(image, work / "images" / f"{stem}.ppm")
        ea.write_label_map(disk, work / "gt" / f"{stem}.pgm")

        # two "models" emit logits for the padded box crop: one clean and sure,
        # one that lost a 6x6 patch and is less confident
        crop = disk[roi.y0 : roi.y1, roi.x0 : roi.x1]
        ea.write_logits(logits_for(crop, 4.0), work / "clean" / f"{stem}__0.fplt")
        holed = crop.copy()
        holed[12:18, 12:18] = 0
        ea.write_logits(logits_for(holed, 2.0), work / "degraded" / f"{stem}__0.fplt")
        lines.append(json.dumps({"frame": stem, "box": [4, 4, 28, 28]}))
    (work / "boxes.jsonl").write_text("\n".join(lines) + "\n")


def pipeline(work, out, members, refine):
    cmd = [sys.executable, "-m", "eaparse", "--jobs", "2", "pipeline"]
    cmd += ["--images", str(work / "images"), "--boxes", str(work / "boxes.jsonl")]
    for m in members:
        cmd += ["--logits-dir", str(work / m)]
    cmd += ["--gt-dir", str(work / "gt"), "--out-dir", str(work / out)]
    if refine:
        cmd += ["--refine-classes", "1"]
    subprocess.run(cmd, check=True)
    report = json.loads((work / out / "report.json").read_text())
    return report["J_and_F"]


with tempfile.TemporaryDirectory(prefix="eaparse_demo_") as tmp:
    work = Path(tmp)
    write_clip(work)
    print("degraded model alone:   J&F =", round(pipeline(work, "solo", ["degraded"], False), 4))
    print("+ clean ensemble member: J&F =", round(pipeline(work, "duo", ["clean", "degraded"], False), 4))
    # the same fusion from arrays in the library: frame 000's image, its box and both members
    fused = ea.fuse_frame(
        ea.read_rgb_image(work / "images" / "000.ppm"),
        [box],
        [[ea.read_logits(work / m / "000__0.fplt") for m in ("clean", "degraded")]],
    )
    same = bool((fused == ea.read_label_map(work / "duo" / "000.pgm")).all())
    print("  ea.fuse_frame on frame 000 equals duo/000.pgm:", same)
    print("+ grabcut refinement:    J&F =", round(pipeline(work, "full", ["clean", "degraded"], True), 4))
    print("\nfiles written by the last run:", " ".join(sorted(p.name for p in (work / "full").iterdir())))
