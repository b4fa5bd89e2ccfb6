"""Round-tripping the three on-disk formats: PGM labels, PPM images, FPLT logits."""

import tempfile
from pathlib import Path

import numpy as np

import eaparse as ea

# scratch files live in a temporary directory that is removed on exit
with tempfile.TemporaryDirectory(prefix="eaparse_demo_") as tmp:
    work = Path(tmp)

    # a 2x3 label map: write it, look at the raw bytes, read it back
    labels = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8)
    ea.write_label_map(labels, work / "labels.pgm")
    raw = (work / "labels.pgm").read_bytes()
    print("PGM bytes:", raw)
    print("read back:\n", ea.read_label_map(work / "labels.pgm"))

    # same deal for an RGB image; pixels are interleaved r,g,b row by row
    image = np.zeros((1, 2, 3), dtype=np.uint8)
    image[0, 0] = (255, 0, 0)
    image[0, 1] = (0, 0, 255)
    ea.write_rgb_image(image, work / "tiny.ppm")
    print("\nPPM bytes:", (work / "tiny.ppm").read_bytes())

    # logits travel in a little-endian binary container:
    # magic "FPLT", version, C, H, W as uint32, then float32 values channel-major
    logits = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
    ea.write_logits(logits, work / "x.fplt")
    raw = (work / "x.fplt").read_bytes()
    print("\nFPLT header:", raw[:20].hex(" "))
    back = ea.read_logits(work / "x.fplt")
    print("round trip exact:", bool((back == logits).all()))

    # re-writing what was read reproduces the file byte for byte
    ea.write_logits(back, work / "y.fplt")
    print("re-write byte-identical:", (work / "x.fplt").read_bytes() == (work / "y.fplt").read_bytes())

    # malformed files are rejected with a specific error, never half-read
    (work / "bad.fplt").write_bytes(b"XPLT" + bytes(20))
    try:
        ea.read_logits(work / "bad.fplt")
    except ea.BadMagic as exc:
        print("bad magic rejected:", exc)
