"""Output fingerprints of one source tree, for declaring bit changes.

    python tests/fingerprint.py --out new.json
    python tests/fingerprint.py --src OTHER_CHECKOUT/src --out old.json
    python tests/fingerprint.py --compare old.json new.json

The first two forms import ``eaparse`` from ``--src`` (by default the
``src`` beside this file) and write a JSON object of sha256 digests:

* ``pipeline/<workload>/seed<s>/jobs<j>``: the ``pipeline`` output
  directory (every file name and its bytes, in name order) of each benchmark
  workload at seeds 1-3, on the clip ``bench/gen.py`` writes for it, run at
  ``--jobs 1`` and at ``--jobs 2``;
* ``fit_gmm/<i>``: the weights, means and covariances of seeded random
  mixture fits;
* ``grabcut_refine/<i>``: the refined mask of a seeded random scene and
  the float64 bytes of its energy trace;
* ``resize_bilinear/<i>``: seeded random tensors resized up, down, up one
  way and down the other, to or from 1-pixel sides, or to their own size;
* ``ensemble_probabilities/<i>``: the fused probabilities of one to four
  seeded random members of mixed sizes;
* ``morphology/<i>``: the disk dilation and erosion of a seeded random mask,
  at a radius from 0 to beyond h + w;
* ``evaluate_frames/<i>``: the report JSON of seeded random multi-class
  frame lists, at tolerances from 0 to beyond h + w;
* ``max_flow/<i>``: the flow value (its float64 bytes) and the cut side of
  seeded random graphs of 0-150 nodes, with continuous capacities,
  quantised capacities with exact ties, or many zero capacities.

The random cases include quantised colours with exact ties, one-colour
frames and dilate radii from 0 to 8. ``--compare`` prints, per
group, how many entries differ between two such files, and names the
changed pipeline entries. This file is not collected by pytest.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, set before numpy loads
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
JOBS = (1, 2)  # frames in this process, and in two forked workers
N_RANDOM = 320  # cases per random group


def _digest_dir(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pipeline_prints(cli, gen) -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory(prefix="eaparse_fingerprint_") as tmp:
        for workload in sorted(gen.WORKLOADS):
            for seed in SEEDS:
                work = Path(tmp) / f"{workload}-{seed}"
                clip = gen.make_clip(workload, seed, work / "clip")
                for jobs in JOBS:
                    argv = gen.pipeline_args(clip, work / f"out{jobs}")
                    argv[argv.index("--jobs") + 1] = str(jobs)
                    code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"pipeline on {workload} seed {seed} at --jobs {jobs} exited {code}")
                    out[f"pipeline/{workload}/seed{seed}/jobs{jobs}"] = _digest_dir(work / f"out{jobs}")
    return out


def _random_pixels(rng: np.random.Generator, style: int, n: int) -> np.ndarray:
    if style == 0:
        return rng.uniform(0, 255, (n, 3))
    if style == 1:  # few distinct colours, many exact ties
        return (rng.integers(0, 4, (n, 3)) * 60).astype(np.float64)
    if style == 2:
        return rng.normal(128, 40, (n, 3))
    centres = rng.uniform(0, 255, (3, 3))  # tight clusters, covariances near the ridge
    return centres[rng.integers(0, 3, n)] + rng.normal(0, 0.05, (n, 3))


def gmm_prints(ea) -> dict[str, str]:
    rng = np.random.default_rng(20210619)
    out = {}
    for i in range(N_RANDOM):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(max(k, 5), 2000))
        gmm = ea.fit_gmm(_random_pixels(rng, i % 4, n), k, int(rng.integers(2**31)))
        out[f"fit_gmm/{i:03d}"] = _digest_arrays(gmm.weights, gmm.means, gmm.covariances)
    return out


def _random_scene(rng: np.random.Generator, style: int):
    h, w = (int(v) for v in rng.integers(12, 41, 2))
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = rng.uniform(0.3, 0.7) * h, rng.uniform(0.3, 0.7) * w
    ry, rx = rng.uniform(0.15, 0.35) * h, rng.uniform(0.15, 0.35) * w
    truth = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    fg, bg = rng.integers(0, 256, (2, 3))
    image = np.where(truth[..., None], fg, bg).astype(np.float64)
    if style == 0:
        image += rng.normal(0, rng.uniform(2, 40), image.shape)
    elif style == 1:
        image = (image // 64) * 64 + rng.integers(0, 2, image.shape) * 32
    else:
        image[:] = fg  # one colour: every cut of equal energy is a candidate
    init = truth.copy()
    init[rng.integers(0, h, 4), rng.integers(0, w, 4)] ^= True
    if init.all() or not init.any():
        init = truth
    return np.clip(image, 0, 255).astype(np.uint8), init.astype(np.uint8)


def grabcut_prints(ea) -> dict[str, str]:
    rng = np.random.default_rng(20210620)
    out = {}
    for i in range(N_RANDOM):
        image, init = _random_scene(rng, i % 3)
        params = ea.GrabcutParams(
            components_k=int(rng.integers(1, 6)),
            gamma=float(rng.choice([0.0, 1.0, 10.0, 50.0])),
            iterations=int(rng.integers(1, 6)),
            erode_radius=int(rng.integers(0, 4)),
            dilate_radius=int(rng.integers(0, 9)),
            rng_seed=int(rng.integers(2**31)),
        )
        mask, trace = ea.grabcut_refine(image, init, params)
        out[f"grabcut_refine/{i:03d}"] = _digest_arrays(mask, np.array(trace, dtype=np.float64))
    return out


def _random_side_pair(rng: np.random.Generator, style: int) -> tuple[int, int]:
    n = int(rng.integers(1, 40))
    if style == 0:
        return n, n
    if style == 1:
        return n, int(rng.integers(n, 3 * n + 2))
    if style == 2:
        return n, int(rng.integers(1, n + 1))
    return (1, n) if rng.random() < 0.5 else (n, 1)


def fusion_prints(ea) -> dict[str, str]:
    rng = np.random.default_rng(20210621)
    out = {}
    for i in range(N_RANDOM):
        (h, oh), (w, ow) = _random_side_pair(rng, i % 4), _random_side_pair(rng, (i // 4) % 4)
        c = int(rng.integers(1, 12))
        a = rng.normal(0, 4, (c, h, w)).astype(np.float32 if i % 2 else np.float64)
        out[f"resize_bilinear/{i:03d}"] = _digest_arrays(ea.resize_bilinear(a, oh, ow))
        members = [a.astype(np.float32)]
        for _ in range(int(rng.integers(0, 4))):
            size = (h, w) if rng.random() < 0.5 else tuple(int(v) for v in rng.integers(1, 40, 2))
            members.append(rng.normal(0, 3, (c,) + size).astype(np.float32))
        size = (oh, ow) if i % 3 else ()
        out[f"ensemble_probabilities/{i:03d}"] = _digest_arrays(ea.ensemble_probabilities(members, *size))
    return out


def morphology_prints(ea) -> dict[str, str]:
    rng = np.random.default_rng(20210622)
    out = {}
    for i in range(N_RANDOM):
        h, w = (int(v) for v in rng.integers(1, 48, 2))
        m = (rng.random((h, w)) < rng.uniform(0.02, 0.98)).astype(np.uint8)
        radius = int(rng.integers(0, 12)) if i % 2 else int(rng.integers(0, h + w + 4))
        out[f"morphology/{i:03d}"] = _digest_arrays(ea.dilate_mask(m, radius), ea.erode_mask(m, radius))
    return out


def _random_labels(rng: np.random.Generator, h: int, w: int, n: int) -> np.ndarray:
    if rng.random() < 0.3:
        return rng.integers(0, n, (h, w)).astype(np.uint8)
    blocks = rng.integers(0, n, (h // 5 + 1, w // 5 + 1))
    return np.kron(blocks, np.ones((5, 5), dtype=np.int64))[:h, :w].astype(np.uint8)


def eval_prints(ea) -> dict[str, str]:
    rng = np.random.default_rng(20210623)
    out = {}
    for i in range(N_RANDOM):
        h, w = (int(v) for v in rng.integers(1, 64, 2))
        n = int(rng.integers(1, 12))
        preds = [_random_labels(rng, h, w, n) for _ in range(int(rng.integers(1, 4)))]
        gts = [np.where(rng.random((h, w)) < 0.1, _random_labels(rng, h, w, n), p) for p in preds]
        class_ids = [int(c) for c in rng.choice(n + 2, size=int(rng.integers(1, n + 3)), replace=False)]
        tolerance = [None, 0, 1, 2, 3, h + w + 1][i % 6]
        try:
            text = json.dumps(ea.evaluate_frames(preds, gts, class_ids, tolerance).to_json_dict())
        except ea.NoClassEverPresent as exc:
            text = f"{type(exc).__name__}: {exc}"
        out[f"evaluate_frames/{i:03d}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _random_graph(ea, rng: np.random.Generator, style: int):
    n = int(rng.integers(0, 151))
    m = int(rng.integers(0, 3 * n + 1)) if n > 1 else 0
    tail = rng.integers(0, max(n, 1), m)
    head = (tail + rng.integers(1, max(n, 2), m)) % max(n, 1)  # never the tail itself
    if style == 0:
        caps = rng.uniform(0, 10, 2 * n + m)
    elif style == 1:  # few distinct values, many exact ties
        caps = rng.integers(0, 4, 2 * n + m) * 2.5
    else:
        caps = rng.exponential(3, 2 * n + m) * (rng.random(2 * n + m) < 0.4)
    return ea.GridGraph(caps[:n], caps[n : 2 * n], np.stack([tail, head], axis=1), caps[2 * n :])


def max_flow_prints(ea) -> dict[str, str]:
    rng = np.random.default_rng(20210624)
    out = {}
    for i in range(N_RANDOM):
        flow, side = ea.max_flow(_random_graph(ea, rng, i % 3))
        out[f"max_flow/{i:03d}"] = _digest_arrays(np.float64(flow), side)
    return out


def compare(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text(encoding="utf-8"))
    b = json.loads(b_path.read_text(encoding="utf-8"))
    if a.keys() != b.keys():
        print(f"the files hold different entries: {sorted(a.keys() ^ b.keys())[:5]} ...", file=sys.stderr)
        return 1
    groups: dict[str, list[str]] = {}
    for key in a:
        groups.setdefault(key.split("/")[0], []).append(key)
    for group, keys in groups.items():
        changed = [key for key in keys if a[key] != b[key]]
        print(f"{group}: {len(changed)} of {len(keys)} changed")
        if group == "pipeline":
            for key in changed:
                print(f"  {key}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the eaparse package")
    ap.add_argument("--out", type=Path, help="JSON file to write the fingerprints to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="count the entries that differ")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("give --out or --compare")

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import gen

    import eaparse as ea
    from eaparse import cli

    prints = {
        **pipeline_prints(cli, gen),
        **gmm_prints(ea),
        **grabcut_prints(ea),
        **fusion_prints(ea),
        **morphology_prints(ea),
        **eval_prints(ea),
        **max_flow_prints(ea),
    }
    args.out.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(prints)} fingerprints of {Path(ea.__file__).parent} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
