"""The ``eaparse`` executable: every operation as a file-driven subcommand.

Global flags (given before the subcommand): ``--config c.json`` merges a
JSON document over the built-in defaults, ``--seed S`` overrides the config
seed, ``--jobs N`` runs pipeline frames in up to N worker processes, and
``--print-config`` prints the effective configuration as JSON and exits.
Workers start by fork, at most one per frame, and the output bytes are the
same for any N; where fork is unavailable, frames run one by one in this
process. A subcommand flag that shadows a config key has the key's dotted
path as its dest (``--gamma``: ``grabcut.gamma``); the flags given are merged
over the config as the config is merged over the defaults, so handlers read
every setting from ``cfg``.

Exit codes: 0 on success, 2 on malformed input of any kind (bad files, bad
flags, unknown config keys), 1 on an internal error. No subcommand writes a
partial output: results are computed fully before the first byte goes to
disk.

Allocator policy: where the C library is glibc, ``main`` first raises glibc's
mmap threshold to 32 MiB and its trim threshold to 64 MiB with ``mallopt``;
forked workers inherit both. Each pipeline box allocates and frees a few MB
of float64 temporaries. Under glibc's defaults that memory goes back to the
kernel after every box and the next box faults it in again: ~45k minor page
faults per ``pipeline`` process on the benchmark's 32-frame ``fuse-eval``
clip, ~6k with the higher thresholds, at the same peak RSS within 1 MB.
Elsewhere, or if ``mallopt`` cannot be reached, nothing changes. Importing
``eaparse`` as a library never touches the allocator.

Exit policy: ``main`` also registers ``gc.freeze`` with ``atexit``, once per
process however often it runs. At exit it moves every object still alive into
the permanent generation, so the interpreter's final collections skip the
~22k objects numpy and eaparse keep alive. From ``main``'s return to process
exit took ~40 ms for ``--print-config`` and ~47-56 ms for a benchmark
``pipeline`` before, 8-15 ms with the freeze. Importing ``eaparse`` never
registers it, and forked workers leave through ``os._exit``, which runs no
atexit handler.
"""

from __future__ import annotations

import argparse
import atexit
import copy
import ctypes
import dataclasses
import gc
import json
import os
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from .augment import SwapTable, cut_half, hflip_with_swap, rotate_quarter
from .boundary import DEFAULT_EDGE_RADIUS, edge_attention_mask, extract_boundary
from .ensemble import ensemble_argmax, ensemble_probabilities
from .errors import IoFailure, ToolkitError
from .grabcut import GrabcutParams, _refine_class_with_trace, refine_class
from .metrics import evaluate_frames
from .roi import DEFAULT_EXPAND_RATIO, Box, crop, expand_box, paste
from .segloss import (
    LossResult,
    LossWeights,
    boundary_bce,
    edge_attention_loss,
    softmax_cross_entropy,
    total_loss,
)
from .tensorio import (
    _label_map_bytes,
    _read_text,
    _rgb_image_bytes,
    _write_files,
    read_label_map,
    read_logits,
    read_rgb_image,
    write_label_map,
    write_logits,
    write_rgb_image,
)

# bench/spans.py rebinds this name to time the wait on a thread pool; the
# pipeline runs its frames in worker processes and has no thread pool
ThreadPoolExecutor = None

DEFAULT_CONFIG = {
    "swap_pairs": [],
    "edge_radius": DEFAULT_EDGE_RADIUS,
    "loss_weights": dataclasses.asdict(LossWeights()),
    # the seed is global (config rng_seed), not a grabcut setting
    "grabcut": {
        **{f.name: f.default for f in dataclasses.fields(GrabcutParams) if f.name != "rng_seed"},
        "classes": [],
    },
    "ensemble_size": None,
    "metric_tolerance": None,
    "expand_ratio": DEFAULT_EXPAND_RATIO,
    "classes": None,
    "rng_seed": 0,
}


_KINDS = {  # kind: (test, what a value of that kind must be)
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"),
    "list": (lambda v: type(v) is list and all(type(x) is int for x in v), "a list of integers"),
    "size": (lambda v: type(v) is list and list(map(type, v)) == [int, int], "[height, width]"),
}
# A leaf has the kind of its default. The null defaults name theirs here (null
# stays valid), and swap_pairs is left to SwapTable, which checks each pair.
_LEAF_KINDS = {
    "config.swap_pairs": None,
    "config.ensemble_size": "size",
    "config.metric_tolerance": "int",
    "config.classes": "list",
}


def _merge_config(base: dict, override: dict, scope: str = "config") -> dict:
    """Recursive merge that rejects keys the schema does not define and values
    of another kind than their key's."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ToolkitError(f"unknown config key: {scope}.{key}")
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(value, dict):
                raise ToolkitError(f"{scope}.{key} must be an object")
            out[key] = _merge_config(base[key], value, f"{scope}.{key}")
        else:
            kind = _LEAF_KINDS.get(f"{scope}.{key}", type(base[key]).__name__)
            nullable = base[key] is None
            if kind and not ((value is None and nullable) or _KINDS[kind][0](value)):
                what = _KINDS[kind][1] + (" or null" if nullable else "")
                raise ToolkitError(f"{scope}.{key} must be {what}, got {json.dumps(value)}")
            out[key] = value
    return out


def _load_json(text: str, where):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ToolkitError(f"{where}: not valid JSON: {exc}") from exc


def _effective_config(args) -> dict:
    """Defaults, then ``--config``, then every flag given whose dest is a config path,
    folded into one document so each value is checked against its default's kind."""
    user: dict = {}
    if args.config is not None:
        user = _load_json(_read_text(args.config), args.config)
        if not isinstance(user, dict):
            raise ToolkitError(f"{args.config}: config must be a JSON object")
        _merge_config(DEFAULT_CONFIG, user)  # the file must be valid even where a flag wins
    for dest, value in vars(args).items():
        path = dest.split(".")
        if value is not None and path[0] in DEFAULT_CONFIG:
            node = user
            for name in path[:-1]:
                node = node.setdefault(name, {})
            node[path[-1]] = value
    return _merge_config(DEFAULT_CONFIG, user)


def _parse_box(text: str) -> Box:
    try:  # a wrong field count fails the unpacking with ValueError too
        x0, y0, x1, y1 = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise ToolkitError(f"box must be x0,y0,x1,y1 with integers, got {text!r}") from exc
    return Box(x0, y0, x1, y1)


def _parse_classes(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        msg = f"class list must be comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _read_boxes_jsonl(path) -> dict[str, list[Box]]:
    """One {"frame": name, "box": [x0,y0,x1,y1]} object per line."""
    boxes: dict[str, list[Box]] = defaultdict(list)
    # lines end at "\n" alone once _read_text has translated "\r\n" and "\r", as in
    # text mode; str.splitlines would also split inside a name holding "\u2028"
    for ln, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        entry = _load_json(line, f"{path}:{ln}")
        if (
            not isinstance(entry, dict)
            or "frame" not in entry
            or "box" not in entry
            or not isinstance(entry["box"], list)
            or len(entry["box"]) != 4
        ):
            raise ToolkitError(f'{path}:{ln}: expected {{"frame": name, "box": [x0,y0,x1,y1]}}')
        try:
            box = Box(*entry["box"])
        except ToolkitError as exc:
            raise ToolkitError(f"{path}:{ln}: {exc}") from exc
        boxes[str(entry["frame"])].append(box)
    return dict(boxes)


def _swap_table(cfg: dict, swaps_path) -> SwapTable:
    pairs = cfg["swap_pairs"]
    if swaps_path is not None:
        doc = _load_json(_read_text(swaps_path), swaps_path)
        if isinstance(doc, dict):
            if "swap_pairs" not in doc:
                raise ToolkitError(f"{swaps_path}: expected a swap_pairs entry")
            pairs = doc["swap_pairs"]
        elif isinstance(doc, list):
            pairs = doc
        else:
            raise ToolkitError(f"{swaps_path}: expected a list or an object")
    return SwapTable(pairs)


def _grabcut_params(cfg: dict, rng_seed: int) -> GrabcutParams:
    settings = {key: value for key, value in cfg["grabcut"].items() if key != "classes"}
    return GrabcutParams(**settings, rng_seed=rng_seed)


# --- subcommand handlers ---


def _cmd_edges(cfg, args) -> int:
    labels = read_label_map(args.labels)
    mask = edge_attention_mask(labels, cfg["edge_radius"])
    write_label_map(mask, args.out)
    return 0


def _cmd_loss(cfg, args) -> int:
    want_grad = args.grad_out is not None
    logits = read_logits(args.logits)
    labels = read_label_map(args.labels)
    mask = read_label_map(args.mask) if args.mask is not None else None
    seg = softmax_cross_entropy(logits, labels, mask, want_gradient=want_grad)

    zero_grad = np.zeros(logits.shape, dtype=np.float64) if want_grad else None
    edge = LossResult(0.0, 0, zero_grad)
    if args.edge_mask_radius is not None:
        em = edge_attention_mask(labels, args.edge_mask_radius)
        edge = edge_attention_loss(logits, labels, em, want_gradient=want_grad)

    bnd = LossResult(0.0, 0, np.zeros(labels.shape) if want_grad else None)
    if args.edge_logits is not None:
        el = read_logits(args.edge_logits)
        bnd = boundary_bce(el, extract_boundary(labels), want_gradient=want_grad)

    total = total_loss(seg, edge, bnd, LossWeights(**cfg["loss_weights"]))
    if want_grad:
        write_logits(total.gradient.astype(np.float32), args.grad_out)
    print(json.dumps({"loss": total.loss, "pixels": total.contributing_pixels}))
    return 0


def _cmd_augment(cfg, args) -> int:
    image = read_rgb_image(args.image)
    labels = read_label_map(args.labels)

    if args.op == "hflip":
        swaps = _swap_table(cfg, args.swaps_config)
        out_image, out_labels = hflip_with_swap(image, labels, swaps)
    elif args.op in ("rot90", "rot270"):
        out_image, out_labels = rotate_quarter(image, labels, 1 if args.op == "rot90" else 3)
    else:  # cuthalf
        if args.side is None:
            raise ToolkitError("--side is required for --op cuthalf")
        out_image, out_labels = cut_half(image, labels, args.side)

    _write_files([
        (f"{args.out_prefix}image.ppm", _rgb_image_bytes(out_image)),
        (f"{args.out_prefix}labels.pgm", _label_map_bytes(out_labels)),
    ])
    return 0


def _cmd_grabcut(cfg, args) -> int:
    params = _grabcut_params(cfg, cfg["rng_seed"])
    image = read_rgb_image(args.image)
    labels = read_label_map(args.labels)
    out, trace = _refine_class_with_trace(labels, image, args.class_id, params)
    outputs = [(args.out, _label_map_bytes(out))]
    if args.energy_trace is not None:
        outputs.append((args.energy_trace, (json.dumps(trace) + "\n").encode("utf-8")))
    _write_files(outputs)
    return 0


def _cmd_ensemble(cfg, args) -> int:
    members = [read_logits(p) for p in args.inputs]
    size = cfg["ensemble_size"]
    height = args.height if args.height is not None else (size[0] if size else None)
    width = args.width if args.width is not None else (size[1] if size else None)
    pred = ensemble_argmax(members, height, width)
    write_label_map(pred, args.out)
    return 0


def _list_frames(directory, suffix: str) -> list[str]:
    try:
        names = sorted(p.name for p in Path(directory).iterdir() if p.suffix == suffix)
    except OSError as exc:
        raise ToolkitError(f"cannot list {directory}: {exc}") from exc
    if not names:
        raise ToolkitError(f"{directory}: no {suffix} files found")
    return names


def _report_json(cfg, preds, gts) -> bytes:
    """The J/F report of ``preds`` against ``gts`` as sorted-key JSON bytes, scoring the
    config's ``classes``, else every non-zero ground-truth class."""
    class_ids = cfg["classes"]
    if class_ids is None:
        # ground truths are uint8; np.unique would import numpy.ma (~17 ms)
        present = np.zeros(256, dtype=bool)
        for g in gts:
            present |= np.bincount(g.reshape(-1), minlength=256) > 0
        class_ids = (np.flatnonzero(present[1:]) + 1).tolist()
    report = evaluate_frames(preds, gts, class_ids, cfg["metric_tolerance"])
    return (json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _cmd_eval(cfg, args) -> int:
    names = _list_frames(args.pred_dir, ".pgm")
    preds = [read_label_map(Path(args.pred_dir) / n) for n in names]
    gts = [read_label_map(Path(args.gt_dir) / n) for n in names]
    _write_files([(args.out, _report_json(cfg, preds, gts))])
    return 0


def _cmd_roi(cfg, args) -> int:
    if args.roi_op == "crop":
        is_image = args.image is not None
        raster = read_rgb_image(args.image) if is_image else read_label_map(args.labels)
        box = _resolve_box(args)
        if args.expand is not None:
            h, w = raster.shape[:2]
            box = expand_box(box, args.expand, w, h)
        out = crop(raster, box)
        (write_rgb_image if is_image else write_label_map)(out, args.out)
    else:  # paste
        canvas = read_label_map(args.canvas)
        patch = read_label_map(args.patch)
        box = _resolve_box(args)
        write_label_map(paste(canvas, patch, box), args.out)
    return 0


def _resolve_box(args) -> Box:
    if args.box is not None and args.boxes_jsonl is None and args.frame is None:
        return _parse_box(args.box)
    if args.box is not None or args.boxes_jsonl is None or args.frame is None:
        raise ToolkitError("give either --box or both --boxes-jsonl and --frame")
    table = _read_boxes_jsonl(args.boxes_jsonl)
    if args.frame not in table:
        raise ToolkitError(f"{args.boxes_jsonl}: no box for frame {args.frame!r}")
    return table[args.frame][0]


def _frame_seed(base_seed: int, frame_index: int) -> int:
    # stable per-frame seed: independent of worker count and schedule
    return int(np.random.SeedSequence([base_seed, frame_index]).generate_state(1, dtype=np.uint64)[0])


def _pipeline_frame(task):
    """One frame of ``pipeline``, at module level so that a worker process can run it."""
    cfg, args, idx, stem, boxes = task
    try:
        image = read_rgb_image(Path(args.images) / f"{stem}.ppm")
        gt = read_label_map(Path(args.gt_dir) / f"{stem}.pgm")
        h, w = image.shape[:2]

        canvas = np.zeros((h, w), dtype=np.uint8)
        confidence = np.zeros((h, w), dtype=np.float64)
        for k, box in enumerate(boxes):
            roi_box = expand_box(box, cfg["expand_ratio"], w, h)
            members = []
            for d in args.logits_dir:
                path = Path(d) / f"{stem}__{k}.fplt"
                if len(boxes) == 1 and not path.exists() and (Path(d) / f"{stem}.fplt").exists():
                    path = Path(d) / f"{stem}.fplt"
                members.append(read_logits(path))
            probs = ensemble_probabilities(members, roi_box.height, roi_box.width)
            patch = probs.argmax(axis=0).astype(np.uint8)
            patch_conf = probs.max(axis=0)
            canvas = paste(
                canvas,
                patch,
                roi_box,
                canvas_confidence=confidence,
                patch_confidence=patch_conf,
            )
            window = confidence[roi_box.y0 : roi_box.y1, roi_box.x0 : roi_box.x1]
            np.maximum(window, patch_conf, out=window)

        refine_ids = cfg["grabcut"]["classes"]
        # a frame seed loads numpy.random (~10 ms), so a pipeline that refines nothing derives none
        params = _grabcut_params(cfg, _frame_seed(cfg["rng_seed"], idx)) if refine_ids else None
        for class_id in refine_ids:
            if (canvas == class_id).any():
                canvas = refine_class(canvas, image, class_id, params)
        return canvas, gt
    except ToolkitError as exc:
        raise type(exc)(f"frame {stem}: {exc}") from exc


def _cmd_pipeline(cfg, args) -> int:
    _grabcut_params(cfg, cfg["rng_seed"])  # checks the settings even if no frame refines
    stems = [Path(n).stem for n in _list_frames(args.images, ".ppm")]
    all_boxes = _read_boxes_jsonl(args.boxes)
    for stem in stems:
        if stem not in all_boxes:
            raise ToolkitError(f"{args.boxes}: no box for frame {stem!r}")

    tasks = [(cfg, args, idx, stem, all_boxes[stem]) for idx, stem in enumerate(stems)]
    jobs = min(args.jobs or os.cpu_count() or 1, len(tasks))
    context = None
    if jobs > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        results = [_pipeline_frame(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # a fork-context pool starts all its workers at once, hence at most one per frame
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            results = list(pool.map(_pipeline_frame, tasks))

    preds = [r[0] for r in results]
    payload = _report_json(cfg, preds, [r[1] for r in results])

    # all computation succeeded; only now touch the disk
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {out_dir}: {exc.strerror}") from exc
    outputs = [(out_dir / f"{stem}.pgm", _label_map_bytes(pred)) for stem, pred in zip(stems, preds)]
    _write_files(outputs + [(out_dir / "report.json", payload)])
    return 0


# --- allocator policy ---

# glibc's ceiling for its own dynamic mmap threshold on 64-bit builds
# (DEFAULT_MMAP_THRESHOLD_MAX): per-box stacks up to this size come from the heap
_MMAP_THRESHOLD = 32 * 1024 * 1024
# twice the mmap threshold, the ratio glibc's dynamic rule keeps between them,
# so a freed per-box stack is not handed back to the kernel at once
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Set glibc's mmap and trim thresholds for this process; a no-op off glibc."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, no such name, no symbol
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# --- exit policy ---


def _freeze_heap_at_exit() -> None:
    """Have ``gc.freeze`` run at exit, once however often this is called, so the
    final collections skip every object still alive then."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


# --- parser ---


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaparse",
        description="Face-parsing post-processing toolkit: boundary masks, "
        "losses, augmentations, GrabCut refinement, ensembling, J/F scoring "
        "and the file-driven pipeline tying them together.",
    )
    parser.add_argument("--config", metavar="c.json", help="JSON config merged over defaults")
    parser.add_argument("--seed", type=int, dest="rng_seed", help="override the config rng seed")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        help="pipeline worker processes, >= 1, forked, at most one per frame; "
        "output bytes are the same for any value (default: CPU count)",
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective configuration as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("edges", help="write the near-boundary attention mask of a label map")
    p.add_argument("--labels", required=True, metavar="in.pgm")
    p.add_argument(
        "--radius", type=int, dest="edge_radius", help="band radius in pixels (default from config)"
    )
    p.add_argument("--out", required=True, metavar="mask.pgm")

    p = sub.add_parser("loss", help="evaluate the segmentation loss (and its gradient)")
    p.add_argument("--logits", required=True, metavar="x.fplt")
    p.add_argument("--labels", required=True, metavar="y.pgm")
    p.add_argument("--mask", metavar="m.pgm", help="restrict the base term to these pixels")
    p.add_argument(
        "--edge-mask-radius",
        type=int,
        metavar="R",
        help="add the edge-restricted term over a band of this radius",
    )
    p.add_argument(
        "--edge-weight", type=float, dest="loss_weights.lambda_edge", metavar="W",
        help="weight of the edge term",
    )
    p.add_argument(
        "--edge-logits", metavar="e.fplt", help="single-channel boundary-head logits"
    )
    p.add_argument(
        "--boundary-weight", type=float, dest="loss_weights.lambda_boundary", metavar="W",
        help="weight of the boundary term",
    )
    p.add_argument(
        "--grad-out",
        metavar="g.fplt",
        help="write the class-logit gradient of the total loss",
    )

    p = sub.add_parser("augment", help="apply a symmetry-aware augmentation to a frame")
    p.add_argument("--op", required=True, choices=["hflip", "rot90", "rot270", "cuthalf"])
    p.add_argument("--image", required=True, metavar="i.ppm")
    p.add_argument("--labels", required=True, metavar="l.pgm")
    p.add_argument(
        "--config",
        dest="swaps_config",
        metavar="swaps.json",
        help="swap pairs for mirroring ops (default from the global config)",
    )
    p.add_argument("--side", choices=["left", "right", "top", "bottom"])
    p.add_argument(
        "--out-prefix",
        required=True,
        metavar="p",
        help="writes <p>image.ppm and <p>labels.pgm",
    )

    p = sub.add_parser("grabcut", help="refine one class of a label map against its image")
    p.add_argument("--image", required=True, metavar="i.ppm")
    p.add_argument("--labels", required=True, metavar="l.pgm")
    p.add_argument("--class", dest="class_id", type=int, required=True, metavar="K")
    p.add_argument("--gamma", type=float, dest="grabcut.gamma", metavar="G")
    p.add_argument("--components", type=int, dest="grabcut.components_k", metavar="K")
    p.add_argument("--iters", type=int, dest="grabcut.iterations", metavar="N")
    p.add_argument("--erode", type=int, dest="grabcut.erode_radius", metavar="R")
    p.add_argument("--dilate", type=int, dest="grabcut.dilate_radius", metavar="R")
    p.add_argument("--seed", type=int, dest="rng_seed", default=argparse.SUPPRESS, metavar="S")
    p.add_argument("--out", required=True, metavar="refined.pgm")
    p.add_argument("--energy-trace", metavar="trace.json")

    p = sub.add_parser("ensemble", help="fuse several logit files into one prediction")
    p.add_argument("--inputs", required=True, nargs="+", metavar="x.fplt")
    p.add_argument("--height", type=int, metavar="H")
    p.add_argument("--width", type=int, metavar="W")
    p.add_argument("--out", required=True, metavar="pred.pgm")

    p = sub.add_parser("eval", help="score predictions against ground truth (J and F)")
    p.add_argument("--pred-dir", required=True, metavar="P")
    p.add_argument("--gt-dir", required=True, metavar="G")
    p.add_argument(
        "--classes", type=_parse_classes, metavar="1,2,...", help="default: all non-zero gt classes"
    )
    p.add_argument("--tolerance", type=int, dest="metric_tolerance", metavar="T")
    p.add_argument("--out", required=True, metavar="report.json")

    p = sub.add_parser("roi", help="box geometry: crop out or paste back")
    roi_sub = p.add_subparsers(dest="roi_op", required=True, metavar="crop|paste")
    pc = roi_sub.add_parser("crop")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--image", metavar="i.ppm")
    src.add_argument("--labels", metavar="l.pgm")
    pc.add_argument("--box", metavar="x0,y0,x1,y1")
    pc.add_argument("--boxes-jsonl", metavar="boxes.jsonl")
    pc.add_argument("--frame", metavar="NAME", help="frame key inside --boxes-jsonl")
    pc.add_argument("--expand", type=float, metavar="R", help="expand the box first")
    pc.add_argument("--out", required=True)
    pp = roi_sub.add_parser("paste")
    pp.add_argument("--canvas", required=True, metavar="c.pgm")
    pp.add_argument("--patch", required=True, metavar="p.pgm")
    pp.add_argument("--box", metavar="x0,y0,x1,y1")
    pp.add_argument("--boxes-jsonl", metavar="boxes.jsonl")
    pp.add_argument("--frame", metavar="NAME")
    pp.add_argument("--out", required=True, metavar="o.pgm")

    p = sub.add_parser("pipeline", help="run the whole flow over a directory of frames")
    p.add_argument("--images", required=True, metavar="DIR", help="input frames (.ppm)")
    p.add_argument("--boxes", required=True, metavar="boxes.jsonl")
    p.add_argument(
        "--logits-dir",
        required=True,
        action="append",
        metavar="DIR",
        help="one per ensemble member; files <frame>__<k>.fplt per box "
        "(<frame>.fplt accepted for single-box frames)",
    )
    p.add_argument("--gt-dir", required=True, metavar="DIR")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--expand", type=float, dest="expand_ratio", metavar="R")
    p.add_argument(
        "--refine-classes", type=_parse_classes, dest="grabcut.classes", metavar="1,2,...",
        help="classes to refine with grabcut",
    )
    p.add_argument("--classes", type=_parse_classes, metavar="1,2,...", help="classes to score")
    p.add_argument("--tolerance", type=int, dest="metric_tolerance", metavar="T")
    return parser


_HANDLERS = {
    "edges": _cmd_edges,
    "loss": _cmd_loss,
    "augment": _cmd_augment,
    "grabcut": _cmd_grabcut,
    "ensemble": _cmd_ensemble,
    "eval": _cmd_eval,
    "roi": _cmd_roi,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    _keep_freed_heap_mapped()
    _freeze_heap_at_exit()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        if args.command is None:
            parser.error("a subcommand is required (or --print-config)")
        return _HANDLERS[args.command](cfg, args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
