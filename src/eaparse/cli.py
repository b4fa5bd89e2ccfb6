"""The ``eaparse`` executable: every operation as a file-driven subcommand.

Global flags (given before the subcommand): ``--config c.json`` merges a
JSON document over the built-in defaults, ``--seed S`` overrides the config
seed, ``--jobs N`` runs the frames of ``pipeline`` and ``eval`` in up to N
worker processes, and ``--print-config`` prints the effective configuration
as JSON and exits. Both commands build one task per frame, run them through
``_run_frames``, build the report from the frames' records and write every
file at the end. This process is one of the workers; the others are
children started by ``os.fork``, so there is at most one process per frame.
Each child sends one record per frame as soon as it has it. One walk over
the frames in order runs this process's frames and reads each child's
records as it reaches them, so the output bytes are the same for any N, and
so is the error of a failing run: the earliest failing frame's, met within
about one frame of the walk reaching it. However a run fails (a frame, a
worker that dies, a fork), it kills every child it has not yet reaped, and
it reaps every child on every path. A record holds the frame's J and F per
class and the classes its ground truth holds, and in ``pipeline`` the
frame's PGM bytes, which stay in this process until every file is written.
Where ``os.fork`` does not exist, frames run one by one in this process.

A subcommand flag that shadows a config key has the key's dotted path as
its dest (``--gamma``: ``grabcut.gamma``); the flags given are merged over
the config as the config is merged over the defaults, so handlers read every
setting from ``cfg``.

Exit codes, returned by ``main`` alone: 0 on success, 2 on malformed input
of any kind (a ``ToolkitError``: bad files, bad flags, unknown config keys),
1 on an internal error or a failure of the machine (an ``OSError`` such as
a fork that fails). No subcommand writes a partial output: results are
computed fully before the first byte goes to disk.

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
import io
import json
import os
import pickle
import signal
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from .augment import SwapTable, cut_half, hflip_with_swap, rotate_quarter
from .boundary import DEFAULT_EDGE_RADIUS, edge_attention_mask, extract_boundary
from .ensemble import _first_max, ensemble_argmax, ensemble_probabilities
from .errors import IoFailure, ShapeMismatch, ToolkitError
from .grabcut import GrabcutParams, _refine_class, refine_class
from .metrics import _frame_scores, _report
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
    _check_number,
    _is_number,
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
# pipeline runs its frames in forked processes and has no thread pool
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


_KINDS = {  # kind: (test, what a value of that kind must be); the library's rule for scalars
    "int": (lambda v: _is_number(v, integer=True), "an integer"),
    "float": (_is_number, "a finite number"),
    # a class id: a uint8 label, each counted once
    "list": (
        lambda v: type(v) is list and all(type(x) is int and 0 <= x <= 255 for x in v) and len(set(v)) == len(v),
        "a list of distinct integers in 0..255",
    ),
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
    """One {"frame": name, "box": [x0,y0,x1,y1]} object per line; a name is a JSON string."""
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
            or not isinstance(entry.get("frame"), str)
            or "box" not in entry
            or not isinstance(entry["box"], list)
            or len(entry["box"]) != 4
        ):
            raise ToolkitError(f'{path}:{ln}: expected {{"frame": name, "box": [x0,y0,x1,y1]}}')
        try:
            box = Box(*entry["box"])
        except ToolkitError as exc:
            raise ToolkitError(f"{path}:{ln}: {exc}") from exc
        boxes[entry["frame"]].append(box)
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


def _cmd_edges(cfg, args):
    labels = read_label_map(args.labels)
    mask = edge_attention_mask(labels, cfg["edge_radius"])
    write_label_map(mask, args.out)


def _cmd_loss(cfg, args):
    weights = LossWeights(**cfg["loss_weights"])  # checked before any file is read
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

    total = total_loss(seg, edge, bnd, weights)
    if want_grad:
        write_logits(total.gradient.astype(np.float32), args.grad_out)
    print(json.dumps({"loss": total.loss, "pixels": total.contributing_pixels}))


def _cmd_augment(cfg, args):
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


def _cmd_grabcut(cfg, args):
    params = _grabcut_params(cfg, cfg["rng_seed"])
    image = read_rgb_image(args.image)
    labels = read_label_map(args.labels)
    want_trace = args.energy_trace is not None
    out, trace = _refine_class(labels, image, args.class_id, params, want_trace)
    outputs = [(args.out, _label_map_bytes(out))]
    if want_trace:
        outputs.append((args.energy_trace, (json.dumps(trace) + "\n").encode("utf-8")))
    _write_files(outputs)


def _cmd_ensemble(cfg, args):
    members = [read_logits(p) for p in args.inputs]
    size = cfg["ensemble_size"]
    height = args.height if args.height is not None else (size[0] if size else None)
    width = args.width if args.width is not None else (size[1] if size else None)
    pred = ensemble_argmax(members, height, width)
    write_label_map(pred, args.out)


def _list_frames(directory, suffix: str) -> list[str]:
    try:
        names = sorted(p.name for p in Path(directory).iterdir() if p.suffix == suffix)
    except OSError as exc:
        raise ToolkitError(f"cannot list {directory}: {exc}") from exc
    if not names:
        raise ToolkitError(f"{directory}: no {suffix} files found")
    return names


def _report_json(cfg, records) -> bytes:
    """The J/F report of the frames' ``_frame_scores`` records, in frame order, as
    sorted-key JSON bytes, on the config's ``classes``, else every non-zero
    ground-truth class."""
    report = _report(records, cfg["classes"])
    return (json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _read_ground_truth(path, shape: tuple) -> np.ndarray:
    """The label map at ``path``, which must have the prediction's ``shape``."""
    gt = read_label_map(path)
    if gt.shape != shape:
        raise ShapeMismatch(f"{path}: prediction shape {shape} != ground truth shape {gt.shape}")
    return gt


def _eval_frame(task):
    """One frame of ``eval``: the ``_frame_scores`` record of its prediction
    against its ground truth."""
    cfg, pred_path, gt_path = task
    pred = read_label_map(pred_path)
    gt = _read_ground_truth(gt_path, pred.shape)
    return _frame_scores(pred, gt, cfg["classes"], cfg["metric_tolerance"])


def _cmd_eval(cfg, args):
    # before any frame: the config holds an integer or None, and None stands for 0 here
    _check_number("tolerance", cfg["metric_tolerance"] or 0, 0, integer=True)
    tasks = [(cfg, Path(args.pred_dir) / n, Path(args.gt_dir) / n) for n in _list_frames(args.pred_dir, ".pgm")]
    _write_files([(args.out, _report_json(cfg, _run_frames(_eval_frame, tasks, args.jobs)))])


def _cmd_roi(cfg, args):
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
    """One frame of ``pipeline``: its label map's PGM bytes, and the
    ``_frame_scores`` record of that map against its ground truth. Nothing
    else of the frame outlives the call."""
    cfg, args, idx, stem, boxes = task
    try:
        image = read_rgb_image(Path(args.images) / f"{stem}.ppm")
        h, w = image.shape[:2]
        gt = _read_ground_truth(Path(args.gt_dir) / f"{stem}.pgm", (h, w))  # the prediction is (h, w)

        canvas = np.zeros((h, w), dtype=np.uint8)
        confidence = np.zeros((h, w), dtype=np.float64)
        for k, box in enumerate(boxes):
            roi_box = expand_box(box, cfg["expand_ratio"], w, h)
            members = []
            for d in args.logits_dir:
                path = Path(d) / f"{stem}__{k}.fplt"
                # os.path.exists is False where a member directory cannot be searched, so the
                # read below names the file; Path.exists raises PermissionError there
                if len(boxes) == 1 and not os.path.exists(path) and os.path.exists(Path(d) / f"{stem}.fplt"):
                    path = Path(d) / f"{stem}.fplt"
                members.append(read_logits(path))
            probs = ensemble_probabilities(members, roi_box.height, roi_box.width)
            index, patch_conf = _first_max(probs)
            patch = index.astype(np.uint8)
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
        scores = _frame_scores(canvas, gt, cfg["classes"], cfg["metric_tolerance"])
        return _label_map_bytes(canvas), scores
    except ToolkitError as exc:
        raise type(exc)(f"frame {stem}: {exc}") from exc


def _fork_worker(frame, tasks) -> tuple[int, io.BufferedReader]:
    """Fork a worker that runs ``frame`` on ``tasks`` in order and pickles one
    record per frame into a pipe as soon as it has it: the frame's result, or its
    ``ToolkitError``, after which the worker stops. Returns its pid and a
    buffered reader of the pipe's read end. The worker leaves through
    ``os._exit``: 0 once its last record is written, 1 with a traceback on
    any other failure."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:  # no child, so neither end of its pipe is needed
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    for task in tasks:
                        pickle.dump(frame(task), pipe, pickle.HIGHEST_PROTOCOL)
                        pipe.flush()
                except ToolkitError as exc:  # the last record: closing the pipe sends it
                    pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)  # never return into the parent's code
    os.close(write_end)
    return pid, open(read_end, "rb")


def _run_frames(frame, tasks, jobs) -> list:
    """``frame(task)`` of every task, in task order, from ``jobs`` workers.

    ``pipeline`` and ``eval`` both run their frames here, under one rule:
    ``jobs`` is the ``--jobs`` value, or the CPU count when it is None, and
    there is at most one worker per frame. Frame i runs in worker i % jobs.
    A result is the record its frame function returns, which holds only what
    the run keeps of the frame. This process is worker 0; the others are
    forked children, each sending one record per frame as it makes it,
    up to its first failure. One walk takes the frames in order: it runs
    frame i itself when i % jobs is 0, and otherwise loads the next record
    of child i % jobs from a buffered reader of its pipe, waiting for it if
    the child has not sent it yet. The walk raises the first failure it
    meets: the earliest frame's, the error that ``jobs`` = 1 raises. A child
    is reaped when its share ends: at its last record, at its failure, or
    where its pipe ends without a whole record, which is an internal error
    (the child died). However the run fails, every child not yet reaped is
    killed, and every child is reaped. Without ``os.fork``, this process is
    the one worker and runs every frame in turn.
    """
    jobs = min(jobs or os.cpu_count() or 1, len(tasks)) if hasattr(os, "fork") else 1
    children = {}  # worker -> (pid, buffered reader of its pipe), until reaped
    try:
        for worker in range(1, jobs):
            children[worker] = _fork_worker(frame, tasks[worker::jobs])
        results = []
        for i, task in enumerate(tasks):
            if i % jobs == 0:
                results.append(frame(task))
                continue
            pid, pipe = children[i % jobs]
            try:
                record = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the pipe ended early: the child died
                record = None
            if record is None or isinstance(record, ToolkitError) or i + jobs >= len(tasks):
                del children[i % jobs]
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if record is None:
                    raise RuntimeError(f"frame worker {pid} exited with status {code} and no result")
            if isinstance(record, ToolkitError):
                raise record
            results.append(record)
        return results
    finally:  # a child still here is of no use: the run failed
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _cmd_pipeline(cfg, args):
    _grabcut_params(cfg, cfg["rng_seed"])  # checks the settings even if no frame refines
    _check_number("tolerance", cfg["metric_tolerance"] or 0, 0, integer=True)  # as in eval
    stems = [Path(n).stem for n in _list_frames(args.images, ".ppm")]
    all_boxes = _read_boxes_jsonl(args.boxes)
    for stem in stems:
        if stem not in all_boxes:
            raise ToolkitError(f"{args.boxes}: no box for frame {stem!r}")

    tasks = [(cfg, args, idx, stem, all_boxes[stem]) for idx, stem in enumerate(stems)]
    pgms, records = zip(*_run_frames(_pipeline_frame, tasks, args.jobs))
    payload = _report_json(cfg, records)

    # all computation succeeded; only now touch the disk
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {out_dir}: {exc.strerror}") from exc
    outputs = [(out_dir / f"{stem}.pgm", pgm) for stem, pgm in zip(stems, pgms)]
    _write_files(outputs + [(out_dir / "report.json", payload)])


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
        help="worker processes for the frames of pipeline and eval, >= 1: this one and forked "
        "children, at most one per frame; output bytes are the same for any value (default: CPU count)",
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
        elif args.command is None:
            parser.error("a subcommand is required (or --print-config)")
        else:
            _HANDLERS[args.command](cfg, args)
    except (ToolkitError, OSError) as exc:  # bad input, or a failure of the machine (a fork)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ToolkitError) else 1
    except Exception:  # pragma: no cover - internal failure path
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
