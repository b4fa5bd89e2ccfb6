"""Per-layer timing of ``eaparse pipeline``, recorded from outside the program.

A layer is an ``eaparse`` module. The tracer wraps the module's public
functions (plus the cli's per-frame and per-command functions) in every
``eaparse`` namespace that bound them, because ``cli``, ``grabcut`` and
``metrics`` import names with ``from ... import``. Each wrapped call is a
span: layer, function, thread, start, end, and the time its wrapped children
took on the same thread. A span's self time is its duration minus that child
time; a layer's self time is the sum over its spans on every thread.

Two pseudo-layers keep the accounting whole: ``wait`` is the main thread
blocked in the worker pool's ``map``, and ``check`` is the time the
layer-boundary checks below took inside a traced call. Then the self times of
all layers, minus the worker threads' root spans, equal the ``cli.main`` wall
time to the nanosecond; ``Tracer.problems`` reports it when they do not.

Layer-boundary checks, run on every traced call:

* ``max_flow``: the cut value of the returned source side equals the returned
  flow within a relative 1e-9 (max-flow/min-cut);
* ``grabcut_refine``: the result contains the eroded init (the whole init
  when erosion empties it) and lies inside the dilated init, with the
  erosion and dilation computed here by ``scipy.ndimage``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import ndimage

# functions timed per layer; validators (ensure_*) and trivial helpers stay
# inside their caller's self time
LAYERS = {
    "cli": ("main", "_cmd_pipeline", "_pipeline_frame"),
    "tensorio": (
        "read_label_map", "read_rgb_image", "read_logits",
        "write_label_map", "write_rgb_image", "write_logits",
    ),
    "ensemble": ("ensemble_probabilities", "ensemble_argmax", "softmax_map", "resize_bilinear"),
    "roi": ("expand_box", "crop", "paste"),
    "boundary": ("extract_boundary", "dilate_mask", "erode_mask", "edge_attention_mask"),
    "metrics": ("evaluate_frames", "region_jaccard", "boundary_f"),
    "grabcut": ("grabcut_refine", "refine_class", "build_trimap", "fit_gmm", "max_flow"),
}

# metric name -> unit, in report order; times are busy time summed over threads
METRICS = {
    "cli.self_s": "s",
    "cli.busy_ratio": "ratio",
    "tensorio.read_s": "s",
    "tensorio.write_s": "s",
    "tensorio.read_mb": "MB",
    "tensorio.write_mb": "MB",
    "ensemble.s": "s",
    "ensemble.mvalues": "Mvalues",
    "roi.s": "s",
    "roi.pastes": "count",
    "boundary.s": "s",
    "boundary.mshifts": "Mshifts",
    "metrics.self_s": "s",
    "metrics.class_frames": "count",
    "grabcut.refines": "count",
    "grabcut.trimap_s": "s",
    "grabcut.self_s": "s",
    "grabcut.gmm_s": "s",
    "grabcut.gmm_fits": "count",
    "grabcut.gmm_mpixels": "Mpixels",
    "grabcut.maxflow_s": "s",
    "grabcut.maxflow_calls": "count",
    "grabcut.maxflow_knodes": "knodes",
    "grabcut.maxflow_kedges": "kedges",
    "trace.overhead_ratio": "ratio",
}

FLOW_TOL = 1e-9


def _disk(radius: int) -> np.ndarray:
    yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    return yy * yy + xx * xx <= radius * radius


class Tracer:
    """Spans, counters and boundary-check findings of one traced call."""

    def __init__(self):
        self.spans: list[tuple[str, str, int, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.problems: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---

    def _call(self, layer: str, name: str, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        child_ns = [0]
        stack.append(child_ns)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            with self._lock:
                self.spans.append((layer, name, threading.get_ident(), t0, t1, child_ns[0]))

    def _count(self, **amounts: float) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counts[key] += value

    def _problem(self, text: str) -> None:
        with self._lock:
            self.problems.append(text)

    def _wrap(self, layer: str, name: str, fn):
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(layer, name, fn, *args, **kwargs)
            if after is not None:
                self._call("check", name, after, result, *args, **kwargs)
            return result

        return wrapper

    # --- counters and checks per wrapped function ---

    def _after_read(self, result, path, *_):
        self._count(read_mb=os.path.getsize(path) / 1e6)

    _after_read_label_map = _after_read_rgb_image = _after_read_logits = _after_read

    def _after_write(self, result, data, path, *_):
        self._count(write_mb=os.path.getsize(path) / 1e6)

    _after_write_label_map = _after_write_rgb_image = _after_write_logits = _after_write

    def _after_ensemble_probabilities(self, result, members, *_, **__):
        self._count(mvalues=sum(np.asarray(m).size for m in members) / 1e6)

    def _after_paste(self, result, *_, **__):
        self._count(pastes=1)

    def _after_dilate_mask(self, result, mask, radius, *_):
        self._count(mshifts=int(_disk(radius).sum()) * np.asarray(mask).size / 1e6)

    _after_erode_mask = _after_dilate_mask

    def _after_region_jaccard(self, result, *_, **__):
        self._count(class_frames=1)

    def _after_fit_gmm(self, result, pixels, *_, **__):
        self._count(gmm_fits=1, gmm_mpixels=np.asarray(pixels).reshape(-1, 3).shape[0] / 1e6)

    def _after_max_flow(self, result, graph):
        flow, side = result
        src = side.astype(bool)
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        cut = (
            float(graph.source_cap[~src].sum())
            + float(graph.sink_cap[src].sum())
            + float(graph.edge_cap[src[u] != src[v]].sum())
        )
        n = graph.source_cap.shape[0]
        self._count(maxflow_calls=1, maxflow_knodes=n / 1e3, maxflow_kedges=u.shape[0] / 1e3)
        if abs(cut - flow) > FLOW_TOL * max(abs(flow), 1.0):
            self._problem(f"max_flow: cut {cut!r} != flow {flow!r}")

    def _after_grabcut_refine(self, result, image, init, params=None):
        erode_r = 3 if params is None else params.erode_radius
        dilate_r = 10 if params is None else params.dilate_radius
        init = np.asarray(init).astype(bool)
        refined = np.asarray(result[0]).astype(bool)
        core = ndimage.binary_erosion(init, _disk(erode_r), border_value=0)
        if not core.any():
            core = init
        envelope = ndimage.binary_dilation(init, _disk(dilate_r))
        self._count(refines=1)
        if (core & ~refined).any():
            self._problem(f"grabcut_refine: {int((core & ~refined).sum())} eroded-init pixels dropped")
        if (refined & ~envelope).any():
            self._problem(f"grabcut_refine: {int((refined & ~envelope).sum())} pixels outside the dilated init")

    # --- installing and removing the wrappers ---

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "eaparse" or k.startswith("eaparse.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"eaparse.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):  # dispatch tables such as cli._HANDLERS
                            for key, entry in list(value.items()):
                                if entry is original:
                                    self._patched.append((value, key, original))
                                    value[key] = wrapper
        tracer = self

        class TimedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                results = tracer._call("wait", "map", lambda: list(super(TimedPool, self).map(fn, *iterables, **kwargs)))
                return iter(results)

        cli = sys.modules["eaparse.cli"]
        self._patched.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = TimedPool

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # --- summary ---

    def summary(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics of one traced ``cli.main`` call (no overhead ratio)."""
        main_tid = threading.get_ident()
        layer_self: dict[str, int] = defaultdict(int)
        func_self: dict[str, int] = defaultdict(int)
        func_total: dict[str, int] = defaultdict(int)
        main_wall = 0
        for layer, name, tid, t0, t1, child in self.spans:
            layer_self[layer] += t1 - t0 - child
            func_self[f"{layer}.{name}"] += t1 - t0 - child
            func_total[f"{layer}.{name}"] += t1 - t0
            if (layer, name) == ("cli", "main"):
                main_wall += t1 - t0
        # a worker thread's roots are its _pipeline_frame spans: nothing wraps them
        worker_roots = sum(
            t1 - t0 for layer, name, tid, t0, t1, _ in self.spans
            if tid != main_tid and name == "_pipeline_frame"
        )
        total_self = sum(layer_self.values())
        if total_self - worker_roots != main_wall:
            self._problem(
                f"self times {total_self} ns - worker roots {worker_roots} ns != cli.main wall {main_wall} ns"
            )
        s = lambda ns: ns / 1e9  # noqa: E731
        c = self.counts
        pipeline_ns = func_total["cli._cmd_pipeline"]
        return {
            "cli.self_s": s(layer_self["cli"]),
            "cli.busy_ratio": func_total["cli._pipeline_frame"] / (pipeline_ns * jobs) if pipeline_ns else 0.0,
            "tensorio.read_s": s(sum(v for k, v in func_total.items() if k.startswith("tensorio.read_"))),
            "tensorio.write_s": s(sum(v for k, v in func_total.items() if k.startswith("tensorio.write_"))),
            "tensorio.read_mb": c["read_mb"],
            "tensorio.write_mb": c["write_mb"],
            "ensemble.s": s(layer_self["ensemble"]),
            "ensemble.mvalues": c["mvalues"],
            "roi.s": s(layer_self["roi"]),
            "roi.pastes": c["pastes"],
            "boundary.s": s(layer_self["boundary"]),
            "boundary.mshifts": c["mshifts"],
            "metrics.self_s": s(layer_self["metrics"]),
            "metrics.class_frames": c["class_frames"],
            "grabcut.refines": c["refines"],
            "grabcut.trimap_s": s(func_total["grabcut.build_trimap"]),
            "grabcut.self_s": s(func_self["grabcut.grabcut_refine"] + func_self["grabcut.refine_class"]),
            "grabcut.gmm_s": s(func_total["grabcut.fit_gmm"]),
            "grabcut.gmm_fits": c["gmm_fits"],
            "grabcut.gmm_mpixels": c["gmm_mpixels"],
            "grabcut.maxflow_s": s(func_total["grabcut.max_flow"]),
            "grabcut.maxflow_calls": c["maxflow_calls"],
            "grabcut.maxflow_knodes": c["maxflow_knodes"],
            "grabcut.maxflow_kedges": c["maxflow_kedges"],
        }
