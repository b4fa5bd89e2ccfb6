"""Benchmark of ``eaparse pipeline`` on seeded synthetic clips.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` each operation is one
``python -m eaparse ... pipeline`` process on the workload's clip, run one at
a time, and the last stdout line reports the end-to-end metrics as medians
over the operations, with times scaled to a reference machine speed (see
``ref.py``). With ``--trace 1`` the pipeline runs in this process,
alternately untraced and under ``spans.Tracer``, and the last line reports
the per-layer metrics. Every output is checked by ``check.Reference``; an
operation whose output fails a check, or whose traced call fails a
layer-boundary check, counts as failed. See README.md in this directory.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so that --jobs alone sets the thread count
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REF = Path(__file__).resolve().parent / "ref.py"
WORK = ROOT / ".bench_work"

MIN_OPS = 5  # rounds per run, even past the deadline, unless past HARD_STOP_S
HARD_STOP_S = 100.0  # start no round after this; a run must end within 180 s
OP_TIMEOUT_S = 30.0  # a process still running after this is killed and fails
# median wall time of one ref.py process on the 2-vCPU machine of README.md;
# times are reported as if every run had seen that speed
REF_S = 0.25


def _median(values):
    return statistics.median(values) if values else 0.0


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Outputs:
    """Checks each distinct output once, by its bytes, and remembers the verdict."""

    def __init__(self, clip: dict):
        self.reference = check.Reference(clip)
        self.verdicts: dict[str, list[str]] = {}
        self.report: dict | None = None

    def ok(self, out_dir: Path) -> bool:
        if not out_dir.is_dir():
            print(f"check failed: {out_dir} was not written", file=sys.stderr)
            return False
        key = _digest(out_dir)
        if key not in self.verdicts:
            found = self.reference.problems(out_dir)
            self.verdicts[key] = found
            for line in found:
                print(f"check failed: {line}", file=sys.stderr)
            if not found and self.report is None:
                self.report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        return not self.verdicts[key]


def _spawn(argv: list[str], cwd: Path, log: Path):
    """Run ``python ARGV`` to its exit; returns (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _reference(workdir: Path, copies: int) -> float:
    """Wall time of ``copies`` concurrent ``ref.py`` processes, first start to last exit.

    As many copies as the workload has worker threads, so that a slow core
    shows in the reference as it shows in a multi-threaded operation.
    """
    env = dict(os.environ)
    t0 = time.perf_counter()
    procs = [
        subprocess.Popen([sys.executable, str(REF)], cwd=workdir, env=env, stdin=subprocess.DEVNULL)
        for _ in range(copies)
    ]
    try:
        codes = [p.wait(timeout=OP_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes):
        raise RuntimeError(f"bench/ref.py exited {codes}")
    return time.perf_counter() - t0


def _start(argv: list[str], workdir: Path) -> float:
    """Wall time of one process that must succeed: a set-up or reference start."""
    log = workdir / "start.log"
    code, wall, _ = _spawn(argv, workdir, log)
    if code != 0:
        raise RuntimeError(f"python {' '.join(argv)} exited {code}: {log.read_text()[-2000:]}")
    return wall


def measure(clip: dict, outputs: Outputs, seconds: float, workdir: Path) -> dict:
    """End-to-end run: rounds of a reference start, a set-up start and an operation.

    The machine's speed drifts by tens of percent over minutes, and with it
    every wall time. Each round times ``ref.py`` (one copy per worker thread),
    and both time metrics are scaled by REF_S / (median reference time).
    """
    out_dir = workdir / "out"
    argv = ["-m", "eaparse", *gen.pipeline_args(clip, out_dir)]
    refs, setups, walls, rss = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < start + HARD_STOP_S and (
        attempted < MIN_OPS or time.perf_counter() + _median(setups) + _median(walls) <= deadline
    ):
        refs.append(_reference(workdir, clip["workload"].jobs))
        setups.append(_start(["-m", "eaparse", "--print-config"], workdir))
        shutil.rmtree(out_dir, ignore_errors=True)
        code, wall, peak = _spawn(argv, workdir, workdir / "op.log")
        attempted += 1
        print(f"operation {attempted}: exit {code}, {wall:.3f} s, {peak:.1f} MB", file=sys.stderr)
        if code != 0 or not outputs.ok(out_dir):
            failed += 1
        else:
            walls.append(wall)
            rss.append(peak)
    report = outputs.report or {}
    scale = REF_S / _median(refs)
    print(
        f"unscaled: {clip['workload'].frames / _median(walls) if walls else 0.0:.6g} frames/s, "
        f"set-up {_median(setups):.6g} s, reference {_median(refs):.6g} s",
        file=sys.stderr,
    )
    metrics = {
        "frames_per_s": (clip["workload"].frames / (_median(walls) * scale) if walls else 0.0, "frames/s"),
        "setup_s": (_median(setups) * scale, "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "j_and_f": (float(report.get("J_and_F", 0.0)), "score"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(clip: dict, outputs: Outputs, seconds: float, workdir: Path) -> dict:
    """Per-layer run: rounds of one untraced and one traced in-process call."""
    sys.path.insert(0, str(SRC))
    import spans

    from eaparse import cli

    out_dir = workdir / "out"
    argv = gen.pipeline_args(clip, out_dir)
    plain, traced, summaries = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() + _median(plain) + _median(traced) <= deadline:
        for with_trace in (False, True):
            tracer = spans.Tracer()
            shutil.rmtree(out_dir, ignore_errors=True)
            if with_trace:
                tracer.install()
            try:
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            attempted += 1
            summary = tracer.summary(clip["workload"].jobs) if with_trace else None
            for line in tracer.problems:
                print(f"layer check failed: {line}", file=sys.stderr)
            if code != 0 or tracer.problems or not outputs.ok(out_dir):
                failed += 1
            elif with_trace:
                traced.append(wall)
                summaries.append(summary)
            else:
                plain.append(wall)
    metrics = {
        name: (_median([s[name] for s in summaries]), unit)
        for name, unit in spans.METRICS.items()
        if name != "trace.overhead_ratio"
    }
    ratio = _median(traced) / _median(plain) if plain and traced else 0.0
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of eaparse pipeline.")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "eaparse" / "__init__.py").is_file():
        print(f"error: no eaparse sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        clip = gen.make_clip(args.workload, args.seed, workdir / "clip")
        outputs = Outputs(clip)
        run = measure_traced if args.trace else measure
        result = run(clip, outputs, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] < result["attempted"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
