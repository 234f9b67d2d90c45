"""End-to-end and per-layer benchmark of sphereforge.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run repeats whole passes of the workload (see
``workloads.py``) for about ``--seconds``, at least two of them, checks
every operation against its known answer, and prints one JSON object as
the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics, measured without
tracing.  With ``--trace 1`` untraced and traced passes alternate, and it
reports per-layer metrics per traced pass (calls, inclusive time, work
counts, self time per module), the job times of the untraced passes, the
tracing overhead and the ``src/`` line count per module.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
MIN_PASSES = 2
REFERENCE_ITERATIONS = 20000

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE_MODULES = ("cli", "constructions", "carvefill", "complexes", "topology")


def import_package() -> SimpleNamespace:
    """Import sphereforge afresh from ``src/``, dropping any earlier import,
    so that every set-up repetition pays for the import."""
    for name in [n for n in sys.modules if n == "sphereforge" or n.startswith("sphereforge.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"sphereforge.{m}") for m in PACKAGE_MODULES}
    origin = Path(sys.modules["sphereforge"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"sphereforge was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, workdir: str) -> float:
    """Import the package afresh and build the workload's inputs; the
    workload keeps the inputs of the latest call.  Returns seconds."""
    start = time.perf_counter()
    workload.setup(import_package(), workdir)
    return time.perf_counter() - start


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work like the
    package's own: small tuples, frozensets and dict counting."""
    start = time.perf_counter()
    counts: dict[frozenset, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        face = frozenset((i % 97, i % 89, i % 83))
        counts[face] = counts.get(face, 0) + 1
    sorted(counts.values())
    return time.perf_counter() - start


def reference_time() -> float:
    return statistics.median(reference_loop() for _ in range(3))


class Run:
    """Counts and timings gathered over the passes of one run.

    With ``calibrate`` the reference loop runs before the first operation
    of a pass and after each one, and every job sample is also kept in
    units of the median reference time of its pass.  On a shared virtual
    machine the speed can drift by a third within a minute; the ratio
    cancels most of that drift between runs.
    """

    def __init__(self, workload, calibrate: bool = False) -> None:
        self.workload = workload
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.job_samples: dict[str, list[float]] = {job: [] for job in workload.jobs}
        self.job_refs: dict[str, list[float]] = {job: [] for job in workload.jobs}
        self.pass_walls = {False: [], True: []}
        self.traced_passes = 0
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.other_s = 0.0

    def run_pass(self, rng: random.Random, tracer: tracing.Tracer | None) -> float:
        """Run one pass; returns its wall time."""
        ops = self.workload.pass_ops(rng)
        times: dict[str, list[float]] = {}
        gc.collect()
        refs = [reference_time()] if self.calibrate else []
        start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            for op in ops:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception:
                    self.failed += 1
                    print(f"{op.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - t0
                problem = op.check(result)
                if problem:
                    self.failed += 1
                    print(f"{op.label}: {problem}", file=sys.stderr)
                if op.job:
                    times.setdefault(op.job, []).append(elapsed)
                if self.calibrate:
                    refs.append(reference_time())
        finally:
            if tracer:
                tracer.uninstall()
        wall = time.perf_counter() - start
        self.pass_walls[bool(tracer)].append(wall)
        ref = statistics.median(refs) if refs else float("nan")
        print(f"{'traced' if tracer else 'untraced'} pass: {wall:.3f} s, {len(ops)} operations"
              + (f", reference loop {ref:.4f} s" if refs else ""), file=sys.stderr)
        if tracer:
            self._add_trace(tracer, wall)
            return wall
        for job, ts in times.items():
            k = self.workload.parts.get(job, 1)
            for i in range(0, len(ts), k):
                seconds = sum(ts[i:i + k])
                self.job_samples[job].append(seconds)
                self.job_refs[job].append(seconds / ref)
        return wall

    def _add_trace(self, tracer: tracing.Tracer, wall: float) -> None:
        self.traced_passes += 1
        for mine, theirs in ((self.calls, tracer.calls), (self.inclusive, tracer.inclusive),
                             (self.work, tracer.work)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        selfs = tracing.layer_self_times(tracer.take_spans())
        for layer, value in selfs.items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + value
        self.other_s += wall - sum(selfs.values())


def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {job: statistics.median(s) for job, s in samples.items()}


def end_to_end_metrics(run: Run, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    refs = medians(run.job_refs)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_ref": (sum(refs.values()), "ref"),
        "job_geomean_ref": (math.exp(statistics.fmean(math.log(v) for v in refs.values())), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def src_line_counts() -> dict[str, int]:
    """Non-blank lines per module of ``src/sphereforge``."""
    counts = {}
    for path in sorted((SRC / "sphereforge").glob("*.py")):
        with open(path) as fh:
            counts[path.stem] = sum(1 for line in fh if line.strip())
    return counts


def per_layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    n = run.traced_passes
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.function_names():
        calls = run.calls.get(name, 0)
        out[f"{name}.calls"] = (calls // n if calls % n == 0 else calls / n, "calls")
        out[f"{name}.s"] = (run.inclusive.get(name, 0.0) / n, "s")
    for name, unit in tracing.work_names():
        total = run.work.get(name, 0)
        out[name] = (total // n if total % n == 0 else total / n, unit)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (run.self_s.get(layer, 0.0) / n, "s")
    out["other_s"] = (run.other_s / n, "s")
    out["trace_overhead_s"] = (
        statistics.median(run.pass_walls[True]) - statistics.median(run.pass_walls[False]),
        "s",
    )
    seconds = medians(run.job_samples)
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            value = seconds.get(job, 0.0) if workload is type(run.workload) else 0.0
            out[f"job.{job}.s"] = (value, "s")
    lines = src_line_counts()
    for module, count in lines.items():
        out[f"lines.{module}"] = (count, "lines")
    out["lines.total"] = (sum(lines.values()), "lines")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphereforge" / "__init__.py").is_file():
        print(f"no sphereforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workload = WORKLOADS[args.workload]()
        setup_times = [setup(workload, workdir)]
        run = Run(workload, calibrate=not args.trace)
        rng = random.Random(args.seed)
        start = time.perf_counter()
        traced = False
        passes = 0
        while True:
            wall = run.run_pass(rng, tracing.Tracer() if traced else None)
            passes += 1
            if not args.trace:
                # set-up is repeated between passes so that its median
                # samples the machine at several moments of the run
                setup_times.append(setup(workload, workdir))
            enough = passes >= MIN_PASSES and (run.traced_passes or not args.trace)
            if enough and time.perf_counter() - start + wall > args.seconds:
                break
            traced = bool(args.trace) and not traced
        metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
