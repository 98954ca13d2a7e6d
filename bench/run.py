"""Layered benchmark of ppmbqc: end-to-end metrics and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-brick --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process runs one workload as a closed loop with one client: the next op
starts when the previous one has been checked. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that wraps the library's
layers (see ``tracer.py``), runs a fixed number of ops so that its counts
are exact, writes its spans to ``bench/out/`` and reports per-layer metrics
plus the tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout that holds this file,
never from an installed copy; without it the benchmark exits with code 1.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (timing starts before any import)
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("certify-brick", "compile-mixed", "shots-deep")
SETUP_SAMPLES = 9  # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60  # per set-up child; a whole run must end within 180 s
WORKLOAD_TIMEOUT_S = 600  # per workload process of --workload all


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """Pin BLAS pools to the usable CPUs; must run before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cpus)
    return cpus


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import ppmbqc from it."""
    package = SRC / "ppmbqc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: library sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import ppmbqc

    if Path(ppmbqc.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported ppmbqc from {ppmbqc.__file__}, not {package}")


def machine(blas_threads: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


# -- running ops -----------------------------------------------------------


class OpLog:
    """Per-op latency of the timed region and work done, plus failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.work: list[int] = []
        self.attempted = 0
        self.failures: list[tuple[int, list[str]]] = []

    def run(self, wl, i: int, tracer=None) -> None:
        """Prepare, time, and check op ``i``; a raising op counts as failed."""
        self.attempted += 1
        try:
            inputs = wl.prepare(i)
            with tracer.root("op", str(i)) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = wl.run(inputs)
                latency = time.perf_counter() - t0
            self.latencies.append(latency)
            self.work.append(0)
            problems = wl.check(inputs, out)
            if not problems:
                self.work[-1] = wl.work(out)
        except Exception as exc:  # the loop must go on and count the failure
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append((i, problems))

    def report_failures(self) -> None:
        for i, problems in self.failures[:5]:
            print(f"bench: op {i} failed: {'; '.join(problems)}", file=sys.stderr)


def tail_rank(n: int, pct: float) -> int:
    """Nearest-rank index of percentile ``pct`` among ``n`` sorted samples."""
    return max(math.ceil(pct / 100.0 * n) - 1, 0)


def min_ops(pct: float) -> int:
    """Fewest samples that leave TAIL_BEYOND samples beyond percentile ``pct``."""
    n = 1
    while n - 1 - tail_rank(n, pct) < TAIL_BEYOND:
        n += 1
    return n


def run_timed(wl, seconds: float, sample_setup) -> tuple[OpLog, list[float]]:
    """Closed loop for ``seconds``, with enough ops for the tail percentile,
    ending on a whole cycle of the workload.

    Between ops, at evenly spaced points of the loop, ``sample_setup()``
    times the set-up of a fresh process, SETUP_SAMPLES times in all; so the
    set-up samples see the machine over the whole run, as the ops do. Time
    spent sampling does not count toward ``seconds``.
    """
    log, setups = OpLog(), []
    least = min_ops(wl.tail_pct)
    paused = 0.0
    start = time.perf_counter()
    i = 0
    while wl.max_ops is None or i < wl.max_ops:
        ran = time.perf_counter() - start - paused
        if len(setups) < SETUP_SAMPLES and ran >= len(setups) * seconds / SETUP_SAMPLES:
            t0 = time.perf_counter()
            setups.append(sample_setup())
            paused += time.perf_counter() - t0
            continue
        if i >= least and i % wl.cycle == 0 and ran >= seconds:
            break
        log.run(wl, i)
        i += 1
    setups += [sample_setup() for _ in range(SETUP_SAMPLES - len(setups))]
    return log, setups


def setup_sampler(args):
    """A function that times the set-up of one fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]

    def sample() -> float:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"bench: set-up child failed:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]

    return sample


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def untraced(args, wl_cls, info: dict) -> int:
    wl = wl_cls(args.seed)
    wl.warm_up()
    log, setups = run_timed(wl, args.seconds, setup_sampler(args))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.report_failures()

    metrics: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(setups), "s")}
    lat = sorted(log.latencies)
    lines = [f"  setup_s        {metrics['setup_s'][0]:.4f} s   (median of "
             f"{', '.join(f'{s:.4f}' for s in setups)})"]
    if lat:
        # Printed, not a metric of the result line: see "Steadiness" in NOTES.md.
        lines.append(f"  op_p50_ms      {1e3 * statistics.median(lat):.3f} ms  (n={len(lat)})")
    k = tail_rank(len(lat), wl.tail_pct)
    beyond = len(lat) - 1 - k
    if beyond >= TAIL_BEYOND:
        metrics["op_tail_ms"] = (1e3 * lat[k], "ms")
        lines.append(f"  op_tail_ms     {1e3 * lat[k]:.3f} ms  (p{wl.tail_pct}, "
                     f"{beyond} samples beyond, n={len(lat)})")
    else:
        lines.append(f"  op_tail_ms     not reported: p{wl.tail_pct} has {beyond} "
                     f"samples beyond it, fewer than {TAIL_BEYOND}")
    total_work, busy = sum(log.work), sum(log.latencies)
    if total_work:
        metrics["work_per_s"] = (total_work / busy, "1/s")
        lines.append(f"  {wl.work_name:<14} {total_work / busy:.4f} {wl.work_unit}  "
                     f"(work_per_s: {total_work} over {busy:.3f} s timed)")
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    lines.append(f"  peak_rss_mib   {peak_rss_mib:.1f} MiB")
    failed = len(log.failures)
    lines.append(f"  failed_ratio   {failed / log.attempted:.4f} failed/attempted "
                 f"({failed}/{log.attempted})")

    print(f"workload {wl.name}  seed {args.seed}  untraced  machine {json.dumps(info)}")
    print("\n".join(lines))
    print(result_line(failed == 0, log.attempted, failed, metrics))
    return 0


def traced(args, wl_cls, info: dict) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup", "setup"):
            wl = wl_cls(args.seed)
            wl.warm_up()
    finally:
        tracer.uninstall()
    log, replay = OpLog(), OpLog()

    def traced_ops(ops) -> None:
        tracer.install()
        try:
            for i in ops:
                log.run(wl, i, tracer)
        finally:
            tracer.uninstall()

    def untraced_ops(ops) -> None:
        for i in ops:
            replay.run(wl, i)

    # Each cycle of ops runs traced and again untraced, in alternating
    # order, so that drift in machine speed cancels out of the overhead.
    for n, first in enumerate(range(0, wl.traced_ops, wl.cycle)):
        ops = range(first, first + wl.cycle)
        for step in (traced_ops, untraced_ops) if n % 2 == 0 else (untraced_ops, traced_ops):
            step(ops)
    log.report_failures()

    metrics = tracer.layer_metrics()
    overhead = sum(log.latencies) / sum(replay.latencies) - 1.0 if replay.latencies else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    path = OUT_DIR / f"spans-{wl.name}.csv"
    tracer.write(path)

    print(f"workload {wl.name}  seed {args.seed}  traced {wl.traced_ops} ops  "
          f"machine {json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(f"  spans written to {path.relative_to(BENCH_DIR.parent)}; tracing adds "
          f"{100 * overhead:.1f}% to op time ({sum(log.latencies):.3f} s traced, "
          f"{sum(replay.latencies):.3f} s untraced)")
    failed = len(log.failures) + len(replay.failures)
    attempted = log.attempted + replay.attempted
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    blas_threads = cap_blas_threads()
    import_library()
    from workloads import WORKLOADS

    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed).warm_up()
        print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
        return 0
    info = machine(blas_threads)
    return traced(args, wl_cls, info) if args.trace else untraced(args, wl_cls, info)


if __name__ == "__main__":
    sys.exit(main())
