"""distgates benchmark: one workload, closed loop, one call at a time.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; distgates is imported from ``src/``.
Passes repeat until ``--seconds`` have gone by (at least one pass; four in
trace mode); the default is ``run_seconds`` of ``BENCHMARK.json``. Every verdict is checked against the answer the circuit's
construction implies. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). The line
before it starts with ``# detail`` and holds the environment, the tail
percentile used, and (traced) the full span table. See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES_FIRST = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it


def import_distgates():
    if not os.path.isfile(os.path.join(SRC, "distgates", "__init__.py")):
        sys.exit(f"perfbench: no distgates sources under {SRC}")
    sys.path.insert(0, SRC)
    import distgates
    return distgates


def declared() -> dict:
    """The benchmark's declaration, ``BENCHMARK.json`` at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_sha256() -> str:
    """Hash of the distgates sources, so that uncommitted code is told apart."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "distgates")
    for folder, _, files in sorted(os.walk(package)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, package).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()[:16]


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import importlib.util

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        git = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    git = fh.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(blas),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "distgates_env": {k: v for k, v in os.environ.items() if k.startswith("DISTGATES_")},
        "git_commit": git,
        "source_sha256": source_sha256(),
    }


def blas_threads(blas: dict):
    """OpenBLAS's own thread count, when the library can be asked for it."""
    import ctypes
    import glob

    import numpy as np

    wheel_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    candidates = [os.path.join(d, "lib*openblas*.so*")
                  for d in (wheel_libs, blas.get("lib directory", ""))]
    for lib in (path for pattern in candidates for path in glob.glob(pattern)):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def verdict_seconds(v, speed) -> float:
    """A verdict's time: scaled to nominal host speed unless it is BLAS-bound."""
    return (speed.scaled if v.scaled else speed.raw)(v.start, v.start + v.seconds)


def pass_seconds(p, speed) -> float:
    """A pass's wall time: scaled, except for its BLAS-bound verdicts."""
    seconds = speed.scaled(p.start, p.end)
    for v in p.verdicts:
        if not v.scaled:
            start, end = v.start, v.start + v.seconds
            seconds += speed.raw(start, end) - speed.scaled(start, end)
    return seconds


def per_verdict_medians(passes, speed) -> list[float]:
    """One sample per verdict of a pass: its time, median over the run's passes."""
    by_name: dict[str, list[float]] = {}
    for p in passes:
        for v in p.verdicts:
            by_name.setdefault(v.name, []).append(verdict_seconds(v, speed))
    return [statistics.median(times) for times in by_name.values()]


def end_to_end(plain, setup, speed) -> tuple[dict, float]:
    """The end-to-end metrics, and the tail percentile used."""
    samples = per_verdict_medians(plain, speed)
    tail_value, tail_pct = tail(samples)
    compiles = [(start, start + seconds) for p in plain for start, seconds in p.compiles]
    return {
        "setup_s": (statistics.median(speed.scaled(a, b) for a, b in setup), "s"),
        "wall_s": (statistics.median(pass_seconds(p, speed) for p in plain), "s"),
        "cpu_s": (statistics.median(p.cpu_s * pass_seconds(p, speed) / speed.raw(p.start, p.end)
                                    for p in plain), "s"),
        "verdict_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "verdict_tail_ms": (1e3 * tail_value, "ms"),
        "compile_ms": (1e3 * statistics.median(speed.scaled(a, b) for a, b in compiles), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, tail_pct


def setup_probe(workload: str, seed: int, speed) -> tuple[float, float]:
    """(start, end) of a fresh interpreter that imports distgates and builds the
    workload's circuits and inputs, then exits."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    speed.sample()
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, cwd=ROOT)
    end = time.perf_counter()
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr.decode()[-2000:]}")
    speed.sample()
    return start, end


def signature(p) -> list:
    """What traced and untraced passes must agree on: each verdict and its branches."""
    return [(v.name, v.ok, v.branches) for v in p.verdicts]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_distgates()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            wl.prepare()
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))


def run_passes(wl, seconds: float, tracer=None, between=None):
    """Repeat passes until ``seconds`` have gone by, calling ``between()`` after each.

    Untraced, at least one pass. Traced, passes alternate untraced and traced,
    starting untraced, at least four of them (two traced, to compare counts).
    Returns (untraced passes, traced passes, per traced pass (layer times,
    counts, span table)).
    """
    plain, traced, layer_passes = [], [], []
    start = time.perf_counter()
    while (len(plain) + len(traced) < (4 if tracer else 1)
           or time.perf_counter() - start < seconds):
        compiles = wl.compile_samples()
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            with tracer.installed():
                p = wl.run_pass()
            traced.append(p)
            layer_passes.append((tracer.layer_times_ms(), dict(tracer.counts), tracer.table()))
        else:
            p = wl.run_pass()
            plain.append(p)
        p.compiles[:0] = compiles
        if between is not None:
            between()
    return plain, traced, layer_passes


def check(plain, traced, layer_passes) -> dict:
    """Count wrong verdicts, and check that tracing changed no verdict or count."""
    everything = plain + traced
    attempted = sum(len(p.verdicts) for p in everything)
    wrong = [v for p in everything for v in p.verdicts if not v.ok]
    problems = [f"{v.name}: {v.detail}" for v in wrong[:5]]
    if any(signature(p) != signature(plain[0]) for p in everything):
        problems.append("passes gave different verdicts or branch totals")
    if any(counts != layer_passes[0][1] for _, counts, _ in layer_passes):
        problems.append("per-layer counts differ between traced passes")
    return {"attempted": attempted, "failed": len(wrong),
            "failed_frac": len(wrong) / attempted,
            "correct": not problems, "problems": problems}


def measure(args, wl) -> int:
    import hostspeed
    import layers

    speed = wl.speed = hostspeed.HostSpeed()
    setup = []  # (start, end) of each set-up probe

    def probe():
        setup.append(setup_probe(args.workload, args.seed, speed))

    # Set-up is timed a few times first and once after every pass, so that
    # its median spans the run's host-speed phases.
    tracer = layers.Tracer() if args.trace else None
    if not args.trace:
        for _ in range(SETUP_PROBES_FIRST):
            probe()
    plain, traced, layer_passes = run_passes(wl, args.seconds, tracer,
                                             None if args.trace else probe)
    verdicts = check(plain, traced, layer_passes)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "raw_pass_wall_s": [speed.raw(p.start, p.end) for p in plain],
        "raw_traced_pass_wall_s": [speed.raw(p.start, p.end) for p in traced],
        "pass_scale": [pass_seconds(p, speed) / speed.raw(p.start, p.end)
                       for p in plain + traced],
        "reference_samples": len(speed.samples),
        "verdicts_per_pass": len(plain[0].verdicts),
        "failed_frac": verdicts["failed_frac"],
        "problems": verdicts["problems"],
        "environment": environment(),
    }
    if args.trace:
        times = {m: statistics.median(lp[0][m] * pass_seconds(p, speed) / speed.raw(p.start, p.end)
                                      for lp, p in zip(layer_passes, traced))
                 for m in layer_passes[0][0]}
        counts = layer_passes[0][1]
        metrics = {**{m: (v, "ms") for m, v in times.items()},
                   **{m: (v if v < 2 ** 53 else float(v), layers.COUNTS[m])
                      for m, v in counts.items()}}
        metrics["simulate.merge_ratio"] = (
            counts["simulate.branches_out"] / max(1, counts["statevec.forks"]), "ratio")
        metrics["gates.cache_misses"] = (tracer.cache_misses(), "count")
        # the first pass runs cold (gate cache, allocator), so it is left out
        metrics["trace.overhead_s"] = (
            statistics.median(pass_seconds(p, speed) for p in traced)
            - statistics.median(pass_seconds(p, speed) for p in plain[1:]), "s")
        detail["spans"] = layer_passes[-1][2]
    else:
        metrics, detail["verdict_tail_percentile"] = end_to_end(plain, setup, speed)
        raw, _ = end_to_end(plain, setup, speed.unscaled())
        detail["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": verdicts["correct"],
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
