"""Self-tests of the benchmark itself, on a few small circuits (about 10 s):

    python3 perfbench/selftest.py

1. A planted wrong expectation, of a library verdict or of a CLI exit code,
   is counted as a failed verdict and in ``failed_frac``, and marks the run
   incorrect.
2. Traced and untraced passes give identical verdicts and branch totals, and
   traced passes give identical per-layer counts.
3. The matrix classifier and the tail percentile on known inputs.

Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

run.import_distgates()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

SMALL = ("dCNOT", "dLMS conditional theta=pi/3", "dGCZ n=4/4 nodes fanout", "dCSUM4",
         "qudit GCZ n=4")
SMALL_SHAPES = [("gcz n=4/2 pairwise",
                 ["--gate", "gcz", "--n", "4", "--nodes", "2", "--strategy", "pairwise"],
                 ["--oracle", "gcz"])]


def small_builders():
    return [(name, build) for name, build in workloads.suite_builders() if name in SMALL]


class Planted(workloads.Suite):
    """The suite with one wrong expectation: its first circuit must 'fail'."""

    def circuits(self):
        for i, (name, circuit, oracle, expect) in enumerate(super().circuits()):
            yield name, circuit, oracle, (not expect) if i == 0 else expect


class PlantedCli(workloads.Suite):
    """The suite whose correct CLI probe is expected to exit 1."""

    probe_expect_code = 1


def check(label: str, ok: bool, failures: list):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def main() -> int:
    workdir = os.path.join(run.ROOT, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    failures: list[str] = []
    try:
        for label, wl in (("library verdict", Planted(1, workdir, small_builders())),
                          ("CLI exit code", PlantedCli(1, workdir, small_builders()))):
            planted = run.check(*run.run_passes(wl, 0))
            check(f"planted wrong expectation of a {label} is counted as failed",
                  planted["failed"] == 1 and planted["attempted"] == len(SMALL) + 1
                  and planted["failed_frac"] == 1 / (len(SMALL) + 1)
                  and not planted["correct"], failures)

        for make in (lambda: workloads.Suite(2, workdir, small_builders()),
                     lambda: workloads.Corrupted(3, workdir, small_builders()),
                     lambda: workloads.CliWide(4, workdir, SMALL_SHAPES)):
            wl = make()
            plain, traced, layer_passes = run.run_passes(wl, 0, layers.Tracer())
            result = run.check(plain, traced, layer_passes)
            name = type(wl).__name__
            check(f"{name}: every verdict right", result["failed"] == 0, failures)
            check(f"{name}: traced and untraced verdicts and branch totals agree",
                  all(run.signature(p) == run.signature(plain[0]) for p in plain + traced)
                  and plain[0].verdicts[0].branches > 0, failures)
            counts = [lp[1] for lp in layer_passes]
            check(f"{name}: per-layer counts repeat across traced passes",
                  len(counts) >= 2 and all(c == counts[0] for c in counts)
                  and counts[0]["statevec.apply_calls"] > 0, failures)
            rerun = run.run_passes(make(), 0, layers.Tracer())[2]
            check(f"{name}: per-layer counts repeat in a fresh workload object",
                  rerun[0][1] == counts[0], failures)

        kinds = [layers.matrix_kind(m) for m in (
            np.diag([1, -1j]), np.array([[0, 1j], [1, 0]]), np.ones((2, 2)) / 2 ** 0.5)]
        check("matrix classifier", kinds == ["diagonal", "monomial", "dense"], failures)
        check("tail percentile leaves ten samples above it",
              run.tail(list(range(100))) == (89, 90.0) and run.tail([3, 1, 2]) == (3, 100.0),
              failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all checks passed" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
