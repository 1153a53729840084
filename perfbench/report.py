"""Run every workload and print each metric by name and unit, one row per workload.

    python3 perfbench/report.py [--seed 1] [--trace] [--against OLD.json] [--out NEW.json]

The workloads and the seconds of a run are those ``BENCHMARK.json`` declares,
so a report's runs compare with the declared ones. Each workload runs in a
fresh ``run.py`` process (so ``peak_rss_mb`` is its own). ``--against`` prints the change of every metric from a previous result
file written by ``--out``. ``--trace`` also makes one traced run per workload
and prints its per-layer table (self and total time per span, work counts)
and the tracing overhead: traced ``wall_s`` minus untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, declared

RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# detail "):
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("# detail "):])
    return result


def print_table(rows: dict, units: dict, extra: dict):
    """One row per workload: every metric's value, then the ``extra`` columns."""
    names = list(units)
    header = (["workload"] + [f"{n} [{units[n]}]" for n in names]
              + list(next(iter(extra.values()))))
    table = [header]
    for workload, values in rows.items():
        table.append([workload]
                     + [f"{values[n]:.6g}" if n in values else "-" for n in names]
                     + list(extra[workload].values()))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def print_diff(old: dict, new: dict):
    env = old.get("environment", {})
    print(f"\nchange against commit {env.get('git_commit', '?')}, "
          f"sources {env.get('source_sha256', '?')}:")
    for workload, res in new["workloads"].items():
        before = old.get("workloads", {}).get(workload)
        if before is None:
            print(f"  {workload}: not in the previous file")
            continue
        for key in ("plain", "trace"):
            if key not in res or key not in before:
                continue
            for name, m in res[key]["metrics"].items():
                if name not in before[key]["metrics"]:
                    continue
                a, b = before[key]["metrics"][name]["value"], m["value"]
                change = f"{100 * (b - a) / a:+.1f}%" if a else "n/a"
                print(f"  {workload:10s} {name:28s} {a:14.6g} -> {b:14.6g} {m['unit']:6s} {change}")


def print_trace(workload: str, traced: dict, plain: dict):
    det = traced["detail"]
    print(f"\n{workload}: per-layer spans of one traced pass (raw times)")
    print(f"  {'span':24s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}")
    for span in sorted(det["spans"], key=lambda s: -s["self_ms"]):
        print(f"  {span['span']:24s} {span['calls']:9d} {span['total_ms']:11.1f} "
              f"{span['self_ms']:11.1f}")
    counts = {n: m["value"] for n, m in traced["metrics"].items() if m["unit"] != "ms"}
    for name, value in counts.items():
        print(f"  {name:28s} {value:.6g}")
    wall = plain["metrics"]["wall_s"]["value"]
    overhead = traced["metrics"]["trace.overhead_s"]["value"]
    print(f"  tracing overhead: {overhead:+.3f} s per pass "
          f"({100 * overhead / wall:+.1f}% of untraced wall_s {wall:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    parser.add_argument("--against", help="previous result file to diff against")
    parser.add_argument("--out", help="write this result file")
    args = parser.parse_args(argv)

    bench = declared()
    seconds = bench["run_seconds"]
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = {"plain": run(workload, args.seed, seconds, 0)}
        if args.trace:
            results[workload]["trace"] = run(workload, args.seed, seconds, 1)
    first = next(iter(results.values()))["plain"]["detail"]
    doc = {"environment": first["environment"], "seed": args.seed,
           "seconds": seconds, "workloads": results}

    print(f"environment: {json.dumps(doc['environment'], sort_keys=True)}")
    plain = {w: res["plain"] for w, res in results.items()}
    units = {n: m["unit"] for r in plain.values() for n, m in r["metrics"].items()}
    extra = {w: {"failed_frac": f"{r['failed']}/{r['attempted']}", "correct": str(r["correct"])}
             for w, r in plain.items()}
    print("\nend-to-end metrics (times scaled to nominal host speed, see README.md):")
    print_table({w: {n: m["value"] for n, m in r["metrics"].items()} for w, r in plain.items()},
                units, extra)
    print("\nthe same, raw:")
    print_table({w: r["detail"]["raw_metrics"] for w, r in plain.items()}, units, extra)
    for workload, r in plain.items():
        det = r["detail"]
        print(f"  {workload}: verdict_tail_ms is p{det['verdict_tail_percentile']:.1f} of "
              f"{det['verdicts_per_pass']} verdicts per pass; "
              f"{len(det['raw_pass_wall_s'])} passes")
        for problem in det["problems"]:
            print(f"  {workload}: {problem}")
    if args.trace:
        for workload, res in results.items():
            print_trace(workload, res["trace"], res["plain"])
    if args.against:
        with open(args.against) as fh:
            print_diff(json.load(fh), doc)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    return 0 if all(r["plain"]["correct"] and r.get("trace", r["plain"])["correct"]
                    for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
