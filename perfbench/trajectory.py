"""Run every workload over ten seeds and print each metric with its spread.

Run from the repository root:

    python3 perfbench/trajectory.py
    python3 perfbench/trajectory.py --record "row-run rasterizer"

For each workload in BENCHMARK.json, run.py runs once per seed with tracing
off, then once with tracing on (seed 1), each for BENCHMARK.json's
run_seconds.  Every end-to-end metric is printed by name and unit with its
median and quartile spread (the distance between the first and third
quartile as a share of the median) next to its bound from BENCHMARK.json,
then the raw figures before the host-drift correction and the range of the
host slowdown; every per-layer metric is printed with its unit.  With
``--record`` the medians and the traced figures are appended to
``perfbench/trajectory.json``, the benchmark's record from commit to commit.
The exit code is 0 when every spread but setup_s's is under a third of its
bound, 3 when one is not, and 1 when a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

TRAJECTORY = run.BENCH / "trajectory.json"
SEEDS = 10


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    stamp = next(json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp "))
    details = next(json.loads(l[len("details "):]) for l in lines if l.startswith("details "))
    return {"result": result, "stamp": stamp, "details": details}


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL", help="append the figures to trajectory.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    entry = {"label": args.record, "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_once(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        entry.setdefault("stamp", runs[0]["stamp"])
        if not all(r["result"]["correct"] for r in runs):
            print(f"{workload}: a run was not correct", file=sys.stderr)
            return 1
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        summary = {}
        print(f"== {workload}: {SEEDS} seeds, failed_ratio {failed}/{attempted}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            median, q1, q3, rel = spread(values)
            ok = name == "setup_s" or rel < bound / 3
            steady &= ok
            summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
            print(f"{workload:10s} {name:18s} {median:14.4f} {unit:5s} spread {rel:6.2%}"
                  f"  bound {bound:.0%} {'' if ok else '  <-- above a third of the bound'}")
        raw = {}
        for name in runs[0]["details"]["raw"]:
            median, _, _, rel = spread([r["details"]["raw"][name] for r in runs])
            raw[name] = median
            print(f"{workload:10s} {name:18s} {median:14.4f} raw   spread {rel:6.2%}")
        slowdowns = [r["details"]["slowdown"] for r in runs]
        print(f"{workload:10s} host slowdown {min(slowdowns):.3f}-{max(slowdowns):.3f}")
        tail_pcts = [r["details"]["latency_tail_percentile"] for r in runs]
        samples = [r["details"]["latency_samples"] for r in runs]
        print(f"{workload:10s} latency tail percentile {min(tail_pcts):.1f}-{max(tail_pcts):.1f}"
              f" over {min(samples)}-{max(samples)} samples a run")
        traced = bench_once(workload, 1, seconds, 1)
        if not traced["result"]["correct"]:
            print(f"{workload}: the traced run was not correct", file=sys.stderr)
            return 1
        layers = traced["result"]["metrics"]
        for name, metric in layers.items():
            print(f"{workload:10s} {name:40s} {metric['value']:16.6f} {metric['unit']}")
        entry["workloads"][workload] = {
            "failed_ratio": failed / attempted,
            "latency_tail_percentile": statistics.median(tail_pcts),
            "end_to_end": summary,
            "raw_medians": raw,
            "slowdown_median": statistics.median(slowdowns),
            "per_layer": {k: v["value"] for k, v in layers.items()},
        }
    if args.record:
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
