"""Benchmark of the ``ccc`` CLI on the bundled data files.

Run from the repository root:

    python3 perfbench/run.py --workload raster --seed 1 --seconds 28 --trace 0

One benchmark process runs a closed loop with one client: it starts the next
``ccc`` invocation only when the previous one has ended, and every
invocation gets a fresh interpreter, because the lru caches in ``fm`` and
``cohoracle`` would otherwise stay warm in a way no ``ccc`` user sees.
Every report, exit code and SVG is compared byte for byte with
``expected.json``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` each invocation runs once plain and
once under the outside-in tracer (``tracer.py``) and the last line
carries the per-layer metrics.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
EXPECTED = BENCH / "expected.json"
DATA = "src/ccc/data/"
FIGURE = ".perfbench/figure.svg"
RSS_FILE = WORK / "peak_rss_kb"

# the check workloads: each job is one `ccc check` invocation, and each
# workload stresses a different layer; the verdict count is the payload
# field named in VERDICT_KEYS
CHECKS = {
    "raster": [
        ["check", "contractibility-2d", DATA + name, "--window", "1", "--box", "6", "--step", "1/6"]
        for name in ("contract_crepant_a1.json", "contract_om3.json", "contract_discrepancy.json")
    ],
    "staircase": [
        ["check", "case3-sandwich", DATA + name, "--window", "1"]
        for name in ("contract_om3.json", "contract_crepant_a1.json")
    ],
    "oracle": [
        ["check", "hom-oracle", DATA + "p112.json", "--window", "2"],
        ["check", "hom-oracle", DATA + "a1_resolution.json", "--window", "2"],
        ["check", "poset-embedding", DATA + "samebase_p12_p13.json", "--window", "4"],
        ["check", "poset-embedding", DATA + "samebase_rev.json", "--window", "4"],
    ],
}
VERDICT_KEYS = ("pairs", "points", "pairs_checked")

# oneshot: one round runs every verb once, in seeded order, each with a
# seeded draw from its argument variants
ONESHOT = {
    "validate": [["validate", DATA + n] for n in ("p1.json", "p13.json", "p112.json", "a1_resolution.json")],
    "hom": [
        ["hom", DATA + "p13.json", "--theta1", "cone=0;t=1", "--theta2", "cone=0;t=0", "--oracle"],
        ["hom", DATA + "p13.json", "--theta1", "cone=1;t=-1", "--theta2", "cone=0;t=1", "--oracle"],
        ["hom", DATA + "p112.json", "--theta1", "cone=0,2;t=1,0", "--theta2", "cone=2;t=0", "--oracle"],
        ["hom", DATA + "a1_resolution.json", "--theta1", "cone=0,2;t=1,1", "--theta2", "cone=0;t=0", "--oracle"],
    ],
    "fm-same-base": [
        ["fm", "same-base", DATA + "samebase_p12_p13.json", "--bundle", "3,0"],
        ["fm", "same-base", DATA + "samebase_p12_p13.json", "--bundle", "1,2"],
        ["fm", "same-base", DATA + "samebase_p12_p13.json", "--theta", "cone=0;t=2"],
        ["fm", "same-base", DATA + "samebase_rev.json", "--theta", "cone=1;t=-1"],
    ],
    "fm-contract-push": [
        ["fm", "contract-push", DATA + "contract_crepant_a1.json", "--bundle", "1,1"],
        ["fm", "contract-push", DATA + "contract_discrepancy.json", "--bundle", "2,1"],
        ["fm", "contract-push", DATA + "contract_crepant_a1.json", "--theta", "cone=0,1;t=0,1"],
        ["fm", "contract-push", DATA + "contract_om3.json", "--theta", "cone=0;t=1"],
    ],
    "fm-contract-pull": [
        ["fm", "contract-pull", DATA + "contract_crepant_a1.json", "--J", "1,2", "--phi=-1,0"],
        ["fm", "contract-pull", DATA + "contract_om3.json", "--J", "0,2", "--phi", "0,1"],
        ["fm", "contract-pull", DATA + "contract_discrepancy.json", "--J", "2", "--phi", "1"],
        ["fm", "contract-pull", DATA + "contract_crepant_a1.json", "--J", "0,2", "--phi", "1,1"],
    ],
    "plot-lagrangian": [
        ["plot", "lagrangian", DATA + "p13.json", "-o", FIGURE],
        ["plot", "lagrangian", DATA + "p1.json", "-o", FIGURE],
    ],
    "plot-region": [
        ["plot", "region", DATA + "contract_crepant_a1.json", "--J", "1,2", "--phi", "0,0", "-o", FIGURE],
        ["plot", "region", DATA + "contract_om3.json", "--J", "0,2", "--phi=-1,1", "-o", FIGURE],
        ["plot", "region", DATA + "p112.json", "--theta", "cone=0,2;t=1,0", "-o", FIGURE],
    ],
}

WORKLOADS = (*CHECKS, "oneshot")
SETUP_PROBES = 9

# About the median wall time of a reference.py process, started between
# ccc invocations, on the machine this was tuned on (two vCPUs on a shared
# host, Python 3.11).  Timings are reported at this reference speed; see
# NOTES.md, "Host drift".
REFERENCE_S = 0.09


def key(argv) -> str:
    return json.dumps(argv)


def catalogue() -> list[list[str]]:
    """Every argv any workload can run; expected.json holds one entry each."""
    lists = [*CHECKS.values(), *ONESHOT.values()]
    return [argv for argvs in lists for argv in argvs]


def worker_env() -> dict:
    """Pinned environment: fixed hash seed, no CCC_MAX_WINDOW, bytecode cached.

    rss/sitecustomize.py writes each child's own peak RSS to RSS_FILE.
    """
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH / "rss")]),
        "PERFBENCH_RSS_FILE": str(RSS_FILE),
    }


def spawn(cmd) -> tuple[bytes, int, float, float | None]:
    """Run cmd to completion: (stdout, exit code, wall seconds, peak RSS in MiB).

    The peak RSS is None when the child did not record it.
    """
    WORK.mkdir(exist_ok=True)
    RSS_FILE.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    wall = time.perf_counter() - start
    rss = int(RSS_FILE.read_text()) / 1024 if RSS_FILE.exists() else None
    return out, proc.returncode, wall, rss


def run_worker(argv, trace: bool, spans: Path | None = None) -> tuple[dict | None, float, float]:
    """One fresh worker: (its result or None if it broke, wall seconds, peak RSS MiB)."""
    spec = {"argv": argv, "trace": trace, "spans": str(spans) if spans else None}
    spec["launch"] = time.perf_counter()
    out, code, wall, rss = spawn([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)])
    if code != 0:
        return None, wall, rss
    return json.loads(out.decode().splitlines()[-1]), wall, rss


def figure_digest() -> str | None:
    path = ROOT / FIGURE
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def clear_figure() -> None:
    (ROOT / FIGURE).unlink(missing_ok=True)


def outcome_ok(expected: dict, argv, report: str, code: int, digest) -> bool:
    want = expected.get(key(argv))
    return (
        want is not None
        and report == want["report"]
        and code == want["exit"]
        and digest == want["svg_sha256"]
    )


def verdicts(argv, report: str) -> int:
    if argv[0] != "check":
        return 1
    payload = json.loads(report)["payload"]
    return next(payload[k] for k in VERDICT_KEYS if k in payload)


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with k samples beyond it: (value, percentile, n).

    k is ten, or a quarter of the n samples when n is under 40, so a run of
    a few long rounds reports its upper quartile rather than its maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = min(10, n // 4)
    return ordered[n - 1 - k], 100.0 * (n - k) / n, n


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "git_rev": git_rev(),
        "pythonhashseed": worker_env()["PYTHONHASHSEED"],
        "bytecode": "cached next to the sources (PYTHONDONTWRITEBYTECODE unset), warmed before timing",
    }


def jobs_for(workload: str, rng: random.Random) -> list[list[str]]:
    """One round of the workload, in seeded order."""
    if workload == "oneshot":
        verbs = sorted(ONESHOT)
        rng.shuffle(verbs)
        return [rng.choice(ONESHOT[v]) for v in verbs]
    jobs = list(CHECKS[workload])
    rng.shuffle(jobs)
    return jobs


class Run:
    """Samples and the correctness tally of one benchmark run."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.import_s: list[float] = []
        self.reference: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def calibrate(self) -> None:
        """Time one run of reference.py in a fresh process, between invocations."""
        _, code, wall, _ = spawn([sys.executable, str(BENCH / "reference.py")])
        if code != 0:
            raise SystemExit("perfbench/reference.py failed")
        self.reference.append(wall)

    def slowdown(self) -> float:
        """How much slower than REFERENCE_S the host ran during this run."""
        return statistics.median(self.reference) / REFERENCE_S

    def probe(self) -> None:
        """Launch a worker that only imports ccc.cli, for a setup_s sample."""
        self.calibrate()
        result, _, _ = run_worker(None, False)
        if result is None:
            raise SystemExit("a setup probe failed: is src/ccc importable?")
        self.setup.append(result["setup_s"])
        self.import_s.append(result["import_s"])

    def worker_job(self, argv, trace: bool, spans: Path | None = None) -> dict | None:
        """Run argv in a worker and check it; the result, or None when it failed."""
        self.attempted += 1
        clear_figure()
        result, wall, rss = run_worker(argv, trace, spans)
        if result is None or rss is None:
            self.fail(f"worker crashed or recorded no peak RSS: {key(argv)}")
            return None
        result.update(wall_s=wall, rss_mb=rss)
        self.setup.append(result["setup_s"])
        self.import_s.append(result["import_s"])
        if not outcome_ok(self.expected, argv, result["report"], result["exit"], figure_digest()):
            self.fail(f"wrong output: {key(argv)}")
            return None
        if result["left_wrapped"]:
            self.fail(f"wrappers left bound: {result['left_wrapped'][:3]}")
            return None
        if trace and result["trace_problems"]:
            self.fail(f"span tree faults: {result['trace_problems'][:3]}")
            return None
        return result

    def cli_job(self, argv) -> tuple[float, float] | None:
        """Run argv as a cold `python -m ccc.cli`: (wall seconds, peak RSS MiB) or None."""
        self.attempted += 1
        clear_figure()
        out, code, wall, rss = spawn([sys.executable, "-m", "ccc.cli", *argv])
        if not outcome_ok(self.expected, argv, out.decode(), code, figure_digest()):
            self.fail(f"wrong output: {key(argv)}")
            return None
        if rss is None:
            self.fail(f"recorded no peak RSS: {key(argv)}")
            return None
        return wall, rss


def measure(workload: str, rng: random.Random, seconds: float, run: Run) -> tuple[dict, dict]:
    """Untraced jobs until `seconds` have passed: (end-to-end metrics, details).

    Each round runs every job of the workload once, in seeded order.  The
    run stops after the first job that ends past the deadline, but never
    before the first round is whole.  On oneshot a latency sample is one
    invocation and the rate is invocations over their summed latencies.
    Check jobs differ in size, so there latency and rate are one round's
    worth, from each job's median: the median latencies summed over the
    jobs, and one round's verdicts over the summed median ``cli.run`` times.
    Every timing is reported at the reference speed: divided by the run's
    slowdown, which a reference.py process after every invocation measures.
    The raw figures go to the details.
    """
    walls, timed, verdict_count, rss = {}, {}, {}, []
    round_latency = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        round_s, whole = 0.0, True
        for argv in jobs_for(workload, rng):
            if rounds > 1 and time.perf_counter() - start >= seconds:
                whole = False
                break
            if workload == "oneshot":
                got = run.cli_job(argv)
                if got is None:
                    whole = False
                    continue
                wall, peak = got
            else:
                result = run.worker_job(argv, False)
                if result is None:
                    whole = False
                    continue
                wall, peak = result["wall_s"], result["rss_mb"]
                timed.setdefault(key(argv), []).append(result["call_s"])
                verdict_count[key(argv)] = verdicts(argv, result["report"])
            round_s += wall
            walls.setdefault(key(argv), []).append(wall)
            rss.append(peak)
            run.calibrate()
        if whole:
            round_latency.append(round_s)
            run.probe()  # spreads setup_s samples over the whole run
    if not walls:
        return {}, {"rounds": rounds}
    if workload == "oneshot":
        latency = [w for ws in walls.values() for w in ws]
        p50 = statistics.median(latency)
        rate = len(latency) / sum(latency)
    else:
        latency = round_latency or [sum(max(w) for w in walls.values())]  # every round broke
        p50 = sum(statistics.median(w) for w in walls.values())
        rate = sum(verdict_count.values()) / sum(statistics.median(t) for t in timed.values())
    tail_value, tail_pct, n = tail(latency)
    raw = {
        "setup_s": statistics.median(run.setup),
        "verdicts_per_s": rate,
        "latency_p50_ms": 1000 * p50,
        "latency_tail_ms": 1000 * tail_value,
    }
    slowdown = run.slowdown()
    metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "verdicts_per_s": (raw["verdicts_per_s"] * slowdown, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] / slowdown, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] / slowdown, "ms"),
        "peak_rss_mb": (max(rss), "MiB"),
    }
    details = {
        "raw": raw,
        "slowdown": slowdown,
        "reference_samples": len(run.reference),
        "rounds": rounds,
        "jobs": sum(len(w) for w in walls.values()),
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "setup_samples": len(run.setup),
    }
    return metrics, details


# per-layer metric names (besides the calls/self_s pairs of every span name)
LAYER_EXTRA = {
    "stackyfan.hash.calls": ("count", "lower"),
    "fm.gamma_char.hit_ratio": ("ratio", "higher"),
    "fm.gamma_char.lookups": ("count", "lower"),
    "fm.raster_bitmap.pixels": ("count", "lower"),
    "fm.pixels_contractible.pixels": ("count", "lower"),
    "cohoracle.refined_scaled.hit_ratio": ("ratio", "higher"),
    "cohoracle.refined_scaled.lookups": ("count", "lower"),
    "cohoracle.refined_scaled.entries": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metric_names() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    names = {}
    for span in tracer.SPAN_NAMES:
        names[f"{span}.calls"] = ("count", "lower")
        names[f"{span}.self_s"] = ("s", "lower")
    names.update(LAYER_EXTRA)
    return dict(sorted(names.items()))


def measure_traced(workload: str, rng: random.Random, seconds: float, run: Run) -> tuple[dict, dict]:
    """Rounds of (plain, traced) worker pairs: (per-layer metrics per round, details)."""
    units = layer_metric_names()
    totals: dict[str, float] = {}
    traced_s = untraced_s = 0.0
    unresolved = set()
    spans_dir = WORK / "spans" / workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    rounds = 0
    index = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for argv in jobs_for(workload, rng):
            index += 1
            plain = run.worker_job(argv, False)
            traced = run.worker_job(argv, True, spans_dir / f"{index:04d}.txt.gz")
            if plain is None or traced is None:
                continue
            if plain["report"] != traced["report"]:
                run.fail(f"traced report differs from the plain one: {key(argv)}")
                continue
            untraced_s += plain["call_s"]
            traced_s += traced["call_s"]
            unresolved.update(traced["layers"]["missing"])
            for name, value in traced["layers"].items():
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
    metrics = {}
    for name, (unit, _) in units.items():
        if name in totals:
            metrics[name] = (totals[name] / rounds, unit)
    for cache in ("fm.gamma_char", "cohoracle.refined_scaled"):
        lookups = totals.get(f"{cache}.lookups", 0)
        metrics[f"{cache}.hit_ratio"] = (
            totals.get(f"{cache}.hits", 0) / lookups if lookups else 0.0,
            "ratio",
        )
    metrics["cli.import_s"] = (statistics.median(run.import_s), "s")
    metrics["trace.spans"] = (totals.get("spans", 0) / rounds, "count")
    metrics["trace.traced_s"] = (traced_s / rounds, "s")
    metrics["trace.untraced_s"] = (untraced_s / rounds, "s")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / rounds, "s")
    missing = sorted(set(units) - set(metrics))
    for name in missing:
        metrics[name] = (0, units[name][0])
    details = {
        "rounds": rounds,
        "unreported": missing,
        "untraceable": sorted(unresolved),
        "spans_dir": str(spans_dir.relative_to(ROOT)),
    }
    return dict(sorted(metrics.items())), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ccc" / "cli.py").is_file():
        print("perfbench: src/ccc/cli.py not found; run from a full checkout", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)

    info = stamp()
    rng = random.Random(f"{args.workload}:{args.seed}")
    run = Run(expected)
    run_worker(None, False)  # warm-up: compiles bytecode and fills the file cache
    for _ in range(SETUP_PROBES):
        run.probe()
    if args.trace:
        metrics, details = measure_traced(args.workload, rng, args.seconds, run)
    else:
        metrics, details = measure(args.workload, rng, args.seconds, run)
    info["loadavg_end"] = loadavg()

    correct = run.failed == 0 and bool(metrics)
    details.update(
        attempted=run.attempted,
        failed=run.failed,
        failed_ratio=run.failed / max(run.attempted, 1),
        problems=run.problems,
    )
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": info, "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print("stamp " + json.dumps(info, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {metric:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": record["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
