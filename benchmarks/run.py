"""The hatilt benchmark.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root; the benchmark imports hatilt from ``src/``.
Workloads are described in ``benchmarks/README.md``.

Each timed section and each set-up probe runs in a fresh child process
(``child.py``) with ``HA_CACHE_DIR`` removed from its environment.  With
``--trace 0`` the run repeats a batch of ``PROBES_PER_CHILD`` set-up probes
and one timed child (at least ``MIN_CHILDREN`` times, then while the next
batch is expected to end within ``--seconds``) and prints the end-to-end
metrics, each time scaled to the reference host speed (``hostspeed.py``).
With ``--trace 1`` it repeats pairs of an untraced and a traced child on the
same input and prints the per-layer metrics, unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run metadata, which is also written with every child record to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metric_names
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

PROBES_PER_CHILD = 4
MIN_CHILDREN = 2
# a run must exit within 180 s; stop starting children that would end later
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
}


class BenchError(RuntimeError):
    pass


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "hatilt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.ha_cache_dir_was_set = self.env.pop("HA_CACHE_DIR", None) is not None

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, *extra, chunk=0):
        """Run one child process; returns its record with ``raw_setup_s`` and
        ``setup_s`` (spawn to first timed operation)."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("run deadline reached")
        cmd = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--chunk",
            str(chunk),
            *extra,
        ]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the run deadline: {cmd}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child exited with {proc.returncode}: {cmd}")
        record = json.loads(lines[-1])
        record["raw_setup_s"] = record["setup_s"] = record["t_ready"] - spawned
        return record

    def repeat(self, batch, minimum):
        """Run ``batch(i)`` at least ``minimum`` times, then again while the
        next batch, taking the median batch time so far, is expected to end
        within ``--seconds``; never start one that would pass the run deadline."""
        start = time.perf_counter()
        batches, took = [], []
        while True:
            t0 = time.perf_counter()
            batches.append(batch(len(batches)))
            took.append(time.perf_counter() - t0)
            typical = statistics.median(took)
            if typical > self.remaining():
                if len(batches) < minimum:
                    raise BenchError("too little time left for the minimum run")
                return batches
            elapsed = time.perf_counter() - start
            if len(batches) >= minimum and elapsed + typical > self.seconds:
                return batches


def end_to_end(runner):
    def batch(i):
        probes = [runner.child("--setup-only", "--host-speed") for _ in range(PROBES_PER_CHILD)]
        return probes, runner.child("--host-speed", chunk=i)

    batches = runner.repeat(batch, MIN_CHILDREN)
    probes = [p for b in batches for p in b[0]]
    children = [b[1] for b in batches]
    setups = probes + children
    for r in setups:
        # set-up time at the reference speed, less the sampler's time
        r["setup_s"] = (r["raw_setup_s"] - r["setup_spent"]) * r["setup_speed"]
    latencies = [x for c in children for x in c["latencies_ms"]]
    completed = sum(c["attempted"] - c["failed"] for c in children)
    metrics = {
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p99_ms": percentile(latencies, 0.99),
        "ops_per_s": completed / sum(c["wall_s"] for c in children),
    }
    p99 = metrics["op_p99_ms"]
    summary = {
        # the same figures as measured, before scaling to the reference speed
        "raw_wall_s": statistics.median(c["raw_wall_s"] for c in children),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups),
        "host_speed": statistics.median(c["wall_s"] / c["raw_wall_s"] for c in children),
        "host_samples": sum(r["host_samples"] for r in setups),
        "children": len(children),
        "setup_samples": len(setups),
        "requests": len(latencies),
        "requests_beyond_p99": sum(x > p99 for x in latencies),
    }
    units = END_TO_END_UNITS
    return children, {k: (v, units[k]) for k, v in metrics.items()}, summary


def per_layer(runner):
    spans = OUT_DIR / f"{runner.workload}-seed{runner.seed}-spans.jsonl"

    def pair(i):
        keep = ["--spans", str(spans)] if i == 0 else []
        return runner.child(), runner.child("--trace", *keep)

    pairs = runner.repeat(pair, 1)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    units = dict(layer_metric_names())
    counts = {k for k, u in units.items() if u != "s"}
    first = traced[0]["per_layer"]
    for other in traced[1:]:
        diff = [k for k in counts if other["per_layer"][k] != first[k]]
        if diff:
            raise BenchError(f"traced runs disagree on {sorted(diff)}")
    metrics = {}
    for name, unit in units.items():
        if name in counts:
            value = first[name]
        else:
            value = statistics.median(t["per_layer"][name] for t in traced)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(p["wall_s"] for p in plain),
        "s",
    )
    metrics["trace.unwrapped_share"] = (
        statistics.median(t["unwrapped_share"] for t in traced),
        "share",
    )
    summary = {
        "pairs": len(pairs),
        "hook_s": statistics.median(t["hook_s"] for t in traced),
        "spans": traced[0]["spans"],
        "missing_targets": traced[0]["missing_targets"],
    }
    return plain + traced, metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC_DIR / "hatilt" / "__init__.py").is_file():
        print(f"error: no hatilt source tree at {SRC_DIR}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "ha_cache_dir_unset": True,
        "ha_cache_dir_was_set": runner.ha_cache_dir_was_set,
    }
    OUT_DIR.mkdir(exist_ok=True)
    try:
        children, metrics, summary = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    meta.update(summary)
    meta["loadavg_end"] = os.getloadavg()
    meta["run_s"] = time.perf_counter() - runner.started
    meta["fail_share"] = failed / attempted
    meta["input"] = children[0]["input"]
    errors = [e for c in children for e in c["errors"]]
    for e in errors[:5]:
        print(f"failure: {e}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"meta": meta, "result": result, "children": children}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
