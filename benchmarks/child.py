"""One workload process: set up, run the timed section once, report.

``run.py`` starts one fresh process per set-up probe and per timed section,
so that peak memory and lazily built state belong to a single run.  The
process prints one JSON line: ``t_ready`` (the ``time.perf_counter`` reading
at the first timed operation, comparable with the parent's clock on Linux),
and, unless ``--setup-only``, the outcome of the timed section.

With ``--host-speed`` the process samples the host's speed from its start
(``hostspeed.py``) and also reports its times scaled to the reference speed:
``setup_spent`` and ``setup_speed`` for the parent to scale the set-up time,
and the scaled ``wall_s`` and request latencies.  The raw timed-section wall
time is ``raw_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
# the host's speed this long after set-up still describes it; a set-up
# probe keeps sampling that long
SETTLE_S = 0.25


def import_hatilt():
    """Import hatilt from the source tree next to the benchmark, never from
    an installed copy."""
    sys.path.insert(0, str(SRC_DIR))
    import hatilt

    if Path(hatilt.__file__).resolve().parent != SRC_DIR / "hatilt":
        raise ImportError(f"hatilt imported from {hatilt.__file__}, not from {SRC_DIR}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunk", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file for the spans of a traced run")
    parser.add_argument("--host-speed", action="store_true", help="scale times to the reference speed")
    args = parser.parse_args(argv)

    speed = HostSpeed().start() if args.host_speed else None
    import_hatilt()
    import workloads

    workload = workloads.make(args.workload)
    workload.setup(args.seed, args.chunk)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    t_ready = time.perf_counter()
    record = {"t_ready": t_ready}
    if not args.setup_only:
        start, cpu_start = time.perf_counter(), time.process_time()
        outcome = workload.run()
        end = time.perf_counter()
        record.update(
            wall_s=end - start,
            raw_wall_s=end - start,
            cpu_s=time.process_time() - cpu_start,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            input=workload.input_stats,
            attempted=outcome.attempted,
            failed=outcome.failed,
            errors=outcome.errors,
            latencies_ms=[(e - s) * 1000.0 for s, e in outcome.requests],
        )
    elif speed is not None:
        # samples right after set-up describe its end as well
        while time.perf_counter() < t_ready + SETTLE_S:
            pass
    if speed is not None:
        speed.stop()
        record.update(
            setup_spent=speed.spent(0.0, t_ready),
            setup_speed=speed.speed(0.0, t_ready, margin=SETTLE_S),
            host_samples=len(speed.costs),
        )
        if not args.setup_only:
            record["wall_s"] = speed.scaled(start, end, margin=0.0)
            record["latencies_ms"] = [speed.scaled(s, e) * 1000.0 for s, e in outcome.requests]
    if args.setup_only:
        print(json.dumps(record))
        return 0

    if tracer is not None:
        record["per_layer"] = tracer.per_layer()
        # share of the program's time (the timed section less the hooks)
        # that falls outside every wrapped call
        hook_s = tracer.hook_s()
        record["hook_s"] = hook_s
        record["unwrapped_share"] = max(0.0, 1.0 - tracer.covered_s() / (end - start - hook_s))
        record["missing_targets"] = tracer.missing
        record["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans, start)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
