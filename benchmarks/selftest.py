"""Tests of the benchmark itself, on small inputs:

    python3 -m pytest benchmarks/selftest.py

They are not part of the repository's test suite, which does not collect
this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from child import import_hatilt  # noqa: E402
from hostspeed import REF_KERNEL_S, HostSpeed, kernel  # noqa: E402
from tracer import layer_metric_names  # noqa: E402
from workloads import make  # noqa: E402


def run_bench(*args, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def traced(workload, hash_seed):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
        hash_seed=hash_seed,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


COUNTS = [name for name, unit in layer_metric_names() if unit != "s"]


@pytest.mark.parametrize("workload", ["verify_small", "hom_stream_small", "combinatorial_small"])
def test_traced_counts_repeat_across_hash_seeds(workload):
    first = traced(workload, "1")
    second = traced(workload, "2")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert set(first) == {name for name, _ in layer_metric_names()} | {
        "trace.overhead_s",
        "trace.unwrapped_share",
    }


def test_calls_through_names_bound_in_verify_are_traced():
    m = traced("verify_small", "1")
    claims = [k for k in m if k.startswith("verify.claim_") and k.endswith(".calls")]
    assert len(claims) == 19 and all(m[k] == 1 for k in claims)
    assert m["fdalg.iso_test.calls"] >= 1  # verify binds iso_test by name
    assert m["complexes.gldim.calls"] >= 3
    assert m["fdalg.presentation_data.repeat_ratio"] > 1


def test_layers_untouched_by_a_workload_report_zero_calls():
    hom = traced("hom_stream_small", "1")
    comb = traced("combinatorial_small", "1")
    assert all(v == 0 for k, v in hom.items() if k.startswith("fdalg.") and k.endswith(".calls"))
    assert hom["complexes.minimal_proj_resolution.calls"] > 0
    untouched = ("exactmat.", "fdalg.", "complexes.")
    assert all(
        v == 0 for k, v in comb.items() if k.startswith(untouched) and k.endswith(".calls")
    )


def test_end_to_end_metrics_match_the_benchmark_file():
    proc = run_bench("--workload", "verify_small", "--seed", "3", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_host_speed_scales_by_the_samples_near_a_stretch():
    speed = HostSpeed()
    # the kernel took twice the reference time until t = 10, then the reference time
    speed.starts = [1.0, 3.0, 5.0, 11.0, 13.0]
    speed.costs = [2 * REF_KERNEL_S] * 3 + [REF_KERNEL_S] * 2
    speed._spent = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert speed.spent(0.0, 6.0) == pytest.approx(0.3)
    assert speed.scaled(0.0, 6.0) == pytest.approx((6.0 - 0.3) * 0.5)
    assert speed.scaled(10.5, 14.0) == pytest.approx(3.5 - 0.2)
    assert speed.speed(0.0, 14.0) == pytest.approx((3 * 0.5 + 2 * 1.0) / 5)
    # a stretch with no sample nearby falls back to all samples
    assert speed.speed(100.0, 101.0) == speed.speed(0.0, 14.0)
    assert kernel() == 7


def test_escaped_errors_and_wrong_answers_count_as_failed(monkeypatch):
    import_hatilt()
    import hatilt.complexes
    import hatilt.verify

    def broken(*args, **kwargs):
        raise ValueError("injected")

    claims = make("combinatorial_small")
    claims.setup(0, 0)
    monkeypatch.setattr(hatilt.verify, "run_claims", broken)
    out = claims.run()
    assert out.failed == out.attempted == len(claims.names)
    assert len(out.requests) == 1

    stream = make("hom_stream_small")
    stream.setup(0, 0)
    monkeypatch.setattr(hatilt.complexes, "hom_complex_dim", lambda X, Y, k=0: 2)
    out = stream.run()
    assert out.failed == out.attempted == len(out.requests) == 40


def test_fails_without_the_program_source():
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
