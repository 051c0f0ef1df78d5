#!/usr/bin/env python3
"""Self-checks of the benchmark's own arithmetic and input generation.

    python3 perfbench/selfcheck.py

run.py calls quick() before every run; the full check adds the pool
coverage and BENCHMARK.json consistency checks.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402


def expect(condition, message):
    if not condition:
        raise SystemExit(f"self-check failed: {message}")


def check_inputs():
    """Same seed: byte-identical inputs. Another seed: different inputs, for
    every workload whose inputs the seed draws (paper_scale's model is fixed)."""
    for workload in bench.WORKLOADS:
        first = bench.input_files(workload, 11)
        expect(first == bench.input_files(workload, 11),
               f"{workload}: seed 11 generated two different input sets")
        if workload != "paper_scale":
            expect(first != bench.input_files(workload, 12),
                   f"{workload}: seeds 11 and 12 generated the same inputs")


def check_arithmetic():
    samples = list(range(1, 101))
    expect(bench.percentile(samples, 0.5) == 50.5, "p50 of 1..100")
    expect(abs(bench.percentile(samples, 0.95) - 95.05) < 1e-12, "p95 of 1..100")
    expect(bench.percentile([7.0], 0.95) == 7.0, "percentile of one sample")
    expect(bench.percentile([3, 1, 2], 0.0) == 1 and bench.percentile([3, 1, 2], 1.0) == 3,
           "percentile end points")
    expect(bench.failed_fraction(0, 40) == 0.0, "failed_fraction 0/40")
    expect(bench.failed_fraction(3, 12) == 0.25, "failed_fraction 3/12")
    try:
        bench.failed_fraction(0, 0)
        expect(False, "failed_fraction accepted 0 attempted")
    except ValueError:
        pass
    expect(bench.same_answer(0.5, 0.5 + 1e-9), "1e-9 apart is the same answer")
    expect(not bench.same_answer(0.5, 0.5 + 1e-7), "1e-7 apart is another answer")
    expect(bench.same_answer(1e6, 1e6 * (1 + 5e-9)), "relative tolerance above 1")
    expect(bench.same_answer(None, None) and not bench.same_answer(None, 0.0),
           "null compares only with null")
    expect(bench.same_answer("m  integrity  4.59%  0.17", "m integrity 4.59% 0.17"),
           "rendered tables compare token by token")
    expect(not bench.same_answer("4.59%", "4.60%"), "rendered numbers must agree")
    expect(bench.cache_class("hit/none") == "disk_hit" and
           bench.cache_class("miss/hit") == "session_hit" and
           bench.cache_class("miss/miss") == "miss" and
           bench.cache_class("none/none") == "none", "cache classes")


def quick():
    check_inputs()
    check_arithmetic()


def check_pool_coverage():
    """Every operation a seed can draw has its answers in the pool."""
    pool = set(map(tuple, bench.case_studies_pool()))
    for seed in range(50):
        for argv in bench.case_studies_commands(seed):
            expect(tuple(argv) in pool, f"case_studies seed {seed}: {argv} not in pool")
    identities = {bench.request_key(request) for request in bench.serve_pool()}
    for seed in range(5):
        for stream in bench.serve_streams(seed):
            for request in stream:
                if request["op"] == "sweep":
                    expect(set(request["values"]) <= set(bench.SWEEP_VALUES),
                           f"sweep values {request['values']} outside the pool")
                    request = dict(request, values=list(bench.SWEEP_VALUES))
                expect(bench.request_key(request) in identities,
                       f"serve_mix seed {seed}: {request} not in pool")


def check_benchmark_file():
    import run

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(bench.GATED_WORKLOADS),
           "BENCHMARK.json workloads differ from bench.GATED_WORKLOADS")


def main():
    quick()
    check_pool_coverage()
    check_benchmark_file()
    print("self-check ok")


if __name__ == "__main__":
    main()
