#!/usr/bin/env python3
"""The autosec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper_scale|case_studies|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the engine from
source into .bench_build/ (Release); every run then generates its inputs
from the seed, runs the workload in a fresh runner process, checks each
answer against perfbench/references/, and prints one metric per line
followed by the result as one JSON line. --trace 0 reports the end-to-end
metrics; --trace 1 is the separate traced run and reports the per-layer
metrics. Scratch files and per-run result files go to .bench_work/.

    python3 perfbench/run.py --record WORKLOAD

re-records WORKLOAD's reference answers over its whole input pool.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402
import selfcheck  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
RUNNER = BUILD / "perfbench_runner"
RUN_LIMIT_S = 170.0
# The percentile of the run's set-up samples reported as setup_s.
SETUP_QUANTILE = 0.10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "success_fraction": "fraction",
}

# Stages of the traced library pipeline, in pipeline order.
STAGES = ("automotive.transform", "symbolic.compile", "symbolic.explore", "ctmc.chain",
          "ctmc.uniformize", "ctmc.steady_state", "csl.solve")
SOLVE_KINDS = ("cumulative_reward", "bounded_until", "steady_prob", "reach_reward")
SERVE_BUCKETS = (("analyze", "disk_hit"), ("analyze", "session_hit"), ("analyze", "miss"),
                 ("sweep", "disk_hit"), ("sweep", "session_hit"), ("sweep", "miss"),
                 ("check", "disk_hit"), ("check", "session_hit"), ("check", "miss"),
                 ("diagnose", "disk_hit"), ("diagnose", "none"),
                 ("status", "none"))

PER_LAYER = {
    "automotive.transform_ms": "ms",
    "symbolic.compile_ms": "ms",
    "symbolic.compile_cpu_s": "s",
    "symbolic.compile_peak_mb": "MB",
    "symbolic.explore_s": "s",
    "symbolic.explore_cpu_s": "s",
    "symbolic.explore_peak_mb": "MB",
    "symbolic.explore_states_per_s": "1/s",
    "symbolic.bytes_per_state": "count",
    "ctmc.chain_s": "s",
    "ctmc.chain_cpu_s": "s",
    "ctmc.chain_peak_mb": "MB",
    "ctmc.uniformize_s": "s",
    "ctmc.uniformize_cpu_s": "s",
    "ctmc.uniformize_peak_mb": "MB",
    "ctmc.steady_state_s": "s",
    "ctmc.steady_state_cpu_s": "s",
    "ctmc.steady_state_peak_mb": "MB",
    "csl.solve_s": "s",
    "csl.solve_cpu_s": "s",
    "csl.solve_peak_mb": "MB",
    **{f"csl.solve.{kind}_s": "s" for kind in SOLVE_KINDS},
    "linalg.spmv_per_s": "1/s",
    "linalg.spmv_gb_per_s_computed": "GB/s",
    "linalg.spmv_working_set_mb": "MB",
    "mdp.check_strategy_ms": "ms",
    "service.parse_us": "us",
    **{f"service.latency_ms.{op}.{cache}": "ms" for op, cache in SERVE_BUCKETS},
    "service.requests": "count",
    "service.session_cache_hit_ratio": "ratio",
    "service.session_cache_lookups": "count",
    "service.disk_cache_hit_ratio": "ratio",
    "service.disk_cache_lookups": "count",
    "service.explores_per_request": "count",
    "symbolic.states": "count",
    "symbolic.transitions": "count",
    "ctmc.matrix_vector_products": "count",
    "solver.stationary_iterations": "count",
    "trace.stage_sum_s": "s",
    "trace.peak_from_clear_refs": "count",
}


def build():
    """Configure (once) and build the engine and runner from source."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(step)}")


def load_references(workload):
    path = HERE / "references" / f"{workload}.json"
    with open(path) as handle:
        return json.load(handle)


def run_workload(workload, files, seconds, trace, deadline):
    """Write the inputs, run the workload in its own runner process, return its JSON."""
    run_dir = WORK / f"{workload}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    for name, text in files.items():
        (run_dir / "inputs" / name).write_text(text)
    command = [str(RUNNER), "--workload", workload, "--inputs", "inputs",
               "--out", "runner.json", "--repo", str(ROOT), "--seconds", str(seconds),
               "--trace", str(trace)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        result = subprocess.run(command, cwd=run_dir, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: runner did not finish within the run limit")
    if result.returncode != 0:
        raise SystemExit(f"{workload}: runner exited with {result.returncode}")
    with open(run_dir / "runner.json") as handle:
        return json.load(handle)


def verdict(workload, data, references):
    """(attempted, failed, explanations) of one run."""
    answers = data["answers"]
    bad = bench.check_answers(workload, answers, references["answers"])
    ops = data["ops"]
    failed = sum(1 for op in ops if not op[3] or op[4] in bad)
    lib = [i for i, (key, _) in enumerate(answers) if key.startswith("lib|")]
    attempted = len(ops) + len(lib)
    failed += sum(1 for i in lib if i in bad)
    explanations = [bad[i] for i in sorted(bad)][:20]
    if workload == "paper_scale" and data["trace"]:
        meta = references["meta"]
        for count in ("states", "transitions"):
            if data[count] != meta[count]:
                failed += 1
                explanations.append(f"{count}: explored {data[count]}, expected {meta[count]}")
    return attempted, failed, explanations


def end_to_end(workload, data, failed, attempted):
    latencies_ms = [op[2] * 1000.0 for op in data["ops"]]
    # A pass (one run over the command list, or one serve episode) is the
    # unit of work; report the median pass.
    walls = data["pass_wall_s"]
    rates = [ops / wall for ops, wall in zip(data["pass_ops"], walls)]
    return {
        # A single thread on a shared host runs at one of two speeds about
        # 1.7x apart, switching every few tenths of a second, and the share
        # of time at each moves from run to run. The low percentile is the
        # set-up's time at the faster speed.
        "setup_s": bench.percentile(data["setup_s"], SETUP_QUANTILE),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(data["pass_cpu_s"]),
        "peak_rss_mb": data["peak_rss_mb"],
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": bench.percentile(latencies_ms, 0.50),
        "latency_p95_ms": bench.percentile(latencies_ms, 0.95),
        "success_fraction": 1.0 - bench.failed_fraction(failed, attempted),
    }


def per_layer(data):
    spans = data["spans"]

    def of(name):
        return [span for span in spans if span["name"] == name]

    def total(name, field="wall_s"):
        return sum(span[field] for span in of(name))

    def median_ms(name):
        walls = [span["wall_s"] * 1000.0 for span in of(name)]
        return statistics.median(walls) if walls else 0.0

    def peak(name):
        return max((span["peak_mb"] for span in of(name)), default=0.0)

    metrics = {
        "automotive.transform_ms": median_ms("automotive.transform"),
        "symbolic.compile_ms": median_ms("symbolic.compile"),
        "symbolic.compile_cpu_s": total("symbolic.compile", "cpu_s"),
        "symbolic.compile_peak_mb": peak("symbolic.compile"),
    }
    for stage in STAGES[2:]:
        metrics[f"{stage}_s"] = total(stage)
        metrics[f"{stage}_cpu_s"] = total(stage, "cpu_s")
        metrics[f"{stage}_peak_mb"] = peak(stage)
    explore_s = metrics["symbolic.explore_s"]
    metrics["symbolic.explore_states_per_s"] = data["states"] / explore_s if explore_s else 0.0
    # Engine bytes per state of the largest model: the pipeline's peak RSS
    # above the RSS the process had before its first stage.
    if spans and data["largest_states"]:
        base = min(span["rss_before_mb"] for span in spans)
        top = max(span["peak_mb"] for span in spans)
        metrics["symbolic.bytes_per_state"] = (top - base) * 1024 * 1024 / data["largest_states"]
    else:
        metrics["symbolic.bytes_per_state"] = 0.0
    for kind in SOLVE_KINDS:
        metrics[f"csl.solve.{kind}_s"] = total(f"csl.solve.{kind}")
    spmv = data["spmv"]
    metrics["linalg.spmv_per_s"] = spmv["steps_per_s"]
    metrics["linalg.spmv_gb_per_s_computed"] = spmv["steps_per_s"] * spmv["bytes_per_step"] / 1e9
    metrics["linalg.spmv_working_set_mb"] = spmv["bytes_per_step"] / (1024 * 1024)
    metrics["mdp.check_strategy_ms"] = median_ms("mdp.check_strategy")

    ops = data["ops"]
    parse = data["parse_s"]
    metrics["service.parse_us"] = statistics.median(parse) * 1e6 if parse else 0.0
    for op_name, cache in SERVE_BUCKETS:
        bucket = [op[2] * 1000.0 for op in ops
                  if op[0] == op_name and bench.cache_class(op[1]) == cache]
        metrics[f"service.latency_ms.{op_name}.{cache}"] = (
            statistics.median(bucket) if bucket else 0.0)
    metrics["service.requests"] = len(ops)
    session = data["session_cache"]
    lookups = session["hits"] + session["misses"]
    metrics["service.session_cache_hit_ratio"] = session["hits"] / lookups if lookups else 0.0
    metrics["service.session_cache_lookups"] = lookups
    disk = [op[1].partition("/")[0] for op in ops]
    disk_lookups = sum(1 for state in disk if state in ("hit", "miss"))
    metrics["service.disk_cache_hit_ratio"] = (
        disk.count("hit") / disk_lookups if disk_lookups else 0.0)
    metrics["service.disk_cache_lookups"] = disk_lookups
    metrics["service.explores_per_request"] = (
        sum(op[5] for op in ops) / len(ops) if ops else 0.0)
    metrics["symbolic.states"] = data["states"]
    metrics["symbolic.transitions"] = data["transitions"]
    metrics["ctmc.matrix_vector_products"] = data["registry"]["ctmc.matrix_vector_products"]
    metrics["solver.stationary_iterations"] = data["registry"]["solver.stationary_iterations"]
    metrics["trace.stage_sum_s"] = sum(total(stage) for stage in STAGES[1:])
    metrics["trace.peak_from_clear_refs"] = 1 if data["clear_refs"] else 0
    return metrics


def print_stage_table(workload, data, metrics):
    """The traced pipeline per stage, and its sum against the untraced run."""
    print(f"{'stage':<22}{'wall s':>12}{'cpu s':>12}{'peak MB':>12}")
    for stage in STAGES:
        spans = [span for span in data["spans"] if span["name"] == stage]
        print(f"{stage:<22}{sum(s['wall_s'] for s in spans):>12.4f}"
              f"{sum(s['cpu_s'] for s in spans):>12.4f}"
              f"{max((s['peak_mb'] for s in spans), default=0.0):>12.1f}")
    source = "VmHWM reset via /proc/self/clear_refs" if data["clear_refs"] else \
        "ru_maxrss (clear_refs not writable: peaks are process-lifetime maxima)"
    print(f"peak MB source: {source}")
    untraced = WORK / f"{workload}.untraced.json"
    stage_sum = metrics["trace.stage_sum_s"]
    if untraced.exists():
        wall = json.loads(untraced.read_text())["wall_s"]
        print(f"compile..solve stage sum {stage_sum:.4f} s against untraced wall_s {wall:.4f} s "
              f"(last --trace 0 run in this checkout)")
    else:
        print(f"compile..solve stage sum {stage_sum:.4f} s (no untraced run in this "
              f"checkout yet)")


def measure(args):
    selfcheck.quick()
    build()
    # The limit covers the run, not the first build of a fresh checkout.
    deadline = time.monotonic() + RUN_LIMIT_S
    references = load_references(args.workload)
    files = bench.input_files(args.workload, args.seed)
    data = run_workload(args.workload, files, args.seconds, args.trace, deadline)
    attempted, failed, explanations = verdict(args.workload, data, references)
    for line in explanations:
        print(f"FAILED: {line}")
    if args.trace:
        metrics = per_layer(data)
        units = PER_LAYER
        print_stage_table(args.workload, data, metrics)
    else:
        metrics = end_to_end(args.workload, data, failed, attempted)
        units = END_TO_END
        (WORK / f"{args.workload}.untraced.json").write_text(
            json.dumps({"wall_s": metrics["wall_s"]}))
    machine = dict(data["machine"])
    machine["working_set_mb_computed"] = (
        references["meta"]["spmv"]["bytes_per_step"] / (1024 * 1024))
    machine["working_set_matrix"] = {key: references["meta"]["spmv"][key]
                                     for key in ("rows", "nonzeros")}
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "failures": explanations, **result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))


def record(workload):
    """Answer the workload's whole pool once, untraced and traced, and write
    the reference file."""
    build()
    files = bench.pool_files(workload)
    answers = {}
    meta = {}
    for trace in (0, 1):
        data = run_workload(workload, files, 0, trace, None)
        for key, text in data["answers"]:
            if text.startswith("error: "):
                raise SystemExit(f"{key}: {text[:300]}")
            for entry, value in bench.flatten_answer(workload, key, text).items():
                if entry in answers and not bench.same_answer(answers[entry], value):
                    raise SystemExit(f"{entry}: answers disagree within one recording")
                answers[entry] = value
        if trace:
            meta = {"states": data["states"], "transitions": data["transitions"],
                    "largest_states": data["largest_states"], "spmv": {
                        key: data["spmv"][key] for key in ("rows", "nonzeros", "bytes_per_step")}}
    path = HERE / "references" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"tolerance": bench.TOLERANCE, "meta": meta, "answers": answers},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} reference answers to {path}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", choices=bench.WORKLOADS)
    args = parser.parse_args()
    if args.record:
        record(args.record)
    elif args.workload:
        measure(args)
    else:
        parser.error("--workload or --record is required")


if __name__ == "__main__":
    main()
