#!/usr/bin/env python3
"""The repository benchmark: one workload, one process, one JSON verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_harness (perfbench/CMakeLists.txt, Release) into the build
directory named by $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root), runs it for one workload, checks its outputs, and prints as
the last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 the per-layer ones of a separate traced run. Two earlier stdout
lines record the host and the sample counts. The exit status is 0 only when
every correctness check passed:

  * conservation (completed + abandoned == submitted) on every replay;
  * every replay of an input reproduces its first replay bit for bit;
  * fleet_affinity: the merged report is bit-equal at 1 and N shard workers;
  * cluster_poisson / fleet_affinity: the fixed-seed reference replay equals
    the "mega 1M jobs" / "mega fleet 1M jobs" summary checked in as
    BENCH_ext_trace_replay.json / BENCH_ext_fleet_replay.json;
  * --trace 1: the traced replay's simulation outputs are bit-equal to the
    plain replay's.

Any replay that throws or misses a check counts toward `failed`.

setup_s and sim_jobs_per_s are host-speed calibrated (see calibrated_rate);
the samples line also prints the raw wall-clock figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("cluster_poisson", "fleet_affinity", "budget_churn")
HARNESS_TIMEOUT_S = 170

# The harness's calibration loop time on the reference host: setup_s and
# sim_jobs_per_s are in seconds of a host that runs the loop in exactly
# this long (a 4-vCPU Xeon takes ~7.5 ms).
REFERENCE_CALIBRATION_S = 0.010

# Reference gates: workload -> (checked-in summary file, section title).
REFERENCES = {
    "cluster_poisson": ("BENCH_ext_trace_replay.json", "mega 1M jobs"),
    "fleet_affinity": ("BENCH_ext_fleet_replay.json", "mega fleet 1M jobs"),
}

END_TO_END_UNITS = {
    "sim_jobs_per_s": "jobs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "sim_s",
    "sim_energy_mj": "MJ",
    "sim_mean_slowdown": "x",
    "replay_ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "gen.trace_s": "s",
    "train.s": "s",
    "train.solo_runs": "count",
    "train.corun_runs": "count",
    "fault.plan_s": "s",
    "fault.failures_injected": "count",
    "fault.retries": "count",
    "fault.jobs_killed": "count",
    "fault.jobs_shed": "count",
    "fault.node_failures": "count",
    "fault.power_emergencies": "count",
    "route.plan_s": "s",
    "route.decisions": "count",
    "route.ns_per_decision": "ns",
    "route.spill_frac": "frac",
    "route.skew": "x",
    "route.empty_clusters": "count",
    "fleet.t1_s": "s",
    "fleet.parallel_eff": "frac",
    "fleet.shard_s_max": "s",
    "fleet.shard_s_mean": "s",
    "fleet.merge_s": "s",
    "fleet.cpu_per_wall": "x",
    "engine.steps": "count",
    "engine.ns_per_step": "ns",
    "engine.budget_events": "count",
    "engine.peak_queue_depth": "count",
    "engine.phase.event_apply_s": "s",
    "engine.phase.dispatch_s": "s",
    "engine.phase.accounting_s": "s",
    "engine.phase.completion_s": "s",
    "sched.dispatches": "count",
    "sched.pair_frac": "frac",
    "sched.profile_runs": "count",
    "sched.dc_probes": "count",
    "sched.dc_hit_rate": "frac",
    "sched.dc_evictions": "count",
    "sched.memo_probes": "count",
    "sched.memo_hit_rate": "frac",
    "sched.queue_op_ns": "ns",
    "core.searches": "count",
    "core.allocate_ns": "ns",
    "core.search_s_est": "s",
    "gpusim.solves": "count",
    "gpusim.solve_us": "us",
    "gpusim.solve_s_est": "s",
    "mem.bytes_per_job": "B",
    "obs.trace_overhead_pct": "%",
    "ledger.attributed_frac": "frac",
    "ledger.unattributed_s": "s",
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    """Configure once, then (re)build the harness; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850)
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out / "perfbench_harness"


def host_info(harness_host):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": harness_host.get("compiler", "unknown"),
        "build_type": harness_host.get("build_type", "unknown"),
        "git_sha": sha or "unknown",
        "shard_workers": harness_host.get("shard_workers"),
    }


def reference_mismatches(workload, reference):
    """Compare the harness's reference replay with the checked-in summary;
    returns a list of human-readable mismatches (empty = equal)."""
    file_name, title = REFERENCES[workload]
    try:
        with open(ROOT / file_name, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot read {file_name}: {error}"]
    summary = None
    for scenario in document.get("scenarios", []):
        for section in scenario.get("sections", []):
            if section.get("title") == title and "summary" in section:
                summary = section["summary"]
    if summary is None:
        return [f"{file_name} has no '{title}' summary"]
    if reference is None:
        return ["the reference replay produced no outcome"]
    return [f"{key}: checked in {want!r}, replayed {reference.get(key)!r}"
            for key, want in summary.items() if reference.get(key) != want]


def quantile_summary(values):
    ordered = sorted(values)
    if len(ordered) < 2:
        return {"n": len(ordered), "median": ordered[0] if ordered else None}
    quartiles = statistics.quantiles(ordered, n=4)
    return {"n": len(ordered), "median": statistics.median(ordered),
            "q1": quartiles[0], "q3": quartiles[2],
            "min": ordered[0], "max": ordered[-1]}


def replay_rates(data):
    """Jobs per second of every replay the run made."""
    return [jobs / seconds
            for jobs, times in zip(data["member_jobs"], data["replay_s"])
            for seconds in times]


def best_of_rate(data):
    """Ensemble jobs over the sum of each input's fastest replay."""
    return (sum(data["member_jobs"]) /
            sum(min(times) for times in data["replay_s"]))


def calibrated_rate(data):
    """Ensemble jobs per reference second.

    Co-tenants on a shared host slow whole stretches of replays, at times
    a whole run, by up to ~1.6x, so neither the median nor the fastest
    replay stays put from run to run. The harness times a fixed loop just
    before and just after every replay, on as many threads as the replay
    runs (the slowest thread counts). Per session, the ensemble's replay
    time over the loop's time around those replays (one loop per replay) is
    the session's cost in units of the host's speed of the moment; the
    median over sessions, times REFERENCE_CALIBRATION_S per replay, is the
    ensemble's replay time on the reference host.
    """
    sessions = zip(zip(*data["replay_s"]), zip(*data["calibration_s"]))
    ratio = statistics.median(sum(walls) / sum(loops)
                              for walls, loops in sessions)
    members = len(data["member_jobs"])
    return (sum(data["member_jobs"]) /
            (ratio * members * REFERENCE_CALIBRATION_S))


def calibrated_setup_s(data):
    """setup_s: the median over sessions of set-up time over the loop's
    time around it, in reference seconds (set-up runs on one thread in
    every workload)."""
    return REFERENCE_CALIBRATION_S * statistics.median(
        setup / loop for setup, loop in
        zip(data["setup"]["total_s"], data["setup_calibration_s"]))


def end_to_end(data, failed):
    outcome = data["outcome"]
    attempted = data["attempted"]
    return {
        "sim_jobs_per_s": calibrated_rate(data),
        "setup_s": calibrated_setup_s(data),
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
        "sim_makespan_s": outcome["makespan_s"],
        "sim_energy_mj": outcome["energy_MJ"],
        "sim_mean_slowdown": outcome["mean_slowdown"],
        "replay_ok_frac": (attempted - failed) / attempted,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        harness = build()
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        log(f"cannot build the harness: {error}")
        return 2

    command = [str(harness), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 3
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"harness failed with exit status {run.returncode}")
        return 3
    data = json.loads(lines[-1])
    log(f"harness ran {time.monotonic() - started:.1f} s")

    checks = list(data.get("checks", []))
    failed = data["failed"]
    if args.trace == 0 and args.workload in REFERENCES:
        mismatches = reference_mismatches(args.workload, data.get("reference"))
        checks.append({"name": "reference_equals_checked_in_summary",
                       "ok": not mismatches, "detail": "; ".join(mismatches)})
        failed += 1 if mismatches else 0
    for check in checks:
        if not check["ok"]:
            log(f"check failed: {check['name']}: {check.get('detail', '')}")
    correct = failed == 0 and all(check["ok"] for check in checks)

    if args.trace == 0:
        values = end_to_end(data, failed)
        units = END_TO_END_UNITS
        loops = [s for member in data["calibration_s"] for s in member]
        samples = {"replay_jobs_per_s": quantile_summary(replay_rates(data)),
                   "best_of_wall_jobs_per_s": best_of_rate(data),
                   "calibration_loop_s": quantile_summary(loops),
                   "setup_wall_s": quantile_summary(data["setup"]["total_s"]),
                   "jobs_per_session": sum(data["member_jobs"])}
    else:
        values = data["layers"]
        units = PER_LAYER_UNITS
        samples = data["detail"]
    print("host: " + json.dumps(host_info(data.get("host", {}))))
    print("samples: " + json.dumps(samples))
    result = {
        "correct": correct,
        "attempted": data["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
