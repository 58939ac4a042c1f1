#!/usr/bin/env python3
"""End-to-end benchmark of the DejaVu replay platform.

Builds perfbench (the repo's libraries under src/ plus perfbench.cpp) with
CMake, runs one workload through record, replay, analysis, flight recording,
tail replay and time travel, checks every result, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compute --seed 7 --seconds 30 --trace 0

--workload all runs every workload in turn and prints one table of the
metrics, with each workload's failed operations against those attempted.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the run's spans as Chrome trace_event JSON).
--seed is the VirtualTimer seed; manifest.json names the default seed and a
held-out one for re-checking a claim. The build goes to $CARGO_TARGET_DIR
(default .bench_build), relative to the checkout root.

Each run makes a fixed number of calls per stage, scaled with --seconds
and sized to take about that long (perfbench.cpp, Plan), so `attempted`
and `failed` do not depend on the host's speed.
`failed` counts operations that failed: a replay that is not verified, a
tail whose output is not the suffix of the full replay, a crash, an error.
`correct` is false when an operation claimed success with a wrong result.
Failures are reported, never retried. A run in which a check never ran or
a metric is missing is invalid: it exits 1 and prints no result.
"""
import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# The checks each mode must run at least once.
CHECKS = {
    0: ["bare_runs", "record_unperturbed", "replay_verified",
        "analyze_verified", "flight_sealed", "tail_suffix",
        "step_back_position"],
    1: ["bare_runs", "record_unperturbed", "record_mem_unperturbed",
        "decode_nonempty", "replay_verified", "analyze_verified",
        "obs_verified", "flight_sealed", "tail_suffix", "goto_reaches_end",
        "step_back_position"],
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the perfbench binary; returns its path."""
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out)],
                ["cmake", "--build", str(out), "--target", "perfbench",
                 "-j", jobs]):
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return out / "perfbench"


def spec_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def spec_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def validate(spec, trace, res):
    """Returns the problems with one perfbench result (empty when valid)."""
    problems = []
    for m in spec_metrics(spec, trace):
        got = res["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, "
                            f"want {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} is not a finite number")
    for c in CHECKS[trace]:
        if res["checks"].get(c, 0) < 1:
            problems.append(f"check {c} never ran")
    if res["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def run(workload, seed, seconds, trace, tiny=False):
    """Builds and runs perfbench once.

    Returns the result line, perfbench's own JSON line and the problems
    that make the run invalid.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = build()
    work = build_dir() / "perfbench-work" / f"{workload}-seed{seed}-t{trace}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)] + (["--tiny"] if tiny else [])
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} exited {p.returncode}")
    res = json.loads(lines[-1])
    problems = validate(spec, trace, res)
    metrics = {m["name"]: res["metrics"][m["name"]]
               for m in spec_metrics(spec, trace)
               if m["name"] in res["metrics"]}
    line = {"correct": res["wrong"] == 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    return line, res, problems


def main():
    manifest = json.loads((HERE / "manifest.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(manifest["workloads"]) + ["all"])
    ap.add_argument("--seed", type=int, default=manifest["seeds"]["default"])
    ap.add_argument("--seconds", type=int, default=spec_seconds())
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    names = list(manifest["workloads"]) if args.workload == "all" \
        else [args.workload]
    lines = {}
    for name in names:
        line, res, problems = run(name, args.seed, args.seconds, args.trace)
        log(f"{name}: {res['failed']} of {res['attempted']} operations "
            f"failed ({res['wrong']} with a wrong result)")
        if problems:
            for pr in problems:
                log(f"INVALID: {pr}")
            return 1
        lines[name] = line
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    print(f"{'metric':34s} {'unit':9s}" + "".join(f"{n:>15s}" for n in names))
    for m in spec_metrics(json.loads((ROOT / "BENCHMARK.json").read_text()),
                          args.trace):
        print(f"{m['name']:34s} {m['unit']:9s}" + "".join(
            f"{lines[n]['metrics'][m['name']]['value']:15.5g}" for n in names))
    print(f"{'failed / attempted':44s}" + "".join(
        f"{str(lines[n]['failed']) + ' / ' + str(lines[n]['attempted']):>15s}"
        for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
