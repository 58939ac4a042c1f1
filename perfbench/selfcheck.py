#!/usr/bin/env python3
"""Quick self-check of the benchmark at tiny guest sizes (about a minute).

For every workload, in both modes, asserts that every metric BENCHMARK.json
names is printed with its unit, that every correctness check ran, that no
operation failed at these sizes, and that the traced run wrote its spans as
Chrome trace_event JSON. Also checks that manifest.json's layer table and
workload list agree with BENCHMARK.json.

    python3 perfbench/selfcheck.py
"""
import json
import sys

import run

SEED = 3


def check_manifest(spec, manifest):
    errors = []
    names = {w["name"] for w in spec["workloads"]}
    if names != set(manifest["workloads"]):
        errors.append(f"workloads differ: {sorted(names)} vs "
                      f"{sorted(manifest['workloads'])}")
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    in_layers = set()
    for layer, row in manifest["layers"].items():
        for m in row["metrics"]:
            if m not in per_layer:
                errors.append(f"layer {layer}: {m} is not a per_layer metric")
            in_layers.add(m)
        for moved in row["moves"]:
            if moved.split()[0] not in end_to_end and \
                    not moved.startswith("the floor"):
                errors.append(f"layer {layer}: moves unknown {moved}")
    for m in per_layer - in_layers:
        errors.append(f"per_layer metric {m} belongs to no layer")
    return errors


def check_spans(res):
    path = next((n.split(" in ", 1)[1] for n in res["notes"]
                 if "trace_event" in n), None)
    if path is None:
        return ["traced run named no spans file"]
    events = json.load(open(path))["traceEvents"]
    if not events:
        return ["spans file is empty"]
    runs = {e["args"]["run"] for e in events}
    ids = {e["args"]["id"] for e in events}
    errors = []
    if len(runs) != 1:
        errors.append(f"spans carry {len(runs)} run ids")
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0 or \
                (e["args"]["parent"] != -1 and e["args"]["parent"] not in ids):
            errors.append(f"malformed span {e}")
            break
    return errors


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((run.HERE / "manifest.json").read_text())
    errors = check_manifest(spec, manifest)
    for w in spec["workloads"]:
        for trace in (0, 1):
            line, res, problems = run.run(w["name"], SEED, 1, trace,
                                          tiny=True)
            where = f"{w['name']} --trace {trace}"
            errors += [f"{where}: {p}" for p in problems]
            if not line["correct"] or line["failed"] != 0:
                errors.append(f"{where}: {res['failed']} operations failed: "
                              f"{res['failures']}")
            if trace == 1:
                errors += [f"{where}: {e}" for e in check_spans(res)]
            print(f"selfcheck: {where}: {len(line['metrics'])} metrics, "
                  f"{len(res['checks'])} checks, {res['attempted']} ops",
                  file=sys.stderr)
    for e in errors:
        print(f"selfcheck: FAIL {e}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
