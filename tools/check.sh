#!/usr/bin/env bash
# CI-style full check: build and test the normal configuration, then build
# and test again under ASan+UBSan (-DDEJAVU_SANITIZE=ON). The sanitized run
# matters most for the trace-corruption and fuzz tests, which walk
# deliberately hostile v4 container input through the chunk reader and run
# randomized record/replay campaigns through the differential oracle.
#
# The suite is sliced by ctest label: `unit` (module gtests), `fuzz`
# (bounded schedule-space fuzz campaigns, iteration budget via
# DEJAVU_FUZZ_ITERS), `smoke` (one-iteration bench runs), `obs`
# (telemetry-symmetry tests; also run under the sanitizers), `analysis`
# (the happens-before race detector's ground-truth corpus + merger
# property tests; also run under the sanitizers).
#
# Usage: tools/check.sh [jobs|obs]
#   tools/check.sh        full check
#   tools/check.sh obs    observability slice only: obs-labelled tests in
#                         both builds, emit every telemetry artifact kind
#                         (incl. critpath/cachesim + an A/B --diff and the
#                         seeded false-sharing corpus) and schema-check
#                         them, farm smoke with outcome-cache GC, flight
#                         smoke (crash-tail seal -> replay -> analyze ->
#                         diff -> debug, also under ASan), refresh
#                         BENCH_smoke.json, and the end-to-end benchmark's
#                         self-check (perfbench/selfcheck.py)
set -euo pipefail

cd "$(dirname "$0")/.."

check_obs_slice() {
  local jobs="$1"
  echo "== obs slice: telemetry symmetry + artifact schemas =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target test_obs test_analysis \
    bench_smoke dejavu obs_schema_check
  ctest --test-dir build --output-on-failure -j "$jobs" -L obs
  ctest --test-dir build --output-on-failure -j "$jobs" -L analysis

  local art=build/obs-artifacts
  mkdir -p "$art"
  ./build/tools/dejavu record clock_mixer --seed 5 --out "$art/cm.djv" \
    --metrics-json "$art/record_metrics.json" \
    --timeline "$art/record_timeline.json" > "$art/cm_record.txt"
  ./build/tools/dejavu replay clock_mixer "$art/cm.djv" \
    --metrics-json "$art/replay_metrics.json" \
    --timeline "$art/replay_timeline.json" >/dev/null
  ./build/tools/dejavu analyze clock_mixer "$art/cm.djv" \
    --out-dir "$art/analysis" >/dev/null
  ./build/tools/dejavu record counter_race --seed 5 --out "$art/cr.djv" \
    >/dev/null
  ./build/tools/dejavu analyze counter_race "$art/cr.djv" --races \
    --out-dir "$art/races-analysis" >/dev/null
  ./build/bench/bench_smoke --json BENCH_smoke.json \
    --timeline "$art/bench_timeline.json" >/dev/null
  ./build/tools/obs_schema_check metrics \
    "$art/record_metrics.json" "$art/replay_metrics.json"
  ./build/tools/obs_schema_check timeline \
    "$art/record_timeline.json" "$art/replay_timeline.json" \
    "$art/bench_timeline.json"
  ./build/tools/obs_schema_check bench BENCH_smoke.json
  ./build/tools/obs_schema_check auto \
    "$art/analysis/profile.json" "$art/analysis/locks.json" \
    "$art/analysis/heap.json" "$art/analysis/critpath.json" \
    "$art/analysis/cachesim.json"
  ./build/tools/obs_schema_check critpath "$art/analysis/critpath.json"
  ./build/tools/obs_schema_check cachesim "$art/analysis/cachesim.json"
  ./build/tools/dejavu report "$art/analysis/critpath.json" >/dev/null
  ./build/tools/dejavu report "$art/analysis/cachesim.json" >/dev/null
  ./build/tools/obs_schema_check races "$art/races-analysis/races.json"
  ./build/tools/dejavu report "$art/races-analysis/races.json" >/dev/null
  ./build/tools/obs_schema_check collapsed "$art/analysis/profile.collapsed"

  # A/B diff: two recordings of the same workload at different seeds; the
  # delta report must render (exit 0 = both replays verified).
  ./build/tools/dejavu record clock_mixer --seed 9 --out "$art/cm9.djv" \
    >/dev/null
  ./build/tools/dejavu analyze clock_mixer --diff "$art/cm.djv" \
    "$art/cm9.djv" >/dev/null

  # The seeded false-sharing corpus: the cache simulator must flag the hot
  # line (false_sharing_lines >= 1 in the artifact).
  ./build/tools/dejavu record false_sharing --seed 7 --out "$art/fs.djv" \
    >/dev/null
  ./build/tools/dejavu analyze false_sharing "$art/fs.djv" \
    --out-dir "$art/fs-analysis" >/dev/null
  ./build/tools/obs_schema_check cachesim "$art/fs-analysis/cachesim.json"
  grep -Eq '"false_sharing_lines":0[,}]' "$art/fs-analysis/cachesim.json" && {
    echo "false_sharing corpus: hot line not flagged"; exit 1; } || true

  echo "== obs slice: farm smoke (ingest -> run --jobs 4 -> report) =="
  # Record a small fleet (4 workloads x 5 seeds), ingest it into a sharded
  # store, run the farm at --jobs 1 and --jobs 4, and require byte-identical
  # reports -- the worker-pool determinism contract, end to end through the
  # CLI -- then schema-check the report and every shard manifest.
  local farm="$art/farm"
  rm -rf "$farm"
  mkdir -p "$farm/traces"
  for w in clock_mixer lock_pingpong counter_race alloc_churn; do
    for seed in 1 2 3 4 5; do
      ./build/tools/dejavu record "$w" --seed "$seed" \
        --out "$farm/traces/$w-$seed.djv" >/dev/null
      ./build/tools/dejavu farm ingest --store "$farm/store" \
        --workload "$w" --seed "$seed" "$farm/traces/$w-$seed.djv" >/dev/null
    done
  done
  ./build/tools/dejavu farm ls --store "$farm/store" >/dev/null
  ./build/tools/dejavu farm run --store "$farm/store" --jobs 1 \
    --out "$farm/report-j1.json" >/dev/null
  ./build/tools/dejavu farm run --store "$farm/store" --jobs 4 \
    --out "$farm/report-j4.json" >/dev/null
  cmp "$farm/report-j1.json" "$farm/report-j4.json"
  ./build/tools/dejavu farm report "$farm/report-j4.json" >/dev/null
  ./build/tools/obs_schema_check farm-report "$farm/report-j4.json"
  ./build/tools/obs_schema_check farm-manifest \
    "$farm/store"/shard-*/manifest.jsonl

  # Outcome-cache GC: the --jobs runs above populated the cache; trim it to
  # 5 entries and re-run -- the report must not change (cold entries are
  # recomputed, hot ones reused).
  ./build/tools/dejavu farm gc --store "$farm/store" --max-entries 5 \
    >/dev/null
  ./build/tools/dejavu farm run --store "$farm/store" --jobs 4 \
    --out "$farm/report-gc.json" >/dev/null
  cmp "$farm/report-j4.json" "$farm/report-gc.json"

  echo "== obs slice: flight smoke (crash-tail seal -> replay -> analyze) =="
  # Always-on flight ring: the crasher workload divides by zero mid-run; the
  # recorder must have written zero trace bytes beforehand, then seal a
  # checkpointed tail that replays (reproducing the recorded crash at the
  # recorded instruction), analyzes, and describes itself through the
  # dejavu-flight-v1 artifact.
  ./build/tools/dejavu record crasher --flight 2 --flight-epoch 1 --seed 5 \
    --out "$art/crash_tail.djv" >/dev/null
  ./build/tools/dejavu replay crasher "$art/crash_tail.djv" >/dev/null
  ./build/tools/dejavu analyze crasher "$art/crash_tail.djv" \
    --out-dir "$art/flight-analysis" >/dev/null
  ./build/tools/dejavu flight info "$art/crash_tail.djv" \
    --json "$art/flight_info.json" >/dev/null
  ./build/tools/obs_schema_check flight "$art/flight_info.json"
  ./build/tools/obs_schema_check auto "$art/flight_info.json"
  ./build/tools/dejavu report "$art/crash_tail.djv" >/dev/null
  # Every replay entry point resumes the tail: the A/B diff must verify
  # both sides, and the debugger must run it to a verified end.
  ./build/tools/dejavu analyze crasher --diff "$art/crash_tail.djv" \
    "$art/crash_tail.djv" > "$art/tail_diff.txt"
  [[ "$(grep -c '(verified)' "$art/tail_diff.txt")" == 2 ]]
  printf 'finish\nquit\n' | ./build/tools/dejavu debug crasher \
    "$art/crash_tail.djv" > "$art/tail_debug.txt"
  grep -q 'replay verified exact' "$art/tail_debug.txt"
  # A full recording survives the guest dying too: the crash ends the run,
  # the file is sealed, and its replay reproduces the crash exactly.
  ./build/tools/dejavu record crasher --seed 5 --out "$art/crash_full.djv" \
    > "$art/crash_full_record.txt"
  grep -q 'guest CRASHED' "$art/crash_full_record.txt"
  ./build/tools/dejavu replay crasher "$art/crash_full.djv" \
    > "$art/crash_full_replay.txt"
  grep -q 'reproduced recorded crash' "$art/crash_full_replay.txt"
  grep -q 'replay verified exact' "$art/crash_full_replay.txt"
  # A host-clock recording (HostEnvironment, --realtime) of the same
  # workload: its clock reads are not scripted, so it shows what the v6
  # clock prediction saves on a real clock. It must verify and replay
  # exact; both recordings' trace bytes per 1000 instructions are logged.
  ./build/tools/dejavu record clock_mixer --realtime \
    --out "$art/cm_host.djv" > "$art/cm_host_record.txt"
  ./build/tools/dejavu verify "$art/cm_host.djv" >/dev/null
  ./build/tools/dejavu replay clock_mixer "$art/cm_host.djv" \
    > "$art/cm_host_replay.txt"
  grep -q 'replay verified exact' "$art/cm_host_replay.txt"
  bytes_per_kinstr() {  # <trace> <record output>
    local instrs
    instrs="$(sed -n 's/^instrs=\([0-9]*\) .*/\1/p' "$2")"
    awk -v b="$(stat -c %s "$1")" -v i="$instrs" \
      'BEGIN { printf "%.1f B/kinstr (%d B, %d instrs)", b * 1000 / i, b, i }'
  }
  echo "clock_mixer trace: scripted clock $(bytes_per_kinstr "$art/cm.djv" \
    "$art/cm_record.txt"), host clock $(bytes_per_kinstr \
    "$art/cm_host.djv" "$art/cm_host_record.txt")"
  # A v6 trace stores clock reads as per-lane deltas and its heap hash
  # covers those bytes, so `convert` refuses to re-encode it in the
  # absolute-valued v5 container.
  if ./build/tools/dejavu convert "$art/cm.djv" "$art/cm.v5.djv" --v5 \
      >/dev/null 2>&1; then
    echo "dejavu convert re-encoded a v6 trace as v5"; exit 1
  fi
  # A flight tail's events streams begin mid-stream, at its checkpoint:
  # dump decodes the tail's clock deltas from the checkpoint's predictors.
  ./build/tools/dejavu record clock_mixer --seed 5 --flight 2 \
    --flight-epoch 4 --out "$art/cm_tail.djv" >/dev/null
  ./build/tools/dejavu dump "$art/cm_tail.djv" >/dev/null
  ./build/tools/dejavu replay clock_mixer "$art/cm_tail.djv" >/dev/null
  # `convert` copies chunks through the one writer: the committed v3 golden
  # becomes exactly the v4 golden. A recording to a destination that is
  # not a regular file still succeeds.
  ./build/tools/dejavu convert tests/replay/golden/clock_mixer.v3.djv \
    "$art/converted.v4.djv" >/dev/null
  cmp "$art/converted.v4.djv" tests/replay/golden/clock_mixer.v4.djv
  ./build/tools/dejavu record clock_mixer --seed 5 --out /dev/null >/dev/null
  # A flag the subcommand does not take is refused.
  if ./build/tools/dejavu record counter_race --lane 4 \
      --out "$art/lane_typo.djv" >/dev/null 2>&1; then
    echo "dejavu record accepted the unknown flag --lane"; exit 1
  fi
  # Tails flow through the farm unchanged: ingest flags the record, ls shows
  # it, and a bounded-cache run replays it via its embedded checkpoint.
  ./build/tools/dejavu farm ingest --store "$farm/store" --workload crasher \
    --seed 5 "$art/crash_tail.djv" >/dev/null
  ./build/tools/dejavu farm ls --store "$farm/store" > "$farm/ls.txt"
  grep -q 'flight tail' "$farm/ls.txt"
  ./build/tools/dejavu farm run --store "$farm/store" --jobs 2 \
    --cache-max-bytes 100000 --out "$farm/report-flight.json" >/dev/null
  ./build/tools/obs_schema_check farm-report "$farm/report-flight.json"

  echo "== obs slice: end-to-end benchmark self-check (perfbench) =="
  # Tiny-size run of every workload through the benchmark: verified
  # replays and analyses, non-empty artifacts, tail output a suffix of the
  # full replay's, sealed flight rings.
  python3 perfbench/selfcheck.py

  echo "== obs slice: sanitized (build-asan/, ASan+UBSan) =="
  cmake -B build-asan -S . -DDEJAVU_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$jobs" --target test_obs test_analysis \
    bench_smoke dejavu obs_schema_check
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -L obs
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -L analysis
  # Flight smoke under ASan: the seal path (snapshot encode, ring reframe,
  # container write) and the resume path (checkpoint decode, mid-stream
  # attach) both walk raw byte buffers -- exactly what ASan is for.
  local asan_art=build-asan/obs-artifacts
  mkdir -p "$asan_art"
  ./build-asan/tools/dejavu record crasher --flight 2 --flight-epoch 1 \
    --seed 5 --out "$asan_art/crash_tail.djv" >/dev/null
  ./build-asan/tools/dejavu replay crasher "$asan_art/crash_tail.djv" \
    >/dev/null
  ./build-asan/tools/dejavu analyze crasher "$asan_art/crash_tail.djv" \
    --out-dir "$asan_art/flight-analysis" >/dev/null
}

if [[ "${1:-}" == "obs" ]]; then
  check_obs_slice "${2:-$(nproc)}"
  echo "== obs checks passed =="
  exit 0
fi

JOBS="${1:-$(nproc)}"

echo "== normal build (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS" -L unit
DEJAVU_FUZZ_ITERS="${DEJAVU_FUZZ_ITERS:-200}" \
  ctest --test-dir build --output-on-failure -j "$JOBS" -L fuzz
ctest --test-dir build --output-on-failure -j "$JOBS" -L smoke

check_obs_slice "$JOBS"

echo "== sanitized build (build-asan/, ASan+UBSan) =="
cmake -B build-asan -S . -DDEJAVU_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L unit
# Sanitizers slow each case ~10x; shrink the campaign, keep the coverage.
DEJAVU_FUZZ_ITERS="${DEJAVU_ASAN_FUZZ_ITERS:-50}" \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L fuzz

echo "== all checks passed =="
