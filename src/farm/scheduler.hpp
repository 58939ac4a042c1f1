// The farm scheduler: replay + analysis across a trace fleet.
//
// run_farm lists a TraceStore's catalog (deterministic order), fans one
// replay-with-analyzers per trace across the worker pool -- each task owns
// a fresh DejaVuEngine, Vm and heap, so traces share nothing -- and folds
// the per-trace results on the caller thread in catalog order: metrics via
// obs::merge_snapshots, and each analysis artifact kind through its
// merger (obs::artifact_kinds(): profile, locks, heap, races, critpath,
// cachesim).
//
// Because replay of a given trace is deterministic and the fold order is
// the catalog order, the merged results are byte-identical for any --jobs
// value; tests/farm pins jobs=1 vs jobs=4 equality, and compares a farm
// replay's per-trace behaviour against a direct replay_file of the same
// trace to prove the fan-out perturbs nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/model.hpp"
#include "src/farm/trace_store.hpp"
#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/metrics.hpp"
#include "src/replay/session.hpp"

namespace dejavu::farm {

struct FarmOptions {
  unsigned jobs = 1;
  uint32_t top_n = 10;  // per-run analyzer truncation + report top-N
  // Reuse per-trace outcomes persisted under <store>/cache by earlier runs
  // with the same analyzer configuration (see outcome_cache.hpp). The
  // merged report is byte-identical either way; --no-cache turns it off.
  bool cache = true;
  // Outcome-cache disk budget (--cache-max-bytes; 0 = unlimited). Enforced
  // after the run by LRU-evicting current-config entries down to the cap
  // (stale-config entries were already GC'd). Deliberately excluded from
  // outcome_config_hash: shrinking the budget must not re-key the cache.
  uint64_t cache_max_bytes = 0;
  // Maps a catalog entry's workload label to its program. Called once per
  // trace on a worker thread, so it must be thread-safe (the CLI's
  // workload factories are pure). Returning nullopt marks the trace
  // verdict "error" without aborting the fleet.
  std::function<std::optional<bytecode::Program>(const std::string&)> resolve;
};

// One trace's replay outcome.
struct TraceOutcome {
  TraceRecord record;
  // "clean"     replay verified exact
  // "diverged"  final-behaviour mismatch only (mid-run symmetry held)
  // "violation" mid-run symmetry violation detected
  // "error"     replay could not run (unknown workload, fingerprint
  //             mismatch, unreadable file, ...)
  std::string verdict;
  uint64_t violations = 0;
  std::string first_violation;
  std::string error;  // verdict "error" only
  bool cached = false;  // outcome reloaded from the store's outcome cache
  obs::MetricsSnapshot metrics;
  obs::AnalysisResults analysis;
};

// The merged_* members (obs::MergedArtifacts) hold each kind's fleet
// document.
struct FarmRunResult : obs::MergedArtifacts {
  std::vector<TraceOutcome> outcomes;  // catalog (store.list()) order
  obs::MetricsSnapshot merged_metrics;
};

FarmRunResult run_farm(const TraceStore& store, const FarmOptions& opts);

}  // namespace dejavu::farm
