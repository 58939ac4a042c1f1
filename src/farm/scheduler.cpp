#include "src/farm/scheduler.hpp"

#include <memory>
#include <optional>
#include <span>

#include "src/common/check.hpp"
#include "src/farm/outcome_cache.hpp"
#include "src/farm/worker_pool.hpp"
#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/analysis/merge.hpp"

namespace dejavu::farm {

namespace {

// Classifies a finished (non-strict) replay. A first violation beginning
// with "final " means every mid-run symmetry check held and only the
// end-of-run behaviour verification mismatched.
std::string classify(const replay::ReplayResult& r) {
  if (r.verified) return "clean";
  if (r.stats.first_violation.rfind("final ", 0) == 0) return "diverged";
  return "violation";
}

}  // namespace

FarmRunResult run_farm(const TraceStore& store, const FarmOptions& opts) {
  DV_CHECK_MSG(opts.resolve != nullptr, "run_farm needs a workload resolver");
  std::vector<TraceRecord> records = store.list();

  FarmRunResult out;
  out.outcomes.resize(records.size());

  std::optional<OutcomeCache> cache;
  if (opts.cache) cache.emplace(store.root(), outcome_config_hash(opts));

  // Fan out: one replay per trace, each writing only its own slot. All
  // merging happens below, on this thread, in catalog order.
  parallel_for_ordered(opts.jobs, records.size(), [&](size_t i) {
    TraceOutcome& slot = out.outcomes[i];
    slot.record = records[i];
    try {
      // Resolution happens before the cache is consulted: a vanished
      // workload must surface as an "error" verdict even when a cached
      // outcome exists, and the resolved program's fingerprint guards the
      // hit (a changed workload re-keys to a replay, not a stale reuse).
      std::optional<bytecode::Program> prog =
          opts.resolve(records[i].workload);
      if (!prog.has_value()) {
        slot.verdict = "error";
        slot.error = "unknown workload '" + records[i].workload + "'";
        return;
      }
      uint64_t prog_fp = replay::fingerprint_program(*prog);
      if (cache.has_value()) {
        std::optional<TraceOutcome> hit = cache->load(records[i], prog_fp);
        if (hit.has_value()) {
          slot = std::move(*hit);
          return;
        }
      }
      replay::SymmetryConfig cfg;
      // Non-strict: a diverged trace yields a verdict and complete
      // artifacts instead of poisoning the whole fleet run.
      cfg.strict = false;
      for (const obs::ArtifactKind& k : obs::artifact_kinds())
        cfg.obs.*k.enable = true;
      cfg.obs.analysis_top_n = opts.top_n;
      // Flight tails resume from their embedded checkpoint inside the
      // replay session; a crash tail reproducing its recorded VmError is a
      // *faithful* replay, so the verdict comes from verification, same as
      // any other trace.
      replay::ReplayResult r =
          replay::replay_file(*prog, store.resolve(records[i]), {}, cfg);
      slot.verdict = classify(r);
      slot.violations = r.stats.symmetry_violations;
      slot.first_violation = r.stats.first_violation;
      slot.metrics = std::move(r.metrics);
      slot.analysis = std::move(r.analysis);
      if (cache.has_value()) cache->save(records[i], slot, prog_fp);
    } catch (const std::exception& e) {
      slot.verdict = "error";
      slot.error = e.what();
    }
  });

  // Fold fleet-wide, in catalog order (determinism contract).
  std::span<const obs::ArtifactKind> kinds = obs::artifact_kinds();
  std::vector<std::unique_ptr<obs::ArtifactMerger>> mergers;
  for (const obs::ArtifactKind& k : kinds) mergers.push_back(k.make_merger());
  for (const TraceOutcome& o : out.outcomes) {
    if (o.verdict == "error") continue;
    obs::merge_snapshots(&out.merged_metrics, o.metrics);
    for (size_t i = 0; i < mergers.size(); ++i) {
      const std::string& doc = o.analysis.*kinds[i].result;
      if (!doc.empty()) mergers[i]->add_json(doc);
    }
  }
  for (size_t i = 0; i < mergers.size(); ++i) {
    if (mergers[i]->runs() > 0)
      out.*kinds[i].merged = mergers[i]->artifact();
  }

  // Disk-budget enforcement: after the run (so this run's outcomes were
  // eligible to persist), LRU-evict the outcome cache down to the cap.
  if (opts.cache && opts.cache_max_bytes > 0) {
    lru_gc_outcome_cache(store.root(), outcome_config_hash(opts), 0,
                         opts.cache_max_bytes);
  }
  return out;
}

}  // namespace dejavu::farm
