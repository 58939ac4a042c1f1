// The farm's per-trace outcome cache.
//
// A trace's replay outcome is a pure function of (trace bytes, analyzer
// configuration): replay is deterministic, and the analyzers observe a
// replay that is bit-for-bit the recorded execution. The cache exploits
// that purity: `farm run` persists each finished outcome under the store
// root, keyed by (content_hash, config hash), and later runs reload the
// outcome instead of replaying -- so re-running a 10k-trace fleet after
// ingesting one new recording replays exactly one trace.
//
// Layout: <store_root>/cache/<content_hash>-<config_hash>.json, one
// dejavu-farm-cache-v1 document per outcome. Entries are written via
// rename so a crashed run leaves whole files or nothing. "error" verdicts
// are never cached: they describe the environment (missing workload,
// unreadable file), not the trace.
//
// The determinism contract extends through the cache: a report built from
// cached outcomes is byte-identical to one built from fresh replays --
// tests/farm pins this.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/farm/scheduler.hpp"

namespace dejavu::farm {

inline constexpr const char* kFarmCacheSchema = "dejavu-farm-cache-v1";

// Hash of everything besides the trace bytes that shapes an outcome: the
// analyzer set, the top-N truncation, and the cache format version (bump
// the version string inside to invalidate the fleet's caches).
uint64_t outcome_config_hash(const FarmOptions& opts);

// One pass over <store_root>/cache: `current` entries carry `config_hash`
// in their filename suffix, `stale` ones carry some other hash (orphaned
// by an analyzer-set or format change -- they can never hit again under
// this configuration). Files that don't match the entry naming scheme are
// ignored.
struct CacheScan {
  uint64_t current = 0;
  uint64_t stale = 0;
};
CacheScan scan_outcome_cache(const std::string& store_root,
                             uint64_t config_hash);

// Deletes the stale entries and returns the pre-deletion scan, so callers
// can report "kept N, removed M". Missing cache directory is a no-op.
CacheScan gc_outcome_cache(const std::string& store_root,
                           uint64_t config_hash);

// LRU (by mtime) size cap for the current-config entries. Entries are
// ranked newest-first -- OutcomeCache::load touches an entry's mtime on
// every hit, so "recently used" means recently hit, not recently written --
// and evicted from the cold end until both caps hold. A cap of 0 means
// unlimited on that axis. Stale-config entries are untouched (that's
// gc_outcome_cache's job); missing cache directory is a no-op.
struct CacheLruResult {
  uint64_t kept = 0;
  uint64_t evicted = 0;
  uint64_t kept_bytes = 0;
  uint64_t evicted_bytes = 0;
};
CacheLruResult lru_gc_outcome_cache(const std::string& store_root,
                                    uint64_t config_hash,
                                    uint64_t max_entries, uint64_t max_bytes);

class OutcomeCache {
 public:
  // `store_root` is the TraceStore root; the cache lives in its "cache/"
  // subdirectory (created lazily on first save).
  OutcomeCache(std::string store_root, uint64_t config_hash);

  // The cached outcome for (record.content_hash, config), or nullopt on a
  // miss. `program_fingerprint` is the fingerprint of the program the
  // caller would replay against; an entry recorded under a different
  // program is a miss (stale workload), never a reuse. A malformed or
  // truncated entry, or one holding an artifact obs::check_artifact
  // rejects, is also a miss -- the farm falls back to replaying.
  std::optional<TraceOutcome> load(const TraceRecord& record,
                                   uint64_t program_fingerprint) const;

  // Persists one finished outcome. Callers must not pass verdict "error".
  // Thread-safe across distinct records (content hashes are unique within
  // a store, so concurrent workers never write the same entry).
  void save(const TraceRecord& record, const TraceOutcome& outcome,
            uint64_t program_fingerprint) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string entry_path(const TraceRecord& record) const;

  std::string dir_;
  uint64_t config_hash_;
};

}  // namespace dejavu::farm
