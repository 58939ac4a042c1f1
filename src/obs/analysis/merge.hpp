// Fleet-wide artifact mergers for the replay farm.
//
// Each merger folds any number of documents of one analysis kind (per-run,
// as the analyzers in this directory emit them, or already merged) into one
// document of the same schema plus a "merged_runs" count. add_json checks
// each document strictly first (check_artifact, artifacts.hpp): a document
// that is not JSON, is of another kind or misses a key throws VmError and
// folds nothing. Merging is a pure multiset fold: counters sum, maxima max,
// first-observation indices min, verified ANDs, post_violation ORs -- so
// the result is associative and order-independent, and a merged document
// fed back into add_json() contributes exactly its constituents
// (merge-of-merged == merge-of-all). tests/farm asserts both properties
// over shuffled trace subsets.
//
// Entry lists are emitted in full (sorting is determined by the aggregate
// multiset, never truncated here); top-N selection is presentation-layer
// work.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace dejavu::obs {

struct JsonValue;

// What every merger shares: the checked entry point, and the header fields
// every kind carries.
class ArtifactMerger {
 public:
  virtual ~ArtifactMerger() = default;
  // Checks one document of this merger's kind, per-run or merged, and
  // folds it into the aggregate.
  void add_json(const std::string& json);
  // The merged document.
  virtual std::string artifact() const = 0;
  uint64_t runs() const { return runs_; }

 protected:
  explicit ArtifactMerger(const char* schema) : schema_(schema) {}
  ArtifactMerger(const ArtifactMerger&) = default;
  ArtifactMerger(ArtifactMerger&&) = default;
  ArtifactMerger& operator=(const ArtifactMerger&) = default;
  ArtifactMerger& operator=(ArtifactMerger&&) = default;
  // Folds the kind's own fields of a checked document.
  virtual void fold(const JsonValue& doc) = 0;

  uint64_t runs_ = 0;
  uint64_t run_instr_count_ = 0;
  bool verified_ = true;
  bool post_violation_ = false;

 private:
  const char* schema_;
};

class ProfileMerger : public ArtifactMerger {
 public:
  ProfileMerger() : ArtifactMerger("dejavu-profile-v1") {}
  std::string artifact() const override;

 private:
  void fold(const JsonValue& doc) override;

  // (pc, op, line) -> count. Keying by the full triple keeps the fold a
  // pure multiset sum even if two inputs disagree about a pc's opcode.
  using PcMap = std::map<std::tuple<uint64_t, std::string, int64_t>, uint64_t>;
  struct MethodAgg {
    uint64_t instructions = 0;
    uint64_t yield_points = 0;
    PcMap pcs;
  };

  std::map<std::string, MethodAgg> methods_;
  uint64_t total_instructions_ = 0;
  uint64_t total_yield_points_ = 0;
  uint64_t run_logical_clock_ = 0;
};

class LocksMerger : public ArtifactMerger {
 public:
  LocksMerger() : ArtifactMerger("dejavu-locks-v1") {}
  std::string artifact() const override;

 private:
  void fold(const JsonValue& doc) override;

  struct MonitorAgg {
    uint64_t acquires = 0;
    uint64_t recursive_acquires = 0;
    uint64_t contended_blocks = 0;
    uint64_t hold_total = 0;
    uint64_t hold_max = 0;
    uint64_t block_total = 0;
    uint64_t block_max = 0;
    uint64_t waits = 0;
    uint64_t wait_total = 0;
    uint64_t wait_max = 0;
    uint64_t notify_ops = 0;
    uint64_t woken = 0;
  };
  struct CycleAgg {
    std::vector<uint64_t> tids;
    std::vector<uint64_t> monitors;
    uint64_t first_instr = 0;  // min across runs
    uint64_t count = 0;
  };

  std::map<uint64_t, MonitorAgg> monitors_;
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, uint64_t> wait_edges_;
  std::set<std::pair<uint64_t, uint64_t>> inversions_;
  std::map<std::string, CycleAgg> cycles_;
};

class RacesMerger : public ArtifactMerger {
 public:
  RacesMerger() : ArtifactMerger("dejavu-races-v1") {}
  // The merged dejavu-races-v1 document. Races dedup by their static
  // (kind, first site, second site) pair -- dynamic counts sum, the
  // earliest-seen instance (min first_instr, then field order) is the
  // representative, so the fold stays associative and order-independent.
  std::string artifact() const override;

 private:
  void fold(const JsonValue& doc) override;

  struct RaceAgg {
    std::string cls;
    std::string alloc_site;
    uint64_t slot = 0;
    uint64_t first_instr = 0;
    uint64_t first_tid = 0, second_tid = 0;
    int64_t first_line = -1, second_line = -1;
    uint64_t first_clock = 0, second_clock = 0;
    uint64_t count = 0;
    // Representative selection must not depend on merge order: prefer the
    // smaller first_instr, then the lexicographically smaller field tuple.
    std::tuple<uint64_t, std::string, std::string, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t>
    rep_key() const {
      return {first_instr, cls, alloc_site, slot,
              first_tid, second_tid, first_clock, second_clock};
    }
  };

  // (kind, first site, second site) -> aggregate.
  std::map<std::tuple<std::string, std::string, std::string>, RaceAgg>
      races_;
  uint64_t dynamic_count_ = 0;
  uint64_t checks_ = 0;
};

class HeapMerger : public ArtifactMerger {
 public:
  HeapMerger() : ArtifactMerger("dejavu-heap-v1") {}
  // The merged dejavu-heap-v1 document. Per-object identities are not
  // comparable across traces, so the fleet's hot_objects view re-keys them
  // by (class, allocation site) and sums heat per key.
  std::string artifact() const override;

 private:
  void fold(const JsonValue& doc) override;

  struct TypeAgg {
    uint64_t count = 0;
    uint64_t slots = 0;
  };

  struct HotAgg {
    uint64_t objects = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
  };

  std::map<std::string, TypeAgg> by_type_;  // keyed by class name
  std::map<std::string, uint64_t> sites_;
  // (class, site) -> summed heat of every hot object reported under it.
  std::map<std::pair<std::string, std::string>, HotAgg> hot_;
  uint64_t allocs_ = 0;
  uint64_t alloc_slots_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t gc_moves_ = 0;
};

class CritPathMerger : public ArtifactMerger {
 public:
  CritPathMerger() : ArtifactMerger("dejavu-critpath-v1") {}
  // The merged dejavu-critpath-v1 document. Per-run critical-path segment
  // lists are trace-local (instruction indices don't compare across
  // traces), so the fleet view keeps the mergeable aggregates: per-tid wall
  // breakdowns, per-method critical-path attribution, and the edge-kind
  // histogram.
  std::string artifact() const override;

 private:
  void fold(const JsonValue& doc) override;

  struct WallAgg {
    uint64_t running = 0;
    uint64_t runnable = 0;
    uint64_t blocked = 0;
    uint64_t waiting = 0;
  };

  std::map<uint64_t, WallAgg> threads_;      // keyed by tid
  std::map<std::string, uint64_t> methods_;  // critical-path instrs
  std::map<std::string, uint64_t> edges_;    // edge kind -> hop count
  uint64_t switches_ = 0;
  uint64_t path_instrs_ = 0;
};

class CacheSimMerger : public ArtifactMerger {
 public:
  CacheSimMerger() : ArtifactMerger("dejavu-cachesim-v1") {}
  // The merged dejavu-cachesim-v1 document. Synthetic line indices are
  // trace-local, so shared-line reports are re-keyed by class
  // ("shared_by_class"); geometry fields fold with min() (merging documents
  // simulated under different geometries is legal but not meaningful).
  std::string artifact() const override;

 private:
  void fold(const JsonValue& doc) override;

  struct SiteAgg {
    uint64_t accesses = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_misses = 0;
  };
  struct SharedAgg {
    uint64_t lines = 0;
    uint64_t accesses = 0;
    uint64_t false_sharing = 0;  // entries with >1 distinct slot
  };

  std::map<std::string, SiteAgg> by_site_;
  std::map<std::string, SiteAgg> by_type_;   // keyed by class name
  std::map<std::string, SharedAgg> shared_;  // keyed by class name
  uint64_t accesses_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t l1_misses_ = 0;
  uint64_t l2_misses_ = 0;
  uint64_t shared_line_count_ = 0;
  uint64_t false_sharing_lines_ = 0;
  static constexpr uint64_t kUnset = ~uint64_t(0);
  uint64_t line_bytes_ = kUnset;
  uint64_t l1_bytes_ = kUnset;
  uint64_t l1_ways_ = kUnset;
  uint64_t l2_bytes_ = kUnset;
  uint64_t l2_ways_ = kUnset;
};

}  // namespace dejavu::obs
