// The replay-time cache simulator: a configurable two-level set-associative
// LRU cache model fed by the guest heap read/write traffic the analyzer
// fan-out already delivers. Deterministic replay hands the simulator a
// perfect, perturbation-free memory trace -- the same idea as SynchroTrace-
// style trace-driven cache replayers, except the trace costs nothing to
// produce because it *is* the replayed execution.
//
// Addresses are synthetic but stable: every object gets a line-aligned base
// at first sight, in allocation order, and accesses map to base + slot*8.
// The copying collector's forwarding (on_heap_move) keeps identity exact, so
// a GC cannot change line assignments mid-run -- line sharing is a property
// of the guest's access pattern, not of collector timing.
//
// Reports per-site and per-type access/miss counts plus hot shared lines
// (same line touched by more than one thread): lines with >1 thread on >1
// distinct slot are the false-sharing candidates.
//
// Cost. Per access: one hash lookup of the object's live address and one
// of its synthetic line, plus the two cache levels' way scans. The site
// counter is found by a compare against the last site hit (a hash lookup
// of the (owner, method, pc) key on a miss), the type counter through the
// object's own pointer, and a line's distinct threads and slots are kept
// inline, so a new line costs no allocation beyond its map node. No string
// is built until artifact() renders the site labels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/analysis/analysis.hpp"

namespace dejavu::heap {
class TypeRegistry;
}

namespace dejavu::obs {

// Geometry for one set-associative level.
struct CacheLevelConfig {
  uint32_t size_bytes = 0;
  uint32_t ways = 0;
};

class CacheSimAnalyzer : public AnalysisObserver {
 public:
  CacheSimAnalyzer(uint32_t line_bytes, CacheLevelConfig l1,
                   CacheLevelConfig l2, uint32_t top_n = 10);

  const char* name() const override { return "cachesim"; }
  bool wants_memory() const override { return true; }
  // Instructions only pin each thread's current site for attribution.
  bool wants_instructions() const override { return true; }

  void on_run_begin(const vm::Vm& vm) override;
  void on_run_end(const RunInfo& info) override { run_ = info; }
  void on_instruction(const vm::InstrEvent& ev) override;
  void on_heap_alloc(const vm::AllocEvent& e) override;
  void on_heap_move(heap::Addr from, heap::Addr to) override;
  void on_heap_read(heap::Addr obj, uint32_t slot, int64_t value,
                    bool is_ref) override;
  void on_heap_write(heap::Addr obj, uint32_t slot, int64_t value,
                     bool is_ref) override;

  // dejavu-cachesim-v1 JSON.
  std::string artifact() const override;

  uint64_t accesses() const { return accesses_; }
  uint64_t l1_misses() const { return l1_misses_; }
  uint64_t l2_misses() const { return l2_misses_; }
  // Synthetic lines touched by >1 thread. Exposed for the false-sharing
  // corpus tests.
  struct SharedLine {
    uint64_t line = 0;      // synthetic line index
    uint64_t accesses = 0;
    uint32_t threads = 0;   // distinct tids
    uint32_t slots = 0;     // distinct slots touched (>1 => false sharing)
    std::string class_name; // class of the first object mapped to the line
  };
  std::vector<SharedLine> shared_lines() const;

 private:
  // One set-associative LRU level: tags[set * ways + way], age-ordered via
  // a per-way last-use tick (small `ways` makes linear probes cheap).
  struct Level {
    uint32_t sets = 0;
    uint32_t ways = 0;
    std::vector<uint64_t> tags;   // line index + 1; 0 = empty
    std::vector<uint64_t> ticks;  // last-use tick per way slot
    bool access(uint64_t line, uint64_t tick);  // true = hit
  };

  struct SiteStat {
    uint64_t accesses = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_misses = 0;
  };
  struct TypeStat {
    std::string name;
    uint64_t accesses = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_misses = 0;
  };
  // A set of distinct small integers of which only the size is read back.
  // The first N members are kept inline; lines are touched by few threads
  // and hold few slots, so most sets never allocate, and the rare spill
  // costs a line one pointer while it is unused.
  template <uint32_t N>
  class SmallSet {
   public:
    void insert(uint32_t v) {
      uint32_t* end = inline_ + std::min(n_, N);
      if (std::find(inline_, end, v) != end) return;
      if (n_ < N) {
        inline_[n_++] = v;
        return;
      }
      if (!spill_) spill_ = std::make_unique<std::vector<uint32_t>>();
      if (std::find(spill_->begin(), spill_->end(), v) != spill_->end())
        return;
      spill_->push_back(v);
      n_++;
    }
    uint32_t size() const { return n_; }

   private:
    uint32_t inline_[N];
    uint32_t n_ = 0;
    std::unique_ptr<std::vector<uint32_t>> spill_;  // members past the Nth
  };
  struct LineStat {
    uint64_t accesses = 0;
    uint32_t class_id = 0;  // first object mapped here
    SmallSet<2> tids;
    SmallSet<8> slots;  // a 64-byte line holds 8 slots
  };

  std::string class_name(uint32_t class_id) const;
  TypeStat& type_stat(uint32_t class_id);
  // Stable object id + synthetic base address for the object at `addr`.
  uint64_t id_at(heap::Addr addr, uint32_t slots_hint);
  void touch(heap::Addr obj, uint32_t slot, bool is_write);

  uint32_t line_bytes_;
  Level l1_, l2_;
  uint64_t tick_ = 0;

  const heap::TypeRegistry* types_ = nullptr;  // valid during the run only
  std::unordered_map<heap::Addr, uint64_t> live_;  // current addr -> id
  struct Obj {
    uint64_t base = 0;      // synthetic byte address, line-aligned
    uint32_t class_id = 0;  // 0 = pre-attach
    TypeStat* type = nullptr;  // by_type_[class_id], set at first use
  };
  std::vector<Obj> objects_;  // by stable id
  uint64_t next_base_ = 0;

  std::unordered_map<SiteKey, SiteStat, SiteKeyHash> by_site_;
  // The last site touched and its counters (map nodes are stable).
  SiteKey last_site_;
  SiteStat* last_site_stat_ = nullptr;
  // Class id (name resolved); node-based, so Obj::type stays valid.
  std::map<uint32_t, TypeStat> by_type_;
  std::unordered_map<uint64_t, LineStat> lines_;  // synthetic line index
  std::vector<SiteKey> last_instr_;               // by tid
  // Heap events carry no tid; the access happens inside the instruction the
  // current thread is executing, so the last InstrEvent's tid is exact.
  threads::Tid last_tid_ = 0;

  uint32_t l1_bytes_ = 0, l1_ways_ = 0, l2_bytes_ = 0, l2_ways_ = 0;

  uint64_t accesses_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t l1_misses_ = 0;
  uint64_t l2_misses_ = 0;
  uint32_t top_n_;
  RunInfo run_{};
};

}  // namespace dejavu::obs
