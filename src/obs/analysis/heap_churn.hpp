// The heap-churn analyzer: allocation volume per type and per allocation
// site, plus read/write heat per object, with a top-N hot-object report.
//
// Object identity is stable across the whole run: each allocation gets a
// stable id, and a live-address map follows the copying collector's
// forwarding (on_heap_move) so post-GC accesses accrue to the same object.
// Per-object heat is therefore exact under both collectors.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/analysis/analysis.hpp"

namespace dejavu::obs {

class HeapChurnAnalyzer : public AnalysisObserver {
 public:
  explicit HeapChurnAnalyzer(uint32_t top_n = 10) : top_n_(top_n) {}

  const char* name() const override { return "heap"; }
  bool wants_memory() const override { return true; }
  // Subscribes to instructions only to remember each thread's current
  // execution point, which becomes the allocation site label.
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

  // dejavu-heap-v1 JSON.
  std::string artifact() const override;

  uint64_t alloc_count() const { return allocs_; }
  // Objects with distinct identities (allocations seen + pre-attach objects
  // discovered through accesses). Exposed for the GC-identity tests.
  uint64_t tracked_objects() const { return objects_.size(); }
  uint64_t gc_moves() const { return gc_moves_; }

 private:
  struct TypeStat {
    std::string name;
    uint64_t count = 0;
    uint64_t slots = 0;
  };
  struct ObjStat {
    uint32_t class_id = 0;     // 0 = allocated before the analyzer attached
    heap::Addr alloc_addr = 0; // address at allocation (stable label)
    // Allocation site; points at the by_site_ map key (node-based, so
    // stable). nullptr = pre-attach object, no known site.
    const SiteKey* site = nullptr;
    uint64_t reads = 0;
    uint64_t writes = 0;
  };
  std::string class_name(uint32_t class_id) const;
  // Stable id for the object currently at `addr` (created on first sight).
  uint64_t id_at(heap::Addr addr);

  const heap::TypeRegistry* types_ = nullptr;  // valid during the run only
  std::unordered_map<uint32_t, TypeStat> by_type_;
  // Allocations per site; labels are rendered by artifact().
  std::unordered_map<SiteKey, uint64_t, SiteKeyHash> by_site_;
  std::vector<ObjStat> objects_;             // indexed by stable id
  std::unordered_map<heap::Addr, uint64_t> live_;  // current addr -> id
  std::vector<SiteKey> last_instr_;  // by tid
  uint64_t allocs_ = 0;
  uint64_t alloc_slots_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t gc_moves_ = 0;
  uint32_t top_n_;
  RunInfo run_{};
};

}  // namespace dejavu::obs
