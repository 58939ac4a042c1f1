// The happens-before data-race detector: vector clocks over the replayed
// run's synchronization events, DJIT+-style read/write shadow state over
// its heap traffic.
//
// Happens-before edges come only from synchronization:
//   * monitor release -> next acquire of the same monitor (kExit/kWaitBegin
//     fold the thread's clock into the monitor's; kEnterAcquired/kWaitEnd
//     fold the monitor's into the thread's), notify folding into the
//     monitor like a release;
//   * spawn (parent -> child's first instruction) and join (target's exit
//     -> joiner's continuation), from ThreadEvent;
//   * synchronization-kind cross-lane order events of a multi-lane replay
//     (monitor hand-off, notify, join wake, interrupt) -- the lane merge's
//     own edges, already field-verified by the engine before fan-out.
//
// The scheduler's dispatch order is deliberately NOT an edge: the replayed
// interpreter is a deterministic uniprocessor, so treating dispatches as
// synchronization would totally order every access and hide every race.
// What the detector reports is exactly what could have raced under some
// other legal schedule of the same synchronization structure -- and since
// it runs at replay time, the recorded execution never felt it (§1).
//
// Object identity is stable across copying-GC moves (same live-address map
// as HeapChurnAnalyzer), so shadow state follows relocated objects.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/analysis/analysis.hpp"

namespace dejavu::obs {

class RaceDetector : public AnalysisObserver {
 public:
  RaceDetector() = default;

  const char* name() const override { return "races"; }
  bool wants_instructions() const override { return true; }
  bool wants_monitors() const override { return true; }
  bool wants_memory() const override { return true; }
  bool wants_threads() const override { return true; }

  void on_run_begin(const vm::Vm& vm) override;
  void on_run_end(const RunInfo& info) override { run_ = info; }
  void on_instruction(const vm::InstrEvent& ev) override;
  void on_monitor_event(const vm::MonitorEvent& ev) override;
  void on_thread_event(const vm::ThreadEvent& ev) override;
  void on_cross_lane(const threads::CrossLaneEvent& e) override;
  void on_switch(threads::Tid from, threads::Tid to,
                 threads::SwitchReason reason, uint64_t instr_index) override;
  void on_heap_alloc(const vm::AllocEvent& e) override;
  void on_heap_move(heap::Addr from, heap::Addr to) override;
  void on_heap_read(heap::Addr obj, uint32_t slot, int64_t value,
                    bool is_ref) override;
  void on_heap_write(heap::Addr obj, uint32_t slot, int64_t value,
                     bool is_ref) override;

  // dejavu-races-v1 JSON.
  std::string artifact() const override;

 private:
  using VectorClock = std::vector<uint64_t>;  // indexed by tid
  // Index into sites_: a SiteKey interned on first sight. Labels are built
  // only when the artifact is rendered.
  using SiteId = uint32_t;
  static constexpr SiteId kBootSite = UINT32_MAX;  // pre-attach allocation

  enum class RaceKind : uint8_t { kWriteRead, kWriteWrite, kReadWrite };

  // One side of an access, as reported: who, where, when.
  struct Access {
    uint32_t tid = 0;
    SiteId site = 0;
    int32_t line = -1;
    uint64_t clock = 0;  // the accessor's own vector-clock component
    uint64_t instr = 0;  // Vm::instr_count() at the access
  };

  // Shadow state per (stable object id, slot).
  struct Shadow {
    Access last_write;
    bool has_write = false;
    // Reads since the last write, one per thread (cleared by a write that
    // happens-after them all; a racing write reports against each).
    std::vector<Access> reads;
  };

  struct ObjInfo {
    uint32_t class_id = 0;     // 0 = pre-attach (boot image)
    SiteId site = kBootSite;   // allocation site
  };

  // A deduplicated race: keyed by (kind, first site, second site) -- the
  // static pair -- with the earliest dynamic instance as representative.
  struct RaceKey {
    RaceKind kind{};
    SiteId first = 0, second = 0;
    bool operator==(const RaceKey&) const = default;
  };
  struct RaceKeyHash {
    size_t operator()(const RaceKey& k) const {
      return (size_t(k.first) * 0x9e3779b97f4a7c15ull ^ k.second) * 3 +
             size_t(k.kind);
    }
  };
  struct RaceAgg {
    uint64_t seq = 0;       // order of first detection among all races
    uint32_t class_id = 0;  // the raced object's (0 = boot image)
    SiteId alloc_site = kBootSite;
    uint32_t slot = 0;
    Access first, second;
    uint64_t first_instr = 0;  // earliest second-access instr_index
    uint64_t count = 0;        // dynamic instances folded into this entry
  };

  struct SiteRef {
    SiteKey key;
    int32_t line = -1;
    uint64_t instr_index = 0;
  };

  std::string class_name(uint32_t class_id) const;
  uint64_t id_at(heap::Addr addr);
  SiteId intern_site(uint32_t tid);
  uint64_t& clock_of(uint32_t tid);
  void vc_join(VectorClock& into, const VectorClock& from);
  // a happened-before the current point of `tid` iff a.clock <= vc[a.tid].
  bool ordered(const Access& a, const VectorClock& vc) const;
  Access current_access(uint32_t tid);
  void report(RaceKind kind, uint64_t obj_id, uint32_t slot,
              const Access& first, const Access& second);

  const heap::TypeRegistry* types_ = nullptr;  // valid during the run only
  std::vector<VectorClock> vc_;                // per thread
  std::map<uint32_t, VectorClock> lock_vc_;    // per monitor
  std::map<uint32_t, VectorClock> exit_vc_;    // per exited thread
  std::vector<SiteRef> last_instr_;            // by tid
  uint32_t cur_tid_ = 0;  // tid of the most recent InstrEvent (0 = none yet)

  std::vector<SiteKey> sites_;  // by SiteId
  std::unordered_map<SiteKey, SiteId, SiteKeyHash> site_ids_;
  std::vector<ObjInfo> objects_;              // by stable id
  std::unordered_map<heap::Addr, uint64_t> live_;  // current addr -> id
  std::unordered_map<uint64_t, Shadow> shadow_;    // (id<<32)|slot
  std::unordered_map<uint32_t, std::string> class_names_;  // id -> name copy

  std::unordered_map<RaceKey, RaceAgg, RaceKeyHash> races_;
  uint64_t checks_ = 0;  // accesses examined (reporting only)
  RunInfo run_{};
};

}  // namespace dejavu::obs
