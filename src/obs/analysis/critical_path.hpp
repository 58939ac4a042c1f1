// The critical-path / blocked-time analyzer: per-thread walls of
// instruction-clock time split into running / runnable-but-preempted /
// blocked-on-monitor / waiting, plus a cross-thread dependency walk that
// extracts the execution's critical path as an ordered segment list.
//
// Everything is measured in instruction-count units of the replayed run:
// deterministic replay makes the breakdown exact (every switch is observed,
// not sampled) and perturbation-free (the analyzer only consumes the
// engine's existing observer fan-out; it installs no hooks of its own).
//
// The dependency walk starts at the final running segment and follows, at
// each segment boundary, the edge that made the segment's thread runnable:
// a monitor hand-off (release -> contended acquire), a notify -> wait-end
// pair, a spawn, a join completion (joined thread's termination), a
// cross-lane order event, or -- when no explicit wake happened -- the
// scheduler's switch from the previously running thread. The resulting
// ordered segment list with per-method attribution answers "what chain of
// work bounded this run's length".
//
// Cost. Per instruction: one compare against the last method hit and a
// counter increment (a short scan of the segment's method list on a miss).
// Per segment: one hash lookup per method it ran, to find the interned
// "Owner.method" label of its (owner, method) pointer pair; a pair's label
// string is built once, at its first segment, and a Segment holds a
// pointer to it. The walk is O(segments + wake edges + hops * log d), d
// being how far each hop's answer lies from the previous answer for the
// same waker. Segment starts are non-decreasing in segment index (checked
// as each segment closes), so as the walk's segment index falls its start
// never rises. Each tid's wake list is therefore scanned once, by a
// backward cursor that survives across hops: the latest edge in push order
// at or before a start is also at or before every later, smaller start.
// The list is not sorted by instant (a cross-lane edge borrows the current
// segment start, which can predate a spawn edge pushed just before it), so
// it is never binary searched. A waker's segment list is sorted by index
// and by start, so "index below the current one and started by the wake"
// holds on a prefix. Its end is found by a galloping search from where the
// waker's previous search ended: exact wherever the answer lies, and a
// step or two when the walk moves backwards as it usually does. The
// artifact is rendered by the JsonWriter into a buffer reserved up front
// from the sizes of its rows; per-method and per-edge-kind sums are taken
// by label pointer and merged by name only over the distinct labels.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/obs/analysis/analysis.hpp"
#include "src/threads/lane.hpp"

namespace dejavu::obs {

class CriticalPathAnalyzer : public AnalysisObserver {
 public:
  explicit CriticalPathAnalyzer(uint32_t top_n = 10) : top_n_(top_n) {}

  const char* name() const override { return "critpath"; }
  bool wants_instructions() const override { return true; }
  bool wants_monitors() const override { return true; }
  bool wants_threads() const override { return true; }

  void on_run_end(const RunInfo& info) override;
  void on_instruction(const vm::InstrEvent& ev) override;
  void on_monitor_event(const vm::MonitorEvent& e) override;
  void on_switch(threads::Tid from, threads::Tid to,
                 threads::SwitchReason reason, uint64_t instr_index) override;
  void on_thread_event(const vm::ThreadEvent& e) override;
  void on_cross_lane(const threads::CrossLaneEvent& e) override;

  // dejavu-critpath-v1 JSON.
  std::string artifact() const override;

  // A closed stretch of one thread running without a switch. Exposed for
  // tests.
  struct Segment {
    threads::Tid tid = threads::kNoThread;
    uint64_t start = 0;  // instr index, inclusive
    uint64_t end = 0;    // instr index, exclusive
    // Dominant method, an interned "Owner.method" label; nullptr if none.
    const std::string* method = nullptr;
  };
  const std::vector<Segment>& segments() const { return segments_; }
  // The walked critical path, chronological. Valid after on_run_end.
  const std::vector<size_t>& critical_path() const { return path_; }

 private:
  // What a thread is doing while not running; chosen by the SwitchReason
  // that parked it.
  enum class ParkKind : uint8_t { kRunnable, kBlocked, kWaiting, kDone };

  struct ThreadWall {
    uint64_t running = 0;
    uint64_t runnable = 0;   // preempted / yielded, ready to run
    uint64_t blocked = 0;    // monitorenter contention
    uint64_t waiting = 0;    // wait / sleep / join
    bool seen = false;
  };

  // The last event that made a thread runnable again; the dependency the
  // walk follows out of a segment.
  struct WakeEdge {
    const char* kind = "schedule";          // static tag
    threads::Tid from = threads::kNoThread; // waker, kNoThread = scheduler
    uint64_t subject = 0;                   // monitor id / lane / 0
    uint64_t instr = 0;                     // when the wake happened
  };

  ThreadWall& wall(threads::Tid tid);
  const std::string* label(const std::string* owner,
                           const std::string* method);
  void park(threads::Tid tid, ParkKind kind, uint64_t at);
  void unpark(threads::Tid tid, uint64_t at);
  void close_segment(uint64_t at);
  void push_wake(threads::Tid tid, const char* kind, threads::Tid from,
                 uint64_t subject, uint64_t instr);
  void mark_parked_wake(threads::Tid tid);

  std::vector<ThreadWall> walls_;  // by tid
  // Per-thread park bookkeeping: what state the thread entered and when.
  struct Park {
    ParkKind kind = ParkKind::kRunnable;
    uint64_t since = 0;
    bool parked = false;
  };
  std::vector<Park> parks_;  // by tid

  // Segment recording for the dependency walk.
  std::vector<Segment> segments_;
  std::vector<std::vector<size_t>> by_tid_;  // tid -> indices into segments_
  threads::Tid current_ = threads::kNoThread;
  uint64_t seg_start_ = 0;
  // Instruction counts of the open segment, one entry per method pointer,
  // in first-hit order; owner is the owner of the method's latest hit.
  struct MethodCount {
    const std::string* method = nullptr;
    const std::string* owner = nullptr;
    uint64_t count = 0;
  };
  std::vector<MethodCount> seg_methods_;
  // Index of the last hit in seg_methods_; past the end after a clear.
  size_t last_method_ = 0;
  // Interned "Owner.method" labels, one string per distinct label, so that
  // equal labels share one pointer; and each (owner, method) pointer pair's
  // label.
  struct PairHash {
    size_t operator()(
        const std::pair<const std::string*, const std::string*>& p) const {
      return std::hash<const void*>()(p.first) * 31 +
             std::hash<const void*>()(p.second);
    }
  };
  std::unordered_set<std::string> labels_;
  std::unordered_map<std::pair<const std::string*, const std::string*>,
                     const std::string*, PairHash>
      label_of_;

  // Wake edges per thread, appended chronologically.
  std::vector<std::vector<WakeEdge>> wakes_;  // by tid
  // True while an explicit wake is newer than the thread's last switch-in;
  // suppresses the fallback "schedule" edge at the next switch-in so that
  // spawn / cross-lane wakes (which fire while the thread is parked) are
  // not shadowed by it.
  std::vector<bool> pending_explicit_;  // by tid
  // Monitor wake sources: last releaser / last notifier per monitor.
  std::unordered_map<threads::MonitorId, WakeEdge> last_release_;
  std::unordered_map<threads::MonitorId, WakeEdge> last_notify_;
  // Open parking episodes (blocked enter / wait) per thread, so the
  // matching resumption event can be dated at the segment start.
  struct ParkSite {
    threads::MonitorId monitor = 0;
    uint64_t begin = 0;
    bool open = false;
  };
  std::vector<ParkSite> monitor_park_;  // by tid
  uint64_t resume_instr(const vm::MonitorEvent& e);

  std::vector<size_t> path_;  // critical path, indices into segments_
  // Edge kind linking path_[i] to its predecessor (size = path_.size()-1).
  std::vector<const char*> hop_kinds_;
  // Owns the "xlane:<kind>" strings the WakeEdge kind tags point into,
  // keyed by the static name cross_lane_kind_name returns.
  std::map<const char*, std::string> xlane_kinds_;
  uint64_t switches_ = 0;
  uint32_t top_n_;
  RunInfo run_{};
};

}  // namespace dejavu::obs
