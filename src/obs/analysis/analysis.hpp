// Replay-time analysis over the engine's observer fan-out.
//
// The paper's payoff (§1): once a run is captured, arbitrarily heavyweight
// observation can happen at *replay* time without perturbing the recorded
// execution. An AnalysisObserver is a host-side consumer of the fine-grained
// execution events the replaying VM emits -- per-instruction, monitor
// operations, heap traffic, nd-events, yield points and switches.
//
// The invariant: registering analyzers must not change trace consumption,
// verification outcome, or guest state. The DejaVuEngine enforces this by
// construction -- analyzers can only be registered on a replay-mode engine,
// every callback is a pure notification (heap values are passed by value,
// never by pointer), and tests/obs asserts byte-identity of replay results
// with analyzers on vs off.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/obs/analysis/artifacts.hpp"
#include "src/vm/hooks.hpp"

namespace dejavu::vm {
class Vm;
}

namespace dejavu::obs {

// Handed to analyzers when the replayed run finishes.
struct RunInfo {
  uint64_t instr_count = 0;
  uint64_t logical_clock = 0;  // live yield points
  uint64_t switch_count = 0;
  bool verified = false;  // replay verification outcome
  // True when a strict replay hit a violation but carried on non-strict so
  // the analyzers could finish (SymmetryConfig::strict + analyzers). The
  // artifacts of such a run describe a post-violation execution.
  bool post_violation = false;
};

// An execution point: the method, by its name and owner-name pointers
// (unique per MethodDef and stable for the run), and a pc. Analyzers key
// per-site counters by it and render "Owner.method:pc" labels only when
// they build their artifact; sites whose labels coincide are summed there.
// A null owner is a point outside any guest instruction, labelled "<vm>".
struct SiteKey {
  const std::string* owner = nullptr;
  const std::string* method = nullptr;
  uint32_t pc = 0;

  bool operator==(const SiteKey&) const = default;

  std::string label() const {
    if (owner == nullptr) return "<vm>";
    std::string s;
    s.append(*owner).append(".").append(*method).append(":");
    s.append(std::to_string(pc));
    return s;
  }
};

struct SiteKeyHash {
  size_t operator()(const SiteKey& k) const {
    size_t h = std::hash<const void*>()(k.owner);
    h = h * 31 + std::hash<const void*>()(k.method);
    return h * 31 + k.pc;
  }
};

class AnalysisObserver {
 public:
  virtual ~AnalysisObserver() = default;
  virtual const char* name() const = 0;

  // Event-family subscriptions. The engine enables VM instrumentation for
  // the union of what the registered analyzers ask for; families nobody
  // wants cost nothing (the VM's wants_* predicate stays false). The
  // engine reads these once, when the analyzer is added; they must not
  // change afterwards.
  virtual bool wants_instructions() const { return false; }
  virtual bool wants_monitors() const { return false; }
  virtual bool wants_memory() const { return false; }
  virtual bool wants_threads() const { return false; }

  // Lifecycle. on_run_begin runs at engine attach (VM booted, guest not yet
  // executing); the Vm reference is only guaranteed valid until on_run_end.
  virtual void on_run_begin(const vm::Vm&) {}
  virtual void on_run_end(const RunInfo&) {}

  // Fine-grained events (all pure notifications).
  virtual void on_instruction(const vm::InstrEvent&) {}
  virtual void on_monitor_event(const vm::MonitorEvent&) {}
  virtual void on_heap_read(heap::Addr obj, uint32_t slot, int64_t value,
                            bool is_ref) {
    (void)obj; (void)slot; (void)value; (void)is_ref;
  }
  virtual void on_heap_write(heap::Addr obj, uint32_t slot, int64_t value,
                             bool is_ref) {
    (void)obj; (void)slot; (void)value; (void)is_ref;
  }
  virtual void on_heap_alloc(const vm::AllocEvent&) {}
  // The copying collector relocated an object (rides the memory
  // subscription). Analyzers tracking per-object state follow the
  // forwarding so identity stays exact across collections.
  virtual void on_heap_move(heap::Addr from, heap::Addr to) {
    (void)from; (void)to;
  }
  // `tag` is the engine's static nd-event tag ("clock", "input", ...).
  virtual void on_nd_event(const char* tag, int64_t value,
                           uint64_t logical_clock) {
    (void)tag; (void)value; (void)logical_clock;
  }
  virtual void on_yield_point(uint64_t logical_clock, bool switched) {
    (void)logical_clock; (void)switched;
  }
  virtual void on_switch(threads::Tid from, threads::Tid to,
                         threads::SwitchReason reason, uint64_t instr_index) {
    (void)from; (void)to; (void)reason; (void)instr_index;
  }
  // Thread lifecycle edges (rides the wants_threads() subscription).
  virtual void on_thread_event(const vm::ThreadEvent&) {}
  // A cross-lane order event from a multi-lane replay (always fanned; a
  // single-lane VM never emits any). The engine forwards these after its
  // own field-by-field verification.
  virtual void on_cross_lane(const threads::CrossLaneEvent&) {}

  // The analyzer's primary artifact (a JSON document), valid after
  // on_run_end.
  virtual std::string artifact() const = 0;
};

}  // namespace dejavu::obs
