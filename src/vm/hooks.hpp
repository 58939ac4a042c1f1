// The instrumentation surface between the VM and a replay strategy.
//
// In the paper, DejaVu's instrumentation is Java code woven into Jalapeño
// and the application by cross-optimization; here the weave points are
// virtual calls on an ExecHooks installed into the VM. The same surface
// serves the DejaVu engine (src/replay) and the related-work baseline
// recorders (src/baselines): Instant Replay and read-content logging need
// the additional per-memory-access events that DejaVu pointedly does *not*
// need (§5 "capture the interactions among processes ... a major drawback
// of such approaches is the overhead").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/heap/heap.hpp"
#include "src/threads/thread_package.hpp"

namespace dejavu::vm {

class Vm;

// Categories of non-deterministic values (§2.1).
enum class NdKind : uint8_t {
  kClock = 1,   // wall-clock read (kNow and the thread package's reads)
  kInput = 2,   // external input
  kRand = 3,    // environmental randomness
};

// ---- fine-grained execution events (replay-time analysis) -----------------
// These structs describe what the interpreter is doing at instruction
// granularity. They exist for the obs/analysis layer, but live here so the
// VM never depends on obs: the VM emits them through ExecHooks virtuals that
// default to no-ops, and record-mode hooks never subscribe.
//
// The string members are pointers to names owned by the loaded program
// (stable for the life of the run) -- emitting an event allocates nothing.

// One interpreted instruction, reported *before* it executes.
struct InstrEvent {
  threads::Tid tid = threads::kNoThread;
  const std::string* owner = nullptr;   // declaring class name
  const std::string* method = nullptr;  // method name
  uint32_t pc = 0;
  uint8_t opcode = 0;       // bytecode::Op numeric value
  int32_t line = -1;        // source line, -1 if unknown
  uint32_t frame_depth = 0; // call-stack depth of the executing frame
  uint64_t instr_index = 0; // Vm::instr_count() at this instruction
};

// What happened at a synchronization operation.
enum class MonitorOp : uint8_t {
  kEnterAcquired,  // monitorenter succeeded (fresh or recursive)
  kEnterBlocked,   // monitorenter contended; thread parked
  kExit,           // monitorexit released (or dropped one recursion level)
  kWaitBegin,      // Object.wait released the monitor and parked
  kWaitEnd,        // wait completed and the monitor was re-acquired
  kNotifyOne,      // Object.notify (woken = 0 or 1)
  kNotifyAll,      // Object.notifyAll (woken = wait-set size)
};

struct MonitorEvent {
  MonitorOp op{};
  threads::Tid tid = threads::kNoThread;
  threads::MonitorId monitor = threads::kNoMonitor;
  // For kEnterBlocked: who held the monitor at block time (the wait-for
  // edge). kNoThread otherwise.
  threads::Tid holder = threads::kNoThread;
  // For kEnterAcquired: true when this is a recursive re-entry.
  bool recursive = false;
  // For kNotifyOne/kNotifyAll: number of waiters woken.
  uint32_t woken = 0;
  uint64_t instr_index = 0;  // Vm::instr_count() at the operation
};

// One guest allocation (object or array).
struct AllocEvent {
  threads::Tid tid = threads::kNoThread;
  heap::Addr addr = 0;
  uint32_t class_id = 0;
  uint32_t slots = 0;    // payload size in slots (array length for arrays)
  uint64_t instr_index = 0;
};

// A thread lifecycle edge. kSpawn orders everything the parent did before
// the spawn ahead of the child's first instruction; kJoinEnd orders the
// target's last instruction ahead of everything the joiner does after the
// join completes. kExit marks the point whose happened-before frontier a
// later join inherits.
enum class ThreadOp : uint8_t {
  kSpawn,    // tid spawned `other`
  kExit,     // tid ran its last instruction and left the scheduler
  kJoinEnd,  // tid's join on `other` completed (immediately or after parking)
};

struct ThreadEvent {
  ThreadOp op{};
  threads::Tid tid = threads::kNoThread;
  threads::Tid other = threads::kNoThread;  // child / join target; else kNoThread
  uint64_t instr_index = 0;  // Vm::instr_count() at the operation
};

// Subscriptions. The four wants_*_events() predicates are a hook's event
// subscriptions, and they are fixed before the VM wires its observers: the
// VM reads each one exactly once, in boot() or boot_from_snapshot(), before
// attach() and before any guest code, and never asks again. A hook whose
// answer would change later must decide before the VM boots (the DejaVu
// engine rejects add_analyzer after attach for this reason). An unsubscribed
// family costs the interpreter one test of a cached flag per event site.
class ExecHooks {
 public:
  virtual ~ExecHooks() = default;

  // Symmetric initialization: runs during VM boot, before any guest code.
  // This is where DejaVu pre-loads its classes, pre-compiles its methods,
  // pre-allocates its buffers and warms up I/O (§2.4).
  virtual void attach(Vm&) {}

  // Run finished: flush the trace (record) / verify stream exhaustion and
  // the final checkpoint (replay).
  virtual void detach(Vm&) {}

  // The yield-point protocol of Figure 2. `hardware_bit` is the live timer
  // interrupt bit (meaningful in record mode; ignored in replay mode).
  // Returns true iff a preemptive thread switch must be performed at this
  // yield point.
  virtual bool yield_point(bool hardware_bit) = 0;

  // Non-deterministic value interception: record mode logs and returns
  // `live`; replay mode ignores `live` and returns the logged value.
  virtual int64_t nd_value(NdKind kind, int64_t live) = 0;

  // ---- JNI surface (§2.5) ----------------------------------------------
  // If false, the VM must not run the native function; the hooks will
  // regenerate its callbacks and return value via native_replay_next.
  virtual bool native_executes() { return true; }
  // Record-mode notifications while a native runs.
  virtual void native_record_callback(const std::string& cls,
                                      const std::string& method,
                                      const std::vector<int64_t>& args) {
    (void)cls; (void)method; (void)args;
  }
  virtual int64_t native_record_return(int64_t v) { return v; }
  // Replay-mode event pull. Returns true for a callback (out params filled);
  // false for the native's return value (*ret filled) -- which ends the call.
  virtual bool native_replay_next(std::string* cls, std::string* method,
                                  std::vector<int64_t>* args, int64_t* ret) {
    (void)cls; (void)method; (void)args; (void)ret;
    throw VmError("native_replay_next unsupported by this hook");
  }

  // ---- memory-access instrumentation (baselines only) --------------------
  // DejaVu never asks for these; the CREW / read-logging baselines do.
  virtual bool wants_memory_events() const { return false; }
  // `value` may be rewritten (read-content logging substitutes on replay).
  // `is_ref` distinguishes reference slots: their values are addresses,
  // which are only meaningful within one run.
  virtual void on_heap_read(heap::Addr obj, uint32_t slot, int64_t* value,
                            bool is_ref) {
    (void)obj; (void)slot; (void)value; (void)is_ref;
  }
  virtual void on_heap_write(heap::Addr obj, uint32_t slot, int64_t value,
                             bool is_ref) {
    (void)obj; (void)slot; (void)value; (void)is_ref;
  }

  // Completed dispatch notification (observability; engine checkpointing).
  virtual void on_switch(threads::Tid from, threads::Tid to,
                         threads::SwitchReason reason) {
    (void)from; (void)to; (void)reason;
  }

  // Fired at the next instruction-loop top after Vm::request_safepoint():
  // no guest thread is mid-native, preemption is unmasked, and every
  // pending dispatch has either completed or not begun -- the state the
  // flight recorder's epoch checkpoints capture. The hook may observe the
  // whole VM (capture_snapshot) but must not mutate guest state.
  virtual void on_safepoint(Vm&) {}

  // A scheduler-level interaction crossed a lane boundary (monitor
  // hand-off, notify, join wake, interrupt, or the dispatch itself moving
  // control between lanes; see src/threads/lane.hpp). Never fires on a
  // single-lane VM. The engine records these as the v5 order-event stream
  // and verifies them one by one on replay -- they are the keys of the
  // deterministic cross-lane merge.
  virtual void on_cross_lane(const threads::CrossLaneEvent& e) { (void)e; }

  // ---- fine-grained analysis events (replay-time observation only) -------
  // Pure notifications: a hook must never mutate guest state from them.
  // The DejaVu engine returns true from the wants_* predicates only in
  // replay mode with analyzers registered, so record-side instrumentation is
  // byte-identical with and without analysis (the §2.4 symmetry argument is
  // about what the *recorded* run executes; replay may observe freely).
  virtual bool wants_instruction_events() const { return false; }
  virtual void on_instruction(const InstrEvent&) {}
  virtual bool wants_monitor_events() const { return false; }
  virtual void on_monitor_event(const MonitorEvent&) {}
  // Thread lifecycle (spawn / exit / join completion): the happens-before
  // edges monitor events cannot express.
  virtual bool wants_thread_events() const { return false; }
  virtual void on_thread_event(const ThreadEvent&) {}
  // Allocation notification rides the wants_memory_events() subscription.
  virtual void on_heap_alloc(const AllocEvent&) {}
  // Copying-GC relocation notification (also rides wants_memory_events()).
  // GC is deterministic, so subscribing never perturbs the run; analyzers
  // use it to keep per-object identity exact across collections.
  virtual void on_heap_move(heap::Addr from, heap::Addr to) {
    (void)from; (void)to;
  }
};

}  // namespace dejavu::vm
