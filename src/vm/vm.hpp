// The virtual machine (the Jalapeño stand-in).
//
// One Vm is one "application JVM": a guest heap, a lazy class loader with
// reified in-heap metadata, a compile-at-first-invocation execution engine,
// and the quasi-preemptive green-thread package. An ExecHooks installed at
// construction receives the instrumentation events that a replay strategy
// needs (yield points, non-deterministic values, native-call traffic); with
// no hooks the VM runs "uninstrumented", which is the baseline for the
// overhead experiment (E2).
//
// The Vm is also a heap::RootProvider: GC roots are the boot registry, the
// per-class cached metadata/statics addresses, every live frame's reference
// slots (via the verifier's reference maps -- type-accurate collection), and
// any engine-registered slots (DejaVu's pre-allocated trace buffers).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/bytecode/model.hpp"
#include "src/heap/heap.hpp"
#include "src/threads/thread_package.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/audit.hpp"
#include "src/vm/env.hpp"
#include "src/vm/hooks.hpp"
#include "src/vm/natives.hpp"
#include "src/vm/runtime.hpp"

namespace dejavu::vm {

struct VmOptions {
  heap::HeapConfig heap;
  uint32_t initial_stack_slots = 512;
  bool gc_stress = false;      // collect before every allocation (testing)
  bool echo_output = false;    // mirror guest output to stdout
  uint64_t max_instructions = 4'000'000'000ull;  // runaway guard
  // Scheduler lanes (src/threads/lane.hpp). 1 = the paper's uniprocessor;
  // K>1 partitions threads across K per-lane run queues and surfaces
  // cross-lane interactions through ExecHooks::on_cross_lane.
  uint32_t lanes = 1;
};

class Vm : public heap::RootProvider {
 public:
  // The program is copied: a Vm owns its program for its whole lifetime
  // (callers may pass temporaries; the tool/application VM pair in the
  // debugger holds two independent copies, like two JVMs loading the same
  // classes).
  Vm(bytecode::Program program, VmOptions options, Environment& env,
     threads::TimerSource& timer, ExecHooks* hooks = nullptr,
     const NativeRegistry* natives = nullptr);
  ~Vm() override;

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // ---- whole-run execution ---------------------------------------------
  // boot + run to completion + finish.
  void run();

  // ---- incremental execution (the debugger drives a replaying VM) -------
  void boot();
  bool booted() const { return booted_; }
  bool finished() const { return finished_; }
  // Executes up to `max_instr` guest instructions (crossing thread
  // switches); returns the number executed. Stops early at the end of the
  // program or when the instruction probe fires.
  uint64_t step(uint64_t max_instr);
  // Executes exactly one instruction, ignoring the probe (debugger stepi).
  bool step_one();
  void finish();

  // ---- checkpoint / snapshot (flight recorder) --------------------------
  // Arms a safepoint: at the next instruction-loop top (preemption
  // unmasked, no native in flight) the hooks' on_safepoint fires once.
  // Host-side only -- the guest observes nothing.
  void request_safepoint() { safepoint_requested_ = true; }
  // Serializes the complete guest-visible machine state (heap image, thread
  // package, class/metadata tables, execution contexts, behaviour-hash
  // accumulators, audit digest) so a fresh Vm built over the same program
  // and options can continue the identical execution. Host-side transcripts
  // (out_ text, switch_trace_) are excluded: only their running hashes are
  // state. Must be called at a safepoint (mask_depth_ == 0, no temp roots).
  // Reserves room for the whole snapshot first (sized from the live heap
  // image and the stacks), so a writer reused across captures grows only
  // when the machine did, and never by doubling.
  void capture_snapshot(ByteWriter& w) const;
  // In-place restore into a booted-from-snapshot Vm. Checked against the
  // program fingerprint and the construction options.
  void restore_snapshot(ByteReader& r);
  // boot() replacement for resuming from a snapshot: wires the observers
  // exactly as boot() does, restores the snapshot, then attaches the hooks
  // (which must perform a resume-style attach, not a fresh one).
  // The snapshot is read in place.
  void boot_from_snapshot(std::span<const uint8_t> snapshot);
  // Reads just the options prologue of a snapshot blob so a session can
  // construct the resuming Vm with matching heap/lane/stack configuration.
  static VmOptions peek_snapshot_options(std::span<const uint8_t> snapshot);
  const VmOptions& options() const { return opts_; }

  // Host-side observation point, checked before each instruction when set.
  // Returning true pauses execution (this perturbs nothing in the guest).
  using InstructionProbe = std::function<bool(Vm&, const FrameView&)>;
  void set_instruction_probe(InstructionProbe probe) {
    probe_ = std::move(probe);
  }
  bool stopped_at_probe() const { return stopped_at_probe_; }

  // ---- observable behaviour ----------------------------------------------
  BehaviorSummary summary() const;
  const std::string& output() const { return out_; }
  uint64_t instr_count() const { return instr_count_; }
  uint64_t live_yield_points() const { return yield_points_; }
  uint64_t preempt_count() const { return preempt_count_; }
  const std::vector<uint8_t>& switch_trace() const { return switch_trace_; }

  // ---- components ---------------------------------------------------------
  heap::Heap& guest_heap() { return *heap_; }
  const heap::Heap& guest_heap() const { return *heap_; }
  threads::ThreadPackage& thread_package() { return *threads_; }
  const threads::ThreadPackage& thread_package() const { return *threads_; }
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  const bytecode::Program& program() const { return prog_; }
  const heap::TypeRegistry& types() const { return types_; }

  // ---- class/metadata lookup (debugger, remote reflection) ---------------
  const RuntimeClass* runtime_class(const std::string& name) const;
  const RuntimeClass* runtime_class_by_type_id(uint32_t type_id) const;
  uint64_t registry_addr() const { return registry_obj_; }
  std::vector<FrameView> frames_of(threads::Tid t) const;
  FrameView current_frame_view() const;
  std::string read_guest_string(heap::Addr s) const;

  // ---- services for replay engines (§2.4 symmetry machinery) -------------
  // Loads a class that is not part of the program (the analog of DejaVu's
  // own Java classes). Goes through the normal load path: type
  // registration, statics record, metadata objects, audit event.
  RuntimeClass* load_synthetic_class(const std::string& name,
                                     uint32_t num_static_slots);
  // Audit the (modeled) compilation of an engine method.
  void note_synthetic_compile(const std::string& detail);
  // Allocates a guest byte[] on the engine's behalf (trace buffers); the
  // caller must register_root_slot the returned slot holder.
  uint64_t alloc_engine_buffer(uint64_t bytes, const std::string& label);
  // Registers an engine-owned slot holding a guest address as a GC root.
  void register_root_slot(uint64_t* slot);
  // Models the activation-stack headroom check before instrumentation runs
  // (§2.4 "Symmetry in Stack Overflow"): grows the current thread's stack
  // if fewer than `needed` slots remain -- or, when `eager`, if fewer than
  // `eager_threshold` remain (the mode-independent heuristic bound).
  void ensure_stack_headroom(uint32_t needed, bool eager,
                             uint32_t eager_threshold);
  // §2.4 "Symmetry in Loading and Compilation": write-then-read a temp file
  // so both record and replay compile both I/O paths; allocates the guest
  // I/O buffer.
  void io_warmup(const std::string& tmp_path);

  // Run a static guest method to completion on the current thread with
  // preemption masked (JNI callback regeneration). Returns its result
  // (0 for void).
  int64_t call_guest_masked(const std::string& cls, const std::string& method,
                            const std::vector<int64_t>& args);

  // Record-mode JNI callback entry (invoked via NativeContext::call_guest):
  // notifies the hooks, then runs the callback.
  int64_t native_callback_from_record(const std::string& cls,
                                      const std::string& method,
                                      const std::vector<int64_t>& args);

  // ---- RootProvider --------------------------------------------------------
  void enumerate_roots(
      const std::function<void(uint64_t* slot)>& visit) override;

 private:
  // -- boot helpers --
  void register_builtin_types();
  void build_runtime_classes();
  void compute_layouts(RuntimeClass& rc);
  void build_vtables();

  // -- class loading & compilation --
  RuntimeClass* ensure_loaded(RuntimeClass* rc);
  void ensure_compiled(CompiledMethod* m);
  // Verification + operand resolution without the kCompile audit event;
  // ensure_compiled = this + audit. Snapshot restore re-runs it silently
  // for every method recorded as compiled (resolved operand tables are
  // derived state; the audit accumulator is restored wholesale).
  void compile_method_body(CompiledMethod* m);
  // Wires observers (root provider, GC/move/switch/cross-lane) the way
  // boot() does; shared between boot() and boot_from_snapshot().
  void wire_observers();
  uint64_t make_metadata_for(RuntimeClass& rc);
  void append_to_table(uint32_t table_slot, uint32_t count_slot,
                       uint64_t value);

  // -- guest object helpers --
  uint64_t galloc_object(uint32_t type_id);
  uint64_t galloc_array_i64(uint64_t n);
  uint64_t galloc_array_ref(uint64_t n);
  uint64_t galloc_array_bytes(uint64_t n);
  uint64_t make_guest_string(const std::string& s);
  uint64_t intern_pool_string(int32_t pool_idx);
  size_t push_temp_root(uint64_t addr);

  // RAII scope for temporary GC roots: entries added here are enumerated as
  // roots (and updated by a moving collector) until the scope dies. Access
  // values through get()/set(), never through stale C++ copies.
  class TempRoots {
   public:
    explicit TempRoots(Vm& vm) : vm_(vm), base_(vm.temp_roots_.size()) {}
    ~TempRoots() { vm_.temp_roots_.resize(base_); }
    TempRoots(const TempRoots&) = delete;
    TempRoots& operator=(const TempRoots&) = delete;

    size_t add(uint64_t addr) {
      vm_.temp_roots_.push_back(addr);
      return vm_.temp_roots_.size() - 1;
    }
    uint64_t get(size_t h) const { return vm_.temp_roots_[h]; }
    void set(size_t h, uint64_t v) { vm_.temp_roots_[h] = v; }

   private:
    Vm& vm_;
    size_t base_;
  };

  // -- threads / frames --
  ExecContext& ctx(threads::Tid t);
  const ExecContext& ctx(threads::Tid t) const;
  ExecContext& cur();
  threads::Tid spawn_thread(CompiledMethod* entry, uint64_t arg,
                            const std::string& name);
  void push_frame(ExecContext& c, CompiledMethod* m,
                  const uint64_t* args, size_t nargs);
  void pop_frame_return(ExecContext& c, bool has_value, uint64_t value);
  void grow_stack(ExecContext& c, uint32_t min_capacity);
  threads::MonitorId monitor_of(heap::Addr obj);

  // -- interpretation --
  bool dispatch_if_needed();  // returns false when no live threads remain
  void execute_instruction();
  void maybe_yield_point();
  void do_invoke(CompiledMethod* callee);
  void do_native_call(const bytecode::Instr& ins);
  int64_t nd(NdKind kind, int64_t live);
  FrameView frame_view(const ExecContext& c, const Frame& f) const;
  void emit_monitor_event(MonitorOp op, threads::Tid tid,
                          threads::MonitorId mid, threads::Tid holder,
                          bool recursive, uint32_t woken);
  void emit_alloc_event(uint64_t addr, uint32_t type_id, uint32_t slots);

  // -- operand stack --
  void push_slot(uint64_t v);
  uint64_t pop_slot();
  uint64_t peek_slot(uint32_t depth_from_top = 0) const;
  void emit_output(const std::string& s);

  const bytecode::Program prog_;
  VmOptions opts_;
  Environment& env_;
  threads::TimerSource& timer_;
  ExecHooks* hooks_;
  // The hook's event subscriptions, read once by wire_observers; all false
  // without a hook.
  struct HookSubscriptions {
    bool instructions = false;
    bool memory = false;
    bool monitors = false;
    bool threads = false;
  };
  HookSubscriptions subs_;
  const NativeRegistry* natives_;

  heap::TypeRegistry types_;
  std::unique_ptr<heap::Heap> heap_;
  std::unique_ptr<threads::ThreadPackage> threads_;
  AuditLog audit_;

  std::vector<std::unique_ptr<RuntimeClass>> classes_;
  std::vector<RuntimeClass*> by_type_id_;  // instance_type_id -> class
  std::vector<std::unique_ptr<ExecContext>> contexts_;  // by tid

  uint64_t registry_obj_ = 0;
  std::vector<uint64_t> pool_string_cache_;  // pool idx -> guest String addr
  std::vector<uint64_t> temp_roots_;
  std::vector<uint64_t*> engine_roots_;

  std::string out_;
  Fnv1a out_hash_;
  Fnv1a switch_hash_;
  std::vector<uint8_t> switch_trace_;  // packed (reason,tid) pairs
  uint64_t instr_count_ = 0;
  uint64_t yield_points_ = 0;
  uint64_t preempt_count_ = 0;
  uint32_t mask_depth_ = 0;  // preemption mask (native callbacks)
  bool safepoint_requested_ = false;
  bool booted_ = false;
  bool finished_ = false;
  bool halted_ = false;
  bool hooks_detached_ = false;
  bool stopped_at_probe_ = false;
  InstructionProbe probe_;
};

}  // namespace dejavu::vm
