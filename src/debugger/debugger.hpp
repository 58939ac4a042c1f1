// The DejaVu-based debugger (§3, §4).
//
// The debugger drives a *replaying* VM: breakpoints, single-stepping and
// resumption are host-side observation points (instruction probes) that
// never touch guest state, so replay can always be resumed and its final
// accuracy verification still passes -- the "perturbation-free" property
// the paper is named for. All inspection goes through remote reflection
// over the RemoteProcess boundary; the debugger cannot write to the
// application VM (the paper notes a tool *may* allow deliberate mutation,
// at the cost of irrevocably breaking record/replay symmetry -- this
// implementation simply doesn't).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/remote/process.hpp"
#include "src/remote/reflection.hpp"
#include "src/replay/session.hpp"

namespace dejavu::debugger {

struct Breakpoint {
  int id = 0;
  std::string class_name;
  std::string method_name;  // empty for line breakpoints
  int32_t pc = -1;          // -1: any pc (method-entry / line breakpoints)
  int32_t line = -1;        // -1: pc breakpoint
};

enum class StopReason { kBreakpoint, kStep, kFinished };

// A value watchpoint on a static field: resume() stops when the value
// changes. Watching is pure host-side observation (a read of the guest
// heap per instruction) -- perturbation-free like everything else here.
struct Watchpoint {
  int id = 0;
  std::string class_name;
  std::string field_name;
  bool armed = false;   // becomes true once the class is loaded
  int64_t last = 0;     // last observed value
};

struct ThreadInfo {
  threads::Tid tid = threads::kNoThread;
  std::string name;   // read via remote reflection from the Thread object
  std::string state;  // from the GETREGS-analog interface
};

struct DebugFrame {
  std::string class_name;   // via VM_Method -> owner -> name
  std::string method_name;  // via VM_Method -> name
  uint32_t pc = 0;
  int64_t line = 0;  // via VM_Method -> lineTable[pc] (Figure 3)
};

class Debugger {
 public:
  // `tool_program` is the tool VM's own copy of the application classes
  // (the layouts remote reflection matches against).
  Debugger(replay::ReplaySession& session, bytecode::Program tool_program);

  // ---- breakpoints ------------------------------------------------------
  int break_at(const std::string& cls, const std::string& method,
               int32_t pc = -1);
  int break_at_line(const std::string& cls, int32_t line);
  bool remove_breakpoint(int id);
  void clear_breakpoints() { bps_.clear(); }
  const std::vector<Breakpoint>& breakpoints() const { return bps_; }

  // ---- watchpoints --------------------------------------------------------
  int watch_static(const std::string& cls, const std::string& field);
  // Re-creates a watchpoint kept across relocations (TimeTravelDebugger)
  // under its own id, baselined at the current position: armed with the
  // value read now when the class is loaded, else as watch_static's are.
  void restore_watchpoint(int id, const std::string& cls,
                          const std::string& field);
  bool remove_watchpoint(int id);
  const std::vector<Watchpoint>& watchpoints() const { return watches_; }
  // The watchpoint that caused the last stop (nullptr if a breakpoint did).
  const Watchpoint* last_watch_hit() const;

  // ---- control ----------------------------------------------------------
  StopReason resume();            // to the next breakpoint or end of replay
  StopReason step_instruction();  // one guest instruction
  StopReason step_line();         // until the source line changes
  bool finished() const { return session_.vm().finished(); }

  // Completes the replay and reports the accuracy verification.
  replay::ReplayResult finish_replay();

  // ---- current location ---------------------------------------------------
  vm::FrameView location() const;
  std::string disassemble_around(int context_instrs) const;

  // ---- inspection (all remote, all read-only) ------------------------------
  remote::RemoteReflection& reflection() { return *reflection_; }
  std::vector<ThreadInfo> thread_list();
  std::vector<DebugFrame> backtrace(threads::Tid tid);
  std::string inspect_object(uint32_t addr, int depth);
  std::string inspect_statics(const std::string& cls, int depth);
  // Figure 3's Debugger.lineNumberOf, against the flattened method table.
  int64_t line_number_of(size_t method_number, uint64_t offset);
  std::vector<std::string> method_names();  // the method table, in order

 private:
  bool hits_breakpoint(const vm::FrameView& fv) const;
  bool watch_fired();
  // The watched static's current value; false while its class is not
  // loaded (or has no such field).
  bool read_watched(const Watchpoint& wp, int64_t* value) const;
  void refresh_reflection();
  DebugFrame describe_frame(const remote::RemoteFrame& rf);

  replay::ReplaySession& session_;
  bytecode::Program tool_program_;
  std::unique_ptr<remote::VmRemoteProcess> proc_;
  std::unique_ptr<remote::RemoteReflection> reflection_;
  std::vector<Breakpoint> bps_;
  std::vector<Watchpoint> watches_;
  int next_bp_id_ = 1;
  int last_watch_hit_ = -1;
};

}  // namespace dejavu::debugger
