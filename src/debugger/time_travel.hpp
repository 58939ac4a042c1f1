// Time-travel debugging on top of deterministic replay.
//
// The checkpoint/re-execution systems the paper surveys (Igor, Recap, PPD,
// Boothe, §5) pursue reverse execution; DejaVu makes it almost free:
// because a trace pins the execution completely, *any* earlier point can
// be revisited by re-replaying from the start -- no process forking, no
// shared-read logging. This wrapper owns the (program, trace) pair and
// presents a position cursor measured in guest instructions:
//
//   tt.goto_instruction(12'345);   // forward: step; backward: re-replay
//   tt.debugger().backtrace(...);  // inspect, perturbation-free, as usual
//   tt.step_back();                // one instruction into the past
//
// Backward motion costs O(position) re-execution (the paper's replay-based
// tooling tradeoff: tiny traces, pay with time). A fresh Debugger is
// exposed after each relocation; inspection state (breakpoints) lives here
// so it survives relocations. A flight tail replays from its embedded
// checkpoint, so its earliest position is the checkpoint's instruction
// count and backward motion clamps there.
#pragma once

#include <memory>

#include "src/debugger/debugger.hpp"
#include "src/replay/session.hpp"

namespace dejavu::debugger {

class TimeTravelDebugger {
 public:
  TimeTravelDebugger(bytecode::Program prog, replay::TraceFile trace,
                     vm::VmOptions opts = {},
                     replay::SymmetryConfig cfg = {});

  // Guest instructions executed so far (0 = before the first instruction;
  // a tail starts at its checkpoint's count).
  uint64_t position() const;
  // Total guest instructions in the recorded execution.
  uint64_t end_position() const { return trace_.meta.final_instr_count; }
  bool at_end() const;

  // Relocation. Forward positions step the current replay; backward
  // positions rebuild a fresh replay and run it forward to the target.
  // Targets are clamped to [start of the replay, end_position()].
  void goto_instruction(uint64_t target);
  void step_forward(uint64_t n = 1) { goto_instruction(position() + n); }
  void step_back(uint64_t n = 1);

  // Runs forward to the next breakpoint (or the end); returns the reason.
  StopReason resume();

  // Inspection at the current position.
  Debugger& debugger() { return *dbg_; }
  vm::Vm& vm() { return session_->vm(); }

  // Breakpoints that survive relocation.
  int break_at(const std::string& cls, const std::string& method,
               int32_t pc = -1);
  int break_at_line(const std::string& cls, int32_t line);
  bool remove_breakpoint(int id);

  // Completes the replay from the current position and reports
  // verification (relocating afterwards is still allowed).
  replay::ReplayResult run_to_end_and_verify();

 private:
  void rebuild();
  void reinstall_breakpoints();

  bytecode::Program prog_;
  replay::TraceFile trace_;
  vm::VmOptions opts_;
  replay::SymmetryConfig cfg_;
  std::unique_ptr<replay::ReplaySession> session_;
  std::unique_ptr<Debugger> dbg_;
  std::vector<Breakpoint> saved_bps_;
  int next_bp_id_ = 1;
};

}  // namespace dejavu::debugger
