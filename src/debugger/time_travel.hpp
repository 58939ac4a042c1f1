// Time-travel debugging on top of deterministic replay.
//
// The checkpoint/re-execution systems the paper surveys (Igor, Recap, PPD,
// Boothe, §5) pursue reverse execution; DejaVu gets it from the trace,
// which pins the execution completely: any earlier point is revisited by
// replaying forward to it again -- no process forking, no shared-read
// logging. This wrapper owns the (program, trace) pair and presents a
// position cursor measured in guest instructions:
//
//   tt.goto_instruction(12'345);   // forward: step; backward: resume+step
//   tt.debugger().backtrace(...);  // inspect, perturbation-free, as usual
//   tt.step_back();                // one instruction into the past
//
// Going back does not re-replay from instruction 0. As the replay moves
// forward it takes keyframes: at the first preempt past every `spacing`
// instructions, the engine cuts where a recording's flight epoch would and
// hands over the same flight checkpoint (VM snapshot + engine state) plus
// each stream's offset. A backward move resumes a fresh replay from the
// nearest keyframe at or before the target and steps forward from there
// (rr's reverse-execution shape), so it costs one restore plus at most
// about `spacing` instructions. Only a target before the first keyframe
// boots a fresh replay. With an analyzer on (cfg.obs), whose artifacts
// must cover the whole run, no keyframes are taken and every backward
// move boots fresh.
//
// Keyframes are stored zero-run-elided (src/common/io.hpp) under a fixed
// budget of kKeyframeBudget bytes per debugger. Spacing starts at 1/64 of
// the replayable history (end_position() / 64 for a full trace); when the
// budget is exceeded, every other keyframe is dropped and the spacing
// doubles.
//
// A fresh Debugger is exposed after each relocation; inspection state
// (breakpoints and watchpoints) lives here so it survives relocations.
// The VM snapshot holds no output text, so this wrapper keeps the output
// prefix a resumed replay did not produce itself. A flight tail replays
// from its embedded checkpoint, so its earliest position is the
// checkpoint's instruction count and backward motion clamps there.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/debugger/debugger.hpp"
#include "src/replay/session.hpp"

namespace dejavu::debugger {

class TimeTravelDebugger {
 public:
  // Bytes of encoded keyframes one debugger keeps at most.
  static constexpr size_t kKeyframeBudget = size_t(1) << 20;
  // Initial keyframes over the replayable history (spacing = its length
  // / this).
  static constexpr uint64_t kInitialKeyframes = 64;

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
  // positions resume from the nearest keyframe at or before the target and
  // step forward to it. Targets are clamped to [start of the replay,
  // end_position()].
  void goto_instruction(uint64_t target);
  void step_forward(uint64_t n = 1) { goto_instruction(position() + n); }
  void step_back(uint64_t n = 1);

  // Runs forward to the next breakpoint (or the end); returns the reason.
  StopReason resume();

  // Inspection at the current position.
  Debugger& debugger() { return *dbg_; }
  vm::Vm& vm() { return session_->vm(); }

  // Where the current replay began: the trace's start after a fresh boot,
  // a keyframe's instruction count after a keyframe resume.
  uint64_t replay_start() const { return session_->start_instr(); }
  // Instruction counts of the keyframes held, ascending, and the bytes
  // they take (at most kKeyframeBudget).
  std::vector<uint64_t> keyframe_positions() const;
  size_t keyframe_bytes() const { return keyframe_bytes_; }

  // Breakpoints that survive relocation.
  int break_at(const std::string& cls, const std::string& method,
               int32_t pc = -1);
  int break_at_line(const std::string& cls, int32_t line);
  bool remove_breakpoint(int id);

  // Watchpoints that survive relocation, with ids shared with the
  // breakpoints'. After a backward move a watch is baselined where the
  // move lands (Debugger::restore_watchpoint), so resume() stops where a
  // straight replay with the watch set at that position would.
  int watch_static(const std::string& cls, const std::string& field);
  bool remove_watchpoint(int id);

  // Completes the replay from the current position and reports
  // verification, with the output of the whole execution (relocating
  // afterwards is still allowed).
  replay::ReplayResult run_to_end_and_verify();

 private:
  struct Keyframe {
    uint64_t instr = 0;
    size_t output_len = 0;     // bytes of guest output before the cut
    size_t checkpoint_bytes = 0;
    std::vector<uint8_t> packed;  // the checkpoint, zero-run-elided
    replay::StreamOffsets offsets;
  };

  // Replaces the session: resumed from `from`, or booted at the trace's
  // start when null.
  void open(const Keyframe* from);
  void arm_next_keyframe();
  void keep(replay::ResumePoint p);
  // The latest keyframe at or before `target`; null when there is none.
  const Keyframe* nearest_keyframe(uint64_t target) const;
  // Extends output_ with what the current session printed past it.
  void sync_output();
  void reinstall_breakpoints();
  void reinstall_watchpoints();

  bytecode::Program prog_;
  replay::TraceFile trace_;
  vm::VmOptions opts_;
  replay::SymmetryConfig cfg_;
  std::unique_ptr<replay::ReplaySession> session_;
  std::unique_ptr<Debugger> dbg_;
  std::vector<Breakpoint> saved_bps_;
  std::vector<Watchpoint> saved_watches_;
  int next_bp_id_ = 1;

  std::vector<Keyframe> keyframes_;  // ascending by instr
  size_t keyframe_bytes_ = 0;        // sum of packed sizes
  uint64_t spacing_ = 0;  // set at the first boot
  uint64_t first_instr_ = 0;  // where a fresh boot starts (a tail's cut)
  // The guest output from the start up to the furthest point replayed so
  // far (replay is deterministic: every session's output is a prefix of
  // the same text), and its length where the current session began.
  std::string output_;
  size_t output_base_ = 0;
};

}  // namespace dejavu::debugger
