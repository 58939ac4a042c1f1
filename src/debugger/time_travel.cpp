#include "src/debugger/time_travel.hpp"

#include <algorithm>

namespace dejavu::debugger {

TimeTravelDebugger::TimeTravelDebugger(bytecode::Program prog,
                                       replay::TraceFile trace,
                                       vm::VmOptions opts,
                                       replay::SymmetryConfig cfg)
    : prog_(std::move(prog)),
      trace_(std::move(trace)),
      opts_(opts),
      cfg_(cfg) {
  rebuild();
}

void TimeTravelDebugger::rebuild() {
  session_ = std::make_unique<replay::ReplaySession>(
      prog_, std::make_unique<replay::TraceFileSource>(&trace_), opts_, cfg_);
  dbg_ = std::make_unique<Debugger>(*session_, prog_);
  reinstall_breakpoints();
}

void TimeTravelDebugger::reinstall_breakpoints() {
  dbg_->clear_breakpoints();
  for (const Breakpoint& bp : saved_bps_) {
    if (bp.line >= 0) {
      dbg_->break_at_line(bp.class_name, bp.line);
    } else {
      dbg_->break_at(bp.class_name, bp.method_name, bp.pc);
    }
  }
}

uint64_t TimeTravelDebugger::position() const {
  return session_->vm().instr_count();
}

bool TimeTravelDebugger::at_end() const { return session_->vm().finished(); }

void TimeTravelDebugger::goto_instruction(uint64_t target) {
  // A flight tail starts at its checkpoint; nothing before it exists.
  target = std::clamp(target, session_->start_instr(), end_position());
  if (target < position()) rebuild();  // the past: re-replay from the start
  uint64_t remaining = target - position();
  while (remaining > 0 && !session_->vm().finished()) {
    uint64_t done = session_->vm().step(remaining);
    if (done == 0) break;
    remaining -= done;
  }
}

void TimeTravelDebugger::step_back(uint64_t n) {
  uint64_t pos = position();
  goto_instruction(pos > n ? pos - n : 0);
}

StopReason TimeTravelDebugger::resume() { return dbg_->resume(); }

int TimeTravelDebugger::break_at(const std::string& cls,
                                 const std::string& method, int32_t pc) {
  Breakpoint bp;
  bp.id = next_bp_id_++;
  bp.class_name = cls;
  bp.method_name = method;
  bp.pc = pc;
  saved_bps_.push_back(bp);
  reinstall_breakpoints();
  return bp.id;
}

int TimeTravelDebugger::break_at_line(const std::string& cls, int32_t line) {
  Breakpoint bp;
  bp.id = next_bp_id_++;
  bp.class_name = cls;
  bp.line = line;
  saved_bps_.push_back(bp);
  reinstall_breakpoints();
  return bp.id;
}

bool TimeTravelDebugger::remove_breakpoint(int id) {
  for (size_t i = 0; i < saved_bps_.size(); ++i) {
    if (saved_bps_[i].id == id) {
      saved_bps_.erase(saved_bps_.begin() + long(i));
      reinstall_breakpoints();
      return true;
    }
  }
  return false;
}

replay::ReplayResult TimeTravelDebugger::run_to_end_and_verify() {
  return session_->finish();
}

}  // namespace dejavu::debugger
