#include "src/debugger/time_travel.hpp"

#include <algorithm>

#include "src/common/io.hpp"

namespace dejavu::debugger {

TimeTravelDebugger::TimeTravelDebugger(bytecode::Program prog,
                                       replay::TraceFile trace,
                                       vm::VmOptions opts,
                                       replay::SymmetryConfig cfg)
    : prog_(std::move(prog)),
      trace_(std::move(trace)),
      opts_(opts),
      cfg_(cfg) {
  open(nullptr);
}

void TimeTravelDebugger::open(const Keyframe* from) {
  // The old session goes first, so two replayed heaps never coexist; its
  // output may reach past every keyframe, so keep that.
  if (session_ != nullptr) sync_output();
  dbg_.reset();
  session_.reset();
  auto source = std::make_unique<replay::TraceFileSource>(&trace_);
  if (from == nullptr) {
    session_ = std::make_unique<replay::ReplaySession>(
        prog_, std::move(source), opts_, cfg_);
  } else {
    replay::ResumePoint p;
    zero_run_decode(from->packed.data(), from->packed.size(),
                    from->checkpoint_bytes, &p.checkpoint);
    p.offsets = from->offsets;
    p.instr = from->instr;
    session_ = std::make_unique<replay::ReplaySession>(
        prog_, std::move(source), opts_, cfg_, &p);
  }
  dbg_ = std::make_unique<Debugger>(*session_, prog_);
  if (from == nullptr) {
    first_instr_ = session_->start_instr();
    output_base_ = 0;
    if (spacing_ == 0)  // the first boot: the history's length is known
      spacing_ = std::max<uint64_t>(
          1, (end_position() - first_instr_) / kInitialKeyframes);
  } else {
    output_base_ = from->output_len;
  }
  reinstall_breakpoints();
  arm_next_keyframe();
}

void TimeTravelDebugger::arm_next_keyframe() {
  // Analyzers must see the whole run, so with any of them on every replay
  // starts at the trace's start.
  if (cfg_.obs.any_analysis()) return;
  uint64_t last = keyframes_.empty() ? first_instr_ : keyframes_.back().instr;
  session_->engine().arm_keyframe(
      last + spacing_, [this](replay::ResumePoint p) { keep(std::move(p)); });
}

void TimeTravelDebugger::keep(replay::ResumePoint p) {
  // Armed past the last keyframe, so the list stays ascending.
  DV_CHECK(keyframes_.empty() || p.instr > keyframes_.back().instr);
  Keyframe k;
  k.instr = p.instr;
  k.output_len = output_base_ + session_->vm().output().size();
  k.checkpoint_bytes = p.checkpoint.size();
  k.packed = zero_run_encode(p.checkpoint.data(), p.checkpoint.size());
  k.offsets = std::move(p.offsets);
  keyframe_bytes_ += k.packed.size();
  keyframes_.push_back(std::move(k));
  // Over budget: drop every other keyframe (the first stays) and double
  // the spacing, until the rest fit. One keyframe alone over the budget
  // goes too.
  while (keyframe_bytes_ > kKeyframeBudget) {
    size_t n = keyframes_.size() == 1 ? 0 : (keyframes_.size() + 1) / 2;
    for (size_t i = 1; i < n; ++i) keyframes_[i] = std::move(keyframes_[2 * i]);
    keyframes_.resize(n);
    keyframe_bytes_ = 0;
    for (const Keyframe& f : keyframes_) keyframe_bytes_ += f.packed.size();
    spacing_ *= 2;
  }
  arm_next_keyframe();
}

const TimeTravelDebugger::Keyframe* TimeTravelDebugger::nearest_keyframe(
    uint64_t target) const {
  auto it = std::upper_bound(
      keyframes_.begin(), keyframes_.end(), target,
      [](uint64_t t, const Keyframe& k) { return t < k.instr; });
  return it == keyframes_.begin() ? nullptr : &*(it - 1);
}

std::vector<uint64_t> TimeTravelDebugger::keyframe_positions() const {
  std::vector<uint64_t> v;
  for (const Keyframe& k : keyframes_) v.push_back(k.instr);
  return v;
}

void TimeTravelDebugger::sync_output() {
  const std::string& out = session_->vm().output();
  if (output_base_ + out.size() > output_.size())
    output_.append(out, output_.size() - output_base_, std::string::npos);
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

void TimeTravelDebugger::reinstall_watchpoints() {
  for (const Watchpoint& wp : saved_watches_)
    dbg_->restore_watchpoint(wp.id, wp.class_name, wp.field_name);
}

uint64_t TimeTravelDebugger::position() const {
  return session_->vm().instr_count();
}

bool TimeTravelDebugger::at_end() const { return session_->vm().finished(); }

void TimeTravelDebugger::goto_instruction(uint64_t target) {
  // A flight tail starts at its checkpoint; nothing before it exists.
  target = std::clamp(target, first_instr_, end_position());
  // The past: resume from the nearest keyframe (boot fresh before the
  // first one) and step forward.
  const bool relocate = target < position();
  if (relocate) open(nearest_keyframe(target));
  uint64_t remaining = target - position();
  while (remaining > 0 && !session_->vm().finished()) {
    uint64_t done = session_->vm().step(remaining);
    if (done == 0) break;
    remaining -= done;
  }
  // Watches are baselined where the move lands, not at the keyframe.
  if (relocate) reinstall_watchpoints();
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

int TimeTravelDebugger::watch_static(const std::string& cls,
                                     const std::string& field) {
  Watchpoint wp;
  wp.id = next_bp_id_++;
  wp.class_name = cls;
  wp.field_name = field;
  saved_watches_.push_back(wp);
  dbg_->restore_watchpoint(wp.id, cls, field);
  return wp.id;
}

bool TimeTravelDebugger::remove_watchpoint(int id) {
  for (size_t i = 0; i < saved_watches_.size(); ++i) {
    if (saved_watches_[i].id == id) {
      saved_watches_.erase(saved_watches_.begin() + long(i));
      dbg_->remove_watchpoint(id);
      return true;
    }
  }
  return false;
}

replay::ReplayResult TimeTravelDebugger::run_to_end_and_verify() {
  replay::ReplayResult r = session_->finish();
  sync_output();
  // A resumed replay printed only what follows its keyframe.
  r.output.insert(0, output_, 0, output_base_);
  return r;
}

}  // namespace dejavu::debugger
