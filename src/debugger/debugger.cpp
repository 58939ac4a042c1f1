#include "src/debugger/debugger.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/bytecode/disasm.hpp"
#include "src/bytecode/verifier.hpp"

namespace dejavu::debugger {

using remote::as_i64;
using remote::as_object;
using remote::RemoteObject;

Debugger::Debugger(replay::ReplaySession& session,
                   bytecode::Program tool_program)
    : session_(session), tool_program_(std::move(tool_program)) {
  proc_ = std::make_unique<remote::VmRemoteProcess>(session_.vm());
  reflection_ = std::make_unique<remote::RemoteReflection>(*proc_,
                                                           tool_program_);
}

void Debugger::refresh_reflection() { reflection_->refresh(); }

int Debugger::break_at(const std::string& cls, const std::string& method,
                       int32_t pc) {
  Breakpoint bp;
  bp.id = next_bp_id_++;
  bp.class_name = cls;
  bp.method_name = method;
  bp.pc = pc;
  bps_.push_back(bp);
  return bp.id;
}

int Debugger::break_at_line(const std::string& cls, int32_t line) {
  Breakpoint bp;
  bp.id = next_bp_id_++;
  bp.class_name = cls;
  bp.line = line;
  bps_.push_back(bp);
  return bp.id;
}

bool Debugger::remove_breakpoint(int id) {
  for (size_t i = 0; i < bps_.size(); ++i) {
    if (bps_[i].id == id) {
      bps_.erase(bps_.begin() + long(i));
      return true;
    }
  }
  return false;
}

bool Debugger::hits_breakpoint(const vm::FrameView& fv) const {
  for (const Breakpoint& bp : bps_) {
    if (bp.class_name != fv.class_name) continue;
    if (bp.line >= 0) {
      if (bp.line != fv.line) continue;
      // Trigger only on the first instruction of the line (otherwise a
      // resume would re-stop on every instruction of it).
      const bytecode::ClassDef* cd = tool_program_.find_class(fv.class_name);
      const bytecode::MethodDef* md =
          cd != nullptr ? cd->find_method(fv.method_name) : nullptr;
      if (md != nullptr && fv.pc > 0 &&
          md->code[fv.pc - 1].line == fv.line) {
        continue;
      }
      return true;
    }
    if (bp.method_name != fv.method_name) continue;
    if (bp.pc >= 0 && uint32_t(bp.pc) != fv.pc) continue;
    if (bp.pc < 0 && fv.pc != 0) continue;  // method-entry breakpoint
    return true;
  }
  return false;
}

int Debugger::watch_static(const std::string& cls,
                           const std::string& field) {
  Watchpoint wp;
  wp.id = next_bp_id_++;
  wp.class_name = cls;
  wp.field_name = field;
  watches_.push_back(wp);
  return wp.id;
}

void Debugger::restore_watchpoint(int id, const std::string& cls,
                                  const std::string& field) {
  Watchpoint wp;
  wp.id = id;
  wp.class_name = cls;
  wp.field_name = field;
  wp.armed = read_watched(wp, &wp.last);
  watches_.push_back(wp);
  next_bp_id_ = std::max(next_bp_id_, id + 1);
}

bool Debugger::remove_watchpoint(int id) {
  for (size_t i = 0; i < watches_.size(); ++i) {
    if (watches_[i].id == id) {
      watches_.erase(watches_.begin() + long(i));
      return true;
    }
  }
  return false;
}

const Watchpoint* Debugger::last_watch_hit() const {
  for (const Watchpoint& wp : watches_) {
    if (wp.id == last_watch_hit_) return &wp;
  }
  return nullptr;
}

bool Debugger::read_watched(const Watchpoint& wp, int64_t* value) const {
  const vm::Vm& vm = session_.vm();
  const vm::RuntimeClass* rc = vm.runtime_class(wp.class_name);
  if (rc == nullptr || !rc->loaded) return false;
  auto it = rc->static_slot.find(wp.field_name);
  if (it == rc->static_slot.end()) return false;
  *value = vm.guest_heap().field_i64(heap::Addr(rc->statics_obj), it->second);
  return true;
}

bool Debugger::watch_fired() {
  bool fired = false;
  for (Watchpoint& wp : watches_) {
    int64_t v;
    if (!read_watched(wp, &v)) continue;
    if (!wp.armed) {
      wp.armed = true;
      wp.last = v;
      continue;
    }
    if (v != wp.last) {
      wp.last = v;
      if (!fired) last_watch_hit_ = wp.id;
      fired = true;
    }
  }
  return fired;
}

StopReason Debugger::resume() {
  vm::Vm& vm = session_.vm();
  if (vm.finished()) return StopReason::kFinished;
  last_watch_hit_ = -1;
  // If currently stopped *at* a breakpoint, step off it first so the probe
  // doesn't immediately re-trigger.
  if (vm.thread_package().current() != threads::kNoThread &&
      hits_breakpoint(vm.current_frame_view())) {
    vm.step_one();
  }
  vm.set_instruction_probe([this](vm::Vm&, const vm::FrameView& fv) {
    return watch_fired() || hits_breakpoint(fv);
  });
  while (!vm.finished()) {
    vm.step(1u << 20);
    if (vm.stopped_at_probe()) break;
  }
  vm.set_instruction_probe(nullptr);
  refresh_reflection();
  return vm.finished() ? StopReason::kFinished : StopReason::kBreakpoint;
}

StopReason Debugger::step_instruction() {
  vm::Vm& vm = session_.vm();
  if (vm.finished()) return StopReason::kFinished;
  vm.step_one();
  refresh_reflection();
  return vm.finished() ? StopReason::kFinished : StopReason::kStep;
}

StopReason Debugger::step_line() {
  vm::Vm& vm = session_.vm();
  if (vm.finished()) return StopReason::kFinished;
  vm::FrameView start = vm.current_frame_view();
  for (;;) {
    if (!vm.step_one()) break;
    if (vm.finished()) break;
    vm::FrameView now = vm.current_frame_view();
    if (now.line != start.line ||
        now.method_metadata_addr != start.method_metadata_addr) {
      break;
    }
  }
  refresh_reflection();
  return vm.finished() ? StopReason::kFinished : StopReason::kStep;
}

replay::ReplayResult Debugger::finish_replay() { return session_.finish(); }

vm::FrameView Debugger::location() const {
  return session_.vm().current_frame_view();
}

std::string Debugger::disassemble_around(int context_instrs) const {
  vm::FrameView fv = location();
  const bytecode::ClassDef* cd = tool_program_.find_class(fv.class_name);
  const bytecode::MethodDef* md =
      cd != nullptr ? cd->find_method(fv.method_name) : nullptr;
  if (md == nullptr) return "<no source available>\n";
  std::ostringstream os;
  os << fv.class_name << "." << fv.method_name << ":\n";
  int32_t lo = std::max<int32_t>(0, int32_t(fv.pc) - context_instrs);
  int32_t hi = std::min<int32_t>(int32_t(md->code.size()) - 1,
                                 int32_t(fv.pc) + context_instrs);
  for (int32_t pc = lo; pc <= hi; ++pc) {
    os << (uint32_t(pc) == fv.pc ? " => " : "    ") << pc << "\t[line "
       << md->code[pc].line << "]\t"
       << bytecode::disassemble_instr(tool_program_, *md, size_t(pc)) << "\n";
  }
  return os.str();
}

std::vector<ThreadInfo> Debugger::thread_list() {
  refresh_reflection();
  // Names come from the remote heap (Thread objects in the registry's
  // thread table); states from the GETREGS-analog interface.
  std::map<threads::Tid, std::string> names;
  for (const RemoteObject& t : reflection_->thread_table()) {
    auto tid = threads::Tid(as_i64(reflection_->get_field(t, "tid")));
    names[tid] =
        reflection_->read_string(as_object(reflection_->get_field(t, "name")));
  }
  std::vector<ThreadInfo> out;
  for (const remote::RemoteThreadState& ts : proc_->threads()) {
    ThreadInfo info;
    info.tid = ts.tid;
    auto it = names.find(ts.tid);
    info.name = it != names.end() ? it->second : "<unknown>";
    info.state = threads::thread_state_name(threads::ThreadState(ts.state));
    out.push_back(std::move(info));
  }
  return out;
}

DebugFrame Debugger::describe_frame(const remote::RemoteFrame& rf) {
  DebugFrame df;
  df.pc = rf.pc;
  RemoteObject method = reflection_->object_at(rf.method_metadata_addr);
  df.method_name =
      reflection_->read_string(as_object(reflection_->get_field(method,
                                                                "name")));
  RemoteObject owner = as_object(reflection_->get_field(method, "owner"));
  df.class_name =
      reflection_->read_string(as_object(reflection_->get_field(owner,
                                                                "name")));
  df.line = reflection_->line_number_at(method, rf.pc);
  return df;
}

std::vector<DebugFrame> Debugger::backtrace(threads::Tid tid) {
  refresh_reflection();
  std::vector<DebugFrame> out;
  std::vector<remote::RemoteFrame> frames = proc_->thread_frames(tid);
  // Innermost first, like a conventional debugger.
  for (size_t i = frames.size(); i-- > 0;)
    out.push_back(describe_frame(frames[i]));
  return out;
}

std::string Debugger::inspect_object(uint32_t addr, int depth) {
  refresh_reflection();
  return reflection_->describe_object(reflection_->object_at(addr), depth);
}

std::string Debugger::inspect_statics(const std::string& cls, int depth) {
  refresh_reflection();
  const remote::RemoteClassInfo* info = reflection_->class_info(cls);
  if (info == nullptr || info->vm_class.is_null())
    return "<class " + cls + " not loaded in the application VM>\n";
  RemoteObject statics =
      as_object(reflection_->get_field(info->vm_class, "statics"));
  // The statics record's layout comes from the tool's program copy.
  const bytecode::ClassDef* cd = tool_program_.find_class(cls);
  if (cd == nullptr) return "<no static layout known for " + cls + ">\n";
  std::ostringstream os;
  os << "statics of " << cls << ":\n";
  for (size_t slot = 0; slot < cd->statics.size(); ++slot) {
    uint64_t raw = 0;
    uint32_t a = statics.addr + heap::kOffFields + uint32_t(slot) * 8;
    if (!proc_->read_bytes(a, &raw, 8)) continue;
    const auto& f = cd->statics[slot];
    if (f.type == bytecode::ValueType::kRef) {
      os << "  ." << f.name << ":\n"
         << reflection_->describe_object(
                reflection_->object_at(uint32_t(raw)), depth);
    } else {
      os << "  ." << f.name << " = " << int64_t(raw) << "\n";
    }
  }
  return os.str();
}

int64_t Debugger::line_number_of(size_t method_number, uint64_t offset) {
  // Figure 3, step by step: obtain the method table through a mapped
  // method, select the candidate, invoke the reflective query on the
  // remote object.
  refresh_reflection();
  std::vector<RemoteObject> mtable = reflection_->method_table();
  if (method_number >= mtable.size())
    throw RemoteError("method number out of range");
  RemoteObject candidate = mtable[method_number];
  return reflection_->line_number_at(candidate, offset);
}

std::vector<std::string> Debugger::method_names() {
  refresh_reflection();
  std::vector<std::string> out;
  for (const RemoteObject& m : reflection_->method_table()) {
    RemoteObject owner = as_object(reflection_->get_field(m, "owner"));
    out.push_back(
        reflection_->read_string(
            as_object(reflection_->get_field(owner, "name"))) +
        "." +
        reflection_->read_string(
            as_object(reflection_->get_field(m, "name"))));
  }
  return out;
}

}  // namespace dejavu::debugger
