#include "src/frontend/server.hpp"

#include <sstream>
#include <vector>

namespace dejavu::frontend {

namespace {
std::vector<std::string> tokenize(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

int64_t to_i64(const std::string& s) { return std::stoll(s); }

const char* kHelp =
    "commands:\n"
    "  break <class> <method> [pc]   set a breakpoint\n"
    "  breakline <class> <line>      set a line breakpoint\n"
    "  watch <class> <static>        stop when a static's value changes\n"
    "  delete <id>                   remove a breakpoint\n"
    "  breaks                        list breakpoints\n"
    "  run                           resume to next breakpoint / end\n"
    "  stepi                         step one instruction\n"
    "  step                          step one source line\n"
    "  where                         current location\n"
    "  list [n]                      disassembly around the pc\n"
    "  threads                       thread viewer\n"
    "  bt [tid]                      backtrace\n"
    "  inspect <addr> [depth]        object tree view\n"
    "  statics <class> [depth]       class statics view\n"
    "  methods                       the remote method table\n"
    "  line <method#> <offset>       lineNumberOf (Figure 3)\n"
    "  finish                        run replay to the end and verify\n";
}  // namespace

std::string DebugServer::cmd_where() {
  vm::FrameView fv = dbg_.location();
  std::ostringstream os;
  os << "stopped at " << fv.class_name << "." << fv.method_name << " pc "
     << fv.pc << " line " << fv.line;
  return os.str();
}

std::string DebugServer::handle(const std::string& command_line) {
  std::vector<std::string> t = tokenize(command_line);
  if (t.empty()) return "";
  const std::string& cmd = t[0];
  std::ostringstream os;

  if (cmd == "help") return kHelp;
  if (cmd == "break" && t.size() >= 3) {
    int32_t pc = t.size() >= 4 ? int32_t(to_i64(t[3])) : -1;
    int id = dbg_.break_at(t[1], t[2], pc);
    os << "breakpoint " << id << " at " << t[1] << "." << t[2];
    return os.str();
  }
  if (cmd == "breakline" && t.size() >= 3) {
    int id = dbg_.break_at_line(t[1], int32_t(to_i64(t[2])));
    os << "breakpoint " << id << " at " << t[1] << ":" << t[2];
    return os.str();
  }
  if (cmd == "delete" && t.size() >= 2) {
    return dbg_.remove_breakpoint(int(to_i64(t[1]))) ? "deleted"
                                                     : "no such breakpoint";
  }
  if (cmd == "watch" && t.size() >= 3) {
    int id = dbg_.watch_static(t[1], t[2]);
    os << "watchpoint " << id << " on " << t[1] << "." << t[2];
    return os.str();
  }
  if (cmd == "breaks") {
    for (const auto& bp : dbg_.breakpoints()) {
      os << "#" << bp.id << " " << bp.class_name;
      if (bp.line >= 0) {
        os << ":" << bp.line;
      } else {
        os << "." << bp.method_name;
        if (bp.pc >= 0) os << " pc " << bp.pc;
      }
      os << "\n";
    }
    return os.str().empty() ? "no breakpoints" : os.str();
  }
  if (cmd == "run") {
    debugger::StopReason r = dbg_.resume();
    if (r == debugger::StopReason::kFinished) return "replay finished";
    if (const debugger::Watchpoint* wp = dbg_.last_watch_hit()) {
      os << "watchpoint " << wp->id << ": " << wp->class_name << "."
         << wp->field_name << " = " << wp->last << "\n";
    }
    os << cmd_where();
    return os.str();
  }
  if (cmd == "stepi") {
    if (dbg_.step_instruction() == debugger::StopReason::kFinished)
      return "replay finished";
    return cmd_where();
  }
  if (cmd == "step") {
    if (dbg_.step_line() == debugger::StopReason::kFinished)
      return "replay finished";
    return cmd_where();
  }
  if (cmd == "where") return cmd_where();
  if (cmd == "list") {
    int n = t.size() >= 2 ? int(to_i64(t[1])) : 4;
    return cmd_where() + "\n" + dbg_.disassemble_around(n);
  }
  if (cmd == "threads") {
    for (const auto& th : dbg_.thread_list()) {
      os << "thread " << th.tid << " \"" << th.name << "\" " << th.state
         << "\n";
    }
    return os.str();
  }
  if (cmd == "bt") {
    threads::Tid tid = t.size() >= 2 ? threads::Tid(to_i64(t[1]))
                                     : threads::Tid(1);
    int i = 0;
    for (const auto& f : dbg_.backtrace(tid)) {
      os << "#" << i++ << " " << f.class_name << "." << f.method_name
         << " pc " << f.pc << " line " << f.line << "\n";
    }
    return os.str().empty() ? "no frames" : os.str();
  }
  if (cmd == "inspect" && t.size() >= 2) {
    int depth = t.size() >= 3 ? int(to_i64(t[2])) : 1;
    return dbg_.inspect_object(uint32_t(to_i64(t[1])), depth);
  }
  if (cmd == "statics" && t.size() >= 2) {
    int depth = t.size() >= 3 ? int(to_i64(t[2])) : 1;
    return dbg_.inspect_statics(t[1], depth);
  }
  if (cmd == "methods") {
    std::vector<std::string> names = dbg_.method_names();
    for (size_t i = 0; i < names.size(); ++i)
      os << i << ": " << names[i] << "\n";
    return os.str();
  }
  if (cmd == "line" && t.size() >= 3) {
    os << dbg_.line_number_of(size_t(to_i64(t[1])), uint64_t(to_i64(t[2])));
    return os.str();
  }
  if (cmd == "finish") {
    // Runs to the end past any breakpoint; a crash tail's reproduced crash
    // is reported, not thrown.
    replay::ReplayResult res = dbg_.finish_replay();
    if (res.crashed)
      os << "reproduced recorded crash: " << res.error << " (instr "
         << res.error_instr << ")\n";
    os << "replay " << (res.verified ? "verified exact" : "DIVERGED");
    if (!res.verified) os << ": " << res.stats.first_violation;
    return os.str();
  }
  throw VmError("unknown command: " + command_line);
}

int DebugServer::poll() {
  int handled = 0;
  while (auto p = chan_.to_server().recv()) {
    if (p->type != PacketType::kCommand) continue;
    try {
      chan_.to_client().send(Packet{PacketType::kResponse,
                                    handle(p->payload)});
    } catch (const VmError& e) {
      chan_.to_client().send(Packet{PacketType::kError, e.what()});
    }
    handled++;
  }
  return handled;
}

std::string roundtrip(DebugClient& client, DebugServer& server,
                      const std::string& command) {
  client.send(command);
  server.poll();
  std::optional<Packet> p = client.recv();
  if (!p.has_value()) return "<no response>";
  if (p->type == PacketType::kError) return "error: " + p->payload;
  return p->payload;
}

}  // namespace dejavu::frontend
