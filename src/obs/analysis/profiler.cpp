#include "src/obs/analysis/profiler.hpp"

#include <algorithm>
#include <map>

#include "src/bytecode/opcodes.hpp"
#include "src/obs/json.hpp"

namespace dejavu::obs {

ReplayProfiler::MethodStat& ReplayProfiler::stat_for(const vm::InstrEvent& ev) {
  auto it = methods_.find(ev.method);
  if (it == methods_.end()) {
    MethodStat ms;
    ms.id = uint32_t(methods_.size());
    ms.name = *ev.owner + "." + *ev.method;
    it = methods_.emplace(ev.method, std::move(ms)).first;
  }
  return it->second;
}

uint32_t ReplayProfiler::child(uint32_t parent, const MethodStat* method) {
  uint64_t key = uint64_t(parent) << 32 | method->id;
  auto [it, fresh] = children_.try_emplace(key, uint32_t(nodes_.size()));
  if (fresh) nodes_.push_back({parent, method, nodes_[parent].tid, 0});
  return it->second;
}

void ReplayProfiler::on_instruction(const vm::InstrEvent& ev) {
  total_instructions_++;
  if (last_method_ == nullptr || last_method_key_ != ev.method) {
    last_method_ = &stat_for(ev);
    last_method_key_ = ev.method;
  }
  MethodStat& ms = *last_method_;
  ms.instructions++;
  if (ms.pcs.size() <= ev.pc) ms.pcs.resize(size_t(ev.pc) + 1);
  PcStat& ps = ms.pcs[ev.pc];
  ps.count++;
  ps.opcode = ev.opcode;
  ps.line = ev.line;

  if (shadows_.size() <= ev.tid) shadows_.resize(ev.tid + 1);
  ThreadShadow& sh = shadows_[ev.tid];
  if (sh.root == kNoNode) {
    sh.root = uint32_t(nodes_.size());
    nodes_.push_back({kNoNode, nullptr, ev.tid, 0});
  }
  auto top = [&sh] {
    return sh.stack.empty() ? sh.root : sh.stack.back().node;
  };
  while (sh.stack.size() > ev.frame_depth) sh.stack.pop_back();
  if (sh.stack.size() == ev.frame_depth && !sh.stack.empty() &&
      sh.stack.back().method != &ms) {
    sh.stack.pop_back();
    sh.stack.push_back({&ms, child(top(), &ms)});
  }
  while (sh.stack.size() < ev.frame_depth)
    sh.stack.push_back({&ms, child(top(), &ms)});
  nodes_[top()].count++;
}

void ReplayProfiler::on_yield_point(uint64_t, bool) {
  total_yield_points_++;
  // A yield point belongs to the instruction stream around it; attribute it
  // to the most recently executed method (exact for backedge yield points,
  // off by one frame for method prologues -- documented in DESIGN.md).
  if (last_method_ != nullptr) last_method_->yield_points++;
}

std::string ReplayProfiler::artifact() const {
  std::vector<const MethodStat*> order;
  order.reserve(methods_.size());
  for (const auto& [k, ms] : methods_) order.push_back(&ms);
  std::sort(order.begin(), order.end(),
            [](const MethodStat* a, const MethodStat* b) {
              if (a->instructions != b->instructions)
                return a->instructions > b->instructions;
              return a->name < b->name;
            });

  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-profile-v1")
      .kv("total_instructions", total_instructions_)
      .kv("total_yield_points", total_yield_points_)
      .kv("run_instr_count", run_.instr_count)
      .kv("run_logical_clock", run_.logical_clock)
      .kv("verified", run_.verified)
      .kv("post_violation", run_.post_violation);
  w.key("methods").begin_array();
  for (const MethodStat* ms : order) {
    w.begin_object()
        .kv("name", ms->name)
        .kv("instructions", ms->instructions)
        .kv("yield_points", ms->yield_points);
    std::vector<std::pair<uint32_t, const PcStat*>> pcs;
    for (uint32_t pc = 0; pc < ms->pcs.size(); ++pc) {
      if (ms->pcs[pc].count > 0) pcs.emplace_back(pc, &ms->pcs[pc]);
    }
    std::sort(pcs.begin(), pcs.end(), [](const auto& a, const auto& b) {
      if (a.second->count != b.second->count)
        return a.second->count > b.second->count;
      return a.first < b.first;
    });
    if (pcs.size() > top_n_) pcs.resize(top_n_);
    w.key("hot_pcs").begin_array();
    for (const auto& [pc, st] : pcs) {
      w.begin_object()
          .kv("pc", uint64_t(pc))
          .kv("op", bytecode::op_name(bytecode::Op(st->opcode)))
          .kv("line", int64_t(st->line))
          .kv("count", st->count)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.take();
}

std::string ReplayProfiler::collapsed() const {
  // Two methods may share a name ("Owner.method"), so stacks are merged by
  // their rendered string.
  std::map<std::string, uint64_t> lines;
  std::vector<const MethodStat*> path;
  for (const StackNode& n : nodes_) {
    if (n.count == 0) continue;  // only ever an inner frame
    path.clear();
    for (const StackNode* p = &n; p->method != nullptr; p = &nodes_[p->parent])
      path.push_back(p->method);
    std::string stack = "t";
    stack.append(std::to_string(n.tid));
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      stack += ';';
      stack += (*it)->name;
    }
    lines[stack] += n.count;
  }
  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace dejavu::obs
