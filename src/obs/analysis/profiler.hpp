// The replay profiler: attributes instruction and yield-point costs per
// method and per pc, entirely from the replayed run. Deterministic replay
// makes this an *exact* profile (every instruction is counted, not sampled)
// of the recorded execution -- and because it runs at replay time it costs
// the recorded application nothing.
//
// Cost. Per instruction: a compare against the last method hit (a hash
// lookup by method pointer on a miss), an increment of a per-pc counter in
// a flat vector indexed by pc, the shadow-stack depth check and an
// increment of the stack's counter. Stacks are interned as a tree of
// (parent node, method) ids, so a call or a return costs one probe of an
// integer-keyed map and builds no string; collapsed() renders each stack's
// string once, at the end.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/analysis/analysis.hpp"

namespace dejavu::obs {

class ReplayProfiler : public AnalysisObserver {
 public:
  explicit ReplayProfiler(uint32_t top_n = 10) : top_n_(top_n) {}

  const char* name() const override { return "profiler"; }
  bool wants_instructions() const override { return true; }

  void on_instruction(const vm::InstrEvent& ev) override;
  void on_yield_point(uint64_t logical_clock, bool switched) override;
  void on_run_end(const RunInfo& info) override { run_ = info; }

  // dejavu-profile-v1 JSON.
  std::string artifact() const override;
  // Brendan Gregg collapsed-stack text: "t1;Main.main;Main.work 123" per
  // line, one line per distinct stack, suitable for flamegraph.pl.
  std::string collapsed() const;

 private:
  struct PcStat {
    uint64_t count = 0;
    uint8_t opcode = 0;
    int32_t line = -1;
  };
  struct MethodStat {
    uint32_t id = 0;   // dense, in first-execution order
    std::string name;  // "Owner.method"
    uint64_t instructions = 0;
    uint64_t yield_points = 0;
    std::vector<PcStat> pcs;  // by pc; count 0 = never executed
  };
  // One interned stack: a thread's root ("t<tid>", no method) or a frame
  // of `method` called from the stack `parent`. `count` is the collapsed
  // stack's instruction count.
  static constexpr uint32_t kNoNode = UINT32_MAX;
  struct StackNode {
    uint32_t parent = kNoNode;
    const MethodStat* method = nullptr;
    uint32_t tid = 0;
    uint64_t count = 0;
  };
  // Shadow call stack per thread, reconstructed from frame_depth deltas
  // (every InstrEvent's depth differs from the previous one in that thread
  // by at most one frame). Each frame keeps the node of the stack it tops.
  struct Frame {
    const MethodStat* method;
    uint32_t node;
  };
  struct ThreadShadow {
    std::vector<Frame> stack;
    uint32_t root = kNoNode;
  };

  MethodStat& stat_for(const vm::InstrEvent& ev);
  // The node of `method` called on top of the stack `parent`.
  uint32_t child(uint32_t parent, const MethodStat* method);

  // Keyed by the method-name string's address: unique per MethodDef and
  // stable for the life of the run (the entries copy the names they need).
  std::unordered_map<const std::string*, MethodStat> methods_;
  std::vector<StackNode> nodes_;
  // (parent node << 32 | method id) -> node.
  std::unordered_map<uint64_t, uint32_t> children_;
  std::vector<ThreadShadow> shadows_;  // by tid
  // The most recently executed method: the per-instruction cache of the
  // methods_ lookup, and the yield-point attribution.
  MethodStat* last_method_ = nullptr;
  const std::string* last_method_key_ = nullptr;
  uint32_t top_n_;
  uint64_t total_instructions_ = 0;
  uint64_t total_yield_points_ = 0;
  RunInfo run_{};
};

}  // namespace dejavu::obs
