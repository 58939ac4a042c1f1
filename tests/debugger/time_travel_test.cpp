// Time travel: deterministic replay makes any past point revisitable,
// and the state found there is independent of the navigation path --
// whether the debugger got there by stepping forward, by resuming from a
// keyframe or by booting fresh.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.hpp"
#include "src/debugger/time_travel.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::debugger {
namespace {

constexpr bytecode::ValueType I = bytecode::ValueType::kI64;
constexpr bytecode::ValueType R = bytecode::ValueType::kRef;

// Two threads that bump and print the shared count every iteration, so
// output accumulates along the whole run (every keyframe has a prefix
// before it) and a breakpoint on `bump` hits all along it.
bytecode::Program chatty(int64_t iters) {
  bytecode::ProgramBuilder pb;
  auto& main = pb.add_class("Main");
  main.static_field("c", I);
  main.method("bump")
      .getstatic("Main", "c")
      .push_i(1)
      .add()
      .putstatic("Main", "c")
      .ret();
  auto& w = main.method("worker").arg(R).locals(2);
  auto top = w.label(), done = w.label();
  w.push_i(0).store(1);
  w.bind(top).load(1).push_i(iters).cmp_ge().jnz(done);
  w.invoke_static("Main", "bump");
  w.getstatic("Main", "c").print_i();
  w.load(1).push_i(1).add().store(1).jmp(top);
  w.bind(done).ret();
  auto& m = main.method("run").arg(R).locals(3);
  m.push_null().spawn("Main", "worker").store(1);
  m.push_null().spawn("Main", "worker").store(2);
  m.load(1).join().load(2).join().ret();
  pb.main("Main", "run");
  return pb.build();
}

replay::RecordResult record(const bytecode::Program& prog) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3}, 17);
  threads::VirtualTimer timer(11, 20, 200);
  return replay::record_run(prog, {}, env, timer);
}

// What a replay looks like after `k` instructions.
struct StateAt {
  uint64_t instr_count, output_hash, switch_seq_hash, heap_hash, audit_digest;
  bool operator==(const StateAt&) const = default;
};

StateAt state_of(const vm::Vm& v) {
  vm::BehaviorSummary s = v.summary();
  return {s.instr_count, s.output_hash, s.switch_seq_hash, s.heap_hash,
          s.audit_digest};
}

// A straight replay from instruction 0 to each of `targets` (ascending).
std::vector<StateAt> straight(const bytecode::Program& prog,
                              const replay::TraceFile& trace,
                              const std::vector<uint64_t>& targets) {
  replay::ReplaySession s(prog, trace, {});
  std::vector<StateAt> out;
  for (uint64_t k : targets) {
    while (s.vm().instr_count() < k && !s.vm().finished())
      s.vm().step(k - s.vm().instr_count());
    out.push_back(state_of(s.vm()));
  }
  return out;
}

// The latest keyframe at or before `k`, or `none`.
uint64_t keyframe_before(const TimeTravelDebugger& tt, uint64_t k,
                         uint64_t none) {
  uint64_t best = none;
  for (uint64_t p : tt.keyframe_positions())
    if (p <= k) best = p;
  return best;
}

replay::RecordResult record_counter() {
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::VirtualTimer timer(11, 5, 80);
  return replay::record_run(workloads::counter_race(3, 15), {}, env, timer);
}

TEST(TimeTravel, ForwardAndBackwardNavigation) {
  replay::RecordResult rec = record_counter();
  TimeTravelDebugger tt(workloads::counter_race(3, 15), rec.trace);
  EXPECT_EQ(tt.position(), 0u);
  EXPECT_EQ(tt.end_position(), rec.summary.instr_count);
  ASSERT_GT(tt.end_position(), 400u);

  tt.goto_instruction(300);
  EXPECT_EQ(tt.position(), 300u);
  tt.step_forward(25);
  EXPECT_EQ(tt.position(), 325u);
  tt.step_back(100);
  EXPECT_EQ(tt.position(), 225u);
  tt.goto_instruction(0);
  EXPECT_EQ(tt.position(), 0u);
}

TEST(TimeTravel, StateAtPositionIsPathIndependent) {
  replay::RecordResult rec = record_counter();
  bytecode::Program prog = workloads::counter_race(3, 15);
  uint64_t end = rec.summary.instr_count;
  uint64_t target = end / 2;

  TimeTravelDebugger a(prog, rec.trace);
  a.goto_instruction(target);
  uint64_t direct = a.vm().guest_heap().image_hash();

  TimeTravelDebugger b(prog, rec.trace);
  b.goto_instruction(end - 10);
  b.step_back(end - 10 - target - 30);  // target + 30
  b.step_back(30);                      // target, via two rebuilds
  EXPECT_EQ(b.position(), target);
  EXPECT_EQ(b.vm().guest_heap().image_hash(), direct);
}

TEST(TimeTravel, ClampsPastTheEnd) {
  replay::RecordResult rec = record_counter();
  TimeTravelDebugger tt(workloads::counter_race(3, 15), rec.trace);
  tt.goto_instruction(rec.summary.instr_count + 1000);
  EXPECT_EQ(tt.position(), rec.summary.instr_count);
}

TEST(TimeTravel, BreakpointsSurviveRelocation) {
  replay::RecordResult rec = record_counter();
  TimeTravelDebugger tt(workloads::counter_race(3, 15), rec.trace);
  tt.break_at("Main", "bump1");
  ASSERT_EQ(tt.resume(), StopReason::kBreakpoint);
  uint64_t first_hit = tt.position();
  EXPECT_EQ(tt.debugger().location().method_name, "bump1");

  // Travel to the past; the breakpoint must re-trigger at the same spot.
  tt.goto_instruction(0);
  ASSERT_EQ(tt.resume(), StopReason::kBreakpoint);
  EXPECT_EQ(tt.position(), first_hit);
}

TEST(TimeTravel, InspectionWorksAtAnyPosition) {
  replay::RecordResult rec = record_counter();
  TimeTravelDebugger tt(workloads::counter_race(3, 15), rec.trace);
  tt.goto_instruction(tt.end_position() / 2);
  // The debugger view over the relocated session is fully live.
  auto threads = tt.debugger().thread_list();
  EXPECT_GE(threads.size(), 1u);
  (void)tt.debugger().inspect_statics("Main", 1);
}

TEST(TimeTravel, VerifiesAfterArbitraryWandering) {
  replay::RecordResult rec = record_counter();
  TimeTravelDebugger tt(workloads::counter_race(3, 15), rec.trace);
  tt.goto_instruction(700);
  tt.step_back(300);
  tt.goto_instruction(100);
  replay::ReplayResult res = tt.run_to_end_and_verify();
  EXPECT_TRUE(res.verified) << res.stats.first_violation;
  EXPECT_EQ(res.output, rec.output);
}

TEST(TimeTravel, WatchingAVariableBackwards) {
  // The classic reverse-debugging question: "when did c last change before
  // the end?" -- answered by a watchpoint sweep from instruction 0.
  replay::RecordResult rec = record_counter();
  TimeTravelDebugger tt(workloads::counter_race(3, 15), rec.trace);
  tt.debugger().watch_static("Main", "c");
  uint64_t last_change = 0;
  while (tt.resume() != StopReason::kFinished) {
    if (tt.debugger().last_watch_hit() != nullptr)
      last_change = tt.position();
  }
  EXPECT_GT(last_change, 0u);
  // Travel back to just before the last change and observe the old value.
  tt.goto_instruction(last_change - 1);
  std::string statics = tt.debugger().inspect_statics("Main", 1);
  EXPECT_NE(statics.find(".c ="), std::string::npos);
}

TEST(TimeTravel, GotoMatchesAStraightReplayFromAnyPosition) {
  for (const bytecode::Program& prog :
       {workloads::clock_mixer(3, 120), chatty(150)}) {
    replay::RecordResult rec = record(prog);
    const uint64_t end = rec.summary.instr_count;
    SplitMix64 rng(end);
    std::vector<uint64_t> targets;
    for (int i = 0; i < 12; ++i) targets.push_back(rng.next_range(0, end));
    std::sort(targets.begin(), targets.end());
    std::vector<StateAt> want = straight(prog, rec.trace, targets);

    TimeTravelDebugger tt(prog, rec.trace);
    tt.goto_instruction(end);  // every keyframe exists from here on
    ASSERT_GE(tt.keyframe_positions().size(), 8u);
    // Visit the targets in a seeded order, each from a seeded earlier or
    // later position.
    std::vector<size_t> order(targets.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    size_t resumed = 0;
    for (size_t i : order) {
      const uint64_t k = targets[i];
      SCOPED_TRACE("target " + std::to_string(k));
      tt.goto_instruction(rng.next_below(2) == 0 ? rng.next_range(0, k)
                                                 : rng.next_range(k, end));
      const uint64_t from = tt.position();
      tt.goto_instruction(k);
      EXPECT_TRUE(state_of(tt.vm()) == want[i]);
      if (k < from) {
        // Backward: resumed from the nearest keyframe, never from 0 while
        // one lies at or before the target.
        EXPECT_EQ(tt.replay_start(), keyframe_before(tt, k, 0));
        resumed += tt.replay_start() > 0;
      }
    }
    EXPECT_GT(resumed, 0u);
    replay::ReplayResult res = tt.run_to_end_and_verify();
    EXPECT_TRUE(res.verified) << res.stats.first_violation;
    EXPECT_EQ(res.summary, rec.summary);
    EXPECT_EQ(res.output, rec.output);
  }
}

TEST(TimeTravel, BreakpointsSurviveAKeyframeResume) {
  bytecode::Program prog = chatty(150);
  replay::RecordResult rec = record(prog);
  TimeTravelDebugger tt(prog, rec.trace);
  tt.break_at("Main", "bump");
  std::vector<uint64_t> hits;
  while (tt.resume() == StopReason::kBreakpoint) hits.push_back(tt.position());
  ASSERT_EQ(hits.size(), 300u);

  // Back to just before a hit late in the run, which resumes from a
  // keyframe: the breakpoint fires at the same spots from there on.
  const size_t j = hits.size() * 3 / 4;
  tt.goto_instruction(hits[j] - 1);
  EXPECT_GT(tt.replay_start(), hits[0]);
  EXPECT_EQ(tt.replay_start(), keyframe_before(tt, hits[j] - 1, 0));
  for (size_t i = j; i < hits.size(); ++i) {
    ASSERT_EQ(tt.resume(), StopReason::kBreakpoint);
    EXPECT_EQ(tt.position(), hits[i]);
    EXPECT_EQ(tt.debugger().location().method_name, "bump");
  }
  EXPECT_EQ(tt.resume(), StopReason::kFinished);
}

// Every watch hit from the current position to the end: where it stopped
// and the value it saw.
std::vector<std::pair<uint64_t, int64_t>> watch_hits(TimeTravelDebugger& tt,
                                                     int id) {
  std::vector<std::pair<uint64_t, int64_t>> hits;
  while (tt.resume() == StopReason::kBreakpoint) {
    const Watchpoint* wp = tt.debugger().last_watch_hit();
    EXPECT_NE(wp, nullptr);
    if (wp == nullptr) break;
    EXPECT_EQ(wp->id, id);
    hits.emplace_back(tt.position(), wp->last);
  }
  return hits;
}

TEST(TimeTravel, WatchpointsSurviveAKeyframeResume) {
  bytecode::Program prog = chatty(150);
  replay::RecordResult rec = record(prog);
  const uint64_t end = rec.summary.instr_count;
  const uint64_t target = end * 3 / 4;

  // Straight: forward to the target, watch from there.
  TimeTravelDebugger straight_tt(prog, rec.trace);
  straight_tt.goto_instruction(target);
  int sid = straight_tt.watch_static("Main", "c");
  std::vector<std::pair<uint64_t, int64_t>> want = watch_hits(straight_tt, sid);
  ASSERT_GT(want.size(), 10u);

  // Watched from the start, run to the end, then back to the target: the
  // replay resumes from a keyframe and the watch, re-armed with the value
  // there, stops at the same spots.
  TimeTravelDebugger tt(prog, rec.trace);
  int id = tt.watch_static("Main", "c");
  tt.goto_instruction(end);
  tt.goto_instruction(target);
  EXPECT_GT(tt.replay_start(), 0u);
  EXPECT_EQ(tt.replay_start(), keyframe_before(tt, target, 0));
  EXPECT_EQ(watch_hits(tt, id), want);

  // A removed watch stays removed across relocations.
  EXPECT_TRUE(tt.remove_watchpoint(id));
  EXPECT_FALSE(tt.remove_watchpoint(id));
  tt.goto_instruction(target);
  EXPECT_EQ(tt.resume(), StopReason::kFinished);
}

TEST(TimeTravel, RunToEndAfterBackwardJumpsHasTheFullOutput) {
  bytecode::Program prog = chatty(150);
  replay::RecordResult rec = record(prog);
  ASSERT_GT(rec.output.size(), 100u);
  TimeTravelDebugger tt(prog, rec.trace);
  tt.goto_instruction(tt.end_position() - 10);
  tt.goto_instruction(tt.end_position() / 2);
  tt.step_back(3);
  ASSERT_GT(tt.replay_start(), 0u);
  replay::ReplayResult res = tt.run_to_end_and_verify();
  EXPECT_TRUE(res.verified) << res.stats.first_violation;
  EXPECT_EQ(res.output, rec.output);
  // The resumed VM itself printed only what follows its keyframe.
  EXPECT_LT(tt.vm().output().size(), rec.output.size());
}

TEST(TimeTravel, AnalyzersSeeTheWholeRun) {
  bytecode::Program prog = chatty(100);
  replay::RecordResult rec = record(prog);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_profile = true;
  TimeTravelDebugger tt(prog, rec.trace, {}, cfg);
  tt.goto_instruction(tt.end_position());
  EXPECT_TRUE(tt.keyframe_positions().empty());
  tt.step_back(10);
  EXPECT_EQ(tt.replay_start(), 0u);
  replay::ReplayResult res = tt.run_to_end_and_verify();
  EXPECT_TRUE(res.verified) << res.stats.first_violation;
  EXPECT_EQ(res.analysis.profile_json,
            replay::replay_run(prog, rec.trace, {}, cfg).analysis.profile_json);
}

// Keyframes are spaced end / 64 apart until they outgrow the budget; then
// every other one goes (the first stays) and the spacing doubles.
void expect_spaced(const TimeTravelDebugger& tt, uint64_t gap) {
  std::vector<uint64_t> kf = tt.keyframe_positions();
  ASSERT_FALSE(kf.empty());
  EXPECT_LE(tt.keyframe_bytes(), TimeTravelDebugger::kKeyframeBudget);
  EXPECT_GE(kf[0], tt.end_position() / TimeTravelDebugger::kInitialKeyframes);
  for (size_t i = 1; i < kf.size(); ++i) EXPECT_GE(kf[i] - kf[i - 1], gap);
}

TEST(TimeTravel, KeyframesStayUnderTheBudget) {
  // Small checkpoints: one keyframe per spacing, no thinning.
  replay::RecordResult rec = record(workloads::clock_mixer(3, 400));
  TimeTravelDebugger tt(workloads::clock_mixer(3, 400), rec.trace);
  tt.goto_instruction(tt.end_position());
  const uint64_t spacing =
      tt.end_position() / TimeTravelDebugger::kInitialKeyframes;
  expect_spaced(tt, spacing);
  EXPECT_GE(tt.keyframe_positions().size(),
            TimeTravelDebugger::kInitialKeyframes / 2);

  // A full 1 MiB semispace makes checkpoints too large for 64 keyframes.
  vm::VmOptions small_heap;
  small_heap.heap.size_bytes = 1u << 20;
  bytecode::Program churn = workloads::alloc_churn(20000, 8, 4);
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::VirtualTimer timer(11, 20, 200);
  replay::RecordResult big = replay::record_run(churn, small_heap, env, timer);
  TimeTravelDebugger thin(churn, big.trace, small_heap);
  thin.goto_instruction(thin.end_position());
  const uint64_t thin_spacing =
      thin.end_position() / TimeTravelDebugger::kInitialKeyframes;
  size_t n = thin.keyframe_positions().size();
  EXPECT_LT(n, TimeTravelDebugger::kInitialKeyframes / 2);
  expect_spaced(thin, 2 * thin_spacing);
  // Going back still lands on the state a straight replay reaches.
  uint64_t k = thin.end_position() / 3;
  std::vector<StateAt> want = straight(churn, big.trace, {k});
  thin.goto_instruction(k);
  EXPECT_TRUE(state_of(thin.vm()) == want[0]);
  EXPECT_GT(thin.replay_start(), 0u);
  replay::ReplayResult res = thin.run_to_end_and_verify();
  EXPECT_TRUE(res.verified) << res.stats.first_violation;
  EXPECT_EQ(res.output, big.output);
}

}  // namespace
}  // namespace dejavu::debugger
