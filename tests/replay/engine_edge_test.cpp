// Engine API contracts and edge cases.
#include <gtest/gtest.h>

#include "src/replay/session.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

RecordResult quick_record(uint64_t seed = 7) {
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::VirtualTimer timer(seed, 5, 80);
  return record_run(workloads::counter_race(2, 8), {}, env, timer);
}

TEST(EngineEdge, TakeTraceBeforeFinishThrows) {
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::NullTimer timer;
  RecordSession session(workloads::fig1_race(),
                        std::make_unique<VectorTraceSink>(), {}, env, timer);
  EXPECT_THROW(session.take_trace(), VmError);
  session.finish();
  EXPECT_NO_THROW(session.take_trace());
}

TEST(EngineEdge, AttachTwiceThrows) {
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::NullTimer timer;
  DejaVuEngine engine;
  vm::Vm v1(workloads::fig1_race(), {}, env, timer, &engine);
  v1.run();
  vm::Vm v2(workloads::fig1_race(), {}, env, timer, &engine);
  EXPECT_THROW(v2.run(), VmError);
}

TEST(EngineEdge, ReplayerReportsModeAndStats) {
  RecordResult rec = quick_record();
  EXPECT_GT(rec.stats.preempt_switches, 0u);
  ReplaySession rep(workloads::counter_race(2, 8), rec.trace, {});
  EXPECT_EQ(rep.engine().mode(), Mode::kReplay);
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::NullTimer timer;
  RecordSession recd(workloads::counter_race(2, 8),
                     std::make_unique<VectorTraceSink>(), {}, env, timer);
  EXPECT_EQ(recd.engine().mode(), Mode::kRecord);
}

TEST(EngineEdge, TruncatedScheduleDetected) {
  RecordResult rec = quick_record();
  testutil::TraceStreams s = testutil::streams_of(rec.trace);
  ASSERT_GT(s.schedule[0].size(), 2u);
  s.schedule[0].resize(s.schedule[0].size() / 2);  // drop later switches
  TraceFile bad = testutil::build_trace(s);
  SymmetryConfig cfg;
  cfg.strict = false;
  ReplayResult rep =
      replay_run(workloads::counter_race(2, 8), bad, {}, cfg);
  EXPECT_FALSE(rep.verified);
}

TEST(EngineEdge, TruncatedEventsDetected) {
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::NullTimer timer;
  RecordResult rec =
      record_run(workloads::env_reader(5), {}, env, timer);
  testutil::TraceStreams s = testutil::streams_of(rec.trace);
  ASSERT_GT(s.events[0].size(), 4u);
  s.events[0].resize(s.events[0].size() - 3);
  TraceFile bad = testutil::build_trace(s);
  SymmetryConfig cfg;
  cfg.strict = false;
  ReplayResult rep = replay_run(workloads::env_reader(5), bad, {}, cfg);
  EXPECT_FALSE(rep.verified);
  EXPECT_GT(rep.stats.symmetry_violations, 0u);
}

TEST(EngineEdge, CorruptedDeltaDivergesStrictly) {
  RecordResult rec = quick_record();
  testutil::TraceStreams s = testutil::streams_of(rec.trace);
  ASSERT_FALSE(s.schedule[0].empty());
  s.schedule[0][0] = uint8_t(s.schedule[0][0] + 1);  // shift first switch
  TraceFile bad = testutil::build_trace(s);
  EXPECT_THROW(replay_run(workloads::counter_race(2, 8), bad, {}),
               ReplayDivergence);
}

TEST(EngineEdge, MismatchedSymmetryConfigDetected) {
  // Recording with one instrumentation footprint and replaying with
  // another is itself an asymmetry; detection must catch it.
  SymmetryConfig rec_cfg;
  rec_cfg.buffer_capacity = 256;
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::VirtualTimer timer(7, 5, 80);
  RecordResult rec = record_run(workloads::clock_mixer(2, 20), {}, env,
                                timer, nullptr, rec_cfg);
  SymmetryConfig rep_cfg;
  rep_cfg.buffer_capacity = 4096;  // different buffer geometry
  rep_cfg.strict = false;
  ReplayResult rep =
      replay_run(workloads::clock_mixer(2, 20), rec.trace, {}, rep_cfg);
  EXPECT_FALSE(rep.verified);
}

TEST(EngineEdge, SessionStepwiseEqualsWholesale) {
  RecordResult rec = quick_record();
  bytecode::Program prog = workloads::counter_race(2, 8);

  ReplayResult whole = replay_run(prog, rec.trace, {});

  ReplaySession session(prog, rec.trace, {});
  while (!session.vm().finished()) {
    if (session.vm().step(13) == 0) break;  // odd-sized increments
  }
  ReplayResult step = session.finish();

  EXPECT_TRUE(whole.verified && step.verified);
  EXPECT_EQ(whole.summary, step.summary);
}

TEST(EngineEdge, ZeroLengthProgramRecords) {
  bytecode::ProgramBuilder pb;
  pb.add_class("Main").method("run").arg(bytecode::ValueType::kRef).ret();
  pb.main("Main", "run");
  bytecode::Program prog = pb.build();
  vm::ScriptedEnvironment env(0, 1, {}, 1);
  threads::NullTimer timer;
  RecordResult rec = record_run(prog, {}, env, timer);
  EXPECT_EQ(rec.trace.meta.preempt_switches, 0u);
  ReplayResult rep = replay_run(prog, rec.trace, {});
  EXPECT_TRUE(rep.verified);
}

}  // namespace
}  // namespace dejavu::replay
