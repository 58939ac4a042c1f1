#include <gtest/gtest.h>

#include "src/replay/session.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

RecordResult record_seeded(const bytecode::Program& prog, uint64_t seed) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3}, 17);
  threads::VirtualTimer timer(seed, 5, 80);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  return record_run(prog, {}, env, timer, &natives);
}

TraceDiff diff_of(const TraceFile& a, const TraceFile& b) {
  TraceFileSource sa(&a), sb(&b);
  return diff_traces(sa, sb);
}

TEST(TraceTools, ScheduleDecodeMatchesMeta) {
  RecordResult rec = record_seeded(workloads::counter_race(3, 30), 7);
  TraceFileSource src(&rec.trace);
  DecodedSchedule s = decode_schedule(src);
  EXPECT_EQ(s.entries.size(), rec.trace.meta.preempt_switches);
  uint64_t cum = 0;
  for (const auto& e : s.entries) {
    EXPECT_GE(e.nyp_delta, 1u);  // P2: deltas are always >= 1
    cum += e.nyp_delta;
    EXPECT_EQ(e.cumulative_yields, cum);
  }
}

TEST(TraceTools, EventDecodeMatchesMeta) {
  RecordResult rec = record_seeded(workloads::native_calls(5), 3);
  TraceFileSource src(&rec.trace);
  std::vector<DecodedEvent> events = decode_events(src);
  EXPECT_EQ(events.size(), rec.trace.meta.nd_events);
  size_t callbacks = 0, returns = 0;
  for (const auto& e : events) {
    callbacks += e.tag == EventTag::kNativeCallback;
    returns += e.tag == EventTag::kNativeReturn;
  }
  EXPECT_EQ(callbacks, 5u);
  EXPECT_EQ(returns, 5u);
  // Callback payloads decoded.
  for (const auto& e : events) {
    if (e.tag == EventTag::kNativeCallback) {
      EXPECT_EQ(e.callback_class, "Main");
      EXPECT_EQ(e.callback_method, "cb");
      EXPECT_EQ(e.callback_args.size(), 1u);
    }
  }
}

TEST(TraceTools, StatsAggregate) {
  RecordResult rec = record_seeded(workloads::clock_mixer(3, 30), 7);
  TraceFileSource src(&rec.trace);
  TraceStats s = trace_stats(src);
  EXPECT_EQ(s.preempt_switches, rec.trace.meta.preempt_switches);
  EXPECT_EQ(s.clock_events, rec.stats.clock_events);
  EXPECT_GE(s.max_delta, s.min_delta);
  EXPECT_GT(s.mean_delta, 0.0);
  EXPECT_EQ(s.schedule_bytes, src.stream_info(StreamId::kSchedule).bytes);
  EXPECT_GT(s.schedule_bytes, 0u);
}

TEST(TraceTools, DumpIsReadableAndBounded) {
  RecordResult rec = record_seeded(workloads::clock_mixer(3, 30), 7);
  TraceFileSource src(&rec.trace);
  std::string dump = dump_trace(src, 5);
  EXPECT_NE(dump.find("schedule ("), std::string::npos);
  EXPECT_NE(dump.find("clock "), std::string::npos);
  EXPECT_NE(dump.find("more"), std::string::npos);  // truncation marker
}

TEST(TraceTools, DiffIdenticalTraces) {
  RecordResult a = record_seeded(workloads::counter_race(3, 30), 7);
  RecordResult b = record_seeded(workloads::counter_race(3, 30), 7);
  TraceDiff d = diff_of(a.trace, b.trace);
  EXPECT_TRUE(d.identical) << d.description;
}

TEST(TraceTools, DiffFindsScheduleDivergence) {
  RecordResult a = record_seeded(workloads::counter_race(3, 30), 7);
  RecordResult b = record_seeded(workloads::counter_race(3, 30), 8);
  TraceDiff d = diff_of(a.trace, b.trace);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.first_schedule_divergence, SIZE_MAX);
  EXPECT_NE(d.description.find("switch"), std::string::npos);
}

TEST(TraceTools, DiffFindsEventDivergence) {
  // Same timer, different clock scripts: events diverge, not the schedule
  // length necessarily.
  bytecode::Program prog = workloads::env_reader(5);
  vm::ScriptedEnvironment env1(1000, 7, {1, 2, 3, 4, 5}, 17);
  vm::ScriptedEnvironment env2(1000, 7, {1, 2, 9, 4, 5}, 17);
  threads::NullTimer t1, t2;
  RecordResult a = record_run(prog, {}, env1, t1);
  RecordResult b = record_run(prog, {}, env2, t2);
  TraceDiff d = diff_of(a.trace, b.trace);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.first_event_divergence, 2u * 2u);  // third input, 2 events per
}

TEST(TraceTools, DiffRejectsDifferentPrograms) {
  RecordResult a = record_seeded(workloads::fig1_race(), 7);
  RecordResult b = record_seeded(workloads::fig1_clock(), 7);
  TraceDiff d = diff_of(a.trace, b.trace);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.description.find("different programs"), std::string::npos);
}

}  // namespace
}  // namespace dejavu::replay
