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

// The same run recorded through the default (v6) sink and a v4 sink: the
// tools decode both to the same schedule and events, clock values
// absolute, and convert refuses to re-encode one as the other.
TEST(TraceTools, V6AndV4RecordingsDecodeAlikeAndDoNotConvert) {
  bytecode::Program prog = workloads::clock_mixer(3, 30);
  auto record = [&](uint32_t version) {
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3}, 17);
    threads::VirtualTimer timer(7, 5, 80);
    vm::NativeRegistry natives = vmtest::make_test_natives();
    RecordSession s(prog, std::make_unique<VectorTraceSink>(version), {}, env,
                    timer, &natives);
    RecordResult r = s.finish();
    r.trace = s.take_trace();
    return r;
  };
  RecordResult v6 = record(kTraceVersionPredicted);
  RecordResult v4 = record(kTraceVersion);
  ASSERT_EQ(v6.trace.version(), kTraceVersionPredicted);
  EXPECT_EQ(v6.output, v4.output);
  TraceFileSource s6(&v6.trace), s4(&v4.trace);
  std::vector<DecodedEvent> e6 = decode_events(s6);
  ASSERT_EQ(e6.size(), v6.stats.nd_events());
  EXPECT_EQ(e6, decode_events(s4));
  EXPECT_EQ(e6.front().value, 1000);  // the scripted clock's first read
  EXPECT_EQ(decode_schedule(s6).entries.size(),
            decode_schedule(s4).entries.size());
  EXPECT_TRUE(diff_traces(s6, s4).identical);
  // dump differs only in its byte total.
  std::string d6 = dump_trace(s6, SIZE_MAX), d4 = dump_trace(s4, SIZE_MAX);
  EXPECT_EQ(d6.substr(d6.find('\n')), d4.substr(d4.find('\n')));
  TraceStats st = trace_stats(s6);
  EXPECT_EQ(st.clock_events, v6.stats.clock_events);
  EXPECT_LT(st.event_bytes, trace_stats(s4).event_bytes);

  // Converting a trace to its own version gives its bytes back; between
  // v6 and v4/v5 it is refused, naming both versions.
  EXPECT_EQ(convert_trace(s6, kTraceVersionPredicted), v6.trace.serialize());
  for (uint32_t to : {kTraceVersion, kTraceVersionMulti}) {
    try {
      convert_trace(s6, to);
      ADD_FAILURE() << "v6 converted to v" << to;
    } catch (const VmError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "cannot convert a v6 trace to v" + std::to_string(to)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(convert_trace(s4, kTraceVersionPredicted), VmError);
}

}  // namespace
}  // namespace dejavu::replay
