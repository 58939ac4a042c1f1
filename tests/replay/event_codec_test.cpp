// The events stream's codec (event_codec.hpp): v6 clock prediction round
// trips any values on any lane, and hostile v6 events -- each inside a
// CRC-valid container -- end in a located violation or a deterministic
// wrap, never in undefined behaviour (tools/check.sh runs these under
// ASan+UBSan).
#include <gtest/gtest.h>

#include <limits>

#include "src/common/rng.hpp"
#include "src/replay/event_codec.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

// A `version` container whose lanes' events streams are `events`.
TraceFile events_trace(uint32_t version,
                       const std::vector<std::vector<uint8_t>>& events) {
  testutil::TraceStreams s;
  s.version = version;
  s.meta.lane_count = uint32_t(events.size());
  s.schedule.resize(events.size());
  s.events = events;
  return testutil::build_trace(s);
}

std::vector<uint8_t> bytes_of(std::initializer_list<uint8_t> b) { return b; }

std::vector<uint8_t> clock_event(int64_t delta) {
  ByteWriter w;
  w.put_u8(uint8_t(EventTag::kClock));
  w.put_svarint(delta);
  return w.take();
}

std::vector<uint8_t> cat(std::vector<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::string decode_error(const TraceFile& t, LaneId lane = 0) {
  TraceFileSource src(&t);
  try {
    decode_events(src, lane);
  } catch (const VmError& e) {
    return e.what();
  }
  return "";
}

TEST(EventCodec, ClockValuesRoundTripOnEveryLane) {
  // Extremes, repeats, steps that wrap, and interleaved lanes, each lane
  // predicted on its own.
  SplitMix64 rng(0xc10c);
  const uint32_t lanes = 3;
  EventCodec enc(kTraceVersionPredicted, lanes);
  std::vector<ByteWriter> w(lanes);
  std::vector<std::vector<DecodedEvent>> want(lanes);
  std::vector<int64_t> specials = {0, 1, -1, kMax, kMin, kMax, kMin, 7, 14};
  int64_t even = 1000;
  for (int i = 0; i < 600; ++i) {
    LaneId lane = LaneId(rng.next_below(lanes));
    int64_t v;
    switch (rng.next_below(4)) {
      case 0: v = specials[rng.next_below(specials.size())]; break;
      case 1: v = int64_t(rng.next()); break;
      default: v = even += 7; break;
    }
    EventTag tag = rng.next_below(5) == 0 ? EventTag::kRand : EventTag::kClock;
    enc.put_value(w[lane], lane, tag, v);
    want[lane].push_back(DecodedEvent{tag, v, "", "", {}});
  }
  std::vector<std::vector<uint8_t>> events;
  for (ByteWriter& b : w) events.push_back(b.take());
  TraceFile t = events_trace(kTraceVersionPredicted, events);
  TraceFileSource src(&t);
  for (LaneId lane = 0; lane < lanes; ++lane)
    EXPECT_EQ(decode_events(src, lane), want[lane]) << "lane " << lane;
}

TEST(EventCodec, AnEvenClockCostsOneBytePerRead) {
  EventCodec enc(kTraceVersionPredicted, 1);
  ByteWriter w;
  for (int64_t v = 1000; v < 1000 + 7 * 100; v += 7)
    enc.put_value(w, 0, EventTag::kClock, v);
  // The first read (delta 1000) and the second (the first delta of 7) are
  // explicit; every later one repeats.
  EXPECT_EQ(w.size(), 3u + 2u + 98u);
  // v4 keeps them absolute.
  EventCodec v4(kTraceVersion, 1);
  ByteWriter a;
  v4.put_value(a, 0, EventTag::kClock, 1000);
  EXPECT_EQ(a.take(), clock_event(1000));
}

TEST(EventCodecHostile, RepeatTagBeforeAnyDelta) {
  TraceFile t = events_trace(kTraceVersionPredicted,
                             {bytes_of({EventCodec::kClockRepeatTag})});
  EXPECT_EQ(decode_error(t),
            "lane 0 events byte 0: clock repeat tag before any delta");
  // In v4 the same byte is no tag at all.
  TraceFile v4 = events_trace(kTraceVersion,
                              {bytes_of({EventCodec::kClockRepeatTag})});
  EXPECT_EQ(decode_error(v4), "lane 0 events byte 0: unknown event tag 6");
}

TEST(EventCodecHostile, DeltaThatWrapsInt64WrapsDeterministically) {
  // kMax, then +2 wraps to kMin + 1, then the repeat to kMin + 3; a delta
  // of kMin from -1 wraps the other way, to kMax.
  TraceFile t = events_trace(
      kTraceVersionPredicted,
      {cat({clock_event(kMax), clock_event(2),
            bytes_of({EventCodec::kClockRepeatTag})}),
       cat({clock_event(-1), clock_event(kMin)})});
  TraceFileSource src(&t);
  std::vector<DecodedEvent> l0 = decode_events(src, 0);
  ASSERT_EQ(l0.size(), 3u);
  EXPECT_EQ(l0[0].value, kMax);
  EXPECT_EQ(l0[1].value, kMin + 1);
  EXPECT_EQ(l0[2].value, kMin + 3);
  std::vector<DecodedEvent> l1 = decode_events(src, 1);
  ASSERT_EQ(l1.size(), 2u);
  EXPECT_EQ(l1[0].value, -1);
  EXPECT_EQ(l1[1].value, kMax);
}

TEST(EventCodecHostile, TruncatedDeltaVarint) {
  // A continuation bit with nothing after it, two events in.
  TraceFile t = events_trace(
      kTraceVersionPredicted,
      {cat({clock_event(5), bytes_of({EventCodec::kClockRepeatTag}),
            bytes_of({uint8_t(EventTag::kClock), 0x80})})});
  std::string err = decode_error(t);
  EXPECT_EQ(err.rfind("lane 0 events byte 3: truncated event value", 0), 0u)
      << err;
}

TEST(EventCodecHostile, UnknownTag) {
  TraceFile t = events_trace(kTraceVersionPredicted,
                             {bytes_of({}), cat({clock_event(3),
                                                 bytes_of({0x2a})})});
  EXPECT_EQ(decode_error(t, 1), "lane 1 events byte 2: unknown event tag 42");
}

TEST(EventCodecHostile, TruncatedCallbackCountIsBounded) {
  // A native callback claiming 2^62 arguments is refused before anything
  // is allocated for them.
  ByteWriter w;
  EventCodec::put_callback(w, "host", "cb", {});
  std::vector<uint8_t> ev = w.take();
  ev.pop_back();  // argc 0
  ByteWriter argc;
  argc.put_uvarint(uint64_t(1) << 62);
  ev.insert(ev.end(), argc.bytes().begin(), argc.bytes().end());
  TraceFile t = events_trace(kTraceVersionPredicted, {ev});
  std::string err = decode_error(t);
  EXPECT_NE(err.find("native callback claims"), std::string::npos) << err;
}

// ------------------------------------------------ through the engine

bytecode::Program clock_program() { return workloads::clock_mixer(2, 12); }

RecordResult record_clocks() {
  vm::ScriptedEnvironment env(500, 3, {11, 22, 33}, 5);
  threads::VirtualTimer timer(9, 4, 48);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  return record_run(clock_program(), {}, env, timer, &natives, {});
}

// Replays the recording with lane 0's events stream replaced by `events`,
// non-strict, and returns the result.
ReplayResult replay_with_events(const RecordResult& rec,
                                std::vector<uint8_t> events) {
  testutil::TraceStreams s = testutil::streams_of(rec.trace);
  EXPECT_EQ(s.version, kTraceVersionPredicted);
  s.events[0] = std::move(events);
  TraceFile bad = testutil::build_trace(s);
  SymmetryConfig cfg;
  cfg.strict = false;
  return replay_run(clock_program(), bad, {}, cfg);
}

TEST(EventCodecHostile, EngineReportsEachLocated) {
  RecordResult rec = record_clocks();
  ASSERT_GT(rec.stats.clock_events, 2u);
  const struct {
    const char* name;
    std::vector<uint8_t> events;
    std::string violation;  // prefix of the first violation
  } cases[] = {
      {"repeat before delta", bytes_of({EventCodec::kClockRepeatTag}),
       "lane 0 events byte 0: clock repeat tag before any delta"},
      {"truncated delta",
       cat({clock_event(500), bytes_of({uint8_t(EventTag::kClock), 0xff})}),
       "lane 0 events byte 3: truncated event value"},
      {"unknown tag", cat({clock_event(500), bytes_of({0x2a})}),
       "lane 0 events byte 3: unknown event tag 42"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ReplayResult rep = replay_with_events(rec, c.events);
    EXPECT_FALSE(rep.verified);
    EXPECT_EQ(rep.stats.first_violation.rfind(c.violation, 0), 0u)
        << rep.stats.first_violation;
    // Strict replay stops at the same violation.
    testutil::TraceStreams s = testutil::streams_of(rec.trace);
    s.events[0] = c.events;
    TraceFile bad = testutil::build_trace(s);
    EXPECT_THROW(replay_run(clock_program(), bad, {}, {}), ReplayDivergence);
  }
}

TEST(EventCodecHostile, EngineWrapsDeterministically) {
  // The guest's first clock read is kMax and every later one wraps past
  // it. The replay diverges from the recording, the same way every time.
  RecordResult rec = record_clocks();
  std::vector<uint8_t> events = clock_event(kMax);
  for (uint64_t i = 1; i < rec.stats.clock_events; ++i) {
    std::vector<uint8_t> e = i == 1 ? clock_event(kMax)
                                    : bytes_of({EventCodec::kClockRepeatTag});
    events.insert(events.end(), e.begin(), e.end());
  }
  ReplayResult a = replay_with_events(rec, events);
  ReplayResult b = replay_with_events(rec, events);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.stats.first_violation, b.stats.first_violation);
}

}  // namespace
}  // namespace dejavu::replay
