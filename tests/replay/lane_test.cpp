// Lane-structured record/replay: K-lane recordings replay exactly, and K=1
// reduces bit-for-bit to the classic single-lane engine and the v4
// container.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "src/fuzz/fault.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

using testutil::stream_bytes;
using testutil::streams_of;

struct LaneSetup {
  uint32_t lanes = 2;
  uint32_t version = kTraceVersionPredicted;  // the sink's container
  uint64_t timer_seed = 7;
  std::vector<int64_t> inputs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  vm::VmOptions opts;
  SymmetryConfig cfg;
  // Nonzero: record through fuzz::skew_schedule, which over-reports lane
  // 0's skew_nth-th schedule delta by one yield point.
  uint32_t skew_nth = 0;
};

RecordResult record_with(const bytecode::Program& prog, const LaneSetup& s) {
  vm::ScriptedEnvironment env(1000, 7, s.inputs, 17);
  threads::VirtualTimer timer(s.timer_seed, 5, 120);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  SymmetryConfig cfg = s.cfg;
  cfg.lanes = s.lanes;
  std::unique_ptr<TraceSink> sink =
      std::make_unique<VectorTraceSink>(s.version);
  if (s.skew_nth != 0)
    sink = fuzz::skew_schedule(std::move(sink), s.skew_nth,
                               cfg.checkpoint_interval);
  RecordSession session(prog, std::move(sink), s.opts, env, timer, &natives,
                        cfg);
  RecordResult rec = session.finish();
  rec.trace = session.take_trace();
  return rec;
}

std::string tmp_path(const char* stem) {
  return "/tmp/dejavu_lane_test_" + std::to_string(::getpid()) + "_" + stem +
         ".djv";
}

// True when the materializing reader accepts the file. Every reader runs
// the same container walk, so this must agree with verify_trace_file.
bool loads(const std::string& path) {
  try {
    TraceFile::load(path);
    return true;
  } catch (const VmError&) {
    return false;
  }
}

// ---------------------------------------------------------- exact replay

class LaneReplay : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LaneReplay, MultithreadedWorkloadsReplayExactly) {
  uint32_t lanes = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    LaneSetup s;
    s.lanes = lanes;
    s.timer_seed = seed;
    bytecode::Program prog = workloads::counter_race(4, 20);
    RecordResult rec = record_with(prog, s);
    SymmetryConfig rcfg = s.cfg;
    ReplayResult rep = replay_run(prog, rec.trace, s.opts, rcfg);
    EXPECT_TRUE(rep.verified)
        << "lanes=" << lanes << " seed=" << seed << ": "
        << rep.stats.first_violation;
    EXPECT_EQ(rep.output, rec.output);
    EXPECT_EQ(rep.summary, rec.summary);
  }
}

TEST_P(LaneReplay, MonitorHeavyWorkloadReplaysExactly) {
  LaneSetup s;
  s.lanes = GetParam();
  bytecode::Program prog = workloads::lock_pingpong(12);
  RecordResult rec = record_with(prog, s);
  ReplayResult rep = replay_run(prog, rec.trace, s.opts, s.cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.summary, rec.summary);
}

INSTANTIATE_TEST_SUITE_P(Lanes, LaneReplay, ::testing::Values(1u, 2u, 3u, 5u));

// ---------------------------------------------------- container versions

// Sinks created for v4 and v5 still record those containers: one lane in
// v4, several in v5. A v4 sink cannot hold two lanes.
TEST(LaneTrace, SingleLaneRecordsV4MultiLaneRecordsV5) {
  LaneSetup s1;
  s1.lanes = 1;
  s1.version = kTraceVersion;
  RecordResult r1 = record_with(workloads::counter_race(2, 8), s1);
  EXPECT_EQ(r1.trace.meta.lane_count, 1u);
  EXPECT_EQ(r1.trace.version(), kTraceVersion);

  LaneSetup s2;
  s2.lanes = 2;
  s2.version = kTraceVersionMulti;
  RecordResult r2 = record_with(workloads::counter_race(2, 8), s2);
  EXPECT_EQ(r2.trace.meta.lane_count, 2u);
  EXPECT_EQ(r2.trace.version(), kTraceVersionMulti);
  EXPECT_EQ(r2.trace.index().schedule.size(), 2u);
  EXPECT_EQ(r2.trace.index().events.size(), 2u);

  s2.version = kTraceVersion;
  EXPECT_THROW(record_with(workloads::counter_race(2, 8), s2), VmError);
}

// Every recording through the sessions writes v6, whatever its lane
// count, and replays verified.
TEST(LaneTrace, EveryLaneCountRecordsV6) {
  bytecode::Program prog = workloads::counter_race(2, 8);
  for (uint32_t lanes : {1u, 2u, 3u}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3}, 17);
    threads::VirtualTimer timer(7, 5, 120);
    SymmetryConfig cfg;
    cfg.lanes = lanes;
    RecordResult rec = record_run(prog, {}, env, timer, nullptr, cfg);
    EXPECT_EQ(rec.trace.version(), kTraceVersionPredicted);
    EXPECT_EQ(rec.trace.meta.lane_count, lanes);
    ReplayResult rep = replay_run(prog, rec.trace, {}, cfg);
    EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  }
}

TEST(LaneTrace, SingleLaneTraceIsByteIdenticalToPreLaneEngine) {
  // cfg.lanes = 1 must leave the v4 byte stream untouched: record twice,
  // once through the default config and once through an explicit lanes=1,
  // and compare serialized containers bit for bit.
  LaneSetup expl;
  expl.lanes = 1;
  RecordResult a = record_with(workloads::fig1_race(), expl);
  LaneSetup dflt;
  dflt.lanes = 0;  // normalized to 1
  RecordResult b = record_with(workloads::fig1_race(), dflt);
  EXPECT_EQ(a.trace.serialize(), b.trace.serialize());
}

TEST(LaneTrace, MultiLaneTraceRoundTripsThroughSerialization) {
  LaneSetup s;
  s.lanes = 3;
  bytecode::Program prog = workloads::counter_race(4, 16);
  RecordResult rec = record_with(prog, s);
  std::vector<uint8_t> bytes = rec.trace.serialize();
  TraceFile back = TraceFile::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  ReplayResult rep = replay_run(prog, back, s.opts, s.cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.summary, rec.summary);
}

TEST(LaneTrace, OrderStreamCountsMatchMeta) {
  LaneSetup s;
  s.lanes = 2;
  RecordResult rec = record_with(workloads::lock_pingpong(10), s);
  // A monitor-heavy 4-thread workload on 2 lanes must cross lanes.
  EXPECT_GT(rec.trace.meta.order_events, 0u);
  EXPECT_GT(rec.trace.index().order.bytes, 0u);
  EXPECT_EQ(rec.trace.meta.lane_clocks.size(), 2u);
  EXPECT_EQ(rec.trace.meta.lane_preempts.size(), 2u);
}

// ------------------------------------------------------ v4 -> v5 convert

// `trace` copied chunk for chunk into a `version` container.
std::vector<uint8_t> converted(const TraceFile& trace, uint32_t version) {
  TraceFileSource src(&trace);
  return convert_trace(src, version);
}

TEST(LaneConvert, ConvertToV5RoundTripsSingleLaneTrace) {
  LaneSetup s;
  s.lanes = 1;
  s.version = kTraceVersion;
  bytecode::Program prog = workloads::counter_race(3, 12);
  RecordResult rec = record_with(prog, s);
  ASSERT_EQ(rec.trace.version(), kTraceVersion);

  std::vector<uint8_t> v5 = converted(rec.trace, kTraceVersionMulti);
  EXPECT_NE(v5, rec.trace.serialize());  // the container changed...
  TraceFile back = TraceFile::deserialize(v5);
  EXPECT_EQ(back.version(), kTraceVersionMulti);
  // ...but the stream bytes and meta did not.
  EXPECT_EQ(stream_bytes(back, StreamId::kSchedule),
            stream_bytes(rec.trace, StreamId::kSchedule));
  EXPECT_EQ(stream_bytes(back, StreamId::kEvents),
            stream_bytes(rec.trace, StreamId::kEvents));
  EXPECT_EQ(back.meta.preempt_switches, rec.trace.meta.preempt_switches);
  EXPECT_EQ(back.meta.lane_count, 1u);
  EXPECT_EQ(back.index().order.bytes, 0u);
  ReplayResult rep = replay_run(prog, back, s.opts, s.cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.summary, rec.summary);
  // A one-lane v5 trace converts back to the recorded v4 bytes.
  EXPECT_EQ(converted(back, kTraceVersion), rec.trace.serialize());
}

TEST(LaneConvert, ConvertedV5FileOpensThroughEveryReader) {
  LaneSetup s;
  s.lanes = 1;
  s.version = kTraceVersion;
  bytecode::Program prog = workloads::lock_pingpong(8);
  RecordResult rec = record_with(prog, s);
  std::vector<uint8_t> v5 = converted(rec.trace, kTraceVersionMulti);
  std::string path = tmp_path("convert");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(v5.data()),
              std::streamsize(v5.size()));
  }
  EXPECT_TRUE(verify_trace_file(path).ok);
  ReplayResult rep = replay_file(prog, path, s.opts, s.cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.summary, rec.summary);
  std::remove(path.c_str());
}

// ------------------------------------------------- v5 property sweeps

TEST(LaneProperty, ChunkSizeNeverChangesTheMultiLaneStreams) {
  // The chunk framing is transport, not content: any trace_chunk_bytes
  // must materialize into the same per-lane streams and replay exactly.
  bytecode::Program prog = workloads::counter_race(4, 16);
  LaneSetup ref;
  ref.lanes = 3;
  RecordResult base = record_with(prog, ref);
  for (uint32_t chunk : {16u, 48u, 256u, 4096u}) {
    LaneSetup s;
    s.lanes = 3;
    s.cfg.trace_chunk_bytes = chunk;
    RecordResult rec = record_with(prog, s);
    testutil::TraceStreams got = streams_of(rec.trace);
    testutil::TraceStreams want = streams_of(base.trace);
    EXPECT_EQ(got.schedule, want.schedule) << chunk;
    EXPECT_EQ(got.events, want.events) << chunk;
    EXPECT_EQ(got.order, want.order) << chunk;
    ReplayResult rep = replay_run(prog, rec.trace, s.opts, s.cfg);
    EXPECT_TRUE(rep.verified) << "chunk=" << chunk << ": "
                              << rep.stats.first_violation;
  }
}

TEST(LaneProperty, V5BitFlipsAreAlwaysDetected) {
  // A strict reader may not silently accept any damaged v5 byte: for a
  // sweep of offsets, either the container open/verify rejects the file
  // or the (strict) replay fails.
  bytecode::Program prog = workloads::counter_race(3, 10);
  LaneSetup s;
  s.lanes = 2;
  RecordResult rec = record_with(prog, s);
  std::vector<uint8_t> good = rec.trace.serialize();
  std::string path = tmp_path("flip");
  SymmetryConfig strict = s.cfg;
  strict.strict = true;
  for (size_t i = 1; i <= 16; ++i) {
    std::vector<uint8_t> bad = good;
    size_t off = (good.size() * i) / 17;
    bad[off] ^= uint8_t(1u << (i % 8));
    if (bad == good) continue;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bad.data()),
                std::streamsize(bad.size()));
    }
    bool detected = !verify_trace_file(path).ok;
    EXPECT_EQ(loads(path), !detected)
        << "load and verify disagree on a flip at offset " << off;
    if (!detected) {
      try {
        ReplayResult rep = replay_file(prog, path, s.opts, strict);
        detected = !rep.verified;
      } catch (const VmError&) {
        detected = true;
      }
    }
    EXPECT_TRUE(detected) << "flip at offset " << off << " went unnoticed";
  }
  std::remove(path.c_str());
}

TEST(LaneProperty, V5TruncationIsAlwaysDetected) {
  bytecode::Program prog = workloads::counter_race(3, 10);
  LaneSetup s;
  s.lanes = 2;
  RecordResult rec = record_with(prog, s);
  std::vector<uint8_t> good = rec.trace.serialize();
  std::string path = tmp_path("trunc");
  for (size_t i = 1; i <= 8; ++i) {
    std::vector<uint8_t> bad = good;
    bad.resize((good.size() * i) / 9);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bad.data()),
                std::streamsize(bad.size()));
    }
    EXPECT_FALSE(verify_trace_file(path).ok)
        << "truncation to " << bad.size() << " bytes went unnoticed";
    EXPECT_FALSE(loads(path))
        << "load accepted a truncation to " << bad.size() << " bytes";
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------- divergence detection

// ------------------------------------------------- lane-aware trace diff

// `dejavu diff` on two v5 traces must pinpoint the first disagreeing
// cross-lane order record: skew one trace's order stream deliberately and
// check the diff names the index, the kind and both endpoints.
TEST(LaneDiff, FirstDisagreeingOrderEventIsPinpointed) {
  bytecode::Program prog = workloads::lock_pingpong(10);
  LaneSetup s;
  s.lanes = 2;
  RecordResult rec = record_with(prog, s);
  TraceFileSource src(&rec.trace);
  std::vector<DecodedOrderEvent> order = decode_order(src);
  ASSERT_GE(order.size(), 2u);

  // Re-encode the order stream with record 1 re-targeted at a different
  // thread -- the kind of cross-lane skew a buggy multi-lane recorder
  // would produce.
  testutil::TraceStreams skewed_streams = streams_of(rec.trace);
  ByteWriter w;
  for (size_t i = 0; i < order.size(); ++i) {
    DecodedOrderEvent e = order[i];
    if (i == 1) e.to += 1;
    w.put_u8(e.kind);
    w.put_uvarint(e.from_lane);
    w.put_uvarint(e.to_lane);
    w.put_uvarint(e.from);
    w.put_uvarint(e.to);
    w.put_uvarint(e.subject);
  }
  skewed_streams.order = w.take();
  TraceFile skewed = testutil::build_trace(skewed_streams);
  ASSERT_NE(stream_bytes(skewed, StreamId::kOrder),
            stream_bytes(rec.trace, StreamId::kOrder));

  TraceFileSource skewed_src(&skewed);
  TraceDiff d = diff_traces(src, skewed_src);
  EXPECT_FALSE(d.identical);
  // Per-lane streams are untouched: only the order stream disagrees.
  EXPECT_EQ(d.first_schedule_divergence, SIZE_MAX);
  EXPECT_EQ(d.first_event_divergence, SIZE_MAX);
  EXPECT_EQ(d.first_order_divergence, 1u);
  EXPECT_NE(d.description.find("order event 1"), std::string::npos)
      << d.description;
  EXPECT_NE(d.description.find("lane"), std::string::npos) << d.description;

  // A truncated order stream is also pinpointed (at the common length).
  testutil::TraceStreams shorter_streams = streams_of(rec.trace);
  ByteWriter w2;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    const DecodedOrderEvent& e = order[i];
    w2.put_u8(e.kind);
    w2.put_uvarint(e.from_lane);
    w2.put_uvarint(e.to_lane);
    w2.put_uvarint(e.from);
    w2.put_uvarint(e.to);
    w2.put_uvarint(e.subject);
  }
  shorter_streams.order = w2.take();
  TraceFile shorter = testutil::build_trace(shorter_streams);
  TraceFileSource shorter_src(&shorter);
  TraceDiff dt = diff_traces(src, shorter_src);
  EXPECT_FALSE(dt.identical);
  EXPECT_EQ(dt.first_order_divergence, order.size() - 1);
  EXPECT_NE(dt.description.find("order event counts differ"),
            std::string::npos)
      << dt.description;
}

TEST(LaneDivergence, SkewedMultiLaneScheduleIsDetected) {
  // The injected off-by-one of fuzz::skew_schedule must be caught by
  // the lane-structured engine too (checkpoint or final verification).
  bytecode::Program prog = workloads::counter_race(4, 20);
  LaneSetup s;
  s.lanes = 2;
  s.skew_nth = 2;
  RecordResult rec = record_with(prog, s);
  SymmetryConfig rcfg;
  rcfg.strict = false;
  ReplayResult rep = replay_run(prog, rec.trace, s.opts, rcfg);
  EXPECT_FALSE(rep.verified);
  EXPECT_GT(rep.stats.symmetry_violations, 0u);
}

}  // namespace
}  // namespace dejavu::replay
