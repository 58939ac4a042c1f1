// Golden-trace corpus: committed v3, v4, v5 and v6 trace files recorded
// from fixed recipes. These pin the on-disk formats: any writer change
// that alters the bytes (or a reader change that alters how they replay)
// fails here first, explicitly, instead of surfacing as a compatibility
// break for traces recorded by an older build. The v3 file is a read-only
// golden: nothing writes v3 any more, and loading it must give the v4
// golden's bytes. Every recording writes v6; the v4 and v5 files are
// re-recorded through sinks created for those versions.
//
// To regenerate the v4/v5/v6 files after a *deliberate* format change:
//   DEJAVU_REGEN_GOLDEN=1 ./build/tests/test_replay
//       (optionally --gtest_filter='GoldenTrace.WritersAreByteStable')
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/replay/session.hpp"
#include "src/replay/trace_io.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

std::string golden_path(const char* name) {
  return std::string(DEJAVU_GOLDEN_DIR) + "/" + name;
}

// The fixed recipe behind every file in the corpus. Everything here is
// deterministic, so re-recording must reproduce the committed bytes.
bytecode::Program golden_program() { return workloads::clock_mixer(2, 12); }

// Records `prog` on `cfg.lanes` lanes through a sink created for
// `version`, with the corpus's fixed environment and timer.
RecordResult record_golden(const bytecode::Program& prog, uint32_t version,
                           SymmetryConfig cfg) {
  vm::ScriptedEnvironment env(500, 3, {11, 22, 33}, 5);
  threads::VirtualTimer timer(9, 4, 48);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  RecordSession s(prog, std::make_unique<VectorTraceSink>(version), {}, env,
                  timer, &natives, cfg);
  RecordResult r = s.finish();
  r.trace = s.take_trace();
  return r;
}

// The multi-lane recipe: a monitor-heavy workload whose threads hand the
// lock across lanes, so the committed v5 and v6 files exercise per-lane streams
// AND a non-empty cross-lane order stream.
bytecode::Program golden_lane_program() { return workloads::lock_pingpong(10); }

std::string lane_golden_name(uint32_t lanes, uint32_t version) {
  return "lock_pingpong.k" + std::to_string(lanes) + ".v" +
         std::to_string(version) + ".djv";
}

RecordResult record_recipe(uint32_t version, SymmetryConfig cfg = {}) {
  return record_golden(golden_program(), version, cfg);
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DEJAVU_REGEN_GOLDEN=1 to create)";
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// The single-lane corpus: clock_mixer.v4.djv through a v4 sink and
// clock_mixer.v6.djv through the default one.
const struct {
  const char* file;
  uint32_t version;
} kSingleLaneGoldens[] = {{"clock_mixer.v4.djv", kTraceVersion},
                          {"clock_mixer.v6.djv", kTraceVersionPredicted}};

TEST(GoldenTrace, WritersAreByteStable) {
  bool regen = std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr;
  for (const auto& g : kSingleLaneGoldens) {
    std::vector<uint8_t> got = record_recipe(g.version).trace.serialize();
    if (regen) {
      write_file(golden_path(g.file), got);
      continue;
    }
    std::vector<uint8_t> want = read_file(golden_path(g.file));
    EXPECT_EQ(got, want) << "v" << g.version << " writer no longer "
                         << "byte-stable (" << got.size() << "B now vs "
                         << want.size() << "B golden)";
  }
  if (regen) GTEST_SKIP() << "regenerated golden traces";
}

// The default recording is the v6 golden: record_run writes v6.
TEST(GoldenTrace, RecordRunWritesTheV6Golden) {
  if (std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration run";
  vm::ScriptedEnvironment env(500, 3, {11, 22, 33}, 5);
  threads::VirtualTimer timer(9, 4, 48);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  RecordResult rec =
      record_run(golden_program(), {}, env, timer, &natives, {});
  EXPECT_EQ(rec.trace.serialize(),
            read_file(golden_path("clock_mixer.v6.djv")));
}

// Telemetry is host-side only (§2.4): recording the recipe with metrics
// and the timeline enabled -- or everything disabled -- must reproduce
// the committed golden bytes exactly.
TEST(GoldenTrace, TelemetryDoesNotPerturbGoldenBytes) {
  if (std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration run";
  SymmetryConfig all_on;
  all_on.obs.metrics = true;
  all_on.obs.timeline = true;
  SymmetryConfig all_off;
  all_off.obs.metrics = false;
  all_off.obs.timeline = false;

  for (const auto& g : kSingleLaneGoldens) {
    SCOPED_TRACE(g.file);
    std::vector<uint8_t> want = read_file(golden_path(g.file));
    EXPECT_EQ(record_recipe(g.version, all_on).trace.serialize(), want)
        << "enabling telemetry changed the recorded trace bytes";
    EXPECT_EQ(record_recipe(g.version, all_off).trace.serialize(), want)
        << "disabling telemetry changed the recorded trace bytes";
  }
  for (uint32_t lanes : {2u, 4u}) {
    SCOPED_TRACE("K=" + std::to_string(lanes));
    std::vector<uint8_t> want = read_file(
        golden_path(lane_golden_name(lanes, kTraceVersionPredicted).c_str()));
    SymmetryConfig on = all_on, off = all_off;
    on.lanes = off.lanes = lanes;
    EXPECT_EQ(record_golden(golden_lane_program(), kTraceVersionPredicted, on)
                  .trace.serialize(),
              want);
    EXPECT_EQ(record_golden(golden_lane_program(), kTraceVersionPredicted, off)
                  .trace.serialize(),
              want);
  }
}

TEST(GoldenTrace, GoldenV4VerifiesAndReplays) {
  std::string path = golden_path("clock_mixer.v4.djv");
  TraceVerifyReport rep = verify_trace_file(path);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.sealed);
  EXPECT_EQ(rep.version, 4u);

  bytecode::Program prog = golden_program();
  vm::VmOptions opts;
  SymmetryConfig cfg;
  ReplayResult replayed = replay_file(prog, path, opts, cfg);
  EXPECT_TRUE(replayed.verified) << replayed.stats.first_violation;
  // Today's engine reproduces the committed recording's behaviour exactly.
  RecordResult rec = record_recipe(kTraceVersion);
  EXPECT_EQ(replayed.output, rec.output);
  EXPECT_EQ(replayed.summary, rec.summary);
}

// ------------------------------------------------ v5 multi-lane corpus

RecordResult record_lane_recipe(uint32_t lanes, uint32_t version) {
  SymmetryConfig cfg;
  cfg.lanes = lanes;
  return record_golden(golden_lane_program(), version, cfg);
}

TEST(GoldenTrace, MultiLaneWriterIsByteStable) {
  bool regen = std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr;
  for (uint32_t version : {kTraceVersionMulti, kTraceVersionPredicted}) {
    for (uint32_t lanes : {2u, 4u}) {
      RecordResult rec = record_lane_recipe(lanes, version);
      ASSERT_EQ(rec.trace.version(), version);
      ASSERT_GT(rec.trace.meta.order_events, 0u) << "K=" << lanes;
      std::vector<uint8_t> got = rec.trace.serialize();
      std::string path = golden_path(lane_golden_name(lanes, version).c_str());
      if (regen) {
        write_file(path, got);
        continue;
      }
      std::vector<uint8_t> want = read_file(path);
      EXPECT_EQ(got, want) << "v" << version << " writer no longer "
                           << "byte-stable for K=" << lanes << " ("
                           << got.size() << "B now vs " << want.size()
                           << "B golden)";
    }
  }
  if (regen) GTEST_SKIP() << "regenerated multi-lane golden traces";
}

TEST(GoldenTrace, GoldenV5VerifiesReplaysAndDecodes) {
  bytecode::Program prog = golden_lane_program();
  for (uint32_t lanes : {2u, 4u}) {
    std::string path =
        golden_path(lane_golden_name(lanes, kTraceVersionMulti).c_str());
    TraceVerifyReport rep = verify_trace_file(path);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.sealed);
    EXPECT_EQ(rep.version, 5u);
    EXPECT_EQ(rep.lanes, lanes);
    EXPECT_GT(rep.order_bytes, 0u);

    // The committed bytes replay verified and reproduce today's recording.
    vm::VmOptions opts;
    SymmetryConfig cfg;
    ReplayResult replayed = replay_file(prog, path, opts, cfg);
    EXPECT_TRUE(replayed.verified) << replayed.stats.first_violation;
    RecordResult rec = record_lane_recipe(lanes, kTraceVersionMulti);
    EXPECT_EQ(replayed.output, rec.output);
    EXPECT_EQ(replayed.summary, rec.summary);

    // Decode + dump are stable: the streamed file decodes to the same
    // per-lane streams and order records as the in-memory re-recording.
    auto src = open_trace_source(path);
    TraceStats stats = trace_stats(*src);
    EXPECT_EQ(stats.lanes, lanes);
    EXPECT_GT(stats.order_events, 0u);
    EXPECT_EQ(stats.order_events, rec.trace.meta.order_events);
    TraceFileSource fresh(&rec.trace);
    EXPECT_EQ(dump_trace(*src), dump_trace(fresh));
    TraceDiff d = diff_traces(*src, fresh);
    EXPECT_TRUE(d.identical) << d.description;
  }
}

// The v6 files verify and replay, and decode to exactly the events,
// schedule and order records of the v4/v5 files: the same runs, with only
// the clock encoding changed.
TEST(GoldenTrace, GoldenV6VerifiesReplaysAndDecodesAsV4AndV5) {
  struct Pair {
    bytecode::Program prog;
    std::string v6, classic;
    uint32_t lanes;
  };
  const Pair pairs[] = {
      {golden_program(), "clock_mixer.v6.djv", "clock_mixer.v4.djv", 1},
      {golden_lane_program(), lane_golden_name(2, kTraceVersionPredicted),
       lane_golden_name(2, kTraceVersionMulti), 2},
      {golden_lane_program(), lane_golden_name(4, kTraceVersionPredicted),
       lane_golden_name(4, kTraceVersionMulti), 4},
  };
  for (const Pair& p : pairs) {
    SCOPED_TRACE(p.v6);
    std::string path = golden_path(p.v6.c_str());
    TraceVerifyReport rep = verify_trace_file(path);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.version, kTraceVersionPredicted);
    EXPECT_EQ(rep.lanes, p.lanes);
    ReplayResult replayed = replay_file(p.prog, path, {}, {});
    EXPECT_TRUE(replayed.verified) << replayed.stats.first_violation;

    auto v6 = open_trace_source(path);
    auto classic = open_trace_source(golden_path(p.classic.c_str()));
    // lock_pingpong reads no clock, so only clock_mixer's events shrink.
    EXPECT_LE(v6->stream_info(StreamId::kEvents).bytes,
              classic->stream_info(StreamId::kEvents).bytes);
    if (p.lanes == 1) {
      EXPECT_LT(v6->stream_info(StreamId::kEvents).bytes,
                classic->stream_info(StreamId::kEvents).bytes);
    }
    for (LaneId lane = 0; lane < p.lanes; ++lane) {
      EXPECT_EQ(decode_events(*v6, lane), decode_events(*classic, lane));
      EXPECT_EQ(decode_schedule(*v6, lane).entries.size(),
                decode_schedule(*classic, lane).entries.size());
    }
    TraceDiff d = diff_traces(*v6, *classic);
    EXPECT_TRUE(d.identical) << d.description;
    ReplayResult from_classic = replay_file(
        p.prog, golden_path(p.classic.c_str()), {}, {});
    EXPECT_EQ(replayed.output, from_classic.output);
  }
}

TEST(GoldenTrace, GoldenV3LoadsConvertsAndReplays) {
  std::vector<uint8_t> v3_bytes = read_file(golden_path("clock_mixer.v3.djv"));
  std::vector<uint8_t> v4_bytes = read_file(golden_path("clock_mixer.v4.djv"));
  TraceFile trace = TraceFile::deserialize(v3_bytes);

  // Loading upgrades v3 to exactly the v4 golden's bytes, and `dejavu
  // convert`'s chunk copy of it changes nothing.
  EXPECT_EQ(trace.serialize(), v4_bytes);
  TraceFileSource from_v3(&trace);
  EXPECT_EQ(convert_trace(from_v3, kTraceVersion), v4_bytes);

  // Both representations carry identical logical streams...
  auto from_v4 = open_trace_source(golden_path("clock_mixer.v4.djv"));
  TraceDiff d = diff_traces(from_v3, *from_v4);
  EXPECT_TRUE(d.identical) << d.description;

  // ...and the v3 compatibility path replays verified.
  bytecode::Program prog = golden_program();
  vm::VmOptions opts;
  SymmetryConfig cfg;
  ReplayResult replayed = replay_run(prog, trace, opts, cfg);
  EXPECT_TRUE(replayed.verified) << replayed.stats.first_violation;
}

}  // namespace
}  // namespace dejavu::replay
