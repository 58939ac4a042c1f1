// Golden-trace corpus: committed v3, v4 and v5 trace files recorded from
// fixed recipes. These pin the on-disk formats: any writer change that
// alters the bytes (or a reader change that alters how they replay) fails
// here first, explicitly, instead of surfacing as a compatibility break
// for traces recorded by an older build. The v3 file is a read-only
// golden: nothing writes v3 any more, and loading it must give the v4
// golden's bytes.
//
// To regenerate the v4/v5 files after a *deliberate* format change:
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

RecordResult record_recipe(SymmetryConfig cfg = {}) {
  vm::VmOptions opts;
  vm::ScriptedEnvironment env(500, 3, {11, 22, 33}, 5);
  threads::VirtualTimer timer(9, 4, 48);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  bytecode::Program prog = golden_program();
  return record_run(prog, opts, env, timer, &natives, cfg);
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

TEST(GoldenTrace, WritersAreByteStable) {
  RecordResult rec = record_recipe();
  std::vector<uint8_t> v4 = rec.trace.serialize();
  if (std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr) {
    write_file(golden_path("clock_mixer.v4.djv"), v4);
    GTEST_SKIP() << "regenerated golden traces";
  }
  std::vector<uint8_t> want_v4 = read_file(golden_path("clock_mixer.v4.djv"));
  EXPECT_EQ(v4, want_v4) << "v4 writer no longer byte-stable ("
                         << v4.size() << "B now vs " << want_v4.size()
                         << "B golden)";
}

// Telemetry is host-side only (§2.4): recording the recipe with metrics
// and the timeline enabled -- or everything disabled -- must reproduce
// the committed golden bytes exactly.
TEST(GoldenTrace, TelemetryDoesNotPerturbGoldenBytes) {
  if (std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration run";
  std::vector<uint8_t> want_v4 = read_file(golden_path("clock_mixer.v4.djv"));

  SymmetryConfig all_on;
  all_on.obs.metrics = true;
  all_on.obs.timeline = true;
  SymmetryConfig all_off;
  all_off.obs.metrics = false;
  all_off.obs.timeline = false;

  EXPECT_EQ(record_recipe(all_on).trace.serialize(), want_v4)
      << "enabling telemetry changed the recorded trace bytes";
  EXPECT_EQ(record_recipe(all_off).trace.serialize(), want_v4)
      << "disabling telemetry changed the recorded trace bytes";
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
  RecordResult rec = record_recipe();
  EXPECT_EQ(replayed.output, rec.output);
  EXPECT_EQ(replayed.summary, rec.summary);
}

// ------------------------------------------------ v5 multi-lane corpus

// The multi-lane recipe: a monitor-heavy workload whose threads hand the
// lock across lanes, so the committed v5 files exercise per-lane streams
// AND a non-empty cross-lane order stream.
bytecode::Program golden_lane_program() { return workloads::lock_pingpong(10); }

RecordResult record_lane_recipe(uint32_t lanes) {
  vm::VmOptions opts;
  vm::ScriptedEnvironment env(500, 3, {11, 22, 33}, 5);
  threads::VirtualTimer timer(9, 4, 48);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  bytecode::Program prog = golden_lane_program();
  SymmetryConfig cfg;
  cfg.lanes = lanes;
  return record_run(prog, opts, env, timer, &natives, cfg);
}

std::string lane_golden_name(uint32_t lanes) {
  return "lock_pingpong.k" + std::to_string(lanes) + ".v5.djv";
}

TEST(GoldenTrace, MultiLaneWriterIsByteStable) {
  bool regen = std::getenv("DEJAVU_REGEN_GOLDEN") != nullptr;
  for (uint32_t lanes : {2u, 4u}) {
    RecordResult rec = record_lane_recipe(lanes);
    ASSERT_EQ(rec.trace.version(), kTraceVersionMulti);
    ASSERT_GT(rec.trace.meta.order_events, 0u) << "K=" << lanes;
    std::vector<uint8_t> v5 = rec.trace.serialize();
    std::string path = golden_path(lane_golden_name(lanes).c_str());
    if (regen) {
      write_file(path, v5);
      continue;
    }
    std::vector<uint8_t> want = read_file(path);
    EXPECT_EQ(v5, want) << "v5 writer no longer byte-stable for K=" << lanes
                        << " (" << v5.size() << "B now vs " << want.size()
                        << "B golden)";
  }
  if (regen) GTEST_SKIP() << "regenerated multi-lane golden traces";
}

TEST(GoldenTrace, GoldenV5VerifiesReplaysAndDecodes) {
  bytecode::Program prog = golden_lane_program();
  for (uint32_t lanes : {2u, 4u}) {
    std::string path = golden_path(lane_golden_name(lanes).c_str());
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
    RecordResult rec = record_lane_recipe(lanes);
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
