// End-to-end streaming pipeline: a trace recorded with incremental chunk
// flushing must be byte-for-byte the trace the in-memory path holds,
// corrupted real recordings must fail with located errors, and v3 traces
// must stay loadable (and convertible).
#include <gtest/gtest.h>

#include <cstdio>

#include "src/replay/session.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

struct Harness {
  // Clock-heavy workload + fine-grained preemption so both streams carry
  // real volume (many events, many switch deltas, several chunks each).
  bytecode::Program prog = workloads::clock_mixer(3, 60);
  vm::VmOptions opts;
  SymmetryConfig cfg;

  RecordResult record() {
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    threads::VirtualTimer timer(7, 3, 60);
    vm::NativeRegistry natives = vmtest::make_test_natives();
    return record_run(prog, opts, env, timer, &natives, cfg);
  }

  // Through a v4 sink: absolute clock values, as a v3 blob holds them.
  RecordResult record_v4() {
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    threads::VirtualTimer timer(7, 3, 60);
    vm::NativeRegistry natives = vmtest::make_test_natives();
    RecordSession s(prog, std::make_unique<VectorTraceSink>(kTraceVersion),
                    opts, env, timer, &natives, cfg);
    RecordResult r = s.finish();
    r.trace = s.take_trace();
    return r;
  }

  RecordFileResult record_to(const std::string& path) {
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    threads::VirtualTimer timer(7, 3, 60);
    vm::NativeRegistry natives = vmtest::make_test_natives();
    return record_run_to(path, prog, opts, env, timer, &natives, cfg);
  }
};

// Incremental flushing produces exactly the recording the in-memory path
// holds: the same container bytes, chunk framing included, at any chunk
// size and lane count, and both replay with the same final behaviour.
TEST(TraceStream, StreamedRecordingEqualsInMemoryRecording) {
  for (uint32_t lanes : {1u, 2u}) {
    for (uint32_t chunk : {64u, uint32_t(kDefaultChunkBytes)}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + ", chunk " +
                   std::to_string(chunk));
      Harness h;
      h.cfg.lanes = lanes;
      h.cfg.trace_chunk_bytes = chunk;  // 64: many chunks and many flushes
      std::string path = temp_path("dv_stream_eq.djv");

      RecordResult mem = h.record();
      RecordFileResult file = h.record_to(path);

      // Identical execution on both sides...
      EXPECT_EQ(file.output, mem.output);
      EXPECT_EQ(file.summary, mem.summary);
      EXPECT_EQ(file.stats.preempt_switches, mem.stats.preempt_switches);
      EXPECT_EQ(file.stats.nd_events(), mem.stats.nd_events());

      // ...the same container bytes...
      std::vector<uint8_t> on_disk = read_file(path);
      EXPECT_EQ(mem.trace.serialize().size(), on_disk.size());
      EXPECT_TRUE(mem.trace.serialize() == on_disk)
          << "in-memory and file recordings differ";

      // ...so identical logical streams...
      auto src = open_trace_source(path);
      TraceFileSource mem_src(&mem.trace);
      TraceDiff d = diff_traces(*src, mem_src);
      EXPECT_TRUE(d.identical) << d.description;
      if (chunk == 64) {
        EXPECT_GT(src->stream_info(StreamId::kEvents).chunks, 1u)
            << "chunk size too large to exercise streaming";
      }

      // ...and both replay verified with the same final behaviour.
      ReplayResult rep_mem = replay_run(h.prog, mem.trace, h.opts, h.cfg);
      ReplayResult rep_file = replay_file(h.prog, path, h.opts, h.cfg);
      EXPECT_TRUE(rep_mem.verified) << rep_mem.stats.first_violation;
      EXPECT_TRUE(rep_file.verified) << rep_file.stats.first_violation;
      EXPECT_EQ(rep_file.summary, rep_mem.summary);
      EXPECT_EQ(rep_file.output, mem.output);
      std::remove(path.c_str());
    }
  }
}

TEST(TraceStream, DefaultChunkSizeAlsoVerifies) {
  Harness h;
  std::string path = temp_path("dv_stream_default.djv");
  RecordFileResult rec = h.record_to(path);
  EXPECT_TRUE(verify_trace_file(path).ok);
  ReplayResult rep = replay_file(h.prog, path, h.opts, h.cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.output, rec.output);
  std::remove(path.c_str());
}

TEST(TraceStream, RecordAndReplayChunkSizesMayDiffer) {
  // Chunk geometry is storage-level, not behaviour-level: replaying with a
  // different trace_chunk_bytes than was recorded must still verify.
  Harness h;
  h.cfg.trace_chunk_bytes = 48;
  std::string path = temp_path("dv_stream_geom.djv");
  h.record_to(path);
  SymmetryConfig replay_cfg = h.cfg;
  replay_cfg.trace_chunk_bytes = 4096;
  ReplayResult rep = replay_file(h.prog, path, h.opts, replay_cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  std::remove(path.c_str());
}

TEST(TraceStream, WarmupPathsAreIndependentOfVerification) {
  // The warm-up probe path is unique per engine instance (record and
  // replay use different files), which must not affect the audit digest.
  Harness h;
  std::string path = temp_path("dv_stream_warmup.djv");
  h.record_to(path);
  SymmetryConfig replay_cfg = h.cfg;
  replay_cfg.warmup_path = temp_path("dv_warmup_explicit.probe");
  ReplayResult rep = replay_file(h.prog, path, h.opts, replay_cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  std::remove(path.c_str());
}

TEST(TraceStream, FlippedByteInRealRecordingIsLocated) {
  Harness h;
  h.cfg.trace_chunk_bytes = 64;
  std::string path = temp_path("dv_stream_flip.djv");
  h.record_to(path);

  std::vector<uint8_t> bytes = read_file(path);
  // Flip one byte in every chunk and check each flip is caught and
  // attributed to the right chunk's stream.
  std::vector<std::pair<size_t, StreamId>> probes;  // mid-payload offsets
  {
    ByteReader r(bytes);
    r.get_u32_fixed();
    r.get_u32_fixed();
    while (!r.at_end()) {
      size_t off = r.position();
      uint8_t id = r.get_u8();
      uint32_t len = r.get_u32_fixed();
      std::vector<uint8_t> skip(len);
      r.get_bytes(skip.data(), len);
      r.get_u32_fixed();
      if (len > 0) probes.push_back({off + kChunkHeaderBytes + len / 2,
                                     StreamId(id)});
    }
  }
  ASSERT_GT(probes.size(), 3u);
  for (auto [off, id] : probes) {
    std::vector<uint8_t> bad = bytes;
    bad[off] ^= 0x10;
    write_file(path, bad);
    TraceVerifyReport rep = verify_trace_file(path);
    EXPECT_FALSE(rep.ok) << "flip at " << off << " accepted";
    EXPECT_NE(rep.error.find("CRC mismatch"), std::string::npos) << rep.error;
    EXPECT_NE(rep.error.find(stream_name(id)), std::string::npos)
        << rep.error << " (flip at " << off << ")";
    EXPECT_THROW(replay_file(h.prog, path, h.opts, h.cfg), VmError);
  }
  std::remove(path.c_str());
}

TEST(TraceStream, TruncatedRealRecordingFailsCleanly) {
  Harness h;
  h.cfg.trace_chunk_bytes = 64;
  std::string path = temp_path("dv_stream_trunc.djv");
  h.record_to(path);
  std::vector<uint8_t> bytes = read_file(path);
  for (size_t frac = 1; frac <= 4; ++frac) {
    std::vector<uint8_t> bad(bytes.begin(),
                             bytes.begin() + bytes.size() * frac / 5);
    write_file(path, bad);
    TraceVerifyReport rep = verify_trace_file(path);
    EXPECT_FALSE(rep.ok);
    EXPECT_FALSE(rep.error.empty());
    EXPECT_THROW(replay_file(h.prog, path, h.opts, h.cfg), VmError);
  }
  std::remove(path.c_str());
}

TEST(TraceStream, V3TraceReplaysAndConvertsToV4) {
  Harness h;
  RecordResult rec = h.record_v4();
  std::string v3 = temp_path("dv_stream_v3.djv");
  std::string v4 = temp_path("dv_stream_v4.djv");
  write_file(v3, testutil::v3_blob(
                     rec.trace.meta,
                     testutil::stream_bytes(rec.trace, StreamId::kSchedule),
                     testutil::stream_bytes(rec.trace, StreamId::kEvents)));

  // v3 replays through the compatibility loader...
  ReplayResult rep3 = replay_file(h.prog, v3, h.opts, h.cfg);
  EXPECT_TRUE(rep3.verified) << rep3.stats.first_violation;

  // ...converts losslessly to v4 (what `dejavu convert` does), giving
  // back the bytes recorded at the default chunk size...
  write_file(v4, convert_trace(*open_trace_source(v3), kTraceVersion));
  EXPECT_TRUE(verify_trace_file(v4).ok);
  EXPECT_TRUE(read_file(v4) == rec.trace.serialize());
  auto sa = open_trace_source(v3);
  auto sb = open_trace_source(v4);
  TraceDiff d = diff_traces(*sa, *sb);
  EXPECT_TRUE(d.identical) << d.description;

  // ...and the converted trace replays verified too.
  ReplayResult rep4 = replay_file(h.prog, v4, h.opts, h.cfg);
  EXPECT_TRUE(rep4.verified) << rep4.stats.first_violation;
  EXPECT_EQ(rep4.output, rec.output);

  std::remove(v3.c_str());
  std::remove(v4.c_str());
}

TEST(TraceStream, StreamingRecorderKeepsMemoryBounded) {
  // Not a benchmark, but a structural check: while recording through a
  // file sink with small chunks, the engine's writer never accumulates
  // more than one chunk per stream (verified indirectly: the file already
  // contains almost all payload bytes the moment the run ends, and nothing
  // is materialized in memory).
  Harness h;
  h.cfg.trace_chunk_bytes = 64;
  std::string path = temp_path("dv_stream_bounded.djv");
  RecordFileResult rec = h.record_to(path);
  auto src = open_trace_source(path);
  uint64_t payload = src->stream_info(StreamId::kSchedule).bytes +
                     src->stream_info(StreamId::kEvents).bytes;
  EXPECT_GT(payload, 0u);
  EXPECT_GT(rec.stats.preempt_switches, 0u);
  // A session streaming to a file keeps no in-memory trace.
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(7, 3, 60);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  RecordSession probe(
      h.prog, std::make_unique<FileTraceSink>(temp_path("dv_stream_probe.djv")),
      h.opts, env, timer, &natives, h.cfg);
  probe.finish();
  EXPECT_THROW(probe.take_trace(), VmError);
  std::remove(path.c_str());
  std::remove(temp_path("dv_stream_probe.djv").c_str());
}

}  // namespace
}  // namespace dejavu::replay
