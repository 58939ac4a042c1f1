// StreamCursor properties: decoding must be invariant under chunk geometry.
//
// A v4 reader sees a stream as a sequence of chunk payloads; nothing about
// where the recorder happened to cut them may be observable through
// StreamCursor. These tests hand-frame the same payload under many split
// sizes -- including pathological 1-byte chunks that make every multi-byte
// varint, string and fixed-width field straddle a boundary -- and assert
// identical decoded values, positions and mirror bytes. A second group
// records the same execution at very different trace_chunk_bytes settings
// and checks the logical streams and replays are indistinguishable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/io.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_io.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// The decoded-value schedule both sides agree on. Varint edge values sit on
// every encoded-length boundary so small splits cut them mid-encoding.
const std::vector<uint64_t> kUvarints = {
    0,      1,          0x7F,       0x80,       0x3FFF,     0x4000,
    0xFFFF, 0x12345678, 1ull << 31, 1ull << 62, 0xFFFFFFFFFFFFFFFFull};
const std::vector<int64_t> kSvarints = {
    0, -1, 1, 63, -64, 64, -65, 0x7FFFFFFF, -0x80000000ll,
    INT64_MAX, INT64_MIN};

std::vector<uint8_t> reference_payload() {
  ByteWriter w;
  for (uint64_t v : kUvarints) w.put_uvarint(v);
  for (int64_t v : kSvarints) w.put_svarint(v);
  for (int i = 0; i < 16; ++i) w.put_u8(uint8_t(i * 17));
  w.put_string("");
  w.put_string("yield");
  w.put_string(std::string(300, 'x'));  // longer than most split sizes
  for (int i = 0; i < 64; ++i) w.put_u8(uint8_t(255 - i));
  return w.take();
}

// Frames `sched`/`events` into a sealed v4 file, cutting data chunks every
// `split` bytes (the geometry TraceWriter would never produce -- its
// appends are entry-aligned -- but readers must not care).
void write_manual_v4(const std::string& path,
                     const std::vector<uint8_t>& sched,
                     const std::vector<uint8_t>& events, size_t split) {
  FileTraceSink sink(path, kTraceVersion);
  uint32_t sched_chunks = 0, events_chunks = 0;
  auto emit = [&](StreamId id, const std::vector<uint8_t>& payload,
                  uint32_t* count) {
    for (size_t off = 0; off < payload.size(); off += split) {
      size_t n = std::min(split, payload.size() - off);
      sink.write_chunk(id, payload.data() + off, n);
      ++*count;
    }
  };
  emit(StreamId::kSchedule, sched, &sched_chunks);
  emit(StreamId::kEvents, events, &events_chunks);
  ByteWriter mw;
  write_meta_payload(mw, TraceMeta{});
  std::vector<uint8_t> mb = mw.take();
  sink.write_chunk(StreamId::kMeta, mb.data(), mb.size());
  ByteWriter sw;
  sw.put_u64_fixed(sched.size());
  sw.put_u64_fixed(events.size());
  sw.put_u32_fixed(sched_chunks);
  sw.put_u32_fixed(events_chunks);
  std::vector<uint8_t> sb = sw.take();
  sink.write_chunk(StreamId::kSeal, sb.data(), sb.size());
}

void check_decodes_reference(TraceSource& src) {
  StreamCursor c(src, StreamId::kSchedule);
  for (uint64_t v : kUvarints) EXPECT_EQ(c.get_uvarint(), v);
  for (int64_t v : kSvarints) EXPECT_EQ(c.get_svarint(), v);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c.get_u8(), uint8_t(i * 17));
  EXPECT_EQ(c.get_string(), "");
  EXPECT_EQ(c.get_string(), "yield");
  EXPECT_EQ(c.get_string(), std::string(300, 'x'));
  uint8_t tail[64];
  c.get_bytes(tail, sizeof tail);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(tail[i], uint8_t(255 - i));
  EXPECT_TRUE(c.at_end());
  EXPECT_EQ(c.remaining(), 0u);
}

TEST(StreamCursorProperty, DecodingInvariantUnderChunkSplits) {
  std::vector<uint8_t> sched = reference_payload();
  std::vector<uint8_t> events = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  for (size_t split : {size_t(1), size_t(2), size_t(3), size_t(5), size_t(8),
                       size_t(13), size_t(64), sched.size()}) {
    std::string path =
        temp_path("dv_split_" + std::to_string(split) + ".djv");
    write_manual_v4(path, sched, events, split);

    TraceVerifyReport rep = verify_trace_file(path);
    EXPECT_TRUE(rep.ok) << "split " << split << ": " << rep.error;
    EXPECT_TRUE(rep.sealed);
    EXPECT_EQ(rep.schedule_bytes, sched.size());

    auto src = open_trace_source(path);
    EXPECT_EQ(src->stream_info(StreamId::kSchedule).bytes, sched.size());
    EXPECT_EQ(src->stream_info(StreamId::kSchedule).chunks,
              (sched.size() + split - 1) / split);
    check_decodes_reference(*src);

    // position()/mirror accounting: consumed bytes accumulate in the
    // mirror exactly as written, regardless of where chunks were cut.
    StreamCursor c(*src, StreamId::kSchedule);
    ASSERT_GT(sched.size(), 7u);
    uint8_t buf[7];
    c.get_bytes(buf, sizeof buf);
    EXPECT_EQ(c.position(), 7u);
    EXPECT_EQ(std::vector<uint8_t>(sched.begin(), sched.begin() + 7),
              c.pending_mirror());
    c.drain_mirror();
    while (!c.at_end()) c.get_u8();
    EXPECT_EQ(c.position(), sched.size());
    EXPECT_EQ(std::vector<uint8_t>(sched.begin() + 7, sched.end()),
              c.pending_mirror());

    // A second, independent cursor over the events stream.
    StreamCursor e(*src, StreamId::kEvents);
    for (uint8_t want : events) EXPECT_EQ(e.get_u8(), want);
    EXPECT_TRUE(e.at_end());
    // Reading past the end is an error, not a silent zero.
    EXPECT_THROW(e.get_u8(), VmError);
    std::remove(path.c_str());
  }
}

// Record the same execution with very different chunk geometries: the
// logical streams, the verification verdict and the replays must all be
// indistinguishable.
TEST(StreamCursorProperty, RecordReplayAcrossDifferentChunkSizes) {
  bytecode::Program prog = workloads::clock_mixer(3, 40);
  vm::VmOptions opts;
  vm::NativeRegistry natives = vmtest::make_test_natives();

  const size_t kSizes[] = {48, 512, kDefaultChunkBytes};
  std::vector<std::string> paths;
  std::vector<RecordFileResult> recs;
  for (size_t chunk : kSizes) {
    SymmetryConfig cfg;
    cfg.trace_chunk_bytes = chunk;
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4}, 17);
    threads::VirtualTimer timer(7, 3, 60);
    std::string path = temp_path("dv_geom_" + std::to_string(chunk) + ".djv");
    recs.push_back(record_run_to(path, prog, opts, env, timer, &natives, cfg));
    paths.push_back(path);
  }

  auto small = open_trace_source(paths[0]);
  EXPECT_GT(small->stream_info(StreamId::kSchedule).chunks, 1u)
      << "48-byte chunks should split the schedule stream";
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_EQ(recs[i].output, recs[0].output);
    EXPECT_EQ(recs[i].summary, recs[0].summary);
    auto other = open_trace_source(paths[i]);
    TraceDiff d = diff_traces(*small, *other);
    EXPECT_TRUE(d.identical) << "chunk " << kSizes[i] << ": " << d.description;
  }
  for (size_t i = 0; i < paths.size(); ++i) {
    SymmetryConfig cfg;
    ReplayResult rep = replay_file(prog, paths[i], opts, cfg);
    EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
    EXPECT_EQ(rep.output, recs[0].output);
    std::remove(paths[i].c_str());
  }
}

}  // namespace
}  // namespace dejavu::replay
