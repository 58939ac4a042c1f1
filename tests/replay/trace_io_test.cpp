// The v4 container layer in isolation: chunked writing, CRC verification,
// streamed reading, and corruption detection with located errors. The
// fuzz-ish tests flip and truncate at *every* byte position of a small
// trace, so every field of the frame (id, length, payload, checksum) gets
// exercised, and check at each position that every reader -- deserialize,
// load, the streaming source and the verifier -- gives the same verdict
// with the same located message.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "src/replay/trace_io.hpp"
#include "tests/replay/trace_test_util.hpp"

namespace dejavu::replay {
namespace {

using testutil::stream_bytes;

TraceMeta sample_meta() {
  TraceMeta m;
  m.program_fingerprint = 0x1234;
  m.checkpoint_interval = 8;
  m.preempt_switches = 3;
  m.nd_events = 2;
  m.final_checkpoint = Checkpoint{10, 20, 3, 4, 1, 2, 15};
  m.final_output_hash = 0xaa;
  m.final_heap_hash = 0xbb;
  m.final_switch_seq_hash = 0xcc;
  m.final_instr_count = 999;
  m.final_audit_digest = 0xdd;
  return m;
}

std::vector<uint8_t> sample_schedule() {
  std::vector<uint8_t> s;
  for (int i = 0; i < 40; ++i) s.push_back(uint8_t(i));
  return s;
}

std::vector<uint8_t> sample_events() {
  std::vector<uint8_t> e;
  for (int i = 0; i < 60; ++i) e.push_back(uint8_t(200 - i));
  return e;
}

// Header, one schedule chunk, one events chunk, meta, seal.
TraceFile sample_trace() {
  return testutil::build_trace(sample_meta(), sample_schedule(),
                               sample_events());
}

std::vector<uint8_t> sample_v3() {
  return testutil::v3_blob(sample_meta(), sample_schedule(), sample_events());
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

// The error each reader reports for `bytes` (empty = accepted). The
// streaming source names the file in front of the walk's message.
struct ReaderVerdicts {
  std::string deserialize, load, source, verify;
};

ReaderVerdicts read_with_every_reader(const std::vector<uint8_t>& bytes) {
  ReaderVerdicts v;
  auto error_of = [](auto&& read) -> std::string {
    try {
      read();
      return "";
    } catch (const VmError& e) {
      return e.what();
    }
  };
  // Per-process name: ctest runs this file's tests concurrently.
  std::string path = temp_path(
      ("dv_reader_agreement_" + std::to_string(::getpid()) + ".djv").c_str());
  write_file(path, bytes);
  v.deserialize = error_of([&] { TraceFile::deserialize(bytes); });
  v.load = error_of([&] { TraceFile::load(path); });
  v.source = error_of([&] { open_trace_source(path); });
  v.verify = verify_trace_file(path).error;
  if (!v.source.empty()) {
    std::string prefix = "trace " + path + ": ";
    EXPECT_EQ(v.source.rfind(prefix, 0), 0u) << v.source;
    v.source.erase(0, prefix.size());
  }
  std::remove(path.c_str());
  return v;
}

// Every reader rejects `bytes` with one and the same located message.
void expect_all_readers_reject(const std::vector<uint8_t>& bytes,
                               const std::string& what) {
  ReaderVerdicts v = read_with_every_reader(bytes);
  EXPECT_FALSE(v.verify.empty()) << what << " went undetected";
  EXPECT_EQ(v.deserialize, v.verify) << what;
  EXPECT_EQ(v.load, v.verify) << what;
  EXPECT_EQ(v.source, v.verify) << what;
}

TEST(TraceWriter, TinyChunksRoundTrip) {
  TraceMeta meta = sample_meta();
  std::vector<uint8_t> sched = sample_schedule(), events = sample_events();
  auto sink = std::make_unique<VectorTraceSink>();
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink), /*chunk_bytes=*/7);
  // Appends in several pieces, forcing many chunk emissions.
  for (size_t i = 0; i < sched.size(); i += 3) {
    size_t n = std::min<size_t>(3, sched.size() - i);
    w.append(StreamId::kSchedule, sched.data() + i, n);
  }
  for (size_t i = 0; i < events.size(); i += 5) {
    size_t n = std::min<size_t>(5, events.size() - i);
    w.append(StreamId::kEvents, events.data() + i, n);
  }
  EXPECT_EQ(w.stream_bytes(StreamId::kSchedule), sched.size());
  EXPECT_EQ(w.stream_bytes(StreamId::kEvents), events.size());
  w.finish(meta);
  EXPECT_EQ(w.buffered_bytes(), 0u);

  TraceFile u = TraceFile::deserialize(mem->bytes());
  EXPECT_EQ(stream_bytes(u, StreamId::kSchedule), sched);
  EXPECT_EQ(stream_bytes(u, StreamId::kEvents), events);
  EXPECT_EQ(u.meta.final_checkpoint, meta.final_checkpoint);
  EXPECT_EQ(u.meta.final_audit_digest, meta.final_audit_digest);
  // The trace is the container as written, chunking included.
  EXPECT_EQ(u.serialize(), mem->bytes());
}

TEST(TraceWriter, EntryAlignmentNeverSplitsARecord) {
  // With chunk_bytes=8, a 5-byte record into a buffer holding 6 bytes must
  // start a fresh chunk, and a 20-byte record becomes one oversized chunk.
  auto sink = std::make_unique<VectorTraceSink>();
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink), 8);
  std::vector<uint8_t> six(6, 1), five(5, 2), twenty(20, 3);
  w.append(StreamId::kSchedule, six.data(), six.size());
  w.append(StreamId::kSchedule, five.data(), five.size());
  w.append(StreamId::kSchedule, twenty.data(), twenty.size());
  TraceMeta meta;
  w.finish(meta);

  // Walk the chunks and check no record crosses a boundary: chunk sizes
  // must be 6, 5, 20 (+ meta and seal).
  ByteReader r(mem->bytes());
  r.get_u32_fixed();
  r.get_u32_fixed();
  std::vector<uint32_t> sched_lens;
  while (!r.at_end()) {
    uint8_t id = r.get_u8();
    uint32_t len = r.get_u32_fixed();
    std::vector<uint8_t> payload(len);
    r.get_bytes(payload.data(), len);
    r.get_u32_fixed();  // crc
    if (id == uint8_t(StreamId::kSchedule)) sched_lens.push_back(len);
  }
  EXPECT_EQ(sched_lens, (std::vector<uint32_t>{6, 5, 20}));
}

TEST(TraceWriter, FlushEmitsPartialChunksMidRecording) {
  auto sink = std::make_unique<VectorTraceSink>();
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink), 1024);
  uint8_t b[3] = {1, 2, 3};
  w.append(StreamId::kEvents, b, 3);
  EXPECT_EQ(w.buffered_bytes(), 3u);
  size_t before = mem->bytes().size();
  w.flush();
  EXPECT_EQ(w.buffered_bytes(), 0u);
  EXPECT_GT(mem->bytes().size(), before);
  // Unfinished (unsealed) output is rejected with a clear reason...
  try {
    TraceFile::deserialize(mem->bytes());
    FAIL() << "unsealed trace accepted";
  } catch (const VmError& e) {
    EXPECT_NE(std::string(e.what()).find("not sealed"), std::string::npos);
  }
  // ...and finishing afterwards produces a valid trace.
  w.finish(TraceMeta{});
  EXPECT_EQ(stream_bytes(TraceFile::deserialize(mem->bytes()),
                         StreamId::kEvents),
            (std::vector<uint8_t>{1, 2, 3}));
}

TEST(StreamCursor, ValuesSpanChunkBoundaries) {
  // Serialize with one-chunk-per-stream, then re-chunk at 2 bytes so every
  // multi-byte value crosses a boundary.
  ByteWriter payload;
  payload.put_uvarint(300);          // 2 bytes
  payload.put_svarint(-123456789);   // multi-byte
  payload.put_string("hello world");
  payload.put_uvarint(7);

  std::vector<uint8_t> sched = payload.bytes();
  auto sink = std::make_unique<VectorTraceSink>();
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink), 1);  // 1-byte chunks: worst case
  for (uint8_t byte : sched) w.append(StreamId::kSchedule, &byte, 1);
  w.finish(TraceMeta{});
  std::string path = temp_path("dv_cursor_test.djv");
  write_file(path, mem->bytes());

  FileTraceSource src(path);
  EXPECT_EQ(src.stream_info(StreamId::kSchedule).chunks, sched.size());
  StreamCursor c(src, StreamId::kSchedule);
  EXPECT_EQ(c.get_uvarint(), 300u);
  EXPECT_EQ(c.get_svarint(), -123456789);
  EXPECT_EQ(c.get_string(), "hello world");
  EXPECT_EQ(c.get_uvarint(), 7u);
  EXPECT_TRUE(c.at_end());
  // The mirror buffer saw every consumed byte, in order.
  EXPECT_EQ(c.pending_mirror(), sched);
  c.drain_mirror();
  EXPECT_TRUE(c.pending_mirror().empty());
  std::remove(path.c_str());
}

TEST(TraceV4, FlippingAnyByteIsDetected) {
  std::vector<uint8_t> good = sample_trace().serialize();
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x01;
    expect_all_readers_reject(bad, "flip at byte " + std::to_string(i));
  }
  // A hostile length field is a truncation, found without allocating the
  // 4 GiB it claims.
  std::vector<uint8_t> bad = good;
  for (size_t k = 0; k < 4; ++k) bad[8 + 1 + k] = 0xff;
  expect_all_readers_reject(bad, "maximal schedule chunk length");
  EXPECT_NE(read_with_every_reader(bad).verify.find(
                "truncated schedule chunk payload at offset 8"),
            std::string::npos);
}

TEST(TraceV4, TruncationAtEveryPointIsDetected) {
  std::vector<uint8_t> good = sample_trace().serialize();
  for (size_t keep = 0; keep < good.size(); ++keep) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + keep);
    expect_all_readers_reject(
        bad, "truncation to " + std::to_string(keep) + " bytes");
  }
}

// A CRC-valid v5 file whose meta block claims fewer lanes than the file
// carries: three lanes of chunks and a seal for three lanes, but meta
// lane_count 1. Materializing it as one lane would drop lanes 1-2 (and
// `convert` would then write a v4 file without them), so every reader
// must refuse it.
TEST(ReaderAgreement, MetaLaneCountBelowLanesPresentIsRejectedEverywhere) {
  auto sink = std::make_unique<VectorTraceSink>(kTraceVersionMulti);
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink), /*chunk_bytes=*/16);
  std::vector<uint8_t> sched = sample_schedule(), events = sample_events();
  for (LaneId lane = 0; lane < 3; ++lane) {
    w.append(StreamId::kSchedule, sched.data(), sched.size(), lane);
    w.append(StreamId::kEvents, events.data(), events.size(), lane);
  }
  uint8_t order[4] = {1, 2, 3, 4};
  w.append(StreamId::kOrder, order, sizeof order);
  TraceMeta meta = sample_meta();
  meta.lane_count = 3;
  w.finish(meta);
  std::vector<uint8_t> good = mem->bytes();
  ReaderVerdicts clean = read_with_every_reader(good);
  ASSERT_TRUE(clean.verify.empty()) << clean.verify;
  ASSERT_TRUE(clean.deserialize.empty()) << clean.deserialize;

  // Re-encode the meta chunk with lane_count 1 and re-seal its CRC.
  std::vector<uint8_t> bad(good.begin(), good.begin() + 8);
  ByteReader r(good);
  r.skip(8);
  while (!r.at_end()) {
    uint8_t id = r.get_u8();
    std::vector<uint8_t> payload(r.get_u32_fixed());
    r.get_bytes(payload.data(), payload.size());
    r.get_u32_fixed();
    if (id == uint8_t(StreamId::kMeta)) {
      ByteReader mr(payload);
      TraceMeta m = read_meta_payload_ex(mr, kTraceVersionMulti);
      m.lane_count = 1;
      m.lane_clocks.resize(1);
      m.lane_preempts.resize(1);
      ByteWriter mw;
      write_meta_payload_ex(mw, m, kTraceVersionMulti);
      payload = mw.take();
    }
    ByteWriter cw;
    cw.put_u8(id);
    cw.put_u32_fixed(uint32_t(payload.size()));
    cw.put_bytes(payload.data(), payload.size());
    cw.put_u32_fixed(chunk_crc(id, payload.data(), payload.size()));
    bad.insert(bad.end(), cw.bytes().begin(), cw.bytes().end());
  }
  ASSERT_NE(bad, good);

  ReaderVerdicts v = read_with_every_reader(bad);
  EXPECT_NE(v.verify.find("meta lane count 1 disagrees with the lanes "
                          "present in the file"),
            std::string::npos)
      << v.verify;
  expect_all_readers_reject(bad, "meta lane_count 1 over three lanes");
}

TEST(Verify, LocatesAFlippedByteWithStreamAndOffset) {
  std::string path = temp_path("dv_verify_flip.djv");
  std::vector<uint8_t> bytes = sample_trace().serialize();
  // The sample's first chunk is its one schedule chunk; flip a byte inside
  // its payload (header is 8 bytes, chunk header 5).
  size_t flip_at = 8 + kChunkHeaderBytes + 3;
  bytes[flip_at] ^= 0x40;
  write_file(path, bytes);

  TraceVerifyReport rep = verify_trace_file(path);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("CRC mismatch"), std::string::npos) << rep.error;
  EXPECT_NE(rep.error.find("schedule"), std::string::npos) << rep.error;
  EXPECT_NE(rep.error.find("offset 8"), std::string::npos) << rep.error;
  EXPECT_NE(rep.describe().find("CORRUPT"), std::string::npos);
  // The streaming reader refuses the same file, naming the path.
  try {
    FileTraceSource src(path);
    FAIL() << "corrupt trace opened";
  } catch (const VmError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("schedule"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Verify, ReportsAllChunkBoundaryTruncations) {
  std::vector<uint8_t> good = sample_trace().serialize();

  // Compute every chunk boundary offset by walking the frames.
  std::vector<size_t> boundaries;
  {
    ByteReader r(good);
    r.get_u32_fixed();
    r.get_u32_fixed();
    while (!r.at_end()) {
      boundaries.push_back(r.position());
      r.get_u8();
      uint32_t len = r.get_u32_fixed();
      std::vector<uint8_t> skip(len);
      r.get_bytes(skip.data(), len);
      r.get_u32_fixed();
    }
  }
  ASSERT_GE(boundaries.size(), 4u);  // schedule, events, meta, seal

  std::string path = temp_path("dv_verify_trunc.djv");
  for (size_t b : boundaries) {
    // Cut exactly at the boundary (unsealed) and one byte past it
    // (truncated header).
    for (size_t cut : {b, b + 1}) {
      std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
      write_file(path, bad);
      TraceVerifyReport rep = verify_trace_file(path);
      EXPECT_FALSE(rep.ok) << "cut at " << cut << " accepted";
      EXPECT_FALSE(rep.error.empty());
      EXPECT_FALSE(rep.sealed);
      EXPECT_THROW(FileTraceSource src(path), VmError);
    }
  }
  std::remove(path.c_str());
}

TEST(Verify, CleanFileAndV3FileAreOk) {
  TraceFile t = sample_trace();
  std::string v4 = temp_path("dv_verify_ok.djv");
  t.save(v4);
  TraceVerifyReport rep4 = verify_trace_file(v4);
  EXPECT_TRUE(rep4.ok) << rep4.error;
  EXPECT_TRUE(rep4.sealed);
  EXPECT_EQ(rep4.version, kTraceVersion);
  EXPECT_EQ(rep4.schedule_bytes, sample_schedule().size());
  EXPECT_EQ(rep4.events_bytes, sample_events().size());
  EXPECT_NE(rep4.describe().find("OK"), std::string::npos);

  std::string v3 = temp_path("dv_verify_v3.djv");
  write_file(v3, sample_v3());
  TraceVerifyReport rep3 = verify_trace_file(v3);
  EXPECT_TRUE(rep3.ok) << rep3.error;
  EXPECT_EQ(rep3.version, kTraceVersionLegacy);

  std::remove(v4.c_str());
  std::remove(v3.c_str());
}

TEST(TraceV3, LegacyBlobStillLoads) {
  TraceFile u = TraceFile::deserialize(sample_v3());
  EXPECT_EQ(stream_bytes(u, StreamId::kSchedule), sample_schedule());
  EXPECT_EQ(stream_bytes(u, StreamId::kEvents), sample_events());
  EXPECT_EQ(u.meta.final_heap_hash, sample_meta().final_heap_hash);
  // Loading upgrades the blob to v4 once: the bytes are what the writer
  // makes of the same streams.
  EXPECT_EQ(u.version(), kTraceVersion);
  EXPECT_EQ(u.serialize(), sample_trace().serialize());
}

TEST(TraceV3, HostileStreamLengthIsALocatedError) {
  // A v3 stream length past the end of the blob is rejected as a VmError
  // before anything is sized by it.
  std::vector<uint8_t> v3 = sample_v3();
  ByteWriter w;
  w.put_u32_fixed(kTraceMagic);
  w.put_u32_fixed(kTraceVersionLegacy);
  write_meta_payload(w, sample_meta());
  w.put_uvarint(uint64_t(1) << 62);
  std::vector<uint8_t> bad = w.take();
  ASSERT_LT(bad.size(), v3.size());
  EXPECT_THROW(TraceFile::deserialize(bad), VmError);
}

TEST(TraceV3, OpenTraceSourceDispatchesOnVersion) {
  std::string v3 = temp_path("dv_src_v3.djv");
  std::string v4 = temp_path("dv_src_v4.djv");
  write_file(v3, sample_v3());
  sample_trace().save(v4);
  std::vector<uint8_t> events = sample_events();
  for (const std::string& p : {v3, v4}) {
    auto src = open_trace_source(p);
    EXPECT_EQ(src->meta().final_instr_count, sample_meta().final_instr_count);
    StreamCursor c(*src, StreamId::kEvents);
    std::vector<uint8_t> all(events.size());
    c.get_bytes(all.data(), all.size());
    EXPECT_EQ(all, events);
    EXPECT_TRUE(c.at_end());
  }
  std::remove(v3.c_str());
  std::remove(v4.c_str());
}

}  // namespace
}  // namespace dejavu::replay
