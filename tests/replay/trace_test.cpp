#include <gtest/gtest.h>

#include <cstdio>

#include "src/replay/trace.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"

namespace dejavu::replay {
namespace {

using testutil::stream_bytes;

const std::vector<uint8_t> kSampleSchedule{1, 2, 3};
const std::vector<uint8_t> kSampleEvents{9, 8, 7, 6};

TraceFile sample_trace() {
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
  return testutil::build_trace(m, kSampleSchedule, kSampleEvents);
}

TEST(TraceFile, SerializeRoundTrip) {
  TraceFile t = sample_trace();
  TraceFile u = TraceFile::deserialize(t.serialize());
  EXPECT_EQ(u.meta.program_fingerprint, t.meta.program_fingerprint);
  EXPECT_EQ(u.meta.checkpoint_interval, t.meta.checkpoint_interval);
  EXPECT_EQ(u.meta.preempt_switches, t.meta.preempt_switches);
  EXPECT_EQ(u.meta.nd_events, t.meta.nd_events);
  EXPECT_EQ(u.meta.final_checkpoint, t.meta.final_checkpoint);
  EXPECT_EQ(u.meta.final_output_hash, t.meta.final_output_hash);
  EXPECT_EQ(u.meta.final_heap_hash, t.meta.final_heap_hash);
  EXPECT_EQ(u.meta.final_instr_count, t.meta.final_instr_count);
  EXPECT_EQ(stream_bytes(u, StreamId::kSchedule), kSampleSchedule);
  EXPECT_EQ(stream_bytes(u, StreamId::kEvents), kSampleEvents);
  EXPECT_EQ(u.serialize(), t.serialize());
}

TEST(TraceFile, FileRoundTrip) {
  std::string path = testing::TempDir() + "/dv_trace_test.djv";
  sample_trace().save(path);
  TraceFile u = TraceFile::load(path);
  EXPECT_EQ(stream_bytes(u, StreamId::kSchedule), kSampleSchedule);
  EXPECT_EQ(u.serialize(), sample_trace().serialize());
  std::remove(path.c_str());
}

TEST(TraceFile, RejectsGarbage) {
  std::vector<uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_THROW(TraceFile::deserialize(junk), VmError);
}

TEST(TraceFile, RejectsTruncation) {
  std::vector<uint8_t> bytes = sample_trace().serialize();
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(TraceFile::deserialize(bytes), VmError);
}

TEST(TraceFile, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = sample_trace().serialize();
  bytes.push_back(0);
  EXPECT_THROW(TraceFile::deserialize(bytes), VmError);
}

TEST(Checkpoint, DescribeIsReadable) {
  Checkpoint c{1, 2, 3, 4, 5, 6, 7};
  std::string s = c.describe();
  EXPECT_NE(s.find("clock=1"), std::string::npos);
  EXPECT_NE(s.find("switches=7"), std::string::npos);
}

TEST(Fingerprint, StableForSameProgram) {
  EXPECT_EQ(fingerprint_program(workloads::fig1_race()),
            fingerprint_program(workloads::fig1_race()));
}

TEST(Fingerprint, DistinguishesPrograms) {
  EXPECT_NE(fingerprint_program(workloads::fig1_race()),
            fingerprint_program(workloads::fig1_clock()));
  EXPECT_NE(fingerprint_program(workloads::counter_race(2, 10)),
            fingerprint_program(workloads::counter_race(2, 11)));
}

}  // namespace
}  // namespace dejavu::replay
