// Property P1 -- accuracy: replay reproduces the recorded execution
// exactly, across workloads, seeds, heap configurations and environments.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>

#include "src/common/io.hpp"
#include "src/replay/session.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

struct RecordSetup {
  uint64_t timer_seed = 7;
  uint64_t timer_min = 5;
  uint64_t timer_max = 120;
  std::vector<int64_t> inputs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  vm::VmOptions opts;
  SymmetryConfig cfg;
};

RecordResult record_with(const bytecode::Program& prog,
                         const RecordSetup& s = {}) {
  vm::ScriptedEnvironment env(1000, 7, s.inputs, 17);
  std::unique_ptr<threads::TimerSource> timer;
  if (s.timer_seed == 0) {
    timer = std::make_unique<threads::NullTimer>();
  } else {
    timer = std::make_unique<threads::VirtualTimer>(s.timer_seed, s.timer_min,
                                                    s.timer_max);
  }
  vm::NativeRegistry natives = vmtest::make_test_natives();
  return record_run(prog, s.opts, env, *timer, &natives, s.cfg);
}

void expect_exact_replay(const bytecode::Program& prog,
                         const RecordSetup& s = {}) {
  RecordResult rec = record_with(prog, s);
  ReplayResult rep = replay_run(prog, rec.trace, s.opts, s.cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.output, rec.output);
  EXPECT_EQ(rep.summary, rec.summary);  // includes heap & audit digests
}

TEST(Replay, Fig1RaceExact) { expect_exact_replay(workloads::fig1_race()); }
TEST(Replay, Fig1ClockExact) { expect_exact_replay(workloads::fig1_clock()); }

// Once a lane's schedule stream outgrows its guest buffer, every wrap is an
// audited flush. Replay reads each schedule delta one switch ahead, but must
// mirror it at the switch it schedules, as record does, or the flush lands
// at a different instruction and the final audit digest differs.
TEST(Replay, ExactPastGuestBufferBoundary) {
  for (uint32_t lanes : {1u, 2u, 3u}) {
    for (uint32_t capacity : {64u, 128u, 256u}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + ", buffer " +
                   std::to_string(capacity));
      RecordSetup s;
      s.timer_min = 40;
      s.timer_max = 400;
      s.cfg.lanes = lanes;
      s.cfg.buffer_capacity = capacity;
      s.cfg.strict = false;  // report the first violation, don't throw
      expect_exact_replay(workloads::compute(2, 2000), s);
    }
  }
}

// A 16-byte guest buffer: most event records straddle a buffer boundary, so
// the mirror must split them there. Each kIoFlush (its stream offset and
// instruction count), the audit digest and the mirrored byte count are
// pinned, in record and in replay, so a change to how trace bytes reach
// the guest buffers cannot move a flush unnoticed. They are pinned for the
// v6 recordings every recording makes and for the v4/v5 sinks the goldens
// use: v6 mirrors fewer bytes, since its clock reads are predicted.
TEST(Replay, TinyGuestBufferFlushesArePinned) {
  struct Pinned {
    uint32_t version;
    uint32_t lanes;
    size_t flushes;
    uint64_t flush_digest;  // FNV-1a over each flush's (offset, instr)
    uint64_t audit_digest;
    uint64_t mirror_bytes;
  };
  const Pinned cases[] = {
      {kTraceVersion, 1, 17, 0xdd46b564f11badb4ull, 0xf4e5171b5431397full,
       292},
      {kTraceVersionMulti, 2, 60, 0xfec1725174a240dbull,
       0x792e2b364afbd7b0ull, 997},
      {kTraceVersionPredicted, 1, 8, 0x2be276ada327715cull,
       0xa82ed3e8669da7aaull, 135},
      {kTraceVersionPredicted, 2, 52, 0xf0a96168cd634ed5ull,
       0xc7df0a3a468b8396ull, 880},
  };
  auto flushes_of = [](const vm::AuditLog& log) {
    size_t n = 0;
    Fnv1a h;
    for (const vm::AuditEvent& e : log.events()) {
      if (e.kind != vm::AuditKind::kIoFlush) continue;
      h.update_str(e.detail);
      h.update_u64(e.instr);
      n++;
    }
    return std::make_pair(n, h.digest());
  };
  const bytecode::Program prog = workloads::clock_mixer(2, 40);
  for (const Pinned& c : cases) {
    SCOPED_TRACE("v" + std::to_string(c.version) + ", lanes " +
                 std::to_string(c.lanes));
    SymmetryConfig cfg;
    cfg.lanes = c.lanes;
    cfg.buffer_capacity = 16;
    cfg.obs.metrics = true;
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3}, 17);
    threads::VirtualTimer timer(7, 5, 60);
    RecordSession recd(prog, std::make_unique<VectorTraceSink>(c.version),
                       {}, env, timer, nullptr, cfg);
    RecordResult rec = recd.finish();
    auto rec_flushes = flushes_of(recd.vm().audit());
    ReplaySession reps(prog, recd.take_trace(), {}, cfg);
    ReplayResult rep = reps.finish();
    ASSERT_TRUE(rep.verified) << rep.stats.first_violation;
    auto rep_flushes = flushes_of(reps.vm().audit());
    EXPECT_EQ(rep_flushes, rec_flushes);
    EXPECT_EQ(rec_flushes.first, c.flushes);
    EXPECT_EQ(rec_flushes.second, c.flush_digest);
    EXPECT_EQ(rec.summary.audit_digest, c.audit_digest);
    EXPECT_EQ(rep.summary.audit_digest, c.audit_digest);
    const obs::MetricSample* rec_m = rec.metrics.find("engine.mirror.bytes");
    const obs::MetricSample* rep_m = rep.metrics.find("engine.mirror.bytes");
    ASSERT_NE(rec_m, nullptr);
    ASSERT_NE(rep_m, nullptr);
    EXPECT_EQ(rec_m->value, c.mirror_bytes);
    EXPECT_EQ(rep_m->value, c.mirror_bytes);
  }
}

TEST(Replay, CounterRaceExactAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RecordSetup s;
    s.timer_seed = seed;
    s.timer_min = 3;
    s.timer_max = 50;
    expect_exact_replay(workloads::counter_race(4, 20), s);
  }
}

TEST(Replay, ReplayReproducesTheRecordedScheduleNotJustAnySchedule) {
  // Collect several distinct racy outcomes, replay each, and check replay
  // lands on the *same* outcome every time.
  std::set<std::string> outcomes;
  for (uint64_t seed = 1; seed <= 25 && outcomes.size() < 3; ++seed) {
    RecordSetup s;
    s.timer_seed = seed;
    s.timer_min = 3;
    s.timer_max = 40;
    RecordResult rec = record_with(workloads::counter_race(4, 20), s);
    if (outcomes.insert(rec.output).second) {
      ReplayResult rep = replay_run(workloads::counter_race(4, 20), rec.trace,
                                    s.opts, s.cfg);
      EXPECT_EQ(rep.output, rec.output);
      EXPECT_TRUE(rep.verified);
    }
  }
  EXPECT_GE(outcomes.size(), 2u) << "workload was not schedule-sensitive";
}

TEST(Replay, ProducerConsumerExact) {
  RecordSetup s;
  s.timer_min = 3;
  s.timer_max = 60;
  expect_exact_replay(workloads::producer_consumer(30, 4), s);
}

TEST(Replay, PingPongExact) {
  expect_exact_replay(workloads::lock_pingpong(40));
}

TEST(Replay, SleepersExact) {
  // Timed events: wakeups driven by recorded clock values (§2.2).
  expect_exact_replay(workloads::sleepers(4, 25));
}

TEST(Replay, AllocChurnWithGcExact) {
  RecordSetup s;
  s.opts.heap.size_bytes = 128 << 10;   // force many GCs
  s.cfg.buffer_capacity = 4096;         // engine buffers must fit too
  expect_exact_replay(workloads::alloc_churn(2000, 16, 8), s);
}

TEST(Replay, MarkSweepHeapExact) {
  RecordSetup s;
  s.opts.heap.gc = heap::GcKind::kMarkSweep;
  s.opts.heap.size_bytes = 128 << 10;
  s.cfg.buffer_capacity = 4096;
  expect_exact_replay(workloads::alloc_churn(1500, 16, 8), s);
}

TEST(Replay, NativeCallsExact) {
  // Natives are *not executed* on replay; returns and callbacks substitute.
  expect_exact_replay(workloads::native_calls(6));
}

TEST(Replay, EnvironmentValuesSubstituted) {
  expect_exact_replay(workloads::env_reader(8));
}

TEST(Replay, CooperativeRunHasEmptySchedule) {
  RecordSetup s;
  s.timer_seed = 0;  // no preemption
  RecordResult rec = record_with(workloads::fig1_race(), s);
  EXPECT_EQ(rec.trace.meta.preempt_switches, 0u);
  EXPECT_TRUE(testutil::stream_bytes(rec.trace, StreamId::kSchedule).empty());
  ReplayResult rep = replay_run(workloads::fig1_race(), rec.trace, s.opts);
  EXPECT_TRUE(rep.verified);
}

TEST(Replay, HostEnvironmentRecordingReplays) {
  // Real wall clock + real timer: the genuinely non-deterministic setting.
  vm::HostEnvironment env;
  threads::RealTimeTimer timer(std::chrono::microseconds(100));
  vm::NativeRegistry natives = vmtest::make_test_natives();
  RecordResult rec = record_run(workloads::counter_race(3, 200), {}, env,
                                timer, &natives);
  ReplayResult rep =
      replay_run(workloads::counter_race(3, 200), rec.trace, {});
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_EQ(rep.output, rec.output);
}

TEST(Replay, TraceSurvivesSerialization) {
  RecordSetup s;
  RecordResult rec = record_with(workloads::producer_consumer(20, 4), s);
  TraceFile reloaded = TraceFile::deserialize(rec.trace.serialize());
  ReplayResult rep =
      replay_run(workloads::producer_consumer(20, 4), reloaded, s.opts);
  EXPECT_TRUE(rep.verified);
}

TEST(Replay, WrongProgramRefused) {
  RecordResult rec = record_with(workloads::fig1_race());
  EXPECT_THROW(replay_run(workloads::fig1_clock(), rec.trace, {}), VmError);
}

TEST(Replay, ReplayOfReplayIsStillExact) {
  // Determinism of the replayer itself: replaying twice gives identical
  // results.
  RecordSetup s;
  s.timer_min = 3;
  s.timer_max = 60;
  RecordResult rec = record_with(workloads::counter_race(3, 30), s);
  ReplayResult r1 = replay_run(workloads::counter_race(3, 30), rec.trace, {});
  ReplayResult r2 = replay_run(workloads::counter_race(3, 30), rec.trace, {});
  EXPECT_EQ(r1.summary, r2.summary);
  EXPECT_TRUE(r1.verified && r2.verified);
}

TEST(Replay, ManyPreemptionsCheckpointsConsumed) {
  RecordSetup s;
  s.timer_min = 2;
  s.timer_max = 10;  // very aggressive preemption
  s.cfg.checkpoint_interval = 4;
  RecordResult rec = record_with(workloads::compute(3, 800), s);
  EXPECT_GT(rec.stats.preempt_switches, 20u);
  EXPECT_GT(rec.stats.checkpoints, 2u);
  ReplayResult rep = replay_run(workloads::compute(3, 800), rec.trace, s.opts,
                                s.cfg);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.stats.checkpoints, rec.stats.checkpoints);
  EXPECT_EQ(rep.stats.preempt_switches, rec.stats.preempt_switches);
}

TEST(Replay, EventCountsMatch) {
  RecordSetup s;
  RecordResult rec = record_with(workloads::sleepers(3, 30), s);
  ReplayResult rep = replay_run(workloads::sleepers(3, 30), rec.trace, s.opts);
  EXPECT_EQ(rep.stats.clock_events, rec.stats.clock_events);
  EXPECT_GT(rec.stats.clock_events, 0u);
}

TEST(Replay, GcStressRecordingReplays) {
  RecordSetup s;
  s.opts.gc_stress = true;
  s.timer_min = 5;
  s.timer_max = 60;
  expect_exact_replay(workloads::counter_locked(2, 6), s);
}

// A guest crash ends a full recording like an exit: the file is sealed,
// verifies, and replays the same error at the same instruction.
TEST(Replay, CrashedFullRecordingReplaysTheCrash) {
  for (uint32_t lanes : {1u, 2u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    bytecode::Program prog = workloads::crasher(3, 30, 50);
    std::string path = "/tmp/dejavu_replay_test_crash_" +
                       std::to_string(::getpid()) + ".djv";
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    threads::VirtualTimer timer(5, 40, 400);
    SymmetryConfig cfg;
    cfg.lanes = lanes;
    RecordFileResult rec = record_run_to(path, prog, {}, env, timer, nullptr,
                                         cfg);
    ASSERT_TRUE(rec.crashed);
    EXPECT_EQ(rec.error, "division by zero");
    EXPECT_GT(rec.error_instr, 0u);
    EXPECT_EQ(rec.summary.instr_count, rec.error_instr);

    TraceVerifyReport v = verify_trace_file(path);
    EXPECT_TRUE(v.ok) << v.error;

    ReplayResult rep = replay_file(prog, path, {});
    EXPECT_TRUE(rep.crashed);
    EXPECT_EQ(rep.error, rec.error);
    EXPECT_EQ(rep.error_instr, rec.error_instr);
    EXPECT_EQ(rep.output, rec.output);
    EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
    std::remove(path.c_str());
  }
}

// Re-recording replaces the file at the path with a new one instead of
// truncating it in place (open_for_replace): the new trace verifies and
// replays, and another hard link to the old file keeps the old trace.
RecordFileResult record_to(const std::string& path,
                           const bytecode::Program& prog, uint64_t seed) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(seed, 40, 400);
  return record_run_to(path, prog, {}, env, timer);
}

TEST(Replay, ReRecordingToAnExistingPathVerifies) {
  std::string path = "/tmp/dejavu_replay_test_rerecord_" +
                     std::to_string(::getpid()) + ".djv";
  bytecode::Program prog = workloads::counter_locked(3, 40);
  for (uint64_t seed : {5u, 9u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RecordFileResult rec = record_to(path, prog, seed);
    ASSERT_FALSE(rec.crashed) << rec.error;
    TraceVerifyReport v = verify_trace_file(path);
    EXPECT_TRUE(v.ok) << v.error;
    ReplayResult rep = replay_file(prog, path, {});
    EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
    EXPECT_EQ(rep.summary, rec.summary);
  }
  std::remove(path.c_str());
}

TEST(Replay, ReRecordingLeavesAHardLinkWithTheOldBytes) {
  std::string stem = "/tmp/dejavu_replay_test_link_" +
                     std::to_string(::getpid());
  std::string path = stem + ".djv", link = stem + "_old.djv";
  bytecode::Program first = workloads::counter_locked(3, 40);
  bytecode::Program second = workloads::counter_race(2, 50);
  std::remove(link.c_str());
  record_to(path, first, 5);
  std::vector<uint8_t> old_bytes = read_file(path);
  ASSERT_EQ(::link(path.c_str(), link.c_str()), 0);

  record_to(path, second, 5);
  EXPECT_EQ(read_file(link), old_bytes);
  EXPECT_NE(read_file(path), old_bytes);
  EXPECT_TRUE(replay_file(first, link, {}).verified);
  EXPECT_TRUE(replay_file(second, path, {}).verified);
  std::remove(path.c_str());
  std::remove(link.c_str());
}

// Only a regular file is replaced: a device is opened as it is.
TEST(Replay, RecordingToDevNullLeavesTheDevice) {
  RecordFileResult rec =
      record_to("/dev/null", workloads::counter_locked(2, 6), 5);
  EXPECT_FALSE(rec.crashed) << rec.error;
  struct stat st;
  ASSERT_EQ(::stat("/dev/null", &st), 0);
  EXPECT_TRUE(S_ISCHR(st.st_mode));
}

}  // namespace
}  // namespace dejavu::replay
