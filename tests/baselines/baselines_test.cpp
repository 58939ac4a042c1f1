// The related-work baselines (§5): record fidelity, replay/validation
// behaviour, and the structural properties the comparison benches rely on.
#include <gtest/gtest.h>

#include "src/baselines/instant_replay.hpp"
#include "src/baselines/read_log.hpp"
#include "src/baselines/russinovich_cogswell.hpp"
#include "src/replay/session.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::baselines {
namespace {

vm::BehaviorSummary run_with_hooks(const bytecode::Program& prog,
                                   vm::ExecHooks* hooks, uint64_t seed,
                                   std::string* output = nullptr,
                                   vm::VmOptions opts = {}) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  std::unique_ptr<threads::TimerSource> timer;
  if (seed == 0) {
    timer = std::make_unique<threads::NullTimer>();
  } else {
    timer = std::make_unique<threads::VirtualTimer>(seed, 5, 80);
  }
  vm::NativeRegistry natives = vmtest::make_test_natives();
  vm::Vm v(prog, opts, env, *timer, hooks, &natives);
  v.run();
  if (output != nullptr) *output = v.output();
  return v.summary();
}

// ---------------------------------------------------------- read logging

TEST(ReadLog, RecordsEveryRead) {
  ReadLogRecorder rec;
  run_with_hooks(workloads::counter_race(2, 10), &rec, 3);
  ReadLogTrace t = rec.take_trace();
  // Each increment reads the counter once (2 workers x 10 iters), plus the
  // iteration-count and thread-array reads.
  EXPECT_GT(t.total_entries(), 20u);
  EXPECT_GE(t.per_thread.size(), 3u);  // main + 2 workers
}

TEST(ReadLog, ReplaySubstitutesAndReproducesOutput) {
  ReadLogRecorder rec;
  std::string rec_out;
  run_with_hooks(workloads::counter_race(3, 15), &rec, 9, &rec_out);
  ReadLogTrace trace = rec.take_trace();

  // Replay with NO timer: a different schedule, yet the substituted reads
  // reproduce each thread's data behaviour -- main prints the same total.
  ReadLogReplayer rep(std::move(trace));
  std::string rep_out;
  run_with_hooks(workloads::counter_race(3, 15), &rep, 0, &rep_out);
  EXPECT_EQ(rep_out, rec_out);
  EXPECT_GT(rep.substituted(), 0u);
  EXPECT_EQ(rep.desyncs(), 0u);
}

TEST(ReadLog, TraceGrowsLinearlyWithReads) {
  ReadLogRecorder small, large;
  run_with_hooks(workloads::counter_race(2, 10), &small, 3);
  run_with_hooks(workloads::counter_race(2, 40), &large, 3);
  size_t s = small.take_trace().serialized_bytes();
  size_t l = large.take_trace().serialized_bytes();
  EXPECT_GT(l, s * 2);  // ~4x the work, at least 2x the bytes
}

// ---------------------------------------------------------- Instant Replay

TEST(InstantReplay, VersionsMonotonePerObject) {
  InstantReplayRecorder rec;
  run_with_hooks(workloads::counter_locked(2, 10), &rec, 3);
  CrewTrace t = rec.take_trace();
  EXPECT_GT(t.total_entries(), 20u);
  // Writers record the reader count of the version they supersede.
  bool saw_write = false;
  for (const auto& [tid, log] : t.per_thread) {
    uint32_t last_version_for_obj = 0;
    (void)last_version_for_obj;
    for (const CrewEntry& e : log) saw_write |= e.is_write;
  }
  EXPECT_TRUE(saw_write);
}

TEST(InstantReplay, ValidatorAcceptsIdenticalSchedule) {
  vm::VmOptions opts;
  opts.heap.gc = heap::GcKind::kMarkSweep;  // stable addresses for keying
  InstantReplayRecorder rec;
  run_with_hooks(workloads::counter_race(2, 10), &rec, 0, nullptr, opts);
  InstantReplayValidator val(rec.take_trace());
  run_with_hooks(workloads::counter_race(2, 10), &val, 0, nullptr, opts);
  EXPECT_EQ(val.mismatches(), 0u);
  EXPECT_GT(val.validated(), 0u);
}

TEST(InstantReplay, ValidatorDetectsDifferentSchedule) {
  vm::VmOptions opts;
  opts.heap.gc = heap::GcKind::kMarkSweep;
  InstantReplayRecorder rec;
  run_with_hooks(workloads::counter_race(3, 20), &rec, 21, nullptr, opts);
  InstantReplayValidator val(rec.take_trace());
  // Replay without the timer: schedule differs, access order differs.
  run_with_hooks(workloads::counter_race(3, 20), &val, 0, nullptr, opts);
  EXPECT_GT(val.mismatches(), 0u);
}

// ------------------------------------------------- Russinovich-Cogswell

TEST(RussinovichCogswell, RecordsEveryDispatch) {
  RcRecorder rec;
  vm::BehaviorSummary s =
      run_with_hooks(workloads::counter_race(3, 15), &rec, 9);
  RcTrace t = rec.take_trace();
  EXPECT_EQ(t.switches.size(), s.switch_count);
  EXPECT_GT(t.switches.size(), 5u);
}

TEST(RussinovichCogswell, ReplayReproducesExactly) {
  RcRecorder rec;
  std::string rec_out;
  vm::BehaviorSummary rs =
      run_with_hooks(workloads::counter_race(3, 15), &rec, 9, &rec_out);
  RcReplayer rep(rec.take_trace());
  std::string rep_out;
  vm::BehaviorSummary ps =
      run_with_hooks(workloads::counter_race(3, 15), &rep, 0, &rep_out);
  EXPECT_TRUE(rep.verified()) << "divergences: " << rep.divergences();
  EXPECT_EQ(rep_out, rec_out);
  EXPECT_EQ(ps.switch_seq_hash, rs.switch_seq_hash);
  EXPECT_EQ(ps.output_hash, rs.output_hash);
}

TEST(RussinovichCogswell, ReplayPaysMapLookupPerSwitch) {
  RcRecorder rec;
  vm::BehaviorSummary s =
      run_with_hooks(workloads::counter_race(3, 25), &rec, 9);
  RcReplayer rep(rec.take_trace());
  run_with_hooks(workloads::counter_race(3, 25), &rep, 0);
  // At least two lookups per dispatch (director + validation): the cost
  // DejaVu avoids by replaying the thread package (§5).
  EXPECT_GE(rep.map_lookups(), 2 * s.switch_count - 2);
}

TEST(RussinovichCogswell, TraceLargerThanDejaVuPerSwitch) {
  // The structural claim behind E3: RC logs every dispatch (with thread
  // ids); DejaVu logs only preemptive switches (as bare deltas).
  bytecode::Program prog = workloads::counter_race(3, 25);
  RcRecorder rc;
  run_with_hooks(prog, &rc, 9);
  size_t rc_bytes = rc.take_trace().serialized_bytes();

  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(9, 5, 80);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  replay::RecordResult dv = replay::record_run(prog, {}, env, timer, &natives);
  replay::TraceFileSource dv_src(&dv.trace);
  EXPECT_GT(rc_bytes, dv_src.stream_info(replay::StreamId::kSchedule).bytes);
}

TEST(RussinovichCogswell, EnvEventsReplayed) {
  RcRecorder rec;
  std::string rec_out;
  run_with_hooks(workloads::env_reader(6), &rec, 3, &rec_out);
  RcReplayer rep(rec.take_trace());
  std::string rep_out;
  run_with_hooks(workloads::env_reader(6), &rep, 0, &rep_out);
  EXPECT_EQ(rep_out, rec_out);
}

}  // namespace
}  // namespace dejavu::baselines
