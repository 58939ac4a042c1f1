// Tests for the replay-time analysis engine (src/obs/analysis) and its
// central invariant: attaching analyzers to a replay must not perturb it.
// The golden-trace tests assert full byte/behaviour identity -- same
// BehaviorSummary (output, heap and audit hashes), same verification
// outcome, same checkpoint count, and the trace streams consumed to the
// exact same byte positions -- with every analyzer on vs everything off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/hash.hpp"
#include "src/obs/analysis/cache_sim.hpp"
#include "src/obs/analysis/critical_path.hpp"
#include "src/obs/analysis/heap_churn.hpp"
#include "src/obs/analysis/locks.hpp"
#include "src/obs/analysis/merge.hpp"
#include "src/obs/analysis/profiler.hpp"
#include "src/obs/json.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/replay/trace_test_util.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::obs {
namespace {

std::string golden_path(const char* name) {
  return std::string(DEJAVU_GOLDEN_DIR) + "/" + name;
}

// The same fixed recipe that produced the committed golden traces
// (tests/replay/golden_trace_test.cpp).
bytecode::Program golden_program() { return workloads::clock_mixer(2, 12); }

replay::SymmetryConfig analyzers_cfg(bool on) {
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_profile = on;
  cfg.obs.analyze_locks = on;
  cfg.obs.analyze_heap = on;
  cfg.obs.analyze_critpath = on;
  cfg.obs.analyze_cachesim = on;
  return cfg;
}

// Replays the committed golden v4 trace through a ReplaySession (which
// exposes the engine, so the stream cursor end positions are observable).
struct GoldenReplay {
  replay::ReplayResult result;
  uint64_t schedule_end = 0;
  uint64_t events_end = 0;
  uint64_t order_seen = 0;
};

GoldenReplay replay_golden_file(const bytecode::Program& prog,
                                const char* name,
                                const replay::SymmetryConfig& cfg) {
  replay::ReplaySession session(prog, replay::open_trace_source(golden_path(name)),
                                {}, cfg);
  GoldenReplay g;
  g.result = session.finish();
  g.schedule_end = session.engine().schedule_stream_pos();
  g.events_end = session.engine().events_stream_pos();
  g.order_seen = session.engine().order_events_seen();
  return g;
}

GoldenReplay replay_golden(const replay::SymmetryConfig& cfg) {
  bytecode::Program prog = golden_program();
  return replay_golden_file(prog, "clock_mixer.v4.djv", cfg);
}

// One deterministic record of a workload (scripted env + virtual timer).
replay::RecordResult record_workload(const bytecode::Program& prog,
                                     uint64_t seed, uint32_t lanes = 1,
                                     const vm::VmOptions& opts = {}) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(seed, 4, 60);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  replay::SymmetryConfig cfg;
  cfg.lanes = lanes;
  return replay::record_run(prog, opts, env, timer, &natives, cfg);
}

// ------------------------------------------------ the symmetry invariant

TEST(AnalysisSymmetry, GoldenReplayIdenticalWithAnalyzersOnAndOff) {
  GoldenReplay off = replay_golden(analyzers_cfg(false));
  GoldenReplay on = replay_golden(analyzers_cfg(true));

  ASSERT_TRUE(off.result.verified);
  ASSERT_TRUE(on.result.verified);

  // Byte-identity of the replayed behaviour: the summary hashes cover the
  // guest output, the final heap image and the audit log.
  EXPECT_EQ(on.result.summary, off.result.summary);
  EXPECT_EQ(on.result.output, off.result.output);

  // Identical trace consumption: both streams ended at the same byte.
  EXPECT_EQ(on.schedule_end, off.schedule_end);
  EXPECT_EQ(on.events_end, off.events_end);

  // Identical verification path: same checkpoints, no violations.
  EXPECT_EQ(on.result.stats.checkpoints, off.result.stats.checkpoints);
  EXPECT_EQ(on.result.stats.symmetry_violations, 0u);
  EXPECT_EQ(off.result.stats.symmetry_violations, 0u);

  // And the analyzers actually ran.
  EXPECT_TRUE(on.result.analysis.any());
  EXPECT_FALSE(off.result.analysis.any());
}

// The same invariant over the committed multi-lane v5 corpus: per-lane
// stream cursors (summed) and the cross-lane order count must be untouched
// by the full analyzer suite.
TEST(AnalysisSymmetry, GoldenLaneReplayIdenticalWithAnalyzersOnAndOff) {
  bytecode::Program prog = workloads::lock_pingpong(10);
  for (const char* name :
       {"lock_pingpong.k2.v5.djv", "lock_pingpong.k4.v5.djv"}) {
    GoldenReplay off = replay_golden_file(prog, name, analyzers_cfg(false));
    GoldenReplay on = replay_golden_file(prog, name, analyzers_cfg(true));
    ASSERT_TRUE(off.result.verified) << name;
    ASSERT_TRUE(on.result.verified) << name;
    EXPECT_EQ(on.result.summary, off.result.summary) << name;
    EXPECT_EQ(on.result.output, off.result.output) << name;
    EXPECT_EQ(on.schedule_end, off.schedule_end) << name;
    EXPECT_EQ(on.events_end, off.events_end) << name;
    EXPECT_EQ(on.order_seen, off.order_seen) << name;
    EXPECT_GT(on.order_seen, 0u) << name;  // lanes actually crossed
    EXPECT_EQ(on.result.stats.checkpoints, off.result.stats.checkpoints)
        << name;
    EXPECT_TRUE(on.result.analysis.any()) << name;
    EXPECT_FALSE(off.result.analysis.any()) << name;
  }
}

TEST(AnalysisSymmetry, AnalyzersRejectRecordMode) {
  replay::DejaVuEngine recorder;  // record mode
  ReplayProfiler prof(4);
  EXPECT_THROW(recorder.add_analyzer(&prof), VmError);
}

// A fuzz-style slice: several seeds, several workloads, every analyzer
// attached -- the replay must stay verified and behaviour-identical to
// the recording.
TEST(AnalysisSymmetry, FuzzSliceStaysVerifiedWithAnalyzersAttached) {
  struct Case {
    const char* name;
    bytecode::Program (*make)();
  };
  const Case cases[] = {
      {"clock_mixer", [] { return workloads::clock_mixer(3, 20); }},
      {"lock_pingpong", [] { return workloads::lock_pingpong(30); }},
      {"alloc_churn", [] { return workloads::alloc_churn(300, 8, 4); }},
      {"philosophers", [] { return workloads::philosophers(3, 6); }},
  };
  for (const Case& c : cases) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      bytecode::Program prog = c.make();
      replay::RecordResult rec = record_workload(prog, seed);
      replay::ReplayResult rep =
          replay::replay_run(prog, rec.trace, {}, analyzers_cfg(true));
      EXPECT_TRUE(rep.verified) << c.name << " seed " << seed;
      EXPECT_EQ(rep.summary, rec.summary) << c.name << " seed " << seed;
      EXPECT_TRUE(rep.analysis.any()) << c.name << " seed " << seed;
    }
  }
}

// ------------------------------------------------------ replay profiler

TEST(ReplayProfiler, GoldenReplayProfileIsWellFormed) {
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_profile = true;
  GoldenReplay g = replay_golden(cfg);
  ASSERT_TRUE(g.result.verified);

  JsonValue doc = parse_json(g.result.analysis.profile_json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, "dejavu-profile-v1");
  EXPECT_TRUE(doc.find("verified")->boolean);
  // The profiler observed every retired instruction.
  EXPECT_EQ(uint64_t(doc.find("total_instructions")->number),
            g.result.summary.instr_count);
  const JsonValue* methods = doc.find("methods");
  ASSERT_NE(methods, nullptr);
  ASSERT_FALSE(methods->items.empty());
  // Per-method counts partition the total.
  uint64_t sum = 0;
  for (const JsonValue& m : methods->items)
    sum += uint64_t(m.find("instructions")->number);
  EXPECT_EQ(sum, g.result.summary.instr_count);

  // Collapsed stacks: "tN;Frame;Frame count" lines, counts sum to total.
  const std::string& collapsed = g.result.analysis.profile_collapsed;
  ASSERT_FALSE(collapsed.empty());
  uint64_t collapsed_sum = 0;
  size_t start = 0;
  while (start < collapsed.size()) {
    size_t nl = collapsed.find('\n', start);
    if (nl == std::string::npos) nl = collapsed.size();
    std::string line = collapsed.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    EXPECT_EQ(line[0], 't') << line;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    collapsed_sum += std::stoull(line.substr(sp + 1));
  }
  EXPECT_EQ(collapsed_sum, g.result.summary.instr_count);
}

// ------------------------------------------------- lock-contention

TEST(LockContention, PingPongHoldsAndContention) {
  bytecode::Program prog = workloads::lock_pingpong(40);
  replay::RecordResult rec = record_workload(prog, 5);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_locks = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  ASSERT_TRUE(rep.verified);

  JsonValue doc = parse_json(rep.analysis.locks_json);
  EXPECT_EQ(doc.find("schema")->string, "dejavu-locks-v1");
  EXPECT_EQ(doc.find("duration_unit")->string, "instructions");
  const JsonValue* mons = doc.find("monitors");
  ASSERT_NE(mons, nullptr);
  ASSERT_FALSE(mons->items.empty());
  uint64_t acquires = 0, holds = 0;
  for (const JsonValue& m : mons->items) {
    acquires += uint64_t(m.find("acquires")->number);
    holds += uint64_t(m.find("hold_total")->number);
  }
  EXPECT_GT(acquires, 0u);
  EXPECT_GT(holds, 0u);
}

TEST(LockContention, SyntheticInversionIsDetected) {
  LockContentionAnalyzer lk;
  auto feed = [&](vm::MonitorOp op, uint32_t tid, uint32_t mon,
                  uint64_t instr) {
    vm::MonitorEvent e;
    e.op = op;
    e.tid = threads::Tid(tid);
    e.monitor = threads::MonitorId(mon);
    e.instr_index = instr;
    lk.on_monitor_event(e);
  };
  using Op = vm::MonitorOp;
  // Thread 1 nests 1 -> 2; thread 2 nests 2 -> 1: a lock-order inversion.
  feed(Op::kEnterAcquired, 1, 1, 10);
  feed(Op::kEnterAcquired, 1, 2, 12);
  feed(Op::kExit, 1, 2, 14);
  feed(Op::kExit, 1, 1, 16);
  feed(Op::kEnterAcquired, 2, 2, 20);
  feed(Op::kEnterAcquired, 2, 1, 22);
  feed(Op::kExit, 2, 1, 24);
  feed(Op::kExit, 2, 2, 26);

  auto inv = lk.inversions();
  ASSERT_EQ(inv.size(), 1u);
  EXPECT_EQ(inv[0].first, 1u);
  EXPECT_EQ(inv[0].second, 2u);
}

TEST(LockContention, OrderedAcquiresShowNoInversion) {
  // Philosophers acquire forks in a global order -- the classic
  // deadlock-free discipline; the analyzer must not cry wolf.
  bytecode::Program prog = workloads::philosophers(3, 8);
  replay::RecordResult rec = record_workload(prog, 2);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_locks = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  ASSERT_TRUE(rep.verified);
  JsonValue doc = parse_json(rep.analysis.locks_json);
  const JsonValue* inv = doc.find("inversions");
  ASSERT_NE(inv, nullptr);
  EXPECT_TRUE(inv->items.empty());
}

TEST(LockContention, SyntheticWaitForCycleIsWarned) {
  LockContentionAnalyzer lk;
  auto feed = [&](vm::MonitorOp op, uint32_t tid, uint32_t mon,
                  uint64_t instr, uint32_t holder = 0) {
    vm::MonitorEvent e;
    e.op = op;
    e.tid = threads::Tid(tid);
    e.monitor = threads::MonitorId(mon);
    e.holder = threads::Tid(holder);
    e.instr_index = instr;
    lk.on_monitor_event(e);
  };
  using Op = vm::MonitorOp;
  // T1 holds M1, T2 holds M2; then T1 parks on M2 and T2 parks on M1:
  // the runtime wait-for graph is the cycle t1 -(m2)-> t2 -(m1)-> t1.
  feed(Op::kEnterAcquired, 1, 1, 10);
  feed(Op::kEnterAcquired, 2, 2, 12);
  feed(Op::kEnterBlocked, 1, 2, 14, /*holder=*/2);
  EXPECT_TRUE(lk.deadlock_warnings().empty());  // chain, not yet a cycle
  feed(Op::kEnterBlocked, 2, 1, 16, /*holder=*/1);

  auto warns = lk.deadlock_warnings();
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].tids, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(warns[0].monitors, (std::vector<uint32_t>{2, 1}));
  EXPECT_EQ(warns[0].first_instr, 16u);
  EXPECT_EQ(warns[0].count, 1u);

  // The cycle resolves (a notify lets T2 in later, say) and the same shape
  // recurs: one warning, count 2, first_instr unchanged.
  feed(Op::kEnterAcquired, 2, 1, 20);
  feed(Op::kEnterBlocked, 2, 1, 30, /*holder=*/1);
  warns = lk.deadlock_warnings();
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].count, 2u);
  EXPECT_EQ(warns[0].first_instr, 16u);

  JsonValue doc = parse_json(lk.artifact());
  const JsonValue* dw = doc.find("deadlock_warnings");
  ASSERT_NE(dw, nullptr);
  ASSERT_EQ(dw->items.size(), 1u);
  EXPECT_EQ(dw->items[0].find("count")->number, 2.0);
}

TEST(LockContention, PlainContentionRaisesNoDeadlockWarning) {
  // Ordinary contention -- a block whose holder is running, which later
  // releases -- must never look like a deadlock.
  bytecode::Program prog = workloads::lock_pingpong(40);
  replay::RecordResult rec = record_workload(prog, 5);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_locks = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  ASSERT_TRUE(rep.verified);
  JsonValue doc = parse_json(rep.analysis.locks_json);
  const JsonValue* dw = doc.find("deadlock_warnings");
  ASSERT_NE(dw, nullptr);
  EXPECT_TRUE(dw->items.empty());
}

// ------------------------------------------- critical path / blocked time

TEST(CriticalPath, GoldenReplayCritPathIsWellFormed) {
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_critpath = true;
  GoldenReplay g = replay_golden(cfg);
  ASSERT_TRUE(g.result.verified);

  JsonValue doc = parse_json(g.result.analysis.critpath_json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, "dejavu-critpath-v1");
  EXPECT_TRUE(doc.find("verified")->boolean);
  uint64_t total = uint64_t(doc.find("run_instr_count")->number);
  EXPECT_EQ(total, g.result.summary.instr_count);

  // The per-thread running walls partition the instruction clock exactly:
  // a uniprocessor schedule means exactly one thread runs at any instant.
  const JsonValue* threads = doc.find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_FALSE(threads->items.empty());
  uint64_t running_sum = 0;
  for (const JsonValue& t : threads->items)
    running_sum += uint64_t(t.find("running")->number);
  EXPECT_EQ(running_sum, total);

  // The walked path: chronological, non-overlapping segments whose lengths
  // sum to the reported path length, which can never exceed the run.
  const JsonValue* path = doc.find("critical_path");
  ASSERT_NE(path, nullptr);
  ASSERT_FALSE(path->items.empty());
  uint64_t path_instrs = 0;
  uint64_t prev_end = 0;
  for (const JsonValue& seg : path->items) {
    uint64_t start = uint64_t(seg.find("start")->number);
    uint64_t end = uint64_t(seg.find("end")->number);
    EXPECT_LE(start, end);
    EXPECT_GE(start, prev_end) << "path segments overlap";
    prev_end = end;
    path_instrs += uint64_t(seg.find("instrs")->number);
    ASSERT_NE(seg.find("edge"), nullptr);
  }
  uint64_t reported = uint64_t(doc.find("critical_path_instrs")->number);
  EXPECT_EQ(path_instrs, reported);
  EXPECT_GT(reported, 0u);
  EXPECT_LE(reported, total);

  // Per-method attribution partitions the path, and every hop has a kind.
  const JsonValue* by_method = doc.find("by_method");
  ASSERT_NE(by_method, nullptr);
  uint64_t method_sum = 0;
  for (const JsonValue& m : by_method->items)
    method_sum += uint64_t(m.find("instrs")->number);
  EXPECT_EQ(method_sum, reported);
  const JsonValue* kinds = doc.find("edge_kinds");
  ASSERT_NE(kinds, nullptr);
  uint64_t kind_sum = 0;
  for (const JsonValue& k : kinds->items)
    kind_sum += uint64_t(k.find("count")->number);
  EXPECT_EQ(kind_sum, path->items.size() - 1);
}

TEST(CriticalPath, PingPongBlocksAndHandsOff) {
  // Monitor ping-pong is the canonical blocked-time workload: each thread
  // spends most of its wall parked, and the path must cross threads via
  // monitor hand-off / notify edges, not just scheduler switches.
  bytecode::Program prog = workloads::lock_pingpong(40);
  replay::RecordResult rec = record_workload(prog, 5);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_critpath = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  ASSERT_TRUE(rep.verified);

  JsonValue doc = parse_json(rep.analysis.critpath_json);
  uint64_t blocked = 0, waiting = 0;
  for (const JsonValue& t : doc.find("threads")->items) {
    blocked += uint64_t(t.find("blocked")->number);
    waiting += uint64_t(t.find("waiting")->number);
  }
  EXPECT_GT(blocked + waiting, 0u);

  std::vector<std::string> tids_on_path;
  for (const JsonValue& seg : doc.find("critical_path")->items) {
    std::string tid = std::to_string(uint64_t(seg.find("tid")->number));
    if (tids_on_path.empty() || tids_on_path.back() != tid)
      tids_on_path.push_back(tid);
  }
  EXPECT_GT(tids_on_path.size(), 1u) << "path never crossed threads";
  bool monitor_edge = false;
  for (const JsonValue& k : doc.find("edge_kinds")->items) {
    const std::string& kind = k.find("kind")->string;
    if (kind == "handoff" || kind == "notify") monitor_edge = true;
  }
  EXPECT_TRUE(monitor_edge);
}

TEST(CriticalPath, SyntheticSpawnJoinPath) {
  // main spawns t1, t1 runs 100 instrs, main joins and finishes: the path
  // is main -> t1 (spawn) -> main (join), covering all three segments.
  CriticalPathAnalyzer cp;
  static const std::string kOwner = "Main";
  static const std::string kMain = "run";
  static const std::string kWorker = "work";
  auto instr = [&](uint32_t tid, const std::string* method, uint64_t at) {
    vm::InstrEvent e;
    e.tid = threads::Tid(tid);
    e.owner = &kOwner;
    e.method = method;
    e.instr_index = at;
    cp.on_instruction(e);
  };
  auto sw = [&](uint32_t from, uint32_t to, threads::SwitchReason r,
                uint64_t at) {
    cp.on_switch(threads::Tid(from), threads::Tid(to), r, at);
  };
  auto thread_ev = [&](vm::ThreadOp op, uint32_t tid, uint32_t other,
                       uint64_t at) {
    vm::ThreadEvent e;
    e.op = op;
    e.tid = threads::Tid(tid);
    e.other = threads::Tid(other);
    e.instr_index = at;
    cp.on_thread_event(e);
  };

  for (uint64_t i = 0; i < 10; ++i) instr(1, &kMain, i);
  thread_ev(vm::ThreadOp::kSpawn, 1, 2, 10);
  sw(1, 2, threads::SwitchReason::kJoin, 10);  // main parks in join
  for (uint64_t i = 10; i < 110; ++i) instr(2, &kWorker, i);
  thread_ev(vm::ThreadOp::kExit, 2, 0, 110);
  sw(2, 1, threads::SwitchReason::kTerminate, 110);
  thread_ev(vm::ThreadOp::kJoinEnd, 1, 2, 110);
  for (uint64_t i = 110; i < 120; ++i) instr(1, &kMain, i);

  RunInfo info;
  info.instr_count = 120;
  info.verified = true;
  cp.on_run_end(info);

  JsonValue doc = parse_json(cp.artifact());
  EXPECT_EQ(uint64_t(doc.find("critical_path_instrs")->number), 120u);
  // Wall breakdown: main ran 20 and waited 100 in the join; t1 ran 100.
  const JsonValue* walls = doc.find("threads");
  ASSERT_EQ(walls->items.size(), 2u);
  EXPECT_EQ(uint64_t(walls->items[0].find("running")->number), 20u);
  EXPECT_EQ(uint64_t(walls->items[0].find("waiting")->number), 100u);
  EXPECT_EQ(uint64_t(walls->items[1].find("running")->number), 100u);
  const JsonValue* path = doc.find("critical_path");
  ASSERT_EQ(path->items.size(), 3u);
  EXPECT_EQ(uint64_t(path->items[0].find("tid")->number), 1u);
  EXPECT_EQ(uint64_t(path->items[1].find("tid")->number), 2u);
  EXPECT_EQ(uint64_t(path->items[2].find("tid")->number), 1u);
  // t1 became runnable because main spawned it; main resumed because t1
  // exited (the join edge).
  EXPECT_EQ(path->items[1].find("edge")->string, "spawn");
  EXPECT_EQ(path->items[2].find("edge")->string, "join");
}

TEST(CriticalPath, OutOfOrderWakeEdgesFollowPushOrder) {
  // A cross-lane edge is dated at the current segment's start, so it can
  // land in a thread's wake list after a spawn edge with a later instant:
  // t3 runs [0,5), t1 runs [5,20) and spawns t2 at 10, then an xlane edge
  // t3 -> t2 arrives dated 5. The walk takes the latest edge in push order
  // (the xlane one), not the latest instant, so t2's segment hops straight
  // to t3 and t1 is off the path.
  CriticalPathAnalyzer cp;
  static const std::string kOwner = "Main";
  static const std::string kRun = "run";
  auto instr = [&](uint32_t tid, uint64_t at) {
    vm::InstrEvent e;
    e.tid = threads::Tid(tid);
    e.owner = &kOwner;
    e.method = &kRun;
    e.instr_index = at;
    cp.on_instruction(e);
  };
  for (uint64_t i = 0; i < 5; ++i) instr(3, i);
  cp.on_switch(3, 1, threads::SwitchReason::kPreempt, 5);
  for (uint64_t i = 5; i < 20; ++i) instr(1, i);
  vm::ThreadEvent spawn;
  spawn.op = vm::ThreadOp::kSpawn;
  spawn.tid = 1;
  spawn.other = 2;
  spawn.instr_index = 10;
  cp.on_thread_event(spawn);
  threads::CrossLaneEvent x;
  x.kind = threads::CrossLaneKind::kNotify;
  x.from = 3;
  x.to = 2;
  x.subject = 42;
  cp.on_cross_lane(x);
  cp.on_switch(1, 2, threads::SwitchReason::kYield, 20);
  for (uint64_t i = 20; i < 30; ++i) instr(2, i);

  RunInfo info;
  info.instr_count = 30;
  info.verified = true;
  cp.on_run_end(info);

  ASSERT_EQ(cp.segments().size(), 3u);
  EXPECT_EQ(cp.critical_path(), (std::vector<size_t>{0, 2}));
  JsonValue doc = parse_json(cp.artifact());
  const JsonValue* path = doc.find("critical_path");
  ASSERT_EQ(path->items.size(), 2u);
  EXPECT_EQ(uint64_t(path->items[0].find("tid")->number), 3u);
  EXPECT_EQ(path->items[0].find("edge")->string, "start");
  EXPECT_EQ(uint64_t(path->items[1].find("tid")->number), 2u);
  EXPECT_EQ(path->items[1].find("edge")->string, "xlane:notify");
  EXPECT_EQ(path->items[1].find("method")->string, "Main.run");
  EXPECT_EQ(uint64_t(doc.find("critical_path_instrs")->number), 15u);
}

// The critpath artifact of one record -> replay with only critpath on.
std::string critpath_of(const bytecode::Program& prog, uint64_t seed,
                        uint32_t lanes) {
  replay::RecordResult rec = record_workload(prog, seed, lanes);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_critpath = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  return rep.analysis.critpath_json;
}

TEST(CriticalPath, ArtifactDigestsArePinned) {
  // FNV-1a digests of the critpath artifact bytes of a fixed set of runs,
  // pinned so that any change to segment building, method attribution or
  // the dependency walk shows up as a digest change. counter_race on 4
  // lanes brings xlane edges; the others bring handoff, notify, spawn and
  // join edges.
  struct Case {
    const char* name;
    bytecode::Program prog;
    uint64_t seed;
    uint32_t lanes;
    uint64_t digest;
  };
  const Case cases[] = {
      {"lock_pingpong_seed5", workloads::lock_pingpong(2000), 5, 1,
       0x43e484eb731d4bcfull},
      {"lock_pingpong_seed9", workloads::lock_pingpong(2000), 9, 1,
       0x281fb098666504c2ull},
      {"counter_race_4lanes", workloads::counter_race(4, 200), 7, 4,
       0x8ef114e2c349323dull},
      {"producer_consumer", workloads::producer_consumer(200, 4), 7, 1,
       0xc6d6f7f0ce00fd87ull},
      {"philosophers", workloads::philosophers(5, 20), 7, 1,
       0xda2837d410e465bcull},
  };
  for (const Case& c : cases) {
    std::string json = critpath_of(c.prog, c.seed, c.lanes);
    EXPECT_EQ(hash_string(json), c.digest)
        << c.name << " (" << json.size() << " bytes)";
    if (c.lanes > 1) {
      EXPECT_NE(json.find("\"xlane:"), std::string::npos) << c.name;
    }
  }
}

TEST(Analyzers, ArtifactDigestsArePinned) {
  // FNV-1a digests of every other analyzer artifact, pinned like the
  // critpath ones above so that a change to how any analyzer counts,
  // orders or renders shows up as a digest change. Same five runs, plus
  // alloc_churn on a 256 KiB semispace: its collections move objects, which
  // exercises the heap and cachesim object identity across GC.
  struct Case {
    const char* name;
    bytecode::Program prog;
    uint64_t seed;
    uint32_t lanes;
    size_t semispace;  // 0 = the default heap
    // profile_json, profile_collapsed, locks_json, heap_json, cachesim_json
    uint64_t digests[5];
  };
  const Case cases[] = {
      {"lock_pingpong_seed5", workloads::lock_pingpong(2000), 5, 1, 0,
       {0xa1c0741be82a758aull, 0xebe6d8501c827fb1ull, 0x5b04357b0748b4c6ull,
        0x5d1a3271f9fdcf65ull, 0xb568cd950266b74bull}},
      {"lock_pingpong_seed9", workloads::lock_pingpong(2000), 9, 1, 0,
       {0xfef74d413f4f5962ull, 0x70f471f17be3e74full, 0x1092e05c84aa26a8ull,
        0xc5891ef9d542fa37ull, 0x38edcdf7d59848f3ull}},
      {"counter_race_4lanes", workloads::counter_race(4, 200), 7, 4, 0,
       {0x775f072b4f198bf0ull, 0x58d9cc68eb3087c4ull, 0x9ab19045d067ce84ull,
        0x7f68f97b1f8e9276ull, 0xa14c825100ebbab7ull}},
      {"producer_consumer", workloads::producer_consumer(200, 4), 7, 1, 0,
       {0x350e6b2b28906597ull, 0xe8d094b84a894609ull, 0x47cc67913e24726cull,
        0xc1f9aea6ee79738aull, 0xe938f2864b632175ull}},
      {"philosophers", workloads::philosophers(5, 20), 7, 1, 0,
       {0x13cdc29da43e4936ull, 0xd10fb2895862a2aaull, 0xbe55385db0ef93e6ull,
        0xe78d198bc1724899ull, 0x12169fb4c40084e7ull}},
      {"alloc_churn_small_heap", workloads::alloc_churn(2000, 8, 4), 7, 1,
       size_t(1) << 18,
       {0x91da9167a5924480ull, 0x2cbf5c04d58e4121ull, 0x135f0fd1a358ec7full,
        0xbfc72cf3f9607aefull, 0x06a49de7d01c3b74ull}},
  };
  const char* const kArtifacts[5] = {"profile_json", "profile_collapsed",
                                     "locks_json", "heap_json",
                                     "cachesim_json"};
  for (const Case& c : cases) {
    vm::VmOptions opts;
    if (c.semispace != 0) opts.heap.size_bytes = c.semispace;
    replay::RecordResult rec = record_workload(c.prog, c.seed, c.lanes, opts);
    replay::SymmetryConfig cfg = analyzers_cfg(true);
    replay::ReplayResult rep = replay::replay_run(c.prog, rec.trace, opts, cfg);
    ASSERT_TRUE(rep.verified) << c.name << ": " << rep.stats.first_violation;
    const AnalysisResults& a = rep.analysis;
    const std::string* docs[5] = {&a.profile_json, &a.profile_collapsed,
                                  &a.locks_json, &a.heap_json,
                                  &a.cachesim_json};
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(hash_string(*docs[i]), c.digests[i])
          << c.name << " " << kArtifacts[i] << " (" << docs[i]->size()
          << " bytes)";
    }
    if (c.semispace != 0) {
      EXPECT_GT(parse_json(a.heap_json).find("gc_moves")->number, 0.0)
          << c.name;
    }
  }
}

// --------------------------------------------------- cache simulator

TEST(CacheSim, GoldenReplayCacheSimIsWellFormed) {
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_cachesim = true;
  GoldenReplay g = replay_golden(cfg);
  ASSERT_TRUE(g.result.verified);

  JsonValue doc = parse_json(g.result.analysis.cachesim_json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, "dejavu-cachesim-v1");
  EXPECT_TRUE(doc.find("verified")->boolean);
  // Geometry echoes the (default) config.
  EXPECT_EQ(doc.find("line_bytes")->number, 64.0);
  EXPECT_EQ(doc.find("l1_bytes")->number, double(32 * 1024));
  EXPECT_EQ(doc.find("l1_ways")->number, 4.0);
  EXPECT_EQ(doc.find("l2_bytes")->number, double(256 * 1024));
  EXPECT_EQ(doc.find("l2_ways")->number, 8.0);

  uint64_t accesses = uint64_t(doc.find("accesses")->number);
  EXPECT_GT(accesses, 0u);
  EXPECT_EQ(accesses, uint64_t(doc.find("reads")->number) +
                          uint64_t(doc.find("writes")->number));
  // Miss counts form the inclusive-hierarchy chain.
  uint64_t l1m = uint64_t(doc.find("l1_misses")->number);
  uint64_t l2m = uint64_t(doc.find("l2_misses")->number);
  EXPECT_LE(l2m, l1m);
  EXPECT_LE(l1m, accesses);
  EXPECT_GT(l1m, 0u);  // cold misses exist in any real run

  const JsonValue* sites = doc.find("by_site");
  ASSERT_NE(sites, nullptr);
  ASSERT_FALSE(sites->items.empty());
  const JsonValue* types = doc.find("by_type");
  ASSERT_NE(types, nullptr);
  ASSERT_FALSE(types->items.empty());
}

TEST(CacheSim, TinyCacheMissesMoreThanBigCache) {
  // Same replayed trace, two geometries: a 2-line L1 must miss at least as
  // often as the default 32KB one -- the model actually models capacity.
  bytecode::Program prog = workloads::alloc_churn(300, 8, 4);
  replay::RecordResult rec = record_workload(prog, 3);

  auto misses = [&](uint32_t l1_bytes) {
    replay::SymmetryConfig cfg;
    cfg.obs.analyze_cachesim = true;
    cfg.obs.cache_l1_bytes = l1_bytes;
    cfg.obs.cache_l1_ways = 1;
    replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
    EXPECT_TRUE(rep.verified);
    JsonValue doc = parse_json(rep.analysis.cachesim_json);
    EXPECT_EQ(doc.find("l1_bytes")->number, double(l1_bytes));
    return uint64_t(doc.find("l1_misses")->number);
  };
  uint64_t tiny = misses(128);
  uint64_t big = misses(64 * 1024);
  EXPECT_GT(tiny, big);
}

TEST(CacheSim, FalseSharingCorpusFlagsExactlyTheSeededLine) {
  // The seeded corpus: two threads hammer distinct slots of one 64-byte
  // line (the hot array) and, as a control, distinct lines of a padded
  // twin. Exactly one array line may be flagged, and it is the hot one.
  bytecode::Program prog = workloads::false_sharing(40);
  replay::RecordResult rec = record_workload(prog, 7);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_cachesim = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  ASSERT_TRUE(rep.verified);
  // Distinct slots, so the workload is deterministic: 4 * 40.
  EXPECT_NE(rep.output.find("160"), std::string::npos) << rep.output;

  JsonValue doc = parse_json(rep.analysis.cachesim_json);
  const JsonValue* shared = doc.find("shared_lines");
  ASSERT_NE(shared, nullptr);
  uint64_t array_candidates = 0;
  for (const JsonValue& line : shared->items) {
    if (line.find("class")->string != "i64[]") continue;
    uint32_t threads = uint32_t(line.find("threads")->number);
    uint32_t slots = uint32_t(line.find("distinct_slots")->number);
    EXPECT_GT(threads, 1u);  // only shared lines are listed at all
    if (slots > 1) {
      ++array_candidates;
      // The hot line: both workers' slots (0 and 1) land on it.
      EXPECT_EQ(slots, 2u);
    }
  }
  EXPECT_EQ(array_candidates, 1u)
      << "expected exactly the seeded hot line to be flagged";
  EXPECT_GE(uint64_t(doc.find("false_sharing_lines")->number), 1u);

  // The padded twin is the control: with each worker on its own line, no
  // second multi-slot array line may appear -- checked above by exactness.
}

TEST(CacheSim, MergedFleetViewReKeysSharedLinesByClass) {
  // Per-run line indices are trace-local; the fleet view folds them by
  // class. Two runs of the seeded corpus -> one i64[] row with both runs'
  // flagged lines and summed traffic.
  bytecode::Program prog = workloads::false_sharing(20);
  CacheSimMerger m;
  for (uint64_t seed : {2u, 9u}) {
    replay::RecordResult rec = record_workload(prog, seed);
    replay::SymmetryConfig cfg;
    cfg.obs.analyze_cachesim = true;
    replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
    ASSERT_TRUE(rep.verified);
    m.add_json(rep.analysis.cachesim_json);
  }
  ASSERT_EQ(m.runs(), 2u);
  JsonValue doc = parse_json(m.artifact());
  EXPECT_EQ(doc.find("schema")->string, "dejavu-cachesim-v1");
  EXPECT_EQ(doc.find("merged_runs")->number, 2.0);
  EXPECT_EQ(doc.find("shared_lines"), nullptr);  // trace-local, dropped
  const JsonValue* by_class = doc.find("shared_by_class");
  ASSERT_NE(by_class, nullptr);
  bool saw_array = false;
  for (const JsonValue& c : by_class->items) {
    if (c.find("class")->string != "i64[]") continue;
    saw_array = true;
    EXPECT_GE(uint64_t(c.find("false_sharing")->number), 2u);  // 1 per run
  }
  EXPECT_TRUE(saw_array);
}

// ------------------------------------------- strict-mode carry-over

TEST(StrictCarryOver, ViolationWithAnalyzersFinishesAndFlagsArtifacts) {
  // A recording whose event stream is truncated mid-run: replaying it
  // violates symmetry well before the end.
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::NullTimer timer;
  replay::RecordResult rec =
      replay::record_run(workloads::env_reader(5), {}, env, timer);
  replay::testutil::TraceStreams s = replay::testutil::streams_of(rec.trace);
  ASSERT_GT(s.events[0].size(), 4u);
  s.events[0].resize(s.events[0].size() - 3);
  replay::TraceFile bad = replay::testutil::build_trace(s);

  // Strict without analyzers: fail-fast, as ever.
  replay::SymmetryConfig strict;
  strict.strict = true;
  EXPECT_THROW(replay::replay_run(workloads::env_reader(5), bad, {}, strict),
               ReplayDivergence);

  // Strict with analyzers: the violation is recorded, the run carries to
  // completion non-strict, and every artifact is complete and flagged.
  replay::SymmetryConfig cfg = analyzers_cfg(true);
  cfg.strict = true;
  replay::ReplayResult rep;
  ASSERT_NO_THROW(
      rep = replay::replay_run(workloads::env_reader(5), bad, {}, cfg));
  EXPECT_FALSE(rep.verified);
  EXPECT_TRUE(rep.post_violation);
  EXPECT_GT(rep.stats.symmetry_violations, 0u);
  ASSERT_TRUE(rep.analysis.any());
  for (const std::string* artifact :
       {&rep.analysis.profile_json, &rep.analysis.locks_json,
        &rep.analysis.heap_json, &rep.analysis.critpath_json,
        &rep.analysis.cachesim_json}) {
    JsonValue doc = parse_json(*artifact);
    const JsonValue* pv = doc.find("post_violation");
    ASSERT_NE(pv, nullptr) << *artifact;
    EXPECT_TRUE(pv->boolean);
  }

  // A clean strict run with analyzers is not flagged.
  replay::ReplayResult clean =
      replay::replay_run(workloads::env_reader(5), rec.trace, {}, cfg);
  EXPECT_TRUE(clean.verified);
  EXPECT_FALSE(clean.post_violation);
}

// ------------------------------------------------------ heap churn

TEST(HeapChurn, AllocChurnSeesGuestAllocations) {
  bytecode::Program prog = workloads::alloc_churn(400, 8, 4);
  replay::RecordResult rec = record_workload(prog, 3);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_heap = true;
  replay::ReplayResult rep = replay::replay_run(prog, rec.trace, {}, cfg);
  ASSERT_TRUE(rep.verified);

  JsonValue doc = parse_json(rep.analysis.heap_json);
  EXPECT_EQ(doc.find("schema")->string, "dejavu-heap-v1");
  EXPECT_GT(doc.find("allocs")->number, 0.0);
  EXPECT_GT(doc.find("reads")->number + doc.find("writes")->number, 0.0);
  const JsonValue* types = doc.find("by_type");
  ASSERT_NE(types, nullptr);
  ASSERT_FALSE(types->items.empty());
  // Guest class names resolved (no "class#N" fallbacks in a live run).
  for (const JsonValue& t : types->items) {
    EXPECT_EQ(t.find("class")->string.rfind("class#", 0), std::string::npos)
        << t.find("class")->string;
  }
  const JsonValue* sites = doc.find("top_sites");
  ASSERT_NE(sites, nullptr);
  // At least one allocation attributed to a guest instruction site.
  bool guest_site = false;
  for (const JsonValue& s : sites->items)
    if (s.find("site")->string != "<vm>") guest_site = true;
  EXPECT_TRUE(guest_site);
}

TEST(HeapChurn, SyntheticMoveKeepsIdentity) {
  HeapChurnAnalyzer h;
  vm::AllocEvent a;
  a.addr = heap::Addr(100);
  a.class_id = 5;
  a.slots = 2;
  h.on_heap_alloc(a);
  h.on_heap_write(heap::Addr(100), 0, 1, false);
  h.on_heap_write(heap::Addr(100), 1, 2, false);
  // The copying collector relocates the object; heat must follow it.
  h.on_heap_move(heap::Addr(100), heap::Addr(200));
  h.on_heap_write(heap::Addr(200), 0, 3, false);
  h.on_heap_read(heap::Addr(200), 0, 3, false);

  EXPECT_EQ(h.tracked_objects(), 1u);
  EXPECT_EQ(h.gc_moves(), 1u);
  JsonValue doc = parse_json(h.artifact());
  const JsonValue* hot = doc.find("hot_objects");
  ASSERT_NE(hot, nullptr);
  ASSERT_EQ(hot->items.size(), 1u);
  EXPECT_EQ(hot->items[0].find("writes")->number, 3.0);
  EXPECT_EQ(hot->items[0].find("reads")->number, 1.0);

  // A fresh allocation may recycle the vacated address; it must get its
  // own identity, not inherit the mover's heat.
  vm::AllocEvent b;
  b.addr = heap::Addr(100);
  b.class_id = 5;
  b.slots = 2;
  h.on_heap_alloc(b);
  h.on_heap_write(heap::Addr(100), 0, 9, false);
  EXPECT_EQ(h.tracked_objects(), 2u);
  doc = parse_json(h.artifact());
  EXPECT_EQ(doc.find("hot_objects")->items.size(), 2u);
}

TEST(SiteLabels, DistinctMethodsSharingALabelAreOneRow) {
  // Two MethodDefs can carry equal owner and method names (two loads of
  // one class, say): distinct name pointers, one "Owner.method:pc" label.
  // Cachesim and heap churn count sites by pointer but render one row per
  // label, summed.
  static const std::string kOwnerA = "Main", kRunA = "run";
  static const std::string kOwnerB = "Main", kRunB = "run";
  CacheSimAnalyzer cs(64, {32 * 1024, 4}, {256 * 1024, 8});
  HeapChurnAnalyzer hc;
  auto instr = [&](const std::string* owner, const std::string* method,
                   uint32_t pc) {
    vm::InstrEvent e;
    e.tid = 1;
    e.owner = owner;
    e.method = method;
    e.pc = pc;
    cs.on_instruction(e);
    hc.on_instruction(e);
  };
  auto alloc = [&](heap::Addr addr) {
    vm::AllocEvent a;
    a.tid = 1;
    a.addr = addr;
    a.class_id = heap::kClassIdI64Array;
    a.slots = 4;
    cs.on_heap_alloc(a);
    hc.on_heap_alloc(a);
  };
  auto read = [&](heap::Addr addr, uint32_t slot) {
    cs.on_heap_read(addr, slot, 0, false);
    hc.on_heap_read(addr, slot, 0, false);
  };
  instr(&kOwnerA, &kRunA, 3);
  alloc(heap::Addr(100));
  read(heap::Addr(100), 0);
  read(heap::Addr(100), 1);
  instr(&kOwnerB, &kRunB, 3);
  alloc(heap::Addr(200));
  for (int i = 0; i < 3; ++i) read(heap::Addr(200), 0);
  instr(&kOwnerA, &kRunA, 4);  // same method, another pc: its own row
  read(heap::Addr(100), 2);
  RunInfo info;
  cs.on_run_end(info);
  hc.on_run_end(info);

  JsonValue cdoc = parse_json(cs.artifact());
  const JsonValue* sites = cdoc.find("by_site");
  ASSERT_EQ(sites->items.size(), 2u);
  EXPECT_EQ(sites->items[0].find("site")->string, "Main.run:3");
  EXPECT_EQ(sites->items[0].find("accesses")->number, 5.0);
  EXPECT_EQ(sites->items[1].find("site")->string, "Main.run:4");
  EXPECT_EQ(sites->items[1].find("accesses")->number, 1.0);

  JsonValue hdoc = parse_json(hc.artifact());
  const JsonValue* top = hdoc.find("top_sites");
  ASSERT_EQ(top->items.size(), 1u);
  EXPECT_EQ(top->items[0].find("site")->string, "Main.run:3");
  EXPECT_EQ(top->items[0].find("count")->number, 2.0);
  const JsonValue* hot = hdoc.find("hot_objects");
  ASSERT_EQ(hot->items.size(), 2u);
  for (const JsonValue& o : hot->items)
    EXPECT_EQ(o.find("site")->string, "Main.run:3");
}

// The copying-GC regression: replay a GC-heavy workload under a heap small
// enough (plus gc_stress) to force many collections. The replay must stay
// verified -- the move observer must not perturb it -- and per-object heat
// must be exactly what a collection-free run of the same program observes,
// because stable ids follow the forwarding pointers.
TEST(HeapChurn, CopyingGcMovesPreserveExactObjectHeat) {
  bytecode::Program prog = workloads::alloc_churn(200, 8, 4);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_heap = true;
  cfg.obs.analysis_top_n = 50;

  auto run = [&](vm::VmOptions opts, uint64_t seed) {
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    threads::VirtualTimer timer(seed, 4, 60);
    vm::NativeRegistry natives = vmtest::make_test_natives();
    replay::RecordResult rec =
        replay::record_run(prog, opts, env, timer, &natives);
    replay::ReplayResult rep = replay::replay_run(prog, rec.trace, opts, cfg);
    EXPECT_EQ(rep.output, rec.output);
    return rep;
  };

  vm::VmOptions calm;  // default 32MB semispace: no collection pressure
  vm::VmOptions stressed;
  stressed.heap.size_bytes = 1u << 18;  // 128KB semispace: constant pressure
  stressed.gc_stress = true;  // collect before every allocation
  replay::ReplayResult a = run(calm, 11);
  replay::ReplayResult b = run(stressed, 11);
  ASSERT_TRUE(a.verified);
  ASSERT_TRUE(b.verified);

  JsonValue da = parse_json(a.analysis.heap_json);
  JsonValue db = parse_json(b.analysis.heap_json);
  EXPECT_EQ(da.find("gc_moves")->number, 0.0);
  EXPECT_GT(db.find("gc_moves")->number, 0.0);

  // Same guest execution, so identical heat -- object by object. Addresses
  // differ (the stressed heap compacts constantly), which is exactly why
  // the comparison is on stable ids, not addresses.
  EXPECT_EQ(da.find("allocs")->number, db.find("allocs")->number);
  EXPECT_EQ(da.find("reads")->number, db.find("reads")->number);
  EXPECT_EQ(da.find("writes")->number, db.find("writes")->number);
  const JsonValue* ha = da.find("hot_objects");
  const JsonValue* hb = db.find("hot_objects");
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  ASSERT_EQ(ha->items.size(), hb->items.size());
  ASSERT_FALSE(ha->items.empty());
  for (size_t i = 0; i < ha->items.size(); ++i) {
    const JsonValue& oa = ha->items[i];
    const JsonValue& ob = hb->items[i];
    EXPECT_EQ(oa.find("id")->number, ob.find("id")->number) << "rank " << i;
    EXPECT_EQ(oa.find("class")->string, ob.find("class")->string);
    EXPECT_EQ(oa.find("reads")->number, ob.find("reads")->number);
    EXPECT_EQ(oa.find("writes")->number, ob.find("writes")->number);
  }
}

TEST(HeapMerge, HotObjectsAggregateByClassAndSite) {
  // Object ids are per-trace, so the fleet view re-keys hot objects by
  // (class, allocation site): two runs allocating at the same site must
  // fold into one entry with summed heat.
  static const std::string kOwner = "Worker";
  static const std::string kMethod = "fill";
  auto make_run = [&](uint64_t extra_writes) {
    obs::HeapChurnAnalyzer h;
    vm::InstrEvent instr;
    instr.tid = 0;
    instr.owner = &kOwner;
    instr.method = &kMethod;
    instr.pc = 7;
    h.on_instruction(instr);
    vm::AllocEvent a;
    a.tid = 0;
    a.addr = heap::Addr(64);
    a.class_id = heap::kClassIdI64Array;
    a.slots = 4;
    h.on_heap_alloc(a);
    for (uint64_t i = 0; i < 2 + extra_writes; ++i)
      h.on_heap_write(heap::Addr(64), 0, int64_t(i), false);
    return h.artifact();
  };

  obs::HeapMerger m;
  m.add_json(make_run(0));
  m.add_json(make_run(3));
  JsonValue doc = parse_json(m.artifact());
  const JsonValue* hot = doc.find("hot_objects");
  ASSERT_NE(hot, nullptr);
  ASSERT_EQ(hot->items.size(), 1u);
  const JsonValue& e = hot->items[0];
  EXPECT_EQ(e.find("class")->string, "i64[]");
  EXPECT_EQ(e.find("site")->string, "Worker.fill:7");
  EXPECT_EQ(e.find("objects")->number, 2.0);
  EXPECT_EQ(e.find("writes")->number, 7.0);
  EXPECT_EQ(e.find("reads")->number, 0.0);
}

// Flipping the analysis knobs off yields no artifacts, and on yields the
// five documents analyzers_cfg selects plus the profiler's collapsed
// stacks -- the config plumbing end to end.
TEST(AnalysisConfig, KnobsSelectArtifacts) {
  bytecode::Program prog = golden_program();
  replay::RecordResult rec = record_workload(prog, 9);

  replay::ReplayResult off =
      replay::replay_run(prog, rec.trace, {}, analyzers_cfg(false));
  EXPECT_FALSE(off.analysis.any());
  EXPECT_TRUE(off.analysis.profile_collapsed.empty());

  replay::ReplayResult on =
      replay::replay_run(prog, rec.trace, {}, analyzers_cfg(true));
  EXPECT_FALSE(on.analysis.profile_json.empty());
  EXPECT_FALSE(on.analysis.profile_collapsed.empty());
  EXPECT_FALSE(on.analysis.locks_json.empty());
  EXPECT_FALSE(on.analysis.heap_json.empty());
  EXPECT_FALSE(on.analysis.critpath_json.empty());
  EXPECT_FALSE(on.analysis.cachesim_json.empty());
}

}  // namespace
}  // namespace dejavu::obs
