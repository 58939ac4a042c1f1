// Flight recorder: the always-on black box. A flight recording must not
// perturb the guest (same behaviour as a full-trace recording of the same
// run), must write zero trace bytes to disk until sealed, and its sealed
// tail must replay -- resumed from the embedded checkpoint -- to exactly
// the recorded end state: same summary hashes, same output suffix, and for
// crash tails the same VmError at the same instruction count. Every replay
// entry point must agree on a tail, and a hostile descriptor must be a
// located error, never an unbounded allocation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/io.hpp"
#include "src/debugger/time_travel.hpp"
#include "src/flight/session.hpp"
#include "src/replay/engine.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/workloads/workloads.hpp"

namespace dejavu::flight {
namespace {

using replay::FlightInfo;
using replay::kFlightSchema;
using replay::SymmetryConfig;

std::string tmp_path(const std::string& stem) {
  return "/tmp/dejavu_flight_test_" + std::to_string(::getpid()) + "_" + stem +
         ".djv";
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// One fixed record-side world per (lanes, seed); both the full-trace and
// the flight recording of a comparison pair get fresh but identical
// instances.
struct World {
  vm::ScriptedEnvironment env{1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17};
  threads::VirtualTimer timer;
  explicit World(uint64_t seed) : timer(seed, 40, 400) {}
};

FlightRecordResult flight_record(const std::string& path,
                                 const bytecode::Program& prog, uint32_t lanes,
                                 uint64_t seed, FlightConfig fcfg) {
  World w(seed);
  SymmetryConfig cfg;
  cfg.lanes = lanes;
  return record_flight(path, prog, {}, w.env, w.timer, fcfg, nullptr, cfg);
}

replay::RecordFileResult full_record(const std::string& path,
                                     const bytecode::Program& prog,
                                     uint32_t lanes, uint64_t seed) {
  World w(seed);
  SymmetryConfig cfg;
  cfg.lanes = lanes;
  return replay::record_run_to(path, prog, {}, w.env, w.timer, nullptr, cfg);
}

// Is `suffix` a suffix of `full`?
bool is_suffix(const std::string& full, const std::string& suffix) {
  return suffix.size() <= full.size() &&
         full.compare(full.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ------------------------------------------------------- descriptor codec

TEST(FlightInfo, EncodeDecodeRoundTrips) {
  FlightInfo in;
  in.has_checkpoint = true;
  in.window_epochs = 4;
  in.epoch_preempts = 64;
  in.epochs_retained = 4;
  in.epochs_retired = 9;
  in.bytes_retired = 12345;
  in.seal_reason = "crash: division by zero";
  in.checkpoint_clock = 777;
  in.checkpoint_instr = 31337;
  in.checkpoint = {1, 2, 3, 4, 5};
  FlightInfo out = FlightInfo::decode(in.encode());
  EXPECT_EQ(out.has_checkpoint, in.has_checkpoint);
  EXPECT_EQ(out.window_epochs, in.window_epochs);
  EXPECT_EQ(out.epoch_preempts, in.epoch_preempts);
  EXPECT_EQ(out.epochs_retained, in.epochs_retained);
  EXPECT_EQ(out.epochs_retired, in.epochs_retired);
  EXPECT_EQ(out.bytes_retired, in.bytes_retired);
  EXPECT_EQ(out.seal_reason, in.seal_reason);
  EXPECT_EQ(out.checkpoint_clock, in.checkpoint_clock);
  EXPECT_EQ(out.checkpoint_instr, in.checkpoint_instr);
  EXPECT_EQ(out.checkpoint, in.checkpoint);
  EXPECT_NE(out.describe().find("crash: division by zero"), std::string::npos);
  EXPECT_NE(out.describe_json().find(kFlightSchema), std::string::npos);
}

// ------------------------------------------------------ the recycled ring

// A plain sink that captures every epoch into fresh writers and frames the
// DVCK blob itself: the reference a ring's recycled buffers must match.
class CollectingSink : public replay::VectorTraceSink {
 public:
  using VectorTraceSink::VectorTraceSink;
  void begin_epoch(const CheckpointCapture& capture, uint64_t,
                   uint64_t instr) override {
    ByteWriter vm_snapshot, engine_state;
    capture(vm_snapshot, engine_state);
    cuts.emplace_back(instr, replay::make_flight_checkpoint(
                                 vm_snapshot.bytes(), engine_state.bytes()));
  }
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> cuts;
};

// A sealed tail's checkpoint, captured into a buffer the ring recycled,
// is byte for byte the one a fresh capture takes at the same cut: no
// stale bytes survive from a larger earlier snapshot. The instruction
// budget seals tails at cuts spread over the run; alloc_churn's copying
// GC makes the live heap, and so the snapshot, shrink and grow between
// cuts.
TEST(FlightRing, RecycledBuffersSealWhatAFreshCaptureTakes) {
  constexpr uint32_t kEpochPreempts = 2;
  vm::VmOptions small_heap;
  small_heap.heap.size_bytes = 256u << 10;  // collects every few cuts
  struct Case {
    const char* name;
    bytecode::Program prog;
    vm::VmOptions opts;
  };
  const Case cases[] = {
      {"alloc_churn", workloads::alloc_churn(3000, 8, 4), small_heap},
      {"clock_mixer", workloads::clock_mixer(3, 300), {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    World ref_world(7);
    SymmetryConfig cfg;
    cfg.flight_epoch_preempts = kEpochPreempts;
    auto sink = std::make_unique<CollectingSink>();
    CollectingSink* ref = sink.get();
    replay::RecordSession session(c.prog, std::move(sink), c.opts,
                                  ref_world.env, ref_world.timer, nullptr,
                                  cfg);
    session.finish();
    const auto& cuts = ref->cuts;
    ASSERT_GE(cuts.size(), 12u);
    if (std::string(c.name) == "alloc_churn") {
      bool shrank = false, grew = false;
      for (size_t i = 1; i < cuts.size(); ++i) {
        shrank |= cuts[i].second.size() < cuts[i - 1].second.size();
        grew |= cuts[i].second.size() > cuts[i - 1].second.size();
      }
      EXPECT_TRUE(shrank && grew);
    }
    for (uint32_t window : {1u, 4u}) {
      for (size_t k : {size_t(window) + 3, cuts.size() / 2, cuts.size()}) {
        SCOPED_TRACE("window " + std::to_string(window) + ", cut " +
                     std::to_string(k));
        // Past the k-th cut's epoch, or the whole run.
        vm::VmOptions opts = c.opts;
        if (k < cuts.size()) opts.max_instructions = cuts[k].first + 1;
        std::string path = tmp_path("recycled");
        World w(7);
        FlightRecordResult r = record_flight(
            path, c.prog, opts, w.env, w.timer,
            FlightConfig{window, kEpochPreempts}, nullptr, {});
        EXPECT_EQ(r.crashed, k < cuts.size());
        EXPECT_GE(r.flight.checkpoints, window + 3);
        FlightInfo info;
        ASSERT_TRUE(read_flight_info(path, &info));
        ASSERT_TRUE(info.has_checkpoint);
        auto at = std::find_if(cuts.begin(), cuts.end(), [&](const auto& cut) {
          return cut.first == info.checkpoint_instr;
        });
        ASSERT_NE(at, cuts.end());
        EXPECT_TRUE(info.checkpoint == at->second)
            << "sealed checkpoint differs from a fresh capture";
        TailReplayResult tail = replay_tail_file(c.prog, path, opts);
        EXPECT_TRUE(tail.from_checkpoint);
        EXPECT_TRUE(tail.replay.verified) << tail.replay.stats.first_violation;
        std::remove(path.c_str());
      }
    }
  }
}

// ------------------------------------------------- black-box fundamentals

TEST(FlightRecord, ZeroTraceBytesOnDiskUntilSeal) {
  std::string path = tmp_path("zerobytes");
  std::remove(path.c_str());
  bytecode::Program prog = workloads::counter_locked(3, 40);
  World w(3);
  SymmetryConfig cfg;
  cfg.flight_epoch_preempts = 4;
  auto sink = std::make_unique<FlightRecorder>(replay::kTraceVersion, 1,
                                               FlightConfig{3, 4});
  FlightRecorder* rec = sink.get();
  replay::RecordSession session(prog, std::move(sink), {}, w.env, w.timer,
                                nullptr, cfg);
  session.finish();
  // The whole run completed; the recorder retained a window in memory and
  // wrote nothing anywhere.
  FlightStats st = rec->stats();
  EXPECT_GT(st.bytes_retained, 0u);
  EXPECT_FALSE(st.sealed);
  EXPECT_FALSE(file_exists(path));
  rec->seal_to_file(path, "dump");
  EXPECT_TRUE(file_exists(path));
  EXPECT_TRUE(rec->stats().sealed);
  std::remove(path.c_str());
}

TEST(FlightRecord, RingStaysBoundedAndRetires) {
  std::string path = tmp_path("bounded");
  bytecode::Program prog = workloads::counter_locked(4, 120);
  FlightRecordResult r = flight_record(path, prog, 1, 5, FlightConfig{2, 2});
  EXPECT_FALSE(r.crashed);
  EXPECT_GT(r.flight.checkpoints, 0u);
  EXPECT_GT(r.flight.epochs_retired, 0u);
  EXPECT_GT(r.flight.bytes_retired, 0u);
  EXPECT_LE(r.flight.epochs_retained, 2u + 1u);  // window + the open epoch
  FlightInfo info;
  ASSERT_TRUE(read_flight_info(path, &info));
  EXPECT_TRUE(info.has_checkpoint);
  EXPECT_EQ(info.seal_reason, "dump");
  EXPECT_EQ(info.epochs_retired, r.flight.epochs_retired);
  std::remove(path.c_str());
}

TEST(FlightRecord, DoesNotPerturbTheGuest) {
  // The acceptance bar for "always-on": flipping the flight recorder on
  // must leave guest behaviour identical to a full-trace recording of the
  // same seeded world.
  for (uint32_t lanes : {1u, 2u}) {
    std::string fp = tmp_path("perturb_full");
    std::string tp = tmp_path("perturb_tail");
    bytecode::Program prog = workloads::counter_race(3, 30);
    replay::RecordFileResult full = full_record(fp, prog, lanes, 7);
    FlightRecordResult fl = flight_record(tp, prog, lanes, 7, FlightConfig{3, 4});
    EXPECT_EQ(fl.summary, full.summary) << "lanes=" << lanes;
    EXPECT_EQ(fl.output, full.output) << "lanes=" << lanes;
    std::remove(fp.c_str());
    std::remove(tp.c_str());
  }
}

// ------------------------------------------------------ tail replay golden

// The core golden property, swept across workloads x seeds x lanes: the
// sealed tail replays from its embedded checkpoint to byte-identical end
// state -- same behaviour summary (output/switch hashes run from program
// start), output equal to a suffix of the full run's, full verification
// against the recorded meta.
TEST(FlightTail, TailReplayMatchesFullReplaySuffix) {
  struct Case {
    const char* name;
    bytecode::Program prog;
  };
  Case cases[] = {
      {"counter_race", workloads::counter_race(3, 40)},
      {"counter_locked", workloads::counter_locked(3, 40)},
      {"producer_consumer", workloads::producer_consumer(24, 4)},
  };
  for (const Case& c : cases) {
    for (uint32_t lanes : {1u, 2u}) {
      for (uint64_t seed : {2ull, 9ull}) {
        SCOPED_TRACE(std::string(c.name) + " lanes=" + std::to_string(lanes) +
                     " seed=" + std::to_string(seed));
        std::string fp = tmp_path("golden_full");
        std::string tp = tmp_path("golden_tail");
        replay::RecordFileResult full = full_record(fp, c.prog, lanes, seed);
        FlightRecordResult fl =
            flight_record(tp, c.prog, lanes, seed, FlightConfig{3, 3});
        ASSERT_EQ(fl.summary, full.summary);

        replay::ReplayResult fullrep = replay::replay_file(c.prog, fp, {});
        EXPECT_TRUE(fullrep.verified) << fullrep.stats.first_violation;

        TailReplayResult tail = replay_tail_file(c.prog, tp, {});
        EXPECT_TRUE(tail.is_tail);
        EXPECT_FALSE(tail.crashed) << tail.replay.error;
        EXPECT_TRUE(tail.replay.verified)
            << tail.replay.stats.first_violation;
        EXPECT_EQ(tail.replay.summary, fullrep.summary);
        EXPECT_TRUE(is_suffix(fullrep.output, tail.replay.output))
            << "full:\n" << fullrep.output << "tail:\n" << tail.replay.output;
        EXPECT_EQ(tail.from_checkpoint, fl.flight.epochs_retired > 0);
        std::remove(fp.c_str());
        std::remove(tp.c_str());
      }
    }
  }
}

// The event lines `dump_trace` prints for `lane` of `src`.
std::vector<std::string> dumped_events(replay::TraceSource& src,
                                       replay::LaneId lane) {
  std::string head = src.lane_count() > 1
                         ? "lane " + std::to_string(lane) + " events ("
                         : "events (";
  std::istringstream in(replay::dump_trace(src, SIZE_MAX));
  std::vector<std::string> lines;
  bool in_events = false;
  for (std::string line; std::getline(in, line);) {
    if (in_events && line.rfind("  ", 0) != 0) break;
    if (in_events) lines.push_back(line);
    in_events |= line.rfind(head, 0) == 0;
  }
  return lines;
}

// A v6 tail's events streams begin mid-stream, at its checkpoint, where
// each lane's clock predictor already holds a value and a delta: dump,
// diff and stats decode the tail's clock reads from the checkpoint's
// predictors to the same absolute values the full recording decodes to.
TEST(FlightTail, ToolsDecodeTailClocksAsTheFullRecordingSuffix) {
  bytecode::Program prog = workloads::clock_mixer(3, 60);
  for (uint32_t lanes : {1u, 2u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    std::string fp = tmp_path("tools_full");
    std::string tp = tmp_path("tools_tail");
    full_record(fp, prog, lanes, 5);
    FlightRecordResult fl =
        flight_record(tp, prog, lanes, 5, FlightConfig{2, 3});
    ASSERT_GT(fl.flight.epochs_retired, 0u);
    replay::FileTraceSource full(fp), tail(tp);
    ASSERT_EQ(tail.version(), replay::kTraceVersionPredicted);
    uint64_t tail_clocks = 0;
    for (replay::LaneId lane = 0; lane < lanes; ++lane) {
      SCOPED_TRACE("lane " + std::to_string(lane));
      std::vector<replay::DecodedEvent> all = replay::decode_events(full, lane);
      std::vector<replay::DecodedEvent> end = replay::decode_events(tail, lane);
      ASSERT_LE(end.size(), all.size());
      EXPECT_TRUE(std::equal(end.begin(), end.end(),
                             all.end() - std::ptrdiff_t(end.size())));
      for (const replay::DecodedEvent& e : end)
        tail_clocks += e.tag == replay::EventTag::kClock;
      std::vector<std::string> all_lines = dumped_events(full, lane);
      std::vector<std::string> end_lines = dumped_events(tail, lane);
      ASSERT_EQ(end_lines.size(), end.size());
      EXPECT_TRUE(std::equal(end_lines.begin(), end_lines.end(),
                             all_lines.end() - std::ptrdiff_t(end.size())));
    }
    EXPECT_GT(tail_clocks, 0u);
    EXPECT_EQ(replay::trace_stats(tail).clock_events, tail_clocks);
    EXPECT_TRUE(replay::diff_traces(tail, tail).identical);
    std::remove(fp.c_str());
    std::remove(tp.c_str());
  }
}

TEST(FlightTail, ShortRunTailIsTheCompleteTrace) {
  // A run shorter than one epoch never checkpoints: the tail is simply a
  // complete trace with a kFlight descriptor, and replays from the start.
  std::string path = tmp_path("short");
  bytecode::Program prog = workloads::fig1_race();
  FlightRecordResult r =
      flight_record(path, prog, 1, 3, FlightConfig{4, 100000});
  EXPECT_EQ(r.flight.checkpoints, 0u);
  TailReplayResult tail = replay_tail_file(prog, path, {});
  EXPECT_TRUE(tail.is_tail);
  EXPECT_FALSE(tail.from_checkpoint);
  EXPECT_TRUE(tail.replay.verified) << tail.replay.stats.first_violation;
  EXPECT_EQ(tail.replay.summary, r.summary);
  EXPECT_EQ(tail.replay.output, r.output);
  std::remove(path.c_str());
}

TEST(FlightTail, OrdinaryFullTracePassesThroughUnchanged) {
  std::string path = tmp_path("passthrough");
  bytecode::Program prog = workloads::counter_locked(2, 20);
  replay::RecordFileResult full = full_record(path, prog, 1, 4);
  FlightInfo info;
  EXPECT_FALSE(read_flight_info(path, &info));
  TailReplayResult rep = replay_tail_file(prog, path, {});
  EXPECT_FALSE(rep.is_tail);
  EXPECT_FALSE(rep.from_checkpoint);
  EXPECT_TRUE(rep.replay.verified) << rep.replay.stats.first_violation;
  EXPECT_EQ(rep.replay.summary, full.summary);
  std::remove(path.c_str());
}

// --------------------------------------------------------- crash tails

TEST(FlightCrash, CrasherIsCleanWhenFuseIsUnreachable) {
  std::string path = tmp_path("nofuse");
  bytecode::Program prog = workloads::crasher(3, 10, 1000);
  FlightRecordResult r = flight_record(path, prog, 1, 6, FlightConfig{3, 4});
  EXPECT_FALSE(r.crashed);
  EXPECT_EQ(r.seal_reason, "dump");
  EXPECT_NE(r.output.find("30"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightCrash, CrashTailReproducesSameErrorAtSameInstruction) {
  for (uint32_t lanes : {1u, 2u}) {
    for (uint64_t seed : {1ull, 8ull}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " seed=" + std::to_string(seed));
      std::string path = tmp_path("crash");
      bytecode::Program prog = workloads::crasher(3, 30, 50);
      FlightRecordResult r =
          flight_record(path, prog, lanes, seed, FlightConfig{3, 3});
      ASSERT_TRUE(r.crashed);
      EXPECT_NE(r.error.find("division by zero"), std::string::npos);
      EXPECT_GT(r.error_instr, 0u);
      ASSERT_TRUE(file_exists(path));

      FlightInfo info;
      ASSERT_TRUE(read_flight_info(path, &info));
      EXPECT_EQ(info.seal_reason, "crash: " + r.error);

      TailReplayResult tail = replay_tail_file(prog, path, {});
      EXPECT_TRUE(tail.is_tail);
      ASSERT_TRUE(tail.crashed);
      EXPECT_EQ(tail.replay.error, r.error);
      EXPECT_EQ(tail.replay.error_instr, r.error_instr);
      // The recorded meta was captured at the crashed state, so a faithful
      // reproduction verifies clean.
      EXPECT_TRUE(tail.replay.verified)
          << tail.replay.stats.first_violation;
      std::remove(path.c_str());
    }
  }
}

// A guest fault belongs to the guest: its text, and with it the seal
// reason and the tail's bytes, must not name the platform's source files.
TEST(FlightCrash, GuestFaultTextCarriesNoSourcePath) {
  std::string path = tmp_path("pathfree");
  bytecode::Program prog = workloads::crasher(3, 30, 50);
  FlightRecordResult r = flight_record(path, prog, 1, 5, FlightConfig{3, 3});
  ASSERT_TRUE(r.crashed);
  EXPECT_EQ(r.error, "division by zero");
  EXPECT_EQ(r.seal_reason, "crash: division by zero");
  FlightInfo info;
  ASSERT_TRUE(read_flight_info(path, &info));
  EXPECT_EQ(info.seal_reason, "crash: division by zero");
  std::remove(path.c_str());
}

// The instruction budget is a guest fault too: a runaway guest seals a
// tail whose reason names the fault and nothing of the build.
TEST(FlightCrash, InstructionBudgetFaultCarriesNoSourcePath) {
  std::string path = tmp_path("budget");
  bytecode::Program prog = workloads::counter_locked(3, 400);
  vm::VmOptions opts;
  opts.max_instructions = 5000;
  World w(5);
  FlightRecordResult r = record_flight(path, prog, opts, w.env, w.timer,
                                       FlightConfig{3, 3});
  ASSERT_TRUE(r.crashed);
  EXPECT_EQ(r.error, "instruction budget exhausted (runaway?)");
  EXPECT_EQ(r.seal_reason, "crash: instruction budget exhausted (runaway?)");
  FlightInfo info;
  ASSERT_TRUE(read_flight_info(path, &info));
  EXPECT_EQ(info.seal_reason, "crash: instruction budget exhausted (runaway?)");
  std::remove(path.c_str());
}

TEST(FlightCrash, StrictReplayOfCrashTailStaysFaithful) {
  std::string path = tmp_path("strict");
  bytecode::Program prog = workloads::crasher(3, 30, 50);
  FlightRecordResult r = flight_record(path, prog, 1, 2, FlightConfig{3, 3});
  ASSERT_TRUE(r.crashed);
  SymmetryConfig strict;
  strict.strict = true;
  TailReplayResult tail = replay_tail_file(prog, path, {}, strict);
  EXPECT_TRUE(tail.crashed);
  EXPECT_EQ(tail.replay.error, r.error);
  EXPECT_EQ(tail.replay.error_instr, r.error_instr);
  std::remove(path.c_str());
}

// ------------------------------------------- one session, every entry point

// Every replay entry point goes through the same ReplaySession, so each
// one resumes a tail from its checkpoint and agrees with the others on the
// verdict, the behaviour, the output and the reproduced crash. Time travel
// over a tail starts at the checkpoint and cannot go before it.
TEST(FlightTail, EveryReplayEntryPointAgreesOnTails) {
  struct Case {
    const char* name;
    bytecode::Program prog;
    bool crashes;
  };
  Case cases[] = {
      {"dump", workloads::counter_locked(4, 120), false},
      {"crash", workloads::crasher(3, 30, 50), true},
  };
  for (const Case& c : cases) {
    for (uint32_t lanes : {1u, 2u}) {
      SCOPED_TRACE(std::string(c.name) + " lanes=" + std::to_string(lanes));
      std::string path = tmp_path("agree");
      FlightRecordResult rec =
          flight_record(path, c.prog, lanes, 5, FlightConfig{2, 2});
      ASSERT_EQ(rec.crashed, c.crashes) << rec.error;
      FlightInfo info;
      ASSERT_TRUE(read_flight_info(path, &info));
      ASSERT_TRUE(info.has_checkpoint);
      ASSERT_GT(info.checkpoint_instr, 0u);

      TailReplayResult tail = replay_tail_file(c.prog, path, {});
      EXPECT_TRUE(tail.from_checkpoint);
      replay::ReplaySession session(c.prog, replay::open_trace_source(path),
                                    {});
      EXPECT_EQ(session.start_instr(), info.checkpoint_instr);
      replay::ReplayResult runs[] = {
          replay::replay_run(c.prog, replay::TraceFile::load(path), {}),
          replay::replay_file(c.prog, path, {}),
          tail.replay,
          session.finish(),
      };
      for (const replay::ReplayResult& r : runs) {
        EXPECT_TRUE(r.verified) << r.stats.first_violation;
        EXPECT_EQ(r.summary, rec.summary);
        EXPECT_EQ(r.output, runs[0].output);
        EXPECT_TRUE(is_suffix(rec.output, r.output));
        EXPECT_EQ(r.crashed, c.crashes) << r.error;
        EXPECT_EQ(r.error, rec.error);
        EXPECT_EQ(r.error_instr, rec.error_instr);
      }

      debugger::TimeTravelDebugger tt(c.prog, replay::TraceFile::load(path));
      EXPECT_EQ(tt.position(), info.checkpoint_instr);
      tt.goto_instruction(info.checkpoint_instr + 5);
      EXPECT_EQ(tt.position(), info.checkpoint_instr + 5);
      tt.goto_instruction(0);
      EXPECT_EQ(tt.position(), info.checkpoint_instr);
      replay::ReplayResult end = tt.run_to_end_and_verify();
      EXPECT_TRUE(end.verified) << end.stats.first_violation;
      EXPECT_EQ(end.summary, rec.summary);
      std::remove(path.c_str());
    }
  }
}

// A tail's earliest keyframe is its own checkpoint. Time travel over a
// tail takes keyframes past it, goes back by resuming from them, lands
// where a straight tail replay lands, and finishes with the tail's whole
// output.
TEST(FlightTail, TimeTravelResumesFromKeyframesPastTheCheckpoint) {
  bytecode::Program prog = workloads::counter_locked(4, 600);
  for (uint32_t lanes : {1u, 2u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    std::string path = tmp_path("tt_tail");
    FlightRecordResult rec =
        flight_record(path, prog, lanes, 5, FlightConfig{8, 16});
    FlightInfo info;
    ASSERT_TRUE(read_flight_info(path, &info));
    ASSERT_TRUE(info.has_checkpoint);
    TailReplayResult whole = replay_tail_file(prog, path, {});
    ASSERT_TRUE(whole.replay.verified);

    debugger::TimeTravelDebugger tt(prog, replay::TraceFile::load(path));
    EXPECT_EQ(tt.replay_start(), info.checkpoint_instr);
    tt.goto_instruction(tt.end_position());
    std::vector<uint64_t> kf = tt.keyframe_positions();
    ASSERT_GE(kf.size(), 4u);
    EXPECT_GT(kf.front(), info.checkpoint_instr);

    const uint64_t k = (info.checkpoint_instr + tt.end_position()) / 2;
    replay::ReplaySession straight(prog, replay::open_trace_source(path), {});
    while (straight.vm().instr_count() < k)
      straight.vm().step(k - straight.vm().instr_count());
    tt.goto_instruction(k);
    EXPECT_GT(tt.replay_start(), info.checkpoint_instr);
    EXPECT_LE(tt.replay_start(), k);
    vm::BehaviorSummary want = straight.vm().summary();
    vm::BehaviorSummary got = tt.vm().summary();
    EXPECT_EQ(got.instr_count, want.instr_count);
    EXPECT_EQ(got.output_hash, want.output_hash);
    EXPECT_EQ(got.switch_seq_hash, want.switch_seq_hash);
    EXPECT_EQ(got.heap_hash, want.heap_hash);
    EXPECT_EQ(got.audit_digest, want.audit_digest);

    // Before the first keyframe: the tail's own checkpoint.
    tt.goto_instruction(0);
    EXPECT_EQ(tt.position(), info.checkpoint_instr);
    EXPECT_EQ(tt.replay_start(), info.checkpoint_instr);
    tt.goto_instruction(kf.back() + 1);
    EXPECT_EQ(tt.replay_start(), info.checkpoint_instr);  // forward: no jump
    tt.step_back(1);
    EXPECT_EQ(tt.replay_start(), kf.back());
    replay::ReplayResult end = tt.run_to_end_and_verify();
    EXPECT_TRUE(end.verified) << end.stats.first_violation;
    EXPECT_EQ(end.summary, rec.summary);
    EXPECT_EQ(end.output, whole.replay.output);
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------ hostile descriptors

// Splits a sealed tail into the bytes before its kFlight chunk, the
// chunk's decoded descriptor, and the bytes after it. The recorder writes
// kFlight as the first chunk, right after the 8-byte container header.
struct TailParts {
  std::vector<uint8_t> head, rest;
  std::vector<uint8_t> payload;
};

TailParts split_tail(const std::vector<uint8_t>& file) {
  TailParts t;
  EXPECT_EQ(file.at(8), uint8_t(replay::StreamId::kFlight));
  ByteReader r(file.data() + 9, 4);
  uint32_t len = r.get_u32_fixed();
  t.head.assign(file.begin(), file.begin() + 8);
  t.payload.assign(file.begin() + 13, file.begin() + 13 + len);
  t.rest.assign(file.begin() + 13 + len + 4, file.end());
  return t;
}

// Reassembles a tail around `payload`, resealing the chunk CRC so only the
// descriptor's content -- not its framing -- is hostile.
void write_tail(const std::string& path, const TailParts& t,
                const std::vector<uint8_t>& payload) {
  ByteWriter w;
  w.put_bytes(t.head.data(), t.head.size());
  w.put_u8(uint8_t(replay::StreamId::kFlight));
  w.put_u32_fixed(uint32_t(payload.size()));
  w.put_bytes(payload.data(), payload.size());
  w.put_u32_fixed(replay::chunk_crc(replay::StreamId::kFlight,
                                    payload.data(), payload.size()));
  w.put_bytes(t.rest.data(), t.rest.size());
  write_file(path, w.bytes());
}

// Encodes `info` field by field as FlightInfo::encode does, except that
// the seal-reason and checkpoint length prefixes are the given values.
std::vector<uint8_t> encode_with_lengths(const FlightInfo& info,
                                         uint64_t reason_len,
                                         uint64_t checkpoint_len) {
  ByteWriter w;
  w.put_string(kFlightSchema);
  w.put_u8(info.has_checkpoint ? 1 : 0);
  w.put_uvarint(info.window_epochs);
  w.put_uvarint(info.epoch_preempts);
  w.put_uvarint(info.epochs_retained);
  w.put_uvarint(info.epochs_retired);
  w.put_uvarint(info.bytes_retired);
  w.put_uvarint(reason_len);
  w.put_bytes(info.seal_reason.data(), info.seal_reason.size());
  w.put_uvarint(info.checkpoint_clock);
  w.put_uvarint(info.checkpoint_instr);
  w.put_uvarint(checkpoint_len);
  w.put_bytes(info.checkpoint.data(), info.checkpoint.size());
  return w.take();
}

TEST(FlightHostile, OversizedLengthsAreLocatedErrors) {
  std::string good = tmp_path("hostile_good");
  std::string bad = tmp_path("hostile_bad");
  bytecode::Program prog = workloads::counter_locked(4, 120);
  flight_record(good, prog, 1, 5, FlightConfig{2, 2});
  TailParts parts = split_tail(read_file(good));
  FlightInfo info = FlightInfo::decode(parts.payload);
  ASSERT_TRUE(info.has_checkpoint);
  ASSERT_EQ(encode_with_lengths(info, info.seal_reason.size(),
                                info.checkpoint.size()),
            parts.payload);
  const uint64_t kHuge = uint64_t(1) << 62;

  // The DVCK checkpoint's VM-snapshot length is the first varint after its
  // 8-byte magic/version prologue; replace it, keep the rest verbatim.
  FlightInfo dvck = info;
  {
    ByteReader r(info.checkpoint);
    r.skip(8);
    r.get_uvarint();
    ByteWriter w;
    w.put_bytes(info.checkpoint.data(), 8);
    w.put_uvarint(kHuge);
    w.put_bytes(info.checkpoint.data() + r.position(), r.remaining());
    dvck.checkpoint = w.take();
  }

  struct Mutation {
    const char* what;
    std::vector<uint8_t> payload;
    bool descriptor_level;  // read_flight_info decodes it too
  };
  Mutation mutations[] = {
      {"checkpoint length",
       encode_with_lengths(info, info.seal_reason.size(), kHuge), true},
      {"seal reason length",
       encode_with_lengths(info, kHuge, info.checkpoint.size()), true},
      {"DVCK snapshot length", dvck.encode(), false},
  };
  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.what);
    write_tail(bad, parts, m.payload);
    EXPECT_TRUE(replay::verify_trace_file(bad).ok);  // the framing is sound
    EXPECT_THROW(replay::replay_file(prog, bad, {}), VmError);
    EXPECT_THROW(replay_tail_file(prog, bad, {}), VmError);
    FlightInfo out;
    if (m.descriptor_level) {
      EXPECT_THROW(read_flight_info(bad, &out), VmError);
    } else {
      EXPECT_TRUE(read_flight_info(bad, &out));
    }
  }
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace dejavu::flight
