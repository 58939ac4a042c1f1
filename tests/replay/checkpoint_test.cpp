// One checkpoint mechanism. A flight checkpoint (VM snapshot + engine
// state, DejaVuEngine::resume_point) restores to a machine that checkpoints
// to the same bytes, and a replay that cuts where a recording's flight
// epoch cut emits exactly the recording's checkpoint and stream offsets --
// so flight tails and the time-travel debugger's keyframes are one thing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/common/rng.hpp"
#include "src/replay/session.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

// A memory sink that keeps every flight epoch's checkpoint with the stream
// offsets at its cut: it captures each epoch into fresh writers and frames
// the blob itself. The engine flushes its writer before it opens an
// epoch, so the offsets are the payload bytes written so far.
class EpochSink : public VectorTraceSink {
 public:
  using VectorTraceSink::VectorTraceSink;
  using TraceSink::write_chunk;
  void write_chunk(StreamId id, const uint8_t* payload, size_t n,
                   LaneId lane) override {
    VectorTraceSink::write_chunk(id, payload, n, lane);
    if (id == StreamId::kOrder) written_.order += n;
    if (id != StreamId::kSchedule && id != StreamId::kEvents) return;
    std::vector<uint64_t>& v =
        id == StreamId::kSchedule ? written_.schedule : written_.events;
    if (v.size() <= lane) v.resize(size_t(lane) + 1, 0);
    v[lane] += n;
  }
  void begin_epoch(const CheckpointCapture& capture, uint64_t,
                   uint64_t instr) override {
    ByteWriter vm_snapshot, engine_state;
    capture(vm_snapshot, engine_state);
    ResumePoint p;
    p.checkpoint =
        make_flight_checkpoint(vm_snapshot.bytes(), engine_state.bytes());
    p.offsets = written_;
    p.instr = instr;
    epochs.push_back(std::move(p));
  }

  std::vector<ResumePoint> epochs;

 private:
  StreamOffsets written_;
};

// The perfbench workloads at small sizes, plus a two-lane run (per-lane
// offsets and the order stream).
struct Case {
  const char* name;
  bytecode::Program prog;
  vm::VmOptions opts;
  uint32_t lanes = 1;
};

std::vector<Case> cases() {
  vm::VmOptions small_heap;
  small_heap.heap.size_bytes = 1u << 20;
  return {
      {"compute", workloads::compute(2, 3000), {}, 1},
      {"clock_mixer", workloads::clock_mixer(3, 300), {}, 1},
      {"lock_pingpong", workloads::lock_pingpong(200), {}, 1},
      {"alloc_churn", workloads::alloc_churn(3000, 8, 4), small_heap, 1},
      {"clock_mixer_2_lanes", workloads::clock_mixer(3, 300), {}, 2},
  };
}

struct Recorded {
  RecordResult run;
  std::vector<ResumePoint> epochs;
};

// Records `c` with a flight epoch every `epoch_preempts` preempts, into a
// `version` container.
Recorded record_epochs(const Case& c, uint32_t epoch_preempts,
                       uint32_t version = kTraceVersionPredicted) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(7, 40, 400);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  SymmetryConfig cfg;
  cfg.lanes = c.lanes;
  cfg.flight_epoch_preempts = epoch_preempts;
  auto sink = std::make_unique<EpochSink>(version);
  EpochSink* epochs = sink.get();
  RecordSession s(c.prog, std::move(sink), c.opts, env, timer, &natives, cfg);
  Recorded r;
  r.run = s.finish();
  r.run.trace = s.take_trace();
  r.epochs = std::move(epochs->epochs);
  for (ResumePoint& p : r.epochs) {  // lanes that wrote nothing yet
    p.offsets.schedule.resize(c.lanes, 0);
    p.offsets.events.resize(c.lanes, 0);
  }
  return r;
}

std::unique_ptr<TraceSource> source_of(const Recorded& r) {
  return std::make_unique<TraceFileSource>(&r.run.trace);
}

// Two resume points describe the same cut: the same instruction count,
// the same VM half and engine half, the same stream offsets.
void expect_same_cut(const ResumePoint& got, const ResumePoint& want) {
  EXPECT_EQ(got.instr, want.instr);
  FlightCheckpointView g = split_flight_checkpoint(got.checkpoint);
  FlightCheckpointView w = split_flight_checkpoint(want.checkpoint);
  EXPECT_TRUE(std::ranges::equal(g.vm_snapshot, w.vm_snapshot))
      << "VM snapshots differ";
  EXPECT_TRUE(std::ranges::equal(g.engine_state, w.engine_state))
      << "engine states differ";
  EXPECT_EQ(got.offsets.schedule, want.offsets.schedule);
  EXPECT_EQ(got.offsets.events, want.offsets.events);
  EXPECT_EQ(got.offsets.order, want.offsets.order);
}

// Replays `r` from `from` (a fresh boot when null) and takes a keyframe at
// each of epochs [first, end): each is armed at that epoch's instruction
// count, once the previous one is taken. Returns them; the replay must
// verify.
std::vector<ResumePoint> keyframes_at(const Case& c, const Recorded& r,
                                      const ResumePoint* from, size_t first) {
  auto s = std::make_unique<ReplaySession>(c.prog, source_of(r), c.opts,
                                           SymmetryConfig{}, from);
  std::vector<ResumePoint> got;
  size_t next = first;
  DejaVuEngine::KeyframeSink sink = [&](ResumePoint p) {
    got.push_back(std::move(p));
    if (++next < r.epochs.size())
      s->engine().arm_keyframe(r.epochs[next].instr, sink);
  };
  if (next < r.epochs.size())
    s->engine().arm_keyframe(r.epochs[next].instr, sink);
  ReplayResult res = s->finish();
  EXPECT_TRUE(res.verified) << res.stats.first_violation;
  EXPECT_EQ(res.summary, r.run.summary);
  return got;
}

// Seeded sample of up to `n` epoch indices, ascending.
std::vector<size_t> sample(size_t epochs, size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<size_t> v;
  for (size_t i = 0; i < epochs; ++i)
    if (rng.next_below(epochs) < n) v.push_back(i);
  return v;
}

TEST(Checkpoint, RoundTripIsByteIdentical) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    SplitMix64 rng(0x5eed ^ c.lanes);
    Recorded r = record_epochs(c, uint32_t(rng.next_range(3, 9)));
    ASSERT_GE(r.epochs.size(), 4u);
    for (size_t i : sample(r.epochs.size(), 4, rng.next())) {
      SCOPED_TRACE("epoch " + std::to_string(i));
      const ResumePoint& cut = r.epochs[i];
      // Restore the recorded checkpoint, checkpoint again at once.
      ReplaySession s(c.prog, source_of(r), c.opts, {}, &cut);
      EXPECT_EQ(s.start_instr(), cut.instr);
      expect_same_cut(s.engine().resume_point(), cut);
      // And from a VM that was itself resumed: its next cut, taken by the
      // resumed replay, round-trips too.
      if (i + 1 < r.epochs.size()) {
        std::vector<ResumePoint> next = keyframes_at(c, r, &cut, i + 1);
        ASSERT_FALSE(next.empty());
        ReplaySession again(c.prog, source_of(r), c.opts, {}, &next[0]);
        expect_same_cut(again.engine().resume_point(), next[0]);
        ReplayResult res = again.finish();
        EXPECT_TRUE(res.verified) << res.stats.first_violation;
        EXPECT_EQ(res.summary, r.run.summary);
      }
    }
  }
}

TEST(Checkpoint, ReplayKeyframeEqualsRecordedFlightCheckpoint) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    Recorded r = record_epochs(c, 5);
    ASSERT_GE(r.epochs.size(), 4u);
    // A fresh replay cuts at every recorded epoch; so does a replay
    // resumed from the second epoch, for the epochs after it.
    std::vector<ResumePoint> fresh = keyframes_at(c, r, nullptr, 0);
    ASSERT_EQ(fresh.size(), r.epochs.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(i));
      expect_same_cut(fresh[i], r.epochs[i]);
    }
    std::vector<ResumePoint> resumed = keyframes_at(c, r, &r.epochs[1], 2);
    ASSERT_EQ(resumed.size(), r.epochs.size() - 2);
    for (size_t i = 0; i < resumed.size(); ++i) {
      SCOPED_TRACE("resumed, epoch " + std::to_string(i + 2));
      expect_same_cut(resumed[i], r.epochs[i + 2]);
    }
  }
}

// A v6 recording's events are predicted per lane, so every epoch cuts
// between two predicted clock reads. Resuming at each one gives the
// straight replay's output suffix and final hashes.
TEST(Checkpoint, EveryEpochOfAPredictedTraceResumesToTheSameEnd) {
  for (const Case& c : {cases()[1], cases()[4]}) {  // clock_mixer, K=1 and 2
    SCOPED_TRACE(c.name);
    Recorded r = record_epochs(c, 3);
    ASSERT_EQ(r.run.trace.version(), kTraceVersionPredicted);
    ASSERT_GE(r.epochs.size(), 4u);
    ReplayResult straight =
        ReplaySession(c.prog, source_of(r), c.opts).finish();
    ASSERT_TRUE(straight.verified) << straight.stats.first_violation;
    for (size_t i = 0; i < r.epochs.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(i));
      ReplayResult res =
          ReplaySession(c.prog, source_of(r), c.opts, {}, &r.epochs[i])
              .finish();
      EXPECT_TRUE(res.verified) << res.stats.first_violation;
      EXPECT_TRUE(straight.output.ends_with(res.output));
      EXPECT_EQ(res.summary, straight.summary);
    }
  }
}

// `cut` with its engine state rewritten as DVES version 1, which has no
// clock predictors. v2 holds them right after the magic, the version and
// the one-byte lane count; a v4/v5 recording's are all zero, three bytes a
// lane.
ResumePoint as_engine_state_v1(const ResumePoint& cut, uint32_t lanes,
                               bool strip_predictors) {
  FlightCheckpointView v = split_flight_checkpoint(cut.checkpoint);
  std::vector<uint8_t> es(v.engine_state.begin(), v.engine_state.end());
  EXPECT_EQ(es[4], 2u);  // u32le version
  es[4] = 1;
  EXPECT_EQ(es[8], lanes);
  if (strip_predictors) {
    auto predictors = es.begin() + 9;
    EXPECT_TRUE(std::all_of(predictors, predictors + 3 * lanes,
                            [](uint8_t b) { return b == 0; }));
    es.erase(predictors, predictors + 3 * lanes);
  }
  ResumePoint p = cut;
  p.checkpoint = make_flight_checkpoint(v.vm_snapshot, es);
  return p;
}

TEST(Checkpoint, EngineStateV1RestoresIntoV4AndV5TracesOnly) {
  const struct {
    Case c;
    uint32_t version;
  } runs[] = {{cases()[1], kTraceVersion},
              {cases()[4], kTraceVersionMulti},
              {cases()[1], kTraceVersionPredicted}};
  for (const auto& run : runs) {
    SCOPED_TRACE("v" + std::to_string(run.version));
    const Case& c = run.c;
    Recorded r = record_epochs(c, 5, run.version);
    ASSERT_EQ(r.run.trace.version(), run.version);
    ASSERT_GE(r.epochs.size(), 2u);
    bool predicted = run.version == kTraceVersionPredicted;
    ResumePoint v1 =
        as_engine_state_v1(r.epochs[r.epochs.size() / 2], c.lanes, !predicted);
    if (predicted) {
      EXPECT_THROW(ReplaySession(c.prog, source_of(r), c.opts, {}, &v1),
                   VmError);
      continue;
    }
    ReplayResult res =
        ReplaySession(c.prog, source_of(r), c.opts, {}, &v1).finish();
    EXPECT_TRUE(res.verified) << res.stats.first_violation;
    EXPECT_EQ(res.summary, r.run.summary);
  }
}

TEST(Checkpoint, ResumeOffsetsAreCheckedAgainstTheTrace) {
  Case c = cases()[1];
  Recorded r = record_epochs(c, 5);
  ASSERT_FALSE(r.epochs.empty());
  ResumePoint bad = r.epochs.back();
  bad.offsets.events[0] = r.run.trace.index().events[0].bytes + 1;
  EXPECT_THROW(ReplaySession(c.prog, source_of(r), c.opts, {}, &bad), VmError);
  bad = r.epochs.back();
  bad.offsets.schedule.push_back(0);  // a lane the trace does not have
  EXPECT_THROW(ReplaySession(c.prog, source_of(r), c.opts, {}, &bad), VmError);
}

}  // namespace
}  // namespace dejavu::replay
