// Happens-before race detector tests over the ground-truth corpus
// (tests/obs/races/corpus.hpp): every seeded race is flagged at the
// expected site pair, every monitor-fixed twin reports zero races, the
// detector perturbs nothing (golden on/off byte-identity), and the
// RacesMerger fold is order-independent and associative.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "src/common/hash.hpp"
#include "src/obs/analysis/merge.hpp"
#include "src/obs/analysis/race_detector.hpp"
#include "src/obs/json.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/obs/races/corpus.hpp"

namespace dejavu::obs {
namespace {

std::string golden_path(const char* name) {
  return std::string(DEJAVU_GOLDEN_DIR) + "/" + name;
}

// One deterministic record (scripted env + fine-grained virtual timer so
// the worker threads genuinely interleave), then a replay with the race
// detector attached.
replay::ReplayResult analyze_races(const bytecode::Program& prog,
                                   uint64_t seed) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(seed, 4, 60);
  replay::RecordResult rec = replay::record_run(prog, {}, env, timer);
  replay::SymmetryConfig cfg;
  cfg.obs.analyze_races = true;
  return replay::replay_run(prog, rec.trace, {}, cfg);
}

JsonValue races_doc(const replay::ReplayResult& rep) {
  EXPECT_FALSE(rep.analysis.races_json.empty());
  return parse_json(rep.analysis.races_json);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

uint64_t num(const JsonValue& v, const char* k) {
  const JsonValue* m = v.find(k);
  return m != nullptr && m->is_number() ? uint64_t(m->number) : 0;
}

std::string str(const JsonValue& v, const char* k) {
  const JsonValue* m = v.find(k);
  return m != nullptr && m->is_string() ? m->string : std::string();
}

// Does the site pair match (a, b) in either order?
bool pair_matches(const JsonValue& race, const char* a, const char* b) {
  std::string s1 = str(race, "first_site");
  std::string s2 = str(race, "second_site");
  return (starts_with(s1, a) && starts_with(s2, b)) ||
         (starts_with(s1, b) && starts_with(s2, a));
}

// ------------------------------------------------ the ground-truth corpus

TEST(RaceDetector, CorpusVerdicts) {
  for (const racecorpus::CorpusEntry& e : racecorpus::race_corpus()) {
    SCOPED_TRACE(e.name);
    replay::ReplayResult rep = analyze_races(e.make(), 11);
    ASSERT_TRUE(rep.verified) << e.name;
    JsonValue doc = races_doc(rep);
    EXPECT_GT(num(doc, "checks"), 0u);
    if (!e.racy) {
      // A monitor-fixed twin must be completely silent.
      EXPECT_EQ(num(doc, "race_count"), 0u) << rep.analysis.races_json;
      continue;
    }
    // Every seeded race sits at the expected site pair -- and nothing
    // outside that pair is flagged (no false positives from the
    // scaffolding: spawn/join edges order the main thread's setup and
    // epilogue against the workers).
    const JsonValue* races = doc.find("races");
    ASSERT_NE(races, nullptr);
    ASSERT_TRUE(races->is_array());
    ASSERT_GT(races->items.size(), 0u) << e.name;
    for (const JsonValue& r : races->items) {
      EXPECT_TRUE(pair_matches(r, e.site_a, e.site_b))
          << e.name << ": unexpected race between " << str(r, "first_site")
          << " and " << str(r, "second_site");
    }
  }
}

TEST(RaceDetector, CounterRaceFlagsTheSharedSlot) {
  JsonValue doc = races_doc(analyze_races(racecorpus::racy_counter(), 11));
  // The lost update races on the counter slot of Main's statics record:
  // both the plain read (getstatic) and the plain write (putstatic) in
  // `worker` must appear, and the shadow location is the statics object.
  bool found = false;
  for (const JsonValue& r : doc.find("races")->items) {
    if (str(r, "class") != "<statics:Main>") continue;
    EXPECT_TRUE(pair_matches(r, "Main.worker:", "Main.worker:"));
    found = true;
  }
  EXPECT_TRUE(found) << doc.find("races")->items.size();
}

TEST(RaceDetector, PublishRaceFlagsThePayloadField) {
  JsonValue doc = races_doc(analyze_races(racecorpus::racy_publish(), 11));
  // Unsynchronized publication races on the payload object itself (the
  // `data` field written by pub, read by sub), not just the statics.
  bool payload = false;
  for (const JsonValue& r : doc.find("races")->items) {
    if (str(r, "class") != "Obj") continue;
    EXPECT_TRUE(pair_matches(r, "Main.pub:", "Main.sub:"));
    EXPECT_TRUE(starts_with(str(r, "alloc_site"), "Main.pub:"));
    payload = true;
  }
  EXPECT_TRUE(payload);
}

TEST(RaceDetector, VerdictsAreScheduleStable) {
  // The HB verdict depends on the synchronization structure, not on which
  // interleaving the recorder happened to capture: racy guests stay racy
  // and fixed twins stay silent across distinct schedules.
  for (uint64_t seed : {3u, 7u, 19u}) {
    for (const racecorpus::CorpusEntry& e : racecorpus::race_corpus()) {
      SCOPED_TRACE(std::string(e.name) + " seed " + std::to_string(seed));
      JsonValue doc = races_doc(analyze_races(e.make(), seed));
      if (e.racy) EXPECT_GT(num(doc, "race_count"), 0u);
      else EXPECT_EQ(num(doc, "race_count"), 0u);
    }
  }
}

// ------------------------------------------------ pinned artifacts

TEST(RaceDetector, ArtifactDigestsArePinned) {
  // FNV-1a digests of races_json, pinned so that a change to how the
  // detector keys sites, aggregates races or renders them shows up as a
  // digest change. The corpus covers every verdict; counter_race on 4 lanes
  // brings cross-lane edges; lock_pingpong brings wait/notify; alloc_churn
  // on a 256 KiB semispace moves objects between accesses.
  struct Case {
    const char* name;
    bytecode::Program prog;
    uint64_t seed;
    uint32_t lanes;
    size_t semispace;  // 0 = the default heap
    uint64_t digest;
  };
  std::vector<Case> cases;
  const uint64_t kCorpus[] = {0xd03060c2c9b98302ull, 0xb9cc308beb529f51ull,
                              0x7ed50584a9c1a2abull, 0x8dc1b60045e88ed2ull,
                              0x243530321200690dull, 0x85ca3e012eb5acf6ull};
  size_t i = 0;
  for (const racecorpus::CorpusEntry& e : racecorpus::race_corpus()) {
    ASSERT_LT(i, std::size(kCorpus));
    cases.push_back({e.name, e.make(), 11, 1, 0, kCorpus[i++]});
  }
  ASSERT_EQ(i, std::size(kCorpus));
  cases.push_back({"counter_race", workloads::counter_race(4, 200), 7, 1, 0,
                   0xffea2a17d3ec4833ull});
  cases.push_back({"counter_race_4lanes", workloads::counter_race(4, 200), 7,
                   4, 0, 0x4a7841b4c5538decull});
  cases.push_back({"lock_pingpong", workloads::lock_pingpong(2000), 5, 1, 0,
                   0xb3d99183682e826full});
  cases.push_back({"clock_mixer_racy", workloads::clock_mixer_racy(3, 200), 7,
                   1, 0, 0xc08ddff0b71e9dc3ull});
  cases.push_back({"alloc_churn_small_heap", workloads::alloc_churn(2000, 8, 4),
                   7, 1, size_t(1) << 18, 0xb855c23a3b52ba78ull});
  for (const Case& c : cases) {
    vm::VmOptions opts;
    opts.lanes = c.lanes;
    if (c.semispace != 0) opts.heap.size_bytes = c.semispace;
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    threads::VirtualTimer timer(c.seed, 4, 60);
    replay::SymmetryConfig rec_cfg;
    rec_cfg.lanes = c.lanes;
    replay::RecordResult rec =
        replay::record_run(c.prog, opts, env, timer, nullptr, rec_cfg);
    replay::SymmetryConfig cfg;
    cfg.obs.analyze_races = true;
    replay::ReplayResult rep = replay::replay_run(c.prog, rec.trace, opts, cfg);
    ASSERT_TRUE(rep.verified) << c.name << ": " << rep.stats.first_violation;
    const std::string& json = rep.analysis.races_json;
    EXPECT_EQ(hash_string(json), c.digest)
        << c.name << " (" << json.size() << " bytes)";
  }
}

// ------------------------------------------------ perturbation-freedom

// PR 5's golden symmetry contract extended to the race detector: replaying
// the committed golden trace with the detector attached consumes the same
// bytes and reproduces the same behaviour as a bare replay.
TEST(RaceDetector, GoldenReplayIdenticalWithDetectorOnAndOff) {
  bytecode::Program prog = workloads::clock_mixer(2, 12);
  auto run = [&](bool races) {
    replay::SymmetryConfig cfg;
    cfg.obs.analyze_races = races;
    replay::ReplaySession session(
        prog, replay::open_trace_source(golden_path("clock_mixer.v4.djv")),
        {}, cfg);
    struct Out {
      replay::ReplayResult result;
      uint64_t schedule_end, events_end;
    } o{session.finish(), session.engine().schedule_stream_pos(),
        session.engine().events_stream_pos()};
    return o;
  };
  auto off = run(false);
  auto on = run(true);
  ASSERT_TRUE(off.result.verified);
  ASSERT_TRUE(on.result.verified);
  EXPECT_EQ(on.result.summary, off.result.summary);
  EXPECT_EQ(on.result.output, off.result.output);
  EXPECT_EQ(on.schedule_end, off.schedule_end);
  EXPECT_EQ(on.events_end, off.events_end);
  EXPECT_EQ(on.result.stats.checkpoints, off.result.stats.checkpoints);
  EXPECT_FALSE(off.result.analysis.any());
  EXPECT_FALSE(on.result.analysis.races_json.empty());
}

TEST(RaceDetector, ReplayBehaviourIdenticalOnRacyGuest) {
  // Same invariant on a guest that actually produces race reports: the
  // detector's bookkeeping must not perturb the replay it observes.
  bytecode::Program prog = racecorpus::racy_publish();
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(11, 4, 60);
  replay::RecordResult rec = replay::record_run(prog, {}, env, timer);
  replay::SymmetryConfig off;
  replay::SymmetryConfig on;
  on.obs.analyze_races = true;
  replay::ReplayResult r_off = replay::replay_run(prog, rec.trace, {}, off);
  replay::ReplayResult r_on = replay::replay_run(prog, rec.trace, {}, on);
  ASSERT_TRUE(r_off.verified);
  ASSERT_TRUE(r_on.verified);
  EXPECT_EQ(r_on.summary, r_off.summary);
  EXPECT_EQ(r_on.output, r_off.output);
  EXPECT_EQ(r_on.stats.checkpoints, r_off.stats.checkpoints);
}

// ------------------------------------------------ the merger

// Three per-run documents with overlapping and distinct site pairs.
std::vector<std::string> corpus_docs() {
  std::vector<std::string> docs;
  for (const char* name : {"racy_counter", "racy_lazy_init", "racy_publish"}) {
    for (const racecorpus::CorpusEntry& e : racecorpus::race_corpus()) {
      if (std::string(e.name) != name) continue;
      docs.push_back(analyze_races(e.make(), 11).analysis.races_json);
    }
  }
  docs.push_back(analyze_races(racecorpus::racy_counter(), 19)
                     .analysis.races_json);
  return docs;
}

TEST(RacesMerger, FoldIsOrderIndependentAndAssociative) {
  std::vector<std::string> docs = corpus_docs();

  RacesMerger all;
  for (const std::string& d : docs) all.add_json(d);
  std::string flat = all.artifact();

  // Order independence: reversed fold, same bytes.
  RacesMerger rev;
  for (auto it = docs.rbegin(); it != docs.rend(); ++it) rev.add_json(*it);
  EXPECT_EQ(rev.artifact(), flat);

  // Associativity: merge-of-merged equals merge-of-all. A merged document
  // re-enters the fold carrying its merged_runs weight.
  RacesMerger left;
  left.add_json(docs[0]);
  left.add_json(docs[1]);
  RacesMerger right;
  for (size_t i = 2; i < docs.size(); ++i) right.add_json(docs[i]);
  RacesMerger outer;
  outer.add_json(left.artifact());
  outer.add_json(right.artifact());
  EXPECT_EQ(outer.artifact(), flat);

  JsonValue merged = parse_json(flat);
  EXPECT_EQ(num(merged, "merged_runs"), docs.size());
}

TEST(RacesMerger, CountsAreRunWeighted) {
  std::string doc = analyze_races(racecorpus::racy_counter(), 11)
                        .analysis.races_json;
  JsonValue one = parse_json(doc);
  RacesMerger m;
  m.add_json(doc);
  m.add_json(doc);
  m.add_json(doc);
  JsonValue three = parse_json(m.artifact());
  EXPECT_EQ(num(three, "merged_runs"), 3u);
  EXPECT_EQ(num(three, "dynamic_count"), 3 * num(one, "dynamic_count"));
  EXPECT_EQ(num(three, "race_count"), num(one, "race_count"));
  ASSERT_FALSE(three.find("races")->items.empty());
  EXPECT_EQ(num(three.find("races")->items[0], "count"),
            3 * num(one.find("races")->items[0], "count"));
}

TEST(RacesMerger, RejectsForeignSchema) {
  RacesMerger m;
  EXPECT_THROW(m.add_json("{\"schema\":\"dejavu-heap-v1\"}"), VmError);
  // A document of its own kind that holds only the schema is rejected too,
  // not folded as zeros.
  EXPECT_THROW(m.add_json("{\"schema\":\"dejavu-races-v1\"}"), VmError);
  EXPECT_EQ(m.runs(), 0u);
}

// ------------------------------------------------ unit-level edges

TEST(RaceDetector, MonitorEdgeOrdersHandoff) {
  // t1 writes under the monitor and releases; t2 acquires and reads: the
  // release/acquire edge orders the pair, so no race.
  RaceDetector d;
  vm::InstrEvent instr;
  static const std::string owner = "Main";
  static const std::string method = "m";
  instr.owner = &owner;
  instr.method = &method;
  instr.pc = 1;
  instr.tid = 1;
  d.on_instruction(instr);
  vm::AllocEvent alloc;
  alloc.addr = heap::Addr(0x1000);
  alloc.class_id = 7;
  alloc.tid = 1;
  d.on_heap_alloc(alloc);
  d.on_heap_write(heap::Addr(0x1000), 0, 42, false);
  vm::MonitorEvent rel;
  rel.op = vm::MonitorOp::kExit;
  rel.tid = 1;
  rel.monitor = 5;
  d.on_monitor_event(rel);
  vm::MonitorEvent acq;
  acq.op = vm::MonitorOp::kEnterAcquired;
  acq.tid = 2;
  acq.monitor = 5;
  d.on_monitor_event(acq);
  instr.tid = 2;
  instr.pc = 9;
  d.on_instruction(instr);
  d.on_heap_read(heap::Addr(0x1000), 0, 42, false);
  EXPECT_EQ(num(parse_json(d.artifact()), "race_count"), 0u);

  // The same read without the acquire races.
  RaceDetector d2;
  instr.tid = 1;
  d2.on_instruction(instr);
  d2.on_heap_alloc(alloc);
  d2.on_heap_write(heap::Addr(0x1000), 0, 42, false);
  instr.tid = 2;
  d2.on_instruction(instr);
  d2.on_heap_read(heap::Addr(0x1000), 0, 42, false);
  JsonValue doc = parse_json(d2.artifact());
  ASSERT_EQ(num(doc, "race_count"), 1u);
  EXPECT_EQ(str(doc.find("races")->items[0], "kind"), "write-read");
}

TEST(RaceDetector, ShadowStateFollowsHeapMoves) {
  // A copying-GC move relocates the object; accesses before and after the
  // move hit the same shadow cell (stable identity), so the race is still
  // detected across the move.
  RaceDetector d;
  vm::InstrEvent instr;
  static const std::string owner = "Main";
  static const std::string method = "m";
  instr.owner = &owner;
  instr.method = &method;
  instr.tid = 1;
  d.on_instruction(instr);
  vm::AllocEvent alloc;
  alloc.addr = heap::Addr(0x2000);
  alloc.class_id = 7;
  alloc.tid = 1;
  d.on_heap_alloc(alloc);
  d.on_heap_write(heap::Addr(0x2000), 3, 1, false);
  d.on_heap_move(heap::Addr(0x2000), heap::Addr(0x9000));
  instr.tid = 2;
  d.on_instruction(instr);
  d.on_heap_write(heap::Addr(0x9000), 3, 2, false);
  JsonValue doc = parse_json(d.artifact());
  ASSERT_EQ(num(doc, "race_count"), 1u);
  EXPECT_EQ(str(doc.find("races")->items[0], "kind"), "write-write");
  EXPECT_EQ(num(doc.find("races")->items[0], "slot"), 3u);
}

}  // namespace
}  // namespace dejavu::obs
