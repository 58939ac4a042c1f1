// Tests for the analysis artifact table (src/obs/analysis/artifacts.hpp):
// every document the analyzers and the mergers emit passes the strict
// per-kind check, a missing or mistyped key is rejected with its JSON
// path, and no merger folds a document the check rejects.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/analysis/merge.hpp"
#include "src/obs/json.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/obs/races/corpus.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::obs {
namespace {

// One record -> replay recipe, as the ArtifactDigestsArePinned tests run
// them (the analyzer and critpath ones record with the test natives, the
// race detector's without).
struct PinnedRun {
  std::string name;
  bytecode::Program prog;
  uint64_t seed;
  uint32_t lanes;
  size_t semispace;  // 0 = the default heap
  bool natives;
};

// The union of the Analyzers, CriticalPath and RaceDetector
// ArtifactDigestsArePinned runs.
std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs = {
      {"lock_pingpong_seed5", workloads::lock_pingpong(2000), 5, 1, 0, true},
      {"lock_pingpong_seed9", workloads::lock_pingpong(2000), 9, 1, 0, true},
      {"counter_race_4lanes", workloads::counter_race(4, 200), 7, 4, 0, true},
      {"producer_consumer", workloads::producer_consumer(200, 4), 7, 1, 0,
       true},
      {"philosophers", workloads::philosophers(5, 20), 7, 1, 0, true},
      {"alloc_churn_small_heap", workloads::alloc_churn(2000, 8, 4), 7, 1,
       size_t(1) << 18, true},
  };
  for (const racecorpus::CorpusEntry& e : racecorpus::race_corpus())
    runs.push_back({e.name, e.make(), 11, 1, 0, false});
  runs.push_back({"counter_race", workloads::counter_race(4, 200), 7, 1, 0,
                  false});
  runs.push_back({"counter_race_4lanes_races", workloads::counter_race(4, 200),
                  7, 4, 0, false});
  runs.push_back({"lock_pingpong_races", workloads::lock_pingpong(2000), 5, 1,
                  0, false});
  runs.push_back({"clock_mixer_racy", workloads::clock_mixer_racy(3, 200), 7, 1,
                  0, false});
  runs.push_back({"alloc_churn_small_heap_races",
                  workloads::alloc_churn(2000, 8, 4), 7, 1, size_t(1) << 18,
                  false});
  return runs;
}

// The run replayed with every analyzer of the table on.
AnalysisResults analyze(const PinnedRun& run) {
  vm::VmOptions opts;
  opts.lanes = run.lanes;
  if (run.semispace != 0) opts.heap.size_bytes = run.semispace;
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(run.seed, 4, 60);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  replay::SymmetryConfig rec_cfg;
  rec_cfg.lanes = run.lanes;
  replay::RecordResult rec =
      replay::record_run(run.prog, opts, env, timer,
                         run.natives ? &natives : nullptr, rec_cfg);
  replay::SymmetryConfig cfg;
  for (const ArtifactKind& k : artifact_kinds()) cfg.obs.*k.enable = true;
  replay::ReplayResult rep = replay::replay_run(run.prog, rec.trace, opts, cfg);
  EXPECT_TRUE(rep.verified) << run.name << ": " << rep.stats.first_violation;
  return rep.analysis;
}

TEST(ArtifactSchema, PinnedRunsAndTheirMergesValidate) {
  std::vector<std::unique_ptr<ArtifactMerger>> mergers;
  for (const ArtifactKind& k : artifact_kinds())
    mergers.push_back(k.make_merger());
  const std::vector<PinnedRun> runs = pinned_runs();
  for (const PinnedRun& run : runs) {
    AnalysisResults a = analyze(run);
    for (size_t i = 0; i < artifact_kinds().size(); ++i) {
      const ArtifactKind& k = artifact_kinds()[i];
      SCOPED_TRACE(run.name + " " + k.name);
      const std::string& doc = a.*k.result;
      ASSERT_FALSE(doc.empty());
      EXPECT_NO_THROW(check_artifact(parse_json(doc), k.schema));
      EXPECT_NO_THROW(mergers[i]->add_json(doc));
    }
  }
  for (size_t i = 0; i < artifact_kinds().size(); ++i) {
    const ArtifactKind& k = artifact_kinds()[i];
    SCOPED_TRACE(k.name);
    EXPECT_EQ(mergers[i]->runs(), runs.size());
    JsonValue merged = parse_json(mergers[i]->artifact());
    EXPECT_NO_THROW(check_artifact(merged, k.schema));
    EXPECT_FALSE(render_artifact(merged).empty());
  }
}

// The object holding the last step of `path` ("methods[0].hot_pcs[0].op"),
// and that step's key; nullptr when the path does not exist in `doc`.
JsonValue* parent_of(JsonValue* doc, const std::string& path,
                     std::string* key) {
  JsonValue* at = doc;
  size_t pos = 0;
  while (true) {
    size_t dot = path.find('.', pos);
    std::string step = path.substr(pos, dot - pos);
    size_t bracket = step.find('[');
    *key = step.substr(0, bracket);
    if (dot == std::string::npos && bracket == std::string::npos) return at;
    JsonValue* v = const_cast<JsonValue*>(at->find(*key));
    if (v == nullptr) return nullptr;
    if (bracket != std::string::npos) {
      size_t i = std::stoul(step.substr(bracket + 1));
      if (!v->is_array() || i >= v->items.size()) return nullptr;
      v = &v->items[i];
    }
    if (dot == std::string::npos) return nullptr;  // path ends in an index
    at = v;
    pos = dot + 1;
  }
}

// Where a violation under `path` is reported: the path of the object that
// holds the key, "top" for the document itself.
std::string location(const std::string& path) {
  size_t dot = path.rfind('.');
  return dot == std::string::npos ? "top" : path.substr(0, dot);
}

void expect_rejected(const JsonValue& doc, const std::string& want) {
  try {
    check_artifact(doc);
    ADD_FAILURE() << "accepted; expected \"" << want << "\"";
  } catch (const VmError& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
}

TEST(ArtifactSchema, MissingAndMistypedKeysNameTheirPath) {
  // One key each kind must have, and one whose type each kind fixes, both
  // inside an entry list where the kind has one.
  struct Case {
    const char* schema;
    const char* missing;
    const char* mistyped;
  };
  const Case cases[] = {
      {"dejavu-profile-v1", "methods[0].hot_pcs[0].op", "total_instructions"},
      {"dejavu-locks-v1", "monitors[0].woken", "duration_unit"},
      {"dejavu-heap-v1", "by_type[0].slots", "hot_objects[0].reads"},
      {"dejavu-races-v1", "races[0].second_site", "races[0].first_line"},
      {"dejavu-critpath-v1", "threads[0].waiting", "critical_path[0].edge"},
      {"dejavu-cachesim-v1", "by_site[0].l2_misses", "l1_ways"},
  };
  // lock_pingpong contends its monitor; the racy counter brings races.
  std::vector<AnalysisResults> sources;
  sources.push_back(analyze(pinned_runs()[0]));
  sources.push_back(analyze({"racy_counter", racecorpus::racy_counter(), 11,
                             1, 0, false}));
  ASSERT_EQ(std::size(cases), artifact_kinds().size());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.schema);
    const ArtifactKind* k = find_artifact_kind(c.schema);
    ASSERT_NE(k, nullptr);
    // The first source whose document has both paths.
    JsonValue doc;
    std::string key;
    bool found = false;
    for (const AnalysisResults& a : sources) {
      doc = parse_json(a.*k->result);
      if (parent_of(&doc, c.missing, &key) != nullptr &&
          parent_of(&doc, c.mistyped, &key) != nullptr) {
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "no source document holds both paths";
    ASSERT_NO_THROW(check_artifact(doc));

    JsonValue missing = doc;
    JsonValue* holder = parent_of(&missing, c.missing, &key);
    std::erase_if(holder->members,
                  [&](const auto& m) { return m.first == key; });
    expect_rejected(missing, location(c.missing) + ": missing key \"" + key +
                                 "\"");

    JsonValue mistyped = doc;
    holder = parent_of(&mistyped, c.mistyped, &key);
    JsonValue& v = const_cast<JsonValue&>(*holder->find(key));
    if (v.is_string()) {
      v.type = JsonValue::Type::kNumber;
    } else {
      v.type = JsonValue::Type::kString;
      v.string = "7";
    }
    expect_rejected(mistyped, location(c.mistyped) + ": key \"" + key +
                                  "\" has the wrong type");
  }
}

TEST(ArtifactSchema, EveryMergerRejectsASchemaOnlyDocument) {
  for (const ArtifactKind& k : artifact_kinds()) {
    SCOPED_TRACE(k.name);
    std::unique_ptr<ArtifactMerger> m = k.make_merger();
    EXPECT_THROW(m->add_json(std::string("{\"schema\":\"") + k.schema + "\"}"),
                 VmError);
    EXPECT_THROW(m->add_json("not json"), VmError);
    EXPECT_EQ(m->runs(), 0u);
  }
}

}  // namespace
}  // namespace dejavu::obs
