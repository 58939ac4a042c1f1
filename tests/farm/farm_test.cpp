// Tests for the replay farm (src/farm): the sharded trace store, the
// worker pool, the fleet scheduler, and the merged report -- centered on
// the farm's determinism contract: the same store produces byte-identical
// merged results for ANY --jobs value, and fanning a replay out across the
// pool perturbs nothing relative to replaying the same trace directly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/farm/outcome_cache.hpp"
#include "src/farm/report.hpp"
#include "src/farm/scheduler.hpp"
#include "src/farm/trace_store.hpp"
#include "src/farm/worker_pool.hpp"
#include "src/obs/analysis/merge.hpp"
#include "src/obs/json.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::farm {
namespace {

namespace fs = std::filesystem;

// The farm fleet recipe: 5 workloads x 4 seeds = 20 traces, all tiny.
struct Wl {
  const char* name;
  bytecode::Program (*make)();
};
const Wl kFleet[] = {
    {"clock_mixer", [] { return workloads::clock_mixer(2, 12); }},
    {"lock_pingpong", [] { return workloads::lock_pingpong(30); }},
    {"counter_race", [] { return workloads::counter_race(2, 8); }},
    {"alloc_churn", [] { return workloads::alloc_churn(300, 8, 4); }},
    {"philosophers", [] { return workloads::philosophers(3, 6); }},
};
constexpr uint64_t kSeeds = 4;

std::optional<bytecode::Program> fleet_resolve(const std::string& name) {
  for (const Wl& w : kFleet) {
    if (name == w.name) return w.make();
  }
  return std::nullopt;
}

std::string fresh_dir(const std::string& name) {
  // Per-process suffix: ctest runs each TEST as its own process, and
  // concurrent processes must not remove_all each other's fixture dirs.
  fs::path p = fs::temp_directory_path() /
               ("dejavu_farm_test_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

// One deterministic recording, saved as a v4 trace file.
std::string record_to(const std::string& dir, const Wl& w, uint64_t seed) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer timer(seed, 4, 60);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  replay::RecordResult rec =
      replay::record_run(w.make(), {}, env, timer, &natives);
  std::string path = dir + "/" + std::string(w.name) + "-" +
                     std::to_string(seed) + ".djv";
  rec.trace.save(path);
  return path;
}

// Records the whole fleet once and shares the store + both farm runs
// across tests (each recording/replay is deterministic, so sharing is
// safe and keeps the suite fast).
struct Fixture {
  std::string rec_dir = fresh_dir("recordings");
  std::string store_dir = fresh_dir("store");
  std::vector<std::string> trace_files;
  FarmRunResult run1;  // jobs=1
  FarmRunResult run4;  // jobs=4

  Fixture() {
    TraceStore store(store_dir);
    for (const Wl& w : kFleet) {
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::string f = record_to(rec_dir, w, seed);
        trace_files.push_back(f);
        IngestResult r = store.ingest(f, w.name, seed);
        EXPECT_FALSE(r.deduped) << f;
      }
    }
    FarmOptions opts;
    opts.top_n = 10;
    opts.resolve = fleet_resolve;
    opts.jobs = 1;
    run1 = run_farm(store, opts);
    opts.jobs = 4;
    run4 = run_farm(store, opts);
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

// ------------------------------------------------------------ TraceStore

TEST(TraceStore, IngestDedupsByContentHash) {
  Fixture& fx = fixture();
  TraceStore store(fx.store_dir);
  ASSERT_EQ(store.size(), std::size(kFleet) * kSeeds);
  // Re-ingesting the same bytes -- even under a different workload label
  // and seed -- is a dedup, not a new entry.
  IngestResult again =
      store.ingest(fx.trace_files[0], "counter_race", 999);
  EXPECT_TRUE(again.deduped);
  EXPECT_EQ(store.size(), std::size(kFleet) * kSeeds);
  // The pre-existing entry keeps its original labels.
  EXPECT_EQ(again.record.workload, "clock_mixer");
  EXPECT_EQ(again.record.seed, 1u);
}

TEST(TraceStore, CatalogOrderIsIndependentOfIngestOrder) {
  Fixture& fx = fixture();
  std::string dir = fresh_dir("reversed");
  {
    TraceStore reversed(dir);
    for (size_t i = fx.trace_files.size(); i-- > 0;) {
      const std::string& f = fx.trace_files[i];
      // Recover workload/seed from the "<workload>-<seed>.djv" file name.
      std::string base = fs::path(f).stem().string();
      size_t dash = base.rfind('-');
      reversed.ingest(f, base.substr(0, dash),
                      std::stoull(base.substr(dash + 1)));
    }
  }
  // A fresh open (manifest reload) of both stores lists the same catalog.
  TraceStore a(fx.store_dir);
  TraceStore b(dir);
  std::vector<TraceRecord> la = a.list();
  std::vector<TraceRecord> lb = b.list();
  ASSERT_EQ(la.size(), lb.size());
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].content_hash, lb[i].content_hash) << i;
    EXPECT_EQ(la[i].workload, lb[i].workload) << i;
    EXPECT_EQ(la[i].seed, lb[i].seed) << i;
    EXPECT_EQ(la[i].instr_count, lb[i].instr_count) << i;
  }
}

TEST(TraceStore, IngestRejectsCorruptTrace) {
  Fixture& fx = fixture();
  std::string dir = fresh_dir("corrupt");
  // Copy a good trace and flip one byte in the middle of the file; the
  // chunk CRC must catch it at the ingest gate.
  std::string bad = dir + "/bad.djv";
  fs::copy_file(fx.trace_files[0], bad);
  {
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    std::streamoff size = f.tellg();
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.read(&c, 1);
    f.seekp(size / 2);
    c = char(c ^ 0x5a);
    f.write(&c, 1);
  }
  TraceStore store(dir + "/store");
  EXPECT_THROW(store.ingest(bad, "clock_mixer", 1), VmError);
  EXPECT_EQ(store.size(), 0u);
}

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPool, ParallelForOrderedMatchesSerial) {
  const size_t n = 500;
  std::vector<uint64_t> serial(n), parallel(n);
  auto fn = [](size_t i) { return uint64_t(i) * 2654435761u + 17; };
  parallel_for_ordered(1, n, [&](size_t i) { serial[i] = fn(i); });
  parallel_for_ordered(8, n, [&](size_t i) { parallel[i] = fn(i); });
  EXPECT_EQ(serial, parallel);
}

TEST(WorkerPool, BoundedQueueRunsEverythingOnce) {
  WorkerPool pool(4, /*queue_capacity=*/2);
  std::atomic<uint64_t> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum += uint64_t(i); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050u);
}

TEST(WorkerPool, FirstTaskErrorSurfacesAtWaitIdle) {
  WorkerPool pool(2);
  pool.submit([] { throw VmError("task boom"); });
  EXPECT_THROW(pool.wait_idle(), VmError);
  // The pool stays usable after the error was delivered.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran = 1; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPool, ParallelForPropagatesException) {
  EXPECT_THROW(parallel_for_ordered(4, 16,
                                    [&](size_t i) {
                                      if (i == 7) throw VmError("item boom");
                                    }),
               VmError);
}

// ------------------------------------------------- the determinism contract

TEST(FarmScheduler, FleetIsCleanAndReportByteIdenticalAcrossJobs) {
  Fixture& fx = fixture();
  ASSERT_EQ(fx.run1.outcomes.size(), std::size(kFleet) * kSeeds);
  for (const TraceOutcome& o : fx.run1.outcomes) {
    EXPECT_EQ(o.verdict, "clean")
        << o.record.workload << " seed " << o.record.seed << ": " << o.error
        << " " << o.first_violation;
  }

  // The headline guarantee: merged artifacts and the full report are
  // byte-identical for jobs=1 and jobs=4.
  EXPECT_EQ(fx.run1.merged_profile, fx.run4.merged_profile);
  EXPECT_EQ(fx.run1.merged_locks, fx.run4.merged_locks);
  EXPECT_EQ(fx.run1.merged_heap, fx.run4.merged_heap);
  EXPECT_EQ(fx.run1.merged_races, fx.run4.merged_races);
  EXPECT_EQ(fx.run1.merged_critpath, fx.run4.merged_critpath);
  EXPECT_EQ(fx.run1.merged_cachesim, fx.run4.merged_cachesim);
  EXPECT_FALSE(fx.run1.merged_critpath.empty());
  EXPECT_FALSE(fx.run1.merged_cachesim.empty());
  EXPECT_EQ(fx.run1.merged_metrics.to_json(), fx.run4.merged_metrics.to_json());
  EXPECT_EQ(farm_report_json(fx.run1, 10), farm_report_json(fx.run4, 10));

  // The fleet includes counter_race, so the merged race document must
  // carry fleet-wide verdicts for it (kSeeds runs of the same racy guest
  // dedup to the same static site pairs).
  ASSERT_FALSE(fx.run1.merged_races.empty());
  obs::JsonValue races = obs::parse_json(fx.run1.merged_races);
  EXPECT_EQ(races.find("schema")->string, "dejavu-races-v1");
  EXPECT_GT(races.find("race_count")->number, 0.0);
  bool counter = false;
  for (const obs::JsonValue& r : races.find("races")->items) {
    if (r.find("first_site")->string.rfind("Main.worker:", 0) == 0)
      counter = true;
  }
  EXPECT_TRUE(counter) << fx.run1.merged_races;
}

TEST(FarmScheduler, FarmReplayIsUnperturbedVsDirectReplay) {
  Fixture& fx = fixture();
  TraceStore store(fx.store_dir);
  std::vector<TraceRecord> records = store.list();
  // For a sample of traces, replay directly (no pool, no farm) with the
  // scheduler's exact configuration: the farm outcome must match the
  // direct replay artifact-for-artifact and metric-for-metric.
  for (size_t i = 0; i < records.size(); i += 7) {
    replay::SymmetryConfig cfg;
    cfg.strict = false;
    cfg.obs.analyze_profile = true;
    cfg.obs.analyze_locks = true;
    cfg.obs.analyze_heap = true;
    cfg.obs.analyze_races = true;
    cfg.obs.analyze_critpath = true;
    cfg.obs.analyze_cachesim = true;
    cfg.obs.analysis_top_n = 10;
    std::optional<bytecode::Program> prog =
        fleet_resolve(records[i].workload);
    ASSERT_TRUE(prog.has_value());
    replay::ReplayResult direct =
        replay::replay_file(*prog, store.resolve(records[i]), {}, cfg);
    const TraceOutcome& farm = fx.run1.outcomes[i];
    ASSERT_EQ(farm.record.content_hash, records[i].content_hash);
    EXPECT_TRUE(direct.verified);
    EXPECT_EQ(farm.verdict, "clean");
    EXPECT_EQ(farm.analysis.profile_json, direct.analysis.profile_json);
    EXPECT_EQ(farm.analysis.locks_json, direct.analysis.locks_json);
    EXPECT_EQ(farm.analysis.heap_json, direct.analysis.heap_json);
    EXPECT_EQ(farm.analysis.races_json, direct.analysis.races_json);
    EXPECT_EQ(farm.analysis.critpath_json, direct.analysis.critpath_json);
    EXPECT_EQ(farm.analysis.cachesim_json, direct.analysis.cachesim_json);
    EXPECT_EQ(farm.metrics.to_json(), direct.metrics.to_json());
  }
}

TEST(FarmScheduler, UnknownWorkloadIsAnErrorVerdictNotAnAbort) {
  Fixture& fx = fixture();
  TraceStore store(fx.store_dir);
  FarmOptions opts;
  opts.resolve = [](const std::string& name)
      -> std::optional<bytecode::Program> {
    if (name == "clock_mixer") return std::nullopt;  // pretend it vanished
    return fleet_resolve(name);
  };
  FarmRunResult res = run_farm(store, opts);
  size_t errors = 0, clean = 0;
  for (const TraceOutcome& o : res.outcomes) {
    if (o.verdict == "error") {
      errors++;
      EXPECT_EQ(o.record.workload, "clock_mixer");
      EXPECT_FALSE(o.error.empty());
    } else {
      clean++;
      EXPECT_EQ(o.verdict, "clean");
    }
  }
  EXPECT_EQ(errors, kSeeds);
  EXPECT_EQ(clean, (std::size(kFleet) - 1) * kSeeds);
}

// --------------------------------------------------- the merger algebra

// The three artifact mergers must be order-independent and composable:
// merging shuffled inputs, or merging per-subset merged documents, must
// produce the same bytes as one in-order merge of everything. (Metric
// snapshots are deliberately excluded from the shuffle property: gauges
// take the incoming value, so merge_snapshots is associative but only
// order-independent for counters/histograms -- which is why the farm
// folds metrics in catalog order.)
TEST(FarmMergers, OrderIndependentAndComposableOverTraceSubsets) {
  Fixture& fx = fixture();
  std::vector<std::string> profiles, locks, heaps, critpaths, cachesims;
  for (const TraceOutcome& o : fx.run1.outcomes) {
    profiles.push_back(o.analysis.profile_json);
    locks.push_back(o.analysis.locks_json);
    heaps.push_back(o.analysis.heap_json);
    critpaths.push_back(o.analysis.critpath_json);
    cachesims.push_back(o.analysis.cachesim_json);
  }
  ASSERT_EQ(profiles.size(), std::size(kFleet) * kSeeds);

  auto property = [](const std::vector<std::string>& docs,
                     auto make_merger, const char* what) {
    auto merge_all = [&](const std::vector<std::string>& in) {
      auto m = make_merger();
      for (const std::string& d : in) m.add_json(d);
      return m.artifact();
    };
    const std::string canonical = merge_all(docs);

    std::mt19937 rng(1234);
    for (int round = 0; round < 5; ++round) {
      // Shuffled single-level merge.
      std::vector<std::string> shuffled = docs;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      EXPECT_EQ(merge_all(shuffled), canonical)
          << what << " shuffle round " << round;

      // Random partition into subsets, merge each, then merge the merged
      // documents (merged_runs makes re-ingest weight-correct).
      size_t parts = 2 + round % 3;
      std::vector<std::vector<std::string>> subset(parts);
      for (const std::string& d : shuffled) subset[rng() % parts].push_back(d);
      auto outer = make_merger();
      for (const auto& group : subset) {
        if (group.empty()) continue;
        auto inner = make_merger();
        for (const std::string& d : group) inner.add_json(d);
        outer.add_json(inner.artifact());
      }
      EXPECT_EQ(outer.artifact(), canonical)
          << what << " subset round " << round;
    }
  };
  property(profiles, [] { return obs::ProfileMerger(); }, "profile");
  property(locks, [] { return obs::LocksMerger(); }, "locks");
  property(heaps, [] { return obs::HeapMerger(); }, "heap");
  property(critpaths, [] { return obs::CritPathMerger(); }, "critpath");
  property(cachesims, [] { return obs::CacheSimMerger(); }, "cachesim");

  // merge_snapshots associativity: folding subset-merged snapshots in
  // catalog order equals one in-order fold of everything.
  Fixture& f2 = fixture();
  obs::MetricsSnapshot whole;
  for (const TraceOutcome& o : f2.run1.outcomes)
    obs::merge_snapshots(&whole, o.metrics);
  obs::MetricsSnapshot left, right, grouped;
  size_t half = f2.run1.outcomes.size() / 2;
  for (size_t i = 0; i < half; ++i)
    obs::merge_snapshots(&left, f2.run1.outcomes[i].metrics);
  for (size_t i = half; i < f2.run1.outcomes.size(); ++i)
    obs::merge_snapshots(&right, f2.run1.outcomes[i].metrics);
  obs::merge_snapshots(&grouped, left);
  obs::merge_snapshots(&grouped, right);
  EXPECT_EQ(grouped.to_json(), whole.to_json());
}

// ------------------------------------------------------- the outcome cache

// A small dedicated store so cache state never leaks into the shared
// fixture's runs.
struct CacheFixture {
  std::string rec_dir = fresh_dir("cache_recordings");
  std::string store_dir = fresh_dir("cache_store");

  CacheFixture() {
    TraceStore store(store_dir);
    for (size_t wi = 0; wi < 2; ++wi) {
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        store.ingest(record_to(rec_dir, kFleet[wi], seed), kFleet[wi].name,
                     seed);
      }
    }
  }

  FarmRunResult run(bool cache, uint32_t top_n = 10, unsigned jobs = 2) {
    TraceStore store(store_dir);
    FarmOptions opts;
    opts.jobs = jobs;
    opts.top_n = top_n;
    opts.cache = cache;
    opts.resolve = fleet_resolve;
    return run_farm(store, opts);
  }
};

size_t cached_count(const FarmRunResult& r) {
  size_t n = 0;
  for (const TraceOutcome& o : r.outcomes) n += o.cached ? 1 : 0;
  return n;
}

TEST(FarmCache, SecondRunIsServedFromCacheByteIdentically) {
  CacheFixture fx;
  FarmRunResult fresh = fx.run(true);
  EXPECT_EQ(cached_count(fresh), 0u);

  FarmRunResult again = fx.run(true);
  EXPECT_EQ(cached_count(again), again.outcomes.size());
  // The cache must be invisible in the output: same report bytes.
  EXPECT_EQ(farm_report_json(again, 10), farm_report_json(fresh, 10));

  FarmRunResult uncached = fx.run(false);
  EXPECT_EQ(cached_count(uncached), 0u);
  EXPECT_EQ(farm_report_json(uncached, 10), farm_report_json(fresh, 10));
}

TEST(FarmCache, AnalyzerConfigChangeIsAMiss) {
  CacheFixture fx;
  fx.run(true);
  // A different top-N truncates the per-run artifacts differently, so the
  // cached outcomes must not be reused for it.
  FarmRunResult other = fx.run(true, /*top_n=*/3);
  EXPECT_EQ(cached_count(other), 0u);
  // Both configurations now coexist in the cache directory.
  FarmOptions a, b;
  a.top_n = 10;
  b.top_n = 3;
  EXPECT_NE(outcome_config_hash(a), outcome_config_hash(b));
  FarmRunResult hit10 = fx.run(true, 10);
  FarmRunResult hit3 = fx.run(true, 3);
  EXPECT_EQ(cached_count(hit10), hit10.outcomes.size());
  EXPECT_EQ(cached_count(hit3), hit3.outcomes.size());
}

// `entry` with its string member `key` set to `value`.
std::string with_member(const std::string& entry, const std::string& key,
                        const std::string& value) {
  std::string needle = "\"" + key + "\":\"";
  size_t start = entry.find(needle);
  EXPECT_NE(start, std::string::npos) << key;
  if (start == std::string::npos) return entry;
  start += needle.size();
  size_t end = start;
  while (entry[end] != '"') end += entry[end] == '\\' ? 2 : 1;
  return entry.substr(0, start) + obs::json_escape(value) + entry.substr(end);
}

// `entry` with the `,"value":N` of its first cached counter replaced by
// `replacement`.
std::string with_counter_value(const std::string& entry,
                               const std::string& replacement) {
  const std::string needle = ",\"value\":";
  size_t at = entry.find("\"kind\":\"counter\"" + needle);
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) return entry;
  at = entry.find(needle, at);
  size_t end = at + needle.size();
  while (end < entry.size() && std::isdigit((unsigned char)entry[end])) ++end;
  return entry.substr(0, at) + replacement + entry.substr(end);
}

TEST(FarmCache, DamagedEntryIsAMissNotAnError) {
  CacheFixture fx;
  FarmRunResult fresh = fx.run(true);
  fs::path cache_dir = fs::path(fx.store_dir) / "cache";
  ASSERT_TRUE(fs::exists(cache_dir));
  fs::path victim;
  for (const auto& e : fs::directory_iterator(cache_dir)) victim = e.path();
  ASSERT_FALSE(victim.empty());
  auto read = [&] {
    std::ifstream in(victim, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  auto write = [&](const std::string& text) {
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << text;
  };

  // Each damage turns the entry into a miss: the farm replays that trace
  // (which rewrites the entry whole) and produces the identical report.
  const std::string whole = read();
  const std::pair<const char*, std::string> damages[] = {
      // Truncated mid-document.
      {"truncated", whole.substr(0, whole.size() / 2)},
      // An artifact that is not JSON.
      {"non-JSON profile", with_member(whole, "profile_json", "not json")},
      // An artifact that holds only its schema.
      {"schema-only locks",
       with_member(whole, "locks_json", "{\"schema\":\"dejavu-locks-v1\"}")},
      // A metric counter without its value, or with a value that is not a
      // count.
      {"counter without value", with_counter_value(whole, "")},
      {"string counter", with_counter_value(whole, ",\"value\":\"7\"")},
      {"negative counter", with_counter_value(whole, ",\"value\":-1")},
      {"fractional counter", with_counter_value(whole, ",\"value\":1.5")},
  };
  for (const auto& [name, damaged] : damages) {
    SCOPED_TRACE(name);
    write(damaged);
    FarmRunResult again;
    ASSERT_NO_THROW(again = fx.run(true));
    EXPECT_EQ(cached_count(again), again.outcomes.size() - 1);
    EXPECT_EQ(farm_report_json(again, 10), farm_report_json(fresh, 10));
    EXPECT_EQ(read(), whole);
  }
}

TEST(FarmCache, GcDropsOrphanedConfigsAndRunRepopulates) {
  CacheFixture fx;
  // Populate the cache under two configurations.
  fx.run(true, /*top_n=*/10);
  fx.run(true, /*top_n=*/3);
  FarmOptions keep, orphan;
  keep.top_n = 10;
  orphan.top_n = 3;
  CacheScan before = scan_outcome_cache(fx.store_dir,
                                        outcome_config_hash(keep));
  EXPECT_EQ(before.current, 4u);
  EXPECT_EQ(before.stale, 4u);

  // gc under the top_n=10 config removes the top_n=3 entries only.
  CacheScan gc = gc_outcome_cache(fx.store_dir, outcome_config_hash(keep));
  EXPECT_EQ(gc.current, 4u);
  EXPECT_EQ(gc.stale, 4u);
  CacheScan after = scan_outcome_cache(fx.store_dir,
                                       outcome_config_hash(keep));
  EXPECT_EQ(after.current, 4u);
  EXPECT_EQ(after.stale, 0u);
  EXPECT_EQ(scan_outcome_cache(fx.store_dir, outcome_config_hash(orphan))
                .current,
            0u);

  // The surviving config still hits; the collected one replays fresh and
  // repopulates byte-identically.
  EXPECT_EQ(cached_count(fx.run(true, 10)), 4u);
  FarmRunResult repop = fx.run(true, 3);
  EXPECT_EQ(cached_count(repop), 0u);
  FarmRunResult hit = fx.run(true, 3);
  EXPECT_EQ(cached_count(hit), 4u);
  EXPECT_EQ(farm_report_json(hit, 3), farm_report_json(repop, 3));
}

TEST(FarmCache, LruGcKeepsMostRecentlyHitEntries) {
  CacheFixture fx;
  fx.run(true);  // populate: 4 entries under the top_n=10 config
  FarmOptions opts;
  opts.top_n = 10;
  uint64_t cfg_hash = outcome_config_hash(opts);

  // Age every entry into the past with distinct, ordered mtimes.
  fs::path cache_dir = fs::path(fx.store_dir) / "cache";
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(cache_dir))
    entries.push_back(e.path());
  ASSERT_EQ(entries.size(), 4u);
  std::sort(entries.begin(), entries.end());
  auto base = fs::file_time_type::clock::now() - std::chrono::hours(48);
  for (size_t i = 0; i < entries.size(); ++i)
    fs::last_write_time(entries[i], base + std::chrono::minutes(i));

  // Hit exactly one (otherwise-coldest) entry through the cache API: load
  // touches its mtime, which is what makes the ranking least-recently-USED
  // rather than least-recently-written.
  TraceStore store(fx.store_dir);
  std::vector<TraceRecord> records = store.list();
  OutcomeCache cache(store.root(), cfg_hash);
  // Hit the entry that is currently the COLDEST file, so mtime-of-write
  // ordering and hit ordering disagree and the test can tell them apart.
  std::string cold_name = entries[0].filename().string();
  const TraceRecord* hit_rec = nullptr;
  for (const TraceRecord& r : records)
    if (cold_name.rfind(r.content_hash, 0) == 0) hit_rec = &r;
  ASSERT_NE(hit_rec, nullptr);
  std::optional<bytecode::Program> prog = fleet_resolve(hit_rec->workload);
  ASSERT_TRUE(prog.has_value());
  ASSERT_TRUE(
      cache.load(*hit_rec, replay::fingerprint_program(*prog)).has_value());

  // Cap to one entry: the survivor must be the most-recently-hit one, not
  // the most recently written.
  CacheLruResult lru =
      lru_gc_outcome_cache(fx.store_dir, cfg_hash, /*max_entries=*/1,
                           /*max_bytes=*/0);
  EXPECT_EQ(lru.kept, 1u);
  EXPECT_EQ(lru.evicted, 3u);
  EXPECT_GT(lru.kept_bytes, 0u);
  EXPECT_GT(lru.evicted_bytes, 0u);
  std::vector<fs::path> left;
  for (const auto& e : fs::directory_iterator(cache_dir))
    left.push_back(e.path());
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].filename().string().rfind(hit_rec->content_hash, 0), 0u)
      << left[0] << " survived instead of the hit entry";

  // A byte cap of "everything fits" evicts nothing further.
  CacheLruResult noop =
      lru_gc_outcome_cache(fx.store_dir, cfg_hash, 0, 1u << 30);
  EXPECT_EQ(noop.kept, 1u);
  EXPECT_EQ(noop.evicted, 0u);
}

// ------------------------------------------------------------ the report

TEST(FarmReport, JsonIsWellFormedAndRenderable) {
  Fixture& fx = fixture();
  std::string json = farm_report_json(fx.run1, 10);
  obs::JsonValue doc = obs::parse_json(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, kFarmReportSchema);
  const obs::JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("traces")->number, double(std::size(kFleet) * kSeeds));
  EXPECT_EQ(totals->find("clean")->number, double(std::size(kFleet) * kSeeds));
  EXPECT_EQ(totals->find("error")->number, 0.0);
  const obs::JsonValue* traces = doc.find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->items.size(), std::size(kFleet) * kSeeds);
  // Embedded merged documents parse as their own schemas.
  EXPECT_EQ(doc.find("merged_profile")->find("schema")->string,
            "dejavu-profile-v1");
  EXPECT_EQ(doc.find("merged_locks")->find("schema")->string,
            "dejavu-locks-v1");
  EXPECT_EQ(doc.find("merged_heap")->find("schema")->string,
            "dejavu-heap-v1");
  EXPECT_EQ(doc.find("merged_races")->find("schema")->string,
            "dejavu-races-v1");
  EXPECT_EQ(doc.find("merged_critpath")->find("schema")->string,
            "dejavu-critpath-v1");
  EXPECT_EQ(doc.find("merged_cachesim")->find("schema")->string,
            "dejavu-cachesim-v1");
  const obs::JsonValue* methods = doc.find("top_methods");
  ASSERT_NE(methods, nullptr);
  EXPECT_FALSE(methods->items.empty());
  EXPECT_LE(methods->items.size(), 10u);

  // And the text renderer consumes it, including the two new sections.
  std::string text = render_farm_report(json);
  EXPECT_NE(text.find("farm report: 20 traces"), std::string::npos) << text;
  EXPECT_NE(text.find("clean"), std::string::npos);
  EXPECT_NE(text.find("critical path:"), std::string::npos) << text;
  EXPECT_NE(text.find("cache sim:"), std::string::npos) << text;
  EXPECT_EQ(text.find("skipped unknown artifact"), std::string::npos);
}

TEST(FarmReport, UnknownEmbeddedArtifactGetsSkippedNotice) {
  // Forward compatibility: a report produced by a newer build may embed
  // merged artifact kinds this renderer does not know. It must render the
  // rest and print a one-line notice instead of failing or silently
  // swallowing the unknown document.
  Fixture& fx = fixture();
  std::string json = farm_report_json(fx.run1, 10);
  std::string needle = "\"merged_profile\":";
  size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.insert(at,
              "\"merged_future\":{\"schema\":\"dejavu-future-v9\","
              "\"stuff\":1},");
  std::string text = render_farm_report(json);
  EXPECT_NE(text.find("skipped unknown artifact dejavu-future-v9"),
            std::string::npos)
      << text;
  // Everything known still renders.
  EXPECT_NE(text.find("farm report: 20 traces"), std::string::npos);
  EXPECT_NE(text.find("critical path:"), std::string::npos);
}

}  // namespace
}  // namespace dejavu::farm
