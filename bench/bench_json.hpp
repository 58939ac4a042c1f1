// Machine-readable results for the experiment harness.
//
// Every bench_* binary accepts `--json FILE` and writes a sidecar in one
// shared schema ("dejavu-bench-v1") next to its human-readable table:
//
//   { "schema": "dejavu-bench-v1",
//     "bench":  "bench_overhead",
//     "rows":   [ { "name": "...", "metrics": { "<k>": <number>, ... } } ] }
//
// Binaries that drive a replay engine may also accept `--timeline FILE`
// and dump a Chrome trace_event timeline of one representative run.
//
// Two integration styles:
//   * google-benchmark binaries replace BENCHMARK_MAIN() with
//     DV_BENCH_MAIN("name"): the sidecar flags are stripped before
//     benchmark::Initialize (which rejects unknown flags) and a reporter
//     captures every run as a row.
//   * custom-main binaries construct a BenchSidecar from argc/argv, add()
//     rows next to their printf tables, and write() before returning.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/obs/json.hpp"
#include "src/obs/timeline.hpp"

namespace dejavu::bench {

class BenchSidecar {
 public:
  explicit BenchSidecar(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  // Consumes `--json FILE` / `--timeline FILE` from argv (compacting it in
  // place and updating *argc) so downstream flag parsers never see them.
  static BenchSidecar from_args(int* argc, char** argv,
                                const char* bench_name) {
    BenchSidecar sc(bench_name);
    int w = 1;
    for (int r = 1; r < *argc; ++r) {
      std::string a = argv[r];
      if ((a == "--json" || a == "--timeline") && r + 1 < *argc) {
        (a == "--json" ? sc.json_path_ : sc.timeline_path_) = argv[++r];
        continue;
      }
      argv[w++] = argv[r];
    }
    *argc = w;
    argv[w] = nullptr;
    return sc;
  }

  using Metrics = std::vector<std::pair<std::string, double>>;

  void add(const std::string& row_name, Metrics metrics) {
    rows_.push_back(Row{row_name, std::move(metrics)});
  }

  bool json_wanted() const { return !json_path_.empty(); }
  bool timeline_wanted() const { return !timeline_path_.empty(); }

  void set_timeline(std::vector<obs::TimelineEvent> events) {
    timeline_events_ = std::move(events);
  }

  // Writes whichever sidecars were requested; a no-op without flags, so
  // benches call it unconditionally.
  void write() const {
    if (json_wanted()) {
      write_file(json_path_, to_json());
      std::fprintf(stderr, "bench json: %s\n", json_path_.c_str());
    }
    if (timeline_wanted()) {
      write_file(timeline_path_,
                 obs::timeline_to_chrome_json(timeline_events_, bench_));
      std::fprintf(stderr, "bench timeline: %s\n", timeline_path_.c_str());
    }
  }

  std::string to_json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "dejavu-bench-v1");
    w.kv("bench", bench_);
    w.key("rows");
    w.begin_array();
    for (const Row& r : rows_) {
      w.begin_object();
      w.kv("name", r.name);
      w.key("metrics");
      w.begin_object();
      for (const auto& [k, v] : r.metrics) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Row {
    std::string name;
    Metrics metrics;
  };

  static void write_file(const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) throw VmError("cannot write " + path);
    out << body << '\n';
    DV_CHECK_MSG(out.good(), "short write: " + path);
  }

  std::string bench_;
  std::string json_path_;
  std::string timeline_path_;
  std::vector<Row> rows_;
  std::vector<obs::TimelineEvent> timeline_events_;
};

// Tees google-benchmark runs into the sidecar while keeping the normal
// console table, and counts the runs that ended in SkipWithError.
class SidecarReporter : public ::benchmark::ConsoleReporter {
 public:
  explicit SidecarReporter(BenchSidecar* sidecar) : sidecar_(sidecar) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred) {
        errored_++;
        continue;
      }
      BenchSidecar::Metrics m;
      m.emplace_back("real_time", r.GetAdjustedRealTime());
      m.emplace_back("cpu_time", r.GetAdjustedCPUTime());
      m.emplace_back("iterations", double(r.iterations));
      for (const auto& [name, counter] : r.counters)
        m.emplace_back(name, counter.value);
      sidecar_->add(r.benchmark_name(), std::move(m));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  int errored() const { return errored_; }

 private:
  BenchSidecar* sidecar_;
  int errored_ = 0;
};

}  // namespace dejavu::bench

// Drop-in for BENCHMARK_MAIN() with sidecar support. Exits non-zero when
// any run errored (a replay that diverged, a perturbation detected), so
// a smoke test of the bench fails on it.
#define DV_BENCH_MAIN(bench_name)                                         \
  int main(int argc, char** argv) {                                       \
    ::dejavu::bench::BenchSidecar sidecar =                               \
        ::dejavu::bench::BenchSidecar::from_args(&argc, argv, bench_name); \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::dejavu::bench::SidecarReporter reporter(&sidecar);                  \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                       \
    ::benchmark::Shutdown();                                              \
    sidecar.write();                                                      \
    if (reporter.errored() != 0) {                                        \
      std::fprintf(stderr, "%s: %d run(s) errored\n", bench_name,         \
                   reporter.errored());                                   \
      return 1;                                                           \
    }                                                                     \
    return 0;                                                             \
  }
