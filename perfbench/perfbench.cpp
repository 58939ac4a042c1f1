// perfbench: the end-to-end benchmark of the replay platform.
//
// One process runs one workload through the whole pipeline, timing calls
// into the public API from the outside:
//
//   setup     DejaVuEngine + Vm ctor + Vm::boot (engine attach), before the
//             first guest instruction
//   bare      vm::Vm::run with no hooks (the floor)
//   record    replay::record_run_to (v4 file)
//   replay    replay::replay_file, non-strict
//   analyze   replay_file with the five analyzers `dejavu analyze` enables
//   flight    flight::record_flight into the ring, sealed at exit
//   tail      flight::replay_tail_file on the sealed tail
//   step_back debugger::TimeTravelDebugger::step_back(1) at seeded positions
//
// The stages' calls interleave, a fixed number per stage (see Plan) sized
// to take about --seconds, and each metric is the median over its stage's
// calls, each call's time scaled by a host-speed calibration taken around
// it (see calibration_slice). Every call is also an operation with a
// correctness check. An operation the platform itself reports as failed (a
// replay that is not verified, a crash, a thrown error) counts as failed;
// one that claims success with a wrong result also counts as failed and is
// flagged `wrong`. Failures are printed on stderr as they happen and are
// never retried or hidden. Because the calls are fixed, so are the
// operations: two runs of the same code attempt the same ones.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// breakdown instead: odd rounds record one span per timed call, even rounds
// run the same calls without spans, and the difference is the tracing
// overhead. The spans are written as Chrome trace_event JSON.
//
// The last stdout line is one JSON object (workload, seed, trace, instrs,
// attempted, failed, wrong, failures, checks, notes, samples -- every
// call's scaled seconds, by stage -- and metrics); run.py builds this
// binary, runs it and validates that line against BENCHMARK.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <unordered_map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/debugger/time_travel.hpp"
#include "src/flight/session.hpp"
#include "src/heap/heap.hpp"
#include "src/obs/json.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_io.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/vm/vm.hpp"
#include "src/workloads/workloads.hpp"

using namespace dejavu;

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- spans -----------------------------------------------------------------

// One span per timed call: name, start, end and parent, kept in memory and
// written once when the run ends. Disabled, only the clock reads remain.
class Tracer {
 public:
  bool enabled = false;

  int open(const char* name) {
    if (!enabled) return -1;
    spans_.push_back({name, secs(epoch_, Clock::now()), 0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[size_t(id)].end_s = secs(epoch_, Clock::now());
    stack_.pop_back();
  }

  // Chrome trace_event JSON of "X" (complete) events. Each event carries
  // its span id, its parent's id (-1 for a root) and the run id shared by
  // every span of this workload run; the viewer nests the spans and shows
  // each one's self time.
  std::string to_chrome_json(const std::string& run_id) const {
    obs::JsonWriter j;
    j.begin_object().key("traceEvents").begin_array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      j.begin_object()
          .kv("name", s.name)
          .kv("cat", "perfbench")
          .kv("ph", "X")
          .kv("ts", s.start_s * 1e6)
          .kv("dur", (s.end_s - s.start_s) * 1e6)
          .kv("pid", int64_t{1})
          .kv("tid", int64_t{1});
      j.key("args")
          .begin_object()
          .kv("id", uint64_t{i})
          .kv("parent", int64_t{s.parent})
          .kv("run", run_id)
          .end_object()
          .end_object();
    }
    j.end_array().kv("displayTimeUnit", "ms").end_object();
    return j.str() + "\n";
  }
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;  // static string
    double start_s = 0, end_s = 0;
    int parent = -1;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

struct SpanScope {
  explicit SpanScope(const char* name) : id(g_tracer.open(name)) {}
  ~SpanScope() { g_tracer.close(id); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id;
};

// Times fn() as one span; returns seconds.
template <typename Fn>
double timed(const char* name, Fn&& fn) {
  SpanScope span(name);
  auto t0 = Clock::now();
  fn();
  return secs(t0, Clock::now());
}

// ---- checks ----------------------------------------------------------------

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::map<std::string, uint64_t> runs;  // check name -> operations checked
  std::vector<std::string> failures;

  // `reported_ok`: the platform reported success. `right`: the result is
  // what it must be. Either being false fails the operation.
  void expect(const std::string& name, bool reported_ok, bool right,
              const std::string& detail) {
    ++attempted;
    ++runs[name];
    if (reported_ok && right) return;
    ++failed;
    if (reported_ok) ++wrong;
    std::string msg = name + (reported_ok ? " (wrong result): " : ": ") +
                      detail;
    std::fprintf(stderr, "perfbench: FAILED %s\n", msg.c_str());
    if (failures.size() < 16) failures.push_back(msg);
  }
};

Checks g_checks;

// ---- workloads -------------------------------------------------------------

// The calls a run makes. They are fixed per workload and scale only with
// --seconds, never with how fast the host happens to be, so a run's
// operations -- and the failures among them -- are the same on every run.
// Sized so a run takes a little less than --seconds on the development
// host (see manifest.json "timing").
struct Plan {
  // --trace 0: calls per stage in a run of kPlanSeconds, pipeline order.
  int setup, bare, record, replay, analyze, flight, tail;
  // --trace 1: rounds in a run of kPlanSeconds, and calls per round of
  // the cheap stages (bare, record, replay, flight) and of tail.
  int rounds, reps, tail_reps;
};
constexpr double kPlanSeconds = 30;

struct Workload {
  const char* name;
  bytecode::Program (*make)(int64_t n);
  int64_t n_full;
  int64_t n_tiny;
  size_t semispace_bytes;  // 0 = the VM's default heap
  Plan plan;
};

// Sizes: every guest runs >= 10^6 instructions. compute(2, 400000) is 13.6M
// instructions, enough that its schedule stream (~69 KB) passes the 64 KiB
// guest buffer, where replay is known to diverge today. lock_pingpong
// stays at 1.3M because its analysis cost grows faster than its length.
// alloc_churn runs on a 1 MiB semispace so the copying collector runs
// every ~12k allocations (the default 32 MiB would never collect).
const Workload kWorkloads[] = {
    {"compute", [](int64_t n) { return workloads::compute(2, n); }, 400000,
     40, 0, {16, 5, 4, 4, 4, 4, 20, 2, 1, 5}},
    {"clock_mixer", [](int64_t n) { return workloads::clock_mixer(3, n); },
     60000, 10, 0, {20, 16, 12, 12, 7, 12, 30, 3, 2, 5}},
    {"lock_pingpong", [](int64_t n) { return workloads::lock_pingpong(n); },
     20000, 10, 0, {20, 30, 25, 25, 8, 25, 40, 4, 4, 6}},
    {"alloc_churn",
     [](int64_t n) { return workloads::alloc_churn(n, 8, 4); }, 100000, 20,
     1u << 20, {150, 50, 40, 40, 18, 30, 150, 6, 4, 16}},
};

// The CLI's recording environment and native registry; the timer seed is
// the benchmark's --seed.
struct RecordEnv {
  explicit RecordEnv(uint64_t seed)
      : env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17), timer(seed, 40, 400) {
    natives.register_native(
        "host.mix", [](vm::NativeContext& nc, const std::vector<int64_t>& a) {
          int64_t acc = 17;
          for (int64_t v : a) acc = acc * 31 + v;
          if (!a.empty() && nc.vm().runtime_class("Main") != nullptr &&
              nc.vm().runtime_class("Main")->find_method("cb") != nullptr) {
            acc += nc.call_guest("Main", "cb", {a[0]});
          }
          return acc;
        });
  }
  vm::ScriptedEnvironment env;
  threads::VirtualTimer timer;
  vm::NativeRegistry natives;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  std::string workdir = ".";
};

// The analyzers `dejavu analyze` enables by default; races is opt-in there
// (--races) and is measured only on its own, in the per-layer run.
const char* const kDefaultAnalyzers[] = {"profile", "locks", "heap",
                                         "critpath", "cachesim"};

replay::SymmetryConfig replay_cfg(const std::vector<std::string>& analyzers) {
  replay::SymmetryConfig cfg;
  cfg.strict = false;
  for (const std::string& an : analyzers) {
    cfg.obs.analyze_profile |= an == "profile";
    cfg.obs.analyze_locks |= an == "locks";
    cfg.obs.analyze_heap |= an == "heap";
    cfg.obs.analyze_critpath |= an == "critpath";
    cfg.obs.analyze_cachesim |= an == "cachesim";
    cfg.obs.analyze_races |= an == "races";
  }
  return cfg;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

uint64_t metric(const obs::MetricsSnapshot& m, const char* name) {
  const obs::MetricSample* s = m.find(name);
  return s == nullptr ? 0 : s->value;
}

std::string replay_failure(const replay::ReplayResult& r) {
  return "replay DIVERGED: " + r.stats.first_violation + " (logical clock " +
         std::to_string(r.stats.first_violation_clock) + ")";
}

// ---- host-speed calibration ------------------------------------------------

// This machine's speed drifts by +-20% over seconds to minutes (other
// tenants share its cores and caches), and the drift hits allocation- and
// cache-heavy code -- the interpreter's heap, the trace buffers, the
// analyzers' tables -- more than a plain arithmetic loop. So every timed
// call runs between two ~1.5 ms slices of a fixed hash-table workload
// (insert kCalibKeys seeded keys into a fresh std::unordered_map, then walk
// it), and its time is reported scaled to a reference host on which one
// insert takes kRefNsPerInsert:
//
//   reported = measured * kRefNsPerInsert / (mean ns per insert of the two
//                                            slices around the call)
//
// Over 8 runs each of clock_mixer and lock_pingpong it steadied the stage
// medians more than a switch-dispatch loop did on most stages, analyze most
// (run-to-run spread 12% -> 5% and 7% -> 5%; see manifest.json).
// The slice is none of the repo's code, so a change to the platform moves
// the reported times exactly as it moves the measured ones. The traced run
// reports the measured slice speed (bench.calibration_ns_per_insert).
constexpr double kRefNsPerInsert = 75.0;
constexpr int kCalibKeys = 20000;

// Seconds per insert of one calibration slice.
double calibration_slice() {
  [[maybe_unused]] static volatile uint64_t sink;
  double s = timed("calibrate", [&] {
    SplitMix64 rng(11);
    std::unordered_map<uint64_t, uint64_t> m;
    for (int i = 0; i < kCalibKeys; ++i) m[rng.next()] = uint64_t(i);
    uint64_t acc = 0;
    for (const auto& [k, v] : m) acc += k ^ v;
    sink = acc;
  });
  return s / double(kCalibKeys);
}

// ---- the pipeline ----------------------------------------------------------

class Bench {
 public:
  Bench(const Args& a, const Workload& w)
      : seed_(a.seed),
        prog_(w.make(a.tiny ? w.n_tiny : w.n_full)),
        trace_path_(a.workdir + "/full.djv"),
        tail_path_(a.workdir + "/tail.djv") {
    if (w.semispace_bytes != 0) opts_.heap.size_bytes = w.semispace_bytes;
  }
  ~Bench() {
    std::error_code ec;
    std::filesystem::remove(trace_path_, ec);
    std::filesystem::remove(tail_path_, ec);
  }

  // Runs op, a public call plus its check, as one operation: a thrown
  // error is the platform reporting failure.
  void op(const char* check, const std::function<void()>& fn) {
    calibrated([&] {
      try {
        fn();
      } catch (const std::exception& e) {
        g_checks.expect(check, false, false,
                        std::string("threw: ") + e.what());
      }
    });
  }

  // Runs fn between two calibration slices; the times it adds are scaled by
  // their mean (see calibration_slice).
  void calibrated(const std::function<void()>& fn) {
    const double before = calibration_slice();
    fn();
    const double after = calibration_slice();
    for (double c : {before, after}) samples_["calibrate"].push_back({c, c});
    for (const auto& [key, i] : pending_)
      samples_[key][i].cal = 0.5 * (before + after);
    pending_.clear();
  }

  // A recording-ready VM: engine + Vm ctor + boot (engine attach).
  void setup() {
    calibrated([&] {
      RecordEnv re(seed_);
      add("setup", timed("setup", [&] {
            replay::DejaVuEngine engine;
            vm::Vm v(prog_, opts_, re.env, re.timer, &engine, &re.natives);
            v.boot();
          }));
    });
  }

  // Measured seconds per calibration insert, median over the run.
  double calibration() { return raw_med("calibrate"); }

  void heap_ctor() {
    calibrated([&] {
      heap::TypeRegistry types;
      add("heap.ctor",
          timed("heap.ctor", [&] { heap::Heap h(types, opts_.heap); }));
    });
  }

  void vm_ctor() {
    calibrated([&] {
      RecordEnv re(seed_);
      add("vm.ctor", timed("vm.ctor", [&] {
            vm::Vm v(prog_, opts_, re.env, re.timer, nullptr, &re.natives);
          }));
    });
  }

  // Vm::run alone; the ctor and dtor are outside the timed call.
  void bare() {
    op("bare_runs", [&] {
      RecordEnv re(seed_);
      vm::Vm v(prog_, opts_, re.env, re.timer, nullptr, &re.natives);
      add("bare", timed("bare.Vm::run", [&] { v.run(); }));
      bare_ = v.summary();
      bare_output_ = v.output();
      g_checks.expect("bare_runs", true,
                      bare_.instr_count > 0 && !bare_output_.empty(),
                      "the bare run printed nothing");
    });
  }

  void record() {
    op("record_unperturbed", [&] {
      RecordEnv re(seed_);
      replay::RecordFileResult r;
      add("record", timed("record.record_run_to", [&] {
            r = replay::record_run_to(trace_path_, prog_, opts_, re.env,
                                      re.timer, &re.natives);
          }));
      rec_output_ = r.output;
      rec_stats_ = r.stats;
      rec_metrics_ = r.metrics;
      trace_bytes_ = std::filesystem::file_size(trace_path_);
      g_checks.expect("record_unperturbed", true, unperturbed(r.summary),
                      "the recorded run differs from the bare run");
    });
  }

  void record_in_memory() {
    op("record_mem_unperturbed", [&] {
      RecordEnv re(seed_);
      replay::RecordResult r;
      add("record_mem", timed("record.record_run", [&] {
            r = replay::record_run(prog_, opts_, re.env, re.timer,
                                   &re.natives);
          }));
      g_checks.expect("record_mem_unperturbed", true, unperturbed(r.summary),
                      "the in-memory recording differs from the bare run");
    });
  }

  // `analyzers` empty: plain replay. Passes only if verified and the
  // output equals the recorded output.
  void replay(const char* key, const char* span, const char* check,
              const std::vector<std::string>& analyzers) {
    op(check, [&] {
      replay::ReplayResult r;
      add(key, timed(span, [&] {
            r = replay::replay_file(prog_, trace_path_, opts_,
                                    replay_cfg(analyzers));
          }));
      if (analyzers.empty()) replay_output_ = r.output;
      bool right = r.output == rec_output_;
      if (analyzers.size() > 1) {
        const obs::AnalysisResults& x = r.analysis;
        artifact_bytes_ = x.profile_json.size() + x.profile_collapsed.size() +
                          x.locks_json.size() + x.heap_json.size() +
                          x.critpath_json.size() + x.cachesim_json.size();
        right = right && !x.profile_json.empty() && !x.locks_json.empty() &&
                !x.heap_json.empty() && !x.critpath_json.empty() &&
                !x.cachesim_json.empty();
      }
      g_checks.expect(check, r.verified, right,
                      r.verified ? "output or artifacts missing/different"
                                 : replay_failure(r));
    });
  }

  void flight() {
    op("flight_sealed", [&] {
      RecordEnv re(seed_);
      flight::FlightRecordResult r;
      add("flight", timed("flight.record_flight", [&] {
            r = flight::record_flight(tail_path_, prog_, opts_, re.env,
                                      re.timer, flight::FlightConfig{},
                                      &re.natives);
          }));
      flight_ = r.flight;
      tail_bytes_ = std::filesystem::file_size(tail_path_);
      g_checks.expect("flight_sealed", !r.crashed && r.flight.sealed,
                      r.output == bare_output_ && r.seal_reason == "dump",
                      r.crashed ? "guest crashed: " + r.error
                                : "sealed as '" + r.seal_reason +
                                      "' or output differs from bare");
    });
  }

  // Passes only if verified and its output is the matching suffix of the
  // full replay's output.
  void tail() {
    op("tail_suffix", [&] {
      flight::TailReplayResult r;
      add("tail", timed("tail.replay_tail_file", [&] {
            r = flight::replay_tail_file(prog_, tail_path_, opts_,
                                         replay_cfg({}));
          }));
      bool ok = r.replay.verified && !r.crashed;
      g_checks.expect("tail_suffix", ok,
                      ends_with(replay_output_, r.replay.output),
                      ok ? "tail output is not a suffix of the full replay"
                         : replay_failure(r.replay));
    });
  }

  void decode() {
    op("decode_nonempty", [&] {
      size_t decoded = 0;
      add("decode", timed("replay.decode", [&] {
            replay::FileTraceSource src(trace_path_);
            decoded = replay::decode_schedule(src).entries.size() +
                      replay::decode_events(src).size();
          }));
      g_checks.expect("decode_nonempty", true, decoded > 0,
                      "decoded no schedule entries or events");
    });
  }

  // Builds a time-travel debugger over the recorded trace and, with
  // `goto_end`, runs it forward from 0 to the end. The `samples` seeded
  // positions lie one per equal slice of [1, end], jittered within the
  // slice; step_back() visits them in ascending order, so every relocation
  // to the next position is a forward one and only step_back goes back.
  void open_time_travel(int samples, bool goto_end) {
    op("step_back_position", [&] {
      replay::TraceFile trace = replay::TraceFile::load(trace_path_);
      const uint64_t end = trace.meta.final_instr_count;
      add("debugger.ctor", timed("debugger.ctor", [&] {
            tt_ = std::make_unique<debugger::TimeTravelDebugger>(
                prog_, std::move(trace), opts_);
          }));
      if (goto_end) {
        add("debugger.goto", timed("debugger.goto_instruction",
                                   [&] { tt_->goto_instruction(end); }));
        g_checks.expect("goto_reaches_end", true, tt_->position() == end,
                        "forward goto stopped at " +
                            std::to_string(tt_->position()));
      }
      SplitMix64 rng(seed_ * 0x9e3779b97f4a7c15ull + 11);
      for (int i = 0; i < samples; ++i) {
        uint64_t lo = 1 + end * uint64_t(i) / uint64_t(samples);
        uint64_t hi = 1 + end * uint64_t(i + 1) / uint64_t(samples);
        uint64_t jitter = hi > lo ? rng.next_range(0, hi - lo - 1) : 0;
        positions_.push_back(std::min(end, lo + jitter));
      }
    });
  }

  // Steps back once at the next position; false when none is left.
  bool step_back() {
    if (tt_ == nullptr || next_position_ >= positions_.size()) return false;
    const uint64_t pos = positions_[next_position_++];
    op("step_back_position", [&] {
      tt_->goto_instruction(pos);
      add("step_back", timed("step_back", [&] { tt_->step_back(1); }));
      g_checks.expect("step_back_position", true, tt_->position() == pos - 1,
                      "step_back(1) from " + std::to_string(pos) +
                          " landed at " + std::to_string(tt_->position()));
    });
    return true;
  }
  size_t step_backs_left() const {
    return positions_.size() - next_position_;
  }

  // The calls' times, each scaled by its calibration to the reference host.
  std::vector<double> times(const std::string& k) {
    std::vector<double> v;
    for (const Sample& x : samples_[k])
      v.push_back(x.s * kRefNsPerInsert * 1e-9 / x.cal);
    return v;
  }
  double med(const std::string& k) { return median(times(k)); }
  // Unscaled median, for the time budget.
  double raw_med(const std::string& k) {
    std::vector<double> v;
    for (const Sample& x : samples_[k]) v.push_back(x.s);
    return median(v);
  }
  std::vector<std::string> keys() const {
    std::vector<std::string> v;
    for (const auto& [k, x] : samples_) v.push_back(k);
    return v;
  }

  uint64_t instrs() const { return bare_.instr_count; }
  const vm::BehaviorSummary& bare_summary() const { return bare_; }
  const replay::EngineStats& rec_stats() const { return rec_stats_; }
  const obs::MetricsSnapshot& rec_metrics() const { return rec_metrics_; }
  uint64_t trace_bytes() const { return trace_bytes_; }
  uint64_t tail_bytes() const { return tail_bytes_; }
  uint64_t artifact_bytes() const { return artifact_bytes_; }
  const flight::FlightStats& flight_stats() const { return flight_; }

 private:
  void add(const std::string& key, double s) {
    samples_[key].push_back({s, NAN});
    pending_.push_back({key, samples_[key].size() - 1});
  }

  // Recording must not disturb the program: same output, same instruction
  // count, same switch sequence as the bare run.
  bool unperturbed(const vm::BehaviorSummary& s) const {
    return s.output_hash == bare_.output_hash &&
           s.instr_count == bare_.instr_count &&
           s.switch_seq_hash == bare_.switch_seq_hash;
  }

  uint64_t seed_;
  bytecode::Program prog_;
  vm::VmOptions opts_;
  std::string trace_path_, tail_path_;
  struct Sample {
    double s;    // measured seconds
    double cal;  // seconds per calibration insert around the call
  };
  std::map<std::string, std::vector<Sample>> samples_;
  std::vector<std::pair<std::string, size_t>> pending_;
  vm::BehaviorSummary bare_;
  std::string bare_output_, rec_output_, replay_output_;
  replay::EngineStats rec_stats_;
  obs::MetricsSnapshot rec_metrics_;
  uint64_t trace_bytes_ = 0, tail_bytes_ = 0, artifact_bytes_ = 0;
  flight::FlightStats flight_;
  std::unique_ptr<debugger::TimeTravelDebugger> tt_;
  std::vector<uint64_t> positions_;
  size_t next_position_ = 0;
};

// Runs op() n times.
void repeat(int n, const std::function<void()>& op) {
  for (int i = 0; i < n; ++i) op();
}

// A plan's count for a run of `seconds`: scaled from kPlanSeconds, and at
// least `min`.
int scaled(int count, double seconds, int min) {
  return std::max(min, int(std::lround(count * seconds / kPlanSeconds)));
}

// ---- output ----------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> v;
  void put(const std::string& name, double value, const std::string& unit) {
    v.push_back({name, {value, unit}});
  }
};

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--workdir D] [--tiny]\n"
               "workloads: compute clock_mixer lock_pingpong alloc_churn\n");
  return 2;
}

// Step-back samples per run, and how many of them lie beyond the reported
// tail percentile.
constexpr int kStepSamples = 30;
constexpr int kTailBeyond = 10;
constexpr int kTinyStepSamples = 8;
constexpr int kTinyTailBeyond = 2;
// A host this many times slower than the plan assumes stops starting
// stage calls at kOverrunFactor x --seconds (and says so), so the run still
// ends within its time limit.
constexpr double kOverrunFactor = 3;

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string k = argv[i];
      auto val = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(k);
        return argv[++i];
      };
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val()), a.seed_set = true;
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val());
      else if (k == "--workdir") a.workdir = val();
      else if (k == "--tiny") a.tiny = true;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads)
    if (a.workload == x.name) w = &x;
  if (w == nullptr || !a.seed_set || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1))
    return usage();
  std::filesystem::create_directories(a.workdir);

  const auto t0 = Clock::now();
  auto elapsed = [&] { return secs(t0, Clock::now()); };
  Bench b(a, *w);
  Metrics m;
  std::vector<std::string> notes;
  const Plan& plan = w->plan;
  auto overrun = [&] {
    if (elapsed() < kOverrunFactor * a.seconds) return false;
    notes.push_back("OVERRUN: the host is slower than the plan assumes; "
                    "stopped starting calls at " +
                    std::to_string(elapsed()) + " s");
    return true;
  };

  if (a.trace == 0) {
    // Interleaved stages: each call goes to the stage that has made the
    // smallest share of its planned calls, so every stage's calls spread
    // over the whole run and its median sees the same machine as the
    // others'. The first call of each stage runs in pipeline order (record
    // before replay, flight before tail); the step-back samples keep pace
    // with the stage calls.
    struct Stage {
      const char* key;
      int count;
      std::function<void()> run;
      int runs = 0;
    };
    const int min_runs = a.tiny ? 1 : 2;
    const double sec = a.tiny ? 0 : a.seconds;
    const int step_n = a.tiny ? kTinyStepSamples : kStepSamples;
    const int beyond = a.tiny ? kTinyTailBeyond : kTailBeyond;
    std::vector<Stage> stages = {
        {"setup", scaled(plan.setup, sec, a.tiny ? 3 : 7),
         [&] { b.setup(); }},
        {"bare", scaled(plan.bare, sec, min_runs), [&] { b.bare(); }},
        {"record", scaled(plan.record, sec, min_runs), [&] { b.record(); }},
        {"replay", scaled(plan.replay, sec, min_runs),
         [&] { b.replay("replay", "replay.replay_file", "replay_verified",
                        {}); }},
        {"analyze", scaled(plan.analyze, sec, min_runs),
         [&] { b.replay("analyze", "analyze.replay_file", "analyze_verified",
                        {std::begin(kDefaultAnalyzers),
                         std::end(kDefaultAnalyzers)}); }},
        {"flight", scaled(plan.flight, sec, min_runs), [&] { b.flight(); }},
        {"tail", scaled(plan.tail, sec, min_runs), [&] { b.tail(); }},
    };
    int total = 0, done = 0;
    for (const Stage& st : stages) total += st.count;
    while (done < total && !overrun()) {
      Stage* next = nullptr;
      for (Stage& st : stages) {
        if (st.runs == st.count) continue;
        if (st.runs == 0) {
          next = &st;
          break;
        }
        if (next == nullptr || (st.runs + 0.5) / st.count <
                                   (next->runs + 0.5) / next->count)
          next = &st;
      }
      next->run();
      ++next->runs;
      ++done;
      if (next->runs == 1 && std::string(next->key) == "record")
        b.open_time_travel(step_n, false);
      while (b.step_backs_left() > 0 &&
             double(step_n - b.step_backs_left()) <
                 double(step_n) * done / total)
        b.step_back();
    }
    while (b.step_back()) {
    }

    const double n = double(b.instrs());
    const double boot = b.med("setup");
    // Stage times exclude boot: the calls that build their own VM pay one.
    auto ns_per_instr = [&](const char* k, double minus) {
      return (b.med(k) - minus) * 1e9 / n;
    };
    std::vector<double> sb = b.times("step_back");
    std::sort(sb.begin(), sb.end());
    // The highest percentile with `beyond` samples above it.
    const size_t tail_idx = sb.size() > size_t(beyond)
                                ? sb.size() - size_t(beyond) - 1
                                : sb.size() - 1;
    m.put("setup_s", boot, "s");
    m.put("bare_ns_per_instr", ns_per_instr("bare", 0), "ns");
    m.put("record_ns_per_instr", ns_per_instr("record", boot), "ns");
    m.put("record_overhead_x",
          ns_per_instr("record", boot) / ns_per_instr("bare", 0), "x");
    m.put("replay_ns_per_instr", ns_per_instr("replay", boot), "ns");
    m.put("analyze_ns_per_instr", ns_per_instr("analyze", boot), "ns");
    m.put("flight_ns_per_instr", ns_per_instr("flight", boot), "ns");
    m.put("tail_replay_s", b.med("tail"), "s");
    m.put("step_back_p50_ms", 1e3 * b.med("step_back"), "ms");
    m.put("step_back_tail_ms", sb.empty() ? NAN : 1e3 * sb[tail_idx], "ms");
    m.put("trace_bytes_per_kinstr", double(b.trace_bytes()) * 1e3 / n, "B");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    char note[128];
    std::snprintf(note, sizeof note,
                  "step_back_tail_ms is p%.1f: sample %zu of %zu, %zu beyond",
                  100.0 * double(tail_idx + 1) / double(sb.size()),
                  tail_idx + 1, sb.size(), sb.size() - tail_idx - 1);
    notes.push_back(note);
  } else {
    // A fixed number of rounds of every per-layer call. Odd rounds record
    // spans, even ones do not: the per-layer run needs at least one of each.
    const int rounds = a.tiny ? 2 : scaled(plan.rounds, a.seconds, 2);
    const int reps = a.tiny ? 1 : plan.reps;
    const int tail_reps = a.tiny ? 1 : plan.tail_reps;
    std::vector<double> round_s[2];  // [0] spans off, [1] spans on
    for (int r = 0; r < rounds && (r < 2 || !overrun()); ++r) {
      g_tracer.enabled = r % 2 == 1;
      auto rt = Clock::now();
      {
        SpanScope round("round");
        for (int i = 0; i < 3; ++i) b.heap_ctor();
        for (int i = 0; i < 3; ++i) b.vm_ctor();
        for (int i = 0; i < 3; ++i) b.setup();
        repeat(reps, [&] { b.bare(); });
        repeat(reps, [&] { b.record_in_memory(); });
        repeat(reps, [&] { b.record(); });
        b.decode();
        repeat(reps, [&] {
          b.replay("replay", "replay.replay_file", "replay_verified", {});
        });
        b.replay("analyze", "analyze.replay_file", "analyze_verified",
                 {std::begin(kDefaultAnalyzers), std::end(kDefaultAnalyzers)});
        b.replay("obs.profile", "obs.profile", "obs_verified", {"profile"});
        b.replay("obs.locks", "obs.locks", "obs_verified", {"locks"});
        b.replay("obs.heap", "obs.heap", "obs_verified", {"heap"});
        b.replay("obs.critpath", "obs.critpath", "obs_verified",
                 {"critpath"});
        b.replay("obs.cachesim", "obs.cachesim", "obs_verified",
                 {"cachesim"});
        b.replay("obs.races", "obs.races", "obs_verified", {"races"});
        repeat(reps, [&] { b.flight(); });
        repeat(tail_reps, [&] { b.tail(); });
      }
      round_s[r % 2].push_back(secs(rt, Clock::now()));
    }
    notes.push_back("rounds " + std::to_string(round_s[0].size() +
                                               round_s[1].size()));
    g_tracer.enabled = true;
    {
      SpanScope tt("time_travel");
      b.open_time_travel(4, true);
      while (b.step_back()) {
      }
    }

    const double n = double(b.instrs());
    const vm::BehaviorSummary& bs = b.bare_summary();
    const obs::MetricsSnapshot& rm = b.rec_metrics();
    auto per_instr = [&](double s) { return s * 1e9 / n; };
    auto ms = [&](double s) { return 1e3 * s; };
    const double boot = b.med("setup"), bare = b.med("bare");
    const double replay = b.med("replay");

    m.put("heap.ctor_ms", ms(b.med("heap.ctor")), "ms");
    m.put("heap.gc_count", double(bs.gc_count), "count");
    m.put("heap.alloc_count", double(bs.alloc_count), "count");
    m.put("vm.boot_ms", ms(b.med("vm.ctor")), "ms");
    m.put("vm.ns_per_instr", per_instr(bare), "ns");
    m.put("vm.instrs", n, "count");
    m.put("vm.yield_points", double(bs.yield_points), "count");
    m.put("threads.switches_per_kinstr", 1e3 * double(bs.switch_count) / n,
          "1/kinstr");
    m.put("threads.preempts_per_kinstr", 1e3 * double(bs.preempt_count) / n,
          "1/kinstr");
    m.put("replay.record_hook_ns_per_instr",
          per_instr(b.med("record_mem") - boot - bare), "ns");
    m.put("replay.sink_io_ns_per_instr",
          per_instr(b.med("record") - b.med("record_mem")), "ns");
    m.put("replay.decode_ms", ms(b.med("decode")), "ms");
    m.put("replay.replay_hook_ns_per_instr", per_instr(replay - boot - bare),
          "ns");
    m.put("replay.nd_events", double(b.rec_stats().nd_events()), "count");
    m.put("replay.preempt_switches", double(b.rec_stats().preempt_switches),
          "count");
    m.put("replay.schedule_bytes",
          double(metric(rm, "engine.trace.schedule_bytes")), "B");
    m.put("replay.events_bytes",
          double(metric(rm, "engine.trace.events_bytes")), "B");
    m.put("replay.mirror_bytes", double(metric(rm, "engine.mirror.bytes")),
          "B");
    for (const char* an :
         {"profile", "locks", "heap", "critpath", "cachesim", "races"})
      m.put(std::string("obs.") + an + "_ms",
            ms(b.med(std::string("obs.") + an) - replay), "ms");
    m.put("obs.artifact_bytes", double(b.artifact_bytes()), "B");
    m.put("flight.self_ns_per_instr",
          per_instr(b.med("flight") - b.med("record")), "ns");
    m.put("flight.checkpoints", double(b.flight_stats().checkpoints),
          "count");
    m.put("flight.ring_bytes", double(b.flight_stats().bytes_retained), "B");
    m.put("flight.tail_bytes", double(b.tail_bytes()), "B");
    m.put("debugger.ctor_ms", ms(b.med("debugger.ctor")), "ms");
    m.put("debugger.goto_ns_per_instr", per_instr(b.med("debugger.goto")),
          "ns");
    m.put("bench.calibration_ns_per_insert", 1e9 * b.calibration(), "ns");
    m.put("bench.trace_overhead_pct",
          100.0 * (median(round_s[1]) / median(round_s[0]) - 1.0), "%");

    const std::string spans = a.workdir + "/spans.json";
    const std::string run_id = std::string(w->name) + "-seed" +
                               std::to_string(a.seed) + "-pid" +
                               std::to_string(getpid());
    if (std::FILE* f = std::fopen(spans.c_str(), "w")) {
      std::string j = g_tracer.to_chrome_json(run_id);
      std::fwrite(j.data(), 1, j.size(), f);
      std::fclose(f);
      notes.push_back(std::to_string(g_tracer.size()) +
                      " spans (Chrome trace_event JSON) in " + spans);
    }
  }

  std::string stages = "unscaled medians (s):";
  for (const std::string& k : b.keys()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.4f(x%zu)", k.c_str(), b.raw_med(k),
                  b.times(k).size());
    stages += buf;
  }
  notes.push_back(stages);
  char cal[160];
  std::snprintf(cal, sizeof cal,
                "calibration %.2f ns/insert (median); each reported time "
                "is scaled by the calibration around its call",
                1e9 * b.calibration());
  notes.push_back(cal);
  for (const std::string& s : notes)
    std::fprintf(stderr, "perfbench: %s\n", s.c_str());

  obs::JsonWriter j;
  j.begin_object()
      .kv("workload", w->name)
      .kv("seed", a.seed)
      .kv("trace", int64_t{a.trace})
      .kv("instrs", b.instrs())
      .kv("attempted", g_checks.attempted)
      .kv("failed", g_checks.failed)
      .kv("wrong", g_checks.wrong)
      .kv("wall_s", elapsed());
  j.key("failures").begin_array();
  for (const std::string& f : g_checks.failures) j.value(f);
  j.end_array().key("checks").begin_object();
  for (const auto& [k, v] : g_checks.runs) j.kv(k, v);
  j.end_object().key("notes").begin_array();
  for (const std::string& nt : notes) j.value(nt);
  j.end_array().key("samples").begin_object();
  for (const std::string& k : b.keys()) {
    if (k == "calibrate") continue;
    j.key(k).begin_array();
    for (double t : b.times(k)) j.value(t);
    j.end_array();
  }
  j.end_object().key("metrics").begin_object();
  for (const auto& [name, vu] : m.v)
    j.key(name).begin_object().kv("value", vu.first).kv("unit", vu.second)
        .end_object();
  j.end_object().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
