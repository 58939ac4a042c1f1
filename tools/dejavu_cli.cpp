// dejavu -- command-line front door to the replay platform.
//
//   dejavu list
//   dejavu record <workload> [--seed N] [--out trace.djv] [--realtime]
//                 [--flight N [--flight-epoch E]]   black-box flight ring
//   dejavu flight info <tail.djv> [--json F]        tail provenance
//   dejavu replay <workload> <trace.djv> [--strict]
//   dejavu analyze <workload> <trace.djv> [--out-dir D] [--top N]
//   dejavu analyze <workload> --diff <a.djv> <b.djv>   A/B regression report
//   dejavu dump <trace.djv>
//   dejavu diff <a.djv> <b.djv>
//   dejavu verify <trace.djv>                offline integrity check
//   dejavu convert <in.djv> <out.djv> [--v5]  copy into another container
//   dejavu sweep <workload> [--seeds N]      outcome histogram
//   dejavu fuzz [--seed N] [--iters K] [--minimize] ...   schedule fuzzer
//   dejavu report <file>                     render forensics / analysis
//   dejavu debug <workload> <trace.djv>      interactive debugger REPL
//   dejavu farm ingest --store D --workload W [--seed N] <trace.djv>...
//   dejavu farm ls --store D                 list the trace catalog
//   dejavu farm run --store D [--jobs N] [--top N] [--no-cache] [--out report.json]
//   dejavu farm gc --store D [--max-entries N] [--max-bytes B]
//                                            drop stale outcome-cache entries,
//                                            then LRU-evict to the given caps
//   dejavu farm report <report.json>         render a farm report
//
// Workloads are the built-in guest programs from src/workloads (listed by
// `dejavu list`); parameters use sensible defaults. A flag the subcommand
// does not take is refused with exit 1.
//
// `record` streams chunks to --out as the run proceeds (v6 container);
// `replay` and `dump` stream them back, so neither side materializes the
// whole trace. `verify` walks every chunk's CRC and reports the first
// corruption with its stream and file offset.
//
// `convert` copies a trace chunk for chunk: a v3, v4 or one-lane v5 trace
// becomes v4 (v5 with --v5 or more than one lane), a v6 trace stays v6.
// v6 stores clock reads as per-lane deltas and its recorded heap hash
// covers those bytes, so `--v5` of a v6 trace is refused with exit 1.
//
// Telemetry: record, replay, analyze, sweep and fuzz accept
// `--metrics-json F` (engine metric snapshot as dejavu-metrics-v1 JSON;
// sweeps and fuzz campaigns aggregate across runs) and `--timeline F`
// (Chrome trace_event JSON loadable in Perfetto / chrome://tracing). Both
// are host-side only and never perturb the recording -- the trace bytes
// are identical with them on or off.
//
// `analyze` replays a trace with the built-in analyzers (replay profiler,
// lock-contention, heap-churn, critical-path, cache simulator) attached
// through the engine's observer fan-out and writes their artifacts; the
// replay is byte-identical to a plain `replay` of the same trace.
// `analyze --diff` runs the full suite on two traces of the same workload
// and renders the artifact deltas ranked by regression. `report` renders an
// analysis artifact or the DivergenceReport block embedded in a fuzz
// reproducer (.dvfz).
//
// `farm` operates the replay farm (src/farm): `ingest` verifies traces and
// files them into a sharded on-disk store, `run` fans replay + analysis
// across a worker pool and writes a merged dejavu-farm-report-v1 whose
// bytes are identical for any --jobs value, `report` renders one.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "src/common/io.hpp"
#include "src/debugger/debugger.hpp"
#include "src/farm/outcome_cache.hpp"
#include "src/farm/report.hpp"
#include "src/farm/scheduler.hpp"
#include "src/farm/trace_store.hpp"
#include "src/flight/session.hpp"
#include "src/frontend/server.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/divergence.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeline.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"

using namespace dejavu;

namespace {

struct Entry {
  const char* name;
  const char* desc;
  bytecode::Program (*make)();
};

bytecode::Program mk_fig1() { return workloads::fig1_race(); }
bytecode::Program mk_fig1c() { return workloads::fig1_clock(); }
bytecode::Program mk_counter() { return workloads::counter_race(4, 50); }
bytecode::Program mk_locked() { return workloads::counter_locked(4, 50); }
bytecode::Program mk_pc() { return workloads::producer_consumer(100, 8); }
bytecode::Program mk_pp() { return workloads::lock_pingpong(100); }
bytecode::Program mk_churn() { return workloads::alloc_churn(3000, 16, 8); }
bytecode::Program mk_compute() { return workloads::compute(3, 3000); }
bytecode::Program mk_sleep() { return workloads::sleepers(5, 10); }
bytecode::Program mk_native() { return workloads::native_calls(20); }
bytecode::Program mk_env() { return workloads::env_reader(10); }
bytecode::Program mk_mixer() { return workloads::clock_mixer(4, 60); }
bytecode::Program mk_phil() { return workloads::philosophers(5, 20); }
bytecode::Program mk_rw() { return workloads::readers_writers(3, 2, 50); }
bytecode::Program mk_fs() { return workloads::false_sharing(40); }
bytecode::Program mk_debugt() { return workloads::debug_target(); }
bytecode::Program mk_crasher() { return workloads::crasher(3, 40, 60); }

const Entry kWorkloads[] = {
    {"fig1_race", "the paper's Figure 1 A/B race", mk_fig1},
    {"fig1_clock", "Figure 1 C/D environment branch", mk_fig1c},
    {"counter_race", "racy shared counter, 4 threads", mk_counter},
    {"counter_locked", "monitor-protected counter", mk_locked},
    {"producer_consumer", "bounded buffer, wait/notify", mk_pc},
    {"lock_pingpong", "two-thread monitor ping-pong", mk_pp},
    {"alloc_churn", "GC-heavy allocation loop", mk_churn},
    {"compute", "pure arithmetic, 3 threads", mk_compute},
    {"sleepers", "timed sleeps", mk_sleep},
    {"native_calls", "JNI-style natives + callbacks", mk_native},
    {"env_reader", "external input + randomness", mk_env},
    {"clock_mixer", "per-iteration wall-clock reads", mk_mixer},
    {"philosophers", "dining philosophers, ordered forks", mk_phil},
    {"readers_writers", "invariant-checking readers", mk_rw},
    {"false_sharing", "one hot line vs a padded twin", mk_fs},
    {"debug_target", "shapes demo for the debugger", mk_debugt},
    {"crasher", "locked counter with a div-by-zero fuse", mk_crasher},
};

const Entry* find_workload(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

vm::NativeRegistry make_natives() {
  vm::NativeRegistry reg;
  reg.register_native(
      "host.mix", [](vm::NativeContext& nc, const std::vector<int64_t>& a) {
        // Mixed in uint64_t: wraps where int64_t would overflow, with the
        // same bits.
        uint64_t acc = 17;
        for (int64_t v : a) acc = acc * 31 + uint64_t(v);
        if (!a.empty() && nc.vm().runtime_class("Main") != nullptr &&
            nc.vm().runtime_class("Main")->find_method("cb") != nullptr) {
          acc += uint64_t(nc.call_guest("Main", "cb", {a[0]}));
        }
        return int64_t(acc);
      });
  return reg;
}

int cmd_list() {
  std::printf("%-20s %s\n", "workload", "description");
  for (const Entry& e : kWorkloads) std::printf("%-20s %s\n", e.name, e.desc);
  return 0;
}

// Telemetry export destinations shared by record/replay/sweep/fuzz.
struct TelemetryOpts {
  std::string metrics_json;  // --metrics-json F ("" = off)
  std::string timeline;      // --timeline F ("" = off)
};

void write_text_file(const std::string& path, const std::string& content) {
  std::string text = content + "\n";
  dejavu::write_file(path, std::vector<uint8_t>(text.begin(), text.end()));
}

void export_telemetry(const TelemetryOpts& tel,
                      const obs::MetricsSnapshot& metrics,
                      const std::vector<obs::TimelineEvent>& events,
                      const std::string& process_name) {
  if (!tel.metrics_json.empty()) {
    write_text_file(tel.metrics_json, metrics.to_json());
    std::printf("metrics written to %s\n", tel.metrics_json.c_str());
  }
  if (!tel.timeline.empty()) {
    write_text_file(tel.timeline,
                    obs::timeline_to_chrome_json(events, process_name));
    std::printf("timeline written to %s\n", tel.timeline.c_str());
  }
}

// The size of a trace just written, for the summary lines. Only a regular
// file has one: `--out /dev/null` is a valid destination.
std::string written_size(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return "not a regular file";
  uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? "size unknown" : std::to_string(n) + "B";
}

int cmd_record(const std::string& name, uint64_t seed, bool realtime,
               const std::string& out, uint32_t lanes,
               uint32_t flight_window, uint32_t flight_epoch,
               const TelemetryOpts& tel) {
  const Entry* e = find_workload(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 1;
  }
  vm::NativeRegistry natives = make_natives();
  replay::SymmetryConfig cfg;
  cfg.lanes = lanes;
  cfg.obs.timeline = !tel.timeline.empty();
  vm::HostEnvironment host_env;
  threads::RealTimeTimer host_timer(std::chrono::microseconds(100));
  vm::ScriptedEnvironment scripted_env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  threads::VirtualTimer seeded_timer(seed == 0 ? 7 : seed, 40, 400);
  vm::Environment& env = realtime ? static_cast<vm::Environment&>(host_env)
                                  : scripted_env;
  threads::TimerSource& timer =
      realtime ? static_cast<threads::TimerSource&>(host_timer) : seeded_timer;
  // Flight mode (--flight N) writes zero trace bytes anywhere while the
  // run lasts: the bounded in-memory ring seals to --out at the end.
  flight::FlightRecordResult fr;
  replay::RecordResult& rec = fr;
  if (flight_window > 0) {
    fr = flight::record_flight(out, e->make(), {}, env, timer,
                               flight::FlightConfig{flight_window,
                                                    flight_epoch},
                               &natives, cfg);
  } else {
    rec = replay::record_run_to(out, e->make(), {}, env, timer, &natives, cfg);
  }
  std::printf("output:\n%s", rec.output.c_str());
  if (rec.crashed)
    std::printf("guest CRASHED: %s (instr %llu)\n", rec.error.c_str(),
                (unsigned long long)rec.error_instr);
  if (flight_window > 0) {
    std::printf("flight ring: %llu checkpoint(s); %llu epoch(s) retained "
                "(%llu B), %llu retired (%llu B never written)\n",
                (unsigned long long)fr.flight.checkpoints,
                (unsigned long long)fr.flight.epochs_retained,
                (unsigned long long)fr.flight.bytes_retained,
                (unsigned long long)fr.flight.epochs_retired,
                (unsigned long long)fr.flight.bytes_retired);
    std::printf("tail sealed to %s (%s, %s)\n", out.c_str(),
                fr.seal_reason.c_str(), written_size(out).c_str());
  } else {
    std::printf("instrs=%llu switches=%llu preempts=%llu events=%llu "
                "trace=%s\n",
                (unsigned long long)rec.summary.instr_count,
                (unsigned long long)rec.summary.switch_count,
                (unsigned long long)rec.stats.preempt_switches,
                (unsigned long long)rec.stats.nd_events(),
                written_size(out).c_str());
    std::printf("trace written to %s (v%u, %u lane%s)\n", out.c_str(),
                replay::kTraceVersionPredicted, lanes == 0 ? 1 : lanes,
                lanes > 1 ? "s" : "");
  }
  export_telemetry(tel, rec.metrics, rec.timeline, "dejavu record " + name);
  // A crashed guest still leaves a sealed trace that replays the crash, so
  // the invocation succeeded.
  return 0;
}

int cmd_replay(const std::string& name, const std::string& path, bool strict,
               const TelemetryOpts& tel) {
  const Entry* e = find_workload(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 1;
  }
  replay::SymmetryConfig cfg;  // lane count comes from the trace meta
  cfg.obs.timeline = !tel.timeline.empty();
  // Default is non-strict so a diverged replay still produces its full
  // stats, metrics and forensics instead of unwinding mid-run. --strict
  // restores fail-fast verification: the first violation throws and the
  // run is abandoned there.
  cfg.strict = strict;
  // Both file kinds replay through one session: an ordinary full trace
  // replays from the start, a flight tail resumes from its embedded
  // checkpoint (and reproduces its recorded crash, when it sealed on one);
  // replay_tail_file adds the tail's provenance for the header line.
  flight::TailReplayResult tr;
  try {
    tr = flight::replay_tail_file(e->make(), path, {}, cfg);
  } catch (const ReplayDivergence& d) {
    std::printf("replay DIVERGED (strict): %s\n", d.what());
    obs::DivergenceReport fr;
    if (!d.forensics().empty() && obs::extract_report(d.forensics(), &fr))
      std::fputs(fr.render().c_str(), stdout);
    return 1;
  }
  replay::ReplayResult& rep = tr.replay;
  if (tr.is_tail) std::printf("%s\n", tr.info.describe().c_str());
  std::printf("output:\n%s", rep.output.c_str());
  if (rep.crashed)
    std::printf("reproduced recorded crash: %s (instr %llu)\n",
                rep.error.c_str(), (unsigned long long)rep.error_instr);
  std::printf("replay %s\n", rep.verified ? "verified exact" : "DIVERGED");
  if (!rep.verified) {
    std::printf("first violation: %s (logical clock %llu)\n",
                rep.stats.first_violation.c_str(),
                (unsigned long long)rep.stats.first_violation_clock);
    if (rep.divergence.has_value())
      std::fputs(rep.divergence->render().c_str(), stdout);
  }
  export_telemetry(tel, rep.metrics, rep.timeline, "dejavu replay " + name);
  return rep.verified ? 0 : 1;
}

// The artifact kinds in `dejavu analyze` order: the opt-in ones last.
std::vector<const obs::ArtifactKind*> analyze_order() {
  std::vector<const obs::ArtifactKind*> order;
  for (bool opt_in : {false, true})
    for (const obs::ArtifactKind& k : obs::artifact_kinds())
      if (k.opt_in == opt_in) order.push_back(&k);
  return order;
}

// dejavu analyze: replay a trace with every built-in analyzer attached and
// write the artifacts. The analyzers observe the replay through the
// engine's fan-out, so the replay itself is bit-identical to a plain
// `dejavu replay` (tests/obs/analysis_test.cpp proves byte-identity).
int cmd_analyze(const std::string& name, const std::string& path,
                const std::string& out_dir, uint32_t top_n, bool strict,
                bool races, const TelemetryOpts& tel) {
  const Entry* e = find_workload(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 1;
  }
  replay::SymmetryConfig cfg;
  cfg.obs.timeline = !tel.timeline.empty();
  for (const obs::ArtifactKind& k : obs::artifact_kinds())
    cfg.obs.*k.enable = !k.opt_in || races;
  cfg.obs.analysis_top_n = top_n;
  // Non-strict by default: a diverged replay still yields (clearly
  // labelled) partial artifacts plus the forensics, which is what you want
  // when analyzing. With --strict the engine notes the first violation but
  // -- because analyzers are attached -- carries the run to completion
  // non-strict, so the artifacts are complete and flagged post_violation.
  cfg.strict = strict;
  flight::TailReplayResult tr =
      flight::replay_tail_file(e->make(), path, {}, cfg);
  replay::ReplayResult& rep = tr.replay;
  if (tr.is_tail) std::printf("%s\n", tr.info.describe().c_str());
  if (rep.crashed)
    std::printf("reproduced recorded crash: %s (instr %llu)\n",
                rep.error.c_str(), (unsigned long long)rep.error_instr);
  std::filesystem::create_directories(out_dir);
  auto emit = [&](const char* file, const std::string& content) {
    std::string p = out_dir + "/" + file;
    write_text_file(p, content);
    std::printf("  %s\n", p.c_str());
  };
  std::printf("replay %s; artifacts:\n",
              rep.verified ? "verified exact" : "DIVERGED");
  for (const obs::ArtifactKind* k : analyze_order())
    if (cfg.obs.*k->enable) emit(k->file, rep.analysis.*k->result);
  emit("profile.collapsed", rep.analysis.profile_collapsed);
  std::printf("flamegraph: flamegraph.pl %s/profile.collapsed > flame.svg\n",
              out_dir.c_str());
  if (strict && rep.post_violation)
    std::printf("strict: first violation at logical clock %llu (%s); run "
                "carried to completion non-strict so the artifacts above "
                "are complete -- each is flagged post_violation\n",
                (unsigned long long)rep.stats.first_violation_clock,
                rep.stats.first_violation.c_str());
  if (!rep.verified && rep.divergence.has_value())
    std::fputs(rep.divergence->render().c_str(), stdout);
  export_telemetry(tel, rep.metrics, rep.timeline, "dejavu analyze " + name);
  return rep.verified ? 0 : 1;
}

// --- `dejavu analyze --diff` -- A/B regression report ----------------------

// One keyed numeric series from an artifact's entry list.
std::map<std::string, double> keyed_series(const obs::JsonValue& doc,
                                           const obs::DiffSeries& series) {
  std::map<std::string, double> out;
  for (const obs::JsonValue& e : doc.at(series.list).items) {
    const obs::JsonValue& k = e.at(series.key);
    std::string key =
        k.is_string() ? k.string : std::to_string(uint64_t(k.number));
    out[key] += e.at(series.value).number;
  }
  return out;
}

// Renders one scalar A/B comparison line.
void diff_scalar(const char* label, double a, double b) {
  std::printf("  %-28s %14.0f %14.0f %+14.0f\n", label, a, b, b - a);
}

// Renders the union of two keyed series ranked by regression (B - A,
// largest increase first); ties and equal entries sort by key. Rows whose
// delta is zero are skipped (they carry no A/B signal); at most top_n rows.
void diff_table(const char* title, const std::map<std::string, double>& a,
                const std::map<std::string, double>& b, uint32_t top_n) {
  struct Row {
    std::string key;
    double a = 0, b = 0;
  };
  std::vector<Row> rows;
  for (const auto& [k, v] : a) rows.push_back({k, v, 0});
  for (const auto& [k, v] : b) {
    bool found = false;
    for (Row& r : rows) {
      if (r.key == k) {
        r.b = v;
        found = true;
        break;
      }
    }
    if (!found) rows.push_back({k, 0, v});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    double dx = x.b - x.a, dy = y.b - y.a;
    if (dx != dy) return dx > dy;
    return x.key < y.key;
  });
  std::printf("  %s (ranked by regression B-A):\n", title);
  std::printf("    %14s %14s %14s  %s\n", "A", "B", "delta", "key");
  uint32_t emitted = 0;
  for (const Row& r : rows) {
    if (r.a == r.b) continue;
    if (emitted++ >= top_n) break;
    std::printf("    %14.0f %14.0f %+14.0f  %s\n", r.a, r.b, r.b - r.a,
                r.key.c_str());
  }
  if (emitted == 0) std::printf("    (identical)\n");
}

// dejavu analyze --diff: replay two traces of the same workload with the
// full analyzer suite and render the deltas, regression-ranked. Both
// replays are ordinary perturbation-free analyze runs; the comparison is
// pure post-processing on the artifacts, kind by kind.
int cmd_analyze_diff(const std::string& name, const std::string& path_a,
                     const std::string& path_b, uint32_t top_n) {
  const Entry* e = find_workload(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 1;
  }
  auto run = [&](const std::string& path) {
    replay::SymmetryConfig cfg;
    for (const obs::ArtifactKind& k : obs::artifact_kinds())
      cfg.obs.*k.enable = true;
    cfg.obs.analysis_top_n = top_n;
    cfg.strict = false;
    return replay::replay_file(e->make(), path, {}, cfg);
  };
  replay::ReplayResult ra = run(path_a);
  replay::ReplayResult rb = run(path_b);
  std::printf("analyze --diff %s\n  A: %s (%s)\n  B: %s (%s)\n", name.c_str(),
              path_a.c_str(), ra.verified ? "verified" : "DIVERGED",
              path_b.c_str(), rb.verified ? "verified" : "DIVERGED");

  for (const obs::ArtifactKind* k : analyze_order()) {
    obs::JsonValue a = obs::parse_json(ra.analysis.*k->result);
    obs::JsonValue b = obs::parse_json(rb.analysis.*k->result);
    obs::check_artifact(a);
    obs::check_artifact(b);
    std::printf("%s:\n", k->name);
    if (!k->diff_scalars.empty())
      std::printf("  %-28s %14s %14s %14s\n", "", "A", "B", "delta");
    for (const char* field : k->diff_scalars)
      diff_scalar(field, a.at(field).number, b.at(field).number);
    for (const obs::DiffSeries& series : k->diff_series)
      diff_table(series.title, keyed_series(a, series),
                 keyed_series(b, series), top_n);
  }
  return ra.verified && rb.verified ? 0 : 1;
}

// dejavu flight info: render a tail's provenance descriptor.
int cmd_flight_info(const std::string& path, const std::string& json_out) {
  replay::FlightInfo info;
  if (!flight::read_flight_info(path, &info)) {
    std::fprintf(stderr, "%s is not a flight tail (no flight descriptor)\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s\n", info.describe().c_str());
  if (!json_out.empty()) {
    write_text_file(json_out, info.describe_json());
    std::printf("descriptor written to %s\n", json_out.c_str());
  }
  return 0;
}

// dejavu report: render whatever the file holds -- an analysis artifact
// (standalone JSON with a "schema" member), the DivergenceReport embedded
// in a fuzz reproducer (.dvfz) / any file containing a "dvrep 1" block, or
// -- for a trace file -- its flight-tail provenance.
int cmd_report(const std::string& path) {
  {
    std::ifstream probe(path, std::ios::binary);
    uint32_t magic = 0;
    if (probe.read(reinterpret_cast<char*>(&magic), 4) &&
        magic == replay::kTraceMagic) {
      replay::FlightInfo info;
      if (flight::read_flight_info(path, &info)) {
        std::printf("%s\n", info.describe().c_str());
        return 0;
      }
      std::printf("%s: ordinary full trace (no flight descriptor)\n",
                  path.c_str());
      return 0;
    }
  }
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  size_t first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{') {
    obs::JsonValue doc;
    try {
      doc = obs::parse_json(text);
    } catch (const VmError&) {
      // Not JSON; fall through to dvrep.
    }
    // A document with a known schema renders, or fails naming what is
    // wrong with it.
    const obs::JsonValue* schema = doc.find("schema");
    std::string s = schema != nullptr ? schema->string : "";
    if (obs::find_artifact_kind(s) != nullptr)
      return std::fputs(obs::render_artifact(doc).c_str(), stdout), 0;
    if (s == farm::kFarmReportSchema)
      return std::fputs(farm::render_farm_report(text).c_str(), stdout), 0;
  }
  obs::DivergenceReport rep;
  if (!obs::extract_report(text, &rep)) {
    std::fprintf(stderr,
                 "nothing renderable in %s (expected a dejavu-*-v1 JSON "
                 "artifact or an embedded 'dvrep 1' block)\n",
                 path.c_str());
    return 1;
  }
  std::fputs(rep.render().c_str(), stdout);
  return 0;
}

int cmd_dump(const std::string& path) {
  auto src = replay::open_trace_source(path);
  std::fputs(replay::dump_trace(*src).c_str(), stdout);
  replay::TraceStats s = replay::trace_stats(*src);
  std::printf("stats: mean yield delta %.1f (min %llu, max %llu), "
              "%llu checkpoints\n",
              s.mean_delta, (unsigned long long)s.min_delta,
              (unsigned long long)s.max_delta,
              (unsigned long long)s.checkpoints);
  if (s.lanes > 1) {
    std::printf("lanes: %u, %llu cross-lane order events\n", s.lanes,
                (unsigned long long)s.order_events);
  }
  return 0;
}

int cmd_diff(const std::string& a, const std::string& b) {
  auto sa = replay::open_trace_source(a);
  auto sb = replay::open_trace_source(b);
  replay::TraceDiff d = replay::diff_traces(*sa, *sb);
  std::printf("%s\n", d.description.c_str());
  return d.identical ? 0 : 1;
}

int cmd_verify(const std::string& path) {
  replay::TraceVerifyReport rep = replay::verify_trace_file(path);
  std::printf("%s\n", rep.describe().c_str());
  return rep.ok ? 0 : 1;
}

// The target container: a v6 trace stays v6, and a v3, v4 or one-lane v5
// trace becomes v4 (v5 when it has more than one lane); --v5 lifts a
// single-lane trace into a one-lane v5 file. v6 and v3-v5 encode clock
// reads differently, and a recording's heap hash covers the encoded bytes,
// so `--v5` of a v6 trace is refused.
int cmd_convert(const std::string& in, const std::string& out, bool to_v5) {
  auto src = replay::open_trace_source(in);
  uint32_t version = replay::kTraceVersion;
  if (to_v5 || src->lane_count() > 1) version = replay::kTraceVersionMulti;
  if (!to_v5 && src->version() >= replay::kTraceVersionPredicted)
    version = src->version();
  std::vector<uint8_t> bytes;
  try {
    bytes = replay::convert_trace(*src, version);
  } catch (const VmError& e) {
    throw VmError("convert " + in + ": " + e.what());
  }
  dejavu::write_file(out, bytes);
  std::printf("converted %s -> %s (v%u, %s)\n", in.c_str(), out.c_str(),
              version, written_size(out).c_str());
  return 0;
}

int cmd_sweep(const std::string& name, int n_seeds, const TelemetryOpts& tel) {
  const Entry* e = find_workload(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 1;
  }
  vm::NativeRegistry natives = make_natives();
  std::map<std::string, int> hist;
  // Campaign-level telemetry: per-engine metrics merge into one snapshot;
  // the timeline marks each seed's completion.
  obs::MetricsSnapshot merged;
  obs::Timeline timeline(4096);
  for (int seed = 1; seed <= n_seeds; ++seed) {
    vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
    // Fine-grained preemption: sweeps are for *finding* rare schedules.
    threads::VirtualTimer timer(uint64_t(seed), 3, 60);
    replay::RecordResult rec =
        replay::record_run(e->make(), {}, env, timer, &natives);
    if (rec.crashed)
      throw VmError("seed " + std::to_string(seed) + ": " + rec.error);
    hist[rec.output]++;
    obs::merge_snapshots(&merged, rec.metrics);
    timeline.instant("sweep", "seed_done", 0, 0, "seed", seed, "preempts",
                     int64_t(rec.stats.preempt_switches));
  }
  std::printf("%d schedules, %zu distinct outcomes:\n", n_seeds, hist.size());
  for (const auto& [out, n] : hist) {
    std::string one = out.substr(0, out.find('\n'));
    std::printf("%6d x %s\n", n, one.c_str());
  }
  export_telemetry(tel, merged, timeline.snapshot(), "dejavu sweep " + name);
  return 0;
}

// dejavu fuzz: the schedule-space fuzz campaign (src/fuzz). Exit status 0
// only when every case agreed across all record/replay configurations AND
// every injected trace corruption was detected.
int cmd_fuzz(fuzz::FuzzOptions opts, const std::string& repro,
             const TelemetryOpts& tel) {
  obs::MetricRegistry registry;
  obs::Timeline timeline(8192);
  opts.registry = &registry;
  if (!tel.timeline.empty()) opts.timeline = &timeline;
  fuzz::FuzzReport report;
  if (!repro.empty()) {
    std::printf("re-running reproducer %s\n", repro.c_str());
    report = fuzz::run_repro(repro, opts);
  } else {
    std::printf("fuzzing: seed %llu, %llu iterations%s%s\n",
                (unsigned long long)opts.seed,
                (unsigned long long)opts.iters,
                opts.minimize ? ", minimizing failures" : "",
                opts.test_skew_schedule_delta != 0 ? ", skew bug injected"
                                                   : "");
    report = fuzz::run_fuzz(opts);
  }
  std::printf("%s\n", report.summary().c_str());
  for (const fuzz::FuzzFailure& f : report.failures) {
    obs::DivergenceReport rep;
    if (!f.forensics.empty() && obs::extract_report(f.forensics, &rep)) {
      std::printf("forensics for case seed %llu (also embedded in the "
                  "reproducer; `dejavu report <file>` re-renders it):\n",
                  (unsigned long long)f.case_seed);
      std::fputs(rep.render().c_str(), stdout);
    }
  }
  export_telemetry(tel, registry.snapshot(), timeline.snapshot(),
                   "dejavu fuzz");
  return report.clean() ? 0 : 1;
}

// --- `dejavu farm` -- the replay farm (src/farm) ---------------------------

int cmd_farm_ingest(const std::string& store_dir, const std::string& workload,
                    uint64_t seed, const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "farm ingest: no trace files given\n");
    return 1;
  }
  if (find_workload(workload) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 1;
  }
  farm::TraceStore store(store_dir);
  for (const std::string& f : files) {
    farm::IngestResult r = store.ingest(f, workload, seed);
    std::printf("%s %s -> %s (%llu instrs, %llu preempts)\n",
                r.deduped ? "dup" : "new", f.c_str(), r.record.file.c_str(),
                (unsigned long long)r.record.instr_count,
                (unsigned long long)r.record.preempt_switches);
  }
  std::printf("store %s: %zu trace(s)\n", store.root().c_str(), store.size());
  return 0;
}

int cmd_farm_ls(const std::string& store_dir, uint32_t top_n) {
  farm::TraceStore store(store_dir);
  std::printf("%-18s %6s %-16s %10s %8s %6s  %s\n", "workload", "seed",
              "hash", "instrs", "preempts", "nd", "file");
  for (const farm::TraceRecord& r : store.list()) {
    std::printf("%-18s %6llu %-16s %10llu %8llu %6llu  %s%s\n",
                r.workload.c_str(), (unsigned long long)r.seed,
                r.content_hash.c_str(), (unsigned long long)r.instr_count,
                (unsigned long long)r.preempt_switches,
                (unsigned long long)r.nd_events, r.file.c_str(),
                r.flight ? "  [flight tail]" : "");
  }
  std::printf("%zu trace(s) in %s\n", store.size(), store.root().c_str());
  farm::FarmOptions fo;
  fo.top_n = top_n;
  farm::CacheScan scan =
      farm::scan_outcome_cache(store.root(), farm::outcome_config_hash(fo));
  std::printf("outcome cache: %llu hit-eligible entr%s under the current "
              "config, %llu stale%s\n",
              (unsigned long long)scan.current, scan.current == 1 ? "y" : "ies",
              (unsigned long long)scan.stale,
              scan.stale > 0 ? " (reclaim with `dejavu farm gc`)" : "");
  return 0;
}

int cmd_farm_gc(const std::string& store_dir, uint32_t top_n,
                uint64_t max_entries, uint64_t max_bytes) {
  farm::TraceStore store(store_dir);
  farm::FarmOptions fo;
  fo.top_n = top_n;
  uint64_t config_hash = farm::outcome_config_hash(fo);
  farm::CacheScan scan = farm::gc_outcome_cache(store.root(), config_hash);
  std::printf("farm gc: removed %llu stale cache entr%s, kept %llu\n",
              (unsigned long long)scan.stale, scan.stale == 1 ? "y" : "ies",
              (unsigned long long)scan.current);
  if (max_entries > 0 || max_bytes > 0) {
    farm::CacheLruResult lru = farm::lru_gc_outcome_cache(
        store.root(), config_hash, max_entries, max_bytes);
    std::printf("farm gc: LRU kept %llu entr%s (%llu B), evicted %llu "
                "(%llu B)\n",
                (unsigned long long)lru.kept, lru.kept == 1 ? "y" : "ies",
                (unsigned long long)lru.kept_bytes,
                (unsigned long long)lru.evicted,
                (unsigned long long)lru.evicted_bytes);
  }
  return 0;
}

int cmd_farm_run(const std::string& store_dir, unsigned jobs, uint32_t top_n,
                 bool use_cache, uint64_t cache_max_bytes,
                 const std::string& out) {
  farm::TraceStore store(store_dir);
  if (store.size() == 0) {
    std::fprintf(stderr, "farm run: store %s is empty\n", store_dir.c_str());
    return 1;
  }
  farm::FarmOptions fo;
  fo.jobs = jobs;
  fo.top_n = top_n;
  fo.cache = use_cache;
  fo.cache_max_bytes = cache_max_bytes;
  fo.resolve =
      [](const std::string& w) -> std::optional<bytecode::Program> {
    const Entry* e = find_workload(w);
    if (e == nullptr) return std::nullopt;
    return e->make();
  };
  farm::FarmRunResult res = farm::run_farm(store, fo);
  std::string json = farm::farm_report_json(res, top_n);
  write_text_file(out, json);
  std::fputs(farm::render_farm_report(json).c_str(), stdout);
  size_t cached = 0;
  for (const farm::TraceOutcome& o : res.outcomes) cached += o.cached ? 1 : 0;
  if (cached > 0)
    std::printf("%zu of %zu outcome(s) served from cache\n", cached,
                res.outcomes.size());
  std::printf("report written to %s\n", out.c_str());
  for (const farm::TraceOutcome& o : res.outcomes) {
    if (o.verdict != "clean") return 1;
  }
  return 0;
}

int cmd_farm_report(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::fputs(farm::render_farm_report(buf.str()).c_str(), stdout);
  return 0;
}

int cmd_debug(const std::string& name, const std::string& path) {
  const Entry* e = find_workload(name);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 1;
  }
  bytecode::Program prog = e->make();
  replay::ReplaySession session(prog, replay::open_trace_source(path), {});
  debugger::Debugger dbg(session, prog);
  frontend::Channel chan;
  frontend::DebugServer server(dbg, chan);
  frontend::DebugClient client(chan);
  std::printf("dejavu replay debugger; 'help' for commands, 'quit' exits\n");
  std::string line;
  while (std::printf("(dejavu) ") && std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    std::printf("%s\n", frontend::roundtrip(client, server, line).c_str());
  }
  return 0;
}

// The flags each subcommand takes (farm and flight: per verb). Any other
// --flag is refused, so a misspelt or retired flag cannot be silently
// ignored. Value flags consume the token after them.
struct CommandFlags {
  const char* command;
  std::vector<std::string> value_flags;
  std::vector<std::string> bool_flags;
};

const CommandFlags kCommandFlags[] = {
    {"help", {}, {}},
    {"list", {}, {}},
    {"record",
     {"--seed", "--out", "--lanes", "--flight", "--flight-epoch",
      "--metrics-json", "--timeline"},
     {"--realtime"}},
    {"flight info", {"--json"}, {}},
    {"replay", {"--metrics-json", "--timeline"}, {"--strict"}},
    {"analyze", {"--out-dir", "--top", "--metrics-json", "--timeline"},
     {"--strict", "--races", "--diff"}},
    {"report", {}, {}},
    {"dump", {}, {}},
    {"diff", {}, {}},
    {"verify", {}, {}},
    {"convert", {}, {"--v5"}},
    {"sweep", {"--seeds", "--metrics-json", "--timeline"}, {}},
    {"fuzz",
     {"--seed", "--iters", "--jobs", "--out-dir", "--inject-skew", "--repro",
      "--metrics-json", "--timeline"},
     {"--minimize", "--no-minimize", "--no-faults", "--no-baselines",
      "--no-lanes"}},
    {"debug", {}, {}},
    {"farm ingest", {"--store", "--workload", "--seed"}, {}},
    {"farm ls", {"--store", "--top"}, {}},
    {"farm gc", {"--store", "--top", "--max-entries", "--max-bytes"}, {}},
    {"farm run", {"--store", "--jobs", "--top", "--cache-max-bytes", "--out"},
     {"--no-cache"}},
    {"farm report", {}, {}},
};

// Returns the first --flag in args[first..] that `spec` does not take, or
// "" when every flag is known.
std::string unknown_flag(const CommandFlags& spec,
                         const std::vector<std::string>& args, size_t first) {
  auto listed = [](const std::vector<std::string>& v, const std::string& f) {
    return std::find(v.begin(), v.end(), f) != v.end();
  };
  for (size_t i = first; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) continue;
    if (listed(spec.value_flags, args[i])) {
      ++i;
    } else if (!listed(spec.bool_flags, args[i])) {
      return args[i];
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty()) {
    std::string cmd = args[0];
    size_t first = 1;
    if ((cmd == "farm" || cmd == "flight") && args.size() >= 2) {
      cmd += " " + args[1];
      first = 2;
    }
    for (const CommandFlags& spec : kCommandFlags) {
      if (cmd != spec.command) continue;
      std::string bad = unknown_flag(spec, args, first);
      if (!bad.empty()) {
        std::fprintf(stderr, "unknown flag %s for %s\n", bad.c_str(),
                     cmd.c_str());
        return 1;
      }
    }
  }
  auto flag_value = [&](const char* flag, const std::string& dflt) {
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == flag) return args[i + 1];
    }
    return dflt;
  };
  auto has_flag = [&](const char* f) {
    return std::find(args.begin(), args.end(), f) != args.end();
  };
  bool realtime = has_flag("--realtime");
  TelemetryOpts tel;
  tel.metrics_json = flag_value("--metrics-json", "");
  tel.timeline = flag_value("--timeline", "");

  try {
    if (args.empty() || args[0] == "help") {
      std::printf("usage: dejavu list | record <w> [--seed N] [--out F] "
                  "[--realtime] [--lanes K] "
                  "[--flight N [--flight-epoch E]] "
                  "| flight info <F> [--json OUT] "
                  "| replay <w> <F> [--strict] "
                  "| analyze <w> <F> [--out-dir D] [--top N] [--strict] "
                  "[--races] "
                  "| analyze <w> --diff <A> <B> [--top N] "
                  "| dump <F> | diff <A> <B> "
                  "| verify <F> | convert <IN> <OUT> [--v5] "
                  "| sweep <w> [--seeds N] "
                  "| fuzz [--seed N] [--iters K] [--jobs N] "
                  "[--minimize|--no-minimize] "
                  "[--no-faults] [--no-baselines] [--out-dir D] "
                  "[--inject-skew N] [--repro F] "
                  "| report <F> "
                  "| debug <w> <F> "
                  "| farm ingest --store D --workload W [--seed N] <F>... "
                  "| farm ls --store D "
                  "| farm run --store D [--jobs N] [--top N] [--no-cache] "
                  "[--cache-max-bytes B] [--out F] "
                  "| farm gc --store D [--top N] [--max-entries N] "
                  "[--max-bytes B] "
                  "| farm report <F>\n"
                  "replay runs non-strict by default (diverged runs still "
                  "report stats + forensics); --strict fails fast at the "
                  "first violation.\n"
                  "analyze replays with the profiler, lock-contention, "
                  "heap-churn, critical-path and cache-simulator analyzers "
                  "attached and writes profile.json, profile.collapsed, "
                  "locks.json, heap.json, critpath.json, cachesim.json to "
                  "--out-dir "
                  "(default /tmp/dejavu-analysis); --races additionally "
                  "attaches the happens-before race detector and writes "
                  "races.json. `analyze <w> --diff A B` replays both traces "
                  "and renders the artifact deltas ranked by regression. "
                  "`report <artifact>` renders them. With "
                  "--strict the first violation is reported but the run "
                  "completes so the artifacts are whole (flagged "
                  "post_violation).\n"
                  "farm ingest CRC-verifies traces into a sharded store; "
                  "farm run replays + analyzes the whole catalog across "
                  "--jobs workers and writes a merged dejavu-farm-report-v1 "
                  "(byte-identical for any --jobs).\n"
                  "record/replay/analyze/sweep/fuzz also accept: "
                  "[--metrics-json F] [--timeline F]\n"
                  "record --flight N keeps the last N checkpointed epochs "
                  "(--flight-epoch preempts each) in a bounded in-memory "
                  "ring -- zero trace bytes on disk while the guest is "
                  "healthy -- and seals the window to --out on a crash or "
                  "at exit as a self-contained replayable tail; replay and "
                  "analyze resume tails from the embedded checkpoint "
                  "automatically, `flight info` / `report` render a tail's "
                  "provenance, and farm ingest/run/ls handle tails like any "
                  "other trace.\n");
      return 0;
    }
    if (args[0] == "list") return cmd_list();
    if (args[0] == "record" && args.size() >= 2) {
      return cmd_record(args[1],
                        uint64_t(std::stoll(flag_value("--seed", "0"))),
                        realtime, flag_value("--out", "/tmp/dejavu.djv"),
                        uint32_t(std::stoul(flag_value("--lanes", "1"))),
                        uint32_t(std::stoul(flag_value("--flight", "0"))),
                        uint32_t(std::stoul(flag_value("--flight-epoch",
                                                       "64"))),
                        tel);
    }
    if (args[0] == "flight" && args.size() >= 3 && args[1] == "info")
      return cmd_flight_info(args[2], flag_value("--json", ""));
    if (args[0] == "replay" && args.size() >= 3)
      return cmd_replay(args[1], args[2], has_flag("--strict"), tel);
    if (args[0] == "analyze" && args.size() >= 3) {
      // analyze <w> --diff <A> <B>: A/B regression report instead of
      // artifact emission.
      for (size_t i = 2; i + 2 < args.size(); ++i) {
        if (args[i] == "--diff") {
          return cmd_analyze_diff(
              args[1], args[i + 1], args[i + 2],
              uint32_t(std::stoul(flag_value("--top", "10"))));
        }
      }
      return cmd_analyze(args[1], args[2],
                         flag_value("--out-dir", "/tmp/dejavu-analysis"),
                         uint32_t(std::stoul(flag_value("--top", "10"))),
                         has_flag("--strict"), has_flag("--races"), tel);
    }
    if (args[0] == "report" && args.size() >= 2) return cmd_report(args[1]);
    if (args[0] == "dump" && args.size() >= 2) return cmd_dump(args[1]);
    if (args[0] == "diff" && args.size() >= 3)
      return cmd_diff(args[1], args[2]);
    if (args[0] == "verify" && args.size() >= 2) return cmd_verify(args[1]);
    if (args[0] == "convert" && args.size() >= 3) {
      bool to_v5 = false;
      for (size_t i = 3; i < args.size(); ++i)
        if (args[i] == "--v5") to_v5 = true;
      return cmd_convert(args[1], args[2], to_v5);
    }
    if (args[0] == "sweep" && args.size() >= 2)
      return cmd_sweep(args[1], std::stoi(flag_value("--seeds", "50")), tel);
    if (args[0] == "fuzz") {
      fuzz::FuzzOptions fo;
      fo.seed = uint64_t(std::stoull(flag_value("--seed", "1")));
      fo.iters = uint64_t(std::stoull(flag_value("--iters", "100")));
      fo.minimize = !has_flag("--no-minimize");
      fo.fault_injection = !has_flag("--no-faults");
      fo.check_baselines = !has_flag("--no-baselines");
      fo.lane_cross = !has_flag("--no-lanes");
      fo.out_dir = flag_value("--out-dir", "/tmp/dejavu-fuzz");
      fo.test_skew_schedule_delta =
          uint32_t(std::stoul(flag_value("--inject-skew", "0")));
      fo.jobs = unsigned(std::stoul(flag_value("--jobs", "1")));
      fo.progress = [](uint64_t done, uint64_t total) {
        if (done % 25 == 0 || done == total)
          std::fprintf(stderr, "  ...%llu/%llu cases\n",
                       (unsigned long long)done, (unsigned long long)total);
      };
      return cmd_fuzz(fo, flag_value("--repro", ""), tel);
    }
    if (args[0] == "debug" && args.size() >= 3)
      return cmd_debug(args[1], args[2]);
    if (args[0] == "farm" && args.size() >= 2) {
      const std::string& verb = args[1];
      // Positional operands after the verb; every farm flag takes a value,
      // so a "--x" token always consumes the token after it.
      std::vector<std::string> pos;
      bool no_cache = false;
      for (size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--no-cache") {  // boolean: consumes no operand
          no_cache = true;
          continue;
        }
        if (args[i].rfind("--", 0) == 0) {
          ++i;
          continue;
        }
        pos.push_back(args[i]);
      }
      std::string store_dir = flag_value("--store", "/tmp/dejavu-farm");
      if (verb == "ingest") {
        return cmd_farm_ingest(store_dir, flag_value("--workload", ""),
                               uint64_t(std::stoull(flag_value("--seed",
                                                               "0"))),
                               pos);
      }
      if (verb == "ls")
        return cmd_farm_ls(store_dir,
                           uint32_t(std::stoul(flag_value("--top", "10"))));
      if (verb == "gc")
        return cmd_farm_gc(
            store_dir, uint32_t(std::stoul(flag_value("--top", "10"))),
            uint64_t(std::stoull(flag_value("--max-entries", "0"))),
            uint64_t(std::stoull(flag_value("--max-bytes", "0"))));
      if (verb == "run") {
        return cmd_farm_run(
            store_dir, unsigned(std::stoul(flag_value("--jobs", "1"))),
            uint32_t(std::stoul(flag_value("--top", "10"))), !no_cache,
            uint64_t(std::stoull(flag_value("--cache-max-bytes", "0"))),
            flag_value("--out", "/tmp/dejavu-farm-report.json"));
      }
      if (verb == "report" && !pos.empty()) return cmd_farm_report(pos[0]);
      std::fprintf(stderr, "bad farm arguments; try 'dejavu help'\n");
      return 1;
    }
    std::fprintf(stderr, "bad arguments; try 'dejavu help'\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
