// Record and replay sessions.
//
// Every recording goes through one RecordSession, which builds the
// recording engine and VM over any TraceSink (memory, a file, a flight
// ring); record_run, record_run_to and flight::record_flight wrap it. Every
// replay goes through one ReplaySession: it builds the replaying engine and
// VM, re-executes from the trace and verifies accuracy (§1: the replayed
// code must exhibit *exactly* the same behaviour). A flight-recorder tail
// resumes from its embedded checkpoint there, so each replay entry point --
// replay_run, replay_file, flight::replay_tail_file, the debugger and time
// travel -- accepts full traces and tails alike. replay_run and
// replay_file are one-call wrappers; the debugger keeps the session to
// step it incrementally.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/obs/analysis/cache_sim.hpp"
#include "src/obs/analysis/critical_path.hpp"
#include "src/obs/analysis/heap_churn.hpp"
#include "src/obs/analysis/locks.hpp"
#include "src/obs/analysis/profiler.hpp"
#include "src/obs/analysis/race_detector.hpp"
#include "src/replay/engine.hpp"
#include "src/replay/trace_io.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/vm/natives.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::replay {

struct RunResult {  // what every run reports, recorded or replayed
  vm::BehaviorSummary summary;
  std::string output;
  EngineStats stats;
  obs::MetricsSnapshot metrics;            // every engine metric
  std::vector<obs::TimelineEvent> timeline;  // empty unless cfg.obs.timeline
  // The guest raised a VmError at VM instruction count `error_instr`. The
  // engine still detached: a recording's trace is complete and replays the
  // crash; a replay's `verified` says whether it reproduced it faithfully.
  bool crashed = false;
  std::string error;
  uint64_t error_instr = 0;
};

struct RecordResult : RunResult {
  TraceFile trace;  // record_run only: the recorded container bytes
};

// record_run_to's result: the trace went to a file, so `trace` is empty.
using RecordFileResult = RecordResult;

struct ReplayResult : RunResult {
  bool verified = false;  // accuracy check passed
  // First-divergence forensics (non-strict replays; strict replays carry
  // the same report on the thrown ReplayDivergence).
  std::optional<obs::DivergenceReport> divergence;
  // Rendered analyzer artifacts (empty members unless cfg.obs enables the
  // corresponding analyzer).
  obs::AnalysisResults analysis;
  // Strict-mode carry-over (cfg.strict + analyzers): a violation occurred
  // and the run was finished non-strict so the artifacts are complete; they
  // describe a post-violation execution.
  bool post_violation = false;
};

// The built-in analyzers selected by SymmetryConfig::obs, owned by the
// ReplaySession below; install() must run before the VM boots so the
// engine subscriptions are fixed at attach.
struct BuiltinAnalyzers {
  std::unique_ptr<obs::ReplayProfiler> profiler;
  std::unique_ptr<obs::LockContentionAnalyzer> locks;
  std::unique_ptr<obs::HeapChurnAnalyzer> heap;
  std::unique_ptr<obs::RaceDetector> races;
  std::unique_ptr<obs::CriticalPathAnalyzer> critpath;
  std::unique_ptr<obs::CacheSimAnalyzer> cachesim;

  explicit BuiltinAnalyzers(const obs::ObsConfig& oc);
  void install(DejaVuEngine& engine) const;
  obs::AnalysisResults collect() const;
};

// A recording VM bundled with its engine. The one place that sets up a
// recording: the session pairs cfg.lanes with VmOptions::lanes, and the
// engine records in the sink's container version -- v6 for record_run,
// record_run_to and flight::record_flight; a sink created for v4 (one lane
// only) or v5 writes those formats byte for byte.
// The environment, timer and natives supply the non-determinism
// (host-real or scripted/seeded) and must outlive the session.
class RecordSession {
 public:
  RecordSession(const bytecode::Program& prog, std::unique_ptr<TraceSink> sink,
                vm::VmOptions opts, vm::Environment& env,
                threads::TimerSource& timer,
                const vm::NativeRegistry* natives = nullptr,
                SymmetryConfig cfg = {});

  vm::Vm& vm() { return *vm_; }
  const DejaVuEngine& engine() const { return *engine_; }

  // Runs the guest to completion and detaches the engine, which writes
  // the meta block and seal to the sink. A guest VmError is reported in
  // the result (RecordResult::crashed); ReplayDivergence propagates.
  RecordResult finish();

  // After finish(), when the sink keeps the container in memory (a
  // VectorTraceSink, or a decorator over one): the recorded trace, its
  // bytes exactly as the sink holds them. Throws VmError before finish()
  // or for any other sink.
  TraceFile take_trace();

 private:
  const TraceSink* sink_;  // owned by the engine's writer
  std::unique_ptr<DejaVuEngine> engine_;
  std::unique_ptr<vm::Vm> vm_;
};

// Records one execution into memory.
RecordResult record_run(const bytecode::Program& prog, vm::VmOptions opts,
                        vm::Environment& env, threads::TimerSource& timer,
                        const vm::NativeRegistry* natives = nullptr,
                        SymmetryConfig cfg = {});

// Records one execution straight to a v6 trace file, flushing chunks as the run proceeds instead of keeping the trace
// in memory. The file holds the bytes record_run would have kept.
RecordFileResult record_run_to(const std::string& path,
                               const bytecode::Program& prog,
                               vm::VmOptions opts, vm::Environment& env,
                               threads::TimerSource& timer,
                               const vm::NativeRegistry* natives = nullptr,
                               SymmetryConfig cfg = {});

// Replays a trace. No environment or timer is consulted (all
// non-determinism comes from the trace); natives are never executed.
ReplayResult replay_run(const bytecode::Program& prog, const TraceFile& trace,
                        vm::VmOptions opts, SymmetryConfig cfg = {});

// Replays a trace file, streaming chunks from disk on demand (v4-v6) or via
// the v3 compatibility loader.
ReplayResult replay_file(const bytecode::Program& prog,
                         const std::string& path, vm::VmOptions opts,
                         SymmetryConfig cfg = {});

// A booted replaying VM bundled with its engine, analyzers and (unused)
// environment/timer. The one place that sets up a replay: finish() runs it
// to completion, the debugger steps it first.
//
// A session resumes mid-trace from a checkpoint in two cases, through one
// path: a flight tail whose descriptor carries a checkpoint (its streams
// start at the cut, so every stream offset is 0), and an explicit
// ResumePoint, which a replay of the same trace took (the time-travel
// debugger's keyframes; see DejaVuEngine::arm_keyframe). Either way the VM
// boots from the checkpoint's snapshot with the recording's VM
// configuration (only the caller's echo_output and max_instructions are
// kept) and the engine resumes at the stream offsets; both read their
// half of the checkpoint in place (split_flight_checkpoint's views).
// Otherwise the VM boots fresh with the trace's lane count.
class ReplaySession {
 public:
  // `from`, when given, is a resume point a replay of this trace took.
  ReplaySession(const bytecode::Program& prog,
                std::unique_ptr<TraceSource> source, vm::VmOptions opts,
                SymmetryConfig cfg = {}, const ResumePoint* from = nullptr);
  ReplaySession(const bytecode::Program& prog, TraceFile trace,
                vm::VmOptions opts, SymmetryConfig cfg = {})
      : ReplaySession(prog,
                      std::make_unique<TraceFileSource>(std::move(trace)),
                      opts, cfg) {}

  vm::Vm& vm() { return *vm_; }
  const DejaVuEngine& engine() const { return *engine_; }
  DejaVuEngine& engine() { return *engine_; }
  // The trace's kFlight descriptor; empty for an ordinary full trace.
  const std::optional<FlightInfo>& flight() const { return flight_; }
  // VM instruction count the replay starts from: the checkpoint's for a
  // resumed session, 0 otherwise. Nothing earlier can be replayed.
  uint64_t start_instr() const { return start_instr_; }

  // Completes the run (if not already complete) and reports verification.
  // A guest VmError is reported in the result (ReplayResult::crashed);
  // ReplayDivergence propagates.
  ReplayResult finish();

 private:
  std::unique_ptr<vm::ScriptedEnvironment> env_;
  std::unique_ptr<threads::NullTimer> timer_;
  BuiltinAnalyzers analyzers_;
  std::optional<FlightInfo> flight_;
  std::unique_ptr<DejaVuEngine> engine_;
  std::unique_ptr<vm::Vm> vm_;
  uint64_t start_instr_ = 0;
};

}  // namespace dejavu::replay
