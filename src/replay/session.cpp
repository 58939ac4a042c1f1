#include "src/replay/session.hpp"

namespace dejavu::replay {

namespace {
// The VM's lane partition and the engine's per-lane logs must agree; the
// session is where both are configured, so it keeps them in lockstep
// instead of making every caller repeat the pairing.
vm::VmOptions with_lanes(vm::VmOptions opts, uint32_t lanes) {
  opts.lanes = lanes == 0 ? 1 : lanes;
  return opts;
}

// Runs a session's VM to its end and fills in what every run reports. A
// guest VmError ends the run like an exit: it is reported in `r`, and the
// engine still detaches, so a recording's sink gets its meta and seal and
// a replay still verifies. ReplayDivergence propagates.
void run_to_end(vm::Vm& v, const DejaVuEngine& engine, RunResult& r) {
  try {
    if (!v.booted()) v.boot();
    while (!v.finished()) {
      if (v.step(1u << 20) == 0 && !v.stopped_at_probe()) break;
    }
  } catch (const ReplayDivergence&) {
    throw;
  } catch (const VmError& e) {
    r.crashed = true;
    r.error = e.what();
    r.error_instr = v.instr_count();
  }
  v.finish();
  r.summary = v.summary();
  r.output = v.output();
  r.stats = engine.stats();
  r.metrics = engine.metrics();
  r.timeline = engine.timeline_events();
}
}  // namespace

RecordSession::RecordSession(const bytecode::Program& prog,
                             std::unique_ptr<TraceSink> sink,
                             vm::VmOptions opts, vm::Environment& env,
                             threads::TimerSource& timer,
                             const vm::NativeRegistry* natives,
                             SymmetryConfig cfg)
    : sink_(sink.get()),
      engine_(std::make_unique<DejaVuEngine>(std::move(sink), cfg)),
      vm_(std::make_unique<vm::Vm>(prog, with_lanes(opts, cfg.lanes), env,
                                   timer, engine_.get(), natives)) {}

RecordResult RecordSession::finish() {
  RecordResult r;
  run_to_end(*vm_, *engine_, r);
  return r;
}

TraceFile RecordSession::take_trace() {
  DV_CHECK_MSG(vm_->finished(),
               "take_trace before the recorded run finished");
  const std::vector<uint8_t>* bytes = sink_->in_memory();
  DV_CHECK_MSG(bytes != nullptr,
               "take_trace on a session whose sink keeps no trace in memory");
  return TraceFile::deserialize(*bytes);
}

RecordResult record_run(const bytecode::Program& prog, vm::VmOptions opts,
                        vm::Environment& env, threads::TimerSource& timer,
                        const vm::NativeRegistry* natives,
                        SymmetryConfig cfg) {
  RecordSession s(prog,
                  std::make_unique<VectorTraceSink>(kTraceVersionPredicted),
                  opts, env, timer, natives, cfg);
  RecordResult r = s.finish();
  r.trace = s.take_trace();
  return r;
}

RecordFileResult record_run_to(const std::string& path,
                               const bytecode::Program& prog,
                               vm::VmOptions opts, vm::Environment& env,
                               threads::TimerSource& timer,
                               const vm::NativeRegistry* natives,
                               SymmetryConfig cfg) {
  return RecordSession(prog,
                       std::make_unique<FileTraceSink>(
                           path, kTraceVersionPredicted),
                       opts, env, timer, natives, cfg)
      .finish();
}

BuiltinAnalyzers::BuiltinAnalyzers(const obs::ObsConfig& oc) {
  if (oc.analyze_profile)
    profiler = std::make_unique<obs::ReplayProfiler>(oc.analysis_top_n);
  if (oc.analyze_locks)
    locks = std::make_unique<obs::LockContentionAnalyzer>();
  if (oc.analyze_heap)
    heap = std::make_unique<obs::HeapChurnAnalyzer>(oc.analysis_top_n);
  if (oc.analyze_races) races = std::make_unique<obs::RaceDetector>();
  if (oc.analyze_critpath)
    critpath = std::make_unique<obs::CriticalPathAnalyzer>(oc.analysis_top_n);
  if (oc.analyze_cachesim)
    cachesim = std::make_unique<obs::CacheSimAnalyzer>(
        oc.cache_line_bytes,
        obs::CacheLevelConfig{oc.cache_l1_bytes, oc.cache_l1_ways},
        obs::CacheLevelConfig{oc.cache_l2_bytes, oc.cache_l2_ways},
        oc.analysis_top_n);
}

void BuiltinAnalyzers::install(DejaVuEngine& engine) const {
  if (profiler != nullptr) engine.add_analyzer(profiler.get());
  if (locks != nullptr) engine.add_analyzer(locks.get());
  if (heap != nullptr) engine.add_analyzer(heap.get());
  if (races != nullptr) engine.add_analyzer(races.get());
  if (critpath != nullptr) engine.add_analyzer(critpath.get());
  if (cachesim != nullptr) engine.add_analyzer(cachesim.get());
}

obs::AnalysisResults BuiltinAnalyzers::collect() const {
  obs::AnalysisResults r;
  if (profiler != nullptr) {
    r.profile_json = profiler->artifact();
    r.profile_collapsed = profiler->collapsed();
  }
  if (locks != nullptr) r.locks_json = locks->artifact();
  if (heap != nullptr) r.heap_json = heap->artifact();
  if (races != nullptr) r.races_json = races->artifact();
  if (critpath != nullptr) r.critpath_json = critpath->artifact();
  if (cachesim != nullptr) r.cachesim_json = cachesim->artifact();
  return r;
}

ReplayResult replay_run(const bytecode::Program& prog, const TraceFile& trace,
                        vm::VmOptions opts, SymmetryConfig cfg) {
  return ReplaySession(prog, std::make_unique<TraceFileSource>(&trace), opts,
                       cfg)
      .finish();
}

ReplayResult replay_file(const bytecode::Program& prog,
                         const std::string& path, vm::VmOptions opts,
                         SymmetryConfig cfg) {
  return ReplaySession(prog, open_trace_source(path), opts, cfg).finish();
}

ReplaySession::ReplaySession(const bytecode::Program& prog,
                             std::unique_ptr<TraceSource> source,
                             vm::VmOptions opts, SymmetryConfig cfg,
                             const ResumePoint* from)
    // All non-determinism is substituted from the trace; the live sources
    // are placeholders whose values the guest never observes.
    : env_(std::make_unique<vm::ScriptedEnvironment>(0, 1,
                                                     std::vector<int64_t>{},
                                                     0)),
      timer_(std::make_unique<threads::NullTimer>()),
      analyzers_(cfg.obs) {
  if (!source->flight_chunk().empty())
    flight_ = FlightInfo::decode(source->flight_chunk());
  // A tail's streams begin at its checkpoint: every offset is 0.
  const std::vector<uint8_t>* checkpoint = nullptr;
  StreamOffsets offsets;
  if (from != nullptr) {
    checkpoint = &from->checkpoint;
    offsets = from->offsets;
  } else if (flight_.has_value() && flight_->has_checkpoint) {
    checkpoint = &flight_->checkpoint;
  }
  // Both halves are views into *checkpoint, which outlives the boot.
  FlightCheckpointView halves;
  if (checkpoint != nullptr) halves = split_flight_checkpoint(*checkpoint);
  bool resume = checkpoint != nullptr;
  engine_ = std::make_unique<DejaVuEngine>(std::move(source), cfg);
  analyzers_.install(*engine_);  // before boot: attach fixes subscriptions
  if (!resume) {
    // Replay follows the recording's lane count, whatever the caller set.
    vm_ = std::make_unique<vm::Vm>(prog,
                                   with_lanes(opts, engine_->lane_count()),
                                   *env_, *timer_, engine_.get());
    vm_->boot();
    return;
  }
  // The resuming VM must be built with the recording's configuration (heap
  // geometry, lanes, stack) from the snapshot prologue; only host-side
  // knobs stay the caller's.
  vm::VmOptions vopts = vm::Vm::peek_snapshot_options(halves.vm_snapshot);
  vopts.echo_output = opts.echo_output;
  vopts.max_instructions = opts.max_instructions;
  engine_->prepare_resume(halves.engine_state, std::move(offsets));
  vm_ = std::make_unique<vm::Vm>(prog, vopts, *env_, *timer_, engine_.get());
  vm_->boot_from_snapshot(halves.vm_snapshot);
  start_instr_ = vm_->instr_count();
}

ReplayResult ReplaySession::finish() {
  // A crash tail reproduces its recorded crash; the recorded meta was
  // captured at the same crashed state, so a faithful replay verifies.
  ReplayResult r;
  run_to_end(*vm_, *engine_, r);
  r.verified = r.stats.verified_ok;
  r.divergence = engine_->divergence();
  r.analysis = analyzers_.collect();
  r.post_violation = engine_->strict_carried_over();
  return r;
}

}  // namespace dejavu::replay
