#include "src/flight/session.hpp"

namespace dejavu::flight {

using replay::DejaVuEngine;
using replay::kTraceVersion;
using replay::kTraceVersionMulti;

FlightRecordResult record_flight(const std::string& tail_path,
                                 const bytecode::Program& prog,
                                 vm::VmOptions opts, vm::Environment& env,
                                 threads::TimerSource& timer,
                                 FlightConfig fcfg,
                                 const vm::NativeRegistry* natives,
                                 replay::SymmetryConfig cfg) {
  DV_CHECK_MSG(fcfg.epoch_preempts >= 1, "flight epoch must be >= 1 preempt");
  uint32_t lanes = cfg.lanes == 0 ? 1 : cfg.lanes;
  uint32_t version = lanes > 1 ? kTraceVersionMulti : kTraceVersion;
  cfg.flight_epoch_preempts = fcfg.epoch_preempts;
  auto sink = std::make_unique<FlightRecorder>(version, lanes, fcfg);
  FlightRecorder* rec = sink.get();
  DejaVuEngine engine(std::move(sink), cfg);
  vm::VmOptions vopts = opts;
  vopts.lanes = lanes;
  vm::Vm v(prog, vopts, env, timer, &engine, natives);
  FlightRecordResult r;
  r.tail_path = tail_path;
  try {
    v.run();
  } catch (const VmError& e) {
    // The black-box moment: the guest died. finish() is idempotent and
    // detaches the engine, whose writer emits the meta block the tail
    // needs; then the retained window seals with the crash as its reason.
    r.crashed = true;
    r.error = e.what();
    r.error_instr = v.instr_count();
    v.finish();
  }
  r.seal_reason = r.crashed ? "crash: " + r.error : "dump";
  rec->seal_to_file(tail_path, r.seal_reason);
  r.summary = v.summary();
  r.output = v.output();
  r.stats = engine.stats();
  r.metrics = engine.metrics();
  r.flight_metrics = rec->metrics();
  r.timeline = engine.timeline_events();
  r.flight = rec->stats();
  return r;
}

TailReplayResult replay_tail(const bytecode::Program& prog,
                             std::unique_ptr<replay::TraceSource> source,
                             vm::VmOptions opts, replay::SymmetryConfig cfg) {
  TailReplayResult out;
  std::vector<uint8_t> vm_blob, eng_blob;
  const std::vector<uint8_t>& fc = source->flight_chunk();
  if (!fc.empty()) {
    out.is_tail = true;
    out.info = FlightInfo::decode(fc);
    if (out.info.has_checkpoint) {
      replay::split_flight_checkpoint(out.info.checkpoint, &vm_blob,
                                      &eng_blob);
      out.from_checkpoint = true;
    }
  }
  DejaVuEngine engine(std::move(source), cfg);
  replay::BuiltinAnalyzers analyzers(cfg.obs);
  analyzers.install(engine);
  // All non-determinism is substituted from the trace (full or tail); these
  // live sources are placeholders the guest never observes.
  vm::ScriptedEnvironment env(0, 1, {}, 0);
  threads::NullTimer timer;
  vm::VmOptions vopts;
  if (out.from_checkpoint) {
    // The resuming VM must be built with the recording's configuration
    // (heap geometry, lanes, stack) -- it comes from the snapshot prologue,
    // not from the caller; only host-side knobs stay the caller's.
    vopts = vm::Vm::peek_snapshot_options(vm_blob);
    vopts.echo_output = opts.echo_output;
    vopts.max_instructions = opts.max_instructions;
    engine.prepare_resume(std::move(eng_blob));
  } else {
    vopts = opts;
    vopts.lanes = engine.lane_count() == 0 ? 1 : engine.lane_count();
  }
  vm::Vm v(prog, vopts, env, timer, &engine);
  if (out.from_checkpoint) {
    v.boot_from_snapshot(vm_blob);
  } else {
    v.boot();
  }
  try {
    v.run();
  } catch (const ReplayDivergence&) {
    throw;  // a symmetry violation, not the reproduced crash
  } catch (const VmError& e) {
    // A crash tail reproduces its recorded crash: report it, then detach
    // so the final verification still runs (the recorded meta was captured
    // at the same crashed state, so a faithful replay verifies clean).
    out.crashed = true;
    out.error = e.what();
    out.error_instr = v.instr_count();
    v.finish();
  }
  out.replay.summary = v.summary();
  out.replay.output = v.output();
  out.replay.stats = engine.stats();
  out.replay.verified = out.replay.stats.verified_ok;
  out.replay.metrics = engine.metrics();
  out.replay.timeline = engine.timeline_events();
  out.replay.divergence = engine.divergence();
  out.replay.analysis = analyzers.collect();
  out.replay.post_violation = engine.strict_carried_over();
  return out;
}

TailReplayResult replay_tail_file(const bytecode::Program& prog,
                                  const std::string& path,
                                  vm::VmOptions opts,
                                  replay::SymmetryConfig cfg) {
  return replay_tail(prog, replay::open_trace_source(path), opts, cfg);
}

bool read_flight_info(const std::string& path, FlightInfo* info) {
  std::unique_ptr<replay::TraceSource> source =
      replay::open_trace_source(path);
  const std::vector<uint8_t>& fc = source->flight_chunk();
  if (fc.empty()) return false;
  *info = FlightInfo::decode(fc);
  return true;
}

}  // namespace dejavu::flight
