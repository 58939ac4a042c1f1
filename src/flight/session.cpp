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

TailReplayResult replay_tail_file(const bytecode::Program& prog,
                                  const std::string& path,
                                  vm::VmOptions opts,
                                  replay::SymmetryConfig cfg) {
  replay::ReplaySession session(prog, replay::open_trace_source(path), opts,
                                cfg);
  TailReplayResult out;
  if (session.flight().has_value()) {
    out.is_tail = true;
    out.info = *session.flight();
    out.from_checkpoint = out.info.has_checkpoint;
  }
  out.replay = session.finish();
  out.crashed = out.replay.crashed;
  return out;
}

bool read_flight_info(const std::string& path, replay::FlightInfo* info) {
  std::unique_ptr<replay::TraceSource> source =
      replay::open_trace_source(path);
  const std::vector<uint8_t>& fc = source->flight_chunk();
  if (fc.empty()) return false;
  *info = replay::FlightInfo::decode(fc);
  return true;
}

}  // namespace dejavu::flight
