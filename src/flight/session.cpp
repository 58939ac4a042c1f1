#include "src/flight/session.hpp"

namespace dejavu::flight {

FlightRecordResult record_flight(const std::string& tail_path,
                                 const bytecode::Program& prog,
                                 vm::VmOptions opts, vm::Environment& env,
                                 threads::TimerSource& timer,
                                 FlightConfig fcfg,
                                 const vm::NativeRegistry* natives,
                                 replay::SymmetryConfig cfg) {
  DV_CHECK_MSG(fcfg.epoch_preempts >= 1, "flight epoch must be >= 1 preempt");
  cfg.flight_epoch_preempts = fcfg.epoch_preempts;
  auto sink = std::make_unique<FlightRecorder>(
      replay::kTraceVersionPredicted, cfg.lanes, fcfg);
  FlightRecorder& ring = *sink;
  replay::RecordSession session(prog, std::move(sink), opts, env, timer,
                                natives, cfg);
  replay::RecordResult rec = session.finish();
  // The black-box moment: the session detached, so the ring holds the
  // meta block; the retained window seals with the crash as its reason.
  std::string reason = rec.crashed ? "crash: " + rec.error : "dump";
  ring.seal_to_file(tail_path, reason);
  return FlightRecordResult{std::move(rec), reason, ring.stats()};
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
