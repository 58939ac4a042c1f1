// One-call flight-recorder sessions (src/flight).
//
// record_flight runs a guest through a replay::RecordSession whose sink is
// a FlightRecorder ring instead of a file: zero trace bytes reach disk
// while the run is healthy. When the guest crashes (VmError) -- or at a
// clean exit, for an explicit dump -- the retained window is sealed to
// `tail_path` as a self-contained replayable trace.
//
// Tails replay through replay::ReplaySession like any trace: a flight tail
// with an embedded checkpoint boots the VM from the snapshot and resumes
// the engine mid-trace. A tail sealed by a crash deterministically
// reproduces the crash: the same VmError at the same instruction count,
// which the result reports instead of throwing (symmetry violations still
// throw in strict mode). replay_tail_file adds the tail's provenance to
// that replay.
#pragma once

#include <memory>
#include <string>

#include "src/flight/flight.hpp"
#include "src/replay/session.hpp"

namespace dejavu::flight {

// A recording's result (crashed/error/error_instr included) plus what the
// ring did with it.
struct FlightRecordResult : replay::RecordResult {
  std::string seal_reason;
  FlightStats flight;
};

// Records one execution into a flight ring and seals the tail to
// `tail_path` (reason "crash: <what>" if the guest threw, "dump"
// otherwise). cfg.flight_epoch_preempts is taken from fcfg.
FlightRecordResult record_flight(const std::string& tail_path,
                                 const bytecode::Program& prog,
                                 vm::VmOptions opts, vm::Environment& env,
                                 threads::TimerSource& timer,
                                 FlightConfig fcfg,
                                 const vm::NativeRegistry* natives = nullptr,
                                 replay::SymmetryConfig cfg = {});

struct TailReplayResult {
  replay::ReplayResult replay;
  // Tail provenance; is_tail is false (and info empty) when the file is an
  // ordinary full trace (no kFlight chunk).
  bool is_tail = false;
  bool from_checkpoint = false;
  replay::FlightInfo info;
  // Same as replay.crashed: the replay reproduced a recorded crash (see
  // replay.error / replay.error_instr).
  bool crashed = false;
};

// Replays any trace file through a ReplaySession and reports the tail's
// provenance alongside the replay.
TailReplayResult replay_tail_file(const bytecode::Program& prog,
                                  const std::string& path, vm::VmOptions opts,
                                  replay::SymmetryConfig cfg = {});

// Decodes the flight descriptor of a trace file; returns false (and leaves
// *info untouched) when the file has no kFlight chunk.
bool read_flight_info(const std::string& path, replay::FlightInfo* info);

}  // namespace dejavu::flight
