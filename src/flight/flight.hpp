// Flight recorder: always-on black-box observability (src/flight).
//
// A FlightRecorder is a TraceSink that keeps the recording in a bounded
// in-memory ring instead of writing it anywhere. The recording engine's
// chunks are framed exactly as the trace container would frame them and
// grouped into *epochs*: every flight_epoch_preempts-th preemptive switch
// the engine reaches a VM safepoint, flushes its writer (so the cut falls
// on an entry/chunk boundary) and opens a new epoch (TraceSink::begin_epoch).
// There the recorder has the engine capture the checkpoint that restores
// the whole machine to exactly that cut -- the VM snapshot and the engine
// resume state, kept as two byte vectors -- in one serialization pass
// straight into buffers the ring recycles: a retired epoch hands its
// buffers to the next cut, so the ring holds at most window_epochs + 1
// snapshot buffers, and a steady-state cut allocates nothing and faults
// in no new pages. The recorder then retires the oldest epochs beyond the
// configured window: healthy execution costs O(window) memory and writes
// zero trace bytes to disk.
//
// On a crash (or an explicit dump) seal_to_file() emits the retained
// window as a self-contained trace file: container header, a kFlight
// descriptor chunk (replay::FlightInfo: window geometry, seal reason, the
// start checkpoint, framed as the DVCK blob only here, once per seal), the
// retained data chunks verbatim, the meta chunk the engine produced at
// detach, and a seal whose per-stream totals the recorder computes over
// the *retained* chunks. The result passes every existing scan and
// replays through any replay entry point: the replay::ReplaySession
// resumes it from the embedded checkpoint when one is present, and starts
// from the beginning when the run was shorter than one epoch (then the
// tail simply is the complete trace).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "src/replay/trace_io.hpp"

namespace dejavu::flight {

struct FlightConfig {
  // Epochs retained, including the currently filling one (--flight N).
  // The replayable history is therefore at least window_epochs - 1 and at
  // most window_epochs full epochs of execution.
  uint32_t window_epochs = 4;
  // Preemptive switches per epoch (--flight-epoch E); forwarded to
  // SymmetryConfig::flight_epoch_preempts by the record session.
  uint32_t epoch_preempts = 64;
};

// Ring statistics.
struct FlightStats {
  uint64_t checkpoints = 0;      // epochs opened by begin_epoch
  uint64_t epochs_retained = 0;  // currently in the ring (incl. the open one)
  uint64_t epochs_retired = 0;   // dropped out of the window
  uint64_t bytes_retained = 0;   // framed bytes currently in the ring
  uint64_t bytes_retired = 0;    // framed bytes dropped with retired epochs
  bool sealed = false;
};

class FlightRecorder : public replay::TraceSink {
 public:
  FlightRecorder(uint32_t version, uint32_t lanes, FlightConfig cfg);

  using TraceSink::write_chunk;
  void write_chunk(replay::StreamId id, const uint8_t* payload, size_t n,
                   replay::LaneId lane) override;
  void begin_epoch(const CheckpointCapture& capture, uint64_t clock,
                   uint64_t instr) override;
  uint32_t version() const override { return version_; }

  // Writes the retained window as a self-contained sealed trace. Requires
  // that the engine detached first (the meta chunk must have arrived).
  void seal_to_file(const std::string& path, const std::string& reason);

  FlightStats stats() const;

 private:
  struct Epoch {
    bool has_checkpoint = false;
    // The checkpoint's two halves at the epoch's cut.
    std::vector<uint8_t> vm_snapshot, engine_state;
    uint64_t clock = 0;
    uint64_t instr = 0;
    // Framed chunks ([wire_id][len le][payload][crc]) back to back, in
    // arrival order, plus the geometry needed to recompute the seal totals.
    ByteWriter chunks;
    std::vector<uint8_t> wire_ids;
    std::vector<uint32_t> payload_lens;
  };

  void retire_old_epochs();

  uint32_t version_;
  uint32_t lanes_;
  FlightConfig cfg_;
  std::deque<Epoch> epochs_;
  Epoch spare_;  // the last retired epoch, whose buffers the next cut fills
  std::vector<uint8_t> meta_payload_;  // captured at the engine's finish
  bool meta_seen_ = false;
  bool sealed_ = false;

  uint64_t checkpoints_ = 0;
  uint64_t bytes_retained_ = 0;
  uint64_t bytes_retired_ = 0;
  uint64_t epochs_retired_ = 0;
};

}  // namespace dejavu::flight
