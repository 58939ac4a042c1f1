// The events stream's codec: how one non-deterministic event is written
// and read back. The recording engine, the replaying engine and the trace
// tools (dump, diff, stats) all go through it, so no two readers can
// disagree about an event.
//
// Every event starts with its tag byte (EventTag). v3-v5 store every value
// absolute:
//
//   clock | input | rand | native return  := tag u8 | svarint value
//   native callback := tag u8 | string class | string method
//                      | uvarint argc | svarint arg*
//
// v6 predicts clock reads per lane, as Figure 2 keeps nyp "as a delta since
// the last such event". Each lane's predictor holds the lane's previous
// clock value (0 before its first read) and the last delta it wrote:
//
//   tag 1 (clock)  | svarint delta   delta = value - previous, wrapping
//   tag 6 (repeat)                   the lane's last delta again
//
// so a clock that ticks evenly costs one byte per read. Deltas are taken
// in uint64_t and zigzagged as their two's-complement int64, so every pair
// of values round-trips and a hostile delta wraps deterministically;
// nothing is signed overflow. Input, rand and native events are as in v5.
// The trace's version alone selects the encoding.
//
// The predictor is per lane because each lane's events stream is written
// and read on its own, and a replay may start any lane mid-stream: the
// predictors are part of the engine's resume state (DVES v2), so flight
// tails and keyframes resume between two clock reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/io.hpp"
#include "src/replay/trace.hpp"
#include "src/replay/trace_io.hpp"

namespace dejavu::replay {

// One lane's clock predictor (v6).
struct ClockPredictor {
  uint64_t last = 0;   // the lane's previous clock value
  uint64_t delta = 0;  // the last delta written out explicitly
  bool has_delta = false;
};

class EventCodec {
 public:
  // The wire-only v6 tag of a clock read that repeats the lane's last
  // delta. It decodes to EventTag::kClock.
  static constexpr uint8_t kClockRepeatTag = 6;

  EventCodec() : EventCodec(kTraceVersionPredicted, 1) {}
  // `version` is the trace's container version; `lanes` its lane count.
  EventCodec(uint32_t version, uint32_t lanes);

  // True for v6: clock reads are predicted.
  bool predicts() const { return predict_; }

  // Record side: appends one value event (clock, input, rand or native
  // return) on `lane` to `w`.
  void put_value(ByteWriter& w, LaneId lane, EventTag tag, int64_t value) {
    if (tag == EventTag::kClock && predict_) {
      ClockPredictor& p = lanes_[lane];
      uint64_t delta = uint64_t(value) - p.last;
      p.last = uint64_t(value);
      if (p.has_delta && delta == p.delta) {
        w.put_u8(kClockRepeatTag);
        return;
      }
      p.delta = delta;
      p.has_delta = true;
      value = int64_t(delta);
    }
    w.put_u8(uint8_t(tag));
    w.put_svarint(value);
  }
  // Record side: appends a native callback event.
  static void put_callback(ByteWriter& w, const std::string& cls,
                           const std::string& method,
                           const std::vector<int64_t>& args);

  // Replay side: reads the next event's tag from `c`, lane `lane`'s events
  // stream, and the value of a value event into *value. Returns the event
  // kind, kClock for either clock encoding; a native callback's payload is
  // left for read_callback. Throws VmError, located by lane and stream
  // byte, on an unknown tag, a repeat before any delta or a truncated
  // value; the predictor is then left as it was.
  EventTag next(StreamCursor& c, LaneId lane, int64_t* value);
  // The rest of a native callback event, after next() returned its tag.
  // Throws VmError, located, when it is truncated.
  static void read_callback(StreamCursor& c, LaneId lane, std::string* cls,
                            std::string* method, std::vector<int64_t>* args);

  // The predictors, every lane's, for the engine's resume state. load()
  // reads what save() wrote for the same lane count.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

 private:
  bool predict_;
  std::vector<ClockPredictor> lanes_;
};

}  // namespace dejavu::replay
