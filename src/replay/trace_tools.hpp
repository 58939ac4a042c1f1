// Trace inspection and comparison utilities.
//
// The platform's point is that a trace *is* the execution (§2: behaviour =
// event sequence + state); these tools make traces first-class artifacts a
// developer can look at: a human-readable dump of the schedule and event
// streams, summary statistics, and a structural diff that pinpoints where
// two recordings of the same program first scheduled differently -- the
// starting point for "why did run A fail and run B not?" investigations
// (the paper's family of replay-based understanding tools, §1).
//
// Every tool operates on a TraceSource, so a multi-gigabyte v4 file is
// inspected by streaming chunks, never loaded whole. A trace held in
// memory is inspected through a TraceFileSource over it.
#pragma once

#include <string>
#include <vector>

#include "src/replay/trace.hpp"
#include "src/replay/trace_io.hpp"

namespace dejavu::replay {

// One event, its clock value absolute whatever the trace's encoding.
struct DecodedEvent {
  EventTag tag;
  int64_t value = 0;                // clock/input/rand/native-return
  std::string callback_class;      // native callbacks only
  std::string callback_method;
  std::vector<int64_t> callback_args;

  bool operator==(const DecodedEvent&) const = default;
};

struct DecodedSchedule {
  struct Entry {
    uint64_t nyp_delta = 0;
    uint64_t cumulative_yields = 0;
    bool has_checkpoint = false;
    Checkpoint checkpoint;
  };
  std::vector<Entry> entries;
};

// One decoded cross-lane order record (v5 traces, K>1 lanes).
struct DecodedOrderEvent {
  uint8_t kind = 0;  // threads::CrossLaneKind
  uint32_t from_lane = 0;
  uint32_t to_lane = 0;
  uint32_t from = 0;  // tids
  uint32_t to = 0;
  uint64_t subject = 0;
};

// Stream decoding (throws VmError, located, on malformed streams). `lane`
// selects the per-lane stream of a v5/v6 trace; 0 is the only lane of a
// v3/v4 trace. Events decode through the EventCodec, so a v6 trace's clock
// values come out absolute, as a v4/v5 trace's do.
DecodedSchedule decode_schedule(TraceSource& src, LaneId lane = 0);
std::vector<DecodedEvent> decode_events(TraceSource& src, LaneId lane = 0);
std::vector<DecodedOrderEvent> decode_order(TraceSource& src);

// Aggregate statistics for reporting.
struct TraceStats {
  uint64_t preempt_switches = 0;
  uint64_t checkpoints = 0;
  uint64_t clock_events = 0;
  uint64_t input_events = 0;
  uint64_t rand_events = 0;
  uint64_t native_returns = 0;
  uint64_t native_callbacks = 0;
  uint64_t min_delta = 0;
  uint64_t max_delta = 0;
  double mean_delta = 0;
  size_t schedule_bytes = 0;  // summed across lanes
  size_t event_bytes = 0;     // summed across lanes
  uint32_t lanes = 1;
  uint64_t order_events = 0;  // cross-lane order records (v5, K>1)
};

TraceStats trace_stats(TraceSource& src);

// Copies `src` chunk for chunk into a new `version` container: the flight
// descriptor, each lane's schedule and events chunks, the order chunks,
// then a fresh meta block and seal. No chunk is split or merged, so
// v4 -> v4 is a copy of every chunk; v4 -> v5 lifts a single-lane trace
// into a one-lane v5 container and a one-lane v5 trace goes back to v4
// the same way. Throws VmError when v4 cannot hold the source (more than
// one lane, or an order stream), and between v6 and v3-v5 either way: it
// would have to re-encode the clock events, and the bytes a recording
// mirrors into its guest buffers -- so its recorded heap hash -- depend on
// that encoding.
std::vector<uint8_t> convert_trace(TraceSource& src, uint32_t version);

// Human-readable dump (optionally truncated to `max_lines` per stream).
std::string dump_trace(TraceSource& src, size_t max_lines = 64);

// Where two traces first diverge.
struct TraceDiff {
  bool identical = false;
  // Index of the first differing schedule entry (SIZE_MAX if schedules
  // match), and the first differing event (SIZE_MAX if events match).
  size_t first_schedule_divergence = SIZE_MAX;
  size_t first_event_divergence = SIZE_MAX;
  // v5: index of the first disagreeing cross-lane order record (SIZE_MAX
  // if the order streams match or both traces are single-lane). The
  // description spells out both records -- kind, lanes and tids -- so a
  // cross-lane scheduling skew is diagnosable without a manual dump.
  size_t first_order_divergence = SIZE_MAX;
  std::string description;
};

TraceDiff diff_traces(TraceSource& a, TraceSource& b);

}  // namespace dejavu::replay
