// The DejaVu trace format.
//
// A recorded execution is two byte streams plus metadata:
//
//  * the SCHEDULE stream: one varint per preemptive thread switch -- the
//    yield-point delta `nyp` of Figure 2 ("this count can be kept as a
//    delta since the last such event"). Every checkpoint_interval-th
//    switch is followed by a checkpoint block of VM side-effect counters,
//    which replay compares against its own state to *detect* symmetry
//    violations (the failure mode §2.4's machinery exists to prevent).
//
//  * the EVENTS stream: one tagged record per non-deterministic event, in
//    execution order -- wall-clock reads, inputs, environmental randomness,
//    native-call returns and callbacks (§2.1, §2.5).
//
// Deterministic operations are, per the paper's central observation,
// *never* recorded.
//
// The meta block carries a program fingerprint (refusing to replay a trace
// against a different program) and the final behaviour summary, which
// replay verifies on completion -- accuracy (§1) is checked, not assumed.
//
// This header holds the format's vocabulary: versions, event tags, the
// checkpoint and meta blocks. The streams are stored in the chunked,
// checksummed v4/v5/v6 container, and a trace held in memory (TraceFile)
// is those container bytes; both live in src/replay/trace_io.hpp. How one
// event is encoded in the events stream lives in event_codec.hpp. The
// unframed v3 blob layout is still readable, converted to v4 at load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/bytecode/model.hpp"
#include "src/common/io.hpp"

namespace dejavu::replay {

inline constexpr uint32_t kTraceMagic = 0x44564a55;  // "DVJU"
inline constexpr uint32_t kTraceVersion = 4;         // chunked + checksummed
inline constexpr uint32_t kTraceVersionLegacy = 3;   // unframed blob
inline constexpr uint32_t kTraceVersionMulti = 5;    // multi-lane + order log
// v5's layout with clock reads predicted per lane (event_codec.hpp). Every
// recording writes it, whatever its lane count; v4 and v5 are written only
// through a sink created for them.
inline constexpr uint32_t kTraceVersionPredicted = 6;

// Container lane type (mirrors threads::LaneId without a dependency).
using LaneId = uint32_t;
// Wire-format bound: lane data streams are encoded in the chunk id byte.
inline constexpr uint32_t kMaxLanes = 64;

// Event kinds, which are also their tags in the events stream. A v6 trace
// has one more, wire-only tag: a clock read that repeats the lane's last
// delta (event_codec.hpp).
enum class EventTag : uint8_t {
  kClock = 1,
  kInput = 2,
  kRand = 3,
  kNativeReturn = 4,
  kNativeCallback = 5,
};

// VM side-effect counters compared at checkpoints (property P3).
struct Checkpoint {
  uint64_t logical_clock = 0;  // live yield points (instrumentation excluded)
  uint64_t alloc_count = 0;
  uint64_t class_loads = 0;
  uint64_t compiles = 0;
  uint64_t stack_grows = 0;
  uint64_t gc_count = 0;
  uint64_t switch_count = 0;  // all switches, incl. deterministic ones

  bool operator==(const Checkpoint&) const = default;
  std::string describe() const;
  void write_to(ByteWriter& w) const;
  static Checkpoint read_from(ByteReader& r);
};

struct TraceMeta {
  uint64_t program_fingerprint = 0;
  uint32_t checkpoint_interval = 64;
  uint64_t preempt_switches = 0;
  uint64_t nd_events = 0;
  Checkpoint final_checkpoint;
  // Final behaviour (accuracy verification on replay completion).
  uint64_t final_output_hash = 0;
  uint64_t final_heap_hash = 0;
  uint64_t final_switch_seq_hash = 0;
  uint64_t final_instr_count = 0;
  uint64_t final_audit_digest = 0;

  // v5 multi-lane extension (lane_count == 1 in every v3/v4 trace). The
  // per-lane vectors have lane_count entries and verify the per-lane
  // logical clocks / preemption totals on replay completion.
  uint32_t lane_count = 1;
  uint64_t order_events = 0;  // cross-lane order records in the order stream
  std::vector<uint64_t> lane_clocks;    // final per-lane logical clocks
  std::vector<uint64_t> lane_preempts;  // per-lane preemptive switches
};

// Shared meta-block field layout (identical in the v3 body and the v4 meta
// chunk payload). The versioned variants append the v5 lane extension for
// version >= kTraceVersionMulti and read it back symmetrically.
void write_meta_payload(ByteWriter& w, const TraceMeta& meta);
TraceMeta read_meta_payload(ByteReader& r);
void write_meta_payload_ex(ByteWriter& w, const TraceMeta& meta,
                           uint32_t version);
TraceMeta read_meta_payload_ex(ByteReader& r, uint32_t version);

// Structural hash of a program: class/field/method names, signatures and
// code. Replaying a trace against a program with a different fingerprint
// is refused outright.
uint64_t fingerprint_program(const bytecode::Program& prog);

}  // namespace dejavu::replay
