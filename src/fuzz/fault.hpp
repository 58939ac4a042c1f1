// Trace-container fault injection, and the injected-bug drill's sink.
//
// Records one known-good case to a v4 file, then derives corrupted
// variants -- seeded bit flips (framing and payload alike), truncations at
// random offsets, zeroed spans, and a short-write recording that simulates
// a recorder crash mid-run -- and asserts the platform *detects* every one:
// `verify_trace_file` must report the damage, and a strict replay from the
// damaged file must refuse (throw) rather than silently diverge. An
// undetected corruption is reported as a divergence, exactly like an
// oracle failure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fuzz/oracle.hpp"
#include "src/fuzz/spec.hpp"
#include "src/replay/trace_io.hpp"

namespace dejavu::fuzz {

// The injected-bug drill: wraps `inner` in a sink that over-reports lane
// 0's nth (1-based) preemptive schedule delta by one yield point, an
// off-by-one in the Figure 2 bookkeeping that replay must *detect*. The
// fuzzer uses it to prove its oracle and minimizer catch a real bug.
std::unique_ptr<replay::TraceSink> skew_schedule(
    std::unique_ptr<replay::TraceSink> inner, uint32_t nth,
    uint32_t checkpoint_interval);

struct FaultFinding {
  std::string mode;    // "flip" / "truncate" / "zero-span" / "short-write"
  std::string detail;  // offset/length and what the reader reported
  bool detected = false;
};

struct FaultReport {
  bool base_ok = false;  // the uncorrupted recording replayed clean
  std::string base_detail;
  uint64_t injected = 0;
  uint64_t detected = 0;
  std::vector<FaultFinding> undetected;  // the bugs: corruptions replayed

  bool all_detected() const { return base_ok && detected == injected; }
};

// Runs `rounds` corruptions of each mode against a recording of `spec`,
// using `seed` for all offset/byte choices. Scratch files go under
// opts.scratch_dir.
FaultReport inject_trace_faults(const CaseSpec& spec, const OracleOptions& opts,
                                uint64_t seed, uint32_t rounds = 4);

}  // namespace dejavu::fuzz
