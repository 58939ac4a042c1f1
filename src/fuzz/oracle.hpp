// The differential record/replay oracle.
//
// run_case executes one generated case through every configuration the
// platform claims is equivalent and cross-checks them:
//
//   record        in-memory DejaVu recording (the reference behaviour)
//   replay-mem    strict replay of the in-memory trace: must verify, and
//                 output/BehaviorSummary must equal the recording
//   record-file   the same schedule recorded again through the streamed v4
//                 file path (spec-chosen chunk size): behaviour must equal
//                 the in-memory recording, the trace bytes must decode to
//                 the identical schedule/event streams, and the file must
//                 hold the in-memory container byte for byte
//   replay-file   strict replay streamed from the v4 file: must verify and
//                 match replay-mem
//   lane-cross    the same case recorded on 2 lanes. The lane partition
//                 changes dispatch order (interleavings are not
//                 K-invariant), so the leg checks §14's actual contract:
//                 the 2-lane recording is byte-stable across re-records,
//                 and strict multi-lane replay of its v5 bytes verifies
//                 with output/BehaviorSummary equal to the 2-lane
//                 recording
//   rc-baseline   Russinovich-Cogswell: record under the same timer, then
//                 replay through the scheduler director -- must verify and
//                 reproduce the RC-recorded output
//   ir-baseline   Instant Replay CREW validation under an identical
//                 deterministic schedule (mark-sweep cases only: versions
//                 are keyed by address) -- zero mismatches
//   coop-cross    the direct cross-system check: under cooperative
//                 scheduling (no timer) the schedule is hook-independent,
//                 so a bare VM, a DejaVu recording and an RC recording must
//                 print byte-identical output
//
// The first stage that fails stops the case; CaseOutcome names it. All
// replays run strict, so an engine divergence surfaces as ReplayDivergence
// rather than a silently wrong run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/fuzz/spec.hpp"
#include "src/replay/session.hpp"
#include "src/vm/natives.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::fuzz {

struct OracleOptions {
  bool check_baselines = true;
  // Run the lane-cross leg: record the case again on 2 lanes and require
  // byte-stable re-recording and a verified strict replay that reproduces
  // the 2-lane recording.
  bool lane_cross = true;
  // Directory for scratch trace files (created if missing).
  std::string scratch_dir = "/tmp/dejavu-fuzz";
  // The injected-bug drill: when nonzero, every DejaVu recording writes
  // through skew_schedule (src/fuzz/fault.hpp), over-reporting this
  // (1-based) schedule delta.
  uint32_t test_skew_schedule_delta = 0;
  // Per-run instruction ceiling: a runaway case fails its stage with a
  // VmError instead of hanging the fuzzer.
  uint64_t max_instructions = 30'000'000;
};

struct CaseOutcome {
  bool ok = true;
  std::string stage;   // failing stage name; empty when ok
  std::string detail;  // what differed / what was thrown
  // Serialized obs::DivergenceReport ("dvrep 1" block) captured at the
  // engine's first divergence, when the failing stage produced one; empty
  // otherwise. Embedded into .dvfz reproducers by the fuzzer.
  std::string forensics;
  vm::BehaviorSummary record_summary{};
  std::string record_output;
};

// The natives generated guests may call (a copy of the test registry:
// src/ cannot depend on tests/). host.mix mixes its args and calls back
// Main.cb; host.pure sums.
vm::NativeRegistry fuzz_natives();

// The VM options and symmetry configuration every run of `spec` uses.
vm::VmOptions case_opts(const CaseSpec& spec, const OracleOptions& oo);
replay::SymmetryConfig case_cfg(const CaseSpec& spec);

// Records `spec` once through a replay::RecordSession under the case's
// scripted environment and its timer (none when `cooperative`), skewed
// when oo asks for the drill. A null `sink` records in memory, and the
// result carries the trace.
replay::RecordResult record_case(const bytecode::Program& prog,
                                 const CaseSpec& spec,
                                 const OracleOptions& oo,
                                 const replay::SymmetryConfig& cfg,
                                 std::unique_ptr<replay::TraceSink> sink,
                                 bool cooperative = false);

CaseOutcome run_case(const CaseSpec& spec, const OracleOptions& opts);

}  // namespace dejavu::fuzz
