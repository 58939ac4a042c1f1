// Property P3 -- symmetric instrumentation: the engine's side effects are
// identical in record and replay mode; disabling each mechanism (§2.4)
// produces a *detected* divergence.
#include <gtest/gtest.h>

#include "src/replay/session.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::replay {
namespace {

// The ablation workload must exercise every instrumentation path:
// clock_mixer has per-iteration ND clock events, monitor switches, and
// (with the timer) preemptive switches.
bytecode::Program ablation_workload() { return workloads::clock_mixer(3, 30); }

RecordResult record_workload(const SymmetryConfig& cfg,
                             vm::VmOptions opts = {}) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4}, 17);
  threads::VirtualTimer timer(13, 4, 60);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  return record_run(ablation_workload(), opts, env, timer, &natives, cfg);
}

ReplayResult replay_workload(const TraceFile& trace,
                             const SymmetryConfig& cfg,
                             vm::VmOptions opts = {}) {
  return replay_run(ablation_workload(), trace, opts, cfg);
}

TEST(Symmetry, AuditLogsIdenticalBetweenRecordAndReplay) {
  SymmetryConfig cfg;
  vm::ScriptedEnvironment env(1000, 7, {}, 17);
  threads::VirtualTimer timer(13, 4, 60);
  RecordSession rec(ablation_workload(), std::make_unique<VectorTraceSink>(),
                    {}, env, timer, nullptr, cfg);
  rec.finish();
  ReplaySession rep(ablation_workload(), rec.take_trace(), {}, cfg);
  rep.finish();

  const vm::AuditLog& rec_audit = rec.vm().audit();
  const vm::AuditLog& rep_audit = rep.vm().audit();
  size_t div = rec_audit.first_divergence(rep_audit);
  EXPECT_EQ(div, SIZE_MAX) << "record: " << rec_audit.describe(div)
                           << " vs replay: " << rep_audit.describe(div);
}

TEST(Symmetry, EngineClassesPreloadedInBothModes) {
  SymmetryConfig cfg;
  RecordResult rec = record_workload(cfg);
  // The trace's audit digest covers class loads; verified replay implies
  // DejaVuRecord AND DejaVuReplay loaded identically in both modes.
  ReplayResult rep = replay_workload(rec.trace, cfg);
  EXPECT_TRUE(rep.verified);
}

TEST(Symmetry, GuestBufferContentsIdentical) {
  // Heap-hash equality (asserted inside verification) covers the guest
  // trace buffers: record writes the same bytes replay re-reads.
  SymmetryConfig cfg;
  cfg.buffer_capacity = 256;  // force many wrap-arounds (flush/refill)
  RecordResult rec = record_workload(cfg);
  ReplayResult rep = replay_workload(rec.trace, cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
}

struct AblationCase {
  const char* name;
  void (*disable)(SymmetryConfig&);
  bool expect_output_corruption;  // schedule-corrupting ablations
};

// Names the case in test IDs; gtest's default would print the struct's
// raw bytes, pointers included, which change with every build.
void PrintTo(const AblationCase& c, std::ostream* os) { *os << c.name; }

void no_prealloc(SymmetryConfig& c) { c.preallocate_buffers = false; }
void no_preload(SymmetryConfig& c) { c.preload_classes = false; }
void no_precompile(SymmetryConfig& c) { c.precompile_methods = false; }
void no_eager(SymmetryConfig& c) {
  c.eager_stack_growth = false;
  // Make the stack-need difference bite: tiny stacks, huge mode delta.
  c.record_stack_slots = 4;
  c.replay_stack_slots = 64;
}
void no_liveclock(SymmetryConfig& c) { c.pause_logical_clock = false; }
void no_warmup(SymmetryConfig& c) {
  c.io_warmup = false;
  c.buffer_capacity = 128;  // guarantee a flush boundary mid-run
}

class AblationTest : public testing::TestWithParam<AblationCase> {};

TEST_P(AblationTest, DisablingMechanismIsDetected) {
  SymmetryConfig cfg;
  cfg.strict = false;           // count violations instead of throwing
  cfg.checkpoint_interval = 4;  // dense checkpoints for fast detection
  GetParam().disable(cfg);
  vm::VmOptions opts;
  opts.initial_stack_slots = 64;  // small stacks so headroom checks matter

  RecordResult rec = record_workload(cfg, opts);
  ReplayResult rep = replay_workload(rec.trace, cfg, opts);
  EXPECT_FALSE(rep.verified) << GetParam().name
                             << ": asymmetry went undetected";
  EXPECT_GT(rep.stats.symmetry_violations, 0u) << GetParam().name;
}

TEST_P(AblationTest, FullSymmetrySurvivesSameWorkload) {
  // Control: with every mechanism ON (same knob intensities), replay is
  // exact.
  SymmetryConfig cfg;
  cfg.checkpoint_interval = 4;
  cfg.buffer_capacity = 128;
  cfg.record_stack_slots = 4;
  cfg.replay_stack_slots = 64;
  vm::VmOptions opts;
  opts.initial_stack_slots = 64;
  RecordResult rec = record_workload(cfg, opts);
  ReplayResult rep = replay_workload(rec.trace, cfg, opts);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, AblationTest,
    testing::Values(AblationCase{"preallocate_buffers", no_prealloc, false},
                    AblationCase{"preload_classes", no_preload, false},
                    AblationCase{"precompile_methods", no_precompile, false},
                    AblationCase{"eager_stack_growth", no_eager, false},
                    AblationCase{"pause_logical_clock", no_liveclock, true},
                    AblationCase{"io_warmup", no_warmup, false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Symmetry, LiveclockAblationThrowsInStrictMode) {
  SymmetryConfig cfg;
  cfg.pause_logical_clock = false;
  cfg.strict = true;
  RecordResult rec = record_workload(cfg);
  EXPECT_THROW(replay_workload(rec.trace, cfg), ReplayDivergence);
}

}  // namespace
}  // namespace dejavu::replay
