// Bounded smoke tests for the schedule-space fuzzer (label: fuzz).
//
// The campaign sizes honour DEJAVU_FUZZ_ITERS so sanitizer builds can run
// a smaller budget (tools/check.sh sets it); the default keeps the whole
// binary in ctest-smoke territory.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/bytecode/verifier.hpp"
#include "src/fuzz/fault.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/fuzz/generator.hpp"
#include "src/fuzz/minimizer.hpp"
#include "src/fuzz/oracle.hpp"
#include "src/fuzz/spec.hpp"
#include "src/obs/divergence.hpp"
#include "src/obs/metrics.hpp"

namespace dejavu::fuzz {
namespace {

uint64_t env_iters(uint64_t fallback) {
  const char* s = std::getenv("DEJAVU_FUZZ_ITERS");
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

std::string scratch_dir(const char* leaf) {
  auto dir = std::filesystem::temp_directory_path() / "dejavu-fuzz-test" / leaf;
  std::filesystem::create_directories(dir);
  return dir.string();
}

size_t program_instruction_count(const bytecode::Program& prog) {
  size_t n = 0;
  for (const auto& cls : prog.classes)
    for (const auto& m : cls.methods) n += m.code.size();
  return n;
}

TEST(FuzzGenerator, DeterministicValidAndDiverse) {
  std::set<std::string> distinct;
  for (uint64_t i = 0; i < 150; ++i) {
    uint64_t seed = case_seed(42, i);
    CaseSpec a = generate_case(seed);
    CaseSpec b = generate_case(seed);
    EXPECT_EQ(serialize_case(a), serialize_case(b)) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
    // Every generated case compiles to a verifier-clean program.
    bytecode::Program prog = build_program(a);
    EXPECT_NO_THROW(bytecode::verify_program(prog)) << "seed " << seed;
    distinct.insert(serialize_case(a));
  }
  // The space is not degenerate: nearly every seed yields a new case.
  EXPECT_GT(distinct.size(), 140u);
}

TEST(FuzzGenerator, InstructionCountMatchesCompiledDelta) {
  // case_instruction_count counts exactly the instructions the statements
  // compile to: emptying all bodies must shrink the compiled program by
  // that amount (the spawn/join/print scaffolding is body-independent).
  for (uint64_t i = 0; i < 20; ++i) {
    CaseSpec spec = generate_case(case_seed(7, i));
    CaseSpec hollow = spec;
    hollow.main_body.clear();
    for (auto& t : hollow.threads) t.body.clear();
    size_t full = program_instruction_count(build_program(spec));
    size_t empty = program_instruction_count(build_program(hollow));
    EXPECT_EQ(full - empty, case_instruction_count(spec))
        << "seed " << spec.seed;
  }
}

TEST(FuzzSpec, SerializeParseRoundtrip) {
  for (uint64_t i = 0; i < 50; ++i) {
    CaseSpec spec = generate_case(case_seed(99, i));
    std::string text = serialize_case(spec);
    CaseSpec back = parse_case(text);
    EXPECT_EQ(serialize_case(back), text) << "seed " << spec.seed;
  }
  EXPECT_THROW(parse_case("not a reproducer"), VmError);
  EXPECT_THROW(parse_case("dvfz 99\nend\n"), VmError);
}

TEST(FuzzSpec, GuestBufferSizeIsACaseDimension) {
  // Generated cases cover small guest buffers, whose flush boundaries fall
  // mid-run, as well as the default.
  std::set<uint32_t> seen;
  for (uint64_t i = 0; i < 50; ++i)
    seen.insert(generate_case(case_seed(99, i)).sched.buffer_capacity);
  EXPECT_EQ(seen, (std::set<uint32_t>{64, 256, 1u << 16}));
  // A reproducer written before the dimension existed parses to the
  // default buffer; a hostile size is refused.
  CaseSpec old = parse_case("dvfz 1\nseed 3\ncfg 4 64 0\nmain 0\nend\n");
  EXPECT_EQ(old.sched.buffer_capacity, 1u << 16);
  EXPECT_THROW(parse_case("dvfz 1\nbuffer 0\nend\n"), VmError);
  EXPECT_THROW(parse_case("dvfz 1\nbuffer 4294967295\nend\n"), VmError);
}

TEST(FuzzCampaign, CleanOnHealthyEngine) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = env_iters(200);
  opts.fault_every = 10;  // exercise fault injection a few times
  opts.out_dir = scratch_dir("campaign");
  obs::MetricRegistry registry;
  opts.registry = &registry;
  FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases_run, opts.iters);
  EXPECT_EQ(report.divergences, 0u) << report.summary();
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_EQ(report.faults_detected, report.faults_injected)
      << report.summary();
  EXPECT_TRUE(report.clean());

  // Campaign counters mirror the report.
  obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(uint64_t(snap.find("fuzz.cases")->value), report.cases_run);
  EXPECT_EQ(uint64_t(snap.find("fuzz.divergences")->value), 0u);
  EXPECT_EQ(uint64_t(snap.find("fuzz.faults.injected")->value),
            report.faults_injected);
}

TEST(FuzzCampaign, LaneCrossLegIsCleanOnHealthyEngine) {
  // The --lanes 2 differential leg in isolation (baselines and faults
  // off): every generated case must behave identically on the 2-lane
  // engine, round-trip through the v5 container, and replay verified.
  FuzzOptions opts;
  opts.seed = 21;
  opts.iters = env_iters(100);
  opts.check_baselines = false;
  opts.fault_injection = false;
  opts.out_dir = scratch_dir("lanes");
  FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases_run, opts.iters);
  EXPECT_EQ(report.divergences, 0u) << report.summary();
  EXPECT_TRUE(report.clean());
}

TEST(FuzzCampaign, InjectedSkewIsCaughtAndMinimized) {
  // The acceptance drill: a deliberate engine bug (record over-reports the
  // first preemptive schedule delta) must be caught by the differential
  // oracle and shrunk to a tiny reproducer.
  FuzzOptions opts;
  opts.seed = 7;
  opts.iters = 3;
  opts.test_skew_schedule_delta = 1;
  opts.check_baselines = false;  // the bug is in the DejaVu engine path
  opts.fault_injection = false;
  opts.out_dir = scratch_dir("skew");
  FuzzReport report = run_fuzz(opts);
  ASSERT_GE(report.divergences, 1u);
  ASSERT_FALSE(report.failures.empty());

  const FuzzFailure& f = report.failures.front();
  EXPECT_TRUE(f.stage == "replay-mem" || f.stage == "replay-file" ||
              f.stage == "record-file")
      << f.stage << ": " << f.detail;
  EXPECT_LE(f.minimized_instructions, 20u);
  ASSERT_FALSE(f.repro_path.empty());

  // Replay-side failures carry first-divergence forensics, and they are
  // embedded in the written reproducer where `dejavu report` finds them.
  if (f.stage == "replay-mem" || f.stage == "replay-file") {
    ASSERT_FALSE(f.forensics.empty());
    obs::DivergenceReport rep = obs::parse_report(f.forensics);
    EXPECT_FALSE(rep.what.empty());
  }

  // The written reproducer parses back and still exposes the bug...
  std::ifstream in(f.repro_path);
  std::stringstream buf;
  buf << in.rdbuf();
  if (!f.forensics.empty()) {
    obs::DivergenceReport embedded;
    EXPECT_TRUE(obs::extract_report(buf.str(), &embedded));
  }
  CaseSpec repro = parse_case(buf.str());
  EXPECT_LE(case_instruction_count(repro), 20u);
  FuzzOptions rerun = opts;
  rerun.minimize = false;
  FuzzReport again = run_repro(f.repro_path, rerun);
  EXPECT_EQ(again.divergences, 1u);

  // ...and is a healthy case once the injected bug is removed.
  rerun.test_skew_schedule_delta = 0;
  FuzzReport healthy = run_repro(f.repro_path, rerun);
  EXPECT_EQ(healthy.divergences, 0u) << healthy.summary();
}

TEST(FuzzFaults, EveryCorruptionDetected) {
  OracleOptions oo;
  oo.scratch_dir = scratch_dir("faults");
  CaseSpec spec = generate_case(case_seed(3, 2));
  FaultReport report = inject_trace_faults(spec, oo, /*seed=*/11,
                                           /*rounds=*/3);
  EXPECT_TRUE(report.base_ok) << report.base_detail;
  EXPECT_GT(report.injected, 0u);
  EXPECT_EQ(report.detected, report.injected);
  for (const auto& miss : report.undetected)
    ADD_FAILURE() << miss.mode << " undetected: " << miss.detail;
}

}  // namespace
}  // namespace dejavu::fuzz
