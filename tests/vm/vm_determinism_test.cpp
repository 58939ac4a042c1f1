// Property P5 (determinism partition): with a scripted environment and a
// seeded (or absent) timer, the *whole VM* -- interpreter, thread package,
// class loader, GC -- is a deterministic function of its inputs. This is
// the foundation the replay argument stands on: once DejaVu reproduces the
// non-deterministic inputs, everything else follows.
#include <gtest/gtest.h>

#include <set>

#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu {
namespace {

using vmtest::run_guest;
using vmtest::RunConfig;

struct Case {
  const char* name;
  bytecode::Program (*make)();
};

// Names the case in test IDs; gtest's default would print the struct's
// raw bytes, pointers included, which change with every build.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

bytecode::Program make_fig1_race() { return workloads::fig1_race(); }
bytecode::Program make_fig1_clock() { return workloads::fig1_clock(); }
bytecode::Program make_counter() { return workloads::counter_race(3, 20); }
bytecode::Program make_pc() { return workloads::producer_consumer(25, 4); }
bytecode::Program make_churn() { return workloads::alloc_churn(500, 8, 4); }
bytecode::Program make_sleepers() { return workloads::sleepers(3, 15); }
bytecode::Program make_natives() { return workloads::native_calls(5); }

class DeterminismTest : public testing::TestWithParam<Case> {};

TEST_P(DeterminismTest, SameSeedSameBehavior) {
  for (uint64_t seed : {0ull, 11ull, 42ull}) {
    RunConfig cfg;
    cfg.timer_seed = seed;
    cfg.timer_min = 5;
    cfg.timer_max = 80;
    cfg.inputs = {1, 2, 3, 4, 5, 6, 7, 8};
    auto r1 = run_guest(GetParam().make(), cfg);
    auto r2 = run_guest(GetParam().make(), cfg);
    EXPECT_EQ(r1.summary, r2.summary) << GetParam().name << " seed " << seed;
    EXPECT_EQ(r1.output, r2.output);
  }
}

TEST_P(DeterminismTest, DifferentSeedsChangeSchedule) {
  std::set<uint64_t> switch_hashes;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunConfig cfg;
    cfg.timer_seed = seed;
    cfg.timer_min = 5;
    cfg.timer_max = 80;
    cfg.inputs = {1, 2, 3, 4, 5, 6, 7, 8};
    switch_hashes.insert(
        run_guest(GetParam().make(), cfg).summary.switch_seq_hash);
  }
  EXPECT_GE(switch_hashes.size(), 2u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DeterminismTest,
    testing::Values(Case{"fig1_race", make_fig1_race},
                    Case{"fig1_clock", make_fig1_clock},
                    Case{"counter_race", make_counter},
                    Case{"producer_consumer", make_pc},
                    Case{"alloc_churn", make_churn},
                    Case{"sleepers", make_sleepers},
                    Case{"native_calls", make_natives}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Determinism, AuditLogIdenticalAcrossIdenticalRuns) {
  RunConfig cfg;
  cfg.timer_seed = 9;
  vm::ScriptedEnvironment env1(1000, 7, {}, 3), env2(1000, 7, {}, 3);
  threads::VirtualTimer t1(9, 5, 80), t2(9, 5, 80);
  vm::Vm v1(workloads::producer_consumer(20, 4), {}, env1, t1);
  vm::Vm v2(workloads::producer_consumer(20, 4), {}, env2, t2);
  v1.run();
  v2.run();
  EXPECT_EQ(v1.audit().first_divergence(v2.audit()), SIZE_MAX);
}

TEST(Determinism, HostEnvironmentRunsComplete) {
  // Sanity: wall-clock mode works end to end (no determinism asserted).
  vm::HostEnvironment env;
  threads::RealTimeTimer timer(std::chrono::microseconds(200));
  vm::Vm v(workloads::counter_locked(3, 50), {}, env, timer);
  v.run();
  EXPECT_EQ(v.output(), "150\n");
}

}  // namespace
}  // namespace dejavu
