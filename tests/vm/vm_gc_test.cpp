// GC behaviour at the VM level: type-accurate stack scanning, metadata
// liveness, determinism of collection points, gc-stress survival.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu {
namespace {

using vmtest::run_guest;
using vmtest::RunConfig;

class VmGcTest : public testing::TestWithParam<heap::GcKind> {
 protected:
  RunConfig small_heap(size_t bytes) {
    RunConfig cfg;
    cfg.opts.heap.size_bytes = bytes;
    cfg.opts.heap.gc = GetParam();
    return cfg;
  }
};

TEST_P(VmGcTest, ChurnSurvivesManyCollections) {
  RunConfig cfg = small_heap(96 << 10);
  auto r = run_guest(workloads::alloc_churn(3000, 16, 8), cfg);
  EXPECT_GT(r.summary.gc_count, 3u);
  // sum of i for i in [0, 3000)
  EXPECT_EQ(r.output, std::to_string(int64_t(3000) * 2999 / 2) + "\n");
}

TEST_P(VmGcTest, GcCountIndependentResultsStable) {
  // Same program, different heap sizes -> different GC counts, same output.
  RunConfig a = small_heap(96 << 10);
  RunConfig b = small_heap(512 << 10);
  auto ra = run_guest(workloads::alloc_churn(2000, 16, 8), a);
  auto rb = run_guest(workloads::alloc_churn(2000, 16, 8), b);
  EXPECT_NE(ra.summary.gc_count, rb.summary.gc_count);
  EXPECT_EQ(ra.output, rb.output);
}

TEST_P(VmGcTest, StressEveryAllocationStillCorrect) {
  RunConfig cfg;
  cfg.opts.heap.gc = GetParam();
  cfg.opts.gc_stress = true;
  // Virtual dispatch + fields + arrays under constant collection.
  EXPECT_EQ(run_guest(workloads::debug_target(), cfg).output, "65\n");
}

TEST_P(VmGcTest, StressWithThreadsAndMonitors) {
  RunConfig cfg;
  cfg.opts.heap.gc = GetParam();
  cfg.opts.gc_stress = true;
  auto r = run_guest(workloads::counter_locked(2, 5), cfg);
  EXPECT_EQ(r.output, "10\n");
}

TEST_P(VmGcTest, StressWithPreemption) {
  RunConfig cfg;
  cfg.opts.heap.gc = GetParam();
  cfg.opts.gc_stress = true;
  cfg.timer_seed = 5;
  cfg.timer_min = 3;
  cfg.timer_max = 20;
  auto r = run_guest(workloads::producer_consumer(10, 3), cfg);
  int64_t want = 0;
  for (int64_t i = 0; i < 10; ++i) want += i * i;
  EXPECT_EQ(r.output, std::to_string(want) + "\n");
}

TEST_P(VmGcTest, ForcedGcIsDeterministicSideEffect) {
  bytecode::ProgramBuilder pb;
  auto& c = pb.add_class("Main");
  c.method("run").arg(bytecode::ValueType::kRef)
      .gc_force().gc_force().push_i(1).print_i().ret();
  pb.main("Main", "run");
  bytecode::Program prog = pb.build();
  RunConfig cfg;
  cfg.opts.heap.gc = GetParam();
  auto r1 = run_guest(prog, cfg);
  auto r2 = run_guest(prog, cfg);
  EXPECT_GE(r1.summary.gc_count, 2u);
  EXPECT_EQ(r1.summary, r2.summary);
}

INSTANTIATE_TEST_SUITE_P(BothCollectors, VmGcTest,
                         testing::Values(heap::GcKind::kSemispaceCopying,
                                         heap::GcKind::kMarkSweep),
                         [](const auto& info) {
                           return info.param ==
                                          heap::GcKind::kSemispaceCopying
                                      ? "Copying"
                                      : "MarkSweep";
                         });

#if defined(__SANITIZE_ADDRESS__)
#define DV_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DV_ASAN 1
#endif
#endif

// Resident set size of this process, from /proc/self/statm.
size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? size_t(resident) * size_t(::sysconf(_SC_PAGESIZE)) : 0;
}

// The heap size is a cap, not a commitment: a VM with a 1 GiB semispace
// (2 GiB of guest address space) boots and runs a small guest while its
// resident memory grows by only what the guest touches. ASan's allocator
// keeps its own books, so under it the test only checks that the VM runs.
TEST(VmHeap, SizeIsACapNotACommitment) {
  vm::VmOptions opts;
  opts.heap.size_bytes = size_t(1) << 30;
  vm::ScriptedEnvironment env(1000, 7, {}, 11);
  threads::VirtualTimer timer(5, 50, 400);
  size_t before = resident_bytes();
  vm::Vm v(workloads::counter_locked(3, 400), opts, env, timer);
  v.run();
  size_t after = resident_bytes();
  size_t grown = after > before ? after - before : 0;
  EXPECT_EQ(v.output(), "1200\n");
#ifndef DV_ASAN
  EXPECT_LT(grown, size_t(64) << 20);
#else
  (void)grown;
#endif
}

}  // namespace
}  // namespace dejavu
