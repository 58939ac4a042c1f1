#include "src/fuzz/generator.hpp"

#include "src/common/rng.hpp"

namespace dejavu::fuzz {

namespace {

// Weighted statement pick. Cheap compute statements dominate; blocking
// statements (timed waits, sleeps) stay rare enough that a 12-statement
// body never parks for long, but common enough that wait/notify rendezvous
// and timer-driven wakeups are exercised in most cases.
Stmt random_stmt(SplitMix64& rng, bool allow_loop) {
  Stmt s;
  uint64_t roll = rng.next_below(100);
  if (roll < 22) {
    s.kind = StmtKind::kArith;
    s.op = uint8_t(rng.next_below(8));
    s.imm = int64_t(rng.next_range(1, uint64_t(kMaxImm)));
  } else if (roll < 34) {
    s.kind = StmtKind::kEnvMix;
    s.op = uint8_t(rng.next_below(3));
  } else if (roll < 44) {
    s.kind = StmtKind::kSharedAdd;
  } else if (roll < 54) {
    s.kind = StmtKind::kLockedAdd;
  } else if (roll < 60) {
    s.kind = StmtKind::kTimedWait;
    s.imm = int64_t(rng.next_range(1, 30));
  } else if (roll < 66) {
    s.kind = StmtKind::kNotifyAll;
  } else if (roll < 72) {
    s.kind = StmtKind::kYield;
  } else if (roll < 75) {
    s.kind = StmtKind::kSleep;
    s.imm = int64_t(rng.next_range(1, 3));
  } else if (roll < 83) {
    s.kind = StmtKind::kArrayChurn;
    s.imm = int64_t(rng.next_range(1, 6));
  } else if (roll < 89) {
    s.kind = StmtKind::kNativeMix;
    s.imm = int64_t(rng.next_range(1, uint64_t(kMaxImm)));
  } else if (roll < 93) {
    s.kind = StmtKind::kPrintAcc;
  } else if (roll < 95) {
    s.kind = StmtKind::kGcForce;
  } else if (allow_loop) {
    s.kind = StmtKind::kLoop;
    s.iters = uint32_t(rng.next_range(1, 8));
    size_t body = rng.next_range(1, 5);
    for (size_t i = 0; i < body; ++i)
      s.body.push_back(random_stmt(rng, /*allow_loop=*/false));
  } else {
    s.kind = StmtKind::kYield;
  }
  return s;
}

std::vector<Stmt> random_body(SplitMix64& rng, size_t min_n, size_t max_n) {
  std::vector<Stmt> body;
  size_t n = rng.next_range(min_n, max_n);
  for (size_t i = 0; i < n; ++i)
    body.push_back(random_stmt(rng, /*allow_loop=*/true));
  return body;
}

}  // namespace

uint64_t case_seed(uint64_t base, uint64_t i) {
  SplitMix64 rng(base ^ (i * 0x9e3779b97f4a7c15ull));
  return rng.next();
}

CaseSpec generate_case(uint64_t seed) {
  SplitMix64 rng(seed);
  CaseSpec spec;
  spec.seed = seed;

  size_t threads = rng.next_range(1, 4);
  for (size_t t = 0; t < threads; ++t) {
    ThreadSpec ts;
    ts.body = random_body(rng, 1, 12);
    spec.threads.push_back(std::move(ts));
  }
  spec.main_body = random_body(rng, 0, 6);

  ScheduleSpec& sc = spec.sched;
  // Timer seed 0 would mean cooperative-only; always preempt (that is the
  // schedule space under test), but vary the quantum range widely so both
  // rapid-fire and sparse preemption get coverage.
  sc.timer_seed = rng.next() | 1;
  sc.timer_min = rng.next_range(3, 40);
  sc.timer_max = sc.timer_min + rng.next_range(5, 150);
  sc.clock_base = int64_t(rng.next_range(100, 5000));
  sc.clock_step = int64_t(rng.next_range(3, 9));
  sc.rand_seed = rng.next();
  size_t inputs = rng.next_below(9);
  for (size_t i = 0; i < inputs; ++i)
    sc.inputs.push_back(int64_t(rng.next_below(uint64_t(kMaxImm) + 1)));
  constexpr uint32_t kIntervals[] = {2, 4, 16, 64};
  sc.checkpoint_interval = kIntervals[rng.next_below(4)];
  sc.chunk_bytes = uint32_t(rng.next_range(8, 1024));
  sc.mark_sweep = rng.next_below(2) == 1;
  constexpr uint32_t kBufferCapacities[] = {64, 256, 1u << 16};
  sc.buffer_capacity = kBufferCapacities[rng.next_below(3)];
  return spec;
}

}  // namespace dejavu::fuzz
