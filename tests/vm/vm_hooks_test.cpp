// The ExecHooks subscription contract (src/vm/hooks.hpp): the VM reads each
// wants_*_events() predicate once, when it wires its observers, for a fresh
// boot and for a boot from a snapshot alike, and every subscribed event
// family still reaches the hook.
#include <gtest/gtest.h>

#include "src/common/io.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/vm/hooks.hpp"
#include "src/vm/vm.hpp"
#include "src/workloads/workloads.hpp"

namespace dejavu::vm {
namespace {

// Subscribes to every family (or none) and counts both the predicate reads
// and the events that arrive.
class CountingHooks : public ExecHooks {
 public:
  explicit CountingHooks(bool subscribe) : subscribe_(subscribe) {}

  bool yield_point(bool hardware_bit) override { return hardware_bit; }
  int64_t nd_value(NdKind, int64_t live) override { return live; }

  bool wants_instruction_events() const override {
    instr_reads++;
    return subscribe_;
  }
  bool wants_memory_events() const override {
    memory_reads++;
    return subscribe_;
  }
  bool wants_monitor_events() const override {
    monitor_reads++;
    return subscribe_;
  }
  bool wants_thread_events() const override {
    thread_reads++;
    return subscribe_;
  }

  void on_instruction(const InstrEvent&) override { instrs++; }
  void on_monitor_event(const MonitorEvent&) override { monitors++; }
  void on_thread_event(const ThreadEvent&) override { thread_events++; }
  void on_heap_alloc(const AllocEvent&) override { allocs++; }
  void on_heap_move(heap::Addr, heap::Addr) override { moves++; }
  void on_heap_read(heap::Addr, uint32_t, int64_t*, bool) override {
    reads++;
  }

  void expect_each_predicate_read_once() const {
    EXPECT_EQ(instr_reads, 1);
    EXPECT_EQ(memory_reads, 1);
    EXPECT_EQ(monitor_reads, 1);
    EXPECT_EQ(thread_reads, 1);
  }

  mutable int instr_reads = 0, memory_reads = 0, monitor_reads = 0,
              thread_reads = 0;
  uint64_t instrs = 0, monitors = 0, thread_events = 0, allocs = 0,
           moves = 0, reads = 0;

 private:
  const bool subscribe_;
};

struct Guest {
  const char* name;
  bytecode::Program prog;
  VmOptions opts;
};

// lock_pingpong brings monitors, spawn and join; alloc_churn on a small
// semispace brings allocation and copying-GC moves.
std::vector<Guest> guests() {
  std::vector<Guest> g;
  g.push_back({"lock_pingpong", workloads::lock_pingpong(20), {}});
  VmOptions small;
  small.heap.size_bytes = size_t(1) << 16;
  g.push_back({"alloc_churn", workloads::alloc_churn(2000, 8, 4), small});
  return g;
}

void expect_families(const char* name, const CountingHooks& h) {
  if (std::string(name) == "lock_pingpong") {
    EXPECT_GT(h.monitors, 0u);
    EXPECT_GT(h.thread_events, 0u);
  } else {
    EXPECT_GT(h.allocs, 0u);
    EXPECT_GT(h.moves, 0u);
  }
  EXPECT_GT(h.reads, 0u);
}

TEST(HookContract, SubscriptionsAreReadOnceAtBoot) {
  for (const Guest& g : guests()) {
    SCOPED_TRACE(g.name);
    ScriptedEnvironment env(1000, 7, {}, 11);
    threads::VirtualTimer timer(7, 20, 200);
    CountingHooks hooks(true);
    Vm vm(g.prog, g.opts, env, timer, &hooks);
    vm.run();
    hooks.expect_each_predicate_read_once();
    EXPECT_EQ(hooks.instrs, vm.instr_count());  // one event per instruction
    expect_families(g.name, hooks);
  }
}

TEST(HookContract, SubscriptionsAreReadOnceAtBootFromSnapshot) {
  for (const Guest& g : guests()) {
    SCOPED_TRACE(g.name);
    ScriptedEnvironment env(1000, 7, {}, 11);
    threads::NullTimer timer;
    Vm source(g.prog, g.opts, env, timer, nullptr);
    source.boot();
    source.step(200);
    ByteWriter w;
    source.capture_snapshot(w);
    uint64_t start = source.instr_count();

    CountingHooks hooks(true);
    Vm vm(g.prog, g.opts, env, timer, &hooks);
    vm.boot_from_snapshot(w.bytes());
    vm.run();
    hooks.expect_each_predicate_read_once();
    EXPECT_EQ(hooks.instrs, vm.instr_count() - start);
    expect_families(g.name, hooks);
  }
}

TEST(HookContract, UnsubscribedFamiliesDeliverNothing) {
  for (const Guest& g : guests()) {
    SCOPED_TRACE(g.name);
    ScriptedEnvironment env(1000, 7, {}, 11);
    threads::VirtualTimer timer(7, 20, 200);
    CountingHooks hooks(false);
    Vm vm(g.prog, g.opts, env, timer, &hooks);
    vm.run();
    hooks.expect_each_predicate_read_once();
    EXPECT_EQ(hooks.instrs + hooks.monitors + hooks.thread_events +
                  hooks.allocs + hooks.moves + hooks.reads,
              0u);
  }
}

}  // namespace
}  // namespace dejavu::vm
