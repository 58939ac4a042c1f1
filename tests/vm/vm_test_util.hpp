// Shared helpers for VM-level tests: run a guest program to completion
// under a scripted environment and a configurable timer.
#pragma once

#include <memory>
#include <string>

#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/vm/natives.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::vmtest {

struct RunResult {
  std::string output;
  vm::BehaviorSummary summary;
};

struct RunConfig {
  uint64_t timer_seed = 0;  // 0 = no preemption (NullTimer)
  uint64_t timer_min = 50;
  uint64_t timer_max = 400;
  std::vector<int64_t> inputs;
  int64_t clock_base = 1000;
  int64_t clock_step = 7;
  uint64_t rand_seed = 11;
  vm::VmOptions opts;
};

// The standard test native: mixes its arguments and calls back Main.cb
// (when present) with the first argument.
inline vm::NativeRegistry make_test_natives() {
  vm::NativeRegistry reg;
  reg.register_native(
      "host.mix", [](vm::NativeContext& nc, const std::vector<int64_t>& a) {
        // Mixed in uint64_t: wraps where int64_t would overflow, with the
        // same bits.
        uint64_t acc = 17;
        for (int64_t v : a) acc = acc * 31 + uint64_t(v);
        if (!a.empty() &&
            nc.vm().runtime_class("Main") != nullptr &&
            nc.vm().runtime_class("Main")->find_method("cb") != nullptr) {
          acc += uint64_t(nc.call_guest("Main", "cb", {a[0]}));
        }
        return int64_t(acc);
      });
  reg.register_native("host.pure",
                      [](vm::NativeContext&, const std::vector<int64_t>& a) {
                        int64_t acc = 0;
                        for (int64_t v : a) acc += v;
                        return acc;
                      });
  return reg;
}

inline RunResult run_guest(const bytecode::Program& prog,
                           const RunConfig& cfg = {}) {
  vm::ScriptedEnvironment env(cfg.clock_base, cfg.clock_step, cfg.inputs,
                              cfg.rand_seed);
  std::unique_ptr<threads::TimerSource> timer;
  if (cfg.timer_seed == 0) {
    timer = std::make_unique<threads::NullTimer>();
  } else {
    timer = std::make_unique<threads::VirtualTimer>(cfg.timer_seed,
                                                    cfg.timer_min,
                                                    cfg.timer_max);
  }
  vm::NativeRegistry natives = make_test_natives();
  vm::Vm v(prog, cfg.opts, env, *timer, nullptr, &natives);
  v.run();
  return RunResult{v.output(), v.summary()};
}

}  // namespace dejavu::vmtest
