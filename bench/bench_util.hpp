// Shared setup for the experiment harness: seeded recording environments
// and the standard native registry.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "src/baselines/instant_replay.hpp"
#include "src/baselines/read_log.hpp"
#include "src/baselines/russinovich_cogswell.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"

namespace dejavu::bench {

inline vm::NativeRegistry make_natives() {
  vm::NativeRegistry reg;
  reg.register_native(
      "host.mix", [](vm::NativeContext& nc, const std::vector<int64_t>& a) {
        // Mixed in uint64_t: wraps where int64_t would overflow, with the
        // same bits.
        uint64_t acc = 17;
        for (int64_t v : a) acc = acc * 31 + uint64_t(v);
        if (!a.empty() && nc.vm().runtime_class("Main") != nullptr &&
            nc.vm().runtime_class("Main")->find_method("cb") != nullptr) {
          acc += uint64_t(nc.call_guest("Main", "cb", {a[0]}));
        }
        return int64_t(acc);
      });
  return reg;
}

// Runs a program with arbitrary hooks under a seeded environment+timer.
struct HookedRun {
  vm::BehaviorSummary summary;
  std::string output;
};

inline HookedRun run_hooked(const bytecode::Program& prog,
                            vm::ExecHooks* hooks, uint64_t seed,
                            uint64_t tmin = 40, uint64_t tmax = 400,
                            vm::VmOptions opts = {}) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  std::unique_ptr<threads::TimerSource> timer;
  if (seed == 0) {
    timer = std::make_unique<threads::NullTimer>();
  } else {
    timer = std::make_unique<threads::VirtualTimer>(seed, tmin, tmax);
  }
  vm::NativeRegistry natives = make_natives();
  vm::Vm v(prog, opts, env, *timer, hooks, &natives);
  v.run();
  return HookedRun{v.summary(), v.output()};
}

inline replay::RecordResult record_seeded(const bytecode::Program& prog,
                                          uint64_t seed, uint64_t tmin = 40,
                                          uint64_t tmax = 400,
                                          vm::VmOptions opts = {},
                                          replay::SymmetryConfig cfg = {}) {
  vm::ScriptedEnvironment env(1000, 7, {1, 2, 3, 4, 5, 6, 7, 8}, 17);
  std::unique_ptr<threads::TimerSource> timer;
  if (seed == 0) {
    timer = std::make_unique<threads::NullTimer>();
  } else {
    timer = std::make_unique<threads::VirtualTimer>(seed, tmin, tmax);
  }
  vm::NativeRegistry natives = make_natives();
  return replay::record_run(prog, opts, env, *timer, &natives, cfg);
}

inline void rule(char c = '-', int n = 78) {
  for (int i = 0; i < n; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace dejavu::bench
