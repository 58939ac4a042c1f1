// Time-travel debugging: answering "when did this variable go wrong, and
// what did the world look like just before?" by moving backwards through a
// recorded execution.
//
// The checkpoint/reverse-execution systems the paper surveys (§5) need
// process forking or shared-read logs; on top of DejaVu replay, the past
// is simply replayed again -- the trace is a handful of bytes and pins the
// execution completely -- from the nearest in-memory keyframe the
// debugger took on its way forward.
#include <cstdio>

#include "src/debugger/time_travel.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"

using namespace dejavu;

int main() {
  // A racy counter: increments get lost under some schedules. Hunt for a
  // schedule that actually loses one, then record it.
  bytecode::Program prog = workloads::counter_race(3, 12);
  replay::RecordResult rec;
  for (uint64_t seed = 1;; ++seed) {
    if (seed > 500) {
      std::printf("no lossy schedule found in the sweep\n");
      return 1;
    }
    vm::ScriptedEnvironment env(1000, 7, {}, 17);
    threads::VirtualTimer timer(seed, 3, 40);
    rec = replay::record_run(prog, {}, env, timer);
    if (rec.output != "36\n") break;
  }
  std::printf("recorded final count: %s", rec.output.c_str());
  std::printf("(3 threads x 12 increments = 36 if no update were lost)\n\n");

  debugger::TimeTravelDebugger tt(prog, rec.trace);

  // Sweep forward with a watchpoint, remembering every change of c.
  tt.debugger().watch_static("Main", "c");
  std::vector<std::pair<uint64_t, int64_t>> changes;  // (instr, new value)
  while (tt.resume() != debugger::StopReason::kFinished) {
    const debugger::Watchpoint* wp = tt.debugger().last_watch_hit();
    if (wp != nullptr) changes.emplace_back(tt.position(), wp->last);
  }
  std::printf("c changed %zu times; last few:\n", changes.size());
  for (size_t i = changes.size() > 5 ? changes.size() - 5 : 0;
       i < changes.size(); ++i) {
    std::printf("  @instr %-6llu c = %lld\n",
                (unsigned long long)changes[i].first,
                (long long)changes[i].second);
  }

  // Find a lost update: a change where c did not increase by exactly 1.
  size_t suspicious = changes.size();
  for (size_t i = 1; i < changes.size(); ++i) {
    if (changes[i].second != changes[i - 1].second + 1) {
      suspicious = i;
      break;
    }
  }
  if (suspicious == changes.size()) {
    std::printf("\nno lost update under this schedule -- rerun with another"
                " seed\n");
    return 0;
  }

  std::printf("\nlost update detected at change #%zu (c went %lld -> %lld)\n",
              suspicious, (long long)changes[suspicious - 1].second,
              (long long)changes[suspicious].second);

  // Travel back to just before the overwriting store and look around.
  uint64_t t_bad = changes[suspicious].first;
  tt.goto_instruction(t_bad - 1);
  std::printf("travelled back to instr %llu; the world then:\n",
              (unsigned long long)tt.position());
  std::printf("%s", tt.debugger().inspect_statics("Main", 1).c_str());
  for (const auto& th : tt.debugger().thread_list()) {
    std::printf("  thread %u \"%s\" %s\n", th.tid, th.name.c_str(),
                th.state.c_str());
  }

  // And prove the wandering perturbed nothing: finish and verify.
  replay::ReplayResult res = tt.run_to_end_and_verify();
  std::printf("\nreplay after time travel: %s\n",
              res.verified ? "verified exact" : "DIVERGED");
  return res.verified ? 0 : 1;
}
