#include "src/fuzz/minimizer.hpp"

#include <algorithm>

namespace dejavu::fuzz {

namespace {

// A variant counts as "still failing" only if the oracle rejects it at a
// stage that implicates the platform, not the variant itself: a mutant
// that no longer verifies or cannot even record is a different bug.
bool still_fails(const CaseOutcome& o) {
  return !o.ok && o.stage != "verify" && o.stage != "record";
}

struct Shrinker {
  const MinimizeOptions& opts;
  CaseSpec best;
  CaseOutcome best_outcome;
  uint64_t attempts = 0;

  bool try_accept(const CaseSpec& candidate) {
    attempts++;
    CaseOutcome o = run_case(candidate, opts.oracle);
    if (!still_fails(o)) return false;
    best = candidate;
    best_outcome = std::move(o);
    return true;
  }

  // Remove chunks of `body` at granularity halves -> singletons, ddmin
  // style. `get` projects the body out of a candidate spec copy.
  template <typename GetBody>
  bool shrink_body(GetBody get) {
    bool changed = false;
    size_t chunk = std::max<size_t>(1, get(best)->size() / 2);
    while (true) {
      bool removed_any = false;
      for (size_t start = 0; start < get(best)->size();) {
        CaseSpec candidate = best;
        std::vector<Stmt>* body = get(candidate);
        size_t end = std::min(start + chunk, body->size());
        body->erase(body->begin() + long(start), body->begin() + long(end));
        if (try_accept(candidate)) {
          removed_any = changed = true;
          // best shrank; retry the same start index at this granularity
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) {
        if (!removed_any) break;
      } else {
        chunk = std::max<size_t>(1, chunk / 2);
      }
    }
    return changed;
  }

  bool drop_threads() {
    bool changed = false;
    while (best.threads.size() > 1) {
      CaseSpec candidate = best;
      candidate.threads.pop_back();
      if (!try_accept(candidate)) break;
      changed = true;
    }
    return changed;
  }

  bool flatten_loops() {
    bool changed = false;
    auto flatten_in = [&](auto body_of) {
      for (size_t i = 0; i < body_of(best)->size(); ++i) {
        Stmt& s = (*body_of(best))[i];
        if (s.kind != StmtKind::kLoop) continue;
        // First try iters -> 1, then the loop replaced by its body.
        if (s.iters > 1) {
          CaseSpec candidate = best;
          (*body_of(candidate))[i].iters = 1;
          if (try_accept(candidate)) changed = true;
        }
        {
          CaseSpec candidate = best;
          std::vector<Stmt>* body = body_of(candidate);
          std::vector<Stmt> inner = (*body)[i].body;
          body->erase(body->begin() + long(i));
          body->insert(body->begin() + long(i), inner.begin(), inner.end());
          if (try_accept(candidate)) changed = true;
        }
      }
    };
    flatten_in([](CaseSpec& c) { return &c.main_body; });
    for (size_t t = 0; t < best.threads.size(); ++t) {
      if (t >= best.threads.size()) break;  // drop_threads may run between
      flatten_in([t](CaseSpec& c) { return &c.threads[t].body; });
    }
    return changed;
  }

  bool simplify_schedule() {
    bool changed = false;
    auto try_mutation = [&](auto mutate) {
      CaseSpec candidate = best;
      mutate(candidate.sched);
      if (serialize_case(candidate) == serialize_case(best)) return;
      if (try_accept(candidate)) changed = true;
    };
    try_mutation([](ScheduleSpec& s) { s.inputs.clear(); });
    try_mutation([](ScheduleSpec& s) {
      s.timer_min = 1;
      s.timer_max = 2;
    });
    try_mutation([](ScheduleSpec& s) {
      s.clock_base = 0;
      s.clock_step = 1;
    });
    try_mutation([](ScheduleSpec& s) { s.rand_seed = 1; });
    try_mutation([](ScheduleSpec& s) { s.chunk_bytes = 64; });
    try_mutation([](ScheduleSpec& s) { s.checkpoint_interval = 2; });
    try_mutation([](ScheduleSpec& s) { s.mark_sweep = false; });
    try_mutation([](ScheduleSpec& s) { s.buffer_capacity = 1u << 16; });
    try_mutation([](ScheduleSpec& s) { s.timer_seed = 1; });
    return changed;
  }

  bool shrink_immediates() {
    bool changed = false;
    auto shrink_in = [&](auto body_of) {
      for (size_t i = 0; i < body_of(best)->size(); ++i) {
        const Stmt& s = (*body_of(best))[i];
        if (s.imm > 1) {
          CaseSpec candidate = best;
          (*body_of(candidate))[i].imm = 1;
          if (try_accept(candidate)) changed = true;
        }
      }
    };
    shrink_in([](CaseSpec& c) { return &c.main_body; });
    for (size_t t = 0; t < best.threads.size(); ++t)
      shrink_in([t](CaseSpec& c) { return &c.threads[t].body; });
    return changed;
  }
};

}  // namespace

MinimizeResult minimize_case(const CaseSpec& failing,
                             const MinimizeOptions& opts) {
  MinimizeResult result;
  result.original_instructions = case_instruction_count(failing);

  Shrinker sh{opts, failing, run_case(failing, opts.oracle)};
  sh.attempts = 1;
  if (!still_fails(sh.best_outcome)) {
    // Not reproducible (or fails in a way minimization must not touch):
    // return the input unchanged.
    result.spec = failing;
    result.outcome = sh.best_outcome;
    result.final_instructions = result.original_instructions;
    result.attempts = sh.attempts;
    return result;
  }

  for (uint32_t round = 0; round < opts.max_rounds; ++round) {
    bool changed = false;
    changed |= sh.drop_threads();
    changed |= sh.shrink_body([](CaseSpec& c) { return &c.main_body; });
    for (size_t t = 0; t < sh.best.threads.size(); ++t) {
      changed |=
          sh.shrink_body([t](CaseSpec& c) { return &c.threads[t].body; });
    }
    changed |= sh.flatten_loops();
    changed |= sh.shrink_immediates();
    changed |= sh.simplify_schedule();
    if (!changed) break;
  }

  result.spec = sh.best;
  result.outcome = sh.best_outcome;
  result.final_instructions = case_instruction_count(sh.best);
  result.attempts = sh.attempts;
  return result;
}

}  // namespace dejavu::fuzz
