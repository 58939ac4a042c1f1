#include "src/fuzz/oracle.hpp"

#include <filesystem>
#include <memory>
#include <sstream>

#include "src/baselines/instant_replay.hpp"
#include "src/baselines/russinovich_cogswell.hpp"
#include "src/bytecode/verifier.hpp"
#include "src/common/check.hpp"
#include "src/fuzz/fault.hpp"
#include "src/replay/trace_tools.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"

namespace dejavu::fuzz {

namespace {

vm::ScriptedEnvironment make_env(const ScheduleSpec& sc) {
  return vm::ScriptedEnvironment(sc.clock_base, sc.clock_step, sc.inputs,
                                 sc.rand_seed);
}

std::unique_ptr<threads::TimerSource> make_timer(const ScheduleSpec& sc,
                                                 bool cooperative = false) {
  if (cooperative || sc.timer_seed == 0)
    return std::make_unique<threads::NullTimer>();
  return std::make_unique<threads::VirtualTimer>(sc.timer_seed, sc.timer_min,
                                                 sc.timer_max);
}

// Bare run with arbitrary hooks under the case's environment script --
// the idiom the baseline stages share.
vm::BehaviorSummary run_hooks(const bytecode::Program& prog,
                              const CaseSpec& spec, const OracleOptions& oo,
                              vm::ExecHooks* hooks, bool cooperative,
                              std::string* output) {
  vm::ScriptedEnvironment env = make_env(spec.sched);
  auto timer = make_timer(spec.sched, cooperative);
  vm::NativeRegistry natives = fuzz_natives();
  vm::Vm v(prog, case_opts(spec, oo), env, *timer, hooks, &natives);
  v.run();
  if (output != nullptr) *output = v.output();
  return v.summary();
}

std::string summary_delta(const vm::BehaviorSummary& a,
                          const vm::BehaviorSummary& b) {
  std::ostringstream os;
  auto field = [&](const char* name, uint64_t x, uint64_t y) {
    if (x != y) os << ' ' << name << ' ' << x << "!=" << y;
  };
  field("output_hash", a.output_hash, b.output_hash);
  field("heap_hash", a.heap_hash, b.heap_hash);
  field("switch_seq_hash", a.switch_seq_hash, b.switch_seq_hash);
  field("instr_count", a.instr_count, b.instr_count);
  field("switch_count", a.switch_count, b.switch_count);
  field("preempt_count", a.preempt_count, b.preempt_count);
  field("yield_points", a.yield_points, b.yield_points);
  field("gc_count", a.gc_count, b.gc_count);
  field("alloc_count", a.alloc_count, b.alloc_count);
  field("audit_digest", a.audit_digest, b.audit_digest);
  return os.str();
}

}  // namespace

vm::VmOptions case_opts(const CaseSpec& spec, const OracleOptions& oo) {
  vm::VmOptions opts;
  opts.heap.gc = spec.sched.mark_sweep ? heap::GcKind::kMarkSweep
                                       : heap::GcKind::kSemispaceCopying;
  opts.max_instructions = oo.max_instructions;
  return opts;
}

replay::SymmetryConfig case_cfg(const CaseSpec& spec) {
  replay::SymmetryConfig cfg;
  cfg.checkpoint_interval = spec.sched.checkpoint_interval;
  cfg.trace_chunk_bytes = spec.sched.chunk_bytes;
  cfg.buffer_capacity = spec.sched.buffer_capacity;
  cfg.strict = true;
  return cfg;
}

replay::RecordResult record_case(const bytecode::Program& prog,
                                 const CaseSpec& spec,
                                 const OracleOptions& oo,
                                 const replay::SymmetryConfig& cfg,
                                 std::unique_ptr<replay::TraceSink> sink,
                                 bool cooperative) {
  vm::ScriptedEnvironment env = make_env(spec.sched);
  auto timer = make_timer(spec.sched, cooperative);
  vm::NativeRegistry natives = fuzz_natives();
  bool in_memory = sink == nullptr;
  if (in_memory)
    sink = std::make_unique<replay::VectorTraceSink>(
        replay::kTraceVersionPredicted);
  if (oo.test_skew_schedule_delta != 0)
    sink = skew_schedule(std::move(sink), oo.test_skew_schedule_delta,
                         cfg.checkpoint_interval);
  replay::RecordSession session(prog, std::move(sink), case_opts(spec, oo),
                                env, *timer, &natives, cfg);
  replay::RecordResult r = session.finish();
  if (in_memory) r.trace = session.take_trace();
  return r;
}

vm::NativeRegistry fuzz_natives() {
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
  reg.register_native("host.pure",
                      [](vm::NativeContext&, const std::vector<int64_t>& a) {
                        int64_t acc = 0;
                        for (int64_t v : a) acc += v;
                        return acc;
                      });
  return reg;
}

CaseOutcome run_case(const CaseSpec& spec, const OracleOptions& oo) {
  CaseOutcome out;
  auto fail = [&](const char* stage, const std::string& detail) {
    out.ok = false;
    out.stage = stage;
    out.detail = detail;
    return out;
  };

  // -- verify: the generated program must assemble and verify -------------
  bytecode::Program prog;
  try {
    prog = build_program(spec);
    bytecode::verify_program(prog);
  } catch (const VmError& e) {
    return fail("verify", e.what());
  }

  vm::VmOptions opts = case_opts(spec, oo);
  replay::SymmetryConfig cfg = case_cfg(spec);

  // -- record: the reference recording ------------------------------------
  replay::RecordResult rec;
  try {
    rec = record_case(prog, spec, oo, cfg, nullptr);
  } catch (const VmError& e) {
    return fail("record", e.what());
  }
  if (rec.crashed) return fail("record", rec.error);
  out.record_summary = rec.summary;
  out.record_output = rec.output;

  // -- replay-mem: strict replay of the in-memory trace -------------------
  replay::ReplayResult mem;
  try {
    mem = replay::replay_run(prog, rec.trace, opts, cfg);
  } catch (const ReplayDivergence& e) {
    out.forensics = e.forensics();
    return fail("replay-mem", e.what());
  } catch (const VmError& e) {
    return fail("replay-mem", e.what());
  }
  if (!mem.verified) {
    if (mem.divergence.has_value())
      out.forensics = mem.divergence->serialize();
    return fail("replay-mem", "replay completed but did not verify: " +
                                  mem.stats.first_violation);
  }
  if (mem.output != rec.output)
    return fail("replay-mem", "replayed output differs from recording");
  if (!(mem.summary == rec.summary))
    return fail("replay-mem", "behaviour summary differs:" +
                                  summary_delta(rec.summary, mem.summary));

  // -- record-file: same schedule through the streamed v4 path ------------
  std::filesystem::create_directories(oo.scratch_dir);
  std::string path = oo.scratch_dir + "/case-" + std::to_string(spec.seed) +
                     ".djv";
  try {
    replay::RecordResult recf = record_case(
        prog, spec, oo, cfg, std::make_unique<replay::FileTraceSink>(path));
    if (recf.crashed) return fail("record-file", recf.error);
    if (recf.output != rec.output)
      return fail("record-file", "streamed recording output differs");
    if (!(recf.summary == rec.summary))
      return fail("record-file",
                  "streamed recording summary differs:" +
                      summary_delta(rec.summary, recf.summary));
    replay::TraceFileSource mem_src(&rec.trace);
    auto file_src = replay::open_trace_source(path);
    replay::TraceDiff diff = replay::diff_traces(mem_src, *file_src);
    if (!diff.identical)
      return fail("record-file",
                  "streamed trace differs from in-memory trace: " +
                      diff.description);
    // Both sinks got the same chunks from the same writer, so the
    // containers must agree byte for byte, framing included.
    if (read_file(path) != rec.trace.serialize())
      return fail("record-file",
                  "streamed container bytes differ from the in-memory "
                  "container");
  } catch (const VmError& e) {
    return fail("record-file", e.what());
  }

  // -- replay-file: strict replay streamed from disk ----------------------
  try {
    replay::ReplayResult rf = replay::replay_file(prog, path, opts, cfg);
    if (!rf.verified) {
      if (rf.divergence.has_value())
        out.forensics = rf.divergence->serialize();
      return fail("replay-file", "file replay did not verify: " +
                                     rf.stats.first_violation);
    }
    if (rf.output != rec.output)
      return fail("replay-file", "file-replayed output differs");
    if (!(rf.summary == mem.summary))
      return fail("replay-file", "file replay summary differs:" +
                                     summary_delta(mem.summary, rf.summary));
  } catch (const ReplayDivergence& e) {
    out.forensics = e.forensics();
    return fail("replay-file", e.what());
  } catch (const VmError& e) {
    return fail("replay-file", e.what());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);  // keep scratch bounded; best effort

  // -- lane-cross: the 2-lane engine against the single-lane reference ----
  if (oo.lane_cross) {
    try {
      replay::SymmetryConfig lcfg = cfg;
      lcfg.lanes = 2;
      replay::RecordResult rec2 = record_case(prog, spec, oo, lcfg, nullptr);
      if (rec2.crashed) return fail("lane-cross", rec2.error);

      // The lane partition changes dispatch order, so the interleaving is
      // not K-invariant; what §14 does promise is that recording on K
      // lanes is byte-stable...
      replay::RecordResult rec2_again =
          record_case(prog, spec, oo, lcfg, nullptr);
      if (rec2_again.trace.serialize() != rec2.trace.serialize())
        return fail("lane-cross",
                    "2-lane recording is not byte-stable across re-records");

      // ...and that strict multi-lane replay of those v5 bytes (already
      // through the reader's walk) verifies and reproduces the 2-lane
      // recording exactly.
      replay::ReplayResult rep2 =
          replay::replay_run(prog, rec2.trace, opts, cfg);
      if (!rep2.verified) {
        if (rep2.divergence.has_value())
          out.forensics = rep2.divergence->serialize();
        return fail("lane-cross", "2-lane replay did not verify: " +
                                      rep2.stats.first_violation);
      }
      if (rep2.output != rec2.output)
        return fail("lane-cross", "2-lane replay output differs");
      if (!(rep2.summary == rec2.summary))
        return fail("lane-cross",
                    "2-lane replay summary differs:" +
                        summary_delta(rec2.summary, rep2.summary));
    } catch (const ReplayDivergence& e) {
      out.forensics = e.forensics();
      return fail("lane-cross", e.what());
    } catch (const VmError& e) {
      return fail("lane-cross", e.what());
    }
  }

  if (!oo.check_baselines) return out;

  // -- rc-baseline: RC must round-trip its own recording ------------------
  try {
    baselines::RcRecorder rc_rec;
    std::string rc_out;
    run_hooks(prog, spec, oo, &rc_rec, /*cooperative=*/false, &rc_out);
    baselines::RcReplayer rc_rep(rc_rec.take_trace());
    std::string rc_replay_out;
    run_hooks(prog, spec, oo, &rc_rep, /*cooperative=*/true, &rc_replay_out);
    if (!rc_rep.verified())
      return fail("rc-baseline",
                  "RC replay diverged (" +
                      std::to_string(rc_rep.divergences()) + " divergences)");
    if (rc_replay_out != rc_out)
      return fail("rc-baseline", "RC replay output differs from RC record");
  } catch (const VmError& e) {
    return fail("rc-baseline", e.what());
  }

  // -- ir-baseline: CREW validation under an identical schedule -----------
  if (spec.sched.mark_sweep) {
    try {
      baselines::InstantReplayRecorder ir_rec;
      run_hooks(prog, spec, oo, &ir_rec, /*cooperative=*/true, nullptr);
      baselines::InstantReplayValidator ir_val(ir_rec.take_trace());
      run_hooks(prog, spec, oo, &ir_val, /*cooperative=*/true, nullptr);
      if (ir_val.mismatches() != 0)
        return fail("ir-baseline",
                    "Instant Replay saw " +
                        std::to_string(ir_val.mismatches()) +
                        " version mismatches under an identical schedule");
    } catch (const VmError& e) {
      return fail("ir-baseline", e.what());
    }
  }

  // -- coop-cross: hook-independent schedule => identical output ----------
  try {
    std::string bare_out;
    run_hooks(prog, spec, oo, nullptr, /*cooperative=*/true, &bare_out);

    replay::RecordResult dv =
        record_case(prog, spec, oo, cfg, nullptr, /*cooperative=*/true);
    if (dv.crashed) return fail("coop-cross", dv.error);

    baselines::RcRecorder rc_rec;
    std::string rc_out;
    run_hooks(prog, spec, oo, &rc_rec, /*cooperative=*/true, &rc_out);

    if (dv.output != bare_out)
      return fail("coop-cross",
                  "DejaVu recording output differs from bare run under "
                  "cooperative scheduling");
    if (rc_out != bare_out)
      return fail("coop-cross",
                  "RC recording output differs from bare run under "
                  "cooperative scheduling");
  } catch (const VmError& e) {
    return fail("coop-cross", e.what());
  }

  return out;
}

}  // namespace dejavu::fuzz
