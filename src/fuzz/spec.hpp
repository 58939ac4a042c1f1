// The fuzzer's case model: a miniature IR for generated guest programs.
//
// The schedule-space fuzzer does not mutate bytecode directly -- raw
// instruction mutation mostly produces verifier rejects, and a failing case
// expressed as bytecode cannot be shrunk structurally. Instead a case is a
// CaseSpec: a list of worker-thread bodies built from a small statement
// vocabulary (arithmetic, loops, monitors, timed waits, allocation, native
// calls, environment reads) plus a ScheduleSpec naming every source of
// non-determinism (timer seed and quantum range, scripted clock/input/rand,
// checkpoint interval, trace chunk geometry, guest trace-buffer size,
// collector choice).
//
// build_program compiles a spec -- deterministically -- into a verified
// bytecode::Program through bytecode::ProgramBuilder, so every generated
// case is valid by construction: statements are stack-balanced, loops are
// bounded, waits are timed (a lost notify can never deadlock), monitors are
// never nested, and all arithmetic is masked to kAccMask before it can
// reach signed-overflow territory (the host interpreter adds/multiplies
// native int64s).
//
// Specs serialize to a small text format (serialize_case/parse_case): the
// minimizer writes failing cases to disk as reproducers and `dejavu fuzz
// --repro FILE` replays them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/bytecode/model.hpp"
#include "src/heap/heap.hpp"
#include "src/replay/trace_io.hpp"

namespace dejavu::fuzz {

// Accumulators are masked to 20 bits after every operation; combined with
// the immediate bound below, no guest arithmetic can overflow int64.
inline constexpr int64_t kAccMask = 0xFFFFF;
inline constexpr int64_t kMaxImm = 0xFFFF;

enum class StmtKind : uint8_t {
  kArith = 0,    // acc = mask(acc <op> imm)
  kEnvMix,       // acc = mask(acc + (now|input|rand & kMaxImm))
  kSharedAdd,    // Main.total = mask(Main.total + acc)     (racy RMW)
  kLockedAdd,    // the same, holding Main.lock
  kTimedWait,    // under Main.lock: timed_wait(imm ms)
  kNotifyAll,    // under Main.lock: notifyAll
  kYield,        // voluntary Thread.yield
  kSleep,        // sleep(imm ms)
  kArrayChurn,   // arr = new i64[imm]; arr[acc%imm] = acc; acc += arr[k]
  kNativeMix,    // acc = mask(host.mix(acc & kMaxImm, imm))  (JNI + callback)
  kPrintAcc,     // print acc (feeds the output hash)
  kGcForce,      // deterministic forced collection
  kLoop,         // repeat `iters` times: body (simple statements only)
};

const char* stmt_kind_name(StmtKind k);

struct Stmt {
  StmtKind kind = StmtKind::kArith;
  uint8_t op = 0;          // kArith: operator index; kEnvMix: source index
  int64_t imm = 0;         // immediate / milliseconds / array length
  uint32_t iters = 0;      // kLoop repetition count
  std::vector<Stmt> body;  // kLoop only; never nested further
};

struct ThreadSpec {
  std::vector<Stmt> body;
};

// Every knob that feeds non-determinism into one recorded execution.
struct ScheduleSpec {
  uint64_t timer_seed = 0;  // 0 = cooperative scheduling (NullTimer)
  uint64_t timer_min = 10;  // VirtualTimer quantum range, in instructions
  uint64_t timer_max = 100;
  int64_t clock_base = 1000;  // ScriptedEnvironment
  int64_t clock_step = 7;
  std::vector<int64_t> inputs;
  uint64_t rand_seed = 17;
  uint32_t checkpoint_interval = 64;
  uint32_t chunk_bytes = uint32_t(replay::kDefaultChunkBytes);
  bool mark_sweep = false;  // collector choice (copying otherwise)
  // Guest trace-buffer bytes: small buffers put flush/refill boundaries
  // (audited I/O) in the middle of the run.
  uint32_t buffer_capacity = 1u << 16;
};

struct CaseSpec {
  uint64_t seed = 0;  // provenance: the generator seed that produced this
  std::vector<ThreadSpec> threads;
  std::vector<Stmt> main_body;  // runs in main between spawn-all and join-all
  ScheduleSpec sched;
};

// Compiles the spec into an unlinked Program:
//   class Obj {}                                  // the shared lock object
//   class Main {
//     static total: i64; static lock: ref;
//     static cb(x) { return x & kMaxImm; }        // host.mix callback
//     static w<i>(arg) { <threads[i].body>; total += acc; }
//     static run(arg) { lock = new Obj; spawn w*; <main_body>;
//                       join all; print total; print acc; }
//   }
// The result always passes bytecode::verify_program.
bytecode::Program build_program(const CaseSpec& spec);

// Number of bytecode instructions the spec's statements compile to (worker
// bodies + main_body) -- the size the minimizer shrinks and reports. The
// fixed spawn/join/print scaffolding is not counted.
size_t case_instruction_count(const CaseSpec& spec);

// Reproducer text format (versioned, line-based).
std::string serialize_case(const CaseSpec& spec);
CaseSpec parse_case(const std::string& text);  // throws VmError on malformed

}  // namespace dejavu::fuzz
