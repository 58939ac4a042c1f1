#include "src/fuzz/spec.hpp"

#include <sstream>

#include "src/bytecode/builder.hpp"
#include "src/common/check.hpp"

namespace dejavu::fuzz {

using bytecode::MethodBuilder;
using bytecode::ProgramBuilder;
using bytecode::ValueType;

namespace {

constexpr ValueType I = ValueType::kI64;
constexpr ValueType R = ValueType::kRef;

// Worker/main local slot layout. Slot 0 is the spawn argument (a ref).
constexpr int32_t kAccSlot = 1;   // the statement accumulator
constexpr int32_t kLoopSlot = 2;  // kLoop counter
constexpr int32_t kArrSlot = 3;   // kArrayChurn scratch array
constexpr int32_t kFirstThreadSlot = 4;  // main only: spawned thread refs

constexpr const char* kArithNames[] = {"add", "sub", "mul", "xor",
                                       "and", "or",  "shl", "shr"};
constexpr int kArithOps = 8;
constexpr const char* kEnvNames[] = {"now", "input", "rand"};
constexpr int kEnvOps = 3;

void mask_acc(MethodBuilder& m) { m.push_i(kAccMask).band(); }

void emit_arith(MethodBuilder& m, uint8_t op, int64_t imm) {
  m.load(kAccSlot);
  switch (op % kArithOps) {
    case 0: m.push_i(imm).add(); break;
    case 1: m.push_i(imm).sub(); break;
    case 2: m.push_i(imm).mul(); break;
    case 3: m.push_i(imm).bxor(); break;
    case 4: m.push_i(imm).band(); break;
    case 5: m.push_i(imm).bor(); break;
    case 6: m.push_i(imm & 7).shl(); break;
    default: m.push_i(imm & 7).shr(); break;
  }
  mask_acc(m);
  m.store(kAccSlot);
}

void emit_env_mix(MethodBuilder& m, uint8_t op) {
  m.load(kAccSlot);
  switch (op % kEnvOps) {
    case 0: m.now(); break;
    case 1: m.read_input(); break;
    default: m.env_rand(); break;
  }
  m.push_i(kMaxImm).band().add();
  mask_acc(m);
  m.store(kAccSlot);
}

void emit_shared_add(MethodBuilder& m) {
  m.getstatic("Main", "total").load(kAccSlot).add();
  mask_acc(m);
  m.putstatic("Main", "total");
}

void emit_stmt(MethodBuilder& m, const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kArith:
      emit_arith(m, s.op, s.imm);
      break;
    case StmtKind::kEnvMix:
      emit_env_mix(m, s.op);
      break;
    case StmtKind::kSharedAdd:
      emit_shared_add(m);
      break;
    case StmtKind::kLockedAdd:
      m.getstatic("Main", "lock").monitorenter();
      emit_shared_add(m);
      m.getstatic("Main", "lock").monitorexit();
      break;
    case StmtKind::kTimedWait:
      m.getstatic("Main", "lock")
          .monitorenter()
          .getstatic("Main", "lock")
          .push_i(s.imm)
          .timed_wait()
          .pop()  // discard the interrupted flag
          .getstatic("Main", "lock")
          .monitorexit();
      break;
    case StmtKind::kNotifyAll:
      m.getstatic("Main", "lock")
          .monitorenter()
          .getstatic("Main", "lock")
          .notify_all()
          .getstatic("Main", "lock")
          .monitorexit();
      break;
    case StmtKind::kYield:
      m.yield();
      break;
    case StmtKind::kSleep:
      m.push_i(s.imm).sleep();
      break;
    case StmtKind::kArrayChurn: {
      int64_t len = s.imm < 1 ? 1 : s.imm;
      m.push_i(len).newarr_i().store(kArrSlot);
      // arr[acc % len] = acc
      m.load(kArrSlot)
          .load(kAccSlot)
          .push_i(len)
          .mod()
          .load(kAccSlot)
          .astore_i();
      // acc = mask(acc + arr[len - 1])
      m.load(kArrSlot).push_i(len - 1).aload_i().load(kAccSlot).add();
      mask_acc(m);
      m.store(kAccSlot);
      break;
    }
    case StmtKind::kNativeMix:
      m.load(kAccSlot)
          .push_i(kMaxImm)
          .band()
          .push_i(s.imm & kMaxImm)
          .nativecall("host.mix", 2);
      mask_acc(m);
      m.store(kAccSlot);
      break;
    case StmtKind::kPrintAcc:
      m.load(kAccSlot).print_i();
      break;
    case StmtKind::kGcForce:
      m.gc_force();
      break;
    case StmtKind::kLoop: {
      uint32_t iters = s.iters < 1 ? 1 : s.iters;
      m.push_i(int64_t(iters)).store(kLoopSlot);
      auto top = m.label();
      m.bind(top);
      for (const Stmt& b : s.body) {
        DV_CHECK_MSG(b.kind != StmtKind::kLoop, "loops do not nest");
        emit_stmt(m, b);
      }
      m.load(kLoopSlot)
          .push_i(1)
          .sub()
          .store(kLoopSlot)
          .load(kLoopSlot)
          .jnz(top);
      break;
    }
  }
}

// Bytecode instructions emit_stmt produces for one statement. Kept next to
// the emitter so the two switches are reviewed together; fuzz_test asserts
// the totals match the compiled program.
size_t stmt_instr_count(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kArith: return 6;
    case StmtKind::kEnvMix: return 8;
    case StmtKind::kSharedAdd: return 6;
    case StmtKind::kLockedAdd: return 10;
    case StmtKind::kTimedWait: return 8;
    case StmtKind::kNotifyAll: return 6;
    case StmtKind::kYield: return 1;
    case StmtKind::kSleep: return 2;
    case StmtKind::kArrayChurn: return 17;
    case StmtKind::kNativeMix: return 8;
    case StmtKind::kPrintAcc: return 2;
    case StmtKind::kGcForce: return 1;
    case StmtKind::kLoop: {
      size_t n = 8;
      for (const Stmt& b : s.body) n += stmt_instr_count(b);
      return n;
    }
  }
  return 0;
}

// Deterministic per-thread accumulator seed so worker outputs differ.
int64_t acc_init(size_t tid) {
  return int64_t((tid * 7919 + 13) & uint64_t(kAccMask));
}

// Name of worker thread t's method: "w<t>".
std::string worker_method(size_t t) {
  std::string name = "w";
  name.append(std::to_string(t));
  return name;
}

}  // namespace

const char* stmt_kind_name(StmtKind k) {
  switch (k) {
    case StmtKind::kArith: return "arith";
    case StmtKind::kEnvMix: return "envmix";
    case StmtKind::kSharedAdd: return "sharedadd";
    case StmtKind::kLockedAdd: return "lockedadd";
    case StmtKind::kTimedWait: return "timedwait";
    case StmtKind::kNotifyAll: return "notifyall";
    case StmtKind::kYield: return "yield";
    case StmtKind::kSleep: return "sleep";
    case StmtKind::kArrayChurn: return "arraychurn";
    case StmtKind::kNativeMix: return "nativemix";
    case StmtKind::kPrintAcc: return "printacc";
    case StmtKind::kGcForce: return "gcforce";
    case StmtKind::kLoop: return "loop";
  }
  return "?";
}

bytecode::Program build_program(const CaseSpec& spec) {
  ProgramBuilder pb;
  pb.add_class("Obj");  // a bare lock object
  auto& main = pb.add_class("Main");
  main.static_field("total", I);
  main.static_field("lock", R);

  // host.mix's guest callback (vm tests register natives that call back
  // into Main.cb when present).
  main.method("cb").arg(I).returns(I).load(0).push_i(kMaxImm).band().ret_val();

  for (size_t t = 0; t < spec.threads.size(); ++t) {
    auto& w = main.method(worker_method(t)).arg(R).locals(4);
    w.line(int32_t(100 * (t + 1)));
    w.push_i(acc_init(t + 1)).store(kAccSlot);
    for (const Stmt& s : spec.threads[t].body) emit_stmt(w, s);
    // Tail: fold the accumulator into the shared total so every worker's
    // work is observable in the final output even without kPrintAcc.
    emit_shared_add(w);
    w.ret();
  }

  auto& run = main.method("run").arg(R).locals(
      uint16_t(kFirstThreadSlot + spec.threads.size()));
  run.line(1);
  run.new_object("Obj").putstatic("Main", "lock");
  run.push_i(acc_init(0)).store(kAccSlot);
  for (size_t t = 0; t < spec.threads.size(); ++t) {
    run.push_null()
        .spawn("Main", worker_method(t))
        .store(int32_t(kFirstThreadSlot + t));
  }
  for (const Stmt& s : spec.main_body) emit_stmt(run, s);
  for (size_t t = 0; t < spec.threads.size(); ++t) {
    run.load(int32_t(kFirstThreadSlot + t)).join();
  }
  run.getstatic("Main", "total").print_i();
  run.load(kAccSlot).print_i();
  run.ret();

  pb.main("Main", "run");
  return pb.build();
}

size_t case_instruction_count(const CaseSpec& spec) {
  size_t n = 0;
  for (const ThreadSpec& t : spec.threads)
    for (const Stmt& s : t.body) n += stmt_instr_count(s);
  for (const Stmt& s : spec.main_body) n += stmt_instr_count(s);
  return n;
}

namespace {

void write_stmt(std::ostringstream& out, const Stmt& s) {
  out << "s " << int(s.kind) << ' ' << int(s.op) << ' ' << s.imm << ' '
      << s.iters << ' ' << s.body.size() << '\n';
  for (const Stmt& b : s.body) write_stmt(out, b);
}

Stmt read_stmt(std::istringstream& in, bool allow_body) {
  std::string tag;
  int kind = 0, op = 0;
  int64_t imm = 0;
  uint32_t iters = 0;
  size_t nbody = 0;
  if (!(in >> tag >> kind >> op >> imm >> iters >> nbody) || tag != "s")
    throw VmError("fuzz case: malformed statement line");
  if (kind < 0 || kind > int(StmtKind::kLoop))
    throw VmError("fuzz case: unknown statement kind");
  Stmt s;
  s.kind = StmtKind(kind);
  s.op = uint8_t(op);
  s.imm = imm;
  s.iters = iters;
  if (nbody > 0 && (!allow_body || s.kind != StmtKind::kLoop))
    throw VmError("fuzz case: statement body where none is allowed");
  for (size_t i = 0; i < nbody; ++i)
    s.body.push_back(read_stmt(in, /*allow_body=*/false));
  return s;
}

}  // namespace

std::string serialize_case(const CaseSpec& spec) {
  std::ostringstream out;
  out << "dvfz 1\n";
  out << "seed " << spec.seed << '\n';
  const ScheduleSpec& sc = spec.sched;
  out << "timer " << sc.timer_seed << ' ' << sc.timer_min << ' '
      << sc.timer_max << '\n';
  out << "clock " << sc.clock_base << ' ' << sc.clock_step << '\n';
  out << "rand " << sc.rand_seed << '\n';
  out << "cfg " << sc.checkpoint_interval << ' ' << sc.chunk_bytes << ' '
      << (sc.mark_sweep ? 1 : 0) << '\n';
  out << "buffer " << sc.buffer_capacity << '\n';
  out << "inputs " << sc.inputs.size();
  for (int64_t v : sc.inputs) out << ' ' << v;
  out << '\n';
  for (const ThreadSpec& t : spec.threads) {
    out << "thread " << t.body.size() << '\n';
    for (const Stmt& s : t.body) write_stmt(out, s);
  }
  out << "main " << spec.main_body.size() << '\n';
  for (const Stmt& s : spec.main_body) write_stmt(out, s);
  out << "end\n";
  return out.str();
}

CaseSpec parse_case(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "dvfz" || version != 1)
    throw VmError("fuzz case: bad header (want 'dvfz 1')");
  CaseSpec spec;
  ScheduleSpec& sc = spec.sched;
  int mark_sweep = 0;
  size_t n = 0;
  while (in >> tag) {
    if (tag == "seed") {
      if (!(in >> spec.seed)) throw VmError("fuzz case: bad seed");
    } else if (tag == "timer") {
      if (!(in >> sc.timer_seed >> sc.timer_min >> sc.timer_max))
        throw VmError("fuzz case: bad timer line");
    } else if (tag == "clock") {
      if (!(in >> sc.clock_base >> sc.clock_step))
        throw VmError("fuzz case: bad clock line");
    } else if (tag == "rand") {
      if (!(in >> sc.rand_seed)) throw VmError("fuzz case: bad rand line");
    } else if (tag == "cfg") {
      if (!(in >> sc.checkpoint_interval >> sc.chunk_bytes >> mark_sweep))
        throw VmError("fuzz case: bad cfg line");
      sc.mark_sweep = mark_sweep != 0;
    } else if (tag == "buffer") {  // optional: older repros lack it
      if (!(in >> sc.buffer_capacity) || sc.buffer_capacity == 0 ||
          sc.buffer_capacity > (1u << 20))
        throw VmError("fuzz case: bad buffer line");
    } else if (tag == "inputs") {
      if (!(in >> n)) throw VmError("fuzz case: bad inputs line");
      sc.inputs.clear();
      for (size_t i = 0; i < n; ++i) {
        int64_t v;
        if (!(in >> v)) throw VmError("fuzz case: truncated inputs");
        sc.inputs.push_back(v);
      }
    } else if (tag == "thread") {
      if (!(in >> n)) throw VmError("fuzz case: bad thread line");
      ThreadSpec t;
      for (size_t i = 0; i < n; ++i)
        t.body.push_back(read_stmt(in, /*allow_body=*/true));
      spec.threads.push_back(std::move(t));
    } else if (tag == "main") {
      if (!(in >> n)) throw VmError("fuzz case: bad main line");
      for (size_t i = 0; i < n; ++i)
        spec.main_body.push_back(read_stmt(in, /*allow_body=*/true));
    } else if (tag == "end") {
      return spec;
    } else {
      throw VmError("fuzz case: unknown section '" + tag + "'");
    }
  }
  throw VmError("fuzz case: missing 'end'");
}

}  // namespace dejavu::fuzz
