// The execution engine: dispatch loop, instruction interpreter, frames,
// yield points, natives.
#include <cstdio>

#include "src/common/io.hpp"
#include "src/vm/boot_image.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::vm {

using bytecode::Instr;
using bytecode::Op;
using heap::Addr;
using threads::MonitorId;
using threads::SwitchReason;
using threads::Tid;

namespace {

// A guest fault, not a platform bug: its text reaches crash tails and their
// content hash, so unlike DV_CHECK it carries no source location.
[[noreturn, gnu::cold, gnu::noinline]] void guest_fault(
    const std::string& what) {
  throw VmError(what);
}

}  // namespace

// ----------------------------------------------------------- run control

void Vm::run() {
  if (!booted_) boot();
  while (!finished_) {
    step(1u << 20);
    if (stopped_at_probe_) break;
  }
  finish();
}

uint64_t Vm::step(uint64_t max_instr) {
  DV_CHECK_MSG(booted_, "step before boot");
  stopped_at_probe_ = false;
  uint64_t done = 0;
  while (done < max_instr && !halted_) {
    if (safepoint_requested_) {
      // Loop-top = safepoint: preemption unmasked, no native in flight,
      // any pending dispatch not yet begun. One-shot by construction.
      safepoint_requested_ = false;
      if (hooks_ != nullptr) hooks_->on_safepoint(*this);
    }
    if (!dispatch_if_needed()) {
      finished_ = true;
      break;
    }
    ExecContext& c = cur();
    if (c.pending_prologue) {
      // The method-prologue yield point fires before the first instruction
      // of a freshly pushed frame, attributed to the executing thread.
      c.pending_prologue = false;
      maybe_yield_point();
      if (threads_->current() == threads::kNoThread) continue;
    }
    if (probe_) {
      FrameView fv = frame_view(c, c.frames.back());
      if (probe_(*this, fv)) {
        stopped_at_probe_ = true;
        break;
      }
    }
    execute_instruction();
    ++done;
  }
  if (halted_) finished_ = true;
  return done;
}

bool Vm::step_one() {
  DV_CHECK_MSG(booted_, "step before boot");
  if (halted_ || finished_) return false;
  for (;;) {
    if (safepoint_requested_) {
      safepoint_requested_ = false;
      if (hooks_ != nullptr) hooks_->on_safepoint(*this);
    }
    if (!dispatch_if_needed()) {
      finished_ = true;
      return false;
    }
    ExecContext& c = cur();
    if (c.pending_prologue) {
      c.pending_prologue = false;
      maybe_yield_point();
      if (threads_->current() == threads::kNoThread) continue;
    }
    execute_instruction();
    if (halted_) finished_ = true;
    return true;
  }
}

bool Vm::dispatch_if_needed() {
  if (halted_) return false;
  if (threads_->current() != threads::kNoThread) return true;
  return threads_->schedule_next() != threads::kNoThread;
}

void Vm::finish() {
  finished_ = true;
  if (hooks_ != nullptr && !hooks_detached_) {
    hooks_detached_ = true;
    hooks_->detach(*this);
  }
}

BehaviorSummary Vm::summary() const {
  BehaviorSummary s;
  s.output_hash = out_hash_.digest();
  s.heap_hash = heap_->image_hash();
  s.switch_seq_hash = switch_hash_.digest();
  s.instr_count = instr_count_;
  s.switch_count = threads_->switch_count();
  s.preempt_count = preempt_count_;
  s.yield_points = yield_points_;
  s.gc_count = heap_->stats().gc_count;
  s.alloc_count = heap_->stats().alloc_count;
  s.audit_digest = audit_.digest();
  return s;
}

// --------------------------------------------------------------- frames

ExecContext& Vm::ctx(Tid t) {
  DV_CHECK(t != threads::kNoThread && t < contexts_.size());
  return *contexts_[t];
}

const ExecContext& Vm::ctx(Tid t) const {
  DV_CHECK(t != threads::kNoThread && t < contexts_.size());
  return *contexts_[t];
}

ExecContext& Vm::cur() { return ctx(threads_->current()); }

void Vm::grow_stack(ExecContext& c, uint32_t min_capacity) {
  uint32_t newcap = c.capacity_slots;
  while (newcap < min_capacity) newcap *= 2;
  // Jalapeño activation stacks are heap arrays; growth allocates a new one
  // (and the old becomes garbage) -- a side effect the symmetry machinery
  // must keep identical across modes (§2.4 "Symmetry in Stack Overflow").
  uint64_t arr = galloc_array_bytes(uint64_t(newcap) * 8);
  c.stack_array = arr;
  heap_->set_field_ref(Addr(c.thread_obj), kThreadStack, Addr(arr));
  c.capacity_slots = newcap;
  audit_.append(AuditKind::kStackGrow,
                threads_->name(c.tid) + ":" + std::to_string(newcap),
                instr_count_);
}

void Vm::push_frame(ExecContext& c, CompiledMethod* m, const uint64_t*,
                    size_t nargs_in_place) {
  DV_CHECK_MSG(m->compiled, "push_frame of uncompiled method");
  uint32_t locals_base = c.sp - uint32_t(nargs_in_place);
  uint32_t num_locals = m->def->num_locals;
  uint32_t need_top = locals_base + num_locals + m->verified.max_stack;
  if (need_top > c.capacity_slots) grow_stack(c, need_top);
  if (c.slots.size() < need_top) c.slots.resize(need_top, 0);
  for (uint32_t j = uint32_t(nargs_in_place); j < num_locals; ++j)
    c.slots[locals_base + j] = 0;
  c.frames.push_back(Frame{m, 0, locals_base, locals_base + num_locals});
  c.sp = locals_base + num_locals;
  c.pending_prologue = (mask_depth_ == 0);
}

void Vm::pop_frame_return(ExecContext& c, bool has_value, uint64_t value) {
  Frame f = c.frames.back();
  c.frames.pop_back();
  c.sp = f.locals_base;  // pops the arguments from the caller's stack
  if (c.frames.empty()) {
    if (subs_.threads) {
      ThreadEvent ev;
      ev.op = ThreadOp::kExit;
      ev.tid = c.tid;
      ev.instr_index = instr_count_;
      hooks_->on_thread_event(ev);
    }
    threads_->on_thread_exit();
    return;
  }
  c.frames.back().pc += 1;
  if (has_value) push_slot(value);
}

Tid Vm::spawn_thread(CompiledMethod* entry, uint64_t /*unused*/,
                     const std::string& name) {
  Tid t = threads_->create_thread(name);
  if (contexts_.size() <= t) contexts_.resize(t + 1);
  contexts_[t] = std::make_unique<ExecContext>();
  ExecContext& c = *contexts_[t];
  c.tid = t;
  c.capacity_slots = opts_.initial_stack_slots;

  TempRoots tr(*this);
  size_t h_stack = tr.add(galloc_array_bytes(uint64_t(c.capacity_slots) * 8));
  size_t h_name = tr.add(make_guest_string(name));
  uint64_t tobj = galloc_object(kTypeThread);
  heap_->set_field_ref(Addr(tobj), kThreadName, Addr(tr.get(h_name)));
  heap_->set_field_i64(Addr(tobj), kThreadTid, int64_t(t));
  heap_->set_field_ref(Addr(tobj), kThreadStack, Addr(tr.get(h_stack)));
  c.thread_obj = tobj;
  c.stack_array = tr.get(h_stack);
  append_to_table(kRegThreadTable, kRegThreadCount, c.thread_obj);

  // Entry frame: one ref local (the argument), filled by the caller.
  c.sp = 0;
  push_frame(c, entry, nullptr, 0);
  c.pending_prologue = true;
  audit_.append(AuditKind::kThreadCreate, name, instr_count_);
  return t;
}

FrameView Vm::frame_view(const ExecContext&, const Frame& f) const {
  FrameView fv;
  fv.class_name = f.method->owner->name;
  fv.method_name = f.method->def->name;
  fv.pc = f.pc;
  fv.line = f.method->def->code[f.pc].line;
  fv.method_metadata_addr = f.method->metadata_obj;
  return fv;
}

std::vector<FrameView> Vm::frames_of(Tid t) const {
  std::vector<FrameView> out;
  if (t == threads::kNoThread || t >= contexts_.size() ||
      contexts_[t] == nullptr)
    return out;
  const ExecContext& c = *contexts_[t];
  for (const Frame& f : c.frames) out.push_back(frame_view(c, f));
  return out;
}

FrameView Vm::current_frame_view() const {
  Tid t = threads_->current();
  DV_CHECK(t != threads::kNoThread);
  const ExecContext& c = ctx(t);
  DV_CHECK(!c.frames.empty());
  return frame_view(c, c.frames.back());
}

// ------------------------------------------------------------ stack ops

void Vm::push_slot(uint64_t v) {
  ExecContext& c = cur();
  if (c.slots.size() <= c.sp) c.slots.resize(c.sp + 16, 0);
  c.slots[c.sp++] = v;
}

uint64_t Vm::pop_slot() {
  ExecContext& c = cur();
  DV_CHECK_MSG(c.sp > c.frames.back().stack_base, "operand stack underflow in "
               << c.frames.back().method->def->name << " pc="
               << c.frames.back().pc << " sp=" << c.sp << " base="
               << c.frames.back().stack_base);
  return c.slots[--c.sp];
}

uint64_t Vm::peek_slot(uint32_t depth_from_top) const {
  const ExecContext& c = ctx(threads_->current());
  DV_CHECK(c.sp > depth_from_top);
  return c.slots[c.sp - 1 - depth_from_top];
}

void Vm::emit_output(const std::string& s) {
  out_ += s;
  out_hash_.update_str(s);
  if (opts_.echo_output) std::fwrite(s.data(), 1, s.size(), stdout);
}

// ----------------------------------------------------------- yield point

void Vm::maybe_yield_point() {
  if (mask_depth_ != 0) return;  // native callbacks run unpreemptible
  yield_points_++;
  bool hw = timer_.fired(instr_count_);
  bool do_switch = hooks_ != nullptr ? hooks_->yield_point(hw) : hw;
  if (do_switch) {
    timer_.rearm(instr_count_);
    preempt_count_++;
    threads_->switch_out(SwitchReason::kPreempt);
  }
}

int64_t Vm::nd(NdKind kind, int64_t live) {
  return hooks_ != nullptr ? hooks_->nd_value(kind, live) : live;
}

void Vm::emit_monitor_event(MonitorOp op, Tid tid, MonitorId mid, Tid holder,
                            bool recursive, uint32_t woken) {
  MonitorEvent e;
  e.op = op;
  e.tid = tid;
  e.monitor = mid;
  e.holder = holder;
  e.recursive = recursive;
  e.woken = woken;
  e.instr_index = instr_count_;
  hooks_->on_monitor_event(e);
}

threads::MonitorId Vm::monitor_of(Addr obj) {
  if (obj == heap::kNull) guest_fault("synchronization on null");
  uint32_t lw = heap_->lockword(obj);
  if (lw == 0) {
    lw = threads_->create_monitor();  // monitor inflation, deterministic
    heap_->set_lockword(obj, lw);
  }
  return MonitorId(lw);
}

// ------------------------------------------------------------- natives

int64_t NativeContext::call_guest(const std::string& cls,
                                  const std::string& method,
                                  const std::vector<int64_t>& args) {
  return vm_.native_callback_from_record(cls, method, args);
}

int64_t Vm::native_callback_from_record(const std::string& cls,
                                        const std::string& method,
                                        const std::vector<int64_t>& args) {
  if (hooks_ != nullptr) hooks_->native_record_callback(cls, method, args);
  return call_guest_masked(cls, method, args);
}

int64_t Vm::call_guest_masked(const std::string& cls,
                              const std::string& method,
                              const std::vector<int64_t>& args) {
  RuntimeClass* rc = const_cast<RuntimeClass*>(runtime_class(cls));
  DV_CHECK_MSG(rc != nullptr, "callback target class " << cls << " missing");
  ensure_loaded(rc);
  CompiledMethod* m = rc->find_method(method);
  DV_CHECK_MSG(m != nullptr, "callback target " << cls << "." << method
                                                << " missing");
  DV_CHECK_MSG(!m->def->is_virtual, "callbacks must target static methods");
  DV_CHECK_MSG(m->def->args.size() == args.size(),
               "callback arity mismatch for " << cls << "." << method);
  for (auto t : m->def->args)
    DV_CHECK_MSG(t == bytecode::ValueType::kI64,
                 "callback arguments must be i64");
  ensure_compiled(m);

  mask_depth_++;
  ExecContext& c = cur();
  size_t entry_depth = c.frames.size();
  // The frame beneath us is parked mid-instruction on its kNativeCall.
  // pop_frame_return advances the caller's pc (the invoke convention:
  // kInvokeStatic defers its pc++ to the callee's return), but here the
  // native-call dispatch performs its own pc++ when do_native_call
  // returns -- so the callback's return must leave the caller's pc
  // untouched, or the instruction after the nativecall is skipped.
  uint32_t caller_pc = c.frames.back().pc;
  for (int64_t a : args) push_slot(uint64_t(a));
  push_frame(c, m, nullptr, args.size());
  while (c.frames.size() > entry_depth) {
    DV_CHECK_MSG(threads_->current() == c.tid,
                 "blocking operation inside a native callback");
    execute_instruction();
  }
  c.frames.back().pc = caller_pc;
  int64_t ret = 0;
  if (m->def->ret.has_value()) ret = int64_t(pop_slot());
  mask_depth_--;
  return ret;
}

void Vm::do_native_call(const Instr& ins) {
  const std::string& name = prog_.pool.native_refs[ins.a];
  size_t nargs = size_t(ins.b);
  std::vector<int64_t> args(nargs);
  for (size_t i = nargs; i-- > 0;) args[i] = int64_t(pop_slot());

  int64_t result = 0;
  if (hooks_ != nullptr && !hooks_->native_executes()) {
    // Replay: regenerate callbacks and the return value from the trace
    // without executing the native (§2.5).
    for (;;) {
      std::string cb_cls, cb_m;
      std::vector<int64_t> cb_args;
      int64_t ret = 0;
      if (hooks_->native_replay_next(&cb_cls, &cb_m, &cb_args, &ret)) {
        call_guest_masked(cb_cls, cb_m, cb_args);
      } else {
        result = ret;
        break;
      }
    }
  } else {
    DV_CHECK_MSG(natives_ != nullptr, "no native registry installed");
    const NativeFn* fn = natives_->find(name);
    DV_CHECK_MSG(fn != nullptr, "unregistered native " << name);
    NativeContext nc(*this);
    result = (*fn)(nc, args);
    if (hooks_ != nullptr) result = hooks_->native_record_return(result);
  }
  push_slot(uint64_t(result));
}

// -------------------------------------------------------- interpreter

void Vm::do_invoke(CompiledMethod* callee) {
  ensure_loaded(callee->owner);
  ensure_compiled(callee);
  ExecContext& c = cur();
  push_frame(c, callee, nullptr, callee->def->args.size());
}

void Vm::execute_instruction() {
  instr_count_++;
  if (instr_count_ > opts_.max_instructions) [[unlikely]]
    guest_fault("instruction budget exhausted (runaway?)");
  ExecContext& c = cur();
  Frame& f = c.frames.back();
  CompiledMethod* m = f.method;
  const Instr& ins = m->def->code[f.pc];

  auto pop_i = [&] { return int64_t(pop_slot()); };
  auto push_i = [&](int64_t v) { push_slot(uint64_t(v)); };
  auto pop_ref = [&] { return Addr(pop_slot()); };
  auto bin = [&](auto fn) {
    int64_t b = pop_i();
    int64_t a = pop_i();
    push_i(fn(a, b));
    f.pc++;
  };
  // Backward branches carry yield points; the yield point executes when
  // the edge is *taken* (Jalapeño inserts yield code on the backedge).
  auto take_branch = [&](int32_t target) {
    bool backward = target <= int32_t(f.pc);
    f.pc = uint32_t(target);
    if (backward) maybe_yield_point();
  };
  const bool mem_hooks = subs_.memory;
  if (subs_.instructions) {
    InstrEvent ev;
    ev.tid = c.tid;
    ev.owner = &m->owner->name;
    ev.method = &m->def->name;
    ev.pc = f.pc;
    ev.opcode = uint8_t(ins.op);
    ev.line = ins.line;
    ev.frame_depth = uint32_t(c.frames.size());
    ev.instr_index = instr_count_;
    hooks_->on_instruction(ev);
  }

  using enum Op;
  switch (ins.op) {
    case kNop:
      f.pc++;
      break;
    case kPushI:
      push_i(ins.b);
      f.pc++;
      break;
    case kPushNull:
      push_slot(0);
      f.pc++;
      break;
    case kPushStr:
      push_slot(intern_pool_string(ins.a));
      cur().frames.back().pc++;  // re-fetch: interning may not move frames,
                                 // but keep the invariant explicit
      break;
    case kPop:
      pop_slot();
      f.pc++;
      break;
    case kDup: {
      uint64_t v = peek_slot();
      push_slot(v);
      f.pc++;
      break;
    }
    case kSwap: {
      uint64_t a = pop_slot();
      uint64_t b = pop_slot();
      push_slot(a);
      push_slot(b);
      f.pc++;
      break;
    }
    case kLoad:
      push_slot(c.slots[f.locals_base + uint32_t(ins.a)]);
      f.pc++;
      break;
    case kStore:
      c.slots[f.locals_base + uint32_t(ins.a)] = pop_slot();
      f.pc++;
      break;
    case kAdd:
      bin([](int64_t a, int64_t b) { return a + b; });
      break;
    case kSub:
      bin([](int64_t a, int64_t b) { return a - b; });
      break;
    case kMul:
      bin([](int64_t a, int64_t b) { return a * b; });
      break;
    case kDiv:
      bin([](int64_t a, int64_t b) {
        if (b == 0) guest_fault("division by zero");
        return a / b;
      });
      break;
    case kMod:
      bin([](int64_t a, int64_t b) {
        if (b == 0) guest_fault("modulo by zero");
        return a % b;
      });
      break;
    case kNeg:
      push_i(-pop_i());
      f.pc++;
      break;
    case kAnd:
      bin([](int64_t a, int64_t b) { return a & b; });
      break;
    case kOr:
      bin([](int64_t a, int64_t b) { return a | b; });
      break;
    case kXor:
      bin([](int64_t a, int64_t b) { return a ^ b; });
      break;
    case kShl:
      bin([](int64_t a, int64_t b) { return int64_t(uint64_t(a) << (b & 63)); });
      break;
    case kShr:
      bin([](int64_t a, int64_t b) { return a >> (b & 63); });
      break;
    case kCmpLt:
      bin([](int64_t a, int64_t b) { return int64_t(a < b); });
      break;
    case kCmpLe:
      bin([](int64_t a, int64_t b) { return int64_t(a <= b); });
      break;
    case kCmpGt:
      bin([](int64_t a, int64_t b) { return int64_t(a > b); });
      break;
    case kCmpGe:
      bin([](int64_t a, int64_t b) { return int64_t(a >= b); });
      break;
    case kCmpEq:
      bin([](int64_t a, int64_t b) { return int64_t(a == b); });
      break;
    case kCmpNe:
      bin([](int64_t a, int64_t b) { return int64_t(a != b); });
      break;
    case kAcmpEq: {
      Addr b = pop_ref();
      Addr a = pop_ref();
      push_i(int64_t(a == b));
      f.pc++;
      break;
    }
    case kAcmpNe: {
      Addr b = pop_ref();
      Addr a = pop_ref();
      push_i(int64_t(a != b));
      f.pc++;
      break;
    }
    case kJmp:
      take_branch(ins.a);
      break;
    case kJz: {
      int64_t v = pop_i();
      if (v == 0) {
        take_branch(ins.a);
      } else {
        f.pc++;
      }
      break;
    }
    case kJnz: {
      int64_t v = pop_i();
      if (v != 0) {
        take_branch(ins.a);
      } else {
        f.pc++;
      }
      break;
    }
    case kInvokeStatic:
      do_invoke(m->resolved[f.pc].callee);
      break;
    case kInvokeVirtual: {
      size_t nargs = 0;
      {
        const bytecode::MethodRef& mr = prog_.pool.method_refs[ins.a];
        // Receiver is the deepest argument; count from the *named* target's
        // signature (overrides keep the signature, enforced at verify).
        const bytecode::MethodDef* named = bytecode::resolve_method_def(
            prog_, mr.class_name, mr.method_name);
        nargs = named->args.size();
        Addr recv = Addr(peek_slot(uint32_t(nargs - 1)));
        if (recv == heap::kNull) guest_fault("invoke_virtual on null");
        const RuntimeClass* rc =
            runtime_class_by_type_id(heap_->class_of(recv));
        DV_CHECK_MSG(rc != nullptr, "receiver has no runtime class");
        auto it = rc->vtable.find(mr.method_name);
        if (it == rc->vtable.end())
          guest_fault("no virtual method " + mr.method_name + " on " +
                      rc->name);
        do_invoke(it->second);
      }
      break;
    }
    case kRet:
      pop_frame_return(c, false, 0);
      break;
    case kRetVal: {
      uint64_t v = pop_slot();
      pop_frame_return(c, true, v);
      break;
    }
    case kNew: {
      RuntimeClass* rc = m->resolved[f.pc].cls;
      ensure_loaded(rc);
      uint64_t obj = galloc_object(rc->instance_type_id);
      push_slot(obj);
      cur().frames.back().pc++;
      break;
    }
    case kGetField: {
      const ResolvedOp& r = m->resolved[f.pc];
      Addr obj = pop_ref();
      int64_t v = heap_->field_i64(obj, uint32_t(r.slot));
      if (mem_hooks) hooks_->on_heap_read(obj, uint32_t(r.slot), &v, r.ref);
      push_i(v);
      f.pc++;
      break;
    }
    case kPutField: {
      const ResolvedOp& r = m->resolved[f.pc];
      uint64_t v = pop_slot();
      Addr obj = pop_ref();
      if (mem_hooks)
        hooks_->on_heap_write(obj, uint32_t(r.slot), int64_t(v), r.ref);
      heap_->set_field_i64(obj, uint32_t(r.slot), int64_t(v));
      f.pc++;
      break;
    }
    case kGetStatic: {
      const ResolvedOp& r = m->resolved[f.pc];
      ensure_loaded(r.cls);
      Addr obj = Addr(r.cls->statics_obj);
      int64_t v = heap_->field_i64(obj, uint32_t(r.slot));
      if (mem_hooks) hooks_->on_heap_read(obj, uint32_t(r.slot), &v, r.ref);
      push_i(v);
      cur().frames.back().pc++;
      break;
    }
    case kPutStatic: {
      const ResolvedOp& r = m->resolved[f.pc];
      ensure_loaded(r.cls);
      uint64_t v = pop_slot();
      Addr obj = Addr(r.cls->statics_obj);
      if (mem_hooks)
        hooks_->on_heap_write(obj, uint32_t(r.slot), int64_t(v), r.ref);
      heap_->set_field_i64(obj, uint32_t(r.slot), int64_t(v));
      cur().frames.back().pc++;
      break;
    }
    case kNewArrI: {
      int64_t n = pop_i();
      if (n < 0) guest_fault("negative array length");
      push_slot(galloc_array_i64(uint64_t(n)));
      cur().frames.back().pc++;
      break;
    }
    case kNewArrR: {
      int64_t n = pop_i();
      if (n < 0) guest_fault("negative array length");
      push_slot(galloc_array_ref(uint64_t(n)));
      cur().frames.back().pc++;
      break;
    }
    case kALoadI:
    case kALoadR: {
      int64_t idx = pop_i();
      Addr arr = pop_ref();
      int64_t v = heap_->array_i64(arr, uint64_t(idx));
      if (mem_hooks)
        hooks_->on_heap_read(arr, uint32_t(idx), &v, ins.op == kALoadR);
      push_i(v);
      f.pc++;
      break;
    }
    case kAStoreI:
    case kAStoreR: {
      uint64_t v = pop_slot();
      int64_t idx = pop_i();
      Addr arr = pop_ref();
      if (mem_hooks)
        hooks_->on_heap_write(arr, uint32_t(idx), int64_t(v),
                              ins.op == kAStoreR);
      heap_->set_array_i64(arr, uint64_t(idx), int64_t(v));
      f.pc++;
      break;
    }
    case kArrayLen: {
      Addr arr = pop_ref();
      push_i(int64_t(heap_->array_length(arr)));
      f.pc++;
      break;
    }
    case kMonitorEnter: {
      Addr obj = Addr(peek_slot());
      MonitorId mid = monitor_of(obj);
      const bool mon_hooks = subs_.monitors;
      Tid prev_owner = mon_hooks ? threads_->monitor_owner(mid)
                                 : threads::kNoThread;
      if (threads_->monitor_enter(mid)) {
        pop_slot();
        f.pc++;
        if (mon_hooks)
          emit_monitor_event(MonitorOp::kEnterAcquired, c.tid, mid,
                             threads::kNoThread, prev_owner == c.tid, 0);
      } else if (mon_hooks) {
        emit_monitor_event(MonitorOp::kEnterBlocked, c.tid, mid, prev_owner,
                           false, 0);
      }
      // else: blocked; the instruction re-executes when rescheduled
      break;
    }
    case kMonitorExit: {
      Addr obj = pop_ref();
      MonitorId mid = monitor_of(obj);
      threads_->monitor_exit(mid);
      f.pc++;
      if (subs_.monitors)
        emit_monitor_event(MonitorOp::kExit, c.tid, mid, threads::kNoThread,
                           false, 0);
      break;
    }
    case kWait:
    case kTimedWait: {
      const bool mon_hooks = subs_.monitors;
      if (c.op_phase == 0) {
        int64_t timeout = -1;
        if (ins.op == kTimedWait) timeout = pop_i();
        Addr obj = Addr(peek_slot());
        MonitorId mid = monitor_of(obj);
        threads::WaitOutcome imm;
        if (!threads_->wait_begin(mid, timeout, &imm)) {
          pop_slot();
          push_i(imm.interrupted ? 1 : 0);
          f.pc++;
          if (mon_hooks) {
            // Interrupted-before-wait completes in place: a zero-length wait.
            emit_monitor_event(MonitorOp::kWaitBegin, c.tid, mid,
                               threads::kNoThread, false, 0);
            emit_monitor_event(MonitorOp::kWaitEnd, c.tid, mid,
                               threads::kNoThread, false, 0);
          }
        } else {
          c.op_phase = 1;  // parked; must re-acquire when rescheduled
          if (mon_hooks)
            emit_monitor_event(MonitorOp::kWaitBegin, c.tid, mid,
                               threads::kNoThread, false, 0);
        }
      } else {
        Addr obj = Addr(peek_slot());
        MonitorId mid = monitor_of(obj);
        if (threads_->monitor_enter(mid)) {
          threads::WaitOutcome out = threads_->wait_finish(mid);
          c.op_phase = 0;
          pop_slot();
          push_i(out.interrupted ? 1 : 0);
          f.pc++;
          // kWaitEnd covers park + re-acquire: its distance from kWaitBegin
          // includes any contention on the way back in.
          if (mon_hooks)
            emit_monitor_event(MonitorOp::kWaitEnd, c.tid, mid,
                               threads::kNoThread, false, 0);
        }
        // else: blocked on re-acquisition; re-executes phase 1 later
      }
      break;
    }
    case kNotify: {
      Addr obj = pop_ref();
      MonitorId mid = monitor_of(obj);
      bool woke = threads_->notify_one(mid);
      f.pc++;
      if (subs_.monitors)
        emit_monitor_event(MonitorOp::kNotifyOne, c.tid, mid,
                           threads::kNoThread, false, woke ? 1 : 0);
      break;
    }
    case kNotifyAll: {
      Addr obj = pop_ref();
      MonitorId mid = monitor_of(obj);
      int woke = threads_->notify_all(mid);
      f.pc++;
      if (subs_.monitors)
        emit_monitor_event(MonitorOp::kNotifyAll, c.tid, mid,
                           threads::kNoThread, false, uint32_t(woke));
      break;
    }
    case kInterrupt: {
      Addr tobj = pop_ref();
      DV_CHECK_MSG(tobj != heap::kNull && heap_->class_of(tobj) == kTypeThread,
                   "interrupt target is not a Thread");
      threads_->interrupt(Tid(heap_->field_i64(tobj, kThreadTid)));
      f.pc++;
      break;
    }
    case kSpawn: {
      CompiledMethod* entry = m->resolved[f.pc].callee;
      ensure_loaded(entry->owner);
      ensure_compiled(entry);
      TempRoots tr(*this);
      size_t h_arg = tr.add(peek_slot());
      Tid t = spawn_thread(entry, 0,
                           "thread-" + std::to_string(contexts_.size()));
      ExecContext& nc = ctx(t);
      nc.slots[nc.frames.back().locals_base] = tr.get(h_arg);
      ExecContext& c2 = cur();  // re-establish (no move, but be explicit)
      (void)c2;
      pop_slot();
      push_slot(ctx(t).thread_obj);
      cur().frames.back().pc++;
      if (subs_.threads) {
        ThreadEvent ev;
        ev.op = ThreadOp::kSpawn;
        ev.tid = cur().tid;
        ev.other = t;
        ev.instr_index = instr_count_;
        hooks_->on_thread_event(ev);
      }
      break;
    }
    case kJoin: {
      Addr tobj = Addr(peek_slot());
      DV_CHECK_MSG(tobj != heap::kNull && heap_->class_of(tobj) == kTypeThread,
                   "join target is not a Thread");
      Tid target = Tid(heap_->field_i64(tobj, kThreadTid));
      if (!threads_->join_would_block(target)) {
        pop_slot();
        f.pc++;
        // Fires for both the immediate case and the re-execution after a
        // parked join wakes: either way the target has fully terminated.
        if (subs_.threads) {
          ThreadEvent ev;
          ev.op = ThreadOp::kJoinEnd;
          ev.tid = c.tid;
          ev.other = target;
          ev.instr_index = instr_count_;
          hooks_->on_thread_event(ev);
        }
      } else {
        threads_->join_begin(target);
        // pc unchanged: re-executes (and completes) after termination
      }
      break;
    }
    case kYield:
      f.pc++;
      threads_->switch_out(SwitchReason::kYield);
      break;
    case kSleep: {
      int64_t ms = pop_i();
      f.pc++;
      threads_->sleep_begin(ms);
      break;
    }
    case kCurrentThread:
      push_slot(c.thread_obj);
      f.pc++;
      break;
    case kNow:
      push_i(nd(NdKind::kClock, env_.clock_ms()));
      f.pc++;
      break;
    case kReadInput:
      push_i(nd(NdKind::kInput, env_.read_input()));
      f.pc++;
      break;
    case kEnvRand:
      push_i(nd(NdKind::kRand, env_.env_rand()));
      f.pc++;
      break;
    case kNativeCall:
      do_native_call(ins);
      cur().frames.back().pc++;
      break;
    case kPrintI:
      emit_output(std::to_string(pop_i()) + "\n");
      f.pc++;
      break;
    case kPrintLit:
      emit_output(prog_.pool.strings[ins.a]);
      f.pc++;
      break;
    case kPrintStr: {
      Addr s = pop_ref();
      emit_output(read_guest_string(s));
      f.pc++;
      break;
    }
    case kGcForce:
      heap_->collect();
      cur().frames.back().pc++;
      break;
    case kHalt:
      halted_ = true;
      break;
  }
}

}  // namespace dejavu::vm
