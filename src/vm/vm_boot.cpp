// VM construction, boot, class loading, metadata reification, GC roots.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "src/bytecode/verifier.hpp"
#include "src/common/io.hpp"
#include "src/vm/boot_image.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::vm {

using bytecode::ValueType;
using heap::Addr;
using threads::Tid;

Vm::Vm(bytecode::Program program, VmOptions options, Environment& env,
       threads::TimerSource& timer, ExecHooks* hooks,
       const NativeRegistry* natives)
    : prog_(std::move(program)),
      opts_(options),
      env_(env),
      timer_(timer),
      hooks_(hooks),
      natives_(natives) {
  bytecode::verify_program(prog_);
  register_builtin_types();
  heap_ = std::make_unique<heap::Heap>(types_, opts_.heap);
  threads_ = std::make_unique<threads::ThreadPackage>(
      [this] { return nd(NdKind::kClock, env_.clock_ms()); },
      [this] { env_.idle(); }, opts_.lanes == 0 ? 1 : opts_.lanes);
  build_runtime_classes();
  contexts_.resize(1);  // slot 0 = kNoThread
}

Vm::~Vm() = default;

void Vm::register_builtin_types() {
  auto reg = [&](const std::string& name, std::vector<bool> refs) {
    heap::TypeInfo ti;
    ti.name = name;
    ti.num_slots = uint32_t(refs.size());
    ti.ref_slot = std::move(refs);
    return types_.register_type(std::move(ti));
  };
  uint32_t id;
  id = reg("String", {true});
  DV_CHECK(id == kTypeString);
  id = reg("Thread", {true, false, true});
  DV_CHECK(id == kTypeThread);
  id = reg("VM_Class", {true, true, true, true, false});
  DV_CHECK(id == kTypeVmClass);
  id = reg("VM_Method", {true, true, true, false});
  DV_CHECK(id == kTypeVmMethod);
  id = reg("VM_Registry", {true, false, true, true, false});
  DV_CHECK(id == kTypeVmRegistry);
}

void Vm::build_runtime_classes() {
  for (const auto& cd : prog_.classes) {
    auto rc = std::make_unique<RuntimeClass>();
    rc->def = &cd;
    rc->name = cd.name;
    for (const auto& md : cd.methods) {
      auto cm = std::make_unique<CompiledMethod>();
      cm->owner = rc.get();
      cm->def = &md;
      rc->methods.push_back(std::move(cm));
    }
    classes_.push_back(std::move(rc));
  }
  // Wire supers (verify_program guarantees resolvability and acyclicity).
  for (auto& rc : classes_) {
    if (!rc->def->super.empty()) {
      RuntimeClass* sup = const_cast<RuntimeClass*>(
          runtime_class(rc->def->super));
      DV_CHECK(sup != nullptr);
      rc->super = sup;
    }
  }
  for (auto& rc : classes_) compute_layouts(*rc);
  build_vtables();
}

void Vm::compute_layouts(RuntimeClass& rc) {
  if (!rc.layout.empty() || !rc.field_slot.empty()) return;  // memoized
  if (rc.super != nullptr) {
    compute_layouts(*rc.super);
    rc.layout = rc.super->layout;
    rc.field_slot = rc.super->field_slot;
  }
  if (rc.def != nullptr) {
    for (const auto& f : rc.def->fields) {
      DV_CHECK_MSG(rc.field_slot.find(f.name) == rc.field_slot.end(),
                   "field " << f.name << " shadows a superclass field in "
                            << rc.name);
      rc.field_slot[f.name] = uint32_t(rc.layout.size());
      rc.layout.push_back(FieldSlot{f.name, f.type});
    }
    // Statics are per-defining-class (not inherited into the record).
    for (const auto& f : rc.def->statics) {
      rc.static_slot[f.name] = uint32_t(rc.statics_layout.size());
      rc.statics_layout.push_back(FieldSlot{f.name, f.type});
    }
  }
}

void Vm::build_vtables() {
  // Process in hierarchy order: repeat until all done (tiny class counts).
  std::vector<RuntimeClass*> order;
  std::function<void(RuntimeClass*)> visit = [&](RuntimeClass* rc) {
    if (std::find(order.begin(), order.end(), rc) != order.end()) return;
    if (rc->super != nullptr) visit(rc->super);
    order.push_back(rc);
  };
  for (auto& rc : classes_) visit(rc.get());
  for (RuntimeClass* rc : order) {
    if (rc->super != nullptr) rc->vtable = rc->super->vtable;
    for (auto& m : rc->methods) {
      if (m->def->is_virtual) rc->vtable[m->def->name] = m.get();
    }
  }
}

const RuntimeClass* Vm::runtime_class(const std::string& name) const {
  for (const auto& rc : classes_) {
    if (rc->name == name) return rc.get();
  }
  return nullptr;
}

const RuntimeClass* Vm::runtime_class_by_type_id(uint32_t type_id) const {
  size_t idx = type_id;
  if (idx >= by_type_id_.size()) return nullptr;
  return by_type_id_[idx];
}

// ------------------------------------------------------------------- boot

void Vm::wire_observers() {
  heap_->set_root_provider(this);
  heap_->set_gc_observer([this](uint64_t idx, uint64_t live) {
    audit_.append(AuditKind::kGc,
                  "gc#" + std::to_string(idx) + " live=" +
                      std::to_string(live),
                  instr_count_);
  });
  // A hook's subscriptions are fixed before this point (hooks.hpp): read
  // them once, so no event site pays a virtual call to ask again.
  if (hooks_ != nullptr) {
    subs_.instructions = hooks_->wants_instruction_events();
    subs_.memory = hooks_->wants_memory_events();
    subs_.monitors = hooks_->wants_monitor_events();
    subs_.threads = hooks_->wants_thread_events();
  }
  if (subs_.memory) {
    heap_->set_move_observer([this](heap::Addr from, heap::Addr to) {
      hooks_->on_heap_move(from, to);
    });
  }
  threads_->set_switch_observer(
      [this](Tid from, Tid to, threads::SwitchReason reason) {
        switch_hash_.update_u32(uint32_t(from));
        switch_hash_.update_u32(uint32_t(to));
        switch_hash_.update_u32(uint32_t(reason));
        switch_trace_.push_back(uint8_t(reason));
        switch_trace_.push_back(uint8_t(to));
        if (hooks_ != nullptr) hooks_->on_switch(from, to, reason);
      });
  threads_->set_cross_lane_observer([this](const threads::CrossLaneEvent& e) {
    // Cross-lane edges fold into the switch hash: the audit-grade identity
    // for "same interleaving" must also pin the inter-lane order.
    switch_hash_.update_u32(uint32_t(e.kind));
    switch_hash_.update_u32(uint32_t(e.from));
    switch_hash_.update_u32(uint32_t(e.to));
    if (hooks_ != nullptr) hooks_->on_cross_lane(e);
  });
}

void Vm::boot() {
  DV_CHECK_MSG(!booted_, "Vm::boot called twice");
  wire_observers();

  // Boot registry + tables (the "boot image" root).
  {
    TempRoots tr(*this);
    size_t h_class = tr.add(galloc_array_ref(16));
    size_t h_intern =
        tr.add(galloc_array_ref(std::max<size_t>(prog_.pool.strings.size(), 1)));
    size_t h_threads = tr.add(galloc_array_ref(8));
    uint64_t reg = galloc_object(kTypeVmRegistry);
    heap_->set_field_ref(Addr(reg), kRegClassTable, Addr(tr.get(h_class)));
    heap_->set_field_ref(Addr(reg), kRegInternTable, Addr(tr.get(h_intern)));
    heap_->set_field_ref(Addr(reg), kRegThreadTable, Addr(tr.get(h_threads)));
    registry_obj_ = reg;
  }
  pool_string_cache_.assign(prog_.pool.strings.size(), 0);

  // DejaVu initialization runs before the application starts (§2.4).
  if (hooks_ != nullptr) hooks_->attach(*this);

  // Load the main class and start the main thread.
  RuntimeClass* mainc = const_cast<RuntimeClass*>(
      runtime_class(prog_.main.class_name));
  DV_CHECK(mainc != nullptr);
  ensure_loaded(mainc);
  std::string def_cls;
  bytecode::resolve_method_def(prog_, prog_.main.class_name,
                               prog_.main.method_name, &def_cls);
  RuntimeClass* defc =
      const_cast<RuntimeClass*>(runtime_class(def_cls));
  CompiledMethod* mainm = defc->find_method(prog_.main.method_name);
  DV_CHECK(mainm != nullptr);
  ensure_loaded(defc);
  ensure_compiled(mainm);
  spawn_thread(mainm, 0, "main");

  booted_ = true;
}

// -------------------------------------------------------- class loading

RuntimeClass* Vm::ensure_loaded(RuntimeClass* rc) {
  if (rc->loaded) return rc;
  if (rc->super != nullptr) ensure_loaded(rc->super);

  // Register the instance type.
  heap::TypeInfo ti;
  ti.name = rc->name;
  ti.num_slots = uint32_t(rc->layout.size());
  for (const auto& f : rc->layout)
    ti.ref_slot.push_back(f.type == ValueType::kRef);
  rc->instance_type_id = types_.register_type(std::move(ti));

  // Register the statics record type.
  heap::TypeInfo st;
  st.name = "<statics:" + rc->name + ">";
  st.num_slots = uint32_t(rc->statics_layout.size());
  for (const auto& f : rc->statics_layout)
    st.ref_slot.push_back(f.type == ValueType::kRef);
  rc->statics_type_id = types_.register_type(std::move(st));

  if (by_type_id_.size() <= rc->statics_type_id)
    by_type_id_.resize(rc->statics_type_id + 1, nullptr);
  by_type_id_[rc->instance_type_id] = rc;

  // Loading allocates: the statics record and the reified metadata (§2.4
  // notes class loading "usually involves allocating new heap objects",
  // which is why DejaVu must keep it symmetric).
  rc->statics_obj = galloc_object(rc->statics_type_id);
  rc->metadata_obj = make_metadata_for(*rc);
  append_to_table(kRegClassTable, kRegClassCount, rc->metadata_obj);

  rc->loaded = true;
  audit_.append(AuditKind::kClassLoad, rc->name, instr_count_);
  return rc;
}

uint64_t Vm::make_metadata_for(RuntimeClass& rc) {
  TempRoots tr(*this);
  size_t h_name = tr.add(make_guest_string(rc.name));
  size_t h_marr = tr.add(galloc_array_ref(rc.methods.size()));

  for (size_t i = 0; i < rc.methods.size(); ++i) {
    CompiledMethod* m = rc.methods[i].get();
    size_t h_mname = tr.add(make_guest_string(m->def->name));
    size_t h_lines = tr.add(galloc_array_i64(m->def->code.size()));
    for (size_t pc = 0; pc < m->def->code.size(); ++pc)
      heap_->set_array_i64(Addr(tr.get(h_lines)), pc, m->def->code[pc].line);
    uint64_t mo = galloc_object(kTypeVmMethod);
    heap_->set_field_ref(Addr(mo), kVmMethodName, Addr(tr.get(h_mname)));
    heap_->set_field_ref(Addr(mo), kVmMethodLineTable, Addr(tr.get(h_lines)));
    heap_->set_field_i64(Addr(mo), kVmMethodCodeLength,
                         int64_t(m->def->code.size()));
    heap_->set_array_ref(Addr(tr.get(h_marr)), i, Addr(mo));
    // The CompiledMethod's cached copy is root-tracked in enumerate_roots.
    m->metadata_obj = mo;
  }

  uint64_t co = galloc_object(kTypeVmClass);
  heap_->set_field_ref(Addr(co), kVmClassName, Addr(tr.get(h_name)));
  heap_->set_field_ref(Addr(co), kVmClassSuper,
                       Addr(rc.super != nullptr ? rc.super->metadata_obj : 0));
  heap_->set_field_ref(Addr(co), kVmClassMethods, Addr(tr.get(h_marr)));
  heap_->set_field_ref(Addr(co), kVmClassStatics, Addr(rc.statics_obj));
  heap_->set_field_i64(Addr(co), kVmClassClassId,
                       int64_t(rc.instance_type_id));
  // Back-link owner on each VM_Method.
  uint64_t marr = tr.get(h_marr);
  for (size_t i = 0; i < rc.methods.size(); ++i) {
    heap_->set_field_ref(heap_->array_ref(Addr(marr), i), kVmMethodOwner,
                         Addr(co));
  }
  return co;
}

void Vm::append_to_table(uint32_t table_slot, uint32_t count_slot,
                         uint64_t value) {
  TempRoots tr(*this);
  size_t h_val = tr.add(value);
  Addr reg = Addr(registry_obj_);
  Addr table = heap_->field_ref(reg, table_slot);
  uint64_t count = uint64_t(heap_->field_i64(reg, count_slot));
  uint64_t cap = heap_->array_length(table);
  if (count == cap) {
    uint64_t bigger = galloc_array_ref(cap * 2);
    reg = Addr(registry_obj_);               // may have moved
    table = heap_->field_ref(reg, table_slot);  // re-read after GC
    for (uint64_t i = 0; i < count; ++i)
      heap_->set_array_ref(Addr(bigger), i, heap_->array_ref(table, i));
    heap_->set_field_ref(reg, table_slot, Addr(bigger));
    table = Addr(bigger);
  }
  heap_->set_array_ref(table, count, Addr(tr.get(h_val)));
  heap_->set_field_i64(Addr(registry_obj_), count_slot, int64_t(count + 1));
}

void Vm::ensure_compiled(CompiledMethod* m) {
  if (m->compiled) return;
  compile_method_body(m);
  audit_.append(AuditKind::kCompile, m->owner->name + "." + m->def->name,
                instr_count_);
}

void Vm::compile_method_body(CompiledMethod* m) {
  DV_CHECK_MSG(m->owner->def != nullptr,
               "synthetic class has no compilable methods");
  m->verified = bytecode::verify_method(prog_, *m->owner->def, *m->def);
  m->resolved.resize(m->def->code.size());
  for (size_t pc = 0; pc < m->def->code.size(); ++pc) {
    const bytecode::Instr& ins = m->def->code[pc];
    ResolvedOp& r = m->resolved[pc];
    using enum bytecode::Op;
    switch (ins.op) {
      case kGetField:
      case kPutField: {
        const bytecode::FieldRef& fr = prog_.pool.field_refs[ins.a];
        const RuntimeClass* rc = runtime_class(fr.class_name);
        DV_CHECK(rc != nullptr);
        r.slot = int32_t(rc->field_slot.at(fr.field_name));
        r.ref = rc->layout[size_t(r.slot)].type == bytecode::ValueType::kRef;
        break;
      }
      case kGetStatic:
      case kPutStatic: {
        const bytecode::FieldRef& fr = prog_.pool.field_refs[ins.a];
        std::string def_cls;
        bytecode::resolve_field_def(prog_, fr.class_name, fr.field_name,
                                    /*is_static=*/true, &def_cls);
        RuntimeClass* rc =
            const_cast<RuntimeClass*>(runtime_class(def_cls));
        DV_CHECK(rc != nullptr);
        r.cls = rc;
        r.slot = int32_t(rc->static_slot.at(fr.field_name));
        r.ref = rc->statics_layout[size_t(r.slot)].type ==
                bytecode::ValueType::kRef;
        break;
      }
      case kNew: {
        r.cls = const_cast<RuntimeClass*>(
            runtime_class(prog_.pool.class_refs[ins.a]));
        DV_CHECK(r.cls != nullptr);
        break;
      }
      case kInvokeStatic:
      case kSpawn: {
        const bytecode::MethodRef& mr = prog_.pool.method_refs[ins.a];
        std::string def_cls;
        bytecode::resolve_method_def(prog_, mr.class_name, mr.method_name,
                                     &def_cls);
        RuntimeClass* rc =
            const_cast<RuntimeClass*>(runtime_class(def_cls));
        DV_CHECK(rc != nullptr);
        r.callee = rc->find_method(mr.method_name);
        DV_CHECK(r.callee != nullptr);
        break;
      }
      default:
        break;
    }
  }
  m->compiled = true;
}

// ----------------------------------------------------- engine services

RuntimeClass* Vm::load_synthetic_class(const std::string& name,
                                       uint32_t num_static_slots) {
  DV_CHECK_MSG(runtime_class(name) == nullptr,
               "synthetic class " << name << " already exists");
  auto rcp = std::make_unique<RuntimeClass>();
  RuntimeClass* rc = rcp.get();
  rc->name = name;
  for (uint32_t i = 0; i < num_static_slots; ++i) {
    std::string slot = "s";
    slot.append(std::to_string(i));
    rc->static_slot[slot] = i;
    rc->statics_layout.push_back(FieldSlot{std::move(slot), ValueType::kI64});
  }
  classes_.push_back(std::move(rcp));

  heap::TypeInfo ti;
  ti.name = rc->name;
  rc->instance_type_id = types_.register_type(std::move(ti));
  heap::TypeInfo st;
  st.name = "<statics:" + rc->name + ">";
  st.num_slots = num_static_slots;
  st.ref_slot.assign(num_static_slots, false);
  rc->statics_type_id = types_.register_type(std::move(st));
  if (by_type_id_.size() <= rc->statics_type_id)
    by_type_id_.resize(rc->statics_type_id + 1, nullptr);
  by_type_id_[rc->instance_type_id] = rc;

  rc->statics_obj = galloc_object(rc->statics_type_id);
  rc->metadata_obj = make_metadata_for(*rc);
  append_to_table(kRegClassTable, kRegClassCount, rc->metadata_obj);
  rc->loaded = true;
  audit_.append(AuditKind::kClassLoad, rc->name, instr_count_);
  return rc;
}

void Vm::note_synthetic_compile(const std::string& detail) {
  audit_.append(AuditKind::kCompile, detail, instr_count_);
}

uint64_t Vm::alloc_engine_buffer(uint64_t bytes, const std::string& label) {
  uint64_t arr = galloc_array_bytes(bytes);
  audit_.append(AuditKind::kEngineAlloc,
                label + ":" + std::to_string(bytes), instr_count_);
  return arr;
}

void Vm::register_root_slot(uint64_t* slot) { engine_roots_.push_back(slot); }

void Vm::ensure_stack_headroom(uint32_t needed, bool eager,
                               uint32_t eager_threshold) {
  if (threads_->current() == threads::kNoThread) return;
  ExecContext& c = cur();
  uint32_t avail =
      c.capacity_slots > c.sp ? c.capacity_slots - c.sp : 0;
  uint32_t want = eager ? eager_threshold : needed;
  if (avail < want) grow_stack(c, c.sp + want);
}

void Vm::io_warmup(const std::string& tmp_path) {
  // Write then immediately read so both the output and the input paths are
  // exercised (= "compiled") in both modes (§2.4).
  std::vector<uint8_t> probe{0xDE, 0x1A, 0x0B, 0x0E};
  write_file(tmp_path, probe);
  std::vector<uint8_t> back = read_file(tmp_path);
  DV_CHECK(back == probe);
  std::remove(tmp_path.c_str());
  // The audit detail is deliberately path-independent: the probe path may
  // differ between record and replay (unique per engine instance), and the
  // audit digest is part of replay verification.
  audit_.append(AuditKind::kIoWarmup, "probe", instr_count_);
}

// ------------------------------------------------------- guest helpers

// Pure notification (replay-time heap analysis); never touches guest state.
void Vm::emit_alloc_event(uint64_t addr, uint32_t type_id, uint32_t slots) {
  if (!subs_.memory) return;
  AllocEvent e;
  e.tid = threads_->current();
  e.addr = Addr(addr);
  e.class_id = type_id;
  e.slots = slots;
  e.instr_index = instr_count_;
  hooks_->on_heap_alloc(e);
}

uint64_t Vm::galloc_object(uint32_t type_id) {
  if (opts_.gc_stress && booted_) heap_->collect();
  uint64_t a = heap_->alloc_object(type_id);
  emit_alloc_event(a, type_id, types_.info(type_id).num_slots);
  return a;
}

uint64_t Vm::galloc_array_i64(uint64_t n) {
  if (opts_.gc_stress && booted_) heap_->collect();
  uint64_t a = heap_->alloc_array_i64(n);
  emit_alloc_event(a, heap::kClassIdI64Array, uint32_t(n));
  return a;
}

uint64_t Vm::galloc_array_ref(uint64_t n) {
  if (opts_.gc_stress && booted_) heap_->collect();
  uint64_t a = heap_->alloc_array_ref(n);
  emit_alloc_event(a, heap::kClassIdRefArray, uint32_t(n));
  return a;
}

uint64_t Vm::galloc_array_bytes(uint64_t n) {
  if (opts_.gc_stress && booted_) heap_->collect();
  uint64_t a = heap_->alloc_array_bytes(n);
  emit_alloc_event(a, heap::kClassIdByteArray, uint32_t(n));
  return a;
}

uint64_t Vm::make_guest_string(const std::string& s) {
  TempRoots tr(*this);
  size_t h_bytes = tr.add(galloc_array_bytes(s.size()));
  for (size_t i = 0; i < s.size(); ++i)
    heap_->set_array_byte(Addr(tr.get(h_bytes)), i, uint8_t(s[i]));
  uint64_t str = galloc_object(kTypeString);
  heap_->set_field_ref(Addr(str), kStringChars, Addr(tr.get(h_bytes)));
  return str;
}

uint64_t Vm::intern_pool_string(int32_t pool_idx) {
  DV_CHECK(pool_idx >= 0 && size_t(pool_idx) < pool_string_cache_.size());
  if (pool_string_cache_[pool_idx] == 0) {
    uint64_t s = make_guest_string(prog_.pool.strings[pool_idx]);
    pool_string_cache_[pool_idx] = s;
    Addr intern = heap_->field_ref(Addr(registry_obj_), kRegInternTable);
    heap_->set_array_ref(intern, uint64_t(pool_idx), Addr(s));
  }
  return pool_string_cache_[pool_idx];
}

std::string Vm::read_guest_string(Addr s) const {
  DV_CHECK_MSG(s != heap::kNull, "read_guest_string(null)");
  DV_CHECK_MSG(heap_->class_of(s) == kTypeString, "not a String object");
  Addr chars = heap_->field_ref(s, kStringChars);
  uint64_t n = heap_->array_length(chars);
  std::string out(n, '\0');
  for (uint64_t i = 0; i < n; ++i)
    out[i] = char(heap_->array_byte(chars, i));
  return out;
}

size_t Vm::push_temp_root(uint64_t addr) {
  temp_roots_.push_back(addr);
  return temp_roots_.size() - 1;
}

// --------------------------------------------------------------- roots

void Vm::enumerate_roots(const std::function<void(uint64_t*)>& visit) {
  if (registry_obj_ != 0) visit(&registry_obj_);
  for (auto& v : pool_string_cache_) {
    if (v != 0) visit(&v);
  }
  // Classes are visited whether or not loading has *completed*: a class
  // mid-load (inside ensure_loaded) already holds heap references in these
  // cached slots, and a moving GC must update them.
  for (auto& rc : classes_) {
    if (rc->statics_obj != 0) visit(&rc->statics_obj);
    if (rc->metadata_obj != 0) visit(&rc->metadata_obj);
    for (auto& m : rc->methods) {
      if (m->metadata_obj != 0) visit(&m->metadata_obj);
    }
  }
  for (auto& v : temp_roots_) {
    if (v != 0) visit(&v);
  }
  for (uint64_t* slot : engine_roots_) {
    if (*slot != 0) visit(slot);
  }
  for (auto& cp : contexts_) {
    if (cp == nullptr) continue;
    ExecContext& c = *cp;
    if (c.thread_obj != 0) visit(&c.thread_obj);
    if (c.stack_array != 0) visit(&c.stack_array);
    // Exact frame scanning via the verifier's reference maps (§1,
    // "reference maps specify these locations ... at safe points").
    for (size_t fi = 0; fi < c.frames.size(); ++fi) {
      const Frame& f = c.frames[fi];
      const bytecode::RefMap& map = f.method->verified.maps[f.pc];
      uint32_t nloc = f.method->def->num_locals;
      for (uint32_t j = 0; j < nloc; ++j) {
        if (j < map.locals_ref.size() && map.locals_ref[j] &&
            c.slots[f.locals_base + j] != 0)
          visit(&c.slots[f.locals_base + j]);
      }
      uint32_t opnd_end = (fi + 1 < c.frames.size())
                              ? c.frames[fi + 1].locals_base
                              : c.sp;
      uint32_t depth = opnd_end > f.stack_base ? opnd_end - f.stack_base : 0;
      for (uint32_t j = 0; j < depth; ++j) {
        if (j < map.stack_ref.size() && map.stack_ref[j] &&
            c.slots[f.stack_base + j] != 0)
          visit(&c.slots[f.stack_base + j]);
      }
    }
  }
}

}  // namespace dejavu::vm
