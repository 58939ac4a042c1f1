// Whole-VM snapshot capture/restore (the flight recorder's checkpoint).
//
// A snapshot is everything the next instruction depends on: the heap image,
// the thread package, the class/metadata tables, every execution context,
// and the running behaviour-hash accumulators. It deliberately excludes the
// O(run) host-side transcripts (guest output text, the packed switch trace,
// the audit event list): their running hashes/digests ARE the state the
// final replay verification compares, and a flight-recorder window must stay
// O(window). Derived structures (resolved operand tables, by_type_id_) are
// rebuilt rather than stored.
//
// Capture happens only at a safepoint (Vm::request_safepoint +
// ExecHooks::on_safepoint): preemption unmasked, no native in flight, no
// temporary GC roots live. Restore runs inside a Vm constructed over the
// same program and options and performs no guest allocations and no audit
// appends -- the heap already contains every object, and the audit
// accumulator is restored wholesale.
#include "src/bytecode/model.hpp"
#include "src/common/io.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::vm {

namespace {
inline constexpr uint32_t kSnapshotMagic = 0x53565644;  // "DVVS"
inline constexpr uint32_t kSnapshotVersion = 1;
// capture_snapshot's reservation beyond the heap image and the stacks:
// the type, class and thread tables, under 1 KiB in every perfbench
// workload.
inline constexpr size_t kSnapshotSlack = 4096;

struct OptionsPrologue {
  uint64_t heap_bytes = 0;
  uint8_t gc_kind = 0;
  uint64_t initial_stack_slots = 0;
  uint8_t gc_stress = 0;
  uint64_t lanes = 0;
};

void write_prologue(ByteWriter& w, const VmOptions& o) {
  w.put_u32_fixed(kSnapshotMagic);
  w.put_u32_fixed(kSnapshotVersion);
  w.put_uvarint(o.heap.size_bytes);
  w.put_u8(uint8_t(o.heap.gc));
  w.put_uvarint(o.initial_stack_slots);
  w.put_u8(o.gc_stress ? 1 : 0);
  w.put_uvarint(o.lanes == 0 ? 1 : o.lanes);
}

OptionsPrologue read_prologue(ByteReader& r) {
  DV_CHECK_MSG(r.get_u32_fixed() == kSnapshotMagic, "not a VM snapshot");
  uint32_t version = r.get_u32_fixed();
  DV_CHECK_MSG(version == kSnapshotVersion,
               "VM snapshot version " << version << " unsupported");
  OptionsPrologue p;
  p.heap_bytes = r.get_uvarint();
  p.gc_kind = r.get_u8();
  p.initial_stack_slots = r.get_uvarint();
  p.gc_stress = r.get_u8();
  p.lanes = r.get_uvarint();
  return p;
}
}  // namespace

VmOptions Vm::peek_snapshot_options(std::span<const uint8_t> snapshot) {
  ByteReader r(snapshot);
  OptionsPrologue p = read_prologue(r);
  VmOptions o;
  o.heap.size_bytes = size_t(p.heap_bytes);
  o.heap.gc = heap::GcKind(p.gc_kind);
  o.initial_stack_slots = uint32_t(p.initial_stack_slots);
  o.gc_stress = p.gc_stress != 0;
  o.lanes = uint32_t(p.lanes);
  return o;
}

void Vm::capture_snapshot(ByteWriter& w) const {
  DV_CHECK_MSG(mask_depth_ == 0, "snapshot under preemption mask");
  DV_CHECK_MSG(temp_roots_.empty(), "snapshot with live temp roots");
  // The heap image, whose size changes across GCs, is the bulk; stacks
  // are stored whole (8 bytes a slot, a frame in well under 64); tables
  // and thread records fit the slack.
  size_t bound = heap_->image_bytes() + kSnapshotSlack;
  for (const auto& cp : contexts_)
    if (cp != nullptr) bound += 8 * cp->slots.size() + 64 * cp->frames.size();
  w.reserve(w.size() + bound);
  write_prologue(w, opts_);

  // Execution counters and running behaviour hashes.
  w.put_uvarint(instr_count_);
  w.put_uvarint(yield_points_);
  w.put_uvarint(preempt_count_);
  w.put_u64_fixed(out_hash_.state());
  w.put_u64_fixed(switch_hash_.state());

  types_.serialize(w);
  heap_->serialize(w);
  threads_->serialize(w);
  audit_.serialize(w);

  // Class table. Program classes exist from construction; only their
  // mutable load/compile state is stored. Synthetic classes (the engine's
  // own, loaded through load_synthetic_class) are recreated host-side on
  // restore -- their heap objects and type-registry entries are already in
  // the restored heap/registry.
  size_t program_classes = prog_.classes.size();
  w.put_uvarint(classes_.size());
  w.put_uvarint(program_classes);
  for (const auto& rc : classes_) {
    bool synthetic = rc->def == nullptr;
    w.put_u8(synthetic ? 1 : 0);
    if (synthetic) {
      w.put_string(rc->name);
      w.put_uvarint(rc->statics_layout.size());
    }
    w.put_u8(rc->loaded ? 1 : 0);
    w.put_uvarint(rc->instance_type_id);
    w.put_uvarint(rc->statics_type_id);
    w.put_uvarint(rc->statics_obj);
    w.put_uvarint(rc->metadata_obj);
    w.put_uvarint(rc->methods.size());
    for (const auto& m : rc->methods) {
      w.put_u8(m->compiled ? 1 : 0);
      w.put_uvarint(m->metadata_obj);
    }
  }

  w.put_uvarint(registry_obj_);
  w.put_uvarint(pool_string_cache_.size());
  for (uint64_t v : pool_string_cache_) w.put_uvarint(v);

  // Execution contexts. Frames name their method by (owner class, method);
  // slot arrays are stored whole (they are O(stack), not O(run)).
  w.put_uvarint(contexts_.size());
  for (const auto& cp : contexts_) {
    w.put_u8(cp != nullptr ? 1 : 0);
    if (cp == nullptr) continue;
    const ExecContext& c = *cp;
    w.put_uvarint(c.tid);
    w.put_uvarint(c.capacity_slots);
    w.put_uvarint(c.sp);
    w.put_u8(c.op_phase);
    w.put_u8(c.pending_prologue ? 1 : 0);
    w.put_uvarint(c.thread_obj);
    w.put_uvarint(c.stack_array);
    w.put_uvarint(c.slots.size());
    for (uint64_t s : c.slots) w.put_u64_fixed(s);
    w.put_uvarint(c.frames.size());
    for (const Frame& f : c.frames) {
      w.put_string(f.method->owner->name);
      w.put_string(f.method->def->name);
      w.put_uvarint(f.pc);
      w.put_uvarint(f.locals_base);
      w.put_uvarint(f.stack_base);
    }
  }
}

void Vm::restore_snapshot(ByteReader& r) {
  OptionsPrologue p = read_prologue(r);
  DV_CHECK_MSG(p.heap_bytes == opts_.heap.size_bytes &&
                   heap::GcKind(p.gc_kind) == opts_.heap.gc,
               "snapshot heap configuration mismatch");
  DV_CHECK_MSG(uint32_t(p.initial_stack_slots) == opts_.initial_stack_slots,
               "snapshot stack configuration mismatch");
  DV_CHECK_MSG((p.gc_stress != 0) == opts_.gc_stress,
               "snapshot gc_stress mismatch");
  DV_CHECK_MSG(uint32_t(p.lanes) == (opts_.lanes == 0 ? 1 : opts_.lanes),
               "snapshot lane count mismatch");

  instr_count_ = r.get_uvarint();
  yield_points_ = r.get_uvarint();
  preempt_count_ = r.get_uvarint();
  out_hash_.set_state(r.get_u64_fixed());
  switch_hash_.set_state(r.get_u64_fixed());
  out_.clear();
  switch_trace_.clear();

  types_.restore(r);
  heap_->restore(r);
  threads_->restore(r);
  audit_.restore(r);

  size_t total_classes = size_t(r.get_uvarint());
  size_t program_classes = size_t(r.get_uvarint());
  DV_CHECK_MSG(program_classes == prog_.classes.size(),
               "snapshot program class count mismatch");
  DV_CHECK_MSG(classes_.size() == program_classes,
               "restore_snapshot into a VM with synthetic classes");
  by_type_id_.clear();
  for (size_t i = 0; i < total_classes; ++i) {
    bool synthetic = r.get_u8() != 0;
    RuntimeClass* rc = nullptr;
    if (synthetic) {
      DV_CHECK_MSG(i >= program_classes, "synthetic class out of order");
      // Recreate host-side only: no type registration (the registry was
      // restored wholesale), no allocation (the heap already holds the
      // statics/metadata objects), no audit append (accumulator restored).
      auto rcp = std::make_unique<RuntimeClass>();
      rc = rcp.get();
      rc->name = r.get_string();
      size_t nslots = size_t(r.get_uvarint());
      for (uint32_t s = 0; s < nslots; ++s) {
        std::string slot = "s";
        slot.append(std::to_string(s));
        rc->static_slot[slot] = s;
        rc->statics_layout.push_back(
            FieldSlot{std::move(slot), bytecode::ValueType::kI64});
      }
      classes_.push_back(std::move(rcp));
    } else {
      DV_CHECK_MSG(i < program_classes, "program class out of order");
      rc = classes_[i].get();
    }
    rc->loaded = r.get_u8() != 0;
    rc->instance_type_id = uint32_t(r.get_uvarint());
    rc->statics_type_id = uint32_t(r.get_uvarint());
    rc->statics_obj = r.get_uvarint();
    rc->metadata_obj = r.get_uvarint();
    size_t nmethods = size_t(r.get_uvarint());
    DV_CHECK_MSG(nmethods == rc->methods.size(),
                 "snapshot method count mismatch in " << rc->name);
    for (auto& m : rc->methods) {
      bool compiled = r.get_u8() != 0;
      m->metadata_obj = r.get_uvarint();
      if (compiled && !m->compiled) compile_method_body(m.get());
    }
    if (rc->loaded || synthetic) {
      // The class loader registers the instance type, then the statics
      // type; both name entries of the restored registry.
      DV_CHECK_MSG(rc->instance_type_id >= heap::kFirstClassId &&
                       rc->instance_type_id < rc->statics_type_id &&
                       rc->statics_type_id - heap::kFirstClassId <
                           types_.size(),
                   "snapshot type ids of " << rc->name << " out of range");
      if (by_type_id_.size() <= rc->statics_type_id)
        by_type_id_.resize(size_t(rc->statics_type_id) + 1, nullptr);
      by_type_id_[rc->instance_type_id] = rc;
    }
  }

  registry_obj_ = r.get_uvarint();
  size_t npool = r.get_count(1, "string pool cache");
  DV_CHECK_MSG(npool == prog_.pool.strings.size(),
               "snapshot string pool size mismatch");
  pool_string_cache_.assign(npool, 0);
  for (uint64_t& v : pool_string_cache_) v = r.get_uvarint();

  size_t ncontexts = r.get_count(1, "execution context");
  contexts_.clear();
  contexts_.resize(ncontexts);
  for (size_t i = 0; i < ncontexts; ++i) {
    if (r.get_u8() == 0) continue;
    auto cp = std::make_unique<ExecContext>();
    ExecContext& c = *cp;
    c.tid = threads::Tid(r.get_uvarint());
    DV_CHECK_MSG(c.tid == i, "snapshot context tid mismatch");
    c.capacity_slots = uint32_t(r.get_uvarint());
    c.sp = uint32_t(r.get_uvarint());
    c.op_phase = r.get_u8();
    c.pending_prologue = r.get_u8() != 0;
    c.thread_obj = r.get_uvarint();
    c.stack_array = r.get_uvarint();
    c.slots.resize(r.get_count(8, "stack slot"));
    for (uint64_t& s : c.slots) s = r.get_u64_fixed();
    size_t nframes = size_t(r.get_uvarint());
    for (size_t fi = 0; fi < nframes; ++fi) {
      Frame f;
      std::string owner = r.get_string();
      std::string mname = r.get_string();
      const RuntimeClass* orc = runtime_class(owner);
      DV_CHECK_MSG(orc != nullptr, "snapshot frame class " << owner);
      f.method = orc->find_method(mname);
      DV_CHECK_MSG(f.method != nullptr && f.method->compiled,
                   "snapshot frame method " << owner << "." << mname);
      f.pc = uint32_t(r.get_uvarint());
      f.locals_base = uint32_t(r.get_uvarint());
      f.stack_base = uint32_t(r.get_uvarint());
      c.frames.push_back(f);
    }
    contexts_[i] = std::move(cp);
  }

  mask_depth_ = 0;
  temp_roots_.clear();
  halted_ = false;
  finished_ = false;
  stopped_at_probe_ = false;
  safepoint_requested_ = false;
}

void Vm::boot_from_snapshot(std::span<const uint8_t> snapshot) {
  DV_CHECK_MSG(!booted_, "boot_from_snapshot on a booted VM");
  wire_observers();
  ByteReader r(snapshot);
  restore_snapshot(r);
  DV_CHECK_MSG(r.at_end(), "trailing bytes in VM snapshot");
  // The hooks attach AFTER restore so a resuming engine sees the restored
  // machine (it re-registers its buffer root slots instead of allocating).
  if (hooks_ != nullptr) hooks_->attach(*this);
  booted_ = true;
}

}  // namespace dejavu::vm
