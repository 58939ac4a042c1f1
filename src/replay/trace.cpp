#include "src/replay/trace.hpp"

#include <sstream>

#include "src/common/check.hpp"
#include "src/common/hash.hpp"

namespace dejavu::replay {

std::string Checkpoint::describe() const {
  std::ostringstream os;
  os << "{clock=" << logical_clock << " alloc=" << alloc_count
     << " loads=" << class_loads << " compiles=" << compiles
     << " grows=" << stack_grows << " gc=" << gc_count
     << " switches=" << switch_count << "}";
  return os.str();
}

void Checkpoint::write_to(ByteWriter& w) const {
  w.put_uvarint(logical_clock);
  w.put_uvarint(alloc_count);
  w.put_uvarint(class_loads);
  w.put_uvarint(compiles);
  w.put_uvarint(stack_grows);
  w.put_uvarint(gc_count);
  w.put_uvarint(switch_count);
}

Checkpoint Checkpoint::read_from(ByteReader& r) {
  Checkpoint c;
  c.logical_clock = r.get_uvarint();
  c.alloc_count = r.get_uvarint();
  c.class_loads = r.get_uvarint();
  c.compiles = r.get_uvarint();
  c.stack_grows = r.get_uvarint();
  c.gc_count = r.get_uvarint();
  c.switch_count = r.get_uvarint();
  return c;
}

void write_meta_payload(ByteWriter& w, const TraceMeta& meta) {
  w.put_u64_fixed(meta.program_fingerprint);
  w.put_u32_fixed(meta.checkpoint_interval);
  w.put_uvarint(meta.preempt_switches);
  w.put_uvarint(meta.nd_events);
  meta.final_checkpoint.write_to(w);
  w.put_u64_fixed(meta.final_output_hash);
  w.put_u64_fixed(meta.final_heap_hash);
  w.put_u64_fixed(meta.final_switch_seq_hash);
  w.put_u64_fixed(meta.final_instr_count);
  w.put_u64_fixed(meta.final_audit_digest);
}

TraceMeta read_meta_payload(ByteReader& r) {
  TraceMeta meta;
  meta.program_fingerprint = r.get_u64_fixed();
  meta.checkpoint_interval = r.get_u32_fixed();
  meta.preempt_switches = r.get_uvarint();
  meta.nd_events = r.get_uvarint();
  meta.final_checkpoint = Checkpoint::read_from(r);
  meta.final_output_hash = r.get_u64_fixed();
  meta.final_heap_hash = r.get_u64_fixed();
  meta.final_switch_seq_hash = r.get_u64_fixed();
  meta.final_instr_count = r.get_u64_fixed();
  meta.final_audit_digest = r.get_u64_fixed();
  return meta;
}

void write_meta_payload_ex(ByteWriter& w, const TraceMeta& meta,
                           uint32_t version) {
  write_meta_payload(w, meta);
  if (version < kTraceVersionMulti) return;
  DV_CHECK_MSG(meta.lane_count >= 1 && meta.lane_count <= kMaxLanes,
               "bad lane count " << meta.lane_count);
  w.put_uvarint(meta.lane_count);
  w.put_uvarint(meta.order_events);
  for (uint32_t i = 0; i < meta.lane_count; ++i) {
    w.put_uvarint(i < meta.lane_clocks.size() ? meta.lane_clocks[i] : 0);
    w.put_uvarint(i < meta.lane_preempts.size() ? meta.lane_preempts[i] : 0);
  }
}

TraceMeta read_meta_payload_ex(ByteReader& r, uint32_t version) {
  TraceMeta meta = read_meta_payload(r);
  if (version < kTraceVersionMulti) return meta;
  meta.lane_count = uint32_t(r.get_uvarint());
  DV_CHECK_MSG(meta.lane_count >= 1 && meta.lane_count <= kMaxLanes,
               "bad lane count " << meta.lane_count);
  meta.order_events = r.get_uvarint();
  meta.lane_clocks.resize(meta.lane_count);
  meta.lane_preempts.resize(meta.lane_count);
  for (uint32_t i = 0; i < meta.lane_count; ++i) {
    meta.lane_clocks[i] = r.get_uvarint();
    meta.lane_preempts[i] = r.get_uvarint();
  }
  return meta;
}

uint64_t fingerprint_program(const bytecode::Program& prog) {
  Fnv1a h;
  h.update_str(prog.main.class_name);
  h.update_str(prog.main.method_name);
  for (const auto& s : prog.pool.strings) h.update_str(s);
  for (const auto& m : prog.pool.method_refs) {
    h.update_str(m.class_name);
    h.update_str(m.method_name);
  }
  for (const auto& f : prog.pool.field_refs) {
    h.update_str(f.class_name);
    h.update_str(f.field_name);
  }
  for (const auto& c : prog.pool.class_refs) h.update_str(c);
  for (const auto& n : prog.pool.native_refs) h.update_str(n);
  for (const auto& c : prog.classes) {
    h.update_str(c.name);
    h.update_str(c.super);
    for (const auto& f : c.fields) {
      h.update_str(f.name);
      h.update_u32(uint32_t(f.type));
    }
    for (const auto& f : c.statics) {
      h.update_str(f.name);
      h.update_u32(uint32_t(f.type));
    }
    for (const auto& m : c.methods) {
      h.update_str(m.name);
      h.update_u32(uint32_t(m.args.size()));
      for (auto a : m.args) h.update_u32(uint32_t(a));
      h.update_u32(m.ret.has_value() ? uint32_t(*m.ret) + 1 : 0);
      h.update_u32(m.num_locals);
      h.update_u32(m.is_virtual ? 1 : 0);
      for (const auto& ins : m.code) {
        h.update_u32(uint32_t(ins.op));
        h.update_u32(uint32_t(ins.a));
        h.update_u64(uint64_t(ins.b));
      }
    }
  }
  return h.digest();
}

}  // namespace dejavu::replay
