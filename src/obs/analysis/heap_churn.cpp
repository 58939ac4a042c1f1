#include "src/obs/analysis/heap_churn.hpp"

#include <algorithm>
#include <map>

#include "src/obs/json.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::obs {

void HeapChurnAnalyzer::on_run_begin(const vm::Vm& vm) {
  types_ = &vm.types();
  // Boot-image allocations can arrive before the engine attaches (the Vm
  // constructor allocates with hooks already installed); their names were
  // recorded as "class#N" placeholders. Resolve them now.
  for (auto& [id, ts] : by_type_) ts.name = class_name(id);
}

void HeapChurnAnalyzer::on_instruction(const vm::InstrEvent& ev) {
  if (last_instr_.size() <= ev.tid) last_instr_.resize(ev.tid + 1);
  last_instr_[ev.tid] = SiteKey{ev.owner, ev.method, ev.pc};
}

std::string HeapChurnAnalyzer::class_name(uint32_t class_id) const {
  switch (class_id) {
    case heap::kClassIdI64Array: return "i64[]";
    case heap::kClassIdRefArray: return "ref[]";
    case heap::kClassIdByteArray: return "byte[]";
    default: break;
  }
  if (types_ != nullptr) return types_->info(class_id).name;
  return "class#" + std::to_string(class_id);
}

uint64_t HeapChurnAnalyzer::id_at(heap::Addr addr) {
  auto it = live_.find(addr);
  if (it != live_.end()) return it->second;
  // First sight of an object allocated before we attached (boot image).
  uint64_t id = objects_.size();
  ObjStat os;
  os.alloc_addr = addr;
  objects_.push_back(os);
  live_.emplace(addr, id);
  return id;
}

void HeapChurnAnalyzer::on_heap_alloc(const vm::AllocEvent& e) {
  allocs_++;
  alloc_slots_ += e.slots;
  TypeStat& ts = by_type_[e.class_id];
  if (ts.count == 0) ts.name = class_name(e.class_id);
  ts.count++;
  ts.slots += e.slots;

  // Allocation site: the instruction this thread is currently executing.
  // Allocations from VM boot / engine internals run outside any guest
  // instruction and land under "<vm>".
  SiteKey site;
  if (e.tid < last_instr_.size() && last_instr_[e.tid].owner != nullptr)
    site = last_instr_[e.tid];
  auto site_it = by_site_.try_emplace(site, 0).first;
  site_it->second++;

  uint64_t id = objects_.size();
  ObjStat os;
  os.class_id = e.class_id;
  os.alloc_addr = e.addr;
  os.site = &site_it->first;
  objects_.push_back(os);
  // The address may be recycled from an object that died in an earlier
  // collection; the newcomer owns it now.
  live_[e.addr] = id;
}

void HeapChurnAnalyzer::on_heap_move(heap::Addr from, heap::Addr to) {
  gc_moves_++;
  auto it = live_.find(from);
  if (it == live_.end()) return;  // never-accessed boot object; no identity
  uint64_t id = it->second;
  live_.erase(it);
  // `to` may carry a stale mapping from an object that died in a previous
  // collection cycle; the survivor owns the address now.
  live_[to] = id;
}

void HeapChurnAnalyzer::on_heap_read(heap::Addr obj, uint32_t, int64_t, bool) {
  reads_++;
  objects_[id_at(obj)].reads++;
}

void HeapChurnAnalyzer::on_heap_write(heap::Addr obj, uint32_t, int64_t, bool) {
  writes_++;
  objects_[id_at(obj)].writes++;
}

std::string HeapChurnAnalyzer::artifact() const {
  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-heap-v1")
      .kv("object_identity", "stable (copying-GC forwarding tracked)")
      .kv("allocs", allocs_)
      .kv("alloc_slots", alloc_slots_)
      .kv("reads", reads_)
      .kv("writes", writes_)
      .kv("gc_moves", gc_moves_)
      .kv("run_instr_count", run_.instr_count)
      .kv("verified", run_.verified)
      .kv("post_violation", run_.post_violation);

  std::vector<const TypeStat*> types;
  types.reserve(by_type_.size());
  for (const auto& [id, ts] : by_type_) types.push_back(&ts);
  std::sort(types.begin(), types.end(),
            [](const TypeStat* a, const TypeStat* b) {
              if (a->count != b->count) return a->count > b->count;
              return a->name < b->name;
            });
  w.key("by_type").begin_array();
  for (const TypeStat* ts : types) {
    w.begin_object()
        .kv("class", ts->name)
        .kv("count", ts->count)
        .kv("slots", ts->slots)
        .end_object();
  }
  w.end_array();

  // Distinct site keys whose labels coincide are one row.
  std::map<std::string, uint64_t> by_label;
  for (const auto& [key, count] : by_site_) by_label[key.label()] += count;
  std::vector<std::pair<std::string, uint64_t>> sites(by_label.begin(),
                                                      by_label.end());
  std::sort(sites.begin(), sites.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (sites.size() > top_n_) sites.resize(top_n_);
  w.key("top_sites").begin_array();
  for (const auto& [site, count] : sites) {
    w.begin_object().kv("site", site).kv("count", count).end_object();
  }
  w.end_array();

  // Hot objects by stable id; ids are allocation-ordered, so ties resolve
  // deterministically to the earliest-allocated object.
  std::vector<uint64_t> hot;
  hot.reserve(objects_.size());
  for (uint64_t id = 0; id < objects_.size(); ++id) {
    if (objects_[id].reads + objects_[id].writes > 0) hot.push_back(id);
  }
  std::sort(hot.begin(), hot.end(), [this](uint64_t a, uint64_t b) {
    uint64_t ha = objects_[a].reads + objects_[a].writes;
    uint64_t hb = objects_[b].reads + objects_[b].writes;
    if (ha != hb) return ha > hb;
    return a < b;
  });
  if (hot.size() > top_n_) hot.resize(top_n_);
  w.key("hot_objects").begin_array();
  for (uint64_t id : hot) {
    const ObjStat& os = objects_[id];
    // Objects allocated before the analyzer attached (boot image) have no
    // recorded class. Names come from by_type_ copies: types_ is only valid
    // while the run is live, and artifact() may outlive the Vm.
    std::string cls = "<boot>";
    if (os.class_id != 0) {
      auto it = by_type_.find(os.class_id);
      cls = it != by_type_.end() ? it->second.name
                                 : "class#" + std::to_string(os.class_id);
    }
    w.begin_object()
        .kv("id", id)
        .kv("addr", uint64_t(os.alloc_addr))
        .kv("class", cls)
        .kv("site", os.site != nullptr ? os.site->label() : "<boot>")
        .kv("reads", os.reads)
        .kv("writes", os.writes)
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

}  // namespace dejavu::obs
