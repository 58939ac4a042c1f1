#include "src/obs/analysis/race_detector.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "src/obs/json.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::obs {

namespace {

// Only synchronization-kind cross-lane edges order accesses; the dispatch
// rotation and heap-ownership bookkeeping are artifacts of lane execution,
// not of the guest's synchronization structure.
bool is_sync_edge(threads::CrossLaneKind k) {
  switch (k) {
    case threads::CrossLaneKind::kMonitorHandoff:
    case threads::CrossLaneKind::kNotify:
    case threads::CrossLaneKind::kJoinWake:
    case threads::CrossLaneKind::kInterrupt:
      return true;
    case threads::CrossLaneKind::kDispatch:
    case threads::CrossLaneKind::kHeapTransfer:
      return false;
  }
  return false;
}

const std::string kBootLabel = "<boot>";

}  // namespace

void RaceDetector::on_run_begin(const vm::Vm& vm) {
  types_ = &vm.types();
  // Pre-attach allocations recorded placeholder names; resolve them now
  // (same boot-image wrinkle as HeapChurnAnalyzer).
  for (auto& [id, name] : class_names_) name = class_name(id);
}

std::string RaceDetector::class_name(uint32_t class_id) const {
  switch (class_id) {
    case heap::kClassIdI64Array: return "i64[]";
    case heap::kClassIdRefArray: return "ref[]";
    case heap::kClassIdByteArray: return "byte[]";
    default: break;
  }
  if (types_ != nullptr) return types_->info(class_id).name;
  return "class#" + std::to_string(class_id);
}

uint64_t& RaceDetector::clock_of(uint32_t tid) {
  if (vc_.size() <= tid) vc_.resize(size_t(tid) + 1);
  VectorClock& vc = vc_[tid];
  if (vc.size() <= tid) vc.resize(size_t(tid) + 1, 0);
  // A thread's own component starts at 1: component 0 means "no knowledge
  // of that thread", so a live access must always stamp a nonzero clock.
  if (vc[tid] == 0) vc[tid] = 1;
  return vc[tid];
}

void RaceDetector::vc_join(VectorClock& into, const VectorClock& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

bool RaceDetector::ordered(const Access& a, const VectorClock& vc) const {
  return a.tid < vc.size() && vc[a.tid] >= a.clock;
}

void RaceDetector::on_instruction(const vm::InstrEvent& ev) {
  if (last_instr_.size() <= ev.tid) last_instr_.resize(size_t(ev.tid) + 1);
  SiteRef& s = last_instr_[ev.tid];
  s.key = SiteKey{ev.owner, ev.method, ev.pc};
  s.line = ev.line;
  s.instr_index = ev.instr_index;
  cur_tid_ = ev.tid;
}

// A thread with no instruction yet interns the null key, labelled "<vm>".
RaceDetector::SiteId RaceDetector::intern_site(uint32_t tid) {
  SiteKey key;
  if (tid < last_instr_.size()) key = last_instr_[tid].key;
  auto [it, fresh] = site_ids_.try_emplace(key, SiteId(sites_.size()));
  if (fresh) sites_.push_back(key);
  return it->second;
}

void RaceDetector::on_monitor_event(const vm::MonitorEvent& ev) {
  uint32_t t = ev.tid;
  uint32_t m = ev.monitor;
  if (t == threads::kNoThread) return;
  clock_of(t);  // ensure the thread's clock exists
  switch (ev.op) {
    case vm::MonitorOp::kEnterAcquired:
    case vm::MonitorOp::kWaitEnd: {
      // Acquire: everything released into this monitor happened-before us.
      auto it = lock_vc_.find(m);
      if (it != lock_vc_.end()) vc_join(vc_[t], it->second);
      break;
    }
    case vm::MonitorOp::kExit:
    case vm::MonitorOp::kWaitBegin:
    case vm::MonitorOp::kNotifyOne:
    case vm::MonitorOp::kNotifyAll:
      // Release (wait releases the monitor; notify's edge to the woken
      // waiter rides the monitor clock, which the waiter joins at re-entry).
      vc_join(lock_vc_[m], vc_[t]);
      clock_of(t)++;
      break;
    case vm::MonitorOp::kEnterBlocked:
      break;  // contention is not an edge; the acquire will be
  }
}

void RaceDetector::on_thread_event(const vm::ThreadEvent& ev) {
  switch (ev.op) {
    case vm::ThreadOp::kSpawn:
      clock_of(ev.tid);
      clock_of(ev.other);
      // Everything the parent did happens-before the child's first
      // instruction.
      vc_join(vc_[ev.other], vc_[ev.tid]);
      clock_of(ev.tid)++;
      break;
    case vm::ThreadOp::kExit:
      clock_of(ev.tid);
      exit_vc_[ev.tid] = vc_[ev.tid];
      break;
    case vm::ThreadOp::kJoinEnd: {
      clock_of(ev.tid);
      // The target's entire execution happens-before the join's return.
      auto it = exit_vc_.find(ev.other);
      if (it != exit_vc_.end()) {
        vc_join(vc_[ev.tid], it->second);
      } else if (ev.other < vc_.size()) {
        vc_join(vc_[ev.tid], vc_[ev.other]);  // defensive; exit should exist
      }
      break;
    }
  }
}

void RaceDetector::on_cross_lane(const threads::CrossLaneEvent& e) {
  if (!is_sync_edge(e.kind)) return;
  if (e.from == threads::kNoThread || e.to == threads::kNoThread) return;
  clock_of(e.from);
  clock_of(e.to);
  vc_join(vc_[e.to], vc_[e.from]);
  clock_of(e.from)++;
}

void RaceDetector::on_switch(threads::Tid from, threads::Tid,
                             threads::SwitchReason, uint64_t) {
  // Advance the outgoing thread's own component so accesses straddling a
  // schedule switch carry distinct stamps. Deliberately NOT an edge to the
  // incoming thread: the uniprocessor dispatch order is not
  // synchronization, and treating it as such would hide every race.
  if (from != threads::kNoThread) clock_of(from)++;
}

uint64_t RaceDetector::id_at(heap::Addr addr) {
  auto it = live_.find(addr);
  if (it != live_.end()) return it->second;
  uint64_t id = objects_.size();
  objects_.push_back(ObjInfo{});  // pre-attach object: no class, no site
  live_.emplace(addr, id);
  return id;
}

void RaceDetector::on_heap_alloc(const vm::AllocEvent& e) {
  uint64_t id = objects_.size();
  ObjInfo info;
  info.class_id = e.class_id;
  info.site = intern_site(e.tid);
  objects_.push_back(info);
  live_[e.addr] = id;  // the newcomer owns a possibly recycled address
  if (class_names_.find(e.class_id) == class_names_.end())
    class_names_.emplace(e.class_id, class_name(e.class_id));
}

void RaceDetector::on_heap_move(heap::Addr from, heap::Addr to) {
  auto it = live_.find(from);
  if (it == live_.end()) return;
  uint64_t id = it->second;
  live_.erase(it);
  live_[to] = id;  // shadow state keyed by id follows automatically
}

RaceDetector::Access RaceDetector::current_access(uint32_t tid) {
  Access a;
  a.tid = tid;
  a.site = intern_site(tid);
  a.line = tid < last_instr_.size() ? last_instr_[tid].line : -1;
  a.clock = clock_of(tid);
  a.instr = tid < last_instr_.size() ? last_instr_[tid].instr_index : 0;
  return a;
}

void RaceDetector::report(RaceKind kind, uint64_t obj_id, uint32_t slot,
                          const Access& first, const Access& second) {
  auto [it, fresh] =
      races_.try_emplace(RaceKey{kind, first.site, second.site});
  RaceAgg& agg = it->second;
  if (fresh) {
    const ObjInfo& obj = objects_[obj_id];
    agg.seq = races_.size() - 1;
    agg.class_id = obj.class_id;
    agg.alloc_site = obj.site;
    agg.slot = slot;
    agg.first = first;
    agg.second = second;
    agg.first_instr = second.instr;
  } else {
    agg.first_instr = std::min(agg.first_instr, second.instr);
  }
  agg.count++;
}

void RaceDetector::on_heap_read(heap::Addr obj, uint32_t slot, int64_t,
                                bool) {
  uint32_t t = cur_tid_;
  if (t == threads::kNoThread) return;  // boot traffic; single-threaded
  checks_++;
  uint64_t id = id_at(obj);
  Shadow& s = shadow_[(id << 32) | slot];
  Access cur = current_access(t);
  if (s.has_write && s.last_write.tid != t &&
      !ordered(s.last_write, vc_[t])) {
    report(RaceKind::kWriteRead, id, slot, s.last_write, cur);
  }
  for (Access& r : s.reads) {
    if (r.tid == t) {
      r = cur;  // refresh this thread's read frontier
      return;
    }
  }
  s.reads.push_back(cur);
}

void RaceDetector::on_heap_write(heap::Addr obj, uint32_t slot, int64_t,
                                 bool) {
  uint32_t t = cur_tid_;
  if (t == threads::kNoThread) return;
  checks_++;
  uint64_t id = id_at(obj);
  Shadow& s = shadow_[(id << 32) | slot];
  Access cur = current_access(t);
  if (s.has_write && s.last_write.tid != t &&
      !ordered(s.last_write, vc_[t])) {
    report(RaceKind::kWriteWrite, id, slot, s.last_write, cur);
  }
  for (const Access& r : s.reads) {
    if (r.tid != t && !ordered(r, vc_[t]))
      report(RaceKind::kReadWrite, id, slot, r, cur);
  }
  s.last_write = cur;
  s.has_write = true;
  s.reads.clear();
}

std::string RaceDetector::artifact() const {
  // Labels are built here, once per interned site. Races whose labels
  // coincide are one row: counts add, first_instr is the earliest, and the
  // earliest-detected instance represents them.
  std::vector<std::string> labels;
  labels.reserve(sites_.size());
  for (const SiteKey& k : sites_) labels.push_back(k.label());
  auto site_label = [&](SiteId id) -> const std::string& {
    return id == kBootSite ? kBootLabel : labels[id];
  };
  static const char* const kKindNames[] = {"write-read", "write-write",
                                           "read-write"};
  struct Row {
    const RaceAgg* rep;
    uint64_t count = 0;
    uint64_t first_instr = 0;
  };
  std::map<std::tuple<std::string, std::string, std::string>, Row> rows;
  uint64_t dynamic = 0;
  for (const auto& [key, agg] : races_) {
    dynamic += agg.count;
    auto [it, fresh] = rows.try_emplace(
        std::make_tuple(std::string(kKindNames[size_t(key.kind)]),
                        site_label(key.first), site_label(key.second)),
        Row{&agg, 0, agg.first_instr});
    Row& row = it->second;
    if (!fresh) {
      if (agg.seq < row.rep->seq) row.rep = &agg;
      row.first_instr = std::min(row.first_instr, agg.first_instr);
    }
    row.count += agg.count;
  }

  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-races-v1")
      .kv("edge_model", "sync-only (monitor, spawn/join, cross-lane wakes)")
      .kv("race_count", uint64_t(rows.size()))
      .kv("dynamic_count", dynamic)
      .kv("checks", checks_)
      .kv("run_instr_count", run_.instr_count)
      .kv("verified", run_.verified)
      .kv("post_violation", run_.post_violation);

  // Hottest races first; the key (kind, site, site) breaks ties, so the
  // ordering is fully deterministic.
  std::vector<const decltype(rows)::value_type*> order;
  order.reserve(rows.size());
  for (const auto& kv : rows) order.push_back(&kv);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->second.count != b->second.count)
      return a->second.count > b->second.count;
    return a->first < b->first;
  });
  w.key("races").begin_array();
  for (const auto* kv : order) {
    const Row& row = kv->second;
    const RaceAgg& r = *row.rep;
    auto cn = class_names_.find(r.class_id);
    const std::string& cls =
        r.class_id != 0 && cn != class_names_.end() ? cn->second : kBootLabel;
    w.begin_object()
        .kv("kind", std::get<0>(kv->first))
        .kv("class", cls)
        .kv("alloc_site", site_label(r.alloc_site))
        .kv("slot", uint64_t(r.slot))
        .kv("count", row.count)
        .kv("first_instr", row.first_instr)
        .kv("first_tid", uint64_t(r.first.tid))
        .kv("first_site", site_label(r.first.site))
        .kv("first_line", int64_t(r.first.line))
        .kv("first_clock", r.first.clock)
        .kv("second_tid", uint64_t(r.second.tid))
        .kv("second_site", site_label(r.second.site))
        .kv("second_line", int64_t(r.second.line))
        .kv("second_clock", r.second.clock)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace dejavu::obs
