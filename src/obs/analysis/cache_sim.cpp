#include "src/obs/analysis/cache_sim.hpp"

#include <algorithm>

#include "src/obs/json.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::obs {

namespace {
uint64_t align_up(uint64_t n, uint64_t a) { return (n + a - 1) / a * a; }
}  // namespace

CacheSimAnalyzer::CacheSimAnalyzer(uint32_t line_bytes, CacheLevelConfig l1,
                                   CacheLevelConfig l2, uint32_t top_n)
    : line_bytes_(line_bytes < 8 ? 8 : line_bytes),
      l1_bytes_(l1.size_bytes),
      l1_ways_(l1.ways),
      l2_bytes_(l2.size_bytes),
      l2_ways_(l2.ways),
      top_n_(top_n) {
  auto init = [this](Level& lvl, const CacheLevelConfig& c) {
    lvl.ways = c.ways == 0 ? 1 : c.ways;
    uint64_t lines = c.size_bytes / line_bytes_;
    lvl.sets = uint32_t(lines / lvl.ways);
    if (lvl.sets == 0) lvl.sets = 1;
    lvl.tags.assign(size_t(lvl.sets) * lvl.ways, 0);
    lvl.ticks.assign(size_t(lvl.sets) * lvl.ways, 0);
  };
  init(l1_, l1);
  init(l2_, l2);
}

bool CacheSimAnalyzer::Level::access(uint64_t line, uint64_t tick) {
  size_t base = size_t(line % sets) * ways;
  size_t victim = base;
  uint64_t victim_tick = UINT64_MAX;
  for (size_t i = base; i < base + ways; ++i) {
    if (tags[i] == line + 1) {
      ticks[i] = tick;
      return true;
    }
    // Empty ways (tag 0, tick 0) are always the first victims: live ticks
    // start at 1.
    uint64_t t = tags[i] == 0 ? 0 : ticks[i];
    if (t < victim_tick) {
      victim_tick = t;
      victim = i;
    }
  }
  tags[victim] = line + 1;
  ticks[victim] = tick;
  return false;
}

void CacheSimAnalyzer::on_run_begin(const vm::Vm& vm) {
  types_ = &vm.types();
  for (auto& [id, ts] : by_type_) ts.name = class_name(id);
}

void CacheSimAnalyzer::on_instruction(const vm::InstrEvent& ev) {
  if (last_instr_.size() <= ev.tid) last_instr_.resize(ev.tid + 1);
  last_instr_[ev.tid] = SiteKey{ev.owner, ev.method, ev.pc};
  last_tid_ = ev.tid;
}

std::string CacheSimAnalyzer::class_name(uint32_t class_id) const {
  switch (class_id) {
    case heap::kClassIdI64Array: return "i64[]";
    case heap::kClassIdRefArray: return "ref[]";
    case heap::kClassIdByteArray: return "byte[]";
    default: break;
  }
  if (class_id == 0) return "<boot>";
  if (types_ != nullptr) return types_->info(class_id).name;
  return "class#" + std::to_string(class_id);
}

CacheSimAnalyzer::TypeStat& CacheSimAnalyzer::type_stat(uint32_t class_id) {
  TypeStat& ts = by_type_[class_id];
  if (ts.name.empty()) ts.name = class_name(class_id);
  return ts;
}

uint64_t CacheSimAnalyzer::id_at(heap::Addr addr, uint32_t slots_hint) {
  auto it = live_.find(addr);
  if (it != live_.end()) return it->second;
  uint64_t id = objects_.size();
  Obj o;
  o.base = next_base_;
  // Reserve a line-aligned region so objects never share a synthetic line;
  // pre-attach objects (boot image, unknown size) get a generous region.
  uint64_t bytes = slots_hint > 0 ? uint64_t(slots_hint) * 8 : uint64_t(1) << 20;
  next_base_ += align_up(bytes < line_bytes_ ? line_bytes_ : bytes,
                         line_bytes_);
  objects_.push_back(o);
  live_.emplace(addr, id);
  return id;
}

void CacheSimAnalyzer::on_heap_alloc(const vm::AllocEvent& e) {
  // The address may be recycled from a dead object: drop the old identity
  // first so id_at creates a fresh region for the newcomer.
  live_.erase(e.addr);
  uint64_t id = id_at(e.addr, e.slots == 0 ? 1 : e.slots);
  objects_[id].class_id = e.class_id;
  objects_[id].type = &type_stat(e.class_id);
}

void CacheSimAnalyzer::on_heap_move(heap::Addr from, heap::Addr to) {
  auto it = live_.find(from);
  if (it == live_.end()) return;
  uint64_t id = it->second;
  live_.erase(it);
  live_[to] = id;  // survivor owns the address now; base is unchanged
}

void CacheSimAnalyzer::touch(heap::Addr obj, uint32_t slot, bool is_write) {
  accesses_++;
  (is_write ? writes_ : reads_)++;
  uint64_t id = id_at(obj, 0);
  Obj& o = objects_[id];
  uint64_t line = (o.base + uint64_t(slot) * 8) / line_bytes_;

  tick_++;
  bool hit1 = l1_.access(line, tick_);
  bool hit2 = true;
  if (!hit1) {
    l1_misses_++;
    hit2 = l2_.access(line, tick_);
    if (!hit2) l2_misses_++;
  }

  // Per-site attribution: the instruction the current thread is executing.
  SiteKey site;
  if (last_tid_ < last_instr_.size() &&
      last_instr_[last_tid_].owner != nullptr) {
    site = last_instr_[last_tid_];
  }
  if (last_site_stat_ == nullptr || !(site == last_site_)) {
    last_site_ = site;
    last_site_stat_ = &by_site_[site];
  }
  SiteStat& ss = *last_site_stat_;
  ss.accesses++;
  if (!hit1) ss.l1_misses++;
  if (!hit2) ss.l2_misses++;

  if (o.type == nullptr) o.type = &type_stat(o.class_id);
  TypeStat& ts = *o.type;
  ts.accesses++;
  if (!hit1) ts.l1_misses++;
  if (!hit2) ts.l2_misses++;

  LineStat& ls = lines_[line];
  if (ls.accesses == 0) ls.class_id = o.class_id;
  ls.accesses++;
  ls.tids.insert(last_tid_);
  ls.slots.insert(slot);
}

void CacheSimAnalyzer::on_heap_read(heap::Addr obj, uint32_t slot, int64_t,
                                    bool) {
  touch(obj, slot, /*is_write=*/false);
}

void CacheSimAnalyzer::on_heap_write(heap::Addr obj, uint32_t slot, int64_t,
                                     bool) {
  touch(obj, slot, /*is_write=*/true);
}

std::vector<CacheSimAnalyzer::SharedLine> CacheSimAnalyzer::shared_lines()
    const {
  std::vector<SharedLine> out;
  for (const auto& [line, ls] : lines_) {
    if (ls.tids.size() < 2) continue;
    SharedLine sl;
    sl.line = line;
    sl.accesses = ls.accesses;
    sl.threads = uint32_t(ls.tids.size());
    sl.slots = uint32_t(ls.slots.size());
    auto it = by_type_.find(ls.class_id);
    sl.class_name = it != by_type_.end() && !it->second.name.empty()
                        ? it->second.name
                        : class_name(ls.class_id);
    out.push_back(std::move(sl));
  }
  std::sort(out.begin(), out.end(), [](const SharedLine& a,
                                       const SharedLine& b) {
    if (a.accesses != b.accesses) return a.accesses > b.accesses;
    return a.line < b.line;
  });
  return out;
}

std::string CacheSimAnalyzer::artifact() const {
  std::vector<SharedLine> shared = shared_lines();
  uint64_t false_sharing = 0;
  for (const SharedLine& sl : shared)
    if (sl.slots > 1) false_sharing++;

  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-cachesim-v1")
      .kv("line_bytes", uint64_t(line_bytes_))
      .kv("l1_bytes", uint64_t(l1_bytes_))
      .kv("l1_ways", uint64_t(l1_ways_))
      .kv("l2_bytes", uint64_t(l2_bytes_))
      .kv("l2_ways", uint64_t(l2_ways_))
      .kv("accesses", accesses_)
      .kv("reads", reads_)
      .kv("writes", writes_)
      .kv("l1_misses", l1_misses_)
      .kv("l2_misses", l2_misses_)
      .kv("shared_line_count", uint64_t(shared.size()))
      .kv("false_sharing_lines", false_sharing)
      .kv("run_instr_count", run_.instr_count)
      .kv("verified", run_.verified)
      .kv("post_violation", run_.post_violation);

  // Sites are counted per (owner, method, pc) key; distinct keys whose
  // labels coincide are one row.
  std::map<std::string, SiteStat> by_label;
  for (const auto& [key, ss] : by_site_) {
    SiteStat& sum = by_label[key.label()];
    sum.accesses += ss.accesses;
    sum.l1_misses += ss.l1_misses;
    sum.l2_misses += ss.l2_misses;
  }
  std::vector<std::pair<const std::string*, const SiteStat*>> sites;
  sites.reserve(by_label.size());
  for (const auto& [site, ss] : by_label) sites.emplace_back(&site, &ss);
  std::sort(sites.begin(), sites.end(), [](const auto& a, const auto& b) {
    if (a.second->accesses != b.second->accesses)
      return a.second->accesses > b.second->accesses;
    return *a.first < *b.first;
  });
  if (sites.size() > top_n_) sites.resize(top_n_);
  w.key("by_site").begin_array();
  for (const auto& [site, ss] : sites) {
    w.begin_object()
        .kv("site", *site)
        .kv("accesses", ss->accesses)
        .kv("l1_misses", ss->l1_misses)
        .kv("l2_misses", ss->l2_misses)
        .end_object();
  }
  w.end_array();

  std::vector<const TypeStat*> types;
  types.reserve(by_type_.size());
  for (const auto& [id, ts] : by_type_) types.push_back(&ts);
  std::sort(types.begin(), types.end(),
            [](const TypeStat* a, const TypeStat* b) {
              if (a->accesses != b->accesses) return a->accesses > b->accesses;
              return a->name < b->name;
            });
  w.key("by_type").begin_array();
  for (const TypeStat* ts : types) {
    w.begin_object()
        .kv("class", ts->name)
        .kv("accesses", ts->accesses)
        .kv("l1_misses", ts->l1_misses)
        .kv("l2_misses", ts->l2_misses)
        .end_object();
  }
  w.end_array();

  if (shared.size() > top_n_) shared.resize(top_n_);
  w.key("shared_lines").begin_array();
  for (const SharedLine& sl : shared) {
    w.begin_object()
        .kv("line", sl.line)
        .kv("class", sl.class_name)
        .kv("accesses", sl.accesses)
        .kv("threads", uint64_t(sl.threads))
        .kv("distinct_slots", uint64_t(sl.slots))
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

}  // namespace dejavu::obs
