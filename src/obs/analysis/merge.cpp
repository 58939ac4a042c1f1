#include "src/obs/analysis/merge.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/json.hpp"

namespace dejavu::obs {

namespace {

// Reads of a checked document: every key is present with its type.
uint64_t u64(const JsonValue& obj, const char* k) {
  return uint64_t(obj.at(k).number);
}

const std::string& text(const JsonValue& obj, const char* k) {
  return obj.at(k).string;
}

}  // namespace

void ArtifactMerger::add_json(const std::string& json) {
  JsonValue doc = parse_json(json);
  check_artifact(doc, schema_);
  // A merged input stands for merged_runs per-run documents.
  const JsonValue* merged = doc.find("merged_runs");
  runs_ += merged != nullptr ? uint64_t(merged->number) : 1;
  run_instr_count_ += u64(doc, "run_instr_count");
  verified_ = verified_ && doc.at("verified").boolean;
  post_violation_ = post_violation_ || doc.at("post_violation").boolean;
  fold(doc);
}

// ------------------------------------------------------------- profile

void ProfileMerger::fold(const JsonValue& doc) {
  total_instructions_ += u64(doc, "total_instructions");
  total_yield_points_ += u64(doc, "total_yield_points");
  run_logical_clock_ += u64(doc, "run_logical_clock");
  for (const JsonValue& m : doc.at("methods").items) {
    MethodAgg& agg = methods_[text(m, "name")];
    agg.instructions += u64(m, "instructions");
    agg.yield_points += u64(m, "yield_points");
    for (const JsonValue& pc : m.at("hot_pcs").items) {
      agg.pcs[{u64(pc, "pc"), text(pc, "op"),
               int64_t(pc.at("line").number)}] += u64(pc, "count");
    }
  }
}

std::string ProfileMerger::artifact() const {
  std::vector<const std::map<std::string, MethodAgg>::value_type*> order;
  order.reserve(methods_.size());
  for (const auto& kv : methods_) order.push_back(&kv);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->second.instructions != b->second.instructions)
      return a->second.instructions > b->second.instructions;
    return a->first < b->first;
  });

  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-profile-v1")
      .kv("merged_runs", runs_)
      .kv("total_instructions", total_instructions_)
      .kv("total_yield_points", total_yield_points_)
      .kv("run_instr_count", run_instr_count_)
      .kv("run_logical_clock", run_logical_clock_)
      .kv("verified", verified_)
      .kv("post_violation", post_violation_);
  w.key("methods").begin_array();
  for (const auto* m : order) {
    w.begin_object()
        .kv("name", m->first)
        .kv("instructions", m->second.instructions)
        .kv("yield_points", m->second.yield_points);
    std::vector<const PcMap::value_type*> pcs;
    pcs.reserve(m->second.pcs.size());
    for (const auto& kv : m->second.pcs) pcs.push_back(&kv);
    std::sort(pcs.begin(), pcs.end(), [](const auto* a, const auto* b) {
      if (a->second != b->second) return a->second > b->second;
      return a->first < b->first;
    });
    w.key("hot_pcs").begin_array();
    for (const auto* pc : pcs) {
      w.begin_object()
          .kv("pc", std::get<0>(pc->first))
          .kv("op", std::get<1>(pc->first))
          .kv("line", std::get<2>(pc->first))
          .kv("count", pc->second)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

// ---------------------------------------------------------------- locks

void LocksMerger::fold(const JsonValue& doc) {
  for (const JsonValue& m : doc.at("monitors").items) {
    MonitorAgg& agg = monitors_[u64(m, "id")];
    agg.acquires += u64(m, "acquires");
    agg.recursive_acquires += u64(m, "recursive_acquires");
    agg.contended_blocks += u64(m, "contended_blocks");
    agg.hold_total += u64(m, "hold_total");
    agg.hold_max = std::max(agg.hold_max, u64(m, "hold_max"));
    agg.block_total += u64(m, "block_total");
    agg.block_max = std::max(agg.block_max, u64(m, "block_max"));
    agg.waits += u64(m, "waits");
    agg.wait_total += u64(m, "wait_total");
    agg.wait_max = std::max(agg.wait_max, u64(m, "wait_max"));
    agg.notify_ops += u64(m, "notify_ops");
    agg.woken += u64(m, "woken");
  }
  for (const JsonValue& e : doc.at("wait_edges").items) {
    wait_edges_[{u64(e, "blocked"), u64(e, "holder"), u64(e, "monitor")}] +=
        u64(e, "count");
  }
  for (const JsonValue& p : doc.at("inversions").items)
    inversions_.insert({u64(p, "a"), u64(p, "b")});
  for (const JsonValue& c : doc.at("deadlock_warnings").items) {
    // The check guarantees equal-length tids and monitors.
    std::vector<uint64_t> tids, monitors;
    std::string key;
    const std::vector<JsonValue>& t = c.at("tids").items;
    const std::vector<JsonValue>& m = c.at("monitors").items;
    for (size_t i = 0; i < t.size(); ++i) {
      tids.push_back(uint64_t(t[i].number));
      monitors.push_back(uint64_t(m[i].number));
      key += std::to_string(tids[i]) + ":" + std::to_string(monitors[i]) + ";";
    }
    CycleAgg& agg = cycles_[key];
    uint64_t first = u64(c, "first_instr");
    if (agg.count == 0) {
      agg.tids = std::move(tids);
      agg.monitors = std::move(monitors);
      agg.first_instr = first;
    } else {
      agg.first_instr = std::min(agg.first_instr, first);
    }
    agg.count += u64(c, "count");
  }
}

std::string LocksMerger::artifact() const {
  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-locks-v1")
      .kv("merged_runs", runs_)
      .kv("duration_unit", "instructions")
      .kv("run_instr_count", run_instr_count_)
      .kv("verified", verified_)
      .kv("post_violation", post_violation_);
  w.key("monitors").begin_array();
  for (const auto& [id, st] : monitors_) {
    w.begin_object()
        .kv("id", id)
        .kv("acquires", st.acquires)
        .kv("recursive_acquires", st.recursive_acquires)
        .kv("contended_blocks", st.contended_blocks)
        .kv("hold_total", st.hold_total)
        .kv("hold_max", st.hold_max)
        .kv("block_total", st.block_total)
        .kv("block_max", st.block_max)
        .kv("waits", st.waits)
        .kv("wait_total", st.wait_total)
        .kv("wait_max", st.wait_max)
        .kv("notify_ops", st.notify_ops)
        .kv("woken", st.woken)
        .end_object();
  }
  w.end_array();
  w.key("wait_edges").begin_array();
  for (const auto& [edge, count] : wait_edges_) {
    w.begin_object()
        .kv("blocked", std::get<0>(edge))
        .kv("holder", std::get<1>(edge))
        .kv("monitor", std::get<2>(edge))
        .kv("count", count)
        .end_object();
  }
  w.end_array();
  w.key("inversions").begin_array();
  for (const auto& [a, b] : inversions_) {
    w.begin_object().kv("a", a).kv("b", b).end_object();
  }
  w.end_array();
  w.key("deadlock_warnings").begin_array();
  for (const auto& [key, c] : cycles_) {
    w.begin_object();
    w.key("tids").begin_array();
    for (uint64_t t : c.tids) w.value(t);
    w.end_array();
    w.key("monitors").begin_array();
    for (uint64_t m : c.monitors) w.value(m);
    w.end_array();
    w.kv("first_instr", c.first_instr).kv("count", c.count).end_object();
  }
  w.end_array().end_object();
  return w.str();
}

// ---------------------------------------------------------------- races

void RacesMerger::fold(const JsonValue& doc) {
  dynamic_count_ += u64(doc, "dynamic_count");
  checks_ += u64(doc, "checks");
  for (const JsonValue& r : doc.at("races").items) {
    RaceAgg in;
    in.cls = text(r, "class");
    in.alloc_site = text(r, "alloc_site");
    in.slot = u64(r, "slot");
    in.first_instr = u64(r, "first_instr");
    in.first_tid = u64(r, "first_tid");
    in.second_tid = u64(r, "second_tid");
    in.first_line = int64_t(r.at("first_line").number);
    in.second_line = int64_t(r.at("second_line").number);
    in.first_clock = u64(r, "first_clock");
    in.second_clock = u64(r, "second_clock");
    in.count = u64(r, "count");

    RaceAgg& agg = races_[{text(r, "kind"), text(r, "first_site"),
                           text(r, "second_site")}];
    if (agg.count == 0 || in.rep_key() < agg.rep_key()) {
      uint64_t count = agg.count;
      agg = in;
      agg.count = count;
    }
    agg.count += in.count;
  }
}

std::string RacesMerger::artifact() const {
  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-races-v1")
      .kv("merged_runs", runs_)
      .kv("edge_model", "sync-only (monitor, spawn/join, cross-lane wakes)")
      .kv("race_count", uint64_t(races_.size()))
      .kv("dynamic_count", dynamic_count_)
      .kv("checks", checks_)
      .kv("run_instr_count", run_instr_count_)
      .kv("verified", verified_)
      .kv("post_violation", post_violation_);

  std::vector<const std::map<std::tuple<std::string, std::string,
                                        std::string>,
                             RaceAgg>::value_type*> order;
  order.reserve(races_.size());
  for (const auto& kv : races_) order.push_back(&kv);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->second.count != b->second.count)
      return a->second.count > b->second.count;
    return a->first < b->first;
  });
  w.key("races").begin_array();
  for (const auto* kv : order) {
    const RaceAgg& r = kv->second;
    w.begin_object()
        .kv("kind", std::get<0>(kv->first))
        .kv("class", r.cls)
        .kv("alloc_site", r.alloc_site)
        .kv("slot", r.slot)
        .kv("count", r.count)
        .kv("first_instr", r.first_instr)
        .kv("first_tid", r.first_tid)
        .kv("first_site", std::get<1>(kv->first))
        .kv("first_line", r.first_line)
        .kv("first_clock", r.first_clock)
        .kv("second_tid", r.second_tid)
        .kv("second_site", std::get<2>(kv->first))
        .kv("second_line", r.second_line)
        .kv("second_clock", r.second_clock)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

// ----------------------------------------------------------------- heap

void HeapMerger::fold(const JsonValue& doc) {
  allocs_ += u64(doc, "allocs");
  alloc_slots_ += u64(doc, "alloc_slots");
  reads_ += u64(doc, "reads");
  writes_ += u64(doc, "writes");
  gc_moves_ += u64(doc, "gc_moves");
  for (const JsonValue& t : doc.at("by_type").items) {
    TypeAgg& agg = by_type_[text(t, "class")];
    agg.count += u64(t, "count");
    agg.slots += u64(t, "slots");
  }
  for (const JsonValue& s : doc.at("top_sites").items)
    sites_[text(s, "site")] += u64(s, "count");
  for (const JsonValue& o : doc.at("hot_objects").items) {
    // Per-run entries are single objects; already-merged documents carry
    // an "objects" tally instead. Both feed the same key.
    HotAgg& agg = hot_[{text(o, "class"), text(o, "site")}];
    agg.objects += o.find("objects") != nullptr ? u64(o, "objects") : 1;
    agg.reads += u64(o, "reads");
    agg.writes += u64(o, "writes");
  }
}

std::string HeapMerger::artifact() const {
  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-heap-v1")
      .kv("merged_runs", runs_)
      .kv("object_identity", "stable (copying-GC forwarding tracked)")
      .kv("allocs", allocs_)
      .kv("alloc_slots", alloc_slots_)
      .kv("reads", reads_)
      .kv("writes", writes_)
      .kv("gc_moves", gc_moves_)
      .kv("run_instr_count", run_instr_count_)
      .kv("verified", verified_)
      .kv("post_violation", post_violation_);

  std::vector<const std::map<std::string, TypeAgg>::value_type*> types;
  types.reserve(by_type_.size());
  for (const auto& kv : by_type_) types.push_back(&kv);
  std::sort(types.begin(), types.end(), [](const auto* a, const auto* b) {
    if (a->second.count != b->second.count)
      return a->second.count > b->second.count;
    return a->first < b->first;
  });
  w.key("by_type").begin_array();
  for (const auto* t : types) {
    w.begin_object()
        .kv("class", t->first)
        .kv("count", t->second.count)
        .kv("slots", t->second.slots)
        .end_object();
  }
  w.end_array();

  std::vector<std::pair<std::string, uint64_t>> sites(sites_.begin(),
                                                      sites_.end());
  std::sort(sites.begin(), sites.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  w.key("top_sites").begin_array();
  for (const auto& [site, count] : sites) {
    w.begin_object().kv("site", site).kv("count", count).end_object();
  }
  w.end_array();

  // Per-object identities are per-trace; the fleet view re-keys hot
  // objects by (class, allocation site), which is stable across runs.
  std::vector<const std::map<std::pair<std::string, std::string>,
                             HotAgg>::value_type*> hot;
  hot.reserve(hot_.size());
  for (const auto& kv : hot_) hot.push_back(&kv);
  std::sort(hot.begin(), hot.end(), [](const auto* a, const auto* b) {
    uint64_t ha = a->second.reads + a->second.writes;
    uint64_t hb = b->second.reads + b->second.writes;
    if (ha != hb) return ha > hb;
    return a->first < b->first;
  });
  w.key("hot_objects").begin_array();
  for (const auto* h : hot) {
    w.begin_object()
        .kv("class", h->first.first)
        .kv("site", h->first.second)
        .kv("objects", h->second.objects)
        .kv("reads", h->second.reads)
        .kv("writes", h->second.writes)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------- critpath

void CritPathMerger::fold(const JsonValue& doc) {
  switches_ += u64(doc, "switches");
  path_instrs_ += u64(doc, "critical_path_instrs");
  for (const JsonValue& t : doc.at("threads").items) {
    WallAgg& agg = threads_[u64(t, "tid")];
    agg.running += u64(t, "running");
    agg.runnable += u64(t, "runnable");
    agg.blocked += u64(t, "blocked");
    agg.waiting += u64(t, "waiting");
  }
  for (const JsonValue& m : doc.at("by_method").items)
    methods_[text(m, "method")] += u64(m, "instrs");
  for (const JsonValue& e : doc.at("edge_kinds").items)
    edges_[text(e, "kind")] += u64(e, "count");
}

std::string CritPathMerger::artifact() const {
  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-critpath-v1")
      .kv("merged_runs", runs_)
      .kv("run_instr_count", run_instr_count_)
      .kv("switches", switches_)
      .kv("critical_path_instrs", path_instrs_)
      .kv("verified", verified_)
      .kv("post_violation", post_violation_);

  w.key("threads").begin_array();
  for (const auto& [tid, tw] : threads_) {
    w.begin_object()
        .kv("tid", tid)
        .kv("running", tw.running)
        .kv("runnable", tw.runnable)
        .kv("blocked", tw.blocked)
        .kv("waiting", tw.waiting)
        .end_object();
  }
  w.end_array();

  std::vector<const std::map<std::string, uint64_t>::value_type*> methods;
  methods.reserve(methods_.size());
  for (const auto& kv : methods_) methods.push_back(&kv);
  std::sort(methods.begin(), methods.end(), [](const auto* a, const auto* b) {
    if (a->second != b->second) return a->second > b->second;
    return a->first < b->first;
  });
  w.key("by_method").begin_array();
  for (const auto* m : methods) {
    w.begin_object().kv("method", m->first).kv("instrs", m->second)
        .end_object();
  }
  w.end_array();

  w.key("edge_kinds").begin_array();
  for (const auto& [kind, count] : edges_) {
    w.begin_object().kv("kind", kind).kv("count", count).end_object();
  }
  w.end_array().end_object();
  return w.str();
}

// ------------------------------------------------------------- cachesim

void CacheSimMerger::fold(const JsonValue& doc) {
  accesses_ += u64(doc, "accesses");
  reads_ += u64(doc, "reads");
  writes_ += u64(doc, "writes");
  l1_misses_ += u64(doc, "l1_misses");
  l2_misses_ += u64(doc, "l2_misses");
  shared_line_count_ += u64(doc, "shared_line_count");
  false_sharing_lines_ += u64(doc, "false_sharing_lines");
  line_bytes_ = std::min(line_bytes_, u64(doc, "line_bytes"));
  l1_bytes_ = std::min(l1_bytes_, u64(doc, "l1_bytes"));
  l1_ways_ = std::min(l1_ways_, u64(doc, "l1_ways"));
  l2_bytes_ = std::min(l2_bytes_, u64(doc, "l2_bytes"));
  l2_ways_ = std::min(l2_ways_, u64(doc, "l2_ways"));

  auto fold_sites = [](const JsonValue& list, const char* name_key,
                       std::map<std::string, SiteAgg>& into) {
    for (const JsonValue& s : list.items) {
      SiteAgg& agg = into[text(s, name_key)];
      agg.accesses += u64(s, "accesses");
      agg.l1_misses += u64(s, "l1_misses");
      agg.l2_misses += u64(s, "l2_misses");
    }
  };
  fold_sites(doc.at("by_site"), "site", by_site_);
  fold_sites(doc.at("by_type"), "class", by_type_);
  // Per-run documents report individual shared lines; merged documents
  // carry the re-keyed per-class tallies. Fold both into the same keys.
  if (const JsonValue* lines = doc.find("shared_lines")) {
    for (const JsonValue& l : lines->items) {
      SharedAgg& agg = shared_[text(l, "class")];
      agg.lines += 1;
      agg.accesses += u64(l, "accesses");
      if (u64(l, "distinct_slots") > 1) agg.false_sharing += 1;
    }
  } else {
    for (const JsonValue& c : doc.at("shared_by_class").items) {
      SharedAgg& agg = shared_[text(c, "class")];
      agg.lines += u64(c, "lines");
      agg.accesses += u64(c, "accesses");
      agg.false_sharing += u64(c, "false_sharing");
    }
  }
}

std::string CacheSimMerger::artifact() const {
  JsonWriter w;
  w.begin_object()
      .kv("schema", "dejavu-cachesim-v1")
      .kv("merged_runs", runs_)
      .kv("line_bytes", line_bytes_ == kUnset ? 0 : line_bytes_)
      .kv("l1_bytes", l1_bytes_ == kUnset ? 0 : l1_bytes_)
      .kv("l1_ways", l1_ways_ == kUnset ? 0 : l1_ways_)
      .kv("l2_bytes", l2_bytes_ == kUnset ? 0 : l2_bytes_)
      .kv("l2_ways", l2_ways_ == kUnset ? 0 : l2_ways_)
      .kv("accesses", accesses_)
      .kv("reads", reads_)
      .kv("writes", writes_)
      .kv("l1_misses", l1_misses_)
      .kv("l2_misses", l2_misses_)
      .kv("shared_line_count", shared_line_count_)
      .kv("false_sharing_lines", false_sharing_lines_)
      .kv("run_instr_count", run_instr_count_)
      .kv("verified", verified_)
      .kv("post_violation", post_violation_);

  auto emit_sites = [&w](const char* key, const char* name_key,
                         const std::map<std::string, SiteAgg>& m) {
    std::vector<const std::map<std::string, SiteAgg>::value_type*> order;
    order.reserve(m.size());
    for (const auto& kv : m) order.push_back(&kv);
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
      if (a->second.accesses != b->second.accesses)
        return a->second.accesses > b->second.accesses;
      return a->first < b->first;
    });
    w.key(key).begin_array();
    for (const auto* s : order) {
      w.begin_object()
          .kv(name_key, s->first)
          .kv("accesses", s->second.accesses)
          .kv("l1_misses", s->second.l1_misses)
          .kv("l2_misses", s->second.l2_misses)
          .end_object();
    }
    w.end_array();
  };
  emit_sites("by_site", "site", by_site_);
  emit_sites("by_type", "class", by_type_);

  std::vector<const std::map<std::string, SharedAgg>::value_type*> shared;
  shared.reserve(shared_.size());
  for (const auto& kv : shared_) shared.push_back(&kv);
  std::sort(shared.begin(), shared.end(), [](const auto* a, const auto* b) {
    if (a->second.accesses != b->second.accesses)
      return a->second.accesses > b->second.accesses;
    return a->first < b->first;
  });
  w.key("shared_by_class").begin_array();
  for (const auto* s : shared) {
    w.begin_object()
        .kv("class", s->first)
        .kv("lines", s->second.lines)
        .kv("accesses", s->second.accesses)
        .kv("false_sharing", s->second.false_sharing)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace dejavu::obs
