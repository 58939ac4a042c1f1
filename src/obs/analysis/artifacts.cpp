#include "src/obs/analysis/artifacts.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <initializer_list>

#include "src/common/check.hpp"
#include "src/obs/analysis/merge.hpp"
#include "src/obs/json.hpp"

namespace dejavu::obs {

namespace {

// ------------------------------------------------------------- checks

// The path of the document itself in violation messages.
const std::string kTop = "top";

[[noreturn]] void violation(const std::string& at, const std::string& what) {
  throw VmError(at + ": " + what);
}

enum class Field { kCount, kLine, kString, kBool, kArray };

bool has_type(const JsonValue& v, Field f) {
  switch (f) {
    case Field::kCount:  // a uint64_t counter
      return v.is_number() && v.number >= 0 && v.number < 0x1p64 &&
             v.number == std::floor(v.number);
    case Field::kLine:  // an int64_t, -1 for "none"
      return v.is_number() && v.number >= -0x1p63 && v.number < 0x1p63 &&
             v.number == std::floor(v.number);
    case Field::kString: return v.is_string();
    case Field::kBool: return v.type == JsonValue::Type::kBool;
    case Field::kArray: return v.is_array();
  }
  return false;
}

const JsonValue& need(const JsonValue& obj, const std::string& at,
                      const char* key, Field f) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) violation(at, std::string("missing key \"") + key + "\"");
  if (!has_type(*v, f))
    violation(at, std::string("key \"") + key + "\" has the wrong type");
  return *v;
}

void counts(const JsonValue& obj, const std::string& at,
            std::initializer_list<const char*> keys) {
  for (const char* k : keys) need(obj, at, k, Field::kCount);
}

// Checks that obj[key] is an array of objects and hands each entry, with
// its path, to `entry`.
template <typename Fn>
void each(const JsonValue& obj, const std::string& at, const char* key,
          Fn entry) {
  const JsonValue& list = need(obj, at, key, Field::kArray);
  std::string prefix = at == kTop ? std::string() : at + ".";
  prefix.append(key).append("[");
  for (size_t i = 0; i < list.items.size(); ++i) {
    std::string where = prefix + std::to_string(i) + "]";
    if (!list.items[i].is_object()) violation(where, "not an object");
    entry(list.items[i], where);
  }
}

void check_profile(const JsonValue& doc) {
  counts(doc, kTop,
         {"total_instructions", "total_yield_points", "run_logical_clock"});
  each(doc, kTop, "methods", [](const JsonValue& m, const std::string& at) {
    need(m, at, "name", Field::kString);
    counts(m, at, {"instructions", "yield_points"});
    each(m, at, "hot_pcs", [](const JsonValue& pc, const std::string& at) {
      counts(pc, at, {"pc", "count"});
      need(pc, at, "op", Field::kString);
      need(pc, at, "line", Field::kLine);
    });
  });
}

void check_locks(const JsonValue& doc) {
  if (need(doc, kTop, "duration_unit", Field::kString).string !=
      "instructions")
    violation(kTop, "duration_unit is not \"instructions\"");
  each(doc, kTop, "monitors", [](const JsonValue& m, const std::string& at) {
    counts(m, at,
           {"id", "acquires", "recursive_acquires", "contended_blocks",
            "hold_total", "hold_max", "block_total", "block_max", "waits",
            "wait_total", "wait_max", "notify_ops", "woken"});
  });
  each(doc, kTop, "wait_edges", [](const JsonValue& e, const std::string& at) {
    counts(e, at, {"blocked", "holder", "monitor", "count"});
  });
  each(doc, kTop, "inversions", [](const JsonValue& p, const std::string& at) {
    counts(p, at, {"a", "b"});
  });
  each(doc, kTop, "deadlock_warnings",
       [](const JsonValue& c, const std::string& at) {
         const JsonValue& tids = need(c, at, "tids", Field::kArray);
         const JsonValue& mons = need(c, at, "monitors", Field::kArray);
         if (tids.items.size() != mons.items.size() || tids.items.empty())
           violation(at, "tids/monitors must be equal-length, non-empty");
         for (const JsonValue* list : {&tids, &mons})
           for (const JsonValue& x : list->items)
             if (!has_type(x, Field::kCount))
               violation(at, "tids/monitors hold a non-count");
         counts(c, at, {"first_instr", "count"});
       });
}

void check_heap(const JsonValue& doc) {
  need(doc, kTop, "object_identity", Field::kString);
  counts(doc, kTop, {"allocs", "alloc_slots", "reads", "writes", "gc_moves"});
  each(doc, kTop, "by_type", [](const JsonValue& t, const std::string& at) {
    need(t, at, "class", Field::kString);
    counts(t, at, {"count", "slots"});
  });
  each(doc, kTop, "top_sites", [](const JsonValue& s, const std::string& at) {
    need(s, at, "site", Field::kString);
    counts(s, at, {"count"});
  });
  each(doc, kTop, "hot_objects", [](const JsonValue& o, const std::string& at) {
    need(o, at, "class", Field::kString);
    need(o, at, "site", Field::kString);
    counts(o, at, {"reads", "writes"});
    // Per-run entries name one object (id + addr); merged entries are
    // site-keyed aggregates and carry an "objects" tally instead.
    if (o.find("addr") != nullptr) counts(o, at, {"addr", "id"});
    else counts(o, at, {"objects"});
  });
}

void check_races(const JsonValue& doc) {
  need(doc, kTop, "edge_model", Field::kString);
  counts(doc, kTop, {"race_count", "dynamic_count", "checks"});
  const JsonValue& races = need(doc, kTop, "races", Field::kArray);
  if (double(races.items.size()) != doc.at("race_count").number)
    violation(kTop, "race_count does not match the races array length");
  each(doc, kTop, "races", [](const JsonValue& r, const std::string& at) {
    const std::string& kind = need(r, at, "kind", Field::kString).string;
    if (kind != "write-write" && kind != "read-write" && kind != "write-read")
      violation(at, "unknown race kind \"" + kind + "\"");
    for (const char* k : {"class", "alloc_site", "first_site", "second_site"})
      need(r, at, k, Field::kString);
    counts(r, at,
           {"slot", "count", "first_instr", "first_tid", "first_clock",
            "second_tid", "second_clock"});
    need(r, at, "first_line", Field::kLine);
    need(r, at, "second_line", Field::kLine);
  });
}

void check_critpath(const JsonValue& doc) {
  counts(doc, kTop, {"switches", "critical_path_instrs"});
  each(doc, kTop, "threads", [](const JsonValue& t, const std::string& at) {
    counts(t, at, {"tid", "running", "runnable", "blocked", "waiting"});
  });
  // Per-run documents carry the trace-local segment list; merged documents
  // drop it (instruction indices don't compare across traces) and carry a
  // merged_runs count instead.
  if (doc.find("critical_path") != nullptr) {
    each(doc, kTop, "critical_path",
         [](const JsonValue& s, const std::string& at) {
           counts(s, at, {"tid", "start", "end", "instrs"});
           need(s, at, "method", Field::kString);
           need(s, at, "edge", Field::kString);
         });
  } else {
    counts(doc, kTop, {"merged_runs"});
  }
  each(doc, kTop, "by_method", [](const JsonValue& m, const std::string& at) {
    need(m, at, "method", Field::kString);
    counts(m, at, {"instrs"});
  });
  each(doc, kTop, "edge_kinds", [](const JsonValue& e, const std::string& at) {
    need(e, at, "kind", Field::kString);
    counts(e, at, {"count"});
  });
}

// The cachesim per-site and per-class lists: array, name key, column title.
const char* const kCacheLists[][3] = {{"by_site", "site", "site"},
                                      {"by_type", "class", "type"}};

void check_cachesim(const JsonValue& doc) {
  counts(doc, kTop,
         {"line_bytes", "l1_bytes", "l1_ways", "l2_bytes", "l2_ways",
          "accesses", "reads", "writes", "l1_misses", "l2_misses",
          "shared_line_count", "false_sharing_lines"});
  for (const char* const* list : kCacheLists) {
    const char* name = list[1];
    each(doc, kTop, list[0], [name](const JsonValue& s, const std::string& at) {
      need(s, at, name, Field::kString);
      counts(s, at, {"accesses", "l1_misses", "l2_misses"});
    });
  }
  // Per-run documents report concrete shared lines (trace-local synthetic
  // line indices); merged documents re-key by class and carry merged_runs.
  if (doc.find("shared_lines") != nullptr) {
    each(doc, kTop, "shared_lines",
         [](const JsonValue& s, const std::string& at) {
           need(s, at, "class", Field::kString);
           counts(s, at, {"line", "accesses", "threads", "distinct_slots"});
         });
  } else {
    counts(doc, kTop, {"merged_runs"});
    each(doc, kTop, "shared_by_class",
         [](const JsonValue& s, const std::string& at) {
           need(s, at, "class", Field::kString);
           counts(s, at, {"lines", "accesses", "false_sharing"});
         });
  }
}

// ---------------------------------------------------------- renderers
//
// Each renders a checked document, so every key it reads is present.

[[gnu::format(printf, 2, 3)]]
void appendf(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  char buf[256];
  int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n >= 0 && size_t(n) < sizeof buf) {
    out->append(buf, size_t(n));
  } else if (n > 0) {
    size_t at = out->size();
    out->resize(at + size_t(n) + 1);
    std::vsnprintf(out->data() + at, size_t(n) + 1, fmt, again);
    out->resize(at + size_t(n));
  }
  va_end(again);
}

double num(const JsonValue& obj, const char* k) { return obj.at(k).number; }

const char* str(const JsonValue& obj, const char* k) {
  return obj.at(k).string.c_str();
}

void render_profile(const JsonValue& doc, std::string* out) {
  appendf(out, "replay profile: %.0f instructions, %.0f yield points%s\n",
          num(doc, "total_instructions"), num(doc, "total_yield_points"),
          doc.at("verified").boolean ? " (verified)" : "");
  appendf(out, "%12s %8s  %s\n", "instrs", "yields", "method");
  for (const JsonValue& m : doc.at("methods").items) {
    appendf(out, "%12.0f %8.0f  %s\n", num(m, "instructions"),
            num(m, "yield_points"), str(m, "name"));
  }
}

void render_locks(const JsonValue& doc, std::string* out) {
  appendf(out, "lock contention (durations in %s):\n",
          str(doc, "duration_unit"));
  appendf(out, "%8s %10s %10s %10s %10s %8s\n", "monitor", "acquires",
          "contended", "hold_max", "wait_max", "waits");
  for (const JsonValue& m : doc.at("monitors").items) {
    appendf(out, "%8.0f %10.0f %10.0f %10.0f %10.0f %8.0f\n", num(m, "id"),
            num(m, "acquires"), num(m, "contended_blocks"),
            num(m, "hold_max"), num(m, "wait_max"), num(m, "waits"));
  }
  const JsonValue& inv = doc.at("inversions");
  if (!inv.items.empty()) {
    appendf(out, "LOCK-ORDER INVERSIONS (potential deadlocks):\n");
    for (const JsonValue& p : inv.items)
      appendf(out, "  monitors %.0f <-> %.0f acquired in both orders\n",
              num(p, "a"), num(p, "b"));
  } else {
    appendf(out, "no lock-order inversions observed\n");
  }
  const JsonValue& dw = doc.at("deadlock_warnings");
  if (dw.items.empty()) return;
  appendf(out, "DEADLOCK-IMMINENT wait-for cycles observed at runtime:\n");
  for (const JsonValue& c : dw.items) {
    const std::vector<JsonValue>& tids = c.at("tids").items;
    const std::vector<JsonValue>& mons = c.at("monitors").items;
    appendf(out, "  ");
    // tids[i] blocks on monitors[i], held by tids[(i+1) % n].
    for (size_t i = 0; i < tids.size(); ++i)
      appendf(out, "t%.0f -(m%.0f)-> ", tids[i].number, mons[i].number);
    appendf(out, "t%.0f", tids[0].number);
    appendf(out, "  seen %.0fx, first at instr %.0f\n", num(c, "count"),
            num(c, "first_instr"));
  }
}

void render_heap(const JsonValue& doc, std::string* out) {
  appendf(out, "heap churn: %.0f allocs (%.0f slots), %.0f reads, "
          "%.0f writes\n",
          num(doc, "allocs"), num(doc, "alloc_slots"), num(doc, "reads"),
          num(doc, "writes"));
  appendf(out, "%10s %12s  %s\n", "allocs", "slots", "type");
  for (const JsonValue& t : doc.at("by_type").items)
    appendf(out, "%10.0f %12.0f  %s\n", num(t, "count"), num(t, "slots"),
            str(t, "class"));
  const JsonValue& sites = doc.at("top_sites");
  if (sites.items.empty()) return;
  appendf(out, "top allocation sites:\n");
  for (const JsonValue& s : sites.items)
    appendf(out, "%10.0f  %s\n", num(s, "count"), str(s, "site"));
}

void render_races(const JsonValue& doc, std::string* out) {
  const JsonValue* runs = doc.find("merged_runs");
  appendf(out, "data races: %.0f distinct site pair(s), %.0f dynamic "
          "occurrence(s), %.0f access check(s)",
          num(doc, "race_count"), num(doc, "dynamic_count"),
          num(doc, "checks"));
  if (runs != nullptr && runs->number > 1)
    appendf(out, " across %.0f runs", runs->number);
  appendf(out, "\nedge model: %s\n", str(doc, "edge_model"));
  const JsonValue& races = doc.at("races");
  if (races.items.empty()) {
    appendf(out, "no data races detected\n");
    return;
  }
  for (const JsonValue& r : races.items) {
    appendf(out, "%-11s %s slot %.0f (alloc %s)  x%.0f\n", str(r, "kind"),
            str(r, "class"), num(r, "slot"), str(r, "alloc_site"),
            num(r, "count"));
    appendf(out, "    t%.0f %s:%.0f @%.0f  <->  t%.0f %s:%.0f @%.0f  "
            "(first at instr %.0f)\n",
            num(r, "first_tid"), str(r, "first_site"), num(r, "first_line"),
            num(r, "first_clock"), num(r, "second_tid"),
            str(r, "second_site"), num(r, "second_line"),
            num(r, "second_clock"), num(r, "first_instr"));
  }
}

void render_critpath(const JsonValue& doc, std::string* out) {
  appendf(out, "critical path: %.0f of %.0f instructions on path, "
          "%.0f schedule switches\n",
          num(doc, "critical_path_instrs"), num(doc, "run_instr_count"),
          num(doc, "switches"));
  appendf(out, "%6s %12s %12s %12s %12s\n", "tid", "running", "runnable",
          "blocked", "waiting");
  for (const JsonValue& t : doc.at("threads").items)
    appendf(out, "%6.0f %12.0f %12.0f %12.0f %12.0f\n", num(t, "tid"),
            num(t, "running"), num(t, "runnable"), num(t, "blocked"),
            num(t, "waiting"));
  const JsonValue* path = doc.find("critical_path");
  if (path != nullptr && !path->items.empty()) {
    appendf(out, "critical-path segments (chronological):\n");
    for (const JsonValue& s : path->items)
      appendf(out, "  t%-4.0f [%10.0f, %10.0f) %8.0f instrs  %-10s %s\n",
              num(s, "tid"), num(s, "start"), num(s, "end"),
              num(s, "instrs"), str(s, "edge"), str(s, "method"));
  }
  const JsonValue& methods = doc.at("by_method");
  if (!methods.items.empty()) {
    appendf(out, "critical-path instructions by method:\n");
    for (const JsonValue& m : methods.items)
      appendf(out, "%12.0f  %s\n", num(m, "instrs"), str(m, "method"));
  }
  const JsonValue& edges = doc.at("edge_kinds");
  if (!edges.items.empty()) {
    appendf(out, "dependency-edge kinds:\n");
    for (const JsonValue& e : edges.items)
      appendf(out, "%12.0f  %s\n", num(e, "count"), str(e, "kind"));
  }
}

void render_cachesim(const JsonValue& doc, std::string* out) {
  double accesses = num(doc, "accesses");
  double l1 = num(doc, "l1_misses");
  double l2 = num(doc, "l2_misses");
  appendf(out, "cache sim: %.0fB lines, L1 %.0fB/%.0f-way, L2 %.0fB/%.0f-way\n",
          num(doc, "line_bytes"), num(doc, "l1_bytes"), num(doc, "l1_ways"),
          num(doc, "l2_bytes"), num(doc, "l2_ways"));
  appendf(out, "  %.0f accesses (%.0f reads, %.0f writes), "
          "L1 misses %.0f (%.1f%%), L2 misses %.0f (%.1f%%)\n",
          accesses, num(doc, "reads"), num(doc, "writes"), l1,
          accesses == 0 ? 0.0 : 100.0 * l1 / accesses, l2,
          accesses == 0 ? 0.0 : 100.0 * l2 / accesses);
  appendf(out, "  %.0f cross-thread shared line(s), %.0f false-sharing "
          "candidate(s)\n",
          num(doc, "shared_line_count"), num(doc, "false_sharing_lines"));
  for (const char* const* list : kCacheLists) {
    const JsonValue& entries = doc.at(list[0]);
    if (entries.items.empty()) continue;
    appendf(out, "%12s %10s %10s  %s\n", "accesses", "l1_miss", "l2_miss",
            list[2]);
    for (const JsonValue& s : entries.items)
      appendf(out, "%12.0f %10.0f %10.0f  %s\n", num(s, "accesses"),
              num(s, "l1_misses"), num(s, "l2_misses"), str(s, list[1]));
  }
  const JsonValue* shared = doc.find("shared_lines");
  if (shared != nullptr && !shared->items.empty()) {
    appendf(out, "cross-thread shared lines (false-sharing candidates where "
            "distinct_slots > 1):\n");
    for (const JsonValue& s : shared->items)
      appendf(out, "  line %-8.0f %-16s accesses=%-8.0f threads=%-4.0f "
              "distinct_slots=%.0f\n",
              num(s, "line"), str(s, "class"), num(s, "accesses"),
              num(s, "threads"), num(s, "distinct_slots"));
  }
  const JsonValue* by_class = doc.find("shared_by_class");
  if (by_class != nullptr && !by_class->items.empty()) {
    appendf(out, "cross-thread sharing by class (fleet-merged):\n");
    for (const JsonValue& s : by_class->items)
      appendf(out, "  %-20s lines=%-6.0f accesses=%-10.0f false_sharing=%.0f\n",
              str(s, "class"), num(s, "lines"), num(s, "accesses"),
              num(s, "false_sharing"));
  }
}

template <typename M>
std::unique_ptr<ArtifactMerger> make() {
  return std::make_unique<M>();
}

}  // namespace

std::span<const ArtifactKind> artifact_kinds() {
  static const ArtifactKind kKinds[] = {
      {"profile", "dejavu-profile-v1", "profile.json",
       &ObsConfig::analyze_profile, &AnalysisResults::profile_json,
       &MergedArtifacts::merged_profile, false, &make<ProfileMerger>,
       check_profile, render_profile,
       {"total_instructions", "total_yield_points"},
       {{"method instructions", "methods", "name", "instructions"}}},
      {"locks", "dejavu-locks-v1", "locks.json", &ObsConfig::analyze_locks,
       &AnalysisResults::locks_json, &MergedArtifacts::merged_locks, false,
       &make<LocksMerger>, check_locks, render_locks,
       {},
       {{"monitor contended blocks", "monitors", "id", "contended_blocks"},
        {"monitor block time", "monitors", "id", "block_total"}}},
      {"heap", "dejavu-heap-v1", "heap.json", &ObsConfig::analyze_heap,
       &AnalysisResults::heap_json, &MergedArtifacts::merged_heap, false,
       &make<HeapMerger>, check_heap, render_heap,
       {"allocs", "reads", "writes"},
       {{"allocations by type", "by_type", "class", "count"}}},
      {"races", "dejavu-races-v1", "races.json", &ObsConfig::analyze_races,
       &AnalysisResults::races_json, &MergedArtifacts::merged_races, true,
       &make<RacesMerger>, check_races, render_races,
       {"race_count", "dynamic_count"},
       {}},
      {"critpath", "dejavu-critpath-v1", "critpath.json",
       &ObsConfig::analyze_critpath, &AnalysisResults::critpath_json,
       &MergedArtifacts::merged_critpath, false, &make<CritPathMerger>,
       check_critpath, render_critpath,
       {"critical_path_instrs", "switches"},
       {{"per-thread blocked time", "threads", "tid", "blocked"},
        {"critical-path method instrs", "by_method", "method", "instrs"}}},
      {"cachesim", "dejavu-cachesim-v1", "cachesim.json",
       &ObsConfig::analyze_cachesim, &AnalysisResults::cachesim_json,
       &MergedArtifacts::merged_cachesim, false, &make<CacheSimMerger>,
       check_cachesim, render_cachesim,
       {"accesses", "l1_misses", "l2_misses", "false_sharing_lines"},
       {{"site L1 misses", "by_site", "site", "l1_misses"}}},
  };
  return kKinds;
}

const ArtifactKind* find_artifact_kind(std::string_view schema) {
  for (const ArtifactKind& k : artifact_kinds())
    if (schema == k.schema) return &k;
  return nullptr;
}

bool AnalysisResults::any() const {
  for (const ArtifactKind& k : artifact_kinds())
    if (!(this->*k.result).empty()) return true;
  return false;
}

void check_artifact(const JsonValue& doc, std::string_view schema) {
  if (!doc.is_object()) throw VmError("top level is not an object");
  const std::string& s = need(doc, kTop, "schema", Field::kString).string;
  if (!schema.empty() && s != schema)
    violation(kTop, "schema is not " + std::string(schema));
  const ArtifactKind* kind = find_artifact_kind(s);
  if (kind == nullptr) violation(kTop, "unknown schema \"" + s + "\"");
  // The header every kind carries.
  counts(doc, kTop, {"run_instr_count"});
  need(doc, kTop, "verified", Field::kBool);
  need(doc, kTop, "post_violation", Field::kBool);
  if (doc.find("merged_runs") != nullptr) counts(doc, kTop, {"merged_runs"});
  kind->check(doc);
}

std::string render_artifact(const JsonValue& doc) {
  check_artifact(doc);
  std::string out;
  find_artifact_kind(doc.at("schema").string)->render(doc, &out);
  return out;
}

}  // namespace dejavu::obs
