#include "src/farm/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "src/common/check.hpp"
#include "src/obs/json.hpp"

namespace dejavu::farm {

namespace {

uint64_t num_or(const obs::JsonValue& v, const char* k, uint64_t dflt = 0) {
  const obs::JsonValue* m = v.find(k);
  return m != nullptr && m->is_number() ? uint64_t(m->number) : dflt;
}

std::string str_or(const obs::JsonValue& v, const char* k) {
  const obs::JsonValue* m = v.find(k);
  return m != nullptr && m->is_string() ? m->string : std::string();
}

void append_line(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
  *out += '\n';
}

}  // namespace

std::string farm_report_json(const FarmRunResult& result, uint32_t top_n) {
  uint64_t clean = 0, diverged = 0, violation = 0, error = 0, instrs = 0;
  for (const TraceOutcome& o : result.outcomes) {
    if (o.verdict == "clean") clean++;
    else if (o.verdict == "diverged") diverged++;
    else if (o.verdict == "violation") violation++;
    else error++;
    if (o.verdict != "error") instrs += o.record.instr_count;
  }

  obs::JsonWriter w;
  w.begin_object().kv("schema", kFarmReportSchema);
  w.key("traces").begin_array();
  for (const TraceOutcome& o : result.outcomes) {
    w.begin_object()
        .kv("workload", o.record.workload)
        .kv("seed", o.record.seed)
        .kv("content_hash", o.record.content_hash)
        .kv("verdict", o.verdict)
        .kv("instr_count", o.record.instr_count)
        .kv("violations", o.violations);
    if (!o.first_violation.empty()) w.kv("first_violation", o.first_violation);
    if (!o.error.empty()) w.kv("error", o.error);
    w.end_object();
  }
  w.end_array();
  w.key("totals")
      .begin_object()
      .kv("traces", uint64_t(result.outcomes.size()))
      .kv("clean", clean)
      .kv("diverged", diverged)
      .kv("violation", violation)
      .kv("error", error)
      .kv("instructions", instrs)
      .end_object();

  w.key("merged_metrics");
  if (result.merged_metrics.samples.empty()) w.null();
  else w.raw(result.merged_metrics.to_json());
  w.key("merged_profile");
  if (result.merged_profile.empty()) w.null();
  else w.raw(result.merged_profile);
  w.key("merged_locks");
  if (result.merged_locks.empty()) w.null();
  else w.raw(result.merged_locks);
  w.key("merged_heap");
  if (result.merged_heap.empty()) w.null();
  else w.raw(result.merged_heap);
  w.key("merged_races");
  if (result.merged_races.empty()) w.null();
  else w.raw(result.merged_races);
  w.key("merged_critpath");
  if (result.merged_critpath.empty()) w.null();
  else w.raw(result.merged_critpath);
  w.key("merged_cachesim");
  if (result.merged_cachesim.empty()) w.null();
  else w.raw(result.merged_cachesim);

  // Presentation-layer top-N over the (untruncated) merged documents.
  w.key("top_methods").begin_array();
  if (!result.merged_profile.empty()) {
    obs::JsonValue prof = obs::parse_json(result.merged_profile);
    const obs::JsonValue* methods = prof.find("methods");
    if (methods != nullptr && methods->is_array()) {
      uint32_t emitted = 0;
      for (const obs::JsonValue& m : methods->items) {
        if (emitted++ >= top_n) break;
        w.begin_object()
            .kv("name", str_or(m, "name"))
            .kv("instructions", num_or(m, "instructions"))
            .kv("yield_points", num_or(m, "yield_points"))
            .end_object();
      }
    }
  }
  w.end_array();

  w.key("top_monitors").begin_array();
  if (!result.merged_locks.empty()) {
    obs::JsonValue locks = obs::parse_json(result.merged_locks);
    const obs::JsonValue* mons = locks.find("monitors");
    if (mons != nullptr && mons->is_array()) {
      std::vector<const obs::JsonValue*> order;
      order.reserve(mons->items.size());
      for (const obs::JsonValue& m : mons->items) order.push_back(&m);
      std::sort(order.begin(), order.end(),
                [](const obs::JsonValue* a, const obs::JsonValue* b) {
                  uint64_t ca = num_or(*a, "contended_blocks");
                  uint64_t cb = num_or(*b, "contended_blocks");
                  if (ca != cb) return ca > cb;
                  uint64_t ba = num_or(*a, "block_total");
                  uint64_t bb = num_or(*b, "block_total");
                  if (ba != bb) return ba > bb;
                  return num_or(*a, "id") < num_or(*b, "id");
                });
      uint32_t emitted = 0;
      for (const obs::JsonValue* m : order) {
        if (emitted++ >= top_n) break;
        w.begin_object()
            .kv("id", num_or(*m, "id"))
            .kv("contended_blocks", num_or(*m, "contended_blocks"))
            .kv("block_total", num_or(*m, "block_total"))
            .kv("block_max", num_or(*m, "block_max"))
            .end_object();
      }
    }
  }
  w.end_array().end_object();
  return w.str();
}

std::string render_farm_report(const std::string& json) {
  obs::JsonValue doc = obs::parse_json(json);
  if (str_or(doc, "schema") != kFarmReportSchema)
    throw VmError("not a dejavu-farm-report-v1 document");

  std::string out;
  const obs::JsonValue* totals = doc.find("totals");
  if (totals != nullptr) {
    append_line(&out,
                "farm report: %" PRIu64 " traces  (%" PRIu64 " clean, %" PRIu64
                " diverged, %" PRIu64 " violation, %" PRIu64 " error)",
                num_or(*totals, "traces"), num_or(*totals, "clean"),
                num_or(*totals, "diverged"), num_or(*totals, "violation"),
                num_or(*totals, "error"));
    append_line(&out, "fleet instructions: %" PRIu64,
                num_or(*totals, "instructions"));
  }

  const obs::JsonValue* traces = doc.find("traces");
  if (traces != nullptr && traces->is_array()) {
    append_line(&out, "%-18s %-8s %-10s %12s  %s", "workload", "seed",
                "verdict", "instrs", "hash");
    for (const obs::JsonValue& t : traces->items) {
      std::string detail = str_or(t, "first_violation");
      if (detail.empty()) detail = str_or(t, "error");
      append_line(&out, "%-18s %-8" PRIu64 " %-10s %12" PRIu64 "  %.16s%s%s",
                  str_or(t, "workload").c_str(), num_or(t, "seed"),
                  str_or(t, "verdict").c_str(), num_or(t, "instr_count"),
                  str_or(t, "content_hash").c_str(),
                  detail.empty() ? "" : "  ", detail.c_str());
    }
  }

  const obs::JsonValue* methods = doc.find("top_methods");
  if (methods != nullptr && methods->is_array() && !methods->items.empty()) {
    append_line(&out, "top methods (fleet-wide instructions):");
    for (const obs::JsonValue& m : methods->items) {
      append_line(&out, "  %-32s %12" PRIu64, str_or(m, "name").c_str(),
                  num_or(m, "instructions"));
    }
  }
  const obs::JsonValue* mons = doc.find("top_monitors");
  if (mons != nullptr && mons->is_array() && !mons->items.empty()) {
    append_line(&out, "top monitors (fleet-wide contention):");
    for (const obs::JsonValue& m : mons->items) {
      append_line(&out,
                  "  monitor %-6" PRIu64 " blocks=%-8" PRIu64
                  " block_total=%-10" PRIu64 " block_max=%" PRIu64,
                  num_or(m, "id"), num_or(m, "contended_blocks"),
                  num_or(m, "block_total"), num_or(m, "block_max"));
    }
  }

  // Fleet-wide race verdicts ride the embedded merged races document.
  const obs::JsonValue* races = doc.find("merged_races");
  if (races != nullptr && races->is_object()) {
    uint64_t distinct = num_or(*races, "race_count");
    append_line(&out, "data races: %" PRIu64 " distinct site pair%s (%" PRIu64
                " dynamic) across %" PRIu64 " run%s",
                distinct, distinct == 1 ? "" : "s",
                num_or(*races, "dynamic_count"),
                num_or(*races, "merged_runs", 1),
                num_or(*races, "merged_runs", 1) == 1 ? "" : "s");
    const obs::JsonValue* list = races->find("races");
    if (list != nullptr && list->is_array()) {
      for (const obs::JsonValue& r : list->items) {
        append_line(&out, "  %-11s %s slot %" PRIu64 "  %s <-> %s  x%" PRIu64,
                    str_or(r, "kind").c_str(), str_or(r, "class").c_str(),
                    num_or(r, "slot"), str_or(r, "first_site").c_str(),
                    str_or(r, "second_site").c_str(), num_or(r, "count"));
      }
    }
  }

  // Fleet wall breakdown + critical-path attribution ride the embedded
  // merged critpath document.
  const obs::JsonValue* crit = doc.find("merged_critpath");
  if (crit != nullptr && crit->is_object()) {
    append_line(&out,
                "critical path: %" PRIu64 " instrs on path, %" PRIu64
                " schedule switches across %" PRIu64 " run%s",
                num_or(*crit, "critical_path_instrs"),
                num_or(*crit, "switches"), num_or(*crit, "merged_runs", 1),
                num_or(*crit, "merged_runs", 1) == 1 ? "" : "s");
    const obs::JsonValue* threads = crit->find("threads");
    if (threads != nullptr && threads->is_array() && !threads->items.empty()) {
      for (const obs::JsonValue& t : threads->items) {
        append_line(&out,
                    "  t%-4" PRIu64 " running=%-10" PRIu64
                    " runnable=%-10" PRIu64 " blocked=%-10" PRIu64
                    " waiting=%" PRIu64,
                    num_or(t, "tid"), num_or(t, "running"),
                    num_or(t, "runnable"), num_or(t, "blocked"),
                    num_or(t, "waiting"));
      }
    }
    const obs::JsonValue* by_method = crit->find("by_method");
    if (by_method != nullptr && by_method->is_array() &&
        !by_method->items.empty()) {
      append_line(&out, "critical-path methods:");
      for (const obs::JsonValue& m : by_method->items) {
        append_line(&out, "  %-32s %12" PRIu64, str_or(m, "method").c_str(),
                    num_or(m, "instrs"));
      }
    }
  }

  // Cache behaviour rides the embedded merged cachesim document.
  const obs::JsonValue* cache = doc.find("merged_cachesim");
  if (cache != nullptr && cache->is_object()) {
    uint64_t accesses = num_or(*cache, "accesses");
    uint64_t l1 = num_or(*cache, "l1_misses");
    uint64_t l2 = num_or(*cache, "l2_misses");
    append_line(&out,
                "cache sim: %" PRIu64 " accesses, L1 misses %" PRIu64
                " (%.1f%%), L2 misses %" PRIu64 " (%.1f%%)",
                accesses, l1,
                accesses == 0 ? 0.0 : 100.0 * double(l1) / double(accesses),
                l2,
                accesses == 0 ? 0.0 : 100.0 * double(l2) / double(accesses));
    uint64_t fs_lines = num_or(*cache, "false_sharing_lines");
    if (fs_lines > 0) {
      append_line(&out,
                  "  false-sharing candidates: %" PRIu64 " line%s (of %" PRIu64
                  " cross-thread shared)",
                  fs_lines, fs_lines == 1 ? "" : "s",
                  num_or(*cache, "shared_line_count"));
    }
    const obs::JsonValue* shared = cache->find("shared_by_class");
    if (shared != nullptr && shared->is_array() && !shared->items.empty()) {
      for (const obs::JsonValue& s : shared->items) {
        append_line(&out,
                    "  shared %-20s lines=%-6" PRIu64 " accesses=%-10" PRIu64
                    " false_sharing=%" PRIu64,
                    str_or(s, "class").c_str(), num_or(s, "lines"),
                    num_or(s, "accesses"), num_or(s, "false_sharing"));
      }
    }
  }

  // Deadlock warnings ride the embedded merged locks document.
  const obs::JsonValue* locks = doc.find("merged_locks");
  if (locks != nullptr && locks->is_object()) {
    const obs::JsonValue* warns = locks->find("deadlock_warnings");
    if (warns != nullptr && warns->is_array() && !warns->items.empty()) {
      append_line(&out, "DEADLOCK-IMMINENT cycles observed:");
      for (const obs::JsonValue& c : warns->items) {
        std::string cyc;
        const obs::JsonValue* tids = c.find("tids");
        const obs::JsonValue* ms = c.find("monitors");
        size_t n = tids != nullptr ? tids->items.size() : 0;
        for (size_t i = 0; i < n; ++i) {
          cyc.append("t").append(
              std::to_string(uint64_t(tids->items[i].number)));
          if (ms != nullptr && i < ms->items.size())
            cyc.append(" -(m")
                .append(std::to_string(uint64_t(ms->items[i].number)))
                .append(")-> ");
        }
        cyc.append("t").append(std::to_string(
            n > 0 ? uint64_t(tids->items[0].number) : 0));
        append_line(&out, "  %s  seen %" PRIu64 "x, first at instr %" PRIu64,
                    cyc.c_str(), num_or(c, "count"), num_or(c, "first_instr"));
      }
    }
  }

  // Forward compatibility: a report from a newer farm can embed artifact
  // kinds this renderer does not know. One-line notice, never a failure.
  static const char* const kKnownArtifacts[] = {
      "dejavu-metrics-v1", "dejavu-profile-v1",   "dejavu-locks-v1",
      "dejavu-heap-v1",    "dejavu-races-v1",     "dejavu-critpath-v1",
      "dejavu-cachesim-v1"};
  for (const auto& [key, value] : doc.members) {
    if (key.rfind("merged_", 0) != 0 || !value.is_object()) continue;
    std::string schema = str_or(value, "schema");
    bool known = false;
    for (const char* k : kKnownArtifacts) known = known || schema == k;
    if (!known)
      append_line(&out, "skipped unknown artifact %s",
                  schema.empty() ? "(no schema)" : schema.c_str());
  }
  return out;
}

}  // namespace dejavu::farm
