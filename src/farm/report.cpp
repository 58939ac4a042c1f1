#include "src/farm/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "src/common/check.hpp"
#include "src/obs/analysis/artifacts.hpp"
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
  for (const obs::ArtifactKind& k : obs::artifact_kinds()) {
    const std::string& doc = result.*k.merged;
    w.key(std::string("merged_") + k.name);
    if (doc.empty()) w.null();
    else w.raw(doc);
  }

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

  // Each embedded merged document renders as `dejavu report` renders it.
  // A report from a newer farm can embed artifact kinds this renderer does
  // not know: one-line notice, never a failure.
  for (const auto& [key, value] : doc.members) {
    if (key.rfind("merged_", 0) != 0 || !value.is_object()) continue;
    std::string schema = str_or(value, "schema");
    if (obs::find_artifact_kind(schema) != nullptr)
      out += obs::render_artifact(value);
    else if (schema != "dejavu-metrics-v1")
      append_line(&out, "skipped unknown artifact %s",
                  schema.empty() ? "(no schema)" : schema.c_str());
  }
  return out;
}

}  // namespace dejavu::farm
