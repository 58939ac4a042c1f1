// Schema checker for the telemetry artifacts this repo emits.
//
//   obs_schema_check <kind> <file>...
//
// kinds:
//   metrics    dejavu-metrics-v1 (MetricsSnapshot::to_json)
//   timeline   Chrome trace_event JSON (obs::timeline_to_chrome_json)
//   bench      dejavu-bench-v1 (bench/bench_json.hpp sidecars)
//   <analysis kind>  profile, locks, heap, races, critpath, cachesim: the
//              replay-time analyzers' dejavu-<kind>-v1 documents (`dejavu
//              analyze`), checked by obs::check_artifact
//   flight     dejavu-flight-v1 (`dejavu flight info --json`, tail
//              provenance descriptor)
//   collapsed  Brendan Gregg collapsed-stack text (flamegraph.pl input)
//   farm-report    dejavu-farm-report-v1 (`dejavu farm run`); the embedded
//                  merged metrics and analysis documents are checked with
//                  the same validators as their standalone forms
//   farm-manifest  dejavu-farm-manifest-v1 shard manifest (JSON Lines)
//   auto       pick by content (farm-manifest excluded: it is JSONL)
//
// Exit 0 when every file validates; the first violation is reported with
// its file and JSON path and exits 1. A JSON artifact whose "schema"
// header is not one of the known dejavu-*-v1 values fails -- unknown
// schemas are a drift, never a skip. tools/check.sh runs this over the
// artifacts produced by the obs slice so a schema drift fails CI instead
// of silently breaking downstream consumers (Perfetto, plotting scripts).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <set>
#include <string>

#include "src/common/check.hpp"
#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/json.hpp"

using dejavu::VmError;
using dejavu::obs::JsonValue;

namespace {

[[noreturn]] void fail(const std::string& file, const std::string& why) {
  std::fprintf(stderr, "obs_schema_check: %s: %s\n", file.c_str(),
               why.c_str());
  std::exit(1);
}

const JsonValue& need(const std::string& file, const JsonValue& obj,
                      const char* key, JsonValue::Type type,
                      const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(file, where + ": missing key \"" + key + "\"");
  if (v->type != type)
    fail(file, where + ": key \"" + key + "\" has the wrong type");
  return *v;
}

// Lane-tagged engine metrics ("engine.lane.<k>.preempts" / ".clock",
// emitted by multi-lane record/replay). Returns true and parses the lane
// index when `name` matches; the suffix is returned through `field`.
bool parse_lane_metric(const std::string& name, uint64_t* lane,
                       std::string* field) {
  const std::string prefix = "engine.lane.";
  if (name.rfind(prefix, 0) != 0) return false;
  size_t dot = name.find('.', prefix.size());
  if (dot == std::string::npos || dot == prefix.size()) return false;
  std::string idx = name.substr(prefix.size(), dot - prefix.size());
  for (char c : idx)
    if (c < '0' || c > '9') return false;
  *lane = std::stoull(idx);
  *field = name.substr(dot + 1);
  return true;
}

void check_metrics(const std::string& file, const JsonValue& doc) {
  if (!doc.is_object()) fail(file, "top level is not an object");
  if (need(file, doc, "schema", JsonValue::Type::kString, "top").string !=
      "dejavu-metrics-v1")
    fail(file, "schema is not dejavu-metrics-v1");
  const JsonValue& metrics =
      need(file, doc, "metrics", JsonValue::Type::kArray, "top");
  size_t i = 0;
  std::set<std::pair<uint64_t, std::string>> lane_fields;
  bool has_order_events = false;
  for (const JsonValue& m : metrics.items) {
    std::string where = "metrics[" + std::to_string(i++) + "]";
    if (!m.is_object()) fail(file, where + " is not an object");
    std::string name =
        need(file, m, "name", JsonValue::Type::kString, where).string;
    std::string kind =
        need(file, m, "kind", JsonValue::Type::kString, where).string;
    if (kind == "histogram") {
      need(file, m, "buckets", JsonValue::Type::kArray, where);
      need(file, m, "bounds", JsonValue::Type::kArray, where);
    } else if (kind == "counter" || kind == "gauge") {
      need(file, m, "value", JsonValue::Type::kNumber, where);
    } else {
      fail(file, where + ": unknown kind \"" + kind + "\"");
    }
    uint64_t lane = 0;
    std::string field;
    if (parse_lane_metric(name, &lane, &field)) {
      if (field != "preempts" && field != "clock")
        fail(file, where + ": unknown lane metric field \"" + field + "\"");
      if (kind != "counter")
        fail(file, where + ": lane metric \"" + name +
                       "\" must be a counter");
      lane_fields.emplace(lane, field);
    }
    if (name == "engine.order.events") {
      if (kind != "counter")
        fail(file, "metrics: engine.order.events must be a counter");
      has_order_events = true;
    }
  }
  // Lane-tagged documents must be internally consistent: every reported
  // lane carries both fields, and the cross-lane order counter is present
  // (multi-lane engines register them together).
  std::set<uint64_t> lanes;
  for (const auto& [lane, field] : lane_fields) lanes.insert(lane);
  for (uint64_t lane : lanes) {
    for (const char* f : {"preempts", "clock"}) {
      if (lane_fields.count({lane, f}) == 0)
        fail(file, "metrics: engine.lane." + std::to_string(lane) +
                       " is missing its ." + f + " counter");
    }
  }
  if (!lanes.empty() && !has_order_events)
    fail(file,
         "metrics: lane-tagged metrics present but engine.order.events "
         "is missing");
}

void check_timeline(const std::string& file, const JsonValue& doc) {
  if (!doc.is_object()) fail(file, "top level is not an object");
  const JsonValue& events =
      need(file, doc, "traceEvents", JsonValue::Type::kArray, "top");
  size_t i = 0;
  for (const JsonValue& e : events.items) {
    std::string where = "traceEvents[" + std::to_string(i++) + "]";
    if (!e.is_object()) fail(file, where + " is not an object");
    std::string ph =
        need(file, e, "ph", JsonValue::Type::kString, where).string;
    if (ph == "M") continue;  // metadata events carry their own keys
    if (ph != "B" && ph != "E" && ph != "i")
      fail(file, where + ": unexpected phase \"" + ph + "\"");
    need(file, e, "name", JsonValue::Type::kString, where);
    std::string cat =
        need(file, e, "cat", JsonValue::Type::kString, where).string;
    need(file, e, "ts", JsonValue::Type::kNumber, where);
    need(file, e, "pid", JsonValue::Type::kNumber, where);
    need(file, e, "tid", JsonValue::Type::kNumber, where);
    if (cat == "order") {
      // Cross-lane order instants (multi-lane record/replay) must name
      // both lanes of the edge.
      if (ph != "i") fail(file, where + ": order events must be instants");
      const JsonValue& args =
          need(file, e, "args", JsonValue::Type::kObject, where);
      need(file, args, "from_lane", JsonValue::Type::kNumber,
           where + ".args");
      need(file, args, "to_lane", JsonValue::Type::kNumber, where + ".args");
    }
  }
}

void check_bench(const std::string& file, const JsonValue& doc) {
  if (!doc.is_object()) fail(file, "top level is not an object");
  if (need(file, doc, "schema", JsonValue::Type::kString, "top").string !=
      "dejavu-bench-v1")
    fail(file, "schema is not dejavu-bench-v1");
  need(file, doc, "bench", JsonValue::Type::kString, "top");
  const JsonValue& rows =
      need(file, doc, "rows", JsonValue::Type::kArray, "top");
  size_t i = 0;
  for (const JsonValue& r : rows.items) {
    std::string where = "rows[" + std::to_string(i++) + "]";
    if (!r.is_object()) fail(file, where + " is not an object");
    need(file, r, "name", JsonValue::Type::kString, where);
    const JsonValue& metrics =
        need(file, r, "metrics", JsonValue::Type::kObject, where);
    for (const auto& [k, v] : metrics.members)
      if (!v.is_number())
        fail(file, where + ": metric \"" + k + "\" is not a number");
  }
}

// An analysis artifact whose header must name `schema`.
void check_analysis(const std::string& file, const JsonValue& doc,
                    const char* schema) {
  try {
    dejavu::obs::check_artifact(doc, schema);
  } catch (const VmError& e) {
    fail(file, e.what());
  }
}

// Flight-tail descriptor (`dejavu flight info --json F`): one flat object
// describing a sealed tail's window geometry and start checkpoint.
void check_flight(const std::string& file, const JsonValue& doc) {
  if (!doc.is_object()) fail(file, "top level is not an object");
  if (need(file, doc, "schema", JsonValue::Type::kString, "top").string !=
      "dejavu-flight-v1")
    fail(file, "schema is not dejavu-flight-v1");
  bool has_checkpoint =
      need(file, doc, "has_checkpoint", JsonValue::Type::kBool, "top").boolean;
  need(file, doc, "seal_reason", JsonValue::Type::kString, "top");
  for (const char* k :
       {"window_epochs", "epoch_preempts", "epochs_retained", "epochs_retired",
        "bytes_retired", "checkpoint_clock", "checkpoint_instr",
        "checkpoint_bytes"})
    need(file, doc, k, JsonValue::Type::kNumber, "top");
  double ckpt_bytes =
      need(file, doc, "checkpoint_bytes", JsonValue::Type::kNumber, "top")
          .number;
  if (has_checkpoint != (ckpt_bytes > 0))
    fail(file, "has_checkpoint disagrees with checkpoint_bytes");
}

void check_farm_report(const std::string& file, const JsonValue& doc) {
  if (!doc.is_object()) fail(file, "top level is not an object");
  if (need(file, doc, "schema", JsonValue::Type::kString, "top").string !=
      "dejavu-farm-report-v1")
    fail(file, "schema is not dejavu-farm-report-v1");
  const JsonValue& traces =
      need(file, doc, "traces", JsonValue::Type::kArray, "top");
  size_t i = 0;
  for (const JsonValue& t : traces.items) {
    std::string where = "traces[" + std::to_string(i++) + "]";
    if (!t.is_object()) fail(file, where + " is not an object");
    need(file, t, "workload", JsonValue::Type::kString, where);
    need(file, t, "seed", JsonValue::Type::kNumber, where);
    need(file, t, "content_hash", JsonValue::Type::kString, where);
    std::string verdict =
        need(file, t, "verdict", JsonValue::Type::kString, where).string;
    if (verdict != "clean" && verdict != "diverged" &&
        verdict != "violation" && verdict != "error")
      fail(file, where + ": unknown verdict \"" + verdict + "\"");
    need(file, t, "instr_count", JsonValue::Type::kNumber, where);
    need(file, t, "violations", JsonValue::Type::kNumber, where);
  }
  const JsonValue& totals =
      need(file, doc, "totals", JsonValue::Type::kObject, "top");
  for (const char* k :
       {"traces", "clean", "diverged", "violation", "error", "instructions"})
    need(file, totals, k, JsonValue::Type::kNumber, "totals");
  // The merged documents embed complete artifacts: validate them with the
  // standalone checkers so the fleet view can never drift from the
  // per-trace schemas. Each may be null when no trace produced one.
  const JsonValue& metrics =
      need(file, doc, "merged_metrics", JsonValue::Type::kObject, "top");
  check_metrics(file + "#merged_metrics", metrics);
  for (const dejavu::obs::ArtifactKind& k : dejavu::obs::artifact_kinds()) {
    std::string key = std::string("merged_") + k.name;
    const JsonValue* v = doc.find(key);
    if (v == nullptr) fail(file, "top: missing key \"" + key + "\"");
    if (v->type == JsonValue::Type::kNull) continue;
    if (!v->is_object())
      fail(file, "top: key \"" + key + "\" has the wrong type");
    check_analysis(file + "#" + key, *v, k.schema);
  }
  const JsonValue& methods =
      need(file, doc, "top_methods", JsonValue::Type::kArray, "top");
  i = 0;
  for (const JsonValue& m : methods.items) {
    std::string where = "top_methods[" + std::to_string(i++) + "]";
    if (!m.is_object()) fail(file, where + " is not an object");
    need(file, m, "name", JsonValue::Type::kString, where);
    need(file, m, "instructions", JsonValue::Type::kNumber, where);
    need(file, m, "yield_points", JsonValue::Type::kNumber, where);
  }
  const JsonValue& monitors =
      need(file, doc, "top_monitors", JsonValue::Type::kArray, "top");
  i = 0;
  for (const JsonValue& m : monitors.items) {
    std::string where = "top_monitors[" + std::to_string(i++) + "]";
    if (!m.is_object()) fail(file, where + " is not an object");
    for (const char* k :
         {"id", "contended_blocks", "block_total", "block_max"})
      need(file, m, k, JsonValue::Type::kNumber, where);
  }
}

// Shard manifests are JSON Lines (one object per line), so they are
// validated line-by-line rather than as one document.
void check_farm_manifest(const std::string& file, const std::string& text) {
  size_t lineno = 0;
  bool saw_header = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string where = "line " + std::to_string(lineno);
    JsonValue v;
    try {
      v = dejavu::obs::parse_json(line);
    } catch (const VmError& e) {
      fail(file, where + ": " + e.what());
    }
    if (!v.is_object()) fail(file, where + " is not an object");
    if (!saw_header) {
      if (need(file, v, "schema", JsonValue::Type::kString, where).string !=
          "dejavu-farm-manifest-v1")
        fail(file, where + ": schema is not dejavu-farm-manifest-v1");
      need(file, v, "shard", JsonValue::Type::kNumber, where);
      saw_header = true;
      continue;
    }
    need(file, v, "workload", JsonValue::Type::kString, where);
    need(file, v, "file", JsonValue::Type::kString, where);
    const std::string& hash =
        need(file, v, "content_hash", JsonValue::Type::kString, where).string;
    if (hash.size() != 16 ||
        hash.find_first_not_of("0123456789abcdef") != std::string::npos)
      fail(file, where + ": content_hash is not 16 lowercase hex digits");
    for (const char* k : {"seed", "trace_version", "bytes", "instr_count",
                          "preempt_switches", "nd_events"})
      need(file, v, k, JsonValue::Type::kNumber, where);
  }
  if (!saw_header) fail(file, "empty manifest (no header line)");
}

// Collapsed-stack text: one "frame;frame;...;frame count" record per line,
// exactly what flamegraph.pl consumes. Not JSON -- validated textually.
void check_collapsed(const std::string& file, const std::string& text) {
  size_t lineno = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string where = "line " + std::to_string(lineno);
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 == line.size())
      fail(file, where + ": expected \"stack count\"");
    const std::string stack = line.substr(0, sp);
    const std::string count = line.substr(sp + 1);
    for (char c : count)
      if (c < '0' || c > '9')
        fail(file, where + ": count \"" + count + "\" is not an integer");
    if (stack.front() == ';' || stack.back() == ';' ||
        stack.find(";;") != std::string::npos)
      fail(file, where + ": empty frame in stack \"" + stack + "\"");
  }
  if (lineno == 0) fail(file, "empty collapsed-stack file");
}

// The analysis artifact kind named `name`, or nullptr.
const dejavu::obs::ArtifactKind* analysis_kind(const std::string& name) {
  for (const dejavu::obs::ArtifactKind& k : dejavu::obs::artifact_kinds())
    if (name == k.name) return &k;
  return nullptr;
}

std::string sniff_kind(const JsonValue& doc) {
  if (doc.is_object() && doc.find("traceEvents") != nullptr)
    return "timeline";
  const JsonValue* schema = doc.is_object() ? doc.find("schema") : nullptr;
  if (schema == nullptr) return "";
  if (schema->string == "dejavu-metrics-v1") return "metrics";
  if (schema->string == "dejavu-bench-v1") return "bench";
  if (const dejavu::obs::ArtifactKind* k =
          dejavu::obs::find_artifact_kind(schema->string))
    return k->name;
  if (schema->string == "dejavu-flight-v1") return "flight";
  if (schema->string == "dejavu-farm-report-v1") return "farm-report";
  // A schema header we do not know is a drift, not a skip: report it so
  // the caller fails loudly instead of rubber-stamping the artifact.
  return "unknown-schema:" + schema->string;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::string kinds = "metrics|timeline|bench";
    for (const dejavu::obs::ArtifactKind& k : dejavu::obs::artifact_kinds())
      kinds.append("|").append(k.name);
    std::fprintf(stderr,
                 "usage: obs_schema_check <%s|flight|collapsed|farm-report"
                 "|farm-manifest|auto> <file>...\n",
                 kinds.c_str());
    return 2;
  }
  std::string kind = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string file = argv[i];
    std::ifstream in(file);
    if (!in.good()) fail(file, "cannot open");
    std::stringstream buf;
    buf << in.rdbuf();
    if (kind == "collapsed") {
      check_collapsed(file, buf.str());
      std::printf("obs_schema_check: %s: ok (collapsed)\n", file.c_str());
      continue;
    }
    if (kind == "farm-manifest") {
      check_farm_manifest(file, buf.str());
      std::printf("obs_schema_check: %s: ok (farm-manifest)\n", file.c_str());
      continue;
    }
    JsonValue doc;
    try {
      doc = dejavu::obs::parse_json(buf.str());
    } catch (const VmError& e) {
      fail(file, e.what());
    }
    std::string k = kind == "auto" ? sniff_kind(doc) : kind;
    if (k == "metrics") {
      check_metrics(file, doc);
    } else if (k == "timeline") {
      check_timeline(file, doc);
    } else if (k == "bench") {
      check_bench(file, doc);
    } else if (k == "flight") {
      check_flight(file, doc);
    } else if (k == "farm-report") {
      check_farm_report(file, doc);
    } else if (const dejavu::obs::ArtifactKind* a = analysis_kind(k)) {
      check_analysis(file, doc, a->schema);
    } else if (k.rfind("unknown-schema:", 0) == 0) {
      fail(file, "unrecognized schema header \"" +
                     k.substr(sizeof("unknown-schema:") - 1) + "\"");
    } else {
      fail(file, "unrecognized artifact kind");
    }
    std::printf("obs_schema_check: %s: ok (%s)\n", file.c_str(), k.c_str());
  }
  return 0;
}
