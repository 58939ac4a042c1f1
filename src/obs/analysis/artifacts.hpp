// The analysis artifact kinds: one table row per kind.
//
// Each replay-time analyzer emits one JSON document kind,
// dejavu-{profile,locks,heap,races,critpath,cachesim}-v1. Every consumer
// that handles those documents kind by kind -- `dejavu analyze`, `analyze
// --diff` and `dejavu report`, the farm's fold, report and outcome cache,
// and tools/obs_schema_check -- loops over artifact_kinds() rather than
// naming the kinds. A row holds the kind's names, where its documents live
// on ReplayResult and FarmRunResult, and the operations on them:
//
//   check    the kind's keys; check_artifact() adds the shared header and
//            throws VmError naming the JSON path of the first violation
//            (`methods[3].hot_pcs[0]: missing key "op"`)
//   merger   folds per-run and merged documents into one (merge.hpp)
//   render   the text `dejavu report` prints, and the farm report per kind
//   diff     the `analyze --diff` scalars and keyed series
//
// Adding a kind takes its analyzer, a merger, a check and a render function
// (artifacts.cpp), and one row.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.hpp"

namespace dejavu::obs {

struct JsonValue;
class ArtifactMerger;

// Rendered artifacts of the built-in analyzers, carried on ReplayResult.
// Empty strings mean the corresponding analyzer was not enabled.
struct AnalysisResults {
  std::string profile_json;       // dejavu-profile-v1
  std::string profile_collapsed;  // Brendan Gregg collapsed-stack text
  std::string locks_json;         // dejavu-locks-v1
  std::string heap_json;          // dejavu-heap-v1
  std::string races_json;         // dejavu-races-v1
  std::string critpath_json;      // dejavu-critpath-v1
  std::string cachesim_json;      // dejavu-cachesim-v1

  // True when any analyzer produced its document.
  bool any() const;
};

// The fleet-merged document of each kind, "" when no run produced one;
// farm::FarmRunResult carries them.
struct MergedArtifacts {
  std::string merged_profile;
  std::string merged_locks;
  std::string merged_heap;
  std::string merged_races;
  std::string merged_critpath;
  std::string merged_cachesim;
};

// One keyed series of an `analyze --diff` table: `value` summed per `key`
// over the entries of the `list` array.
struct DiffSeries {
  const char* title;
  const char* list;
  const char* key;
  const char* value;
};

struct ArtifactKind {
  const char* name;    // obs_schema_check kind; "<name>_json" cache key
  const char* schema;  // the document's "schema" header
  const char* file;    // `dejavu analyze --out-dir` file name
  bool ObsConfig::*enable;               // switches the analyzer on
  std::string AnalysisResults::*result;  // one replay's document
  std::string MergedArtifacts::*merged;  // the fleet's; "merged_<name>" key
  bool opt_in;  // `dejavu analyze` runs it only when asked (--races)
  std::unique_ptr<ArtifactMerger> (*make_merger)();
  void (*check)(const JsonValue& doc);
  void (*render)(const JsonValue& doc, std::string* out);
  std::vector<const char*> diff_scalars;  // top-level counters
  std::vector<DiffSeries> diff_series;
};

// Every kind, in the farm report's order.
std::span<const ArtifactKind> artifact_kinds();

// The kind whose documents carry `schema`, or nullptr.
const ArtifactKind* find_artifact_kind(std::string_view schema);

// Checks a document against its kind's schema, strictly: every key the
// mergers and renderers read must be present with its type, and counts
// must be non-negative integers. When `schema` is given the document must
// be of that kind. Throws VmError naming the JSON path ("top" for the
// document itself) of the first violation, or naming an unknown schema.
void check_artifact(const JsonValue& doc, std::string_view schema = {});

// The `dejavu report` text of a document of any kind; checks it first.
std::string render_artifact(const JsonValue& doc);

}  // namespace dejavu::obs
