// The farm report: one dejavu-farm-report-v1 JSON document per fleet run.
//
// Layout:
//   schema          "dejavu-farm-report-v1"
//   jobs-independent by construction: no wall-clock, no worker ids; the
//   scheduler's ordered fold means the same store produces byte-identical
//   reports for any --jobs value.
//   traces[]        per-trace verdict rows, in catalog order
//   totals{}        verdict counts + fleet instruction volume
//   merged_metrics  full dejavu-metrics-v1 document (embedded)
//   merged_<kind>   one per analysis artifact kind, in obs::artifact_kinds()
//                   order (profile, locks, heap, races, critpath,
//                   cachesim): the kind's merged document embedded whole,
//                   null if no run produced one
//   top_methods[]   fleet-wide hottest methods (top-N by instructions)
//   top_monitors[]  fleet-wide most contended monitors (top-N by blocks)
//
// The text rendering prints each embedded merged document with
// obs::render_artifact. It skips embedded merged_* artifacts whose schema
// it does not know with a one-line notice instead of failing, so a newer
// farm's report still renders on an older tool.
#pragma once

#include <cstdint>
#include <string>

#include "src/farm/scheduler.hpp"

namespace dejavu::farm {

inline constexpr const char* kFarmReportSchema = "dejavu-farm-report-v1";

// Renders the fleet result as dejavu-farm-report-v1 JSON.
std::string farm_report_json(const FarmRunResult& result, uint32_t top_n);

// Human-readable rendering of a dejavu-farm-report-v1 document (the
// `dejavu farm report` / `dejavu report` view). Throws VmError on
// malformed input.
std::string render_farm_report(const std::string& json);

}  // namespace dejavu::farm
