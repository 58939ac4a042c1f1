#include "src/farm/outcome_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/common/hash.hpp"
#include "src/obs/analysis/artifacts.hpp"
#include "src/obs/json.hpp"

namespace dejavu::farm {

namespace {

namespace fs = std::filesystem;

std::string hex16(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
  return buf;
}

// Strict reads: a cached value is used only when its key is present with
// its type, so a damaged entry is a miss, never a silently zeroed hit.
// Counts are non-negative integers below 2^64 and gauges integers in int64
// range, as JsonWriter wrote them (every persisted number is below 2^53,
// so double is lossless here).
bool get_count(const obs::JsonValue& v, uint64_t* out) {
  if (!v.is_number() || v.number < 0 || v.number >= 0x1p64 ||
      v.number != std::floor(v.number))
    return false;
  *out = uint64_t(v.number);
  return true;
}

bool get_count(const obs::JsonValue& obj, const char* k, uint64_t* out) {
  const obs::JsonValue* v = obj.find(k);
  return v != nullptr && get_count(*v, out);
}

bool get_int(const obs::JsonValue& obj, const char* k, int64_t* out) {
  const obs::JsonValue* v = obj.find(k);
  if (v == nullptr || !v->is_number() || v->number < -0x1p63 ||
      v->number >= 0x1p63 || v->number != std::floor(v->number))
    return false;
  *out = int64_t(v->number);
  return true;
}

bool get_counts(const obs::JsonValue& obj, const char* k,
                std::vector<uint64_t>* out) {
  const obs::JsonValue* v = obj.find(k);
  if (v == nullptr || !v->is_array()) return false;
  out->resize(v->items.size());
  for (size_t i = 0; i < v->items.size(); ++i)
    if (!get_count(v->items[i], &(*out)[i])) return false;
  return true;
}

bool get_str(const obs::JsonValue& obj, const std::string& k,
             std::string* out) {
  const obs::JsonValue* v = obj.find(k);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->string;
  return true;
}

void write_metrics(obs::JsonWriter& w, const obs::MetricsSnapshot& m) {
  w.key("metrics").begin_array();
  for (const obs::MetricSample& s : m.samples) {
    w.begin_object()
        .kv("name", s.name)
        .kv("kind", obs::metric_kind_name(s.kind));
    switch (s.kind) {
      case obs::MetricKind::kCounter: w.kv("value", s.value); break;
      case obs::MetricKind::kGauge: w.kv("gauge", s.gauge); break;
      case obs::MetricKind::kHistogram: {
        w.kv("count", s.count).kv("sum", s.sum);
        w.key("bounds").begin_array();
        for (uint64_t b : s.bounds) w.value(b);
        w.end_array();
        w.key("buckets").begin_array();
        for (uint64_t b : s.buckets) w.value(b);
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
}

bool read_metrics(const obs::JsonValue& doc, obs::MetricsSnapshot* out) {
  const obs::JsonValue* arr = doc.find("metrics");
  if (arr == nullptr || !arr->is_array()) return false;
  for (const obs::JsonValue& s : arr->items) {
    obs::MetricSample m;
    std::string kind;
    if (!s.is_object() || !get_str(s, "name", &m.name) ||
        !get_str(s, "kind", &kind))
      return false;
    bool ok = false;
    if (kind == "counter") {
      m.kind = obs::MetricKind::kCounter;
      ok = get_count(s, "value", &m.value);
    } else if (kind == "gauge") {
      m.kind = obs::MetricKind::kGauge;
      ok = get_int(s, "gauge", &m.gauge);
    } else if (kind == "histogram") {
      m.kind = obs::MetricKind::kHistogram;
      ok = get_count(s, "count", &m.count) && get_count(s, "sum", &m.sum) &&
           get_counts(s, "bounds", &m.bounds) &&
           get_counts(s, "buckets", &m.buckets);
    }
    if (!ok) return false;
    out->samples.push_back(std::move(m));
  }
  return true;
}

}  // namespace

uint64_t outcome_config_hash(const FarmOptions& opts) {
  Fnv1a h;
  // Format version first: bumping it orphans (not corrupts) old entries.
  h.update_str("farm-cache-v1");
  h.update_u32(opts.top_n);
  // The scheduler's fixed analyzer set, spelled out so turning one off in
  // a future FarmOptions knob re-keys the cache.
  std::string analyzers;
  for (const obs::ArtifactKind& k : obs::artifact_kinds())
    analyzers.append(analyzers.empty() ? "" : ",").append(k.name);
  h.update_str(analyzers + ";strict=0");
  return h.digest();
}

namespace {

// Entries are <content_hash>-<16 hex config hash>.json; anything else
// (in-flight .tmp files, strays) is not a cache entry. Returns the 16-hex
// config suffix, or empty if `name` isn't entry-shaped.
std::string entry_config_suffix(const std::string& name) {
  const std::string ext = ".json";
  if (name.size() < ext.size() + 17 ||
      name.compare(name.size() - ext.size(), ext.size(), ext) != 0)
    return {};
  size_t hash_at = name.size() - ext.size() - 16;
  if (name[hash_at - 1] != '-') return {};
  std::string suffix = name.substr(hash_at, 16);
  if (suffix.find_first_not_of("0123456789abcdef") != std::string::npos)
    return {};
  return suffix;
}

// Walks <store_root>/cache classifying entries by their config-hash
// filename suffix; optionally deletes the stale ones.
CacheScan walk_cache(const std::string& store_root, uint64_t config_hash,
                     bool remove_stale) {
  CacheScan scan;
  std::string want = hex16(config_hash);
  std::error_code ec;
  fs::directory_iterator it(store_root + "/cache", ec);
  if (ec) return scan;  // no cache directory yet
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string suffix = entry_config_suffix(entry.path().filename().string());
    if (suffix.empty()) continue;
    if (suffix == want) {
      scan.current++;
    } else {
      scan.stale++;
      if (remove_stale) fs::remove(entry.path(), ec);
    }
  }
  return scan;
}

}  // namespace

CacheScan scan_outcome_cache(const std::string& store_root,
                             uint64_t config_hash) {
  return walk_cache(store_root, config_hash, false);
}

CacheScan gc_outcome_cache(const std::string& store_root,
                           uint64_t config_hash) {
  return walk_cache(store_root, config_hash, true);
}

CacheLruResult lru_gc_outcome_cache(const std::string& store_root,
                                    uint64_t config_hash,
                                    uint64_t max_entries,
                                    uint64_t max_bytes) {
  CacheLruResult result;
  std::string want = hex16(config_hash);
  std::error_code ec;
  fs::directory_iterator it(store_root + "/cache", ec);
  if (ec) return result;  // no cache directory yet

  struct Candidate {
    fs::file_time_type mtime;
    uint64_t bytes;
    fs::path path;
    std::string name;  // mtime tie-break, so eviction order is stable
  };
  std::vector<Candidate> entries;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (entry_config_suffix(name) != want) continue;
    Candidate c;
    c.mtime = fs::last_write_time(entry.path(), ec);
    if (ec) continue;
    c.bytes = entry.file_size(ec);
    if (ec) continue;
    c.path = entry.path();
    c.name = std::move(name);
    entries.push_back(std::move(c));
  }
  // Newest first: the keep set is a prefix, the evict set a suffix.
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime > b.mtime;
              return a.name < b.name;
            });
  for (const Candidate& c : entries) {
    bool over_entries = max_entries != 0 && result.kept >= max_entries;
    bool over_bytes = max_bytes != 0 && result.kept_bytes + c.bytes > max_bytes;
    if (over_entries || over_bytes) {
      result.evicted++;
      result.evicted_bytes += c.bytes;
      fs::remove(c.path, ec);
    } else {
      result.kept++;
      result.kept_bytes += c.bytes;
    }
  }
  return result;
}

OutcomeCache::OutcomeCache(std::string store_root, uint64_t config_hash)
    : dir_(std::move(store_root) + "/cache"), config_hash_(config_hash) {}

std::string OutcomeCache::entry_path(const TraceRecord& record) const {
  return dir_ + "/" + record.content_hash + "-" + hex16(config_hash_) +
         ".json";
}

std::optional<TraceOutcome> OutcomeCache::load(
    const TraceRecord& record, uint64_t program_fingerprint) const {
  std::ifstream in(entry_path(record), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(buf.str());
  } catch (const VmError&) {
    return std::nullopt;  // damaged entry == miss; the farm replays
  }
  std::string schema, fingerprint;
  if (!doc.is_object() || !get_str(doc, "schema", &schema) ||
      schema != kFarmCacheSchema)
    return std::nullopt;
  if (!get_str(doc, "program_fingerprint", &fingerprint) ||
      fingerprint != hex16(program_fingerprint))
    return std::nullopt;  // the workload changed since this was cached

  // Every key save() writes must be there with its type; a damaged entry
  // is a miss.
  TraceOutcome out;
  out.record = record;
  if (!get_str(doc, "verdict", &out.verdict) || out.verdict.empty() ||
      out.verdict == "error" || !get_count(doc, "violations", &out.violations) ||
      !get_str(doc, "first_violation", &out.first_violation) ||
      !read_metrics(doc, &out.metrics) ||
      !get_str(doc, "profile_collapsed", &out.analysis.profile_collapsed))
    return std::nullopt;
  for (const obs::ArtifactKind& k : obs::artifact_kinds()) {
    std::string& artifact = out.analysis.*k.result;
    if (!get_str(doc, std::string(k.name) + "_json", &artifact))
      return std::nullopt;
    if (artifact.empty()) continue;
    // An artifact the fold would reject is a damaged entry too.
    try {
      obs::check_artifact(obs::parse_json(artifact), k.schema);
    } catch (const VmError&) {
      return std::nullopt;
    }
  }
  out.cached = true;
  // A hit refreshes the entry's mtime so LRU eviction (gc --max-entries /
  // --max-bytes) keeps the entries the fleet actually reuses.
  std::error_code ec;
  fs::last_write_time(entry_path(record), fs::file_time_type::clock::now(),
                      ec);
  return out;
}

void OutcomeCache::save(const TraceRecord& record,
                        const TraceOutcome& outcome,
                        uint64_t program_fingerprint) const {
  obs::JsonWriter w;
  w.begin_object()
      .kv("schema", kFarmCacheSchema)
      .kv("content_hash", record.content_hash)
      .kv("config_hash", hex16(config_hash_))
      .kv("program_fingerprint", hex16(program_fingerprint))
      .kv("verdict", outcome.verdict)
      .kv("violations", outcome.violations)
      .kv("first_violation", outcome.first_violation);
  write_metrics(w, outcome.metrics);
  w.kv("profile_collapsed", outcome.analysis.profile_collapsed);
  for (const obs::ArtifactKind& k : obs::artifact_kinds())
    w.kv(std::string(k.name) + "_json", outcome.analysis.*k.result);
  w.end_object();

  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Temp-then-rename: readers only ever see whole entries.
  std::string path = entry_path(record);
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return;  // cache is best-effort; never fail the run
    out << w.str();
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace dejavu::farm
