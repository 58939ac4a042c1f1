#include "src/farm/trace_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/check.hpp"
#include "src/common/hash.hpp"
#include "src/common/io.hpp"
#include "src/obs/json.hpp"
#include "src/replay/trace_io.hpp"

namespace dejavu::farm {

namespace {

std::string hash_hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
  return buf;
}

std::vector<uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw VmError("farm: cannot read " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

uint64_t entry_num(const obs::JsonValue& v, const char* k) {
  const obs::JsonValue* m = v.find(k);
  if (m == nullptr || !m->is_number())
    throw VmError(std::string("farm manifest: missing number '") + k + "'");
  return uint64_t(m->number);
}

// Fields added after v1 manifests shipped read back with a default, so an
// old store keeps loading (append-only compatibility).
uint64_t entry_num_or(const obs::JsonValue& v, const char* k, uint64_t dflt) {
  const obs::JsonValue* m = v.find(k);
  return m != nullptr && m->is_number() ? uint64_t(m->number) : dflt;
}

std::string entry_str(const obs::JsonValue& v, const char* k) {
  const obs::JsonValue* m = v.find(k);
  if (m == nullptr || !m->is_string())
    throw VmError(std::string("farm manifest: missing string '") + k + "'");
  return m->string;
}

}  // namespace

TraceStore::TraceStore(std::string root) : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
  for (int s = 0; s < kShardCount; ++s) load_manifest(s);
}

std::string TraceStore::shard_dir(int shard) const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "shard-%02d", shard);
  return root_ + "/" + buf;
}

void TraceStore::load_manifest(int shard) {
  std::string path = shard_dir(shard) + "/manifest.jsonl";
  std::ifstream in(path);
  if (!in) return;  // shard not populated yet
  std::string line;
  bool saw_header = false;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    lineno++;
    if (line.empty()) continue;
    obs::JsonValue v = obs::parse_json(line);
    if (!saw_header) {
      if (entry_str(v, "schema") != kManifestSchema)
        throw VmError("farm manifest " + path + ": bad schema header");
      saw_header = true;
      continue;
    }
    TraceRecord r;
    r.workload = entry_str(v, "workload");
    r.seed = entry_num(v, "seed");
    r.trace_version = uint32_t(entry_num(v, "trace_version"));
    r.content_hash = entry_str(v, "content_hash");
    r.bytes = entry_num(v, "bytes");
    r.file = entry_str(v, "file");
    r.instr_count = entry_num(v, "instr_count");
    r.preempt_switches = entry_num(v, "preempt_switches");
    r.nd_events = entry_num(v, "nd_events");
    r.flight = entry_num_or(v, "flight", 0) != 0;
    records_.push_back(std::move(r));
    (void)lineno;
  }
}

void TraceStore::append_entry(int shard, const TraceRecord& r) {
  std::string dir = shard_dir(shard);
  std::filesystem::create_directories(dir);
  std::string path = dir + "/manifest.jsonl";
  bool fresh = !std::filesystem::exists(path);
  std::ofstream out(path, std::ios::app);
  if (!out) throw VmError("farm: cannot append to " + path);
  if (fresh) {
    obs::JsonWriter h;
    h.begin_object()
        .kv("schema", kManifestSchema)
        .kv("shard", int64_t(shard))
        .end_object();
    out << h.str() << "\n";
  }
  obs::JsonWriter w;
  w.begin_object()
      .kv("workload", r.workload)
      .kv("seed", r.seed)
      .kv("trace_version", uint64_t(r.trace_version))
      .kv("content_hash", r.content_hash)
      .kv("bytes", r.bytes)
      .kv("file", r.file)
      .kv("instr_count", r.instr_count)
      .kv("preempt_switches", r.preempt_switches)
      .kv("nd_events", r.nd_events)
      .kv("flight", uint64_t(r.flight ? 1 : 0))
      .end_object();
  out << w.str() << "\n";
}

IngestResult TraceStore::ingest(const std::string& path,
                                const std::string& workload, uint64_t seed) {
  // CRC gate: nothing lands in the store unverified.
  replay::TraceVerifyReport vr = replay::verify_trace_file(path);
  if (!vr.ok)
    throw VmError("farm ingest rejected " + path + ": " + vr.error);

  std::vector<uint8_t> bytes = read_file_bytes(path);
  Fnv1a h;
  h.update(bytes.data(), bytes.size());
  std::string hash = hash_hex(h.digest());

  for (const TraceRecord& r : records_) {
    if (r.content_hash == hash) return IngestResult{true, r};
  }

  int shard = int(h.digest() % kShardCount);
  TraceRecord r;
  r.workload = workload;
  r.seed = seed;
  r.trace_version = vr.version;
  r.content_hash = hash;
  r.bytes = bytes.size();
  r.file = shard_dir(shard).substr(root_.size() + 1) + "/" + hash + ".djv";

  // Meta block: per-trace scale numbers for `farm ls` and the report.
  auto source = replay::open_trace_source(path);
  r.instr_count = source->meta().final_instr_count;
  r.preempt_switches = source->meta().preempt_switches;
  r.nd_events = source->meta().nd_events;
  r.flight = !source->flight_chunk().empty();

  std::filesystem::create_directories(shard_dir(shard));
  write_file(resolve(r), bytes);
  append_entry(shard, r);
  records_.push_back(r);
  return IngestResult{false, records_.back()};
}

std::vector<TraceRecord> TraceStore::list() const {
  std::vector<TraceRecord> out = records_;
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.workload != b.workload) return a.workload < b.workload;
              if (a.seed != b.seed) return a.seed < b.seed;
              return a.content_hash < b.content_hash;
            });
  return out;
}

}  // namespace dejavu::farm
