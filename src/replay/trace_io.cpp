#include "src/replay/trace_io.hpp"

#include <cinttypes>
#include <cstring>
#include <sstream>

#include "src/common/check.hpp"
#include "src/common/hash.hpp"
#include "src/obs/json.hpp"

namespace dejavu::replay {

const char* stream_name(StreamId id) {
  switch (id) {
    case StreamId::kMeta: return "meta";
    case StreamId::kSchedule: return "schedule";
    case StreamId::kEvents: return "events";
    case StreamId::kSeal: return "seal";
    case StreamId::kOrder: return "order";
    case StreamId::kFlight: return "flight";
  }
  return "?";
}

uint8_t wire_stream_id(StreamId id, LaneId lane) {
  if (lane == 0) return uint8_t(id);
  DV_CHECK_MSG(id == StreamId::kSchedule || id == StreamId::kEvents,
               "only data streams are per-lane");
  DV_CHECK_MSG(lane < kMaxLanes, "lane " << lane << " out of range");
  uint32_t wire = uint32_t(kLaneStreamBase) + 2 * (lane - 1) +
                  (id == StreamId::kEvents ? 1 : 0);
  return uint8_t(wire);
}

bool parse_wire_stream_id(uint8_t wire, StreamId* id, LaneId* lane) {
  if (wire <= uint8_t(StreamId::kFlight)) {
    *id = StreamId(wire);
    *lane = 0;
    return true;
  }
  if (wire < kLaneStreamBase) return false;  // 6..7 reserved
  LaneId l = LaneId((wire - kLaneStreamBase) / 2) + 1;
  if (l >= kMaxLanes) return false;
  *id = ((wire - kLaneStreamBase) % 2 == 0) ? StreamId::kSchedule
                                            : StreamId::kEvents;
  *lane = l;
  return true;
}

uint32_t chunk_crc(uint8_t wire_id, const uint8_t* payload, size_t n) {
  Crc32 c;
  c.update_u8(wire_id);
  c.update_u32le(uint32_t(n));
  c.update(payload, n);
  return c.digest();
}

// ------------------------------------------------------ flight descriptor

std::vector<uint8_t> FlightInfo::encode() const {
  ByteWriter w;
  w.put_string(kFlightSchema);
  w.put_u8(has_checkpoint ? 1 : 0);
  w.put_uvarint(window_epochs);
  w.put_uvarint(epoch_preempts);
  w.put_uvarint(epochs_retained);
  w.put_uvarint(epochs_retired);
  w.put_uvarint(bytes_retired);
  w.put_string(seal_reason);
  w.put_uvarint(checkpoint_clock);
  w.put_uvarint(checkpoint_instr);
  w.put_uvarint(checkpoint.size());
  w.put_bytes(checkpoint.data(), checkpoint.size());
  return w.take();
}

FlightInfo FlightInfo::decode(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  FlightInfo info;
  std::string schema = r.get_string();
  DV_CHECK_MSG(schema == kFlightSchema,
               "unknown flight descriptor schema '" << schema << "'");
  info.has_checkpoint = r.get_u8() != 0;
  info.window_epochs = uint32_t(r.get_uvarint());
  info.epoch_preempts = uint32_t(r.get_uvarint());
  info.epochs_retained = r.get_uvarint();
  info.epochs_retired = r.get_uvarint();
  info.bytes_retired = r.get_uvarint();
  info.seal_reason = r.get_string();
  info.checkpoint_clock = r.get_uvarint();
  info.checkpoint_instr = r.get_uvarint();
  uint64_t n = r.get_uvarint();
  DV_CHECK_MSG(n <= r.remaining(),
               "flight descriptor checkpoint length " << n << " at offset "
                   << r.position() << " exceeds the " << r.remaining()
                   << " byte(s) left");
  info.checkpoint.resize(size_t(n));
  r.get_bytes(info.checkpoint.data(), size_t(n));
  DV_CHECK_MSG(r.at_end(), "trailing bytes in flight descriptor");
  DV_CHECK_MSG(info.has_checkpoint == !info.checkpoint.empty(),
               "flight descriptor checkpoint flag disagrees with payload");
  return info;
}

std::string FlightInfo::describe() const {
  std::ostringstream os;
  os << "flight tail: window " << window_epochs << " epoch(s) x "
     << epoch_preempts << " preempt(s), retained " << epochs_retained
     << ", retired " << epochs_retired << " (" << bytes_retired
     << " bytes), seal reason \"" << seal_reason << "\", ";
  if (has_checkpoint) {
    os << "resume checkpoint at clock " << checkpoint_clock << " / instr "
       << checkpoint_instr << " (" << checkpoint.size() << " bytes)";
  } else {
    os << "no checkpoint (run shorter than one epoch; tail is the full "
          "trace)";
  }
  return os.str();
}

std::string FlightInfo::describe_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"" << kFlightSchema << "\""
     << ",\"has_checkpoint\":" << (has_checkpoint ? "true" : "false")
     << ",\"window_epochs\":" << window_epochs
     << ",\"epoch_preempts\":" << epoch_preempts
     << ",\"epochs_retained\":" << epochs_retained
     << ",\"epochs_retired\":" << epochs_retired
     << ",\"bytes_retired\":" << bytes_retired << ",\"seal_reason\":\""
     << obs::json_escape(seal_reason)
     << "\",\"checkpoint_clock\":" << checkpoint_clock
     << ",\"checkpoint_instr\":" << checkpoint_instr
     << ",\"checkpoint_bytes\":" << checkpoint.size() << "}";
  return os.str();
}

namespace {

void frame_chunk(ByteWriter& w, uint8_t wire_id, const uint8_t* payload,
                 size_t n) {
  DV_CHECK_MSG(n <= UINT32_MAX, "trace chunk payload too large");
  w.put_u8(wire_id);
  w.put_u32_fixed(uint32_t(n));
  w.put_bytes(payload, n);
  w.put_u32_fixed(chunk_crc(wire_id, payload, n));
}

std::vector<uint8_t> seal_payload_v4(uint64_t sched_bytes,
                                     uint64_t events_bytes,
                                     uint32_t sched_chunks,
                                     uint32_t events_chunks) {
  ByteWriter w;
  w.put_u64_fixed(sched_bytes);
  w.put_u64_fixed(events_bytes);
  w.put_u32_fixed(sched_chunks);
  w.put_u32_fixed(events_chunks);
  return w.take();
}

// v5 seal payload, all uvarints:
//   lane_count | order_bytes | order_chunks |
//   lane_count x (sched_bytes, events_bytes, sched_chunks, events_chunks)
struct SealTotalsV5 {
  uint32_t lanes = 0;
  uint64_t order_bytes = 0;
  uint32_t order_chunks = 0;
  std::vector<uint64_t> sched_bytes, events_bytes;
  std::vector<uint32_t> sched_chunks, events_chunks;
};

bool parse_seal_v5(const uint8_t* p, size_t n, SealTotalsV5* out) {
  try {
    ByteReader r(p, n);
    out->lanes = uint32_t(r.get_uvarint());
    if (out->lanes < 1 || out->lanes > kMaxLanes) return false;
    out->order_bytes = r.get_uvarint();
    out->order_chunks = uint32_t(r.get_uvarint());
    out->sched_bytes.resize(out->lanes);
    out->events_bytes.resize(out->lanes);
    out->sched_chunks.resize(out->lanes);
    out->events_chunks.resize(out->lanes);
    for (uint32_t k = 0; k < out->lanes; ++k) {
      out->sched_bytes[k] = r.get_uvarint();
      out->events_bytes[k] = r.get_uvarint();
      out->sched_chunks[k] = uint32_t(r.get_uvarint());
      out->events_chunks[k] = uint32_t(r.get_uvarint());
    }
    return r.at_end();
  } catch (const VmError&) {
    return false;
  }
}

}  // namespace

// ---------------------------------------------------------------- writing

VectorTraceSink::VectorTraceSink(uint32_t version) : version_(version) {
  w_.put_u32_fixed(kTraceMagic);
  w_.put_u32_fixed(version);
}

void VectorTraceSink::write_chunk(StreamId id, const uint8_t* payload,
                                  size_t n, LaneId lane) {
  frame_chunk(w_, wire_stream_id(id, lane), payload, n);
}

FileTraceSink::FileTraceSink(const std::string& path, uint32_t version)
    : path_(path), version_(version) {
  f_ = open_for_replace(path);
  DV_CHECK_MSG(f_ != nullptr, "cannot open trace for write: " << path);
  ByteWriter w;
  w.put_u32_fixed(kTraceMagic);
  w.put_u32_fixed(version);
  size_t n = std::fwrite(w.bytes().data(), 1, w.size(), f_);
  DV_CHECK_MSG(n == w.size(), "short write: " << path);
}

FileTraceSink::~FileTraceSink() {
  if (f_ != nullptr) std::fclose(f_);
}

void FileTraceSink::write_chunk(StreamId id, const uint8_t* payload, size_t n,
                                LaneId lane) {
  ByteWriter w;
  frame_chunk(w, wire_stream_id(id, lane), payload, n);
  size_t written = std::fwrite(w.bytes().data(), 1, w.size(), f_);
  DV_CHECK_MSG(written == w.size(), "short write: " << path_);
}

void FileTraceSink::flush() {
  if (f_ != nullptr) std::fflush(f_);
}

TraceWriter::TraceWriter(std::unique_ptr<TraceSink> sink, size_t chunk_bytes)
    : sink_(std::move(sink)),
      chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {
  DV_CHECK_MSG(sink_ != nullptr, "TraceWriter needs a sink");
  version_ = sink_->version();
  DV_CHECK_MSG(version_ >= kTraceVersion && version_ <= kTraceVersionPredicted,
               "TraceWriter cannot write container version " << version_);
}

TraceWriter::~TraceWriter() = default;

TraceWriter::StreamBuf& TraceWriter::buf(StreamId id, LaneId lane) {
  if (id == StreamId::kOrder) {
    DV_CHECK_MSG(version_ >= kTraceVersionMulti && lane == 0,
                 "order stream requires a v5 or v6 writer");
    return order_;
  }
  DV_CHECK_MSG(id == StreamId::kSchedule || id == StreamId::kEvents,
               "only data streams are appendable");
  DV_CHECK_MSG(lane == 0 || version_ >= kTraceVersionMulti,
               "lane streams require a v5 or v6 writer");
  DV_CHECK_MSG(lane < kMaxLanes, "lane " << lane << " out of range");
  auto& v = id == StreamId::kSchedule ? sched_ : events_;
  if (lane >= v.size()) v.resize(lane + 1);
  return v[lane];
}

void TraceWriter::emit(StreamId id, LaneId lane) {
  StreamBuf& b = buf(id, lane);
  if (b.buf.size() == 0) return;
  sink_->write_chunk(id, b.buf.bytes().data(), b.buf.size(), lane);
  b.chunks++;
  if (observer_) observer_(id, b.buf.size());
  b.buf.clear();
}

void TraceWriter::emit_all() {
  size_t lanes = std::max(sched_.size(), events_.size());
  for (size_t k = 0; k < lanes; ++k) {
    if (k < sched_.size()) emit(StreamId::kSchedule, LaneId(k));
    if (k < events_.size()) emit(StreamId::kEvents, LaneId(k));
  }
  if (version_ >= kTraceVersionMulti) emit(StreamId::kOrder, 0);
}

void TraceWriter::append(StreamId id, const uint8_t* data, size_t n,
                         LaneId lane) {
  DV_CHECK_MSG(!finished_, "append after finish");
  StreamBuf& b = buf(id, lane);
  // Entry alignment: never split one logical record across chunks.
  if (b.buf.size() != 0 && b.buf.size() + n > chunk_bytes_) emit(id, lane);
  b.buf.put_bytes(data, n);
  b.bytes += n;
  if (b.buf.size() >= chunk_bytes_) emit(id, lane);
}

void TraceWriter::flush() {
  if (finished_) return;
  emit_all();
  sink_->flush();
}

void TraceWriter::finish(const TraceMeta& meta) {
  if (finished_) return;
  emit_all();
  ByteWriter mw;
  write_meta_payload_ex(mw, meta, version_);
  sink_->write_chunk(StreamId::kMeta, mw.bytes().data(), mw.size(), 0);
  std::vector<uint8_t> seal;
  if (version_ >= kTraceVersionMulti) {
    uint32_t lanes = meta.lane_count == 0 ? 1 : meta.lane_count;
    uint32_t touched =
        uint32_t(std::max(sched_.size(), events_.size()));
    DV_CHECK_MSG(lanes >= touched,
                 "meta lane count " << lanes << " below lanes written ("
                                    << touched << ")");
    ByteWriter sw;
    sw.put_uvarint(lanes);
    sw.put_uvarint(order_.bytes);
    sw.put_uvarint(order_.chunks);
    for (uint32_t k = 0; k < lanes; ++k) {
      sw.put_uvarint(k < sched_.size() ? sched_[k].bytes : 0);
      sw.put_uvarint(k < events_.size() ? events_[k].bytes : 0);
      sw.put_uvarint(k < sched_.size() ? sched_[k].chunks : 0);
      sw.put_uvarint(k < events_.size() ? events_[k].chunks : 0);
    }
    seal = sw.take();
  } else {
    seal = seal_payload_v4(
        sched_.empty() ? 0 : sched_[0].bytes,
        events_.empty() ? 0 : events_[0].bytes,
        sched_.empty() ? 0 : sched_[0].chunks,
        events_.empty() ? 0 : events_[0].chunks);
  }
  sink_->write_chunk(StreamId::kSeal, seal.data(), seal.size(), 0);
  sink_->flush();
  finished_ = true;
}

uint64_t TraceWriter::stream_bytes(StreamId id, LaneId lane) const {
  if (id == StreamId::kOrder) return order_.bytes;
  const auto& v = id == StreamId::kSchedule ? sched_ : events_;
  return lane < v.size() ? v[lane].bytes : 0;
}

size_t TraceWriter::buffered_bytes() const {
  size_t n = order_.buf.size();
  for (const auto& b : sched_) n += b.buf.size();
  for (const auto& b : events_) n += b.buf.size();
  return n;
}

// ---------------------------------------------------------------- reading

const StreamIndex* ContainerIndex::find(StreamId id, LaneId lane) const {
  if (id == StreamId::kOrder) return lane == 0 ? &order : nullptr;
  if (id != StreamId::kSchedule && id != StreamId::kEvents) return nullptr;
  const auto& v = id == StreamId::kSchedule ? schedule : events;
  return lane < v.size() ? &v[lane] : nullptr;
}

namespace {

// The one walk over a chunked (v4-v6) container. Every reader goes through
// it -- FileTraceSource, verify_trace_file and TraceFile::deserialize --
// so the container's structural rules live here and nowhere else: header
// and version, known stream ids, per-chunk CRC, a single meta and flight
// chunk, nothing after the seal, v4/v5-layout seal totals, and the meta lane
// count against the lanes present.
struct ScanOutcome {
  bool ok = false;
  std::string error;      // first located problem
  bool sealed = false;
  bool meta_seen = false;
  TraceMeta meta;
  ContainerIndex index;
  bool flight_seen = false;
  size_t valid_chunks = 0;  // data chunks whose CRC verified
};

StreamIndex& lane_slot(std::vector<StreamIndex>& v, LaneId lane) {
  if (lane >= v.size()) v.resize(lane + 1);
  return v[lane];
}

StreamInfo info_of(const StreamIndex* s) {
  return s == nullptr ? StreamInfo{} : StreamInfo{s->bytes, s->chunks.size()};
}

// Payloads are read in pieces of at most this many bytes, so a hostile
// length field costs an allocation bounded by the bytes actually present.
constexpr size_t kPayloadReadStep = 1 << 20;

// `read(dst, n)` copies up to n bytes from the container's current
// position and returns how many it copied: fread over a FILE* for the
// streaming readers (O(chunk) memory), a cursor over a whole-file span for
// TraceFile::deserialize.
template <typename Read>
ScanOutcome scan_chunks(Read&& read) {
  ScanOutcome out;
  ContainerIndex& idx = out.index;
  std::ostringstream err;
  auto fail = [&](const std::string& what) {
    out.error = what;
    return out;
  };

  uint8_t header[8];
  if (read(header, 8) != 8) return fail("file shorter than the trace header");
  ByteReader hr(header, 8);
  if (hr.get_u32_fixed() != kTraceMagic) return fail("not a DejaVu trace (bad magic)");
  idx.version = hr.get_u32_fixed();
  if (idx.version < kTraceVersion || idx.version > kTraceVersionPredicted) {
    err << "trace version " << idx.version << " is not v4, v5 or v6";
    return fail(err.str());
  }

  uint64_t offset = 8;
  std::vector<uint8_t> payload;
  for (;;) {
    uint8_t chead[kChunkHeaderBytes];
    size_t got = read(chead, kChunkHeaderBytes);
    if (got == 0) break;  // clean end of chunk sequence
    if (got != kChunkHeaderBytes) {
      err << "truncated chunk header at offset " << offset;
      return fail(err.str());
    }
    ByteReader cr(chead, kChunkHeaderBytes);
    uint8_t raw_id = cr.get_u8();
    uint32_t len = cr.get_u32_fixed();
    StreamId id = StreamId::kMeta;
    LaneId lane = 0;
    bool known = idx.version == kTraceVersion
                     ? raw_id <= uint8_t(StreamId::kFlight) &&
                           (id = StreamId(raw_id), lane = 0, true)
                     : parse_wire_stream_id(raw_id, &id, &lane);
    if (!known) {
      err << "unknown stream id " << int(raw_id) << " at offset " << offset;
      return fail(err.str());
    }
    if (out.sealed) {
      err << "data after the seal chunk at offset " << offset;
      return fail(err.str());
    }
    payload.clear();
    while (payload.size() < len) {
      size_t have = payload.size();
      size_t step = std::min<size_t>(len - have, kPayloadReadStep);
      payload.resize(have + step);
      if (read(payload.data() + have, step) != step) {
        err << "truncated " << stream_name(id) << " chunk payload at offset "
            << offset;
        return fail(err.str());
      }
    }
    uint8_t crc_buf[kChunkTrailerBytes];
    if (read(crc_buf, kChunkTrailerBytes) != kChunkTrailerBytes) {
      err << "truncated " << stream_name(id) << " chunk checksum at offset "
          << offset;
      return fail(err.str());
    }
    ByteReader crcr(crc_buf, kChunkTrailerBytes);
    uint32_t want = crcr.get_u32_fixed();
    uint32_t have = chunk_crc(raw_id, payload.data(), len);
    if (want != have) {
      err << "CRC mismatch in " << stream_name(id) << " chunk at offset "
          << offset << " (stored " << std::hex << want << ", computed " << have
          << std::dec << ")";
      return fail(err.str());
    }

    uint64_t payload_offset = offset + kChunkHeaderBytes;
    switch (id) {
      case StreamId::kSchedule: {
        StreamIndex& lc = lane_slot(idx.schedule, lane);
        lc.chunks.push_back({payload_offset, len});
        lc.bytes += len;
        out.valid_chunks++;
        break;
      }
      case StreamId::kEvents: {
        StreamIndex& lc = lane_slot(idx.events, lane);
        lc.chunks.push_back({payload_offset, len});
        lc.bytes += len;
        out.valid_chunks++;
        break;
      }
      case StreamId::kOrder:
        idx.order.chunks.push_back({payload_offset, len});
        idx.order.bytes += len;
        out.valid_chunks++;
        break;
      case StreamId::kFlight:
        // Tail descriptor: at most one, never counted in the seal totals
        // (the seal accounts for the data streams only).
        if (out.flight_seen) {
          err << "duplicate flight chunk at offset " << offset;
          return fail(err.str());
        }
        idx.flight = payload;
        out.flight_seen = true;
        break;
      case StreamId::kMeta: {
        if (out.meta_seen) {
          err << "duplicate meta chunk at offset " << offset;
          return fail(err.str());
        }
        try {
          ByteReader mr(payload.data(), len);
          out.meta = read_meta_payload_ex(mr, idx.version);
          DV_CHECK_MSG(mr.at_end(), "trailing bytes");
        } catch (const VmError&) {
          err << "malformed meta chunk at offset " << offset;
          return fail(err.str());
        }
        out.meta_seen = true;
        break;
      }
      case StreamId::kSeal: {
        if (idx.version == kTraceVersion) {
          if (len != 24) {
            err << "malformed seal chunk at offset " << offset;
            return fail(err.str());
          }
          ByteReader sr(payload.data(), len);
          uint64_t want_sched = sr.get_u64_fixed();
          uint64_t want_events = sr.get_u64_fixed();
          uint32_t want_schunks = sr.get_u32_fixed();
          uint32_t want_echunks = sr.get_u32_fixed();
          StreamInfo s = info_of(idx.find(StreamId::kSchedule, 0));
          StreamInfo e = info_of(idx.find(StreamId::kEvents, 0));
          if (want_sched != s.bytes || want_events != e.bytes ||
              want_schunks != s.chunks || want_echunks != e.chunks) {
            err << "seal totals disagree with the chunks present (seal says "
                << want_sched << "+" << want_events << " bytes in "
                << want_schunks << "+" << want_echunks << " chunks; file has "
                << s.bytes << "+" << e.bytes << " bytes in " << s.chunks
                << "+" << e.chunks << " chunks)";
            return fail(err.str());
          }
        } else {
          SealTotalsV5 st;
          if (!parse_seal_v5(payload.data(), len, &st)) {
            err << "malformed seal chunk at offset " << offset;
            return fail(err.str());
          }
          size_t touched = std::max(idx.schedule.size(), idx.events.size());
          if (st.lanes < touched) {
            err << "seal lane count " << st.lanes
                << " below lanes present in the file (" << touched << ")";
            return fail(err.str());
          }
          if (st.order_bytes != idx.order.bytes ||
              st.order_chunks != idx.order.chunks.size()) {
            err << "seal totals disagree with the order chunks present";
            return fail(err.str());
          }
          for (uint32_t k = 0; k < st.lanes; ++k) {
            StreamInfo s = info_of(idx.find(StreamId::kSchedule, k));
            StreamInfo e = info_of(idx.find(StreamId::kEvents, k));
            if (st.sched_bytes[k] != s.bytes || st.events_bytes[k] != e.bytes ||
                st.sched_chunks[k] != s.chunks ||
                st.events_chunks[k] != e.chunks) {
              err << "seal totals disagree with the chunks present in lane "
                  << k;
              return fail(err.str());
            }
          }
          // Pad lane indexes so every lane the seal promises is queryable.
          lane_slot(idx.schedule, st.lanes - 1);
          lane_slot(idx.events, st.lanes - 1);
        }
        out.sealed = true;
        break;
      }
    }
    offset = payload_offset + len + kChunkTrailerBytes;
  }

  if (!out.sealed) {
    err << "trace is not sealed (recorder did not finish); "
        << out.valid_chunks << " verified data chunk(s) salvageable";
    return fail(err.str());
  }
  if (!out.meta_seen) return fail("sealed trace has no meta chunk");
  if (idx.version >= kTraceVersionMulti &&
      out.meta.lane_count <
          std::max(idx.schedule.size(), idx.events.size())) {
    err << "meta lane count " << out.meta.lane_count
        << " disagrees with the lanes present in the file";
    return fail(err.str());
  }
  out.ok = true;
  return out;
}

ScanOutcome scan_chunked_file(std::FILE* f) {
  return scan_chunks([f](uint8_t* dst, size_t n) {
    return std::fread(dst, 1, n, f);
  });
}

// True when `header` (8 bytes) opens the unframed v3 layout, which has no
// chunks to walk.
bool is_legacy_header(const uint8_t* header) {
  ByteReader hr(header, 8);
  return hr.get_u32_fixed() == kTraceMagic &&
         hr.get_u32_fixed() == kTraceVersionLegacy;
}

// Leaves `f` rewound to its start.
bool is_legacy_file(std::FILE* f) {
  uint8_t header[8];
  bool whole = std::fread(header, 1, 8, f) == 8;
  std::fseek(f, 0, SEEK_SET);
  return whole && is_legacy_header(header);
}

// The unframed v3 blob -- magic | version 3 | meta payload | uvarint len |
// schedule | uvarint len | events -- re-encoded as v4 bytes through the
// one writer, each stream appended whole. No stream length is trusted past
// the bytes present.
std::vector<uint8_t> upgrade_v3(const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  r.skip(8);
  TraceMeta meta = read_meta_payload(r);
  auto sink = std::make_unique<VectorTraceSink>(kTraceVersion);
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink));
  for (StreamId id : {StreamId::kSchedule, StreamId::kEvents}) {
    uint64_t n = r.get_uvarint();
    DV_CHECK_MSG(n <= r.remaining(), "truncated v3 stream");
    w.append(id, blob.data() + r.position(), size_t(n));
    r.skip(size_t(n));
  }
  DV_CHECK_MSG(r.at_end(), "trailing bytes in trace file");
  w.finish(meta);
  return mem->take();
}

}  // namespace

TraceFile TraceFile::deserialize(std::vector<uint8_t> bytes) {
  if (bytes.size() >= 8 && is_legacy_header(bytes.data()))
    bytes = upgrade_v3(bytes);
  // Anything else, a bad header included, is judged by the container walk
  // every other reader shares.
  size_t pos = 0;
  ScanOutcome scan = scan_chunks([&](uint8_t* dst, size_t n) {
    size_t m = std::min(n, bytes.size() - pos);
    if (m != 0) std::memcpy(dst, bytes.data() + pos, m);  // data() may be null
    pos += m;
    return m;
  });
  if (!scan.ok) throw VmError(scan.error);
  TraceFile t;
  t.meta = std::move(scan.meta);
  t.index_ = std::move(scan.index);
  t.bytes_ = std::move(bytes);
  return t;
}

TraceFile TraceFile::load(const std::string& path) {
  return deserialize(read_file(path));
}

void TraceFile::save(const std::string& path) const {
  write_file(path, bytes_);
}

size_t TraceFile::total_bytes() const {
  uint64_t n = index_.order.bytes;
  for (const StreamIndex& s : index_.schedule) n += s.bytes;
  for (const StreamIndex& s : index_.events) n += s.bytes;
  return size_t(n);
}

TraceFileSource::TraceFileSource(TraceFile trace) : owned_(std::move(trace)) {}
TraceFileSource::TraceFileSource(const TraceFile* trace) : borrowed_(trace) {}

StreamInfo TraceFileSource::stream_info(StreamId id, LaneId lane) const {
  return info_of(file().index().find(id, lane));
}

bool TraceFileSource::read_chunk(StreamId id, LaneId lane, size_t index,
                                 std::vector<uint8_t>* out) {
  const StreamIndex* s = file().index().find(id, lane);
  if (s == nullptr || index >= s->chunks.size()) return false;
  const ChunkRef& c = s->chunks[index];
  const uint8_t* p = file().serialize().data() + c.payload_offset;
  out->assign(p, p + c.payload_len);
  return true;
}

FileTraceSource::FileTraceSource(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "rb");
  DV_CHECK_MSG(f_ != nullptr, "cannot open trace: " << path);
  ScanOutcome scan = scan_chunked_file(f_);
  if (!scan.ok) {
    std::fclose(f_);
    f_ = nullptr;
    throw VmError("trace " + path + ": " + scan.error);
  }
  meta_ = std::move(scan.meta);
  index_ = std::move(scan.index);
}

FileTraceSource::~FileTraceSource() {
  if (f_ != nullptr) std::fclose(f_);
}

StreamInfo FileTraceSource::stream_info(StreamId id, LaneId lane) const {
  return info_of(index_.find(id, lane));
}

bool FileTraceSource::read_chunk(StreamId id, LaneId lane, size_t index,
                                 std::vector<uint8_t>* out) {
  const StreamIndex* s = index_.find(id, lane);
  if (s == nullptr || index >= s->chunks.size()) return false;
  const ChunkRef& c = s->chunks[index];
  out->resize(c.payload_len);
  DV_CHECK_MSG(std::fseek(f_, long(c.payload_offset), SEEK_SET) == 0,
               "seek failed: " << path_);
  if (c.payload_len != 0) {
    size_t got = std::fread(out->data(), 1, c.payload_len, f_);
    DV_CHECK_MSG(got == c.payload_len, "short read: " << path_);
  }
  return true;
}

std::unique_ptr<TraceSource> open_trace_source(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  DV_CHECK_MSG(f != nullptr, "cannot open trace: " << path);
  bool legacy = is_legacy_file(f);
  std::fclose(f);
  // v3 has no framing to stream by; load it whole, upgraded to v4 bytes.
  // Everything else goes through the container walk.
  if (legacy) return std::make_unique<TraceFileSource>(TraceFile::load(path));
  return std::make_unique<FileTraceSource>(path);
}

// ---------------------------------------------------------------- cursor

StreamCursor::StreamCursor(TraceSource& src, StreamId id, LaneId lane,
                           uint64_t start)
    : src_(src), id_(id), lane_(lane),
      total_(src.stream_info(id, lane).bytes) {
  DV_CHECK_MSG(start <= total_, stream_name(id) << " stream resume offset "
                                    << start << " exceeds its " << total_
                                    << " byte(s)");
  while (consumed_ < start) {
    DV_CHECK_MSG(ensure_byte(), stream_name(id_) << " stream underrun (skip)");
    size_t m = size_t(std::min<uint64_t>(start - consumed_,
                                         chunk_.size() - pos_));
    pos_ += m;
    consumed_ += m;
  }
}

bool StreamCursor::ensure_byte() {
  while (pos_ == chunk_.size()) {
    if (!src_.read_chunk(id_, lane_, next_chunk_, &chunk_)) return false;
    next_chunk_++;
    pos_ = 0;
  }
  return true;
}

uint8_t StreamCursor::get_u8() {
  DV_CHECK_MSG(ensure_byte(),
               stream_name(id_) << " stream underrun (u8)");
  uint8_t b = chunk_[pos_++];
  consumed_++;
  pending_.push_back(b);
  return b;
}

uint64_t StreamCursor::get_uvarint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    uint8_t b = get_u8();
    v |= uint64_t(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
    DV_CHECK_MSG(shift < 64, "varint too long");
  }
  return v;
}

int64_t StreamCursor::get_svarint() {
  uint64_t u = get_uvarint();
  return int64_t(u >> 1) ^ -int64_t(u & 1);
}

void StreamCursor::get_bytes(void* dst, size_t n) {
  auto* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    DV_CHECK_MSG(ensure_byte(),
                 stream_name(id_) << " stream underrun (bytes)");
    size_t m = std::min(n, chunk_.size() - pos_);
    std::memcpy(p, chunk_.data() + pos_, m);
    pending_.insert(pending_.end(), chunk_.data() + pos_,
                    chunk_.data() + pos_ + m);
    pos_ += m;
    consumed_ += m;
    p += m;
    n -= m;
  }
}

std::string StreamCursor::get_string() {
  uint64_t n = get_uvarint();
  DV_CHECK_MSG(n <= remaining(),
               stream_name(id_) << " stream underrun (string of " << n
                                << " bytes)");
  std::string s(size_t(n), '\0');
  get_bytes(s.data(), size_t(n));
  return s;
}

bool StreamCursor::at_end() { return !ensure_byte(); }

Checkpoint read_checkpoint(StreamCursor& c) {
  Checkpoint cp;
  cp.logical_clock = c.get_uvarint();
  cp.alloc_count = c.get_uvarint();
  cp.class_loads = c.get_uvarint();
  cp.compiles = c.get_uvarint();
  cp.stack_grows = c.get_uvarint();
  cp.gc_count = c.get_uvarint();
  cp.switch_count = c.get_uvarint();
  return cp;
}

// ---------------------------------------------------------------- verify

std::string TraceVerifyReport::describe() const {
  std::ostringstream os;
  os << "version " << version << (sealed ? ", sealed" : ", NOT sealed")
     << ", " << valid_chunks << " data chunk(s), schedule " << schedule_bytes
     << "B, events " << events_bytes << "B";
  if (lanes > 1 || order_bytes > 0) {
    os << ", " << lanes << " lane(s), order " << order_bytes << "B";
  }
  os << ": ";
  if (ok) {
    os << "OK";
  } else {
    os << "CORRUPT -- " << error;
  }
  return os.str();
}

TraceVerifyReport verify_trace_file(const std::string& path) {
  TraceVerifyReport rep;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    rep.error = "cannot open " + path;
    return rep;
  }
  if (is_legacy_file(f)) {
    // v3 carries no checksums; the best available check is a structural
    // parse of the whole blob.
    std::fclose(f);
    rep.version = kTraceVersionLegacy;
    try {
      TraceFile t = TraceFile::load(path);
      rep.ok = true;
      rep.sealed = true;  // v3 blobs are all-or-nothing
      const ContainerIndex& idx = t.index();
      rep.schedule_bytes = info_of(idx.find(StreamId::kSchedule, 0)).bytes;
      rep.events_bytes = info_of(idx.find(StreamId::kEvents, 0)).bytes;
      rep.valid_chunks = 0;
    } catch (const VmError& e) {
      rep.error = std::string("v3 structural parse failed: ") + e.what();
    }
    return rep;
  }

  ScanOutcome scan = scan_chunked_file(f);
  std::fclose(f);
  rep.ok = scan.ok;
  rep.version = scan.index.version;
  rep.sealed = scan.sealed;
  rep.valid_chunks = scan.valid_chunks;
  for (const auto& lc : scan.index.schedule) rep.schedule_bytes += lc.bytes;
  for (const auto& lc : scan.index.events) rep.events_bytes += lc.bytes;
  rep.order_bytes = scan.index.order.bytes;
  rep.lanes = scan.meta_seen ? scan.meta.lane_count : 1;
  rep.error = scan.error;
  return rep;
}

}  // namespace dejavu::replay
