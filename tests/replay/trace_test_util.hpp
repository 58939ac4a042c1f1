// Test helpers for traces held in memory. A TraceFile is its container
// bytes, so a test that needs particular streams -- a hand-made sample, or
// a recording with a truncated or shifted stream -- writes them through
// the one TraceWriter, and reads a stream back whole through a
// TraceSource.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "src/replay/trace_io.hpp"

namespace dejavu::replay::testutil {

// A trace's content, stream by stream, and the container version whose
// event encoding the streams are in (0: v4, or v5 when multi-lane --
// absolute values, as a hand-made sample writes them).
struct TraceStreams {
  uint32_t version = 0;
  TraceMeta meta;
  std::vector<std::vector<uint8_t>> schedule, events;  // indexed by lane
  std::vector<uint8_t> order;
};

// Every byte of one stream, across its chunks.
inline std::vector<uint8_t> stream_bytes(TraceSource& src, StreamId id,
                                         LaneId lane = 0) {
  std::vector<uint8_t> all, chunk;
  for (size_t i = 0; src.read_chunk(id, lane, i, &chunk); ++i)
    all.insert(all.end(), chunk.begin(), chunk.end());
  return all;
}

inline std::vector<uint8_t> stream_bytes(const TraceFile& t, StreamId id,
                                         LaneId lane = 0) {
  TraceFileSource src(&t);
  return stream_bytes(src, id, lane);
}

inline TraceStreams streams_of(const TraceFile& t) {
  TraceStreams s;
  s.version = t.version();
  s.meta = t.meta;
  for (LaneId k = 0; k < std::max<uint32_t>(t.meta.lane_count, 1); ++k) {
    s.schedule.push_back(stream_bytes(t, StreamId::kSchedule, k));
    s.events.push_back(stream_bytes(t, StreamId::kEvents, k));
  }
  s.order = stream_bytes(t, StreamId::kOrder);
  return s;
}

// Writes `s` in its container version, each stream appended whole, and
// reads it back.
inline TraceFile build_trace(const TraceStreams& s) {
  uint32_t lanes = std::max<uint32_t>(
      s.meta.lane_count,
      uint32_t(std::max(s.schedule.size(), s.events.size())));
  uint32_t version = s.version;
  if (version == 0) version = lanes > 1 ? kTraceVersionMulti : kTraceVersion;
  auto sink = std::make_unique<VectorTraceSink>(version);
  VectorTraceSink* mem = sink.get();
  TraceWriter w(std::move(sink), kDefaultChunkBytes);
  for (LaneId k = 0; k < lanes; ++k) {
    if (k < s.schedule.size())
      w.append(StreamId::kSchedule, s.schedule[k].data(), s.schedule[k].size(),
               k);
    if (k < s.events.size())
      w.append(StreamId::kEvents, s.events[k].data(), s.events[k].size(), k);
  }
  if (!s.order.empty())
    w.append(StreamId::kOrder, s.order.data(), s.order.size());
  TraceMeta meta = s.meta;
  meta.lane_count = lanes;
  w.finish(meta);
  return TraceFile::deserialize(mem->take());
}

inline TraceFile build_trace(const TraceMeta& meta,
                             const std::vector<uint8_t>& schedule,
                             const std::vector<uint8_t>& events) {
  TraceStreams s;
  s.meta = meta;
  s.schedule = {schedule};
  s.events = {events};
  return build_trace(s);
}

// The unframed v3 blob, built by hand: magic | version 3 | meta payload |
// uvarint len | schedule | uvarint len | events.
inline std::vector<uint8_t> v3_blob(const TraceMeta& meta,
                                    const std::vector<uint8_t>& schedule,
                                    const std::vector<uint8_t>& events) {
  ByteWriter w;
  w.put_u32_fixed(kTraceMagic);
  w.put_u32_fixed(kTraceVersionLegacy);
  write_meta_payload(w, meta);
  for (const std::vector<uint8_t>* s : {&schedule, &events}) {
    w.put_uvarint(s->size());
    w.put_bytes(s->data(), s->size());
  }
  return w.take();
}

}  // namespace dejavu::replay::testutil
