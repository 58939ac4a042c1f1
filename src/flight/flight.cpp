#include "src/flight/flight.hpp"

#include "src/common/check.hpp"
#include "src/common/io.hpp"
#include "src/replay/engine.hpp"

namespace dejavu::flight {

using replay::LaneId;
using replay::StreamId;

namespace {

// Bytes frame() adds around a payload.
constexpr size_t kFrameBytes = 1 + 4 + 4;

// Appends one chunk framed exactly as the container sinks frame it:
// [wire_id][payload_len le][payload][crc32 le].
void frame(ByteWriter& w, uint8_t wire_id, const uint8_t* payload, size_t n) {
  w.put_u8(wire_id);
  w.put_u32_fixed(uint32_t(n));
  w.put_bytes(payload, n);
  w.put_u32_fixed(replay::chunk_crc(wire_id, payload, n));
}

}  // namespace

// ------------------------------------------------------- FlightRecorder

FlightRecorder::FlightRecorder(uint32_t version, uint32_t lanes,
                               FlightConfig cfg)
    : version_(version), lanes_(lanes == 0 ? 1 : lanes), cfg_(cfg) {
  DV_CHECK_MSG(cfg_.window_epochs >= 1, "flight window must be >= 1 epoch");
  DV_CHECK_MSG(lanes_ <= replay::kMaxLanes, "flight lane count out of range");
  // Epoch 0: execution from boot until the first checkpoint. It carries no
  // checkpoint -- if the run ends inside it, the tail is simply the whole
  // trace and replays from the beginning.
  epochs_.emplace_back();
}

void FlightRecorder::write_chunk(StreamId id, const uint8_t* payload,
                                 size_t n, LaneId lane) {
  DV_CHECK_MSG(!sealed_, "write_chunk on a sealed flight recorder");
  if (id == StreamId::kMeta) {
    // The engine's writer emits the meta chunk at finish; keep the payload
    // for the tail instead of storing it in an epoch -- the seal path
    // appends it last, where every reader expects it.
    meta_payload_.assign(payload, payload + n);
    meta_seen_ = true;
    return;
  }
  if (id == StreamId::kSeal) {
    // The writer's seal totals cover the whole run; the tail's cover only
    // the retained window. Swallow it -- seal_to_file recomputes.
    return;
  }
  uint8_t wire = replay::wire_stream_id(id, lane);
  Epoch& e = epochs_.back();
  frame(e.chunks, wire, payload, n);
  e.wire_ids.push_back(wire);
  e.payload_lens.push_back(uint32_t(n));
  bytes_retained_ += kFrameBytes + n;
}

void FlightRecorder::begin_epoch(const CheckpointCapture& capture,
                                 uint64_t clock, uint64_t instr) {
  DV_CHECK_MSG(!sealed_, "begin_epoch on a sealed flight recorder");
  // The new epoch takes over the buffers of the last one retired.
  Epoch e = std::move(spare_);
  ByteWriter vm_snapshot(std::move(e.vm_snapshot));
  ByteWriter engine_state(std::move(e.engine_state));
  capture(vm_snapshot, engine_state);
  DV_CHECK_MSG(vm_snapshot.size() != 0 && engine_state.size() != 0,
               "epoch boundary without a checkpoint");
  e.has_checkpoint = true;
  e.vm_snapshot = vm_snapshot.take();
  e.engine_state = engine_state.take();
  e.clock = clock;
  e.instr = instr;
  e.chunks.clear();
  e.wire_ids.clear();
  e.payload_lens.clear();
  epochs_.push_back(std::move(e));
  checkpoints_++;
  retire_old_epochs();
}

void FlightRecorder::retire_old_epochs() {
  // The window's first epoch must carry a checkpoint (it is where tail
  // replay resumes), so epoch 0 -- the only checkpoint-less epoch -- is
  // only retired once a checkpointed successor can take its place; that is
  // every successor, so the guard only matters for the start-up window.
  while (epochs_.size() > cfg_.window_epochs &&
         epochs_[1].has_checkpoint) {
    Epoch& victim = epochs_.front();
    uint64_t framed = victim.chunks.size();
    bytes_retired_ += framed;
    DV_CHECK(bytes_retained_ >= framed);
    bytes_retained_ -= framed;
    epochs_retired_++;
    spare_ = std::move(victim);
    epochs_.pop_front();
  }
}

void FlightRecorder::seal_to_file(const std::string& path,
                                  const std::string& reason) {
  DV_CHECK_MSG(!sealed_, "flight recorder sealed twice");
  DV_CHECK_MSG(meta_seen_,
               "seal_to_file before the engine detached (no meta chunk)");
  sealed_ = true;

  const Epoch& first = epochs_.front();
  replay::FlightInfo info;
  info.has_checkpoint = first.has_checkpoint;
  info.window_epochs = cfg_.window_epochs;
  info.epoch_preempts = cfg_.epoch_preempts;
  info.epochs_retained = epochs_.size();
  info.epochs_retired = epochs_retired_;
  info.bytes_retired = bytes_retired_;
  info.seal_reason = reason;
  info.checkpoint_clock = first.clock;
  info.checkpoint_instr = first.instr;
  if (first.has_checkpoint)
    info.checkpoint =
        replay::make_flight_checkpoint(first.vm_snapshot, first.engine_state);
  std::vector<uint8_t> flight_payload = info.encode();

  // Per-(stream, lane) totals over the retained chunks only; the kFlight
  // chunk itself is excluded from seal totals by the container contract.
  std::vector<uint64_t> sched_bytes(lanes_, 0), events_bytes(lanes_, 0);
  std::vector<uint32_t> sched_chunks(lanes_, 0), events_chunks(lanes_, 0);
  uint64_t order_bytes = 0;
  uint32_t order_chunks = 0;
  for (const Epoch& e : epochs_) {
    for (size_t i = 0; i < e.wire_ids.size(); ++i) {
      StreamId id;
      LaneId lane;
      DV_CHECK(replay::parse_wire_stream_id(e.wire_ids[i], &id, &lane));
      switch (id) {
        case StreamId::kSchedule:
          DV_CHECK(lane < lanes_);
          sched_bytes[lane] += e.payload_lens[i];
          sched_chunks[lane]++;
          break;
        case StreamId::kEvents:
          DV_CHECK(lane < lanes_);
          events_bytes[lane] += e.payload_lens[i];
          events_chunks[lane]++;
          break;
        case StreamId::kOrder:
          order_bytes += e.payload_lens[i];
          order_chunks++;
          break;
        default:
          DV_CHECK_MSG(false, "unexpected stream in flight ring");
      }
    }
  }

  ByteWriter sw;
  if (version_ >= replay::kTraceVersionMulti) {
    sw.put_uvarint(lanes_);
    sw.put_uvarint(order_bytes);
    sw.put_uvarint(order_chunks);
    for (uint32_t k = 0; k < lanes_; ++k) {
      sw.put_uvarint(sched_bytes[k]);
      sw.put_uvarint(events_bytes[k]);
      sw.put_uvarint(sched_chunks[k]);
      sw.put_uvarint(events_chunks[k]);
    }
  } else {
    sw.put_u64_fixed(sched_bytes[0]);
    sw.put_u64_fixed(events_bytes[0]);
    sw.put_u32_fixed(sched_chunks[0]);
    sw.put_u32_fixed(events_chunks[0]);
  }

  ByteWriter out;
  out.reserve(8 + 3 * kFrameBytes + flight_payload.size() + bytes_retained_ +
              meta_payload_.size() + sw.size());
  out.put_u32_fixed(replay::kTraceMagic);
  out.put_u32_fixed(version_);
  // kFlight first: readers that want the descriptor (report, flight info)
  // find it without scanning past the data chunks.
  frame(out, uint8_t(StreamId::kFlight), flight_payload.data(),
        flight_payload.size());
  for (const Epoch& e : epochs_)
    out.put_bytes(e.chunks.bytes().data(), e.chunks.size());
  frame(out, uint8_t(StreamId::kMeta), meta_payload_.data(),
        meta_payload_.size());
  frame(out, uint8_t(StreamId::kSeal), sw.bytes().data(), sw.size());
  write_file(path, out.bytes());
}

FlightStats FlightRecorder::stats() const {
  FlightStats s;
  s.checkpoints = checkpoints_;
  s.epochs_retained = epochs_.size();
  s.epochs_retired = epochs_retired_;
  s.bytes_retained = bytes_retained_;
  s.bytes_retired = bytes_retired_;
  s.sealed = sealed_;
  return s;
}

}  // namespace dejavu::flight
