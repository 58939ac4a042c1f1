// Trace storage: the chunked, checksummed v4/v5/v6 container.
//
// v3 stored a recording as one unframed blob, which forced the recorder to
// keep both streams resident until detach and turned any corruption into an
// obscure mid-replay divergence. v4 treats trace storage as a first-class
// streaming layer:
//
//   file  := header chunk*
//   header:= magic u32le ("DVJU") | version u32le (4, 5 or 6)
//   chunk := stream_id u8 | payload_len u32le | payload | crc32 u32le
//
// The CRC-32 covers the stream id, the length field and the payload, so a
// flipped bit anywhere in a chunk -- framing included -- is caught at load
// time with the chunk's stream and file offset. Stream ids:
//
//   0 meta     one chunk, written at finish (final hashes are only known
//              then); carries the TraceMeta block
//   1 schedule data chunks, in recording order
//   2 events   data chunks, in recording order
//   3 seal     exactly one, the trace's final chunk; carries per-stream
//              byte and chunk totals. A trace without a seal was cut short
//              (crashed recorder); its verified chunks remain decodable.
//
// Writer side: TraceWriter buffers each stream up to chunk_bytes and emits
// full chunks to a TraceSink as recording proceeds, so record-side memory
// is O(chunk), not O(run). Appends are entry-aligned (a single logical
// record never spans chunks), which keeps every chunk independently
// decodable for salvage and partial dumps. It is the only writer: a
// recording, a v3 blob upgraded at load and `dejavu convert` all go
// through it. The container version is the sink's: v6 (v5's layout, clock
// reads predicted per lane; event_codec.hpp) unless the sink was created
// for v4 or v5.
//
// Reader side: one structural walk checks a container -- header, stream
// ids, every CRC, single meta/flight chunk, seal totals, meta lane count --
// and builds a ContainerIndex of where each (stream, lane)'s chunks lie.
// Every reader runs it: FileTraceSource at open (bounded memory, then
// chunks stream on demand, so replay never needs a whole stream resident),
// verify_trace_file (which reports instead of throwing) and
// TraceFile::deserialize/load. A TraceFile is a trace held in memory: the
// container bytes exactly as recorded plus their index, so serializing it
// returns the recording unchanged and TraceFileSource serves its chunks as
// they are. StreamCursor layers varint/string decoding over the chunk
// sequence and retains consumed bytes for the engine's guest-buffer
// mirroring (§2.4: both modes must touch identical bytes).
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/replay/trace.hpp"

namespace dejavu::replay {

enum class StreamId : uint8_t {
  kMeta = 0,
  kSchedule = 1,
  kEvents = 2,
  kSeal = 3,
  kOrder = 4,   // v5: cross-lane order events (one global stream)
  kFlight = 5,  // flight-recorder tail descriptor (one chunk, before meta):
                // window geometry, seal reason, embedded start checkpoint
                // (src/flight). Absent from full traces; excluded from the
                // seal's per-stream totals.
};

const char* stream_name(StreamId id);

inline constexpr size_t kDefaultChunkBytes = 64 * 1024;
inline constexpr size_t kChunkHeaderBytes = 5;   // stream id + payload len
inline constexpr size_t kChunkTrailerBytes = 4;  // crc32

// v5 lane addressing in the chunk id byte. Lane 0 keeps the v4 ids (1 and
// 2), so every v4 reader concept carries over and a single-lane v5 file
// differs from v4 only in version, meta extension and seal layout. Lanes
// 1.. map to id pairs starting at kLaneStreamBase: lane k's schedule is
// kLaneStreamBase + 2*(k-1), its events stream the id after it.
inline constexpr uint8_t kLaneStreamBase = 8;

uint8_t wire_stream_id(StreamId id, LaneId lane);
// Decodes a chunk id byte; returns false for reserved/unknown ids.
bool parse_wire_stream_id(uint8_t wire, StreamId* id, LaneId* lane);

// CRC over [stream_id][payload_len le][payload].
uint32_t chunk_crc(uint8_t wire_id, const uint8_t* payload, size_t n);
inline uint32_t chunk_crc(StreamId id, const uint8_t* payload, size_t n) {
  return chunk_crc(uint8_t(id), payload, n);
}

// ------------------------------------------------------ flight descriptor

// Schema tag carried by every kFlight chunk (obs_schema_check keys on it).
inline constexpr const char* kFlightSchema = "dejavu-flight-v1";

// Decoded kFlight chunk payload: a flight-recorder tail's provenance plus
// the embedded start checkpoint. The recorder (src/flight) encodes it at
// seal time; ReplaySession decodes it to resume the tail. `checkpoint` is
// the engine's combined blob (split_flight_checkpoint splits it); empty
// iff !has_checkpoint.
struct FlightInfo {
  bool has_checkpoint = false;
  uint32_t window_epochs = 0;
  uint32_t epoch_preempts = 0;
  uint64_t epochs_retained = 0;
  uint64_t epochs_retired = 0;
  uint64_t bytes_retired = 0;
  std::string seal_reason;
  uint64_t checkpoint_clock = 0;  // engine logical clock at the cut
  uint64_t checkpoint_instr = 0;  // VM instruction count at the cut
  std::vector<uint8_t> checkpoint;

  std::vector<uint8_t> encode() const;
  // Throws VmError, located by descriptor offset, on a malformed payload;
  // no length is trusted beyond the bytes actually present.
  static FlightInfo decode(const std::vector<uint8_t>& payload);
  // One-line and JSON renderings for `dejavu flight info` / `report`.
  std::string describe() const;
  std::string describe_json() const;
};

// ---------------------------------------------------------------- writing

// Destination for framed chunks. Implementations append the container
// header on construction; write_chunk frames and checksums one payload.
// `lane` selects the per-lane data stream (only meaningful for kSchedule /
// kEvents; everything else is lane 0 by construction).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write_chunk(StreamId id, const uint8_t* payload, size_t n,
                           LaneId lane) = 0;
  void write_chunk(StreamId id, const uint8_t* payload, size_t n) {
    write_chunk(id, payload, n, 0);
  }
  virtual void flush() {}  // push buffered bytes toward durable storage
  // The container version the sink's header declares. The recording
  // engine encodes its events for it (event_codec.hpp).
  virtual uint32_t version() const = 0;

  // Appends the two halves of a flight checkpoint at the current cut to
  // the writers given: the VM snapshot and the engine's resume state.
  // make_flight_checkpoint (src/replay/engine.hpp) frames them as the DVCK
  // blob that restores the machine to exactly that cut.
  using CheckpointCapture =
      std::function<void(ByteWriter& vm_snapshot, ByteWriter& engine_state)>;

  // Flight-recorder epoch boundary. The recording engine calls this at a
  // safepoint immediately after an entry-aligned TraceWriter::flush():
  // every chunk written so far belongs to completed epochs. The sink runs
  // `capture` at most once, during the call, into writers it supplies --
  // the FlightRecorder into buffers its ring recycles, so a steady-state
  // cut allocates nothing; the blob is framed only when a tail is sealed.
  // Plain sinks ignore the call and capture nothing.
  virtual void begin_epoch(const CheckpointCapture& capture, uint64_t clock,
                           uint64_t instr) {
    (void)capture; (void)clock; (void)instr;
  }

  // The container bytes written so far, when the sink keeps them in memory
  // (VectorTraceSink, or a decorator over one); null otherwise.
  virtual const std::vector<uint8_t>* in_memory() const { return nullptr; }
};

// Chunks appended to an in-memory byte vector (record_run's sink).
class VectorTraceSink : public TraceSink {
 public:
  explicit VectorTraceSink(uint32_t version = kTraceVersionPredicted);
  using TraceSink::write_chunk;
  void write_chunk(StreamId id, const uint8_t* payload, size_t n,
                   LaneId lane) override;
  uint32_t version() const override { return version_; }
  const std::vector<uint8_t>& bytes() const { return w_.bytes(); }
  std::vector<uint8_t> take() { return w_.take(); }
  const std::vector<uint8_t>* in_memory() const override {
    return &w_.bytes();
  }

 private:
  uint32_t version_;
  ByteWriter w_;
};

// Chunks written straight to a file as recording proceeds. A recorder
// crash leaves every already-flushed chunk intact (and CRC-verifiable).
// An existing file at `path` is replaced, not truncated (open_for_replace).
class FileTraceSink : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path,
                         uint32_t version = kTraceVersionPredicted);
  ~FileTraceSink() override;
  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  using TraceSink::write_chunk;
  void write_chunk(StreamId id, const uint8_t* payload, size_t n,
                   LaneId lane) override;
  void flush() override;
  uint32_t version() const override { return version_; }

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
  uint32_t version_;
};

// Engine-facing writer: per-(stream, lane) bounded buffering over a
// TraceSink, in the sink's container version. With a v4 sink exactly lane
// 0 exists and the output is the classic v4 container, byte-for-byte.
// With a v5 or v6 sink the writer accepts appends to any lane plus the
// kOrder stream and finishes with the v5 seal. The writer copies bytes; it
// never looks inside a record, so the version's event encoding is the
// caller's (event_codec.hpp).
class TraceWriter {
 public:
  explicit TraceWriter(std::unique_ptr<TraceSink> sink,
                       size_t chunk_bytes = kDefaultChunkBytes);
  ~TraceWriter();

  // Append one whole logical record (schedule entry, event, checkpoint,
  // order record) to a data stream. Emits the stream's pending chunk first
  // if the record would not fit; an oversized record becomes its own
  // oversized chunk.
  void append(StreamId id, const uint8_t* data, size_t n, LaneId lane = 0);

  // Force partial chunks out and flush the sink (mid-recording durability).
  void flush();

  // Emit remaining data, then the meta chunk and the seal. Idempotent.
  void finish(const TraceMeta& meta);

  uint64_t stream_bytes(StreamId id, LaneId lane = 0) const;
  size_t buffered_bytes() const;
  TraceSink& sink() { return *sink_; }

  // Invoked after each data chunk reaches the sink (stream, payload bytes).
  // Observability hook: the engine uses it to timestamp chunk flushes
  // without trace_io depending on src/obs.
  using ChunkObserver = std::function<void(StreamId, size_t)>;
  void set_chunk_observer(ChunkObserver obs) { observer_ = std::move(obs); }

 private:
  struct StreamBuf {
    ByteWriter buf;
    uint64_t bytes = 0;
    uint32_t chunks = 0;
  };
  StreamBuf& buf(StreamId id, LaneId lane);
  void emit(StreamId id, LaneId lane);
  void emit_all();

  ChunkObserver observer_;
  std::unique_ptr<TraceSink> sink_;
  size_t chunk_bytes_;
  uint32_t version_;
  std::vector<StreamBuf> sched_, events_;  // indexed by lane
  StreamBuf order_;
  bool finished_ = false;
};

// ---------------------------------------------------------------- reading

struct StreamInfo {
  uint64_t bytes = 0;
  size_t chunks = 0;
};

// Random access to a trace's meta block and per-(stream, lane) chunk
// sequences. Multiple StreamCursors over one source are independent. The
// two-argument forms address lane 0 (every v3/v4 trace, and the kOrder
// stream, which is global).
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual const TraceMeta& meta() const = 0;
  virtual StreamInfo stream_info(StreamId id, LaneId lane) const = 0;
  StreamInfo stream_info(StreamId id) const { return stream_info(id, 0); }
  // Copies chunk `index` of the stream into *out (replacing its contents).
  // Returns false once `index` is past the last chunk.
  virtual bool read_chunk(StreamId id, LaneId lane, size_t index,
                          std::vector<uint8_t>* out) = 0;
  bool read_chunk(StreamId id, size_t index, std::vector<uint8_t>* out) {
    return read_chunk(id, 0, index, out);
  }
  uint32_t lane_count() const { return meta().lane_count; }
  // The container version (4, 5 or 6; a v3 file reads as its v4 upgrade),
  // which selects the events stream's encoding.
  virtual uint32_t version() const = 0;
  // Payload of the trace's kFlight chunk; empty for ordinary full traces.
  // Non-empty only for flight-recorder tails, whose replay must start from
  // the embedded checkpoint (when one is present).
  virtual const std::vector<uint8_t>& flight_chunk() const {
    static const std::vector<uint8_t> kEmpty;
    return kEmpty;
  }
};

// Where one chunk's payload lies in its container.
struct ChunkRef {
  uint64_t payload_offset = 0;
  uint32_t payload_len = 0;
};

// One (stream, lane)'s chunks, in container order.
struct StreamIndex {
  std::vector<ChunkRef> chunks;
  uint64_t bytes = 0;  // payload bytes over all chunks
};

// What the container walk learns about a well-formed v4/v5/v6 container.
struct ContainerIndex {
  uint32_t version = 0;
  std::vector<StreamIndex> schedule, events;  // indexed by lane
  StreamIndex order;
  std::vector<uint8_t> flight;  // kFlight payload (empty if none)

  // Null for a (stream, lane) the container has no chunks for.
  const StreamIndex* find(StreamId id, LaneId lane) const;
};

// A trace held in memory: the container bytes exactly as they were
// recorded or loaded, plus the walk's index over them.
// Nothing is decoded or re-encoded on the way in or out, so serialize()
// and save() return the recording byte for byte. A v3 blob is upgraded to
// v4 bytes once, at deserialize/load, through the ordinary TraceWriter.
class TraceFile {
 public:
  // The meta block, decoded from the container. Read-only by convention:
  // TraceFileSource serves it to replay, while serialize() and save()
  // return the bytes, which carry their own copy.
  TraceMeta meta;

  TraceFile() = default;
  // Accepts v3, v4, v5 and v6 bytes; throws VmError, located, on anything
  // the container walk rejects.
  static TraceFile deserialize(std::vector<uint8_t> bytes);
  static TraceFile load(const std::string& path);

  const std::vector<uint8_t>& serialize() const { return bytes_; }
  void save(const std::string& path) const;

  uint32_t version() const { return index_.version; }
  const ContainerIndex& index() const { return index_; }
  // Payload bytes of every data stream: schedule and events of every lane,
  // and the order stream.
  size_t total_bytes() const;

 private:
  std::vector<uint8_t> bytes_;
  ContainerIndex index_;
};

// Serves a TraceFile's chunks (owned or borrowed) straight from its bytes.
class TraceFileSource : public TraceSource {
 public:
  explicit TraceFileSource(TraceFile trace);         // owning
  explicit TraceFileSource(const TraceFile* trace);  // borrowed

  using TraceSource::read_chunk;
  using TraceSource::stream_info;
  const TraceMeta& meta() const override { return file().meta; }
  uint32_t version() const override { return file().version(); }
  StreamInfo stream_info(StreamId id, LaneId lane) const override;
  bool read_chunk(StreamId id, LaneId lane, size_t index,
                  std::vector<uint8_t>* out) override;
  const std::vector<uint8_t>& flight_chunk() const override {
    return file().index().flight;
  }

 private:
  const TraceFile& file() const { return borrowed_ ? *borrowed_ : owned_; }
  TraceFile owned_;
  const TraceFile* borrowed_ = nullptr;
};

// Streams a v4/v5/v6 file: one CRC-verifying walk at open (O(chunk) memory)
// builds the container index and loads the meta block; read_chunk then
// seeks on demand. Throws VmError with the offending stream/offset on
// corruption, truncation, or a missing seal.
class FileTraceSource : public TraceSource {
 public:
  explicit FileTraceSource(const std::string& path);
  ~FileTraceSource() override;
  FileTraceSource(const FileTraceSource&) = delete;
  FileTraceSource& operator=(const FileTraceSource&) = delete;

  using TraceSource::read_chunk;
  using TraceSource::stream_info;
  const TraceMeta& meta() const override { return meta_; }
  uint32_t version() const override { return index_.version; }
  StreamInfo stream_info(StreamId id, LaneId lane) const override;
  bool read_chunk(StreamId id, LaneId lane, size_t index,
                  std::vector<uint8_t>* out) override;
  const std::vector<uint8_t>& flight_chunk() const override {
    return index_.flight;
  }

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
  TraceMeta meta_;
  ContainerIndex index_;
};

// Opens `path` as a streaming source: v4-v6 files stream from disk; v3
// files are loaded whole through the compatibility reader.
std::unique_ptr<TraceSource> open_trace_source(const std::string& path);

// Sequential decoder over one stream of a TraceSource. Mirrors the
// ByteReader primitives; values may span chunk boundaries. Consumed bytes
// accumulate in a mirror buffer until drained, which is how the replay
// engine keeps its guest trace buffers byte-identical to record mode.
class StreamCursor {
 public:
  // Starts reading at byte `start` of the stream (a resume's cut), so
  // position() counts from there; throws VmError when the stream is
  // shorter.
  StreamCursor(TraceSource& src, StreamId id, LaneId lane = 0,
               uint64_t start = 0);

  uint8_t get_u8();
  uint64_t get_uvarint();
  int64_t get_svarint();
  std::string get_string();
  void get_bytes(void* dst, size_t n);

  bool at_end();
  uint64_t position() const { return consumed_; }
  uint64_t remaining() const { return total_ - consumed_; }

  const std::vector<uint8_t>& pending_mirror() const { return pending_; }
  void drain_mirror() { pending_.clear(); }

 private:
  bool ensure_byte();

  TraceSource& src_;
  StreamId id_;
  LaneId lane_;
  std::vector<uint8_t> chunk_;
  size_t pos_ = 0;
  size_t next_chunk_ = 0;
  uint64_t consumed_ = 0;
  uint64_t total_ = 0;
  std::vector<uint8_t> pending_;
};

// Checkpoint block decoded from a streamed schedule (same field layout as
// Checkpoint::read_from over a ByteReader).
Checkpoint read_checkpoint(StreamCursor& c);

// ---------------------------------------------------------------- verify

// Offline integrity check (`dejavu verify`). Never throws: every problem
// is reported with the stream and file offset it was found at.
struct TraceVerifyReport {
  bool ok = false;
  uint32_t version = 0;
  bool sealed = false;
  size_t valid_chunks = 0;      // CRC-verified data chunks before any error
  uint64_t schedule_bytes = 0;  // payload bytes across verified chunks,
  uint64_t events_bytes = 0;    //   summed over all lanes
  uint32_t lanes = 1;           // v5: lane count from the meta block
  uint64_t order_bytes = 0;     // v5: cross-lane order stream payload bytes
  std::string error;  // first located error; empty when ok

  std::string describe() const;
};

TraceVerifyReport verify_trace_file(const std::string& path);

}  // namespace dejavu::replay
