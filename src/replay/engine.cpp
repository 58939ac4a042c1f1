#include "src/replay/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "src/bytecode/disasm.hpp"

namespace dejavu::replay {

using vm::AuditKind;
using vm::NdKind;

namespace {
EventTag tag_of(NdKind kind) {
  switch (kind) {
    case NdKind::kClock: return EventTag::kClock;
    case NdKind::kInput: return EventTag::kInput;
    case NdKind::kRand: return EventTag::kRand;
  }
  throw VmError("bad NdKind");
}

const char* tag_name(EventTag t) {
  switch (t) {
    case EventTag::kClock: return "clock";
    case EventTag::kInput: return "input";
    case EventTag::kRand: return "rand";
    case EventTag::kNativeReturn: return "native_return";
    case EventTag::kNativeCallback: return "native_callback";
  }
  return "?";
}

// Warm-up probe files must not collide across concurrent sessions. The
// chosen path never feeds into recorded behaviour (the audit detail is
// path-independent), so uniqueness per engine instance is safe.
std::string unique_warmup_path() {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream os;
  os << "/tmp/dejavu.warmup." << ::getpid() << "."
     << counter.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

// Modeled instrumentation footprint that is the same for every
// configuration: the mode-independent eager stack-growth bound (§2.4
// "Symmetry in Stack Overflow") and the yield points each mode's
// instrumentation executes, which the liveclock discipline hides.
constexpr uint32_t kEagerStackThreshold = 16;
constexpr uint32_t kRecordInstrYields = 2;
constexpr uint32_t kReplayInstrYields = 3;

// Framing constants for the flight checkpoint and its engine half.
constexpr uint32_t kFlightCheckpointMagic = 0x4b435644;  // "DVCK"
constexpr uint32_t kFlightCheckpointVersion = 1;
constexpr uint32_t kEngineStateMagic = 0x53455644;  // "DVES"
// v2 adds the clock predictors (event_codec.hpp) after the lane count.
// v1 restores only into a v4/v5 trace, whose events carry no prediction.
constexpr uint32_t kEngineStateVersion = 2;

// The head of a DVES blob: magic, version, lane count and, from v2 on,
// the clock predictors, loaded into `codec` (built for `lanes` lanes).
// The engine's restore and the trace tools share it.
void read_state_head(ByteReader& r, uint32_t lanes, EventCodec& codec) {
  DV_CHECK_MSG(r.get_u32_fixed() == kEngineStateMagic,
               "bad engine resume-state magic");
  const uint32_t version = r.get_u32_fixed();
  DV_CHECK_MSG(version == 1 || version == kEngineStateVersion,
               "unsupported engine resume-state version " << version);
  DV_CHECK_MSG(version >= 2 || !codec.predicts(),
               "engine resume state v1 carries no clock predictors, which a "
               "v6 trace needs");
  uint64_t n = r.get_uvarint();
  DV_CHECK_MSG(n == lanes, "resume state has " << n
                               << " lane(s), trace meta says " << lanes);
  if (version >= 2) codec.load(r);
}
}  // namespace

DejaVuEngine::DejaVuEngine(std::unique_ptr<TraceSink> sink, SymmetryConfig cfg)
    : mode_(Mode::kRecord), cfg_(cfg) {
  init_lanes(cfg_.lanes);
  // The sink wrote its container header at construction: the engine
  // records in that version.
  DV_CHECK_MSG(sink != nullptr, "recording engine needs a sink");
  uint32_t version = sink->version();
  DV_CHECK_MSG(version != kTraceVersion || lane_count_ == 1,
               "a v4 sink cannot hold " << lane_count_ << " lanes");
  codec_ = EventCodec(version, lane_count_);
  writer_ =
      std::make_unique<TraceWriter>(std::move(sink), cfg_.trace_chunk_bytes);
  init_obs();
}

DejaVuEngine::DejaVuEngine(std::unique_ptr<TraceSource> source,
                           SymmetryConfig cfg)
    : mode_(Mode::kReplay), cfg_(cfg), source_(std::move(source)) {
  cfg_.checkpoint_interval = source_->meta().checkpoint_interval;
  init_lanes(source_->meta().lane_count);  // replay follows the recording
  codec_ = EventCodec(source_->version(), lane_count_);
  init_obs();
}

DejaVuEngine::~DejaVuEngine() = default;

void DejaVuEngine::init_lanes(uint32_t lanes) {
  lane_count_ = lanes == 0 ? 1 : lanes;
  DV_CHECK_MSG(lane_count_ <= kMaxLanes,
               "lane count " << lane_count_ << " out of range");
  cfg_.lanes = lane_count_;
  lanes_.resize(lane_count_);
  track_heap_owner_ = lane_count_ > 1;
}

// Registers every metric before attach, so the event hot path is a pointer
// bump and never an allocation or a registry lookup (allocation symmetry:
// telemetry makes no side effects the guest could observe, in either mode).
void DejaVuEngine::init_obs() {
  c_.clock = registry_.counter("engine.nd.clock");
  c_.input = registry_.counter("engine.nd.input");
  c_.rand = registry_.counter("engine.nd.rand");
  c_.native_ret = registry_.counter("engine.nd.native_return");
  c_.native_cb = registry_.counter("engine.nd.native_callback");
  c_.preempt = registry_.counter("engine.schedule.preempt_switches");
  c_.checkpoints = registry_.counter("engine.schedule.checkpoints");
  c_.violations = registry_.counter("engine.symmetry.violations");
  if (lane_count_ > 1) {
    // Lane-tagged metrics exist only on multi-lane engines so a K=1
    // snapshot stays byte-identical to the pre-lane engine's.
    c_order_events_ = registry_.counter("engine.order.events");
    for (uint32_t k = 0; k < lane_count_; ++k) {
      std::string prefix = "engine.lane." + std::to_string(k);
      lanes_[k].c_preempts = registry_.counter(prefix + ".preempts");
      lanes_[k].c_clock = registry_.counter(prefix + ".clock");
    }
  }
  if (cfg_.obs.metrics) {
    h_sched_delta_ =
        registry_.histogram("engine.schedule.delta", obs::pow2_bounds(16));
    h_event_bytes_ =
        registry_.histogram("engine.events.entry_bytes", obs::pow2_bounds(12));
    c_trace_sched_bytes_ = registry_.counter("engine.trace.schedule_bytes");
    c_trace_event_bytes_ = registry_.counter("engine.trace.events_bytes");
    c_mirror_bytes_ = registry_.counter("engine.mirror.bytes");
    c_switches_total_ = registry_.counter("engine.switches.total");
    g_logical_clock_ = registry_.gauge("engine.logical_clock");
  }
  if (cfg_.obs.timeline) {
    timeline_ = std::make_unique<obs::Timeline>(cfg_.obs.timeline_capacity);
    if (writer_ != nullptr) {
      obs::Timeline* tl = timeline_.get();
      writer_->set_chunk_observer([tl](StreamId id, size_t bytes) {
        tl->instant("trace", "chunk_flush", 0, 0, "stream",
                    int64_t(uint8_t(id)), "bytes", int64_t(bytes));
      });
    }
  }
}

EngineStats DejaVuEngine::stats() const {
  EngineStats s;
  s.clock_events = c_.clock->value();
  s.input_events = c_.input->value();
  s.rand_events = c_.rand->value();
  s.native_returns = c_.native_ret->value();
  s.native_callbacks = c_.native_cb->value();
  s.preempt_switches = c_.preempt->value();
  s.checkpoints = c_.checkpoints->value();
  s.symmetry_violations = c_.violations->value();
  s.first_violation = first_violation_;
  s.first_violation_clock = first_violation_clock_;
  s.verified_ok = verified_ok_;
  return s;
}

std::vector<obs::TimelineEvent> DejaVuEngine::timeline_events() const {
  if (timeline_ == nullptr) return {};
  return timeline_->snapshot();
}

uint32_t DejaVuEngine::cur_tid() const {
  if (vm_ == nullptr) return 0;
  return vm_->thread_package().current();
}

threads::LaneId DejaVuEngine::cur_lane() const {
  if (vm_ == nullptr || lane_count_ <= 1) return threads::kLane0;
  return vm_->thread_package().current_lane();
}

void DejaVuEngine::note_nd_event(const char* tag, int64_t value) {
  recent_[recent_head_] = {tag, value, logical_clock_};
  recent_head_ = (recent_head_ + 1) % recent_.size();
  if (recent_count_ < recent_.size()) recent_count_++;
  if (timeline_ != nullptr)
    timeline_->instant("nd", tag, logical_clock_, cur_tid(), "value", value);
  for (obs::AnalysisObserver* a : analyzers_)
    a->on_nd_event(tag, value, logical_clock_);
}

void DejaVuEngine::add_analyzer(obs::AnalysisObserver* a) {
  DV_CHECK_MSG(mode_ == Mode::kReplay,
               "analyzers attach to replay engines only (the recorded run "
               "must never see them)");
  DV_CHECK_MSG(vm_ == nullptr, "add_analyzer after attach");
  DV_CHECK(a != nullptr);
  analyzers_.push_back(a);
  if (a->wants_instructions()) instr_subs_.push_back(a);
  if (a->wants_monitors()) mon_subs_.push_back(a);
  if (a->wants_memory()) mem_subs_.push_back(a);
  if (a->wants_threads()) thread_subs_.push_back(a);
}

void DejaVuEngine::on_thread_event(const vm::ThreadEvent& ev) {
  for (obs::AnalysisObserver* a : thread_subs_) a->on_thread_event(ev);
}

void DejaVuEngine::on_instruction(const vm::InstrEvent& ev) {
  for (obs::AnalysisObserver* a : instr_subs_) a->on_instruction(ev);
}

void DejaVuEngine::on_monitor_event(const vm::MonitorEvent& ev) {
  for (obs::AnalysisObserver* a : mon_subs_) a->on_monitor_event(ev);
}

void DejaVuEngine::on_heap_read(heap::Addr obj, uint32_t slot, int64_t* value,
                                bool is_ref) {
  // *value is never written: analyzers observe a copy (the read-content
  // substitution path of the baselines is exactly what this fan-out must
  // not have).
  for (obs::AnalysisObserver* a : mem_subs_)
    a->on_heap_read(obj, slot, *value, is_ref);
}

void DejaVuEngine::on_heap_write(heap::Addr obj, uint32_t slot, int64_t value,
                                 bool is_ref) {
  if (track_heap_owner_) {
    // Shared-heap ownership: the last writing lane owns the object. A write
    // from a different lane is a cross-lane edge the replay merge must
    // reproduce in order, so it goes through the same record/verify path as
    // the scheduler-emitted events. Reads never transfer ownership.
    uint32_t lane = cur_lane();
    auto it = heap_owner_.find(uint64_t(obj));
    if (it == heap_owner_.end()) {
      heap_owner_.emplace(uint64_t(obj), lane);
    } else if (it->second != lane) {
      threads::CrossLaneEvent e;
      e.kind = threads::CrossLaneKind::kHeapTransfer;
      e.seq = order_seq_;
      e.from_lane = it->second;
      e.to_lane = lane;
      e.from = cur_tid();
      e.to = cur_tid();
      e.subject = uint64_t(obj);
      it->second = lane;
      handle_cross_lane(e);
    }
  }
  for (obs::AnalysisObserver* a : mem_subs_)
    a->on_heap_write(obj, slot, value, is_ref);
}

void DejaVuEngine::on_heap_alloc(const vm::AllocEvent& ev) {
  if (track_heap_owner_) heap_owner_[uint64_t(ev.addr)] = cur_lane();
  for (obs::AnalysisObserver* a : mem_subs_) a->on_heap_alloc(ev);
}

void DejaVuEngine::on_heap_move(heap::Addr from, heap::Addr to) {
  if (track_heap_owner_) {
    auto it = heap_owner_.find(uint64_t(from));
    if (it != heap_owner_.end()) {
      uint32_t lane = it->second;
      heap_owner_.erase(it);
      heap_owner_[uint64_t(to)] = lane;
    }
  }
  for (obs::AnalysisObserver* a : mem_subs_) a->on_heap_move(from, to);
}

void DejaVuEngine::attach(vm::Vm& vm) {
  DV_CHECK_MSG(vm_ == nullptr, "engine attached twice");
  vm_ = &vm;
  // Analyzers meet the VM before any engine warmup: the warmup below
  // allocates (class preloading, buffer preallocation) and those events
  // already fan out, so on_run_begin must come first.
  for (obs::AnalysisObserver* a : analyzers_) a->on_run_begin(vm);
  if (timeline_ != nullptr)
    timeline_->span_begin("phase", "attach", logical_clock_);

  DV_CHECK_MSG(vm.thread_package().lane_count() == lane_count_,
               "engine has " << lane_count_ << " lane(s) but the VM runs "
                             << vm.thread_package().lane_count());

  if (mode_ == Mode::kReplay) {
    uint64_t fp = fingerprint_program(vm.program());
    DV_CHECK_MSG(fp == source_->meta().program_fingerprint,
                 "trace was recorded from a different program");
    // A resume starts each cursor at its cut (all 0 unless resuming from a
    // keyframe); a fresh replay at 0.
    const StreamOffsets& at = resume_offsets_;
    DV_CHECK_MSG(at.schedule.empty() || (at.schedule.size() == lane_count_ &&
                                         at.events.size() == lane_count_),
                 "resume offsets cover " << at.schedule.size() << "/"
                     << at.events.size() << " lane(s), trace has "
                     << lane_count_);
    auto offset = [](const std::vector<uint64_t>& v, uint32_t k) {
      return v.empty() ? 0 : v[k];
    };
    for (uint32_t k = 0; k < lane_count_; ++k) {
      lanes_[k].schedule_r = std::make_unique<StreamCursor>(
          *source_, StreamId::kSchedule, k, offset(at.schedule, k));
      lanes_[k].events_r = std::make_unique<StreamCursor>(
          *source_, StreamId::kEvents, k, offset(at.events, k));
    }
    if (lane_count_ > 1)
      order_r_ = std::make_unique<StreamCursor>(*source_, StreamId::kOrder, 0,
                                                at.order);
  }

  if (mode_ == Mode::kReplay && !resume_state_.empty()) {
    // Resume-style attach (flight tail): the restored snapshot already
    // contains every §2.4 side effect -- preloaded classes, warmed I/O,
    // allocated trace buffers -- so re-running the warm-up would perturb
    // the machine it is meant to keep symmetric. Restore the engine half
    // of the checkpoint instead; it re-registers the buffer root slots at
    // their restored addresses, in the original registration order.
    ByteReader er(resume_state_);
    restore_resume_state(er);
    DV_CHECK_MSG(er.at_end(), "trailing bytes in engine resume state");
    for (uint32_t k = 0; k < lane_count_; ++k) {
      LaneState& lane = lanes_[k];
      // The cut always falls right after a recorded schedule entry (the
      // safepoint fires after the triggering preempt finished writing its
      // delta and any due checkpoint block), so the lane's next entry is a
      // plain delta -- never a checkpoint block, whatever lane.preempts
      // says. Figure 2's countdown resumes at delta minus the yields the
      // lane had already burned at the cut (its record-side nyp).
      uint64_t elapsed = uint64_t(lane.nyp);
      if (lane.schedule_r->at_end()) {
        lane.schedule_exhausted = true;
        lane.nyp = 0;
        continue;
      }
      // Parked in the cursor until the switch it schedules fires.
      uint64_t delta = lane.schedule_r->get_uvarint();
      lane.nyp = int64_t(delta) - int64_t(elapsed);
    }
    resume_state_ = {};
    resume_offsets_ = {};
  } else {
    // §2.4 "Symmetry in Loading and Compilation": load the classes of
    // *both* modes, and compile their methods, before the application
    // starts.
    if (cfg_.preload_classes) {
      vm.load_synthetic_class("DejaVuRecord", 1);
      vm.load_synthetic_class("DejaVuReplay", 1);
      if (cfg_.precompile_methods) {
        vm.note_synthetic_compile("DejaVuRecord.instrument");
        vm.note_synthetic_compile("DejaVuReplay.instrument");
      }
    }

    // §2.4 I/O warm-up: exercise (and "compile") both the output and the
    // input path now, identically in both modes.
    if (cfg_.io_warmup) {
      if (cfg_.warmup_path.empty()) cfg_.warmup_path = unique_warmup_path();
      ensure_io_class("warmup");
      vm.io_warmup(cfg_.warmup_path);
    }

    if (cfg_.preallocate_buffers) ensure_buffers_allocated("attach");

    if (mode_ == Mode::kReplay) {
      for (uint32_t k = 0; k < lane_count_; ++k)
        lanes_[k].nyp = reload_nyp(lanes_[k], k);
    }
  }
  if (timeline_ != nullptr) {
    timeline_->span_end("phase", "attach", logical_clock_);
    timeline_->span_begin(
        "phase", mode_ == Mode::kRecord ? "record" : "replay", logical_clock_);
  }
}

void DejaVuEngine::ensure_buffers_allocated(const char* reason) {
  if (lanes_[0].sched_buf.allocated) return;
  (void)reason;
  auto alloc = [&](GuestBuffer& buf, const std::string& label) {
    buf.addr = vm_->alloc_engine_buffer(cfg_.buffer_capacity, label.c_str());
    vm_->register_root_slot(&buf.addr);  // lanes_ never resizes (see .hpp)
    buf.allocated = true;
  };
  for (uint32_t k = 0; k < lane_count_; ++k) {
    // Lane 0 keeps the historical labels so a single-lane heap image is
    // byte-identical to the pre-lane engine's.
    std::string suffix;
    if (k != 0) suffix.append(".").append(std::to_string(k));
    alloc(lanes_[k].sched_buf, "sched" + suffix);
    alloc(lanes_[k].event_buf, "events" + suffix);
  }
  if (lane_count_ > 1) alloc(order_buf_, "order");
}

void DejaVuEngine::ensure_io_class(const char* reason) {
  if (io_class_loaded_) return;
  (void)reason;
  if (cfg_.io_warmup) {
    // §2.4: the warm-up exercises the output path and then the input path,
    // forcing *both* I/O classes in, identically in both modes.
    vm_->load_synthetic_class("DejaVuIOWrite", 1);
    vm_->load_synthetic_class("DejaVuIORead", 1);
  } else {
    // Ablation path: record needs only the output class (flush) and replay
    // only the input class (refill) -- the asymmetry the warm-up exists to
    // prevent.
    vm_->load_synthetic_class(
        mode_ == Mode::kRecord ? "DejaVuIOWrite" : "DejaVuIORead", 1);
  }
  io_class_loaded_ = true;
}

void DejaVuEngine::mirror_bytes(GuestBuffer& buf, const uint8_t* data,
                                size_t n) {
  if (n == 0) return;
  if (c_mirror_bytes_ != nullptr) c_mirror_bytes_->add(n);
  ensure_buffers_allocated("first trace byte");
  auto& heap = vm_->guest_heap();
  const uint64_t capacity = cfg_.buffer_capacity;
  // One copy per contiguous run: a run ends only at the buffer boundary.
  while (n != 0) {
    uint64_t off = buf.pos % capacity;
    if (off == 0 && buf.pos != 0) {
      // Buffer boundary: record flushes to disk here, replay refills here.
      // Both happen at identical byte offsets, so the audited side effect
      // is symmetric.
      ensure_io_class("flush");
      vm_->audit().append(AuditKind::kIoFlush,
                          std::to_string(buf.pos), vm_->instr_count());
    }
    size_t run = size_t(std::min<uint64_t>(n, capacity - off));
    // buf.addr is re-read after the flush: its class load may have moved
    // the buffer.
    heap.set_array_bytes(heap::Addr(buf.addr), off, data, run);
    buf.pos += run;
    data += run;
    n -= run;
  }
}

void DejaVuEngine::mirror_cursor(StreamCursor& cursor, GuestBuffer& buf) {
  const std::vector<uint8_t>& p = cursor.pending_mirror();
  if (!p.empty()) {
    mirror_bytes(buf, p.data(), p.size());
    cursor.drain_mirror();
  }
}

void DejaVuEngine::before_instrumentation() {
  DV_CHECK_MSG(vm_ != nullptr, "engine event before attach");
  // §2.4 "Symmetry in Stack Overflow": the record and replay
  // instrumentation need different amounts of stack; grow eagerly to a
  // mode-independent threshold so overflow happens at identical points.
  uint32_t needed = mode_ == Mode::kRecord ? cfg_.record_stack_slots
                                           : cfg_.replay_stack_slots;
  vm_->ensure_stack_headroom(needed, cfg_.eager_stack_growth,
                             kEagerStackThreshold);

  if (!cfg_.preload_classes && !lazy_class_loaded_) {
    // Ablation path: the mode's helper class loads at first use, which
    // differs between record and replay -- the asymmetry §2.4 forbids.
    vm_->load_synthetic_class(
        mode_ == Mode::kRecord ? "DejaVuRecord" : "DejaVuReplay", 1);
    lazy_class_loaded_ = true;
  }
  if (!cfg_.precompile_methods && !lazy_method_compiled_) {
    vm_->note_synthetic_compile(mode_ == Mode::kRecord
                                    ? "DejaVuRecord.instrument"
                                    : "DejaVuReplay.instrument");
    lazy_method_compiled_ = true;
  }

  // §2.4 "Symmetry in Updating the Logical Clock": the instrumentation
  // executes a mode-dependent number of yield points. With the liveclock
  // discipline they are not counted; without it they corrupt nyp.
  if (!cfg_.pause_logical_clock) {
    uint32_t k =
        mode_ == Mode::kRecord ? kRecordInstrYields : kReplayInstrYields;
    logical_clock_ += k;
    LaneState& lane = cur_lane_state();
    lane.logical_clock += k;
    if (mode_ == Mode::kRecord) {
      lane.nyp += k;
    } else if (!lane.schedule_exhausted) {
      lane.nyp -= k;
    }
  }
}

void DejaVuEngine::record_event_bytes(const ByteWriter& w,
                                      threads::LaneId lane) {
  writer_->append(StreamId::kEvents, w.bytes().data(), w.size(), lane);
  mirror_bytes(lanes_[lane].event_buf, w.bytes().data(), w.size());
  if (h_event_bytes_ != nullptr) h_event_bytes_->record(w.size());
  if (c_trace_event_bytes_ != nullptr) c_trace_event_bytes_->add(w.size());
}

int64_t DejaVuEngine::nd_value(NdKind kind, int64_t live) {
  before_instrumentation();
  const EventTag tag = tag_of(kind);
  const threads::LaneId lane_id = cur_lane();
  int64_t v = live;
  if (mode_ == Mode::kRecord) {
    scratch_.clear();
    codec_.put_value(scratch_, lane_id, tag, live);
    record_event_bytes(scratch_, lane_id);
  } else {
    v = replay_value(tag, lane_id);
  }
  switch (kind) {
    case NdKind::kClock: c_.clock->add(); break;
    case NdKind::kInput: c_.input->add(); break;
    case NdKind::kRand: c_.rand->add(); break;
  }
  note_nd_event(tag_name(tag), v);
  return v;
}

int64_t DejaVuEngine::replay_value(EventTag expect, threads::LaneId lane_id) {
  LaneState& lane = lanes_[lane_id];
  StreamCursor& events = *lane.events_r;
  if (events.at_end()) {
    violation("event stream exhausted; expected " +
              std::string(tag_name(expect)));
    return 0;
  }
  int64_t v = 0;
  EventTag got = expect;
  std::string bad;
  try {
    got = codec_.next(events, lane_id, &v);
    if (got == EventTag::kNativeCallback) {
      // Consumed whole, so the stream stays aligned past the mismatch.
      std::string cls, method;
      std::vector<int64_t> args;
      EventCodec::read_callback(events, lane_id, &cls, &method, &args);
    }
  } catch (const VmError& e) {
    // A malformed event is a divergence, not a raw stream error
    // (non-strict callers count it and continue).
    bad = e.what();
    v = 0;
  }
  mirror_cursor(events, lane.event_buf);
  if (!bad.empty()) {
    violation(bad);
  } else if (got != expect) {
    violation(std::string("event type mismatch: expected ") +
              tag_name(expect) + ", trace has " + tag_name(got));
  }
  return v;
}

void DejaVuEngine::native_record_callback(const std::string& cls,
                                          const std::string& method,
                                          const std::vector<int64_t>& args) {
  DV_CHECK(mode_ == Mode::kRecord);
  before_instrumentation();
  scratch_.clear();
  EventCodec::put_callback(scratch_, cls, method, args);
  record_event_bytes(scratch_, cur_lane());
  c_.native_cb->add();
  note_nd_event(tag_name(EventTag::kNativeCallback), int64_t(args.size()));
}

int64_t DejaVuEngine::native_record_return(int64_t v) {
  DV_CHECK(mode_ == Mode::kRecord);
  before_instrumentation();
  const threads::LaneId lane = cur_lane();
  scratch_.clear();
  codec_.put_value(scratch_, lane, EventTag::kNativeReturn, v);
  record_event_bytes(scratch_, lane);
  c_.native_ret->add();
  note_nd_event(tag_name(EventTag::kNativeReturn), v);
  return v;
}

bool DejaVuEngine::native_replay_next(std::string* cls, std::string* method,
                                      std::vector<int64_t>* args,
                                      int64_t* ret) {
  DV_CHECK(mode_ == Mode::kReplay);
  before_instrumentation();
  *ret = 0;
  const threads::LaneId lane_id = cur_lane();
  LaneState& lane = lanes_[lane_id];
  StreamCursor& events = *lane.events_r;
  if (events.at_end()) {
    violation("event stream exhausted inside a native call");
    return false;
  }
  EventTag tag;
  int64_t v = 0;
  try {
    tag = codec_.next(events, lane_id, &v);
    if (tag == EventTag::kNativeCallback)
      EventCodec::read_callback(events, lane_id, cls, method, args);
  } catch (const VmError& e) {
    violation(std::string("native event: ") + e.what());
    return false;
  }
  if (tag == EventTag::kNativeCallback) {
    mirror_cursor(events, lane.event_buf);
    c_.native_cb->add();
    note_nd_event(tag_name(tag), int64_t(args->size()));
    return true;
  }
  if (tag == EventTag::kNativeReturn) {
    *ret = v;
    mirror_cursor(events, lane.event_buf);
    c_.native_ret->add();
    note_nd_event(tag_name(tag), v);
    return false;
  }
  violation(std::string("unexpected event inside native call: ") +
            tag_name(tag));
  return false;
}

bool DejaVuEngine::yield_point(bool hardware_bit) {
  // Figure 2, transliterated, per lane. The liveclock guard keeps
  // instrumentation re-entry from being counted.
  if (!live_clock_) return false;
  live_clock_ = false;
  bool do_switch = false;
  logical_clock_++;
  threads::LaneId lane_id = cur_lane();
  LaneState& lane = lanes_[lane_id];
  lane.logical_clock++;
  if (lane.c_clock != nullptr) lane.c_clock->add();

  if (mode_ == Mode::kRecord) {
    lane.nyp++;
    if (hardware_bit) {
      // recordThreadSwitch(nyp) -- into this lane's schedule stream.
      uint64_t delta = uint64_t(lane.nyp);
      scratch_.clear();
      scratch_.put_uvarint(delta);
      writer_->append(StreamId::kSchedule, scratch_.bytes().data(),
                      scratch_.size(), lane_id);
      mirror_bytes(lane.sched_buf, scratch_.bytes().data(), scratch_.size());
      c_.preempt->add();
      lane.preempts++;
      if (lane.c_preempts != nullptr) lane.c_preempts->add();
      if (h_sched_delta_ != nullptr) h_sched_delta_->record(delta);
      if (c_trace_sched_bytes_ != nullptr)
        c_trace_sched_bytes_->add(scratch_.size());
      // Checkpoint cadence is per lane (== the global cadence when K=1, so
      // v4 traces are unchanged). Checkpoints snapshot *global* state; the
      // order stream pins the inter-lane interleaving between them.
      if (lane.preempts % cfg_.checkpoint_interval == 0) {
        ByteWriter cw;
        collect_checkpoint().write_to(cw);
        writer_->append(StreamId::kSchedule, cw.bytes().data(), cw.size(),
                        lane_id);
        mirror_bytes(lane.sched_buf, cw.bytes().data(), cw.size());
        c_.checkpoints->add();
        if (c_trace_sched_bytes_ != nullptr)
          c_trace_sched_bytes_->add(cw.size());
        if (timeline_ != nullptr)
          timeline_->instant("schedule", "checkpoint", logical_clock_,
                             cur_tid(), "count",
                             int64_t(c_.checkpoints->value()));
      }
      // Flight epochs ride the preemption cadence, but globally (summed
      // over lanes): the safepoint itself fires later, at the next
      // instruction-loop top, where no guest thread is mid-instrumentation
      // and the whole machine is snapshotable.
      if (cfg_.flight_epoch_preempts != 0 &&
          c_.preempt->value() % cfg_.flight_epoch_preempts == 0) {
        vm_->request_safepoint();
      }
      lane.nyp = 0;
      do_switch = true;  // threadswitchbitset
    }
  } else {
    // The preemptive hardware bit is ignored during replay (Figure 2-B).
    if (!lane.schedule_exhausted) {
      lane.nyp--;
      if (lane.nyp <= 0) {
        c_.preempt->add();
        lane.preempts++;
        lane.preempt_clock = lane.logical_clock;
        if (lane.c_preempts != nullptr) lane.c_preempts->add();
        // A keyframe cuts where a flight epoch would: the safepoint after
        // this preempt.
        if (vm_->instr_count() >= keyframe_at_) vm_->request_safepoint();
        do_switch = true;
        // The firing delta's bytes reach the guest buffer now, where record
        // mirrored them; reload_nyp then reads (and parks) the next one.
        mirror_cursor(*lane.schedule_r, lane.sched_buf);
        lane.nyp = reload_nyp(lane, lane_id);
        if (h_sched_delta_ != nullptr && !lane.schedule_exhausted)
          h_sched_delta_->record(uint64_t(lane.nyp));
      }
    }
  }

  live_clock_ = true;
  for (obs::AnalysisObserver* a : analyzers_)
    a->on_yield_point(logical_clock_, do_switch);
  return do_switch;
}

int64_t DejaVuEngine::reload_nyp(LaneState& lane, threads::LaneId lane_id) {
  (void)lane_id;
  try {
    // A checkpoint follows every checkpoint_interval-th delta of this lane.
    if (lane.preempts > 0 &&
        lane.preempts % cfg_.checkpoint_interval == 0 &&
        !lane.schedule_r->at_end()) {
      Checkpoint recorded = read_checkpoint(*lane.schedule_r);
      mirror_cursor(*lane.schedule_r, lane.sched_buf);
      c_.checkpoints->add();
      if (timeline_ != nullptr)
        timeline_->instant("schedule", "checkpoint", logical_clock_,
                           cur_tid(), "count",
                           int64_t(c_.checkpoints->value()));
      check_checkpoint(recorded);
    }
    if (lane.schedule_r->at_end()) {
      lane.schedule_exhausted = true;
      return 0;
    }
    // Figure 2 needs the delta one switch ahead, but record mirrors it at
    // the switch it schedules: its bytes stay parked in the cursor until
    // yield_point mirrors them there. The buffers are still allocated at
    // read time, as an immediate mirror would, so a missing preallocation
    // stays visible.
    uint64_t delta = lane.schedule_r->get_uvarint();
    ensure_buffers_allocated("schedule read-ahead");
    return int64_t(delta);
  } catch (const ReplayDivergence&) {
    throw;  // check_checkpoint in strict mode
  } catch (const VmError&) {
    violation("schedule stream truncated mid-entry");
    lane.schedule_exhausted = true;
    return 0;
  }
}

Checkpoint DejaVuEngine::collect_checkpoint() const {
  Checkpoint c;
  c.logical_clock = logical_clock_;
  c.alloc_count = vm_->guest_heap().stats().alloc_count;
  c.class_loads = vm_->audit().count(AuditKind::kClassLoad);
  c.compiles = vm_->audit().count(AuditKind::kCompile);
  c.stack_grows = vm_->audit().count(AuditKind::kStackGrow);
  c.gc_count = vm_->guest_heap().stats().gc_count;
  c.switch_count = vm_->thread_package().switch_count();
  return c;
}

void DejaVuEngine::check_checkpoint(const Checkpoint& recorded) {
  Checkpoint mine = collect_checkpoint();
  if (!(mine == recorded)) {
    violation("checkpoint mismatch: recorded " + recorded.describe() +
              " vs replay " + mine.describe());
  }
}

// Captures the forensic context of a divergence while the engine and VM
// are still alive. Everything here is best-effort reads of live state --
// the VM may legitimately have no current frame (e.g. the final
// verification in detach runs after the last thread exited), so frame and
// disassembly stay empty in that case.
obs::DivergenceReport DejaVuEngine::capture_divergence(
    const std::string& what) const {
  obs::DivergenceReport r;
  r.what = what;
  r.logical_clock = logical_clock_;
  const LaneState& lane = lanes_[cur_lane()];
  r.nyp_remaining = lane.nyp > 0 ? uint64_t(lane.nyp) : 0;
  r.preempt_switches = c_.preempt->value();
  r.checkpoints = c_.checkpoints->value();
  if (lane.schedule_r != nullptr) {
    r.schedule_pos = lane.schedule_r->position();
    r.schedule_remaining = lane.schedule_r->remaining();
  }
  if (lane.events_r != nullptr) {
    r.events_pos = lane.events_r->position();
    r.events_remaining = lane.events_r->remaining();
  }
  for (size_t i = 0; i < recent_count_; ++i) {
    const RecentEvent& e =
        recent_[(recent_head_ + recent_.size() - recent_count_ + i) %
                recent_.size()];
    r.recent_events.push_back(
        {e.tag, uint64_t(e.value), e.clock});
  }
  if (vm_ == nullptr) return r;
  r.thread = vm_->thread_package().current();
  try {
    r.thread_name = vm_->thread_package().name(r.thread);
  } catch (const VmError&) {
  }
  try {
    vm::FrameView f = vm_->current_frame_view();
    r.frame_class = f.class_name;
    r.frame_method = f.method_name;
    r.pc = f.pc;
    r.line = f.line > 0 ? uint32_t(f.line) : 0;
    const bytecode::ClassDef* cls = vm_->program().find_class(f.class_name);
    const bytecode::MethodDef* m =
        cls != nullptr ? cls->find_method(f.method_name) : nullptr;
    if (m != nullptr && f.pc < m->code.size()) {
      size_t lo = f.pc >= 8 ? f.pc - 8 : 0;
      size_t hi = std::min(m->code.size(), size_t(f.pc) + 9);
      for (size_t pc = lo; pc < hi; ++pc) {
        std::string d = pc == f.pc ? "=> " : "   ";
        d += bytecode::disassemble_instr(vm_->program(), *m, pc);
        r.disasm.push_back(std::move(d));
      }
    }
  } catch (const VmError&) {
    // No live frame at the violation site.
  }
  return r;
}

void DejaVuEngine::violation(const std::string& what) {
  c_.violations->add();
  if (first_violation_.empty()) {
    first_violation_ = what;
    first_violation_clock_ = logical_clock_;
    divergence_ = capture_divergence(what);
  }
  if (timeline_ != nullptr)
    timeline_->instant("divergence", "violation", logical_clock_, cur_tid(),
                       "count", int64_t(c_.violations->value()));
  if (cfg_.strict) {
    // Strict-mode carry-over: with analyzers registered, aborting at the
    // first violation would discard every analyzer's partial state. Finish
    // the run non-strict instead; the violation still fails verification
    // and the artifacts are flagged post-violation via RunInfo.
    if (!analyzers_.empty()) {
      strict_carried_ = true;
      return;
    }
    ReplayDivergence e(what);
    if (divergence_.has_value()) e.set_forensics(divergence_->serialize());
    throw e;
  }
}

void DejaVuEngine::on_switch(threads::Tid from, threads::Tid to,
                             threads::SwitchReason reason) {
  // Pure host-side observability: never touches the guest, so sync and
  // preemptive switches alike can be timestamped without perturbation.
  if (c_switches_total_ != nullptr) c_switches_total_->add();
  if (timeline_ != nullptr)
    timeline_->instant("threads", threads::switch_reason_name(reason),
                       logical_clock_, to, "from", int64_t(from), "nyp",
                       cur_lane_state().nyp);
  for (obs::AnalysisObserver* a : analyzers_)
    a->on_switch(from, to, reason, vm_ != nullptr ? vm_->instr_count() : 0);
}

void DejaVuEngine::on_cross_lane(const threads::CrossLaneEvent& e) {
  handle_cross_lane(e);
}

// The deterministic merge: every inter-lane edge -- scheduler-emitted
// (dispatch, monitor hand-off, notify, join wake, interrupt) or
// engine-synthesized (heap ownership transfer) -- is appended to the order
// stream at record and verified field-by-field at replay. Per-lane logs
// replay independently between these edges; the order stream is the total
// order that stitches them back into the recorded interleaving.
void DejaVuEngine::handle_cross_lane(const threads::CrossLaneEvent& e) {
  if (lane_count_ <= 1) return;
  if (timeline_ != nullptr)
    timeline_->instant("order", threads::cross_lane_kind_name(e.kind),
                       logical_clock_, e.to, "from_lane", int64_t(e.from_lane),
                       "to_lane", int64_t(e.to_lane));
  if (mode_ == Mode::kRecord) {
    scratch_.clear();
    scratch_.put_u8(uint8_t(e.kind));
    scratch_.put_uvarint(e.from_lane);
    scratch_.put_uvarint(e.to_lane);
    scratch_.put_uvarint(e.from);
    scratch_.put_uvarint(e.to);
    scratch_.put_uvarint(e.subject);
    writer_->append(StreamId::kOrder, scratch_.bytes().data(),
                    scratch_.size());
    mirror_bytes(order_buf_, scratch_.bytes().data(), scratch_.size());
    order_seq_++;
    if (c_order_events_ != nullptr) c_order_events_->add();
    return;
  }
  if (order_r_->at_end()) {
    violation(std::string("order stream exhausted; live execution has a ") +
              threads::cross_lane_kind_name(e.kind) + " cross-lane event");
    return;
  }
  try {
    uint8_t kind = order_r_->get_u8();
    uint64_t from_lane = order_r_->get_uvarint();
    uint64_t to_lane = order_r_->get_uvarint();
    uint64_t from = order_r_->get_uvarint();
    uint64_t to = order_r_->get_uvarint();
    uint64_t subject = order_r_->get_uvarint();
    mirror_cursor(*order_r_, order_buf_);
    if (kind != uint8_t(e.kind) || from_lane != e.from_lane ||
        to_lane != e.to_lane || from != e.from || to != e.to ||
        subject != e.subject) {
      violation(std::string("cross-lane order mismatch at seq ") +
                std::to_string(order_seq_) + ": recorded " +
                threads::cross_lane_kind_name(threads::CrossLaneKind(kind)) +
                " lane " + std::to_string(from_lane) + "->" +
                std::to_string(to_lane) + " tid " + std::to_string(from) +
                "->" + std::to_string(to) + " subject " +
                std::to_string(subject) + ", live " +
                threads::cross_lane_kind_name(e.kind) + " lane " +
                std::to_string(e.from_lane) + "->" +
                std::to_string(e.to_lane) + " tid " + std::to_string(e.from) +
                "->" + std::to_string(e.to) + " subject " +
                std::to_string(e.subject));
    }
  } catch (const ReplayDivergence&) {
    throw;  // the mismatch violation above, in strict mode
  } catch (const VmError&) {
    violation("order stream truncated mid-event");
    return;
  }
  order_seq_++;
  if (c_order_events_ != nullptr) c_order_events_->add();
  // Fan the verified edge to the analyzers (replay-only by construction:
  // record-mode engines reject add_analyzer, so this loop is empty there).
  for (obs::AnalysisObserver* a : analyzers_) a->on_cross_lane(e);
}

void DejaVuEngine::detach(vm::Vm& vm) {
  if (detached_) return;
  detached_ = true;
  vm::BehaviorSummary s = vm.summary();
  if (g_logical_clock_ != nullptr)
    g_logical_clock_->set(int64_t(logical_clock_));
  if (timeline_ != nullptr)
    timeline_->span_end(
        "phase", mode_ == Mode::kRecord ? "record" : "replay", logical_clock_);

  if (mode_ == Mode::kRecord) {
    TraceMeta meta;
    meta.program_fingerprint = fingerprint_program(vm.program());
    meta.checkpoint_interval = cfg_.checkpoint_interval;
    meta.preempt_switches = c_.preempt->value();
    meta.nd_events = stats().nd_events();
    meta.final_checkpoint = collect_checkpoint();
    meta.final_output_hash = s.output_hash;
    meta.final_heap_hash = s.heap_hash;
    meta.final_switch_seq_hash = s.switch_seq_hash;
    meta.final_instr_count = s.instr_count;
    meta.final_audit_digest = s.audit_digest;
    meta.lane_count = lane_count_;
    if (lane_count_ > 1) {
      meta.order_events = order_seq_;
      for (const LaneState& l : lanes_) {
        meta.lane_clocks.push_back(l.logical_clock);
        meta.lane_preempts.push_back(l.preempts);
      }
    }
    writer_->finish(meta);
    return;
  }

  // Replay verification: both streams consumed, final state identical.
  if (timeline_ != nullptr)
    timeline_->span_begin("phase", "verify", logical_clock_);
  const TraceMeta& meta = source_->meta();
  for (uint32_t k = 0; k < lane_count_; ++k) {
    LaneState& lane = lanes_[k];
    std::string where =
        lane_count_ > 1 ? " (lane " + std::to_string(k) + ")" : "";
    if (!lane.events_r->at_end()) {
      violation("events not exhausted: " +
                std::to_string(lane.events_r->remaining()) + " bytes left" +
                where);
    }
    if (!lane.schedule_exhausted) {
      violation("schedule not exhausted: a recorded preemption never "
                "happened on replay" + where);
    }
  }
  if (lane_count_ > 1) {
    if (order_r_ != nullptr && !order_r_->at_end()) {
      violation("order stream not exhausted: a recorded cross-lane event "
                "never happened on replay");
    }
    if (order_seq_ != meta.order_events) {
      violation("cross-lane order count mismatch: replay " +
                std::to_string(order_seq_) + " vs recorded " +
                std::to_string(meta.order_events));
    }
    for (uint32_t k = 0; k < lane_count_ && k < meta.lane_clocks.size();
         ++k) {
      if (lanes_[k].logical_clock != meta.lane_clocks[k]) {
        violation("lane " + std::to_string(k) + " clock mismatch: replay " +
                  std::to_string(lanes_[k].logical_clock) + " vs recorded " +
                  std::to_string(meta.lane_clocks[k]));
      }
    }
    for (uint32_t k = 0; k < lane_count_ && k < meta.lane_preempts.size();
         ++k) {
      if (lanes_[k].preempts != meta.lane_preempts[k]) {
        violation("lane " + std::to_string(k) +
                  " preempt count mismatch: replay " +
                  std::to_string(lanes_[k].preempts) + " vs recorded " +
                  std::to_string(meta.lane_preempts[k]));
      }
    }
  }
  check_checkpoint(meta.final_checkpoint);
  auto verify = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      violation(std::string("final ") + what + " mismatch: replay " +
                std::to_string(got) + " vs recorded " + std::to_string(want));
    }
  };
  verify("output hash", s.output_hash, meta.final_output_hash);
  verify("switch-sequence hash", s.switch_seq_hash,
         meta.final_switch_seq_hash);
  verify("instruction count", s.instr_count, meta.final_instr_count);
  verify("heap image hash", s.heap_hash, meta.final_heap_hash);
  verify("audit digest", s.audit_digest, meta.final_audit_digest);
  verified_ok_ = c_.violations->value() == 0;
  if (timeline_ != nullptr)
    timeline_->span_end("phase", "verify", logical_clock_);
  if (!analyzers_.empty()) {
    obs::RunInfo info;
    info.instr_count = s.instr_count;
    info.logical_clock = logical_clock_;
    info.switch_count = s.switch_count;
    info.verified = verified_ok_;
    info.post_violation = strict_carried_;
    for (obs::AnalysisObserver* a : analyzers_) a->on_run_end(info);
  }
}

void DejaVuEngine::on_safepoint(vm::Vm& vm) {
  if (mode_ == Mode::kReplay) {
    if (keyframe_at_ == kNoKeyframe) return;
    keyframe_at_ = kNoKeyframe;
    // The sink may arm the next keyframe, replacing keyframe_sink_.
    KeyframeSink sink = std::move(keyframe_sink_);
    sink(resume_point());
    return;
  }
  if (cfg_.flight_epoch_preempts == 0 || writer_ == nullptr) return;
  // Entry-aligned cut: flush every partially filled chunk so all bytes
  // written so far seal into the current epoch; everything the run writes
  // after this call lands in the next one.
  writer_->flush();
  writer_->sink().begin_epoch(
      [this, &vm](ByteWriter& vm_snapshot, ByteWriter& engine_state) {
        vm.capture_snapshot(vm_snapshot);
        serialize_resume_state(engine_state);
      },
      logical_clock_, vm.instr_count());
  if (timeline_ != nullptr)
    timeline_->instant("flight", "epoch", logical_clock_, cur_tid(), "instr",
                       int64_t(vm.instr_count()));
}

void DejaVuEngine::prepare_resume(std::span<const uint8_t> engine_state,
                                  StreamOffsets offsets) {
  DV_CHECK_MSG(mode_ == Mode::kReplay, "prepare_resume on a record engine");
  DV_CHECK_MSG(vm_ == nullptr, "prepare_resume after attach");
  DV_CHECK_MSG(!engine_state.empty(), "empty engine resume state");
  resume_state_ = engine_state;
  resume_offsets_ = std::move(offsets);
}

ResumePoint DejaVuEngine::resume_point() const {
  DV_CHECK_MSG(vm_ != nullptr, "resume point before attach");
  ResumePoint p;
  p.instr = vm_->instr_count();
  ByteWriter vw;
  vm_->capture_snapshot(vw);
  ByteWriter ew;
  serialize_resume_state(ew);
  p.checkpoint = make_flight_checkpoint(vw.bytes(), ew.bytes());
  // Record: every byte appended so far. Replay: every byte consumed, less
  // the schedule delta each lane reads one switch ahead (still parked in
  // its cursor's pending mirror), which a recording has not yet written.
  auto at = [this](const StreamCursor* c, StreamId id, threads::LaneId k) {
    if (mode_ == Mode::kRecord) return writer_->stream_bytes(id, k);
    return c->position() - c->pending_mirror().size();
  };
  for (uint32_t k = 0; k < lane_count_; ++k) {
    p.offsets.schedule.push_back(
        at(lanes_[k].schedule_r.get(), StreamId::kSchedule, k));
    p.offsets.events.push_back(
        at(lanes_[k].events_r.get(), StreamId::kEvents, k));
  }
  if (lane_count_ > 1) p.offsets.order = at(order_r_.get(), StreamId::kOrder, 0);
  return p;
}

void DejaVuEngine::arm_keyframe(uint64_t instr, KeyframeSink sink) {
  DV_CHECK_MSG(mode_ == Mode::kReplay, "arm_keyframe on a record engine");
  keyframe_at_ = instr;
  keyframe_sink_ = std::move(sink);
}

void DejaVuEngine::serialize_resume_state(ByteWriter& w) const {
  DV_CHECK_MSG(live_clock_, "flight checkpoint inside instrumentation");
  w.put_u32_fixed(kEngineStateMagic);
  w.put_u32_fixed(kEngineStateVersion);
  w.put_uvarint(lane_count_);
  codec_.save(w);
  w.put_uvarint(cfg_.buffer_capacity);
  w.put_uvarint(logical_clock_);
  w.put_u8(io_class_loaded_ ? 1 : 0);
  w.put_u8(lazy_class_loaded_ ? 1 : 0);
  w.put_u8(lazy_method_compiled_ ? 1 : 0);
  // Core counters, absolute: tail stats continue the full run's numbers
  // and the Figure 2 checkpoint cadence (lane.preempts % interval) stays
  // phase-aligned with the recording.
  w.put_uvarint(c_.clock->value());
  w.put_uvarint(c_.input->value());
  w.put_uvarint(c_.rand->value());
  w.put_uvarint(c_.native_ret->value());
  w.put_uvarint(c_.native_cb->value());
  w.put_uvarint(c_.preempt->value());
  w.put_uvarint(c_.checkpoints->value());
  for (const LaneState& l : lanes_) {
    // Yields since the lane's last preempt: a recording counts them in
    // nyp, a replay (whose nyp counts down) from the lane's clock.
    if (mode_ == Mode::kRecord) {
      DV_CHECK_MSG(l.nyp >= 0, "negative record-side nyp at safepoint");
      w.put_uvarint(uint64_t(l.nyp));
    } else {
      w.put_uvarint(l.logical_clock - l.preempt_clock);
    }
    w.put_uvarint(l.logical_clock);
    w.put_uvarint(l.preempts);
    w.put_u8(l.sched_buf.allocated ? 1 : 0);
    w.put_uvarint(l.sched_buf.addr);
    w.put_uvarint(l.sched_buf.pos);
    w.put_u8(l.event_buf.allocated ? 1 : 0);
    w.put_uvarint(l.event_buf.addr);
    w.put_uvarint(l.event_buf.pos);
  }
  w.put_u8(order_buf_.allocated ? 1 : 0);
  w.put_uvarint(order_buf_.addr);
  w.put_uvarint(order_buf_.pos);
  w.put_uvarint(order_seq_);
  // heap_owner_ is only ever probed point-wise, but its serialized form
  // must still be canonical: sort by address.
  std::vector<std::pair<uint64_t, uint32_t>> owners(heap_owner_.begin(),
                                                    heap_owner_.end());
  std::sort(owners.begin(), owners.end());
  w.put_uvarint(owners.size());
  for (const auto& [addr, lane] : owners) {
    w.put_uvarint(addr);
    w.put_uvarint(lane);
  }
}

void DejaVuEngine::restore_resume_state(ByteReader& r) {
  read_state_head(r, lane_count_, codec_);
  // Mirror offsets are positions mod capacity; the tail must use the
  // recording's capacity whatever the caller configured.
  cfg_.buffer_capacity = uint32_t(r.get_uvarint());
  logical_clock_ = r.get_uvarint();
  io_class_loaded_ = r.get_u8() != 0;
  lazy_class_loaded_ = r.get_u8() != 0;
  lazy_method_compiled_ = r.get_u8() != 0;
  c_.clock->add(r.get_uvarint());
  c_.input->add(r.get_uvarint());
  c_.rand->add(r.get_uvarint());
  c_.native_ret->add(r.get_uvarint());
  c_.native_cb->add(r.get_uvarint());
  c_.preempt->add(r.get_uvarint());
  c_.checkpoints->add(r.get_uvarint());
  for (LaneState& l : lanes_) {
    uint64_t elapsed = r.get_uvarint();
    l.nyp = int64_t(elapsed);  // record-side elapsed; attach rebases
    l.logical_clock = r.get_uvarint();
    DV_CHECK_MSG(elapsed <= l.logical_clock,
                 "resume state: " << elapsed << " yield(s) since the last "
                                  << "preempt exceed the lane clock "
                                  << l.logical_clock);
    l.preempt_clock = l.logical_clock - elapsed;
    l.preempts = r.get_uvarint();
    if (l.c_clock != nullptr) l.c_clock->add(l.logical_clock);
    if (l.c_preempts != nullptr) l.c_preempts->add(l.preempts);
    l.sched_buf.allocated = r.get_u8() != 0;
    l.sched_buf.addr = r.get_uvarint();
    l.sched_buf.pos = r.get_uvarint();
    l.event_buf.allocated = r.get_u8() != 0;
    l.event_buf.addr = r.get_uvarint();
    l.event_buf.pos = r.get_uvarint();
    if (l.sched_buf.allocated) vm_->register_root_slot(&l.sched_buf.addr);
    if (l.event_buf.allocated) vm_->register_root_slot(&l.event_buf.addr);
  }
  order_buf_.allocated = r.get_u8() != 0;
  order_buf_.addr = r.get_uvarint();
  order_buf_.pos = r.get_uvarint();
  if (order_buf_.allocated) vm_->register_root_slot(&order_buf_.addr);
  order_seq_ = r.get_uvarint();
  if (c_order_events_ != nullptr) c_order_events_->add(order_seq_);
  heap_owner_.clear();
  uint64_t owners = r.get_uvarint();
  for (uint64_t i = 0; i < owners; ++i) {
    uint64_t addr = r.get_uvarint();
    heap_owner_[addr] = uint32_t(r.get_uvarint());
  }
}

void load_resume_codec(std::span<const uint8_t> engine_state,
                       uint32_t lanes, EventCodec& codec) {
  ByteReader r(engine_state);
  read_state_head(r, lanes, codec);
}

std::vector<uint8_t> make_flight_checkpoint(
    std::span<const uint8_t> vm_snapshot,
    std::span<const uint8_t> engine_state) {
  // Exact size (two fixed words, two varints of at most 10 bytes): flight
  // tails and keyframes keep the blob, so it carries no growth slack.
  ByteWriter w;
  w.reserve(8 + 2 * 10 + vm_snapshot.size() + engine_state.size());
  w.put_u32_fixed(kFlightCheckpointMagic);
  w.put_u32_fixed(kFlightCheckpointVersion);
  w.put_uvarint(vm_snapshot.size());
  w.put_bytes(vm_snapshot.data(), vm_snapshot.size());
  w.put_uvarint(engine_state.size());
  w.put_bytes(engine_state.data(), engine_state.size());
  return w.take();
}

FlightCheckpointView split_flight_checkpoint(std::span<const uint8_t> blob) {
  ByteReader r(blob);
  DV_CHECK_MSG(r.get_u32_fixed() == kFlightCheckpointMagic,
               "bad flight checkpoint magic");
  DV_CHECK_MSG(r.get_u32_fixed() == kFlightCheckpointVersion,
               "unsupported flight checkpoint version");
  auto half = [&r, blob](const char* what) {
    uint64_t n = r.get_uvarint();
    DV_CHECK_MSG(n <= r.remaining(),
                 "flight checkpoint " << what << " length " << n
                     << " at offset " << r.position() << " exceeds the "
                     << r.remaining() << " byte(s) left");
    std::span<const uint8_t> view = blob.subspan(r.position(), size_t(n));
    r.skip(size_t(n));
    return view;
  };
  FlightCheckpointView v;
  v.vm_snapshot = half("VM snapshot");
  v.engine_state = half("engine state");
  DV_CHECK_MSG(r.at_end(), "trailing bytes in flight checkpoint");
  return v;
}

}  // namespace dejavu::replay
