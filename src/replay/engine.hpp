// The DejaVu engine: record/replay via symmetric instrumentation.
//
// One DejaVuEngine is installed into a Vm as its ExecHooks. Its mode is
// fixed at construction: record mode writes through a TraceSink, replay
// mode reads a TraceSource. replay::RecordSession and replay::ReplaySession
// (session.hpp) build the engine and VM of every run. The engine implements
// the paper's mechanisms:
//
//  * Figure 2's yield-point protocol. Record mode counts live yield points
//    (`nyp`) and logs the delta whenever the hardware timer bit forces a
//    preemptive switch. Replay mode counts the logged delta *down* and
//    forces the switch when it reaches zero, ignoring the hardware bit.
//    Synchronization-induced switches are never logged: because the engine
//    replays the entire thread package's inputs, those switches replay
//    themselves (§2.2).
//
//  * The non-deterministic event log (§2.1, §2.5): wall-clock reads,
//    inputs, randomness, native returns and callbacks are written in
//    record mode and substituted in replay mode, both through the
//    EventCodec of the trace's version (a v6 trace predicts clock reads
//    per lane; event_codec.hpp).
//
//  * Symmetric instrumentation (§2.4). The engine's own side effects are
//    forced identical in both modes: its helper classes are pre-loaded and
//    pre-compiled at attach; its guest trace buffers are pre-allocated and
//    mirror the *same* byte stream in both modes (record writes what replay
//    later re-reads, so even the buffer contents match); I/O is warmed up
//    by writing-then-reading a temp file; the activation stack is grown
//    eagerly before instrumentation whose stack needs differ by mode; and
//    the logical clock pauses (`liveclock`) across the modeled
//    instrumentation yield points, whose count differs by mode.
//
// Every symmetry mechanism can be disabled through SymmetryConfig -- that
// is the ablation experiment (E6). Checkpoints embedded in the schedule
// stream let replay *detect* the resulting divergences instead of silently
// corrupting the run.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/analysis/analysis.hpp"
#include "src/obs/divergence.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeline.hpp"
#include "src/replay/event_codec.hpp"
#include "src/replay/trace.hpp"
#include "src/replay/trace_io.hpp"
#include "src/vm/hooks.hpp"
#include "src/vm/vm.hpp"

namespace dejavu::replay {

enum class Mode : uint8_t { kRecord, kReplay };

// Knobs for §2.4's machinery. Defaults = the paper's design. The *_cost
// fields model the footprint of the (in the paper, Java-level)
// instrumentation, which genuinely differs between record and replay --
// that asymmetry is exactly what the symmetry mechanisms neutralize.
struct SymmetryConfig {
  bool preallocate_buffers = true;
  bool preload_classes = true;
  bool precompile_methods = true;
  bool eager_stack_growth = true;
  bool pause_logical_clock = true;  // the liveclock flag of Figure 2
  bool io_warmup = true;

  // Scheduler lanes (record mode; replay takes the count from the trace
  // meta). 1 = the classic single-lane engine (into a v4 sink,
  // byte-identical to the pre-lane code path). K>1 records one
  // schedule/events stream pair per lane plus the cross-lane order stream,
  // which needs a v5 or v6 sink. Must match VmOptions::lanes of the
  // recorded VM.
  uint32_t lanes = 1;

  uint32_t checkpoint_interval = 64;   // switches between checkpoints
  uint32_t buffer_capacity = 1 << 16;  // guest trace-buffer bytes

  // Flight recorder (src/flight): when nonzero, record mode arms a VM
  // safepoint every N-th preemptive switch (counted across all lanes). At
  // the safepoint the engine flushes the trace writer (sealing the current
  // epoch at an entry boundary) and hands the sink a resume checkpoint via
  // TraceSink::begin_epoch. 0 = off; flipping it never changes the trace
  // bytes, only how the sink may window them.
  uint32_t flight_epoch_preempts = 0;

  // Record-side trace chunking (not symmetry-relevant: chunk geometry is
  // invisible to the byte streams, so record and replay may differ).
  uint32_t trace_chunk_bytes = uint32_t(kDefaultChunkBytes);

  // Modeled per-event instrumentation stack costs (record / replay
  // differ). The yield-point costs and the eager-growth bound are fixed
  // constants in engine.cpp.
  uint32_t record_stack_slots = 6;
  uint32_t replay_stack_slots = 9;

  // If true, any detected divergence throws ReplayDivergence; otherwise it
  // is counted in stats (the ablation bench runs non-strict).
  bool strict = true;

  // I/O warm-up probe file. Empty = a path unique to this engine instance
  // is chosen at attach, so concurrent record sessions never collide. The
  // path never influences recorded behaviour (the warm-up audit detail is
  // path-independent), so record and replay may use different paths.
  std::string warmup_path;

  // Host-side telemetry knobs (§2.4-safe: flipping these never changes
  // guest behaviour or trace bytes; tests/obs asserts byte identity).
  obs::ObsConfig obs;
};

// A plain snapshot of the engine's core counters. The authoritative store
// is the engine's obs::MetricRegistry (pre-allocated at construction, one
// pointer bump per event); stats() materializes this view on demand.
struct EngineStats {
  uint64_t clock_events = 0;
  uint64_t input_events = 0;
  uint64_t rand_events = 0;
  uint64_t native_returns = 0;
  uint64_t native_callbacks = 0;
  uint64_t preempt_switches = 0;
  uint64_t checkpoints = 0;
  uint64_t symmetry_violations = 0;
  std::string first_violation;
  uint64_t first_violation_clock = 0;  // logical clock at first violation
  bool verified_ok = false;  // replay only: final behaviour matched

  uint64_t nd_events() const {
    return clock_events + input_events + rand_events + native_returns +
           native_callbacks;
  }
};

// Where each stream stood at a cut: bytes written (record) or consumed
// (replay), per lane for schedule and events, plus the cross-lane order
// stream. A resumed replay's cursors start reading there; an empty vector
// means offset 0 for every lane, which is a flight tail's case (its streams
// begin at its checkpoint).
struct StreamOffsets {
  std::vector<uint64_t> schedule, events;
  uint64_t order = 0;
};

// A cut a replay can resume from: the flight checkpoint a recording takes
// at a preempt-aligned safepoint (make_flight_checkpoint's blob), and the
// stream offsets at that cut.
struct ResumePoint {
  std::vector<uint8_t> checkpoint;
  StreamOffsets offsets;
  uint64_t instr = 0;  // VM instruction count at the cut
};

class DejaVuEngine : public vm::ExecHooks {
 public:
  // Record mode: chunks are flushed to the sink as recording proceeds, so
  // record-side memory stays O(chunk) whatever the sink does with them.
  // replay::RecordSession builds every recording engine; the default
  // constructor records a single-lane run into a throwaway in-memory sink.
  DejaVuEngine() : DejaVuEngine(std::make_unique<VectorTraceSink>()) {}
  explicit DejaVuEngine(std::unique_ptr<TraceSink> sink,
                        SymmetryConfig cfg = {});
  // Replay mode streaming from a source (a file on disk, or a TraceFile
  // held in memory); chunks are pulled on demand. Built by
  // replay::ReplaySession.
  DejaVuEngine(std::unique_ptr<TraceSource> source, SymmetryConfig cfg = {});
  ~DejaVuEngine() override;

  Mode mode() const { return mode_; }
  EngineStats stats() const;

  // ---- telemetry (host-side only; see src/obs) ---------------------------
  // Every registered metric, including the core counters behind stats().
  obs::MetricsSnapshot metrics() const { return registry_.snapshot(); }
  // Timeline events captured so far (empty unless cfg.obs.timeline).
  std::vector<obs::TimelineEvent> timeline_events() const;
  // Forensics captured at the *first* divergence (strict or not). In strict
  // mode the same report rides the thrown ReplayDivergence's forensics().
  const std::optional<obs::DivergenceReport>& divergence() const {
    return divergence_;
  }

  // ---- mid-trace resume (driven by ReplaySession) ------------------------
  // Replay mode, before the VM boots: arm a mid-trace resume from the
  // engine half of a flight checkpoint, with each stream's cursor starting
  // at `offsets`. The paired Vm must boot_from_snapshot() with the VM half;
  // the engine's attach (fired from there, after restore) then performs a
  // resume-style attach -- no class preloading, I/O warm-up or buffer
  // preallocation, because the snapshot already contains every one of
  // those side effects.
  // `engine_state` is read in place, so its bytes must outlive the VM's
  // boot_from_snapshot (where the attach consumes it).
  void prepare_resume(std::span<const uint8_t> engine_state,
                      StreamOffsets offsets = {});

  // The resume point at the current cut. Must be called at a safepoint
  // (a loop top outside instrumentation), after attach. A replay engine
  // emits the bytes a recording engine emits at the same cut: the same VM
  // snapshot, the same engine state and the same stream offsets.
  ResumePoint resume_point() const;

  // ---- keyframes (replay mode; driven by the time-travel debugger) ------
  // Arms a VM safepoint at the first preempt at or past VM instruction
  // `instr`; there the engine hands `sink` the resume_point(). One-shot:
  // the sink may arm the next keyframe. Unarmed, each replayed preempt
  // pays one untaken branch.
  using KeyframeSink = std::function<void(ResumePoint)>;
  void arm_keyframe(uint64_t instr, KeyframeSink sink);

  // ---- replay-time analysis fan-out (src/obs/analysis) -------------------
  // Registers an analyzer (not owned; must outlive the run). Replay mode
  // only, before the VM boots (hooks.hpp: subscriptions are read once, when
  // the VM wires its observers): analyzers can never see -- or perturb -- a
  // recording. The engine turns on VM instrumentation for the union of the
  // analyzers' subscriptions; with none registered every wants_* predicate
  // stays false and the VM hot path is untouched.
  void add_analyzer(obs::AnalysisObserver* a);
  // Stream probe points (bytes consumed so far) for the analyzer-symmetry
  // tests: identical positions with analyzers on vs off proves analysis
  // never changes trace consumption.
  uint64_t schedule_stream_pos() const {
    uint64_t n = 0;
    for (const LaneState& l : lanes_)
      if (l.schedule_r != nullptr) n += l.schedule_r->position();
    return n;
  }
  uint64_t events_stream_pos() const {
    uint64_t n = 0;
    for (const LaneState& l : lanes_)
      if (l.events_r != nullptr) n += l.events_r->position();
    return n;
  }

  uint32_t lane_count() const { return lane_count_; }
  // Cross-lane order records written (record) or verified (replay) so far.
  uint64_t order_events_seen() const { return order_seq_; }

  // ---- ExecHooks ---------------------------------------------------------
  void attach(vm::Vm& vm) override;
  void detach(vm::Vm& vm) override;
  bool yield_point(bool hardware_bit) override;
  int64_t nd_value(vm::NdKind kind, int64_t live) override;
  bool native_executes() override { return mode_ == Mode::kRecord; }
  void native_record_callback(const std::string& cls,
                              const std::string& method,
                              const std::vector<int64_t>& args) override;
  int64_t native_record_return(int64_t v) override;
  bool native_replay_next(std::string* cls, std::string* method,
                          std::vector<int64_t>* args, int64_t* ret) override;
  void on_switch(threads::Tid from, threads::Tid to,
                 threads::SwitchReason reason) override;
  // Record mode + flight_epoch_preempts: capture the paired VM/engine
  // checkpoint and open a new epoch at the sink. Replay mode with a
  // keyframe armed: hand the resume point to the keyframe sink. No-op
  // otherwise.
  void on_safepoint(vm::Vm& vm) override;
  // Cross-lane order events (K>1 lanes only): record mode appends each to
  // the trace's order stream; replay mode verifies the live event against
  // the recorded one -- the deterministic merge that makes parallel lane
  // replay equivalent to the recorded interleaving.
  void on_cross_lane(const threads::CrossLaneEvent& e) override;
  // Fine-grained analysis events: enabled only when a registered analyzer
  // subscribes (replay mode by construction). on_heap_read forwards the
  // value by copy -- analyzers can observe but never substitute it.
  bool wants_instruction_events() const override {
    return !instr_subs_.empty();
  }
  void on_instruction(const vm::InstrEvent& ev) override;
  bool wants_monitor_events() const override { return !mon_subs_.empty(); }
  void on_monitor_event(const vm::MonitorEvent& ev) override;
  bool wants_memory_events() const override {
    // Heap-ownership tracking (K>1) needs the same VM event taps as a
    // memory analyzer; both modes enable them identically, so the taps
    // cannot introduce a record/replay asymmetry.
    return !mem_subs_.empty() || track_heap_owner_;
  }
  void on_heap_read(heap::Addr obj, uint32_t slot, int64_t* value,
                    bool is_ref) override;
  void on_heap_write(heap::Addr obj, uint32_t slot, int64_t value,
                     bool is_ref) override;
  void on_heap_alloc(const vm::AllocEvent& ev) override;
  void on_heap_move(heap::Addr from, heap::Addr to) override;
  bool wants_thread_events() const override {
    return !thread_subs_.empty();
  }
  void on_thread_event(const vm::ThreadEvent& ev) override;

  // Strict-mode carry-over: true when cfg.strict was set, analyzers were
  // registered, and a violation occurred -- the engine finished the run
  // non-strict so the analyzer artifacts are complete, and flags them as
  // describing a post-violation execution instead of throwing.
  bool strict_carried_over() const { return strict_carried_; }

 private:
  // One guest-resident trace buffer (schedule or events). The host-side
  // stream is authoritative; the guest byte array mirrors it so that both
  // modes leave identical heap state ("DejaVu ... uses the same buffer to
  // store captured information in record mode and to store captured
  // information read from disk in replay mode").
  struct GuestBuffer {
    uint64_t addr = 0;  // guest byte[]; registered as a GC root
    uint64_t pos = 0;   // running byte offset (mod capacity in the guest)
    bool allocated = false;
  };

  // Per-lane Figure 2 state. Each lane runs the yield-point protocol over
  // its own schedule/events streams, logical clock and guest mirror
  // buffers; lane 0 of a single-lane engine is exactly the pre-lane global
  // state (same stream ids, same buffer labels, same checkpoint cadence).
  struct LaneState {
    int64_t nyp = 0;  // record: count since last preemptive switch;
                      // replay: countdown to the next one
    bool schedule_exhausted = false;  // replay: no recorded switches remain
    uint64_t logical_clock = 0;       // live yield points on this lane
    uint64_t preempts = 0;            // preemptive switches on this lane
    // Replay: logical_clock at the lane's last preempt, so a replay cut
    // can state the record-side nyp (yields since that preempt).
    uint64_t preempt_clock = 0;
    std::unique_ptr<StreamCursor> schedule_r, events_r;  // replay cursors
    GuestBuffer sched_buf, event_buf;
    // Per-lane telemetry; registered only when lane_count_ > 1 so a
    // single-lane engine's metric snapshot is unchanged.
    obs::Counter* c_preempts = nullptr;
    obs::Counter* c_clock = nullptr;
  };

  threads::LaneId cur_lane() const;
  LaneState& cur_lane_state() { return lanes_[cur_lane()]; }

  void ensure_buffers_allocated(const char* reason);
  void ensure_io_class(const char* reason);
  void mirror_bytes(GuestBuffer& buf, const uint8_t* data, size_t n);
  // Mirror (and drain) the bytes the cursor consumed since the last drain.
  void mirror_cursor(StreamCursor& cursor, GuestBuffer& buf);
  void before_instrumentation();
  void record_event_bytes(const ByteWriter& w, threads::LaneId lane);
  // Replay: the lane's next event, which must be a value event of kind
  // `expect`; its value, or 0 after a violation.
  int64_t replay_value(EventTag expect, threads::LaneId lane);
  // Read the lane's next schedule delta (and the due checkpoint, which is
  // mirrored at once). The delta's bytes stay parked in the cursor's
  // pending mirror until the switch it schedules fires.
  int64_t reload_nyp(LaneState& lane, threads::LaneId lane_id);
  Checkpoint collect_checkpoint() const;
  void check_checkpoint(const Checkpoint& recorded);
  void violation(const std::string& what);
  // Shared record/verify path for package-emitted and engine-synthesized
  // (heap-transfer) cross-lane events.
  void handle_cross_lane(const threads::CrossLaneEvent& e);

  // Flight checkpoint halves (a cut writes, resume attach reads).
  void serialize_resume_state(ByteWriter& w) const;
  void restore_resume_state(ByteReader& r);

  // Fixes the lane count (record: cfg.lanes; replay: the trace meta).
  void init_lanes(uint32_t lanes);
  // Telemetry plumbing (all host-side; registered before attach so the hot
  // path never allocates).
  void init_obs();
  uint32_t cur_tid() const;
  void note_nd_event(const char* tag, int64_t value);
  obs::DivergenceReport capture_divergence(const std::string& what) const;

  Mode mode_;
  SymmetryConfig cfg_;
  vm::Vm* vm_ = nullptr;

  // Core counters: authoritative storage for EngineStats, owned by the
  // registry; one pointer bump per event on the hot path.
  struct Counters {
    obs::Counter* clock = nullptr;
    obs::Counter* input = nullptr;
    obs::Counter* rand = nullptr;
    obs::Counter* native_ret = nullptr;
    obs::Counter* native_cb = nullptr;
    obs::Counter* preempt = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* violations = nullptr;
  };
  obs::MetricRegistry registry_;
  Counters c_;
  // Optional extras (cfg_.obs.metrics); null when disabled.
  obs::Histogram* h_sched_delta_ = nullptr;
  obs::Histogram* h_event_bytes_ = nullptr;
  obs::Counter* c_trace_sched_bytes_ = nullptr;
  obs::Counter* c_trace_event_bytes_ = nullptr;
  obs::Counter* c_mirror_bytes_ = nullptr;
  obs::Counter* c_switches_total_ = nullptr;
  obs::Gauge* g_logical_clock_ = nullptr;
  std::unique_ptr<obs::Timeline> timeline_;  // null unless cfg_.obs.timeline

  // Flight-recorder ring of recently consumed nd-events, for forensics.
  // POD entries with static-string tags: updating it never allocates.
  struct RecentEvent {
    const char* tag = "";
    int64_t value = 0;
    uint64_t clock = 0;
  };
  std::array<RecentEvent, 16> recent_{};
  size_t recent_head_ = 0;   // next write slot
  size_t recent_count_ = 0;  // min(events seen, ring size)

  std::string first_violation_;
  uint64_t first_violation_clock_ = 0;
  bool verified_ok_ = false;
  bool strict_carried_ = false;  // strict + analyzers: finished non-strict
  std::optional<obs::DivergenceReport> divergence_;

  // Figure 2 state. The global logical clock is the sum of the per-lane
  // clocks and feeds checkpoints; per-lane clocks live in LaneState.
  bool live_clock_ = true;
  uint64_t logical_clock_ = 0;  // live yield points since start, all lanes
  bool lazy_class_loaded_ = false;    // ablation paths (§2.4 disabled)
  bool lazy_method_compiled_ = false;

  // Lane-structured state. lane_count_ is fixed at construction (record:
  // cfg.lanes; replay: the trace meta) and lanes_ never resizes after --
  // guest-buffer root slots point into it.
  uint32_t lane_count_ = 1;
  std::vector<LaneState> lanes_;
  // Cross-lane order stream (lane_count_ > 1 only).
  std::unique_ptr<StreamCursor> order_r_;  // replay
  GuestBuffer order_buf_;
  uint64_t order_seq_ = 0;  // records written (record) / verified (replay)
  obs::Counter* c_order_events_ = nullptr;  // only when lane_count_ > 1
  // Shared-heap ownership tracking (lane_count_ > 1, both modes): last
  // writing lane per object; a write from another lane is a kHeapTransfer
  // order event. Reads never transfer. The map is only probed point-wise
  // (never iterated), so its ordering cannot leak into behaviour.
  bool track_heap_owner_ = false;
  std::unordered_map<uint64_t, uint32_t> heap_owner_;

  // Record side: chunked writer over the sink.
  std::unique_ptr<TraceWriter> writer_;
  // Record side: the one entry being encoded (an nd value, a native event,
  // a schedule delta, an order event), cleared and reused so the hot path
  // never allocates. Nothing that runs while an entry is live -- append,
  // mirror_bytes -- encodes another one; the rare checkpoint and flight
  // blocks keep their own writers.
  ByteWriter scratch_;

  // Replay side: streamed from a source; per-lane cursors live in lanes_.
  std::unique_ptr<TraceSource> source_;

  // Replay-time analysis fan-out (empty in record mode by construction).
  std::vector<obs::AnalysisObserver*> analyzers_;
  // The subscribers of each fine-grained event family, in attach order,
  // read once from the analyzers' wants_*() at add_analyzer.
  std::vector<obs::AnalysisObserver*> instr_subs_;
  std::vector<obs::AnalysisObserver*> mon_subs_;
  std::vector<obs::AnalysisObserver*> mem_subs_;
  std::vector<obs::AnalysisObserver*> thread_subs_;

  bool io_class_loaded_ = false;
  bool detached_ = false;

  // Mid-trace resume: the engine half of the checkpoint (a view into the
  // caller's blob) and the stream offsets, held from prepare_resume until
  // the resume-style attach consumes them.
  std::span<const uint8_t> resume_state_;
  StreamOffsets resume_offsets_;

  // Keyframes: the instruction count past which the next replayed preempt
  // arms a safepoint (never, when unarmed), and who gets the cut.
  static constexpr uint64_t kNoKeyframe = std::numeric_limits<uint64_t>::max();
  uint64_t keyframe_at_ = kNoKeyframe;
  KeyframeSink keyframe_sink_;

  // Both sides: the events stream's encoding for the trace's version, with
  // every lane's clock predictor (part of the resume state). Only nd events
  // touch it, so it sits after the members the yield path reads.
  EventCodec codec_;
};

// A flight checkpoint pairs the VM snapshot with the engine's resume state
// in one framed blob ("DVCK"). resume_point() frames one at a replay's
// keyframe; a recording's flight epochs capture the two halves into the
// sink's buffers (TraceSink::begin_epoch) and the flight recorder frames
// the blob once, when it seals a tail. ReplaySession resumes a flight tail
// or a keyframe from views into the blob. Both halves stay opaque to
// everything in between -- the flight container code and the debugger
// never need to know either layout.
std::vector<uint8_t> make_flight_checkpoint(
    std::span<const uint8_t> vm_snapshot,
    std::span<const uint8_t> engine_state);

// The two halves of a DVCK blob, viewed in place: valid while the blob is.
struct FlightCheckpointView {
  std::span<const uint8_t> vm_snapshot;
  std::span<const uint8_t> engine_state;
};
// Throws VmError on a bad magic or version, a half whose length runs past
// the blob (located by offset) or trailing bytes.
FlightCheckpointView split_flight_checkpoint(std::span<const uint8_t> blob);

// Loads the clock predictors of a DVES engine state (the second half of a
// flight checkpoint) into `codec`, built for `lanes` lanes, through the
// head that restore_resume_state reads too. A v1 state leaves a v4/v5
// codec as it was and is refused by a v6 one. Throws VmError on a bad
// magic or version, a lane count other than `lanes` or a damaged predictor.
void load_resume_codec(std::span<const uint8_t> engine_state,
                       uint32_t lanes, EventCodec& codec);

}  // namespace dejavu::replay
