// Tests for the observability layer (label: obs) and its central
// contract: telemetry must be perturbation-free. Recording with metrics
// and the timeline on must produce byte-identical traces to recording
// with everything off, and a diverged replay must yield a forensic
// report that pinpoints where execution went wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/fuzz/fault.hpp"
#include "src/obs/divergence.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeline.hpp"
#include "src/replay/session.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/workloads/workloads.hpp"
#include "tests/vm/vm_test_util.hpp"

namespace dejavu::obs {
namespace {

// ------------------------------------------------------------------- json

TEST(JsonWriter, EscapesKeysAndValues) {
  // Every escape form; DEL and bytes >= 0x80 pass through unchanged.
  std::string raw = "q\"b\\s\nr\rt\tc";
  raw += '\0';
  raw += '\x01';
  raw += '\x1f';
  raw += "\xc3\xa9\x7f\xff ok";
  std::string esc = "q\\\"b\\\\s\\nr\\rt\\tc\\u0000\\u0001\\u001f";
  esc += "\xc3\xa9\x7f\xff ok";
  EXPECT_EQ(json_escape(raw), esc);

  JsonWriter w;
  w.begin_object().kv(raw, raw).kv("plain", "text").end_object();
  EXPECT_EQ(w.str(), "{\"" + esc + "\":\"" + esc + "\",\"plain\":\"text\"}");

  // A string of nothing but control bytes takes six bytes per input byte.
  std::string controls(100, '\x02');
  JsonWriter a;
  a.begin_array().value(controls).end_array();
  std::string want = "[\"";
  for (int i = 0; i < 100; ++i) want += "\\u0002";
  EXPECT_EQ(a.str(), want + "\"]");
}

TEST(JsonWriter, IntegersPrintAsToStringDoes) {
  JsonWriter w;
  w.begin_array()
      .value(INT64_MIN)
      .value(INT64_MAX)
      .value(UINT64_MAX)
      .value(int64_t{0})
      .value(int64_t{-1})
      .value(uint64_t{0})
      .end_array();
  EXPECT_EQ(w.str(), "[" + std::to_string(INT64_MIN) + "," +
                         std::to_string(INT64_MAX) + "," +
                         std::to_string(UINT64_MAX) + ",0,-1,0]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;  // a value in an object needs a key
    w.begin_object();
    EXPECT_THROW(w.value(int64_t{1}), VmError);
  }
  {
    JsonWriter w;  // unbalanced ends
    EXPECT_THROW(w.end_array(), VmError);
    JsonWriter v;
    v.begin_array();
    EXPECT_THROW(v.end_object(), VmError);
  }
  {
    JsonWriter w;  // a key outside an object, and a dangling key
    w.begin_array();
    EXPECT_THROW(w.key("k"), VmError);
    JsonWriter v;
    v.begin_object().key("k");
    EXPECT_THROW(v.end_object(), VmError);
  }
  {
    JsonWriter w;  // an incomplete document cannot be read
    w.begin_object().kv("k", true);
    EXPECT_THROW(w.str(), VmError);
    EXPECT_THROW(w.take(), VmError);
  }
  {
    JsonWriter w;  // nothing may follow a complete document
    w.begin_array().end_array();
    EXPECT_THROW(w.value(true), VmError);
  }
}

TEST(JsonWriter, DocumentRoundTripsThroughParser) {
  JsonWriter w;
  w.begin_object()
      .kv("s", "a\"b\n\\")
      .kv("i", int64_t{-42})
      .kv("u", uint64_t{1} << 40)
      .kv("d", 0.5)
      .kv("t", true);
  w.key("n").null();
  w.key("arr").begin_array().value("x");
  w.begin_object().kv("k", uint64_t{7}).end_object();
  w.begin_array().end_array().end_array();
  w.key("raw").raw("{\"r\":[1,2]}");
  w.end_object();

  JsonValue doc = parse_json(w.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("s")->string, "a\"b\n\\");
  EXPECT_EQ(doc.find("i")->number, -42.0);
  EXPECT_EQ(doc.find("u")->number, double(uint64_t{1} << 40));
  EXPECT_EQ(doc.find("d")->number, 0.5);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("n")->type, JsonValue::Type::kNull);
  const JsonValue* arr = doc.find("arr");
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_EQ(arr->items[0].string, "x");
  EXPECT_EQ(arr->items[1].find("k")->number, 7.0);
  EXPECT_TRUE(arr->items[2].is_array());
  EXPECT_EQ(doc.find("raw")->find("r")->items.size(), 2u);

  std::string copy = w.str();
  EXPECT_EQ(w.take(), copy);
}

TEST(JsonWriter, GrowingAndReservingWriteTheSameBytes) {
  // Many rows through the buffer's growth path, and again after a
  // reserve too small and one too large: the bytes must not differ.
  auto render = [](size_t reserve) {
    JsonWriter w;
    if (reserve != 0) w.reserve(reserve);
    w.begin_array();
    for (uint64_t i = 0; i < 5000; ++i) {
      w.begin_object()
          .kv("i", i)
          .kv("label", i % 3 == 0 ? "Owner.method" : "a\tb")
          .end_object();
    }
    w.end_array();
    return w.take();
  };
  std::string grown = render(0);
  EXPECT_EQ(render(100), grown);
  EXPECT_EQ(render(grown.size() * 2), grown);
  EXPECT_EQ(parse_json(grown).items.size(), 5000u);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, RegistryCountsAndSnapshots) {
  MetricRegistry reg;
  Counter* c = reg.counter("x.count");
  Gauge* g = reg.gauge("x.level");
  Histogram* h = reg.histogram("x.delta", pow2_bounds(4));
  c->add();
  c->add(4);
  g->set(-7);
  h->record(1);
  h->record(3);
  h->record(100);  // overflow bucket

  // Registration is idempotent: same slot, no duplicate sample.
  EXPECT_EQ(reg.counter("x.count"), c);
  EXPECT_EQ(reg.size(), 3u);

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("x.count")->value, 5u);
  EXPECT_EQ(snap.find("x.level")->gauge, -7);
  const MetricSample* hs = snap.find("x.delta");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 3u);
  EXPECT_EQ(hs->sum, 104u);
  ASSERT_EQ(hs->buckets.size(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(hs->buckets[0], 1u);      // <=1
  EXPECT_EQ(hs->buckets[2], 1u);      // <=4
  EXPECT_EQ(hs->buckets[4], 1u);      // overflow
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, JsonRoundTripsThroughParser) {
  MetricRegistry reg;
  reg.counter("a")->add(3);
  reg.gauge("b")->set(9);
  reg.histogram("c", {2, 4})->record(3);
  JsonValue doc = parse_json(reg.snapshot().to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, "dejavu-metrics-v1");
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_array());
  ASSERT_EQ(metrics->items.size(), 3u);
  EXPECT_EQ(metrics->items[0].find("name")->string, "a");
  EXPECT_EQ(metrics->items[0].find("value")->number, 3.0);
  EXPECT_EQ(metrics->items[2].find("kind")->string, "histogram");
  EXPECT_EQ(metrics->items[2].find("buckets")->items.size(), 3u);
}

TEST(Metrics, MergeSumsCountersAndBuckets) {
  MetricRegistry a, b;
  a.counter("n")->add(2);
  a.gauge("g")->set(1);
  a.histogram("h", {8})->record(3);
  b.counter("n")->add(5);
  b.gauge("g")->set(10);
  b.histogram("h", {8})->record(100);
  b.counter("only_b")->add(1);

  MetricsSnapshot into = a.snapshot();
  merge_snapshots(&into, b.snapshot());
  EXPECT_EQ(into.find("n")->value, 7u);
  EXPECT_EQ(into.find("g")->gauge, 10);  // gauges take the incoming value
  EXPECT_EQ(into.find("h")->count, 2u);
  EXPECT_EQ(into.find("h")->buckets[1], 1u);
  ASSERT_NE(into.find("only_b"), nullptr);  // appended
  EXPECT_EQ(into.find("only_b")->value, 1u);
}

// --------------------------------------------------------------- timeline

TEST(Timeline, RingKeepsMostRecentAndCountsDropped) {
  Timeline tl(4);
  for (int64_t i = 0; i < 10; ++i)
    tl.instant("t", "e", uint64_t(i), 0, "i", i);
  EXPECT_EQ(tl.size(), 4u);
  EXPECT_EQ(tl.capacity(), 4u);
  EXPECT_EQ(tl.dropped(), 6u);
  std::vector<TimelineEvent> ev = tl.snapshot();
  ASSERT_EQ(ev.size(), 4u);
  // Flight-recorder semantics: the most recent window, oldest first.
  EXPECT_EQ(ev.front().arg0, 6);
  EXPECT_EQ(ev.back().arg0, 9);
}

TEST(Timeline, ChromeJsonIsWellFormed) {
  Timeline tl(16);
  tl.span_begin("phase", "record", 0);
  tl.instant("nd", "clock", 1, 2, "value", 42);
  tl.span_end("phase", "record", 3);
  JsonValue doc = parse_json(timeline_to_chrome_json(tl.snapshot(), "test"));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->items.size(), 4u);  // metadata + 3 events
  EXPECT_EQ(events->items[0].find("ph")->string, "M");
  EXPECT_EQ(events->items[1].find("ph")->string, "B");
  EXPECT_EQ(events->items[2].find("ph")->string, "i");
  EXPECT_EQ(events->items[2].find("args")->find("value")->number, 42.0);
  EXPECT_EQ(events->items[3].find("ph")->string, "E");
}

// ------------------------------------------------------------- divergence

TEST(Divergence, SerializeParseRenderRoundTrip) {
  DivergenceReport rep;
  rep.what = "schedule mismatch:\nline two \\ with backslash";
  rep.logical_clock = 123;
  rep.nyp_remaining = 4;
  rep.thread = 2;
  rep.thread_name = "worker-2";
  rep.frame_class = "Main";
  rep.frame_method = "run";
  rep.pc = 17;
  rep.disasm = {"   16: load r1", "=> 17: add r1 r2", "   18: store r1"};
  rep.recent_events.push_back({"clock", 500, 120});
  rep.schedule_pos = 9;
  rep.schedule_remaining = 1;

  DivergenceReport back = parse_report(rep.serialize());
  EXPECT_EQ(back.what, rep.what);
  EXPECT_EQ(back.logical_clock, 123u);
  EXPECT_EQ(back.nyp_remaining, 4u);
  EXPECT_EQ(back.thread, 2u);
  EXPECT_EQ(back.thread_name, "worker-2");
  EXPECT_EQ(back.frame_class, "Main");
  EXPECT_EQ(back.pc, 17u);
  EXPECT_EQ(back.disasm, rep.disasm);
  ASSERT_EQ(back.recent_events.size(), 1u);
  EXPECT_EQ(back.recent_events[0].tag, "clock");
  EXPECT_EQ(back.recent_events[0].value, 500u);
  EXPECT_EQ(back.schedule_pos, 9u);

  std::string human = rep.render();
  EXPECT_NE(human.find("divergence"), std::string::npos);
  EXPECT_NE(human.find("=> 17"), std::string::npos);

  EXPECT_THROW(parse_report("not a report"), VmError);
}

TEST(Divergence, ExtractFindsEmbeddedBlock) {
  DivergenceReport rep;
  rep.what = "x";
  rep.logical_clock = 7;
  std::string host = "dvfz 3\nseed 1\nend\n" + rep.serialize() + "trailing\n";
  DivergenceReport out;
  ASSERT_TRUE(extract_report(host, &out));
  EXPECT_EQ(out.logical_clock, 7u);
  EXPECT_FALSE(extract_report("no report here\n", &out));
}

// ----------------------------------------------- engine integration (obs)

// skew_nth != 0 records through fuzz::skew_schedule, which over-reports
// that schedule delta by one yield point.
replay::RecordResult record_with(replay::SymmetryConfig cfg,
                                 uint64_t timer_seed = 9,
                                 uint32_t skew_nth = 0) {
  vm::VmOptions opts;
  vm::ScriptedEnvironment env(500, 3, {11, 22, 33}, 5);
  threads::VirtualTimer timer(timer_seed, 4, 48);
  vm::NativeRegistry natives = vmtest::make_test_natives();
  bytecode::Program prog = workloads::clock_mixer(2, 12);
  std::unique_ptr<replay::TraceSink> sink =
      std::make_unique<replay::VectorTraceSink>();
  if (skew_nth != 0)
    sink = fuzz::skew_schedule(std::move(sink), skew_nth,
                               cfg.checkpoint_interval);
  replay::RecordSession session(prog, std::move(sink), opts, env, timer,
                                &natives, cfg);
  replay::RecordResult rec = session.finish();
  rec.trace = session.take_trace();
  return rec;
}

// The tentpole contract (§2.4): flipping every telemetry knob must not
// change a single trace byte, the guest output, or the behaviour summary.
TEST(ObsEngine, TelemetryDoesNotPerturbRecording) {
  replay::SymmetryConfig all_off;
  all_off.obs.metrics = false;
  all_off.obs.timeline = false;
  replay::SymmetryConfig all_on;
  all_on.obs.metrics = true;
  all_on.obs.timeline = true;

  replay::RecordResult off = record_with(all_off);
  replay::RecordResult on = record_with(all_on);
  EXPECT_EQ(on.trace.serialize(), off.trace.serialize());
  EXPECT_EQ(on.output, off.output);
  EXPECT_EQ(on.summary, off.summary);

  // The knobs did what they said on the host side.
  EXPECT_TRUE(off.timeline.empty());
  EXPECT_FALSE(on.timeline.empty());
  EXPECT_EQ(off.metrics.find("engine.schedule.delta"), nullptr);
  ASSERT_NE(on.metrics.find("engine.schedule.delta"), nullptr);
  // Core counters power EngineStats and always run.
  ASSERT_NE(off.metrics.find("engine.nd.clock"), nullptr);
  EXPECT_EQ(off.metrics.find("engine.nd.clock")->value,
            on.metrics.find("engine.nd.clock")->value);
}

TEST(ObsEngine, TimelineCoversPhasesAndReplayVerifies) {
  replay::SymmetryConfig cfg;
  cfg.obs.timeline = true;
  replay::RecordResult rec = record_with(cfg);
  auto has = [](const std::vector<TimelineEvent>& ev, const char* name) {
    for (const TimelineEvent& e : ev)
      if (std::string(e.name) == name) return true;
    return false;
  };
  EXPECT_TRUE(has(rec.timeline, "record"));
  EXPECT_TRUE(has(rec.timeline, "attach"));

  bytecode::Program prog = workloads::clock_mixer(2, 12);
  replay::ReplayResult rep =
      replay::replay_run(prog, rec.trace, {}, cfg);
  EXPECT_TRUE(rep.verified) << rep.stats.first_violation;
  EXPECT_FALSE(rep.divergence.has_value());
  EXPECT_TRUE(has(rep.timeline, "replay"));
  EXPECT_TRUE(has(rep.timeline, "verify"));
  // Chrome export of a real engine timeline stays parseable.
  JsonValue doc =
      parse_json(timeline_to_chrome_json(rep.timeline, "obs_test"));
  EXPECT_GT(doc.find("traceEvents")->items.size(), 4u);
}

// The forensics drill: an injected record-side schedule skew
// (fuzz::skew_schedule) must produce a divergence report that pinpoints
// the thread, the remaining yield budget and the faulting instruction.
TEST(ObsEngine, SkewedScheduleYieldsForensicReport) {
  replay::SymmetryConfig rec_cfg;
  rec_cfg.checkpoint_interval = 8;
  // Over-report the first delta.
  replay::RecordResult rec = record_with(rec_cfg, 9, /*skew_nth=*/1);

  replay::SymmetryConfig rep_cfg;
  rep_cfg.checkpoint_interval = 8;
  rep_cfg.strict = false;  // complete the run, keep the report
  bytecode::Program prog = workloads::clock_mixer(2, 12);
  replay::ReplayResult rep =
      replay::replay_run(prog, rec.trace, {}, rep_cfg);

  EXPECT_FALSE(rep.verified);
  EXPECT_GT(rep.stats.symmetry_violations, 0u);
  EXPECT_GT(rep.stats.first_violation_clock, 0u);
  ASSERT_TRUE(rep.divergence.has_value());
  const DivergenceReport& d = *rep.divergence;
  EXPECT_FALSE(d.what.empty());
  EXPECT_EQ(d.logical_clock, rep.stats.first_violation_clock);
  EXPECT_FALSE(d.frame_method.empty());
  EXPECT_FALSE(d.disasm.empty());
  // The faulting instruction is marked inside the window.
  bool marked = false;
  for (const std::string& line : d.disasm)
    if (line.rfind("=>", 0) == 0) marked = true;
  EXPECT_TRUE(marked);

  // The report survives the wire format.
  DivergenceReport back = parse_report(d.serialize());
  EXPECT_EQ(back.what, d.what);
  EXPECT_EQ(back.thread, d.thread);
  EXPECT_EQ(back.disasm, d.disasm);
}

// Strict mode carries the same forensics inside the thrown exception.
TEST(ObsEngine, StrictThrowCarriesForensics) {
  replay::SymmetryConfig rec_cfg;
  rec_cfg.checkpoint_interval = 8;
  replay::RecordResult rec = record_with(rec_cfg, 9, /*skew_nth=*/1);

  replay::SymmetryConfig rep_cfg;
  rep_cfg.checkpoint_interval = 8;
  rep_cfg.strict = true;
  bytecode::Program prog = workloads::clock_mixer(2, 12);
  try {
    replay::replay_run(prog, rec.trace, {}, rep_cfg);
    FAIL() << "skewed replay verified under strict mode";
  } catch (const ReplayDivergence& e) {
    ASSERT_FALSE(e.forensics().empty());
    DivergenceReport d = parse_report(e.forensics());
    EXPECT_FALSE(d.what.empty());
    EXPECT_GT(d.logical_clock, 0u);
  }
}

}  // namespace
}  // namespace dejavu::obs
