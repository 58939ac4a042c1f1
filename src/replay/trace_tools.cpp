#include "src/replay/trace_tools.hpp"

#include <algorithm>
#include <sstream>

#include "src/replay/engine.hpp"
#include "src/replay/event_codec.hpp"
#include "src/threads/lane.hpp"

namespace dejavu::replay {

DecodedSchedule decode_schedule(TraceSource& src, LaneId lane) {
  DecodedSchedule out;
  StreamCursor r(src, StreamId::kSchedule, lane);
  uint32_t interval = src.meta().checkpoint_interval;
  uint64_t cumulative = 0;
  uint64_t n = 0;
  while (!r.at_end()) {
    DecodedSchedule::Entry e;
    e.nyp_delta = r.get_uvarint();
    cumulative += e.nyp_delta;
    e.cumulative_yields = cumulative;
    ++n;
    if (interval != 0 && n % interval == 0 && !r.at_end()) {
      e.has_checkpoint = true;
      e.checkpoint = read_checkpoint(r);
    }
    out.entries.push_back(std::move(e));
  }
  return out;
}

namespace {

// The codec `src`'s events streams start with. A flight tail's streams
// begin at its checkpoint, mid-stream, so a v6 tail's clock predictors
// come from the checkpoint's engine state, as a replay's do.
EventCodec start_codec(TraceSource& src) {
  const uint32_t lanes = std::max<uint32_t>(src.lane_count(), 1);
  EventCodec codec(src.version(), lanes);
  if (!codec.predicts() || src.flight_chunk().empty()) return codec;
  FlightInfo info = FlightInfo::decode(src.flight_chunk());
  if (info.has_checkpoint)
    load_resume_codec(split_flight_checkpoint(info.checkpoint).engine_state,
                      lanes, codec);
  return codec;
}

}  // namespace

std::vector<DecodedEvent> decode_events(TraceSource& src, LaneId lane) {
  DV_CHECK_MSG(lane < std::max<uint32_t>(src.lane_count(), 1),
               "lane " << lane << " out of range: the trace has "
                       << src.lane_count() << " lane(s)");
  std::vector<DecodedEvent> out;
  StreamCursor r(src, StreamId::kEvents, lane);
  EventCodec codec = start_codec(src);
  while (!r.at_end()) {
    DecodedEvent& e = out.emplace_back();
    e.tag = codec.next(r, lane, &e.value);
    if (e.tag == EventTag::kNativeCallback)
      EventCodec::read_callback(r, lane, &e.callback_class,
                                &e.callback_method, &e.callback_args);
  }
  return out;
}

std::vector<DecodedOrderEvent> decode_order(TraceSource& src) {
  std::vector<DecodedOrderEvent> out;
  StreamCursor r(src, StreamId::kOrder);
  while (!r.at_end()) {
    DecodedOrderEvent e;
    e.kind = r.get_u8();
    e.from_lane = uint32_t(r.get_uvarint());
    e.to_lane = uint32_t(r.get_uvarint());
    e.from = uint32_t(r.get_uvarint());
    e.to = uint32_t(r.get_uvarint());
    e.subject = r.get_uvarint();
    out.push_back(e);
  }
  return out;
}

TraceStats trace_stats(TraceSource& src) {
  TraceStats s;
  s.lanes = src.lane_count();
  uint64_t sum = 0, entries = 0;
  s.min_delta = UINT64_MAX;
  for (LaneId lane = 0; lane < s.lanes; ++lane) {
    s.schedule_bytes +=
        size_t(src.stream_info(StreamId::kSchedule, lane).bytes);
    s.event_bytes += size_t(src.stream_info(StreamId::kEvents, lane).bytes);
    DecodedSchedule sched = decode_schedule(src, lane);
    s.preempt_switches += sched.entries.size();
    entries += sched.entries.size();
    for (const auto& e : sched.entries) {
      s.min_delta = std::min(s.min_delta, e.nyp_delta);
      s.max_delta = std::max(s.max_delta, e.nyp_delta);
      sum += e.nyp_delta;
      s.checkpoints += e.has_checkpoint ? 1 : 0;
    }
    for (const auto& e : decode_events(src, lane)) {
      switch (e.tag) {
        case EventTag::kClock: s.clock_events++; break;
        case EventTag::kInput: s.input_events++; break;
        case EventTag::kRand: s.rand_events++; break;
        case EventTag::kNativeReturn: s.native_returns++; break;
        case EventTag::kNativeCallback: s.native_callbacks++; break;
      }
    }
  }
  if (entries == 0) s.min_delta = 0;
  s.mean_delta = entries == 0 ? 0 : double(sum) / double(entries);
  if (s.lanes > 1) s.order_events = decode_order(src).size();
  return s;
}

std::vector<uint8_t> convert_trace(TraceSource& src, uint32_t version) {
  const TraceMeta& meta = src.meta();
  if ((src.version() >= kTraceVersionPredicted) !=
      (version >= kTraceVersionPredicted)) {
    throw VmError("cannot convert a v" + std::to_string(src.version()) +
                  " trace to v" + std::to_string(version) +
                  ": v6 stores clock reads as per-lane deltas and v3-v5 as "
                  "absolute values, and the recorded heap hash covers the "
                  "encoded bytes");
  }
  DV_CHECK_MSG(version != kTraceVersion || meta.lane_count <= 1,
               "a " << meta.lane_count << "-lane trace needs the v5 container");
  auto sink = std::make_unique<VectorTraceSink>(version);
  VectorTraceSink* mem = sink.get();
  const std::vector<uint8_t>& flight = src.flight_chunk();
  if (!flight.empty())
    mem->write_chunk(StreamId::kFlight, flight.data(), flight.size());
  // A one-byte chunk target emits every appended chunk as it is.
  TraceWriter w(std::move(sink), 1);
  std::vector<uint8_t> chunk;
  auto copy = [&](StreamId id, LaneId lane) {
    for (size_t i = 0; src.read_chunk(id, lane, i, &chunk); ++i)
      w.append(id, chunk.data(), chunk.size(), lane);
  };
  for (LaneId lane = 0; lane < src.lane_count(); ++lane) {
    copy(StreamId::kSchedule, lane);
    copy(StreamId::kEvents, lane);
  }
  copy(StreamId::kOrder, 0);
  w.finish(meta);
  return mem->take();
}

namespace {

void dump_lane_streams(TraceSource& src, LaneId lane, size_t max_lines,
                       std::ostringstream& os, const std::string& label) {
  DecodedSchedule sched = decode_schedule(src, lane);
  os << label << "schedule (" << sched.entries.size()
     << " preemptive switches):\n";
  for (size_t i = 0; i < sched.entries.size(); ++i) {
    if (i >= max_lines) {
      os << "  ... " << (sched.entries.size() - i) << " more\n";
      break;
    }
    const auto& e = sched.entries[i];
    os << "  switch " << i << ": +" << e.nyp_delta << " yields (cum "
       << e.cumulative_yields << ")";
    if (e.has_checkpoint) os << "  checkpoint " << e.checkpoint.describe();
    os << "\n";
  }

  std::vector<DecodedEvent> events = decode_events(src, lane);
  os << label << "events (" << events.size() << "):\n";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i >= max_lines) {
      os << "  ... " << (events.size() - i) << " more\n";
      break;
    }
    const DecodedEvent& e = events[i];
    switch (e.tag) {
      case EventTag::kClock: os << "  clock " << e.value; break;
      case EventTag::kInput: os << "  input " << e.value; break;
      case EventTag::kRand: os << "  rand " << e.value; break;
      case EventTag::kNativeReturn: os << "  native -> " << e.value; break;
      case EventTag::kNativeCallback: {
        os << "  callback " << e.callback_class << "." << e.callback_method
           << "(";
        for (size_t j = 0; j < e.callback_args.size(); ++j) {
          if (j) os << ", ";
          os << e.callback_args[j];
        }
        os << ")";
        break;
      }
    }
    os << "\n";
  }
}

}  // namespace

std::string dump_trace(TraceSource& src, size_t max_lines) {
  const TraceMeta& meta = src.meta();
  uint32_t lanes = src.lane_count();
  uint64_t total = 0;
  for (LaneId lane = 0; lane < lanes; ++lane) {
    total += src.stream_info(StreamId::kSchedule, lane).bytes +
             src.stream_info(StreamId::kEvents, lane).bytes;
  }
  std::ostringstream os;
  os << "trace: fingerprint=" << std::hex << meta.program_fingerprint
     << std::dec << " preempts=" << meta.preempt_switches
     << " ndevents=" << meta.nd_events << " bytes=" << total << "\n";
  os << "final: " << meta.final_checkpoint.describe() << "\n";

  // Single-lane output is unchanged from the pre-lane dump; multi-lane
  // traces get one labelled section per lane plus the order stream.
  for (LaneId lane = 0; lane < lanes; ++lane) {
    std::string label;
    if (lanes > 1) {
      os << "lane " << lane << " (clock "
         << (lane < meta.lane_clocks.size() ? meta.lane_clocks[lane] : 0)
         << ", preempts "
         << (lane < meta.lane_preempts.size() ? meta.lane_preempts[lane] : 0)
         << "):\n";
      label = "lane " + std::to_string(lane) + " ";
    }
    dump_lane_streams(src, lane, max_lines, os, label);
  }

  if (lanes > 1) {
    std::vector<DecodedOrderEvent> order = decode_order(src);
    os << "order (" << order.size() << " cross-lane events):\n";
    for (size_t i = 0; i < order.size(); ++i) {
      if (i >= max_lines) {
        os << "  ... " << (order.size() - i) << " more\n";
        break;
      }
      const DecodedOrderEvent& e = order[i];
      os << "  " << i << ": "
         << threads::cross_lane_kind_name(threads::CrossLaneKind(e.kind))
         << " lane " << e.from_lane << "->" << e.to_lane << " tid " << e.from
         << "->" << e.to;
      if (e.subject != 0) os << " subject " << e.subject;
      os << "\n";
    }
  }
  return os.str();
}

namespace {

std::string describe_order(const DecodedOrderEvent& e) {
  std::ostringstream os;
  os << threads::cross_lane_kind_name(threads::CrossLaneKind(e.kind))
     << " lane " << e.from_lane << "->" << e.to_lane << " tid " << e.from
     << "->" << e.to;
  if (e.subject != 0) os << " subject " << e.subject;
  return os.str();
}

}  // namespace

TraceDiff diff_traces(TraceSource& a, TraceSource& b) {
  TraceDiff d;
  std::ostringstream why;
  if (a.meta().program_fingerprint != b.meta().program_fingerprint) {
    d.description = "traces are from different programs";
    return d;
  }

  if (a.lane_count() != b.lane_count()) {
    d.description = "lane counts differ (" + std::to_string(a.lane_count()) +
                    " vs " + std::to_string(b.lane_count()) + ")";
    return d;
  }

  uint32_t lanes = a.lane_count();
  for (LaneId lane = 0; lane < lanes; ++lane) {
    // The reported divergence index is per lane; the description names the
    // lane so multi-lane diffs stay unambiguous. Lane labels are omitted
    // for single-lane traces to keep the classic output stable.
    std::string at = lanes > 1 ? "lane " + std::to_string(lane) + " " : "";
    DecodedSchedule sa = decode_schedule(a, lane),
                    sb = decode_schedule(b, lane);
    size_t n = std::min(sa.entries.size(), sb.entries.size());
    for (size_t i = 0; i < n && d.first_schedule_divergence == SIZE_MAX;
         ++i) {
      if (sa.entries[i].nyp_delta != sb.entries[i].nyp_delta) {
        d.first_schedule_divergence = i;
        why << at << "switch " << i << ": +" << sa.entries[i].nyp_delta
            << " yields vs +" << sb.entries[i].nyp_delta << " yields; ";
      }
    }
    if (d.first_schedule_divergence == SIZE_MAX &&
        sa.entries.size() != sb.entries.size()) {
      d.first_schedule_divergence = n;
      why << at << "switch counts differ (" << sa.entries.size() << " vs "
          << sb.entries.size() << "); ";
    }

    std::vector<DecodedEvent> ea = decode_events(a, lane),
                              eb = decode_events(b, lane);
    size_t m = std::min(ea.size(), eb.size());
    for (size_t i = 0; i < m && d.first_event_divergence == SIZE_MAX; ++i) {
      if (ea[i].tag != eb[i].tag || ea[i].value != eb[i].value ||
          ea[i].callback_method != eb[i].callback_method ||
          ea[i].callback_args != eb[i].callback_args) {
        d.first_event_divergence = i;
        why << at << "event " << i << " differs; ";
      }
    }
    if (d.first_event_divergence == SIZE_MAX && ea.size() != eb.size()) {
      d.first_event_divergence = m;
      why << at << "event counts differ (" << ea.size() << " vs "
          << eb.size() << "); ";
    }
  }

  if (lanes > 1) {
    std::vector<DecodedOrderEvent> oa = decode_order(a), ob = decode_order(b);
    size_t k = std::min(oa.size(), ob.size());
    for (size_t i = 0; i < k && d.first_order_divergence == SIZE_MAX; ++i) {
      if (oa[i].kind != ob[i].kind || oa[i].from_lane != ob[i].from_lane ||
          oa[i].to_lane != ob[i].to_lane || oa[i].from != ob[i].from ||
          oa[i].to != ob[i].to || oa[i].subject != ob[i].subject) {
        d.first_order_divergence = i;
        why << "order event " << i << ": " << describe_order(oa[i]) << " vs "
            << describe_order(ob[i]) << "; ";
      }
    }
    if (d.first_order_divergence == SIZE_MAX && oa.size() != ob.size()) {
      d.first_order_divergence = k;
      why << "order event counts differ (" << oa.size() << " vs "
          << ob.size() << "); ";
    }
  }

  d.identical = d.first_schedule_divergence == SIZE_MAX &&
                d.first_event_divergence == SIZE_MAX &&
                d.first_order_divergence == SIZE_MAX;
  d.description = d.identical ? "identical" : why.str();
  return d;
}

}  // namespace dejavu::replay
