#include "src/replay/event_codec.hpp"

#include <sstream>

namespace dejavu::replay {

namespace {

[[noreturn]] void fail_at(LaneId lane, uint64_t at, const std::string& what) {
  std::ostringstream os;
  os << "lane " << lane << " events byte " << at << ": " << what;
  throw VmError(os.str());
}

// A varint of the event that starts at byte `at`; a truncated one is a
// located error.
int64_t svarint_at(StreamCursor& c, LaneId lane, uint64_t at) {
  try {
    return c.get_svarint();
  } catch (const VmError& e) {
    fail_at(lane, at, std::string("truncated event value (") + e.what() + ")");
  }
}

}  // namespace

EventCodec::EventCodec(uint32_t version, uint32_t lanes)
    : predict_(version >= kTraceVersionPredicted),
      lanes_(lanes == 0 ? 1 : lanes) {}

void EventCodec::put_callback(ByteWriter& w, const std::string& cls,
                              const std::string& method,
                              const std::vector<int64_t>& args) {
  w.put_u8(uint8_t(EventTag::kNativeCallback));
  w.put_string(cls);
  w.put_string(method);
  w.put_uvarint(args.size());
  for (int64_t a : args) w.put_svarint(a);
}

EventTag EventCodec::next(StreamCursor& c, LaneId lane, int64_t* value) {
  const uint64_t at = c.position();
  if (c.at_end()) fail_at(lane, at, "stream ends where an event should start");
  uint8_t tag = c.get_u8();
  if (predict_ && tag == kClockRepeatTag) {
    ClockPredictor& p = lanes_[lane];
    if (!p.has_delta) fail_at(lane, at, "clock repeat tag before any delta");
    p.last += p.delta;
    *value = int64_t(p.last);
    return EventTag::kClock;
  }
  switch (tag) {
    case uint8_t(EventTag::kClock):
      if (predict_) {
        ClockPredictor& p = lanes_[lane];
        uint64_t delta = uint64_t(svarint_at(c, lane, at));
        p.delta = delta;
        p.has_delta = true;
        p.last += delta;
        *value = int64_t(p.last);
        return EventTag::kClock;
      }
      [[fallthrough]];
    case uint8_t(EventTag::kInput):
    case uint8_t(EventTag::kRand):
    case uint8_t(EventTag::kNativeReturn):
      *value = svarint_at(c, lane, at);
      return EventTag(tag);
    case uint8_t(EventTag::kNativeCallback):
      return EventTag::kNativeCallback;
    default:
      fail_at(lane, at, "unknown event tag " + std::to_string(int(tag)));
  }
}

void EventCodec::read_callback(StreamCursor& c, LaneId lane, std::string* cls,
                               std::string* method,
                               std::vector<int64_t>* args) {
  const uint64_t at = c.position();
  uint64_t n = 0;
  try {
    *cls = c.get_string();
    *method = c.get_string();
    n = c.get_uvarint();
  } catch (const VmError& e) {
    fail_at(lane, at, std::string("truncated native callback (") + e.what() +
                          ")");
  }
  // Every argument takes at least one byte: a count past the bytes left
  // is a truncation, found before anything is allocated for it.
  if (n > c.remaining())
    fail_at(lane, at, "native callback claims " + std::to_string(n) +
                          " argument(s), stream has " +
                          std::to_string(c.remaining()) + " byte(s) left");
  args->clear();
  for (uint64_t i = 0; i < n; ++i) args->push_back(svarint_at(c, lane, at));
}

void EventCodec::save(ByteWriter& w) const {
  for (const ClockPredictor& p : lanes_) {
    w.put_uvarint(p.last);
    w.put_uvarint(p.delta);
    w.put_u8(p.has_delta ? 1 : 0);
  }
}

void EventCodec::load(ByteReader& r) {
  for (ClockPredictor& p : lanes_) {
    p.last = r.get_uvarint();
    p.delta = r.get_uvarint();
    uint8_t has = r.get_u8();
    DV_CHECK_MSG(has <= 1, "clock predictor flag " << int(has) << " at offset "
                                                   << r.position() - 1);
    p.has_delta = has == 1;
  }
}

}  // namespace dejavu::replay
