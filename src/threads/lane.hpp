// Lanes: the unit of log-parallelism in the thread package.
//
// The paper's platform is a uniprocessor -- one scheduler, one schedule
// log, one logical clock. A *lane* generalizes that: every green thread
// belongs to exactly one lane (assigned deterministically at creation,
// round-robin in creation order), each lane has its own FIFO run queue,
// and the dispatcher rotates over lanes deterministically. With one lane
// the scheduler degenerates to the paper's single global FIFO, bit for
// bit -- which is what lets the uniprocessor platform remain the K=1
// special case of the lane-structured one.
//
// Everything a lane does on its own is deterministic given its own log.
// The only points where lanes influence each other are scheduler-level
// wakeups that cross a lane boundary (a monitor hand-off readying a
// thread of another lane, a notify moving another lane's waiter, a dying
// thread readying a joiner, an interrupt) and dispatches that move
// control between lanes. Those are surfaced as explicit *cross-lane
// order events* carrying a global sequence number: the replay-side merge
// is keyed by this sequence, in the spirit of the distributed
// order-recording literature (record the order, not the data).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/io.hpp"

namespace dejavu::threads {

using Tid = uint32_t;  // mirrors thread_package.hpp (kept in sync below)

using LaneId = uint32_t;
inline constexpr LaneId kLane0 = 0;

// Why two lanes had to agree on an order.
enum class CrossLaneKind : uint8_t {
  kDispatch = 1,        // a completed dispatch moved control between lanes
  kMonitorHandoff = 2,  // monitor release readied a blocked enterer elsewhere
  kNotify = 3,          // notify moved another lane's waiter to the entry queue
  kJoinWake = 4,        // thread exit readied a joiner in another lane
  kInterrupt = 5,       // interrupt unparked a thread in another lane
  kHeapTransfer = 6,    // shared-heap object ownership moved between lanes
};

const char* cross_lane_kind_name(CrossLaneKind k);

// One cross-lane order event. `seq` is a single global monotone counter
// over all kinds; replaying the same execution re-emits the identical
// sequence, so the recorded order stream doubles as a per-event
// synchronization check (like checkpoints, but at every inter-lane edge).
struct CrossLaneEvent {
  CrossLaneKind kind{};
  uint64_t seq = 0;
  LaneId from_lane = 0;
  LaneId to_lane = 0;
  Tid from = 0;        // causing thread (kNoThread never crosses: see emit)
  Tid to = 0;          // affected thread
  uint64_t subject = 0;  // monitor id / join target / heap address; 0 if n/a
};

// Per-lane FIFO run queues plus the deterministic lane rotation that
// replaces the single global ready deque. All state transitions are a
// pure function of the call sequence -- no time, no ids from the host.
class LaneScheduler {
 public:
  explicit LaneScheduler(uint32_t lanes) : queues_(lanes == 0 ? 1 : lanes) {}

  uint32_t lanes() const { return uint32_t(queues_.size()); }

  // Deterministic membership: thread #n (creation order, 0-based) lives in
  // lane n % K. Call once per created tid, in creation order.
  LaneId assign(Tid t) {
    LaneId lane = LaneId(assigned_ % queues_.size());
    assigned_++;
    if (t >= lane_of_.size()) lane_of_.resize(size_t(t) + 1, kLane0);
    lane_of_[t] = lane;
    return lane;
  }

  LaneId lane_of(Tid t) const {
    DV_CHECK_MSG(t < lane_of_.size(), "lane_of: unassigned tid " << t);
    return lane_of_[t];
  }

  void push_ready(Tid t) { queues_[lane_of(t)].push_back(t); }

  bool empty() const {
    for (const auto& q : queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  // Deterministic rotation: scan lanes starting at the cursor, pop the
  // first non-empty lane's front, park the cursor just past that lane.
  // With K=1 this is exactly `ready_.front(); ready_.pop_front()`.
  Tid pop_next() {
    uint32_t k = lanes();
    for (uint32_t i = 0; i < k; ++i) {
      LaneId lane = LaneId((cursor_ + i) % k);
      if (queues_[lane].empty()) continue;
      Tid t = queues_[lane].front();
      queues_[lane].pop_front();
      cursor_ = LaneId((lane + 1) % k);
      return t;
    }
    return Tid(0);  // kNoThread
  }

  void remove(Tid t) {
    auto& q = queues_[lane_of(t)];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (*it == t) {
        q.erase(it);
        return;
      }
    }
  }

  // The lane-0 queue view (the global queue when K=1; director support).
  const std::deque<Tid>& queue(LaneId lane) const { return queues_[lane]; }

  // Checkpoint round-trip (lane count is construction state and must match).
  void serialize(ByteWriter& w) const {
    w.put_uvarint(queues_.size());
    for (const auto& q : queues_) {
      w.put_uvarint(q.size());
      for (Tid t : q) w.put_uvarint(t);
    }
    w.put_uvarint(lane_of_.size());
    for (LaneId l : lane_of_) w.put_uvarint(l);
    w.put_uvarint(assigned_);
    w.put_uvarint(cursor_);
  }

  void restore(ByteReader& r) {
    size_t k = size_t(r.get_uvarint());
    DV_CHECK_MSG(k == queues_.size(), "checkpoint lane count mismatch");
    for (auto& q : queues_) {
      q.clear();
      size_t n = r.get_count(1, "lane queue");
      for (size_t i = 0; i < n; ++i) q.push_back(Tid(r.get_uvarint()));
    }
    lane_of_.resize(r.get_count(1, "lane assignment"));
    for (LaneId& l : lane_of_) l = LaneId(r.get_uvarint());
    assigned_ = r.get_uvarint();
    cursor_ = LaneId(r.get_uvarint());
  }

 private:
  std::vector<std::deque<Tid>> queues_;
  std::vector<LaneId> lane_of_;  // indexed by tid; tid 0 unused
  uint64_t assigned_ = 0;
  LaneId cursor_ = 0;
};

}  // namespace dejavu::threads
