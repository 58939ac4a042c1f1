#include "src/threads/thread_package.hpp"

#include <algorithm>
#include <sstream>

namespace dejavu::threads {

const char* thread_state_name(ThreadState s) {
  switch (s) {
    case ThreadState::kUnstarted: return "unstarted";
    case ThreadState::kReady: return "ready";
    case ThreadState::kRunning: return "running";
    case ThreadState::kBlockedMonitor: return "blocked";
    case ThreadState::kWaiting: return "waiting";
    case ThreadState::kSleeping: return "sleeping";
    case ThreadState::kJoining: return "joining";
    case ThreadState::kTerminated: return "terminated";
  }
  return "?";
}

const char* switch_reason_name(SwitchReason r) {
  switch (r) {
    case SwitchReason::kPreempt: return "preempt";
    case SwitchReason::kYield: return "yield";
    case SwitchReason::kBlock: return "block";
    case SwitchReason::kWait: return "wait";
    case SwitchReason::kSleep: return "sleep";
    case SwitchReason::kJoin: return "join";
    case SwitchReason::kTerminate: return "terminate";
  }
  return "?";
}

ThreadPackage::ThreadPackage(std::function<int64_t()> clock_ms,
                             std::function<void()> idle, uint32_t lanes)
    : clock_ms_(std::move(clock_ms)), idle_(std::move(idle)), lanes_(lanes) {
  threads_.resize(1);   // slot 0 = kNoThread
  monitors_.resize(1);  // slot 0 = kNoMonitor
}

ThreadPackage::ThreadRec& ThreadPackage::rec(Tid t) {
  DV_CHECK_MSG(t != kNoThread && t < threads_.size(), "bad tid " << t);
  return threads_[t];
}

const ThreadPackage::ThreadRec& ThreadPackage::rec(Tid t) const {
  DV_CHECK_MSG(t != kNoThread && t < threads_.size(), "bad tid " << t);
  return threads_[t];
}

ThreadPackage::MonitorRec& ThreadPackage::mon(MonitorId m) {
  DV_CHECK_MSG(m != kNoMonitor && m < monitors_.size(), "bad monitor " << m);
  return monitors_[m];
}

Tid ThreadPackage::create_thread(const std::string& name) {
  Tid t = Tid(threads_.size());
  threads_.push_back(ThreadRec{});
  threads_[t].name = name;
  threads_[t].state = ThreadState::kReady;
  lanes_.assign(t);  // creation-order round-robin lane membership
  lanes_.push_ready(t);
  live_count_++;
  return t;
}

void ThreadPackage::on_thread_exit() {
  DV_CHECK(current_ != kNoThread);
  ThreadRec& r = rec(current_);
  r.state = ThreadState::kTerminated;
  for (Tid w : r.join_waiters) {
    if (rec(w).state == ThreadState::kJoining) {
      note_cross_lane(CrossLaneKind::kJoinWake, current_, w, current_);
      make_ready(w);
    }
  }
  r.join_waiters.clear();
  live_count_--;
  pending_reason_ = SwitchReason::kTerminate;
  current_ = kNoThread;
}

ThreadState ThreadPackage::state(Tid t) const { return rec(t).state; }
const std::string& ThreadPackage::name(Tid t) const { return rec(t).name; }

std::vector<Tid> ThreadPackage::all_tids() const {
  std::vector<Tid> out;
  for (Tid t = 1; t < Tid(threads_.size()); ++t) out.push_back(t);
  return out;
}

void ThreadPackage::make_ready(Tid t) {
  ThreadRec& r = rec(t);
  r.state = ThreadState::kReady;
  r.has_deadline = false;
  r.waiting_on = kNoMonitor;
  lanes_.push_ready(t);
}

void ThreadPackage::note_cross_lane(CrossLaneKind kind, Tid from, Tid to,
                                    uint64_t subject) {
  if (lanes_.lanes() == 1 || from == kNoThread || to == kNoThread) return;
  LaneId fl = lanes_.lane_of(from);
  LaneId tl = lanes_.lane_of(to);
  if (fl == tl) return;
  CrossLaneEvent e;
  e.kind = kind;
  e.seq = cross_lane_seq_++;
  e.from_lane = fl;
  e.to_lane = tl;
  e.from = from;
  e.to = to;
  e.subject = subject;
  if (cross_lane_observer_) cross_lane_observer_(e);
}

void ThreadPackage::remove_from(std::deque<Tid>& q, Tid t) {
  auto it = std::find(q.begin(), q.end(), t);
  if (it != q.end()) q.erase(it);
}

void ThreadPackage::remove_from_timed(Tid t) {
  auto it = std::find(timed_parked_.begin(), timed_parked_.end(), t);
  if (it != timed_parked_.end()) timed_parked_.erase(it);
}

int64_t ThreadPackage::read_clock() {
  clock_reads_++;
  return clock_ms_();
}

void ThreadPackage::wake_expired() {
  if (timed_parked_.empty()) return;
  int64_t now = read_clock();
  // Stable scan in arming order: deterministic wake order for equal
  // deadlines.
  for (size_t i = 0; i < timed_parked_.size();) {
    Tid t = timed_parked_[i];
    ThreadRec& r = rec(t);
    if (!r.has_deadline || now < r.wake_deadline) {
      ++i;
      continue;
    }
    timed_parked_.erase(timed_parked_.begin() + long(i));
    r.has_deadline = false;
    if (r.state == ThreadState::kSleeping) {
      make_ready(t);
    } else if (r.state == ThreadState::kWaiting) {
      // Timed wait expired: leave the wait set, queue to re-acquire.
      MonitorId m = r.waiting_on;
      remove_from(mon(m).wait_set, t);
      r.state = ThreadState::kBlockedMonitor;
      mon(m).entry_queue.push_back(t);
      hand_off_if_free(m);
    }
  }
}

Tid ThreadPackage::schedule_next() {
  for (;;) {
    wake_expired();
    if (!lanes_.empty()) {
      Tid from = current_;
      Tid next;
      if (director_ != nullptr) {
        next = director_->pick_next(lanes_.queue(kLane0));
        lanes_.remove(next);
      } else {
        next = lanes_.pop_next();
      }
      ThreadRec& r = rec(next);
      DV_CHECK_MSG(r.state == ThreadState::kReady,
                   "dispatching non-ready thread " << next);
      // Control moving between lanes is itself an ordering edge.
      note_cross_lane(CrossLaneKind::kDispatch, last_dispatched_, next, 0);
      r.state = ThreadState::kRunning;
      current_ = next;
      last_dispatched_ = next;
      switch_count_++;
      if (observer_) observer_(from, next, pending_reason_);
      return next;
    }
    if (live_count_ == 0) return kNoThread;
    if (timed_parked_.empty()) {
      std::ostringstream os;
      os << "deadlock: all " << live_count_ << " live threads blocked (";
      for (Tid t = 1; t < Tid(threads_.size()); ++t) {
        if (threads_[t].state != ThreadState::kTerminated)
          os << threads_[t].name << "=" << thread_state_name(threads_[t].state)
             << " ";
      }
      os << ")";
      throw VmError(os.str());
    }
    // All live threads are parked on time: advance via the (replayable)
    // clock. idle_ backs off the host when the clock is real.
    idle_();
  }
}

void ThreadPackage::switch_out(SwitchReason reason) {
  DV_CHECK(current_ != kNoThread);
  ThreadRec& r = rec(current_);
  DV_CHECK(r.state == ThreadState::kRunning);
  r.state = ThreadState::kReady;
  lanes_.push_ready(current_);
  pending_reason_ = reason;
  current_ = kNoThread;
}

MonitorId ThreadPackage::create_monitor() {
  monitors_.push_back(MonitorRec{});
  return MonitorId(monitors_.size() - 1);
}

void ThreadPackage::hand_off_if_free(MonitorId m) {
  MonitorRec& mr = mon(m);
  if (mr.owner == kNoThread && !mr.entry_queue.empty()) {
    Tid t = mr.entry_queue.front();
    mr.entry_queue.pop_front();
    note_cross_lane(CrossLaneKind::kMonitorHandoff, current_, t, m);
    make_ready(t);  // it retries monitorenter when dispatched
  }
}

bool ThreadPackage::monitor_enter(MonitorId m) {
  DV_CHECK(current_ != kNoThread);
  MonitorRec& mr = mon(m);
  if (mr.owner == kNoThread) {
    mr.owner = current_;
    mr.entry_count = 1;
    return true;
  }
  if (mr.owner == current_) {
    mr.entry_count++;
    return true;
  }
  mr.entry_queue.push_back(current_);
  rec(current_).state = ThreadState::kBlockedMonitor;
  pending_reason_ = SwitchReason::kBlock;
  current_ = kNoThread;
  return false;
}

void ThreadPackage::monitor_exit(MonitorId m) {
  MonitorRec& mr = mon(m);
  DV_CHECK_MSG(mr.owner == current_, "monitorexit by non-owner");
  DV_CHECK(mr.entry_count > 0);
  if (--mr.entry_count == 0) {
    mr.owner = kNoThread;
    hand_off_if_free(m);
  }
}

bool ThreadPackage::monitor_held_by_current(MonitorId m) const {
  if (m == kNoMonitor || m >= monitors_.size()) return false;
  return monitors_[m].owner == current_;
}

Tid ThreadPackage::monitor_owner(MonitorId m) const {
  if (m == kNoMonitor || m >= monitors_.size()) return kNoThread;
  return monitors_[m].owner;
}

bool ThreadPackage::wait_begin(MonitorId m, int64_t timeout_ms,
                               WaitOutcome* immediate) {
  DV_CHECK(current_ != kNoThread);
  MonitorRec& mr = mon(m);
  DV_CHECK_MSG(mr.owner == current_, "wait on monitor not owned");
  ThreadRec& r = rec(current_);
  if (r.interrupted) {
    // Java: wait() on an interrupted thread completes immediately.
    r.interrupted = false;
    immediate->interrupted = true;
    return false;
  }
  r.saved_entry_count = mr.entry_count;
  mr.owner = kNoThread;
  mr.entry_count = 0;
  mr.wait_set.push_back(current_);
  r.state = ThreadState::kWaiting;
  r.waiting_on = m;
  if (timeout_ms >= 0) {
    r.wake_deadline = read_clock() + timeout_ms;
    r.has_deadline = true;
    timed_parked_.push_back(current_);
  }
  hand_off_if_free(m);
  pending_reason_ = SwitchReason::kWait;
  current_ = kNoThread;
  return true;
}

WaitOutcome ThreadPackage::wait_finish(MonitorId m) {
  MonitorRec& mr = mon(m);
  DV_CHECK_MSG(mr.owner == current_, "wait_finish without re-acquisition");
  ThreadRec& r = rec(current_);
  mr.entry_count = r.saved_entry_count;
  r.saved_entry_count = 0;
  WaitOutcome out;
  out.interrupted = r.interrupted;
  r.interrupted = false;
  return out;
}

bool ThreadPackage::notify_one(MonitorId m) {
  MonitorRec& mr = mon(m);
  DV_CHECK_MSG(mr.owner == current_, "notify on monitor not owned");
  if (mr.wait_set.empty()) return false;
  Tid t = mr.wait_set.front();
  mr.wait_set.pop_front();
  note_cross_lane(CrossLaneKind::kNotify, current_, t, m);
  ThreadRec& r = rec(t);
  if (r.has_deadline) {
    r.has_deadline = false;
    remove_from_timed(t);
  }
  r.state = ThreadState::kBlockedMonitor;
  mr.entry_queue.push_back(t);
  // The notifier holds the monitor, so no hand-off happens until it exits.
  return true;
}

int ThreadPackage::notify_all(MonitorId m) {
  int n = 0;
  while (notify_one(m)) ++n;
  return n;
}

void ThreadPackage::interrupt(Tid t) {
  ThreadRec& r = rec(t);
  r.interrupted = true;
  if (r.state == ThreadState::kWaiting || r.state == ThreadState::kSleeping) {
    note_cross_lane(CrossLaneKind::kInterrupt, current_, t, r.waiting_on);
  }
  if (r.state == ThreadState::kWaiting) {
    MonitorId m = r.waiting_on;
    remove_from(mon(m).wait_set, t);
    if (r.has_deadline) {
      r.has_deadline = false;
      remove_from_timed(t);
    }
    r.state = ThreadState::kBlockedMonitor;
    mon(m).entry_queue.push_back(t);
    hand_off_if_free(m);
  } else if (r.state == ThreadState::kSleeping) {
    if (r.has_deadline) {
      r.has_deadline = false;
      remove_from_timed(t);
    }
    make_ready(t);
  }
}

void ThreadPackage::sleep_begin(int64_t millis) {
  DV_CHECK(current_ != kNoThread);
  ThreadRec& r = rec(current_);
  r.wake_deadline = read_clock() + (millis < 0 ? 0 : millis);
  r.has_deadline = true;
  timed_parked_.push_back(current_);
  r.state = ThreadState::kSleeping;
  pending_reason_ = SwitchReason::kSleep;
  current_ = kNoThread;
}

bool ThreadPackage::join_would_block(Tid target) const {
  return rec(target).state != ThreadState::kTerminated;
}

void ThreadPackage::join_begin(Tid target) {
  DV_CHECK(current_ != kNoThread);
  ThreadRec& tr = rec(target);
  DV_CHECK_MSG(tr.state != ThreadState::kTerminated,
               "join_begin on terminated thread");
  tr.join_waiters.push_back(current_);
  rec(current_).state = ThreadState::kJoining;
  pending_reason_ = SwitchReason::kJoin;
  current_ = kNoThread;
}

bool ThreadPackage::interrupted_flag(Tid t) const { return rec(t).interrupted; }

void ThreadPackage::serialize(ByteWriter& w) const {
  w.put_uvarint(threads_.size());
  for (const ThreadRec& r : threads_) {
    w.put_string(r.name);
    w.put_u8(uint8_t(r.state));
    w.put_u8(r.interrupted ? 1 : 0);
    w.put_svarint(r.wake_deadline);
    w.put_u8(r.has_deadline ? 1 : 0);
    w.put_uvarint(r.waiting_on);
    w.put_uvarint(r.saved_entry_count);
    w.put_uvarint(r.join_waiters.size());
    for (Tid t : r.join_waiters) w.put_uvarint(t);
  }
  w.put_uvarint(monitors_.size());
  for (const MonitorRec& m : monitors_) {
    w.put_uvarint(m.owner);
    w.put_uvarint(m.entry_count);
    w.put_uvarint(m.entry_queue.size());
    for (Tid t : m.entry_queue) w.put_uvarint(t);
    w.put_uvarint(m.wait_set.size());
    for (Tid t : m.wait_set) w.put_uvarint(t);
  }
  lanes_.serialize(w);
  w.put_uvarint(timed_parked_.size());
  for (Tid t : timed_parked_) w.put_uvarint(t);
  w.put_uvarint(current_);
  w.put_uvarint(last_dispatched_);
  w.put_u8(uint8_t(pending_reason_));
  w.put_uvarint(live_count_);
  w.put_uvarint(switch_count_);
  w.put_uvarint(clock_reads_);
  w.put_uvarint(cross_lane_seq_);
}

void ThreadPackage::restore(ByteReader& r) {
  // Minimum wire sizes: a thread record is a name length, three flag bytes
  // and four varints; a monitor record is four varints.
  threads_.assign(r.get_count(8, "thread"), ThreadRec{});
  for (ThreadRec& t : threads_) {
    t.name = r.get_string();
    t.state = ThreadState(r.get_u8());
    t.interrupted = r.get_u8() != 0;
    t.wake_deadline = r.get_svarint();
    t.has_deadline = r.get_u8() != 0;
    t.waiting_on = MonitorId(r.get_uvarint());
    t.saved_entry_count = uint32_t(r.get_uvarint());
    t.join_waiters.resize(r.get_count(1, "join waiter"));
    for (Tid& w : t.join_waiters) w = Tid(r.get_uvarint());
  }
  monitors_.assign(r.get_count(4, "monitor"), MonitorRec{});
  for (MonitorRec& m : monitors_) {
    m.owner = Tid(r.get_uvarint());
    m.entry_count = uint32_t(r.get_uvarint());
    size_t ne = r.get_count(1, "monitor entry-queue");
    for (size_t i = 0; i < ne; ++i) m.entry_queue.push_back(Tid(r.get_uvarint()));
    size_t nw = r.get_count(1, "monitor wait-set");
    for (size_t i = 0; i < nw; ++i) m.wait_set.push_back(Tid(r.get_uvarint()));
  }
  lanes_.restore(r);
  timed_parked_.resize(r.get_count(1, "timed-parked thread"));
  for (Tid& t : timed_parked_) t = Tid(r.get_uvarint());
  current_ = Tid(r.get_uvarint());
  last_dispatched_ = Tid(r.get_uvarint());
  pending_reason_ = SwitchReason(r.get_u8());
  live_count_ = size_t(r.get_uvarint());
  switch_count_ = r.get_uvarint();
  clock_reads_ = r.get_uvarint();
  cross_lane_seq_ = r.get_uvarint();
}

}  // namespace dejavu::threads
