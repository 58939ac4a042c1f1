#include "src/obs/analysis/critical_path.hpp"

#include <algorithm>
#include <string_view>

#include "src/common/check.hpp"
#include "src/obs/json.hpp"

namespace dejavu::obs {

namespace {

size_t decimal_digits(uint64_t v) {
  size_t n = 1;
  for (; v >= 10; v /= 10) n++;
  return n;
}

// One critical_path row with its values left out, plus the comma before it.
constexpr std::string_view kPathRowFrame =
    R"(,{"tid":,"start":,"end":,"instrs":,"method":"","edge":""})";

// std::partition_point over [first, last) for a predicate that holds on a
// prefix, searched outward from `hint` in doubling steps, so it costs
// O(log d) for an answer d places from the hint. The result does not
// depend on the hint.
template <typename It, typename Pred>
It gallop_partition_point(It first, It last, It hint, Pred pred) {
  size_t step = 1;
  if (hint != first && !pred(*(hint - 1))) {
    It hi = hint - 1;  // pred fails here: the answer is at or before hi
    while (true) {
      It lo = hi - std::min(step, size_t(hi - first));
      if (lo == first || pred(*lo)) return std::partition_point(lo, hi, pred);
      hi = lo;
      step *= 2;
    }
  }
  It lo = hint;  // pred holds before lo: the answer is at or after lo
  while (lo != last) {
    It hi = lo + std::min(step, size_t(last - lo));
    if (!pred(*(hi - 1))) return std::partition_point(lo, hi, pred);
    lo = hi;
    step *= 2;
  }
  return last;
}

}  // namespace

CriticalPathAnalyzer::ThreadWall& CriticalPathAnalyzer::wall(
    threads::Tid tid) {
  if (walls_.size() <= tid) walls_.resize(tid + 1);
  walls_[tid].seen = true;
  return walls_[tid];
}

void CriticalPathAnalyzer::park(threads::Tid tid, ParkKind kind, uint64_t at) {
  if (parks_.size() <= tid) parks_.resize(tid + 1);
  parks_[tid] = Park{kind, at, kind != ParkKind::kDone};
}

void CriticalPathAnalyzer::unpark(threads::Tid tid, uint64_t at) {
  if (parks_.size() <= tid || !parks_[tid].parked) return;
  Park& p = parks_[tid];
  uint64_t dt = at >= p.since ? at - p.since : 0;
  ThreadWall& w = wall(tid);
  switch (p.kind) {
    case ParkKind::kRunnable: w.runnable += dt; break;
    case ParkKind::kBlocked: w.blocked += dt; break;
    case ParkKind::kWaiting: w.waiting += dt; break;
    case ParkKind::kDone: break;
  }
  p.parked = false;
}

const std::string* CriticalPathAnalyzer::label(const std::string* owner,
                                               const std::string* method) {
  if (method == nullptr) return nullptr;
  auto [it, fresh] = label_of_.try_emplace({owner, method}, nullptr);
  if (fresh) {
    std::string text;
    if (owner != nullptr) text.append(*owner).append(".");
    text.append(*method);
    it->second = &*labels_.insert(std::move(text)).first;
  }
  return it->second;
}

void CriticalPathAnalyzer::close_segment(uint64_t at) {
  if (current_ == threads::kNoThread) return;
  if (at < seg_start_) at = seg_start_;
  // The walk in on_run_end relies on segment starts never decreasing.
  DV_CHECK(segments_.empty() || segments_.back().start <= seg_start_);
  Segment s;
  s.tid = current_;
  s.start = seg_start_;
  s.end = at;
  // Dominant method of the segment: most instructions, ties to the
  // lexicographically smallest non-empty label. The rule does not depend
  // on the order of seg_methods_.
  uint64_t best = 0;
  for (const MethodCount& m : seg_methods_) best = std::max(best, m.count);
  for (const MethodCount& m : seg_methods_) {
    if (m.count != best) continue;
    const std::string* l = label(m.owner, m.method);
    if (l != nullptr && !l->empty() &&
        (s.method == nullptr || *l < *s.method))
      s.method = l;
  }
  wall(current_).running += s.end - s.start;
  by_tid_.resize(std::max<size_t>(by_tid_.size(), current_ + 1));
  by_tid_[current_].push_back(segments_.size());
  segments_.push_back(s);
  seg_methods_.clear();
}

void CriticalPathAnalyzer::push_wake(threads::Tid tid, const char* kind,
                                     threads::Tid from, uint64_t subject,
                                     uint64_t instr) {
  if (wakes_.size() <= tid) wakes_.resize(tid + 1);
  wakes_[tid].push_back(WakeEdge{kind, from, subject, instr});
}

void CriticalPathAnalyzer::mark_parked_wake(threads::Tid tid) {
  if (pending_explicit_.size() <= tid) pending_explicit_.resize(tid + 1);
  pending_explicit_[tid] = true;
}

void CriticalPathAnalyzer::on_instruction(const vm::InstrEvent& ev) {
  if (current_ == threads::kNoThread) {
    // First instruction of the run: the initial thread was never switched
    // in, so the segment starts here.
    current_ = ev.tid;
    seg_start_ = ev.instr_index;
    push_wake(ev.tid, "start", threads::kNoThread, 0, ev.instr_index);
  }
  if (last_method_ >= seg_methods_.size() ||
      seg_methods_[last_method_].method != ev.method) {
    auto it = std::find_if(
        seg_methods_.begin(), seg_methods_.end(),
        [&](const MethodCount& m) { return m.method == ev.method; });
    last_method_ = size_t(it - seg_methods_.begin());
    if (it == seg_methods_.end())
      seg_methods_.push_back(MethodCount{ev.method, nullptr, 0});
  }
  MethodCount& m = seg_methods_[last_method_];
  m.owner = ev.owner;
  m.count++;
}

uint64_t CriticalPathAnalyzer::resume_instr(const vm::MonitorEvent& e) {
  // An acquire / wait-end completes the parking episode the thread began
  // at the recorded ParkSite. When a switch happened in between, the
  // current segment started at the resumption dispatch and the wake edge
  // must carry that instant; the event's own instr_index is one past it
  // (the parked instruction re-executes after instr_count_ advanced). A
  // zero-length episode (no switch) keeps the event's position.
  if (e.tid >= monitor_park_.size()) return e.instr_index;
  ParkSite& site = monitor_park_[e.tid];
  if (!site.open || site.monitor != e.monitor) return e.instr_index;
  uint64_t begin = site.begin;
  site.open = false;
  if (current_ == e.tid && seg_start_ > begin) return seg_start_;
  return e.instr_index;
}

void CriticalPathAnalyzer::on_monitor_event(const vm::MonitorEvent& e) {
  switch (e.op) {
    case vm::MonitorOp::kExit:
      last_release_[e.monitor] =
          WakeEdge{"handoff", e.tid, e.monitor, e.instr_index};
      break;
    case vm::MonitorOp::kNotifyOne:
    case vm::MonitorOp::kNotifyAll:
      if (e.woken > 0)
        last_notify_[e.monitor] =
            WakeEdge{"notify", e.tid, e.monitor, e.instr_index};
      break;
    case vm::MonitorOp::kEnterAcquired:
      // A non-recursive acquire after contention: the thread that released
      // the monitor handed it to us -- the wake edge of this segment.
      if (!e.recursive) {
        auto it = last_release_.find(e.monitor);
        if (it != last_release_.end() && it->second.from != e.tid)
          push_wake(e.tid, "handoff", it->second.from, e.monitor,
                    resume_instr(e));
      }
      break;
    case vm::MonitorOp::kWaitEnd: {
      uint64_t at = resume_instr(e);
      auto it = last_notify_.find(e.monitor);
      if (it != last_notify_.end())
        push_wake(e.tid, "notify", it->second.from, e.monitor, at);
      break;
    }
    case vm::MonitorOp::kEnterBlocked:
    case vm::MonitorOp::kWaitBegin:
      // Remember where the park began: the matching acquire / wait-end is
      // a resumption whose wake must be dated at the segment start, not at
      // the re-executed instruction (which is one past it).
      if (monitor_park_.size() <= e.tid) monitor_park_.resize(e.tid + 1);
      monitor_park_[e.tid] = ParkSite{e.monitor, e.instr_index, true};
      break;
  }
}

void CriticalPathAnalyzer::on_switch(threads::Tid from, threads::Tid to,
                                     threads::SwitchReason reason,
                                     uint64_t instr_index) {
  switches_++;
  if (current_ == threads::kNoThread && from != threads::kNoThread) {
    current_ = from;
    seg_start_ = instr_index;
  }
  // The scheduler reports from == kNoThread when the outgoing thread left
  // via a parking path (block / wait / sleep / join / terminate clear the
  // running slot before the next dispatch); the thread that parked is the
  // one we saw running.
  threads::Tid parked = from != threads::kNoThread ? from : current_;
  close_segment(instr_index);
  if (parked != threads::kNoThread) {
    switch (reason) {
      case threads::SwitchReason::kPreempt:
      case threads::SwitchReason::kYield:
        park(parked, ParkKind::kRunnable, instr_index);
        break;
      case threads::SwitchReason::kBlock:
        park(parked, ParkKind::kBlocked, instr_index);
        break;
      case threads::SwitchReason::kWait:
      case threads::SwitchReason::kSleep:
      case threads::SwitchReason::kJoin:
        park(parked, ParkKind::kWaiting, instr_index);
        break;
      case threads::SwitchReason::kTerminate:
        park(parked, ParkKind::kDone, instr_index);
        break;
    }
  }
  if (to != threads::kNoThread) {
    unpark(to, instr_index);
    // The scheduler's own edge is the fallback: explicit wakes take
    // precedence. Edges that fire after the thread resumes (handoff /
    // notify / join) are pushed later and win the backward scan on their
    // own; edges that fired while the thread was parked (spawn /
    // cross-lane) must suppress this push or the switch-in would always
    // shadow them.
    if (to < pending_explicit_.size() && pending_explicit_[to]) {
      pending_explicit_[to] = false;
    } else {
      if (wakes_.size() <= to) wakes_.resize(to + 1);
      wakes_[to].push_back(WakeEdge{"schedule", parked, 0, instr_index});
    }
    current_ = to;
    seg_start_ = instr_index;
  } else {
    current_ = threads::kNoThread;
  }
}

void CriticalPathAnalyzer::on_thread_event(const vm::ThreadEvent& e) {
  switch (e.op) {
    case vm::ThreadOp::kSpawn:
      wall(e.other);
      park(e.other, ParkKind::kRunnable, e.instr_index);
      push_wake(e.other, "spawn", e.tid, 0, e.instr_index);
      mark_parked_wake(e.other);
      break;
    case vm::ThreadOp::kJoinEnd:
      push_wake(e.tid, "join", e.other, 0, e.instr_index);
      break;
    case vm::ThreadOp::kExit:
      break;
  }
}

void CriticalPathAnalyzer::on_cross_lane(const threads::CrossLaneEvent& e) {
  if (e.to == threads::kNoThread || e.to == e.from) return;
  // Cross-lane order events pin inter-lane dependencies; surface them in
  // the walk under a kind tag derived from the order-event kind. seq is the
  // order-stream position, not an instruction index, so the edge borrows
  // the current segment start (the events fan synchronously in replay
  // order, which is all the backward walk needs).
  const char* name = threads::cross_lane_kind_name(e.kind);
  auto [it, fresh] = xlane_kinds_.try_emplace(name);
  if (fresh) it->second.append("xlane:").append(name);
  push_wake(e.to, it->second.c_str(), e.from, e.subject, seg_start_);
  if (e.to != current_) mark_parked_wake(e.to);
}

void CriticalPathAnalyzer::on_run_end(const RunInfo& info) {
  run_ = info;
  close_segment(info.instr_count);
  current_ = threads::kNoThread;
  // Residual park time up to the end of the run.
  for (threads::Tid tid = 0; tid < parks_.size(); ++tid)
    unpark(tid, info.instr_count);

  // The dependency walk: start at the chronologically last segment and
  // follow each segment's most recent wake edge backwards. Every hop lands
  // on an earlier segment index, so the walk terminates.
  path_.clear();
  hop_kinds_.clear();
  if (segments_.empty()) return;
  // One backward cursor per tid into wakes_, kept across hops: edges at or
  // past the cursor are later than a start the walk has already passed,
  // and starts only fall as cur falls (see the header comment).
  std::vector<size_t> wake_cursor(wakes_.size());
  for (size_t t = 0; t < wakes_.size(); ++t) wake_cursor[t] = wakes_[t].size();
  // Per tid, where the last search of its segment list landed: the walk
  // moves backwards, so the next answer is usually close by.
  std::vector<size_t> seg_hint(by_tid_.size());
  for (size_t t = 0; t < by_tid_.size(); ++t) seg_hint[t] = by_tid_[t].size();
  size_t cur = segments_.size() - 1;
  path_.push_back(cur);
  while (cur > 0) {
    const Segment& s = segments_[cur];
    // Latest wake edge for s.tid, in push order, at or before the segment
    // start.
    const WakeEdge* edge = nullptr;
    if (s.tid < wakes_.size()) {
      const std::vector<WakeEdge>& w = wakes_[s.tid];
      size_t& i = wake_cursor[s.tid];
      while (i > 0 && w[i - 1].instr > s.start) --i;
      if (i > 0) edge = &w[i - 1];
    }
    size_t next = cur - 1;  // default: the previous segment in time
    if (edge != nullptr && edge->from != threads::kNoThread &&
        edge->from < by_tid_.size()) {
      // The waker's latest segment before cur that had started by the wake.
      const std::vector<size_t>& segs = by_tid_[edge->from];
      size_t& hint = seg_hint[edge->from];
      auto it = gallop_partition_point(
          segs.begin(), segs.end(), segs.begin() + hint, [&](size_t k) {
            return k < cur && segments_[k].start <= edge->instr;
          });
      hint = size_t(it - segs.begin());
      if (it != segs.begin()) next = *(it - 1);
    }
    hop_kinds_.push_back(edge != nullptr ? edge->kind : "schedule");
    cur = next;
    path_.push_back(cur);
  }
  std::reverse(path_.begin(), path_.end());
  std::reverse(hop_kinds_.begin(), hop_kinds_.end());
}

std::string CriticalPathAnalyzer::artifact() const {
  uint64_t path_instrs = 0;
  for (size_t i : path_) path_instrs += segments_[i].end - segments_[i].start;

  // Per-method attribution of critical-path time (the mergeable view):
  // summed per interned label, then per rendered name.
  std::unordered_map<const std::string*, uint64_t> by_label;
  for (size_t i : path_) {
    const Segment& s = segments_[i];
    by_label[s.method] += s.end - s.start;
  }
  std::map<std::string_view, uint64_t> by_method;
  for (const auto& [l, instrs] : by_label) {
    by_method[l == nullptr || l->empty() ? "<vm>" : std::string_view(*l)] +=
        instrs;
  }
  std::vector<std::pair<std::string_view, uint64_t>> methods(
      by_method.begin(), by_method.end());
  std::sort(methods.begin(), methods.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (methods.size() > top_n_) methods.resize(top_n_);

  // Edge-kind histogram over the walked path (mergeable), summed per tag
  // pointer, then per name.
  std::unordered_map<const char*, uint64_t> by_tag;
  for (const char* k : hop_kinds_) by_tag[k]++;
  std::map<std::string_view, uint64_t> kinds;
  for (const auto& [k, count] : by_tag) kinds[k] += count;

  // The path rows are nearly all of the document and their size is known;
  // the other sections are bounded by their row counts.
  size_t bytes = 512 + 160 * walls_.size();
  for (size_t i = 0; i < path_.size(); ++i) {
    const Segment& s = segments_[path_[i]];
    bytes += kPathRowFrame.size() + decimal_digits(s.tid) +
             decimal_digits(s.start) + decimal_digits(s.end) +
             decimal_digits(s.end - s.start) +
             (s.method != nullptr ? s.method->size() : 0) +
             std::char_traits<char>::length(i == 0 ? "start"
                                                   : hop_kinds_[i - 1]);
  }
  for (const auto& [m, instrs] : methods) bytes += 64 + m.size();
  for (const auto& [k, count] : kinds) bytes += 64 + k.size();

  JsonWriter w;
  w.reserve(bytes);
  w.begin_object()
      .kv("schema", "dejavu-critpath-v1")
      .kv("run_instr_count", run_.instr_count)
      .kv("switches", switches_)
      .kv("critical_path_instrs", path_instrs)
      .kv("verified", run_.verified)
      .kv("post_violation", run_.post_violation);

  // Per-thread wall breakdown, instruction-clock units, tid ascending.
  w.key("threads").begin_array();
  for (threads::Tid tid = 0; tid < walls_.size(); ++tid) {
    const ThreadWall& tw = walls_[tid];
    if (!tw.seen) continue;
    w.begin_object()
        .kv("tid", uint64_t(tid))
        .kv("running", tw.running)
        .kv("runnable", tw.runnable)
        .kv("blocked", tw.blocked)
        .kv("waiting", tw.waiting)
        .end_object();
  }
  w.end_array();

  // The walked path, chronological; hop edge kinds label how segment i
  // depends on segment i-1's thread.
  w.key("critical_path").begin_array();
  for (size_t i = 0; i < path_.size(); ++i) {
    const Segment& s = segments_[path_[i]];
    w.begin_object()
        .kv("tid", uint64_t(s.tid))
        .kv("start", s.start)
        .kv("end", s.end)
        .kv("instrs", s.end - s.start)
        .kv("method", s.method != nullptr ? std::string_view(*s.method)
                                          : std::string_view())
        .kv("edge", i == 0 ? "start" : hop_kinds_[i - 1])
        .end_object();
  }
  w.end_array();

  w.key("by_method").begin_array();
  for (const auto& [m, instrs] : methods)
    w.begin_object().kv("method", m).kv("instrs", instrs).end_object();
  w.end_array();

  w.key("edge_kinds").begin_array();
  for (const auto& [k, count] : kinds)
    w.begin_object().kv("kind", k).kv("count", count).end_object();
  w.end_array();

  w.end_object();
  return w.take();
}

}  // namespace dejavu::obs
