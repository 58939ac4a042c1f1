#include "src/fuzz/fault.hpp"

#include <filesystem>
#include <memory>

#include "src/common/check.hpp"
#include "src/common/io.hpp"
#include "src/common/rng.hpp"
#include "src/replay/session.hpp"

namespace dejavu::fuzz {

namespace {

// Sink decorator simulating a lost write: forwards every chunk except the
// drop_index-th one (counting all write_chunk calls, any stream). The seal
// totals -- or a missing meta/seal -- betray the gap at open time.
class DroppingSink : public replay::TraceSink {
 public:
  DroppingSink(std::unique_ptr<replay::TraceSink> inner, uint64_t drop_index)
      : inner_(std::move(inner)), drop_index_(drop_index) {}

  using replay::TraceSink::write_chunk;
  void write_chunk(replay::StreamId id, const uint8_t* payload, size_t n,
                   replay::LaneId lane) override {
    if (calls_++ != drop_index_) inner_->write_chunk(id, payload, n, lane);
  }
  void flush() override { inner_->flush(); }
  uint32_t version() const override { return inner_->version(); }

 private:
  std::unique_ptr<replay::TraceSink> inner_;
  uint64_t drop_index_;
  uint64_t calls_ = 0;
};

// skew_schedule's sink. Chunks start at record boundaries, so it can walk
// lane 0's schedule records -- one varint delta each, plus a Checkpoint
// after every checkpoint_interval-th -- and rewrite the one delta.
class ScheduleSkewSink : public replay::TraceSink {
 public:
  ScheduleSkewSink(std::unique_ptr<replay::TraceSink> inner, uint64_t nth,
                   uint64_t checkpoint_interval)
      : inner_(std::move(inner)), nth_(nth), interval_(checkpoint_interval) {}

  using replay::TraceSink::write_chunk;
  void write_chunk(replay::StreamId id, const uint8_t* payload, size_t n,
                   replay::LaneId lane) override {
    if (id != replay::StreamId::kSchedule || lane != 0 || deltas_ >= nth_) {
      inner_->write_chunk(id, payload, n, lane);
      return;
    }
    ByteReader r(payload, n);
    ByteWriter w;
    while (!r.at_end()) {
      if (checkpoint_next_) {
        replay::Checkpoint::read_from(r).write_to(w);
        checkpoint_next_ = false;
        continue;
      }
      uint64_t delta = r.get_uvarint();
      if (++deltas_ == nth_) delta++;  // the injected off-by-one
      w.put_uvarint(delta);
      checkpoint_next_ = deltas_ % interval_ == 0;
    }
    inner_->write_chunk(id, w.bytes().data(), w.size(), lane);
  }
  void flush() override { inner_->flush(); }
  uint32_t version() const override { return inner_->version(); }
  const std::vector<uint8_t>* in_memory() const override {
    return inner_->in_memory();
  }

 private:
  std::unique_ptr<replay::TraceSink> inner_;
  uint64_t nth_;
  uint64_t interval_;
  uint64_t deltas_ = 0;           // lane-0 deltas seen so far
  bool checkpoint_next_ = false;  // a Checkpoint record follows
};

}  // namespace

std::unique_ptr<replay::TraceSink> skew_schedule(
    std::unique_ptr<replay::TraceSink> inner, uint32_t nth,
    uint32_t checkpoint_interval) {
  return std::make_unique<ScheduleSkewSink>(std::move(inner), nth,
                                            checkpoint_interval);
}

FaultReport inject_trace_faults(const CaseSpec& spec,
                                const OracleOptions& oo, uint64_t seed,
                                uint32_t rounds) {
  FaultReport report;
  SplitMix64 rng(seed ^ 0xfa017);
  std::filesystem::create_directories(oo.scratch_dir);
  std::string good_path =
      oo.scratch_dir + "/fault-base-" + std::to_string(spec.seed) + ".djv";

  bytecode::Program prog = build_program(spec);
  vm::VmOptions opts = case_opts(spec, oo);
  replay::SymmetryConfig cfg = case_cfg(spec);
  OracleOptions unskewed = oo;  // the corruptions are the only faults here
  unskewed.test_skew_schedule_delta = 0;

  // The uncorrupted base recording must verify and replay clean; anything
  // else is an oracle problem, not a fault-injection result.
  uint64_t total_chunks = 0;
  try {
    replay::RecordResult rec =
        record_case(prog, spec, unskewed, cfg,
                    std::make_unique<replay::FileTraceSink>(good_path));
    if (rec.crashed) throw VmError("guest crashed: " + rec.error);
    replay::TraceVerifyReport base = replay::verify_trace_file(good_path);
    if (!base.ok) {
      report.base_detail = "base recording failed verify: " + base.error;
      return report;
    }
    total_chunks = base.valid_chunks + 2;  // data chunks, meta and seal
    replay::ReplayResult r = replay::replay_file(prog, good_path, opts, cfg);
    if (!r.verified) {
      report.base_detail = "base recording failed replay verification";
      return report;
    }
    report.base_ok = true;
  } catch (const VmError& e) {
    report.base_detail = std::string("base recording threw: ") + e.what();
    return report;
  }

  std::vector<uint8_t> good = read_file(good_path);
  std::string bad_path = oo.scratch_dir + "/fault-bad-" +
                         std::to_string(spec.seed) + ".djv";

  // Detection means both readers refuse: the offline verifier locates the
  // damage AND a strict replay fails loudly instead of running on it.
  auto check_detected = [&](const std::string& mode,
                            const std::string& detail) {
    replay::TraceVerifyReport rep = replay::verify_trace_file(bad_path);
    bool verify_caught = !rep.ok;
    bool replay_caught = false;
    std::string replay_note = "replay accepted the file";
    try {
      replay::ReplayResult r = replay::replay_file(prog, bad_path, opts, cfg);
      replay_caught = !r.verified;
      if (replay_caught) replay_note = "replay ran but failed verification";
    } catch (const VmError& e) {
      replay_caught = true;
      replay_note = e.what();
    }
    report.injected++;
    FaultFinding f;
    f.mode = mode;
    f.detected = verify_caught && replay_caught;
    f.detail = detail + " -- verify: " +
               (verify_caught ? rep.error : std::string("MISSED")) +
               " -- replay: " + replay_note;
    if (f.detected) {
      report.detected++;
    } else {
      report.undetected.push_back(std::move(f));
    }
  };

  for (uint32_t r = 0; r < rounds; ++r) {
    {  // single-bit flip anywhere, framing and header included
      std::vector<uint8_t> bad = good;
      size_t off = size_t(rng.next_below(bad.size()));
      uint8_t bit = uint8_t(1u << rng.next_below(8));
      bad[off] ^= bit;
      write_file(bad_path, bad);
      check_detected("flip", "offset " + std::to_string(off));
    }
    {  // truncation: a recorder that died mid-write
      std::vector<uint8_t> bad = good;
      bad.resize(size_t(rng.next_below(bad.size())));
      write_file(bad_path, bad);
      check_detected("truncate", "to " + std::to_string(bad.size()) +
                                     " of " + std::to_string(good.size()) +
                                     " bytes");
    }
    {  // zeroed span: a hole a sparse filesystem might hand back
      std::vector<uint8_t> bad = good;
      size_t off = size_t(rng.next_below(bad.size()));
      size_t len = std::min(size_t(rng.next_range(1, 16)), bad.size() - off);
      for (size_t i = 0; i < len; ++i) bad[off + i] = 0;
      if (bad == good) bad[off] = 0xFF;  // span was already zero; still corrupt
      write_file(bad_path, bad);
      check_detected("zero-span", "offset " + std::to_string(off) + " len " +
                                      std::to_string(len));
    }
  }

  // Short write at the sink layer: one whole chunk silently lost
  // mid-recording (not a clean prefix -- the seal's totals expose the gap,
  // or the meta/seal itself goes missing).
  {
    uint64_t drop = rng.next_below(total_chunks);
    record_case(prog, spec, unskewed, cfg,
                std::make_unique<DroppingSink>(
                    std::make_unique<replay::FileTraceSink>(bad_path), drop));
    check_detected("short-write", "dropped chunk " + std::to_string(drop) +
                                      " of " + std::to_string(total_chunks));
  }

  std::error_code ec;
  std::filesystem::remove(good_path, ec);
  std::filesystem::remove(bad_path, ec);
  return report;
}

}  // namespace dejavu::fuzz
