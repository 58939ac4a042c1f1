// Restoring a VM snapshot treats every count in it as hostile: a count
// larger than the bytes left could hold is a located error, raised before
// anything is sized from it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/io.hpp"
#include "src/heap/heap.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/vm/vm.hpp"
#include "src/workloads/workloads.hpp"

namespace dejavu::vm {
namespace {

// Where one varint-sized count sits in a snapshot, and the word its error
// names.
struct CountSite {
  const char* what;
  size_t offset = 0;
};

void skip_uvarints(ByteReader& r, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) r.get_uvarint();
}

// Walks a snapshot in capture_snapshot's layout and notes the offset of
// each count the restore sizes a container from. Every site exists in any
// booted VM (a count of zero is still a count).
std::vector<CountSite> count_sites(const std::vector<uint8_t>& snap,
                                   const VmOptions& opts) {
  std::vector<CountSite> sites;
  ByteReader r(snap);
  auto mark = [&](const char* what) { sites.push_back({what, r.position()}); };
  // Prologue, counters and running hashes.
  r.get_u32_fixed();
  r.get_u32_fixed();
  r.get_uvarint();
  r.get_u8();
  r.get_uvarint();
  r.get_u8();
  r.get_uvarint();
  skip_uvarints(r, 3);
  r.get_u64_fixed();
  r.get_u64_fixed();
  mark("type");
  heap::TypeRegistry types;
  types.restore(r);
  heap::Heap heap(types, opts.heap);
  heap.restore(r);
  // Thread package.
  mark("thread");
  uint64_t nthreads = r.get_uvarint();
  for (uint64_t t = 0; t < nthreads; ++t) {
    r.get_string();
    r.get_u8();
    r.get_u8();
    r.get_svarint();
    r.get_u8();
    skip_uvarints(r, 2);
    if (t == 0) mark("join waiter");
    skip_uvarints(r, r.get_uvarint());
  }
  mark("monitor");
  uint64_t nmonitors = r.get_uvarint();
  for (uint64_t m = 0; m < nmonitors; ++m) {
    skip_uvarints(r, 2);
    skip_uvarints(r, r.get_uvarint());
    skip_uvarints(r, r.get_uvarint());
  }
  uint64_t lanes = r.get_uvarint();
  for (uint64_t l = 0; l < lanes; ++l) skip_uvarints(r, r.get_uvarint());
  mark("lane assignment");
  skip_uvarints(r, r.get_uvarint());
  skip_uvarints(r, 2);
  mark("timed-parked thread");
  skip_uvarints(r, r.get_uvarint());
  skip_uvarints(r, 2);
  r.get_u8();
  skip_uvarints(r, 4);
  // Audit accumulator.
  r.get_u64_fixed();
  skip_uvarints(r, 1 + kAuditKindCount);
  // Class table.
  uint64_t nclasses = r.get_uvarint();
  r.get_uvarint();
  for (uint64_t c = 0; c < nclasses; ++c) {
    if (r.get_u8() != 0) {
      r.get_string();
      r.get_uvarint();
    }
    r.get_u8();
    skip_uvarints(r, 4);
    uint64_t nmethods = r.get_uvarint();
    for (uint64_t m = 0; m < nmethods; ++m) {
      r.get_u8();
      r.get_uvarint();
    }
  }
  r.get_uvarint();  // registry object
  mark("string pool cache");
  skip_uvarints(r, r.get_uvarint());
  mark("execution context");
  uint64_t ncontexts = r.get_uvarint();
  for (uint64_t i = 0; i < ncontexts; ++i) {
    if (r.get_u8() == 0) continue;
    skip_uvarints(r, 3);
    r.get_u8();
    r.get_u8();
    skip_uvarints(r, 2);
    mark("stack slot");
    break;  // the first live context's slots are enough
  }
  return sites;
}

// The snapshot with the varint at `offset` replaced by `count`.
std::vector<uint8_t> with_count(const std::vector<uint8_t>& snap,
                                size_t offset, uint64_t count) {
  ByteReader r(snap.data() + offset, snap.size() - offset);
  r.get_uvarint();
  ByteWriter w;
  w.put_bytes(snap.data(), offset);
  w.put_uvarint(count);
  size_t rest = offset + r.position();
  w.put_bytes(snap.data() + rest, snap.size() - rest);
  return w.take();
}

TEST(Snapshot, HugeCountsAreRejectedBeforeAllocating) {
  const bytecode::Program prog = workloads::lock_pingpong(10);
  VmOptions opts;
  ScriptedEnvironment env(1000, 7, {}, 11);
  threads::NullTimer timer;
  Vm source(prog, opts, env, timer, nullptr);
  source.boot();
  ByteWriter w;
  source.capture_snapshot(w);
  const std::vector<uint8_t> snap = w.take();

  {  // The untouched snapshot restores.
    Vm vm(prog, opts, env, timer, nullptr);
    EXPECT_NO_THROW(vm.boot_from_snapshot(snap));
  }
  const std::vector<CountSite> sites = count_sites(snap, opts);
  ASSERT_EQ(sites.size(), 9u);
  for (const CountSite& site : sites) {
    for (uint64_t count : {uint64_t(1) << 40, ~uint64_t(0) >> 1}) {
      SCOPED_TRACE(std::string(site.what) + " count " +
                   std::to_string(count));
      Vm vm(prog, opts, env, timer, nullptr);
      try {
        vm.boot_from_snapshot(with_count(snap, site.offset, count));
        ADD_FAILURE() << "restore accepted the count";
      } catch (const VmError& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(std::string(site.what) + " count"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("at offset " + std::to_string(site.offset)),
                  std::string::npos)
            << msg;
      }
    }
  }
}

}  // namespace
}  // namespace dejavu::vm
