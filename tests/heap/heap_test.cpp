#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/heap/heap.hpp"

namespace dejavu::heap {
namespace {

class NoRoots : public RootProvider {
 public:
  void enumerate_roots(const std::function<void(uint64_t*)>&) override {}
};

class VectorRoots : public RootProvider {
 public:
  std::vector<uint64_t> roots;
  void enumerate_roots(const std::function<void(uint64_t*)>& v) override {
    for (auto& r : roots) v(&r);
  }
};

TypeRegistry make_types(uint32_t* pair_id) {
  TypeRegistry t;
  // A "pair" object: slot0 = i64, slot1 = ref.
  *pair_id = t.register_type(TypeInfo{"Pair", 2, {false, true}});
  return t;
}

TEST(Heap, AllocObjectZeroed) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr a = h.alloc_object(pair);
  EXPECT_NE(a, kNull);
  EXPECT_EQ(h.class_of(a), pair);
  EXPECT_EQ(h.field_i64(a, 0), 0);
  EXPECT_EQ(h.field_ref(a, 1), kNull);
  EXPECT_EQ(h.lockword(a), 0u);
}

TEST(Heap, FieldRoundTrip) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr a = h.alloc_object(pair);
  Addr b = h.alloc_object(pair);
  h.set_field_i64(a, 0, -77);
  h.set_field_ref(a, 1, b);
  EXPECT_EQ(h.field_i64(a, 0), -77);
  EXPECT_EQ(h.field_ref(a, 1), b);
}

TEST(Heap, ArraysOfAllKinds) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr ia = h.alloc_array_i64(5);
  Addr ra = h.alloc_array_ref(3);
  Addr ba = h.alloc_array_bytes(9);
  EXPECT_EQ(h.array_length(ia), 5u);
  EXPECT_EQ(h.array_length(ra), 3u);
  EXPECT_EQ(h.array_length(ba), 9u);
  h.set_array_i64(ia, 4, 123);
  EXPECT_EQ(h.array_i64(ia, 4), 123);
  h.set_array_ref(ra, 0, ia);
  EXPECT_EQ(h.array_ref(ra, 0), ia);
  h.set_array_byte(ba, 8, 0xfe);
  EXPECT_EQ(h.array_byte(ba, 8), 0xfe);
}

TEST(Heap, BoundsChecked) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr ia = h.alloc_array_i64(2);
  EXPECT_THROW(h.array_i64(ia, 2), VmError);
  EXPECT_THROW(h.set_array_i64(ia, 100, 1), VmError);
  EXPECT_THROW(h.field_i64(kNull, 0), VmError);
}

TEST(Heap, SetArrayBytesCopiesARunWithOneBoundsCheck) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr ba = h.alloc_array_bytes(8);
  Addr next = h.alloc_array_bytes(4);  // a neighbour an overrun would hit
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};

  h.set_array_bytes(ba, 0, data, 8);  // the full length
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(h.array_byte(ba, i), data[i]);
  h.set_array_bytes(ba, 8, data, 0);  // n = 0 at the end
  h.set_array_bytes(ba, 5, data, 3);  // a tail run
  EXPECT_EQ(h.array_byte(ba, 4), 5);
  EXPECT_EQ(h.array_byte(ba, 5), 1);
  EXPECT_EQ(h.array_byte(ba, 7), 3);

  EXPECT_THROW(h.set_array_bytes(ba, 6, data, 3), VmError);  // idx + n > len
  EXPECT_THROW(h.set_array_bytes(ba, 9, data, 0), VmError);  // idx > len
  // idx + n would wrap to a small number: still out of bounds.
  EXPECT_THROW(h.set_array_bytes(ba, 2, data, ~size_t(0)), VmError);
  EXPECT_THROW(h.set_array_bytes(ba, ~uint64_t(0), data, 2), VmError);
  EXPECT_THROW(h.set_array_bytes(kNull, 0, data, 1), VmError);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(h.array_byte(next, i), 0);
}

TEST(Heap, ZeroLengthArrays) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr a = h.alloc_array_i64(0);
  EXPECT_EQ(h.array_length(a), 0u);
  EXPECT_THROW(h.array_i64(a, 0), VmError);
}

TEST(Heap, OutOfMemoryThrowsWhenLiveSetExceedsCapacity) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{4096, GcKind::kSemispaceCopying});
  VectorRoots roots;
  h.set_root_provider(&roots);
  EXPECT_THROW(
      {
        // Everything stays rooted, so GC cannot help.
        for (int i = 0; i < 10000; ++i)
          roots.roots.push_back(h.alloc_array_i64(16));
      },
      VmError);
}

TEST(Heap, GarbageOnlyChurnNeverExhausts) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{4096, GcKind::kSemispaceCopying});
  NoRoots roots;
  h.set_root_provider(&roots);
  for (int i = 0; i < 10000; ++i) (void)h.alloc_array_i64(64);
  EXPECT_GT(h.stats().gc_count, 0u);
}

TEST(Heap, StatsTrackAllocations) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  EXPECT_EQ(h.stats().alloc_count, 0u);
  h.alloc_object(pair);
  h.alloc_array_i64(4);
  EXPECT_EQ(h.stats().alloc_count, 2u);
  EXPECT_GT(h.stats().alloc_bytes, 0u);
}

TEST(Heap, ImageHashChangesWithContent) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr a = h.alloc_object(pair);
  uint64_t h1 = h.image_hash();
  h.set_field_i64(a, 0, 1);
  uint64_t h2 = h.image_hash();
  EXPECT_NE(h1, h2);
}

TEST(Heap, IdenticalSequencesHashIdentically) {
  uint32_t pair1, pair2;
  TypeRegistry t1 = make_types(&pair1);
  TypeRegistry t2 = make_types(&pair2);
  Heap h1(t1, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Heap h2(t2, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  for (Heap* h : {&h1, &h2}) {
    Addr a = h->alloc_object(pair1);
    Addr arr = h->alloc_array_i64(3);
    h->set_field_ref(a, 1, arr);
    h->set_array_i64(arr, 1, 99);
  }
  EXPECT_EQ(h1.image_hash(), h2.image_hash());
}

TEST(Heap, ValidRange) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  Heap h(types, HeapConfig{1 << 20, GcKind::kSemispaceCopying});
  Addr a = h.alloc_object(pair);
  EXPECT_TRUE(h.valid_range(a, 16));
  EXPECT_FALSE(h.valid_range(0, 1));
  EXPECT_FALSE(h.valid_range(a, 1 << 21));
}

// The store is committed on demand, so restore re-allocates it rather
// than zero-filling it. A restore over a heap dirtied past the
// checkpoint's bump pointer (in both semispaces) must equal a restore into
// a fresh heap: same image hash, same serialized bytes, and zero bytes
// everywhere past the restored allocation.
TEST(Heap, RestoreOverADirtiedHeapEqualsRestoreIntoAFreshOne) {
  for (GcKind kind : {GcKind::kSemispaceCopying, GcKind::kMarkSweep}) {
    SCOPED_TRACE(kind == GcKind::kMarkSweep ? "mark-sweep" : "copying");
    uint32_t pair;
    TypeRegistry types = make_types(&pair);
    HeapConfig cfg{64 << 10, kind};

    Heap src(types, cfg);
    for (int i = 0; i < 10; ++i) src.set_field_i64(src.alloc_object(pair), 0, i);
    ByteWriter ckpt;
    src.serialize(ckpt);
    size_t bump = 8 + src.used_bytes();  // no GC ran: live space from 0

    Heap dirty(types, cfg);
    VectorRoots roots;
    dirty.set_root_provider(&roots);
    for (int i = 0; i < 1000; ++i) {
      Addr a = dirty.alloc_object(pair);
      dirty.set_field_i64(a, 0, -1);
      if (i % 3 == 0) roots.roots.push_back(a);
      if (i == 500) dirty.collect();
    }
    ByteReader r1(ckpt.bytes());
    dirty.restore(r1);

    Heap fresh(types, cfg);
    ByteReader r2(ckpt.bytes());
    fresh.restore(r2);

    EXPECT_EQ(dirty.image_hash(), src.image_hash());
    EXPECT_EQ(dirty.image_hash(), fresh.image_hash());
    ByteWriter a, b;
    dirty.serialize(a);
    fresh.serialize(b);
    EXPECT_EQ(a.bytes(), ckpt.bytes());
    EXPECT_EQ(b.bytes(), ckpt.bytes());
    ASSERT_EQ(dirty.raw_size(), fresh.raw_size());
    EXPECT_EQ(std::memcmp(dirty.raw(), fresh.raw(), dirty.raw_size()), 0);
    size_t nonzero = 0;
    for (size_t i = bump; i < dirty.raw_size(); ++i) nonzero += dirty.raw()[i] != 0;
    EXPECT_EQ(nonzero, 0u);
  }
}

// A heap checkpoint, field by field, in Heap::serialize's layout, so a test
// can splice one bad value into a valid checkpoint and re-encode it.
struct HeapImage {
  uint8_t gc = 0;
  uint64_t space = 0, from_base = 0, bump = 0;
  uint64_t stats[4] = {};
  std::vector<std::pair<uint64_t, uint64_t>> free_blocks;  // (off, size)
  std::vector<uint8_t> bytes;

  explicit HeapImage(const std::vector<uint8_t>& ckpt) {
    ByteReader r(ckpt);
    gc = r.get_u8();
    space = r.get_uvarint();
    from_base = r.get_uvarint();
    bump = r.get_uvarint();
    for (uint64_t& s : stats) s = r.get_uvarint();
    for (uint64_t n = r.get_uvarint(); n > 0; --n) {
      uint64_t off = r.get_uvarint();
      free_blocks.emplace_back(off, r.get_uvarint());
    }
    bytes.resize(r.get_uvarint());
    r.get_bytes(bytes.data(), bytes.size());
  }

  std::vector<uint8_t> encode() const {
    ByteWriter w;
    w.put_u8(gc);
    w.put_uvarint(space);
    w.put_uvarint(from_base);
    w.put_uvarint(bump);
    for (uint64_t s : stats) w.put_uvarint(s);
    w.put_uvarint(free_blocks.size());
    for (const auto& [off, size] : free_blocks) {
      w.put_uvarint(off);
      w.put_uvarint(size);
    }
    w.put_uvarint(bytes.size());
    w.put_bytes(bytes.data(), bytes.size());
    return w.take();
  }
};

// A restored live base, bump pointer or free block outside the live space
// is a located error, never a heap whose next allocation writes past the
// store.
TEST(Heap, RestoreRejectsGeometryOutsideTheLiveSpace) {
  uint32_t pair;
  TypeRegistry types = make_types(&pair);
  for (GcKind kind : {GcKind::kSemispaceCopying, GcKind::kMarkSweep}) {
    SCOPED_TRACE(kind == GcKind::kMarkSweep ? "mark-sweep" : "copying");
    HeapConfig cfg{64 << 10, kind};
    Heap src(types, cfg);
    for (int i = 0; i < 10; ++i) src.alloc_object(pair);
    ByteWriter w;
    src.serialize(w);
    const HeapImage valid(w.bytes());
    const uint64_t space = valid.space;
    {  // The re-encoded checkpoint is the checkpoint, and restores.
      const std::vector<uint8_t> bytes = valid.encode();
      ASSERT_EQ(bytes, w.bytes());
      Heap h(types, cfg);
      ByteReader r(bytes);
      EXPECT_NO_THROW(h.restore(r));
    }

    struct Case {
      const char* name;
      const char* error;
      std::function<void(HeapImage&)> splice;
    };
    std::vector<Case> cases = {
        {"live base mid-space", "live base",
         [&](HeapImage& im) { im.from_base = space / 2; }},
        {"live base 16 bytes before the end", "live base",
         [&](HeapImage& im) {
           im.from_base = 2 * space - 16;
           im.bump = im.from_base + 8;
           im.bytes.clear();
         }},
        {"bump below the live space", "bump pointer",
         [](HeapImage& im) { im.bump = 4; }},
        {"bump past the live space", "bump pointer",
         [&](HeapImage& im) { im.bump = space + 8; }},
        {"free block past the bump", "free block",
         [](HeapImage& im) { im.free_blocks.emplace_back(im.bump, 32); }},
        {"free block below the live space", "free block",
         [](HeapImage& im) { im.free_blocks.emplace_back(0, 16); }},
        {"free block overrunning the bump", "free block",
         [](HeapImage& im) {
           im.free_blocks.emplace_back(im.bump - 16, ~uint64_t(0) >> 1);
         }},
    };
    if (kind == GcKind::kSemispaceCopying) {
      cases.push_back({"bump past the high semispace", "bump pointer",
                       [&](HeapImage& im) {
                         im.from_base = space;
                         im.bump = 2 * space + 8;
                       }});
    } else {  // one space: the high semispace's base is outside the heap
      cases.push_back({"live base of a second space", "live base",
                       [&](HeapImage& im) { im.from_base = space; }});
    }
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      HeapImage bad = valid;
      c.splice(bad);
      const std::vector<uint8_t> bytes = bad.encode();
      Heap h(types, cfg);
      ByteReader r(bytes);
      try {
        h.restore(r);
        ADD_FAILURE() << "restore accepted the checkpoint";
      } catch (const VmError& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(c.error), std::string::npos) << msg;
        EXPECT_NE(msg.find("at offset"), std::string::npos) << msg;
      }
    }
  }
}

}  // namespace
}  // namespace dejavu::heap
