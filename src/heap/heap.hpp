// The guest heap: a single contiguous address space with type-accurate GC.
//
// Everything the guest program can reach lives in one byte array indexed by
// 32-bit addresses ("the application JVM's address space"). This matters for
// two of the paper's pillars:
//
//  * Type-accurate garbage collection (§1): Jalapeño identifies every live
//    reference, including those in thread stacks, via reference maps at
//    safe points. Both collectors here (semispace copying and mark-sweep)
//    get exact roots from a RootProvider and exact in-object reference
//    layouts from the TypeRegistry. GC is therefore fully deterministic --
//    a prerequisite for the replay argument ("automatic memory management
//    ... is completely deterministic in Jalapeño").
//
//  * Remote reflection (§3): the debugger inspects this address space purely
//    through byte reads at addresses (the ptrace contract). Object layout
//    here *is* the wire format the tool-side reflection engine decodes.
//
// Object layout (all offsets in bytes, all slots 8-byte aligned):
//   [0]  u32 class_id     (TypeRegistry id; small ids reserved for arrays)
//   [4]  u32 size_bytes   (total object size incl. header)
//   [8]  u32 lockword     (inflated monitor id, 0 = unlocked ever)
//   [12] u32 gc_bits      (mark bit)
//   [16] ... payload: field slots, or u64 length + array elements
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/hash.hpp"
#include "src/common/io.hpp"

namespace dejavu::heap {

using Addr = uint32_t;
inline constexpr Addr kNull = 0;

// Reserved class ids. Real classes get ids >= kFirstClassId from the
// TypeRegistry.
inline constexpr uint32_t kClassIdI64Array = 1;
inline constexpr uint32_t kClassIdRefArray = 2;
inline constexpr uint32_t kClassIdByteArray = 3;
inline constexpr uint32_t kClassIdForwarded = 0x00fffffe;  // copying-GC relic
inline constexpr uint32_t kFirstClassId = 8;

inline constexpr uint32_t kHeaderBytes = 16;
inline constexpr uint32_t kOffClassId = 0;
inline constexpr uint32_t kOffSize = 4;
inline constexpr uint32_t kOffLockword = 8;
inline constexpr uint32_t kOffGcBits = 12;
inline constexpr uint32_t kOffArrayLen = 16;  // u64 length slot (arrays only)
inline constexpr uint32_t kOffArrayData = 24;
inline constexpr uint32_t kOffFields = 16;

// Per-class layout information the GC needs to scan instances.
struct TypeInfo {
  std::string name;
  uint32_t num_slots = 0;          // 8-byte field slots
  std::vector<bool> ref_slot;      // which slots hold references
};

// Registry of runtime types. The VM's class loader registers one entry per
// loaded class (and one per per-class statics record). Shared read-only
// with the tool-side reflection engine -- this is the "boot image" layout
// knowledge of §3.2.
class TypeRegistry {
 public:
  uint32_t register_type(TypeInfo info);
  const TypeInfo& info(uint32_t class_id) const;
  bool is_array(uint32_t class_id) const {
    return class_id == kClassIdI64Array || class_id == kClassIdRefArray ||
           class_id == kClassIdByteArray;
  }
  size_t size() const { return types_.size(); }

  // Checkpoint round-trip: ids are positions, so restoring the whole table
  // preserves every previously handed-out class id.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  std::vector<TypeInfo> types_;
};

// Supplies GC roots. The callback receives the *location* of each root slot
// (so the copying collector can rewrite it). Slots hold Addr widened to
// uint64_t; kNull roots are permitted and ignored.
class RootProvider {
 public:
  virtual ~RootProvider() = default;
  virtual void enumerate_roots(
      const std::function<void(uint64_t* slot)>& visit) = 0;
};

enum class GcKind { kSemispaceCopying, kMarkSweep };

// size_bytes is a cap, not a commitment: the heap's memory comes zeroed
// from calloc, so the kernel commits a page only when the guest first
// touches it. A VM that allocates little costs little, whatever the cap.
struct HeapConfig {
  size_t size_bytes = 32u << 20;  // per-semispace for copying
  GcKind gc = GcKind::kSemispaceCopying;
};

struct HeapStats {
  uint64_t alloc_count = 0;      // objects allocated since startup
  uint64_t alloc_bytes = 0;
  uint64_t gc_count = 0;
  uint64_t gc_live_bytes_last = 0;
};

// Observer invoked on GC events; the replay engine's audit log subscribes
// to assert that GCs happen at identical points in record and replay (P6).
using GcObserver = std::function<void(uint64_t gc_index, uint64_t live_bytes)>;

// Observer invoked once per object the copying collector relocates
// (`from` is the old address, `to` the new one). Replay-time analyzers use
// it to keep per-object identity exact across collections; GC itself is
// deterministic, so subscribing never perturbs the run.
using MoveObserver = std::function<void(Addr from, Addr to)>;

class Heap {
 public:
  Heap(const TypeRegistry& types, HeapConfig cfg);

  // -- allocation (all zero-initialized; may trigger GC) ----------------
  Addr alloc_object(uint32_t class_id);
  Addr alloc_array_i64(uint64_t length);
  Addr alloc_array_ref(uint64_t length);
  Addr alloc_array_bytes(uint64_t length);

  // -- typed access ------------------------------------------------------
  uint32_t class_of(Addr obj) const { return read_u32(obj + kOffClassId); }
  uint32_t size_of(Addr obj) const { return read_u32(obj + kOffSize); }
  uint32_t lockword(Addr obj) const { return read_u32(obj + kOffLockword); }
  void set_lockword(Addr obj, uint32_t v) { write_u32(obj + kOffLockword, v); }

  int64_t field_i64(Addr obj, uint32_t slot) const;
  void set_field_i64(Addr obj, uint32_t slot, int64_t v);
  Addr field_ref(Addr obj, uint32_t slot) const;
  void set_field_ref(Addr obj, uint32_t slot, Addr v);

  uint64_t array_length(Addr arr) const;
  int64_t array_i64(Addr arr, uint64_t idx) const;
  void set_array_i64(Addr arr, uint64_t idx, int64_t v);
  Addr array_ref(Addr arr, uint64_t idx) const;
  void set_array_ref(Addr arr, uint64_t idx, Addr v);
  uint8_t array_byte(Addr arr, uint64_t idx) const;
  void set_array_byte(Addr arr, uint64_t idx, uint8_t v);
  // Copies data[0, n) to elements [idx, idx + n) of a byte array, with one
  // bounds check for the whole run. Throws on a null array or a range past
  // the end (however large idx and n are).
  void set_array_bytes(Addr arr, uint64_t idx, const uint8_t* data, size_t n);

  // -- GC ----------------------------------------------------------------
  void set_root_provider(RootProvider* rp) { roots_ = rp; }
  void set_gc_observer(GcObserver obs) { gc_observer_ = std::move(obs); }
  void set_move_observer(MoveObserver obs) { move_observer_ = std::move(obs); }
  void collect();

  // -- introspection -----------------------------------------------------
  const HeapStats& stats() const { return stats_; }
  size_t used_bytes() const;
  size_t capacity_bytes() const { return space_bytes_; }

  // Raw byte view of the *live* space, for the remote-memory facility and
  // for behaviour hashing. Addresses handed out by alloc_* index into this.
  const uint8_t* raw() const { return mem_.get(); }
  size_t raw_size() const { return mem_size_; }

  // Hash of the allocated portion of the live space. Two behaviourally
  // identical runs produce identical heap images (property P1).
  uint64_t image_hash() const;

  // Bounds-check an externally supplied address range (remote reflection).
  bool valid_range(Addr addr, size_t n) const;

  const TypeRegistry& types() const { return types_; }
  const HeapConfig& config() const { return cfg_; }

  // Checkpoint round-trip. serialize captures the live space (plus the
  // allocator and GC bookkeeping); restore reproduces it into a heap built
  // with the *same* HeapConfig -- absolute addresses stay valid, so every
  // Addr held elsewhere (thread stacks, registry, engine buffers) survives.
  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);
  // Bytes of the live-space image serialize() stores (its bulk).
  size_t image_bytes() const { return bump_ - (from_base_ + 8); }

 private:
  uint32_t read_u32(size_t off) const;
  void write_u32(size_t off, uint32_t v);
  uint64_t read_u64(size_t off) const;
  void write_u64(size_t off, uint64_t v);

  Addr raw_alloc(size_t bytes_needed, uint32_t class_id);
  void collect_copying();
  void collect_mark_sweep();
  Addr copy_or_forward(Addr obj, size_t& scan_free);
  void scan_object_refs(Addr obj, const std::function<void(size_t slot_off)>& f);

  // (Re)allocates mem_ as mem_size_ zero bytes, committed on first touch.
  void allocate_zeroed();

  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  const TypeRegistry& types_;
  HeapConfig cfg_;
  std::unique_ptr<uint8_t[], FreeDeleter> mem_;  // from calloc
  size_t mem_size_;      // both semispaces (copying) or the whole heap (m-s)
  size_t space_bytes_;   // one semispace (copying) or the whole heap (m-s)
  size_t from_base_;     // base offset of the live space
  size_t bump_;          // next free offset (bump allocation)
  RootProvider* roots_ = nullptr;
  GcObserver gc_observer_;
  MoveObserver move_observer_;
  HeapStats stats_;

  // Mark-sweep free list: (offset, size) sorted by offset.
  struct FreeBlock {
    size_t off;
    size_t size;
  };
  std::vector<FreeBlock> free_list_;
};

}  // namespace dejavu::heap
