#include "src/heap/heap.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace dejavu::heap {

namespace {
inline constexpr uint32_t kClassIdFreeBlock = 4;
inline constexpr uint32_t kGcMarkBit = 1;

size_t align8(size_t n) { return (n + 7) & ~size_t(7); }
}  // namespace

// ----------------------------------------------------------- TypeRegistry

uint32_t TypeRegistry::register_type(TypeInfo info) {
  DV_CHECK_MSG(info.ref_slot.size() == info.num_slots,
               "TypeInfo ref bitmap size mismatch for " << info.name);
  types_.push_back(std::move(info));
  return kFirstClassId + uint32_t(types_.size() - 1);
}

const TypeInfo& TypeRegistry::info(uint32_t class_id) const {
  DV_CHECK_MSG(class_id >= kFirstClassId &&
                   class_id - kFirstClassId < types_.size(),
               "unknown class id " << class_id);
  return types_[class_id - kFirstClassId];
}

void TypeRegistry::serialize(ByteWriter& w) const {
  w.put_uvarint(types_.size());
  for (const TypeInfo& t : types_) {
    w.put_string(t.name);
    w.put_uvarint(t.num_slots);
    for (uint32_t s = 0; s < t.num_slots; ++s)
      w.put_u8(t.ref_slot[s] ? 1 : 0);
  }
}

void TypeRegistry::restore(ByteReader& r) {
  types_.clear();
  // A type is at least a name length and a slot count.
  size_t n = r.get_count(2, "type");
  types_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TypeInfo t;
    t.name = r.get_string();
    t.num_slots = uint32_t(r.get_count(1, "type slot"));
    t.ref_slot.resize(t.num_slots);
    for (uint32_t s = 0; s < t.num_slots; ++s) t.ref_slot[s] = r.get_u8() != 0;
    types_.push_back(std::move(t));
  }
}

// ------------------------------------------------------------------- Heap

Heap::Heap(const TypeRegistry& types, HeapConfig cfg)
    : types_(types), cfg_(cfg) {
  space_bytes_ = align8(cfg.size_bytes);
  DV_CHECK_MSG(space_bytes_ >= 4096, "heap too small");
  mem_size_ = cfg.gc == GcKind::kSemispaceCopying ? 2 * space_bytes_
                                                 : space_bytes_;
  allocate_zeroed();
  from_base_ = 0;
  bump_ = 8;  // address 0 is reserved for null
}

void Heap::allocate_zeroed() {
  mem_.reset();  // release first, so the old and new spaces never coexist
  mem_.reset(static_cast<uint8_t*>(std::calloc(mem_size_, 1)));
  if (mem_ == nullptr) throw std::bad_alloc();
}

uint32_t Heap::read_u32(size_t off) const {
  DV_CHECK(off + 4 <= mem_size_);
  uint32_t v;
  std::memcpy(&v, mem_.get() + off, 4);
  return v;
}

void Heap::write_u32(size_t off, uint32_t v) {
  DV_CHECK(off + 4 <= mem_size_);
  std::memcpy(mem_.get() + off, &v, 4);
}

uint64_t Heap::read_u64(size_t off) const {
  DV_CHECK(off + 8 <= mem_size_);
  uint64_t v;
  std::memcpy(&v, mem_.get() + off, 8);
  return v;
}

void Heap::write_u64(size_t off, uint64_t v) {
  DV_CHECK(off + 8 <= mem_size_);
  std::memcpy(mem_.get() + off, &v, 8);
}

Addr Heap::raw_alloc(size_t bytes_needed, uint32_t class_id) {
  size_t need = align8(bytes_needed);

  for (int attempt = 0; attempt < 2; ++attempt) {
    // Mark-sweep: try the free list first (first fit, deterministic).
    if (cfg_.gc == GcKind::kMarkSweep) {
      for (size_t i = 0; i < free_list_.size(); ++i) {
        FreeBlock& fb = free_list_[i];
        if (fb.size < need) continue;
        size_t off = fb.off;
        size_t remainder = fb.size - need;
        size_t take = need;
        if (remainder >= kHeaderBytes + 8) {
          fb.off += need;
          fb.size = remainder;
          write_u32(fb.off + kOffClassId, kClassIdFreeBlock);
          write_u32(fb.off + kOffSize, uint32_t(remainder));
        } else {
          take = fb.size;  // absorb the unsplittable tail
          free_list_.erase(free_list_.begin() + long(i));
        }
        std::memset(mem_.get() + off, 0, take);
        write_u32(off + kOffClassId, class_id);
        write_u32(off + kOffSize, uint32_t(take));
        return Addr(off);
      }
    }

    size_t limit = from_base_ + space_bytes_;
    if (bump_ + need <= limit) {
      size_t off = bump_;
      bump_ += need;
      std::memset(mem_.get() + off, 0, need);
      write_u32(off + kOffClassId, class_id);
      write_u32(off + kOffSize, uint32_t(need));
      return Addr(off);
    }

    if (attempt == 0) collect();
  }
  throw VmError("guest heap out of memory (need " +
                std::to_string(need) + " bytes)");
}

Addr Heap::alloc_object(uint32_t class_id) {
  const TypeInfo& ti = types_.info(class_id);
  Addr a = raw_alloc(kHeaderBytes + size_t(ti.num_slots) * 8, class_id);
  stats_.alloc_count++;
  stats_.alloc_bytes += size_of(a);
  return a;
}

Addr Heap::alloc_array_i64(uint64_t length) {
  Addr a = raw_alloc(kOffArrayData + length * 8, kClassIdI64Array);
  write_u64(a + kOffArrayLen, length);
  stats_.alloc_count++;
  stats_.alloc_bytes += size_of(a);
  return a;
}

Addr Heap::alloc_array_ref(uint64_t length) {
  Addr a = raw_alloc(kOffArrayData + length * 8, kClassIdRefArray);
  write_u64(a + kOffArrayLen, length);
  stats_.alloc_count++;
  stats_.alloc_bytes += size_of(a);
  return a;
}

Addr Heap::alloc_array_bytes(uint64_t length) {
  Addr a = raw_alloc(kOffArrayData + length, kClassIdByteArray);
  write_u64(a + kOffArrayLen, length);
  stats_.alloc_count++;
  stats_.alloc_bytes += size_of(a);
  return a;
}

int64_t Heap::field_i64(Addr obj, uint32_t slot) const {
  DV_CHECK_MSG(obj != kNull, "null dereference (getfield)");
  return int64_t(read_u64(obj + kOffFields + size_t(slot) * 8));
}

void Heap::set_field_i64(Addr obj, uint32_t slot, int64_t v) {
  DV_CHECK_MSG(obj != kNull, "null dereference (putfield)");
  write_u64(obj + kOffFields + size_t(slot) * 8, uint64_t(v));
}

Addr Heap::field_ref(Addr obj, uint32_t slot) const {
  return Addr(uint64_t(field_i64(obj, slot)));
}

void Heap::set_field_ref(Addr obj, uint32_t slot, Addr v) {
  set_field_i64(obj, slot, int64_t(uint64_t(v)));
}

uint64_t Heap::array_length(Addr arr) const {
  DV_CHECK_MSG(arr != kNull, "null dereference (arraylength)");
  return read_u64(arr + kOffArrayLen);
}

int64_t Heap::array_i64(Addr arr, uint64_t idx) const {
  DV_CHECK_MSG(arr != kNull, "null dereference (aload)");
  DV_CHECK_MSG(idx < array_length(arr), "array index out of bounds");
  return int64_t(read_u64(arr + kOffArrayData + idx * 8));
}

void Heap::set_array_i64(Addr arr, uint64_t idx, int64_t v) {
  DV_CHECK_MSG(arr != kNull, "null dereference (astore)");
  DV_CHECK_MSG(idx < array_length(arr), "array index out of bounds");
  write_u64(arr + kOffArrayData + idx * 8, uint64_t(v));
}

Addr Heap::array_ref(Addr arr, uint64_t idx) const {
  return Addr(uint64_t(array_i64(arr, idx)));
}

void Heap::set_array_ref(Addr arr, uint64_t idx, Addr v) {
  set_array_i64(arr, idx, int64_t(uint64_t(v)));
}

uint8_t Heap::array_byte(Addr arr, uint64_t idx) const {
  DV_CHECK_MSG(arr != kNull, "null dereference (byte aload)");
  DV_CHECK_MSG(idx < array_length(arr), "byte index out of bounds");
  return mem_[arr + kOffArrayData + idx];
}

void Heap::set_array_byte(Addr arr, uint64_t idx, uint8_t v) {
  DV_CHECK_MSG(arr != kNull, "null dereference (byte astore)");
  DV_CHECK_MSG(idx < array_length(arr), "byte index out of bounds");
  mem_[arr + kOffArrayData + idx] = v;
}

void Heap::set_array_bytes(Addr arr, uint64_t idx, const uint8_t* data,
                           size_t n) {
  DV_CHECK_MSG(arr != kNull, "null dereference (byte astore)");
  uint64_t len = array_length(arr);
  // idx <= len first, so len - idx cannot wrap and idx + n is never formed.
  DV_CHECK_MSG(idx <= len && n <= len - idx,
               "byte range [" << idx << ", +" << n
                              << ") out of bounds for length " << len);
  if (n != 0) std::memcpy(mem_.get() + arr + kOffArrayData + idx, data, n);
}

void Heap::scan_object_refs(Addr obj,
                            const std::function<void(size_t)>& f) {
  uint32_t cid = class_of(obj);
  switch (cid) {
    case kClassIdI64Array:
    case kClassIdByteArray:
    case kClassIdFreeBlock:
      return;
    case kClassIdRefArray: {
      uint64_t len = array_length(obj);
      for (uint64_t i = 0; i < len; ++i)
        f(obj + kOffArrayData + size_t(i) * 8);
      return;
    }
    default: {
      const TypeInfo& ti = types_.info(cid);
      for (uint32_t s = 0; s < ti.num_slots; ++s) {
        if (ti.ref_slot[s]) f(obj + kOffFields + size_t(s) * 8);
      }
      return;
    }
  }
}

void Heap::collect() {
  DV_CHECK_MSG(roots_ != nullptr, "GC requested with no root provider");
  if (cfg_.gc == GcKind::kSemispaceCopying) {
    collect_copying();
  } else {
    collect_mark_sweep();
  }
  stats_.gc_count++;
  stats_.gc_live_bytes_last = used_bytes();
  if (gc_observer_) gc_observer_(stats_.gc_count, stats_.gc_live_bytes_last);
}

Addr Heap::copy_or_forward(Addr obj, size_t& to_bump) {
  if (obj == kNull) return kNull;
  DV_CHECK_MSG(obj >= from_base_ + 8 && obj < from_base_ + space_bytes_,
               "GC saw reference outside from-space: " << obj);
  if (class_of(obj) == kClassIdForwarded) return Addr(read_u32(obj + kOffSize));
  uint32_t size = size_of(obj);
  size_t dst = to_bump;
  to_bump += size;
  DV_CHECK_MSG(to_bump <= (from_base_ == 0 ? 2 * space_bytes_ : space_bytes_),
               "to-space overflow during copying GC");
  std::memcpy(mem_.get() + dst, mem_.get() + obj, size);
  write_u32(obj + kOffClassId, kClassIdForwarded);
  write_u32(obj + kOffSize, uint32_t(dst));
  if (move_observer_) move_observer_(obj, Addr(dst));
  return Addr(dst);
}

void Heap::collect_copying() {
  size_t to_base = from_base_ == 0 ? space_bytes_ : 0;
  size_t to_bump = to_base + 8;

  roots_->enumerate_roots([&](uint64_t* slot) {
    *slot = copy_or_forward(Addr(*slot), to_bump);
  });

  // Cheney scan.
  size_t scan = to_base + 8;
  while (scan < to_bump) {
    Addr obj = Addr(scan);
    scan_object_refs(obj, [&](size_t slot_off) {
      uint64_t v = read_u64(slot_off);
      write_u64(slot_off, copy_or_forward(Addr(v), to_bump));
    });
    scan += size_of(obj);
  }

  from_base_ = to_base;
  bump_ = to_bump;
}

void Heap::collect_mark_sweep() {
  // Mark.
  std::vector<Addr> worklist;
  auto mark = [&](Addr obj) {
    if (obj == kNull) return;
    uint32_t bits = read_u32(obj + kOffGcBits);
    if (bits & kGcMarkBit) return;
    write_u32(obj + kOffGcBits, bits | kGcMarkBit);
    worklist.push_back(obj);
  };
  roots_->enumerate_roots([&](uint64_t* slot) { mark(Addr(*slot)); });
  while (!worklist.empty()) {
    Addr obj = worklist.back();
    worklist.pop_back();
    scan_object_refs(obj,
                     [&](size_t slot_off) { mark(Addr(read_u64(slot_off))); });
  }

  // Sweep: rebuild the free list, coalescing adjacent garbage.
  free_list_.clear();
  size_t off = 8;
  while (off < bump_) {
    uint32_t size = read_u32(off + kOffSize);
    DV_CHECK_MSG(size >= kHeaderBytes && off + size <= bump_,
                 "heap walk corrupt at " << off);
    uint32_t cid = read_u32(off + kOffClassId);
    bool live = false;
    if (cid != kClassIdFreeBlock) {
      uint32_t bits = read_u32(off + kOffGcBits);
      live = (bits & kGcMarkBit) != 0;
      if (live) write_u32(off + kOffGcBits, bits & ~kGcMarkBit);
    }
    if (!live) {
      if (!free_list_.empty() &&
          free_list_.back().off + free_list_.back().size == off) {
        free_list_.back().size += size;
        write_u32(free_list_.back().off + kOffSize,
                  uint32_t(free_list_.back().size));
      } else {
        free_list_.push_back(FreeBlock{off, size});
        write_u32(off + kOffClassId, kClassIdFreeBlock);
        write_u32(off + kOffSize, size);
      }
    }
    off += size;
  }
  // Retract the bump pointer past a trailing free block.
  if (!free_list_.empty() &&
      free_list_.back().off + free_list_.back().size == bump_) {
    bump_ = free_list_.back().off;
    free_list_.pop_back();
  }
}

size_t Heap::used_bytes() const {
  size_t used = bump_ - (from_base_ + 8);
  for (const auto& fb : free_list_) used -= fb.size;
  return used;
}

uint64_t Heap::image_hash() const {
  Fnv1a h;
  size_t off = from_base_ + 8;
  while (off < bump_) {
    uint32_t size = read_u32(off + kOffSize);
    uint32_t cid = read_u32(off + kOffClassId);
    if (cid != kClassIdFreeBlock) {
      h.update_u64(off - from_base_);  // position, space-relative
      h.update(mem_.get() + off, size);
    }
    off += size;
  }
  return h.digest();
}

bool Heap::valid_range(Addr addr, size_t n) const {
  return addr >= from_base_ + 8 && size_t(addr) + n <= bump_;
}

void Heap::serialize(ByteWriter& w) const {
  w.put_u8(cfg_.gc == GcKind::kSemispaceCopying ? 0 : 1);
  w.put_uvarint(space_bytes_);
  w.put_uvarint(from_base_);
  w.put_uvarint(bump_);
  w.put_uvarint(stats_.alloc_count);
  w.put_uvarint(stats_.alloc_bytes);
  w.put_uvarint(stats_.gc_count);
  w.put_uvarint(stats_.gc_live_bytes_last);
  w.put_uvarint(free_list_.size());
  for (const FreeBlock& fb : free_list_) {
    w.put_uvarint(fb.off);
    w.put_uvarint(fb.size);
  }
  // The live space only: bytes in the inactive semispace are never read
  // (allocation zeroes, GC copies out of from-space only).
  size_t len = image_bytes();
  w.put_uvarint(len);
  w.put_bytes(mem_.get() + from_base_ + 8, len);
}

void Heap::restore(ByteReader& r) {
  uint8_t gc = r.get_u8();
  DV_CHECK_MSG(gc == (cfg_.gc == GcKind::kSemispaceCopying ? 0 : 1),
               "checkpoint GC kind mismatch");
  size_t space = size_t(r.get_uvarint());
  DV_CHECK_MSG(space == space_bytes_, "checkpoint heap size mismatch ("
                                          << space << " vs " << space_bytes_
                                          << ")");
  // The live space is [from_base_ + 8, from_base_ + space_bytes_): the low
  // or high semispace (copying), or the whole heap (mark-sweep). Every
  // offset below must lie inside it, so no later allocation, sweep or
  // image copy can reach past the store.
  size_t at = r.position();
  from_base_ = size_t(r.get_uvarint());
  DV_CHECK_MSG(from_base_ == 0 || (cfg_.gc == GcKind::kSemispaceCopying &&
                                   from_base_ == space_bytes_),
               "checkpoint heap live base " << from_base_ << " at offset "
                                            << at << " is not a space base");
  const size_t lo = from_base_ + 8, hi = from_base_ + space_bytes_;
  at = r.position();
  bump_ = size_t(r.get_uvarint());
  DV_CHECK_MSG(bump_ >= lo && bump_ <= hi,
               "checkpoint heap bump pointer " << bump_ << " at offset " << at
                   << " lies outside the live space [" << lo << ", " << hi
                   << "]");
  stats_.alloc_count = r.get_uvarint();
  stats_.alloc_bytes = r.get_uvarint();
  stats_.gc_count = r.get_uvarint();
  stats_.gc_live_bytes_last = r.get_uvarint();
  free_list_.clear();
  size_t nfree = r.get_count(2, "heap free-list");
  for (size_t i = 0; i < nfree; ++i) {
    FreeBlock fb;
    at = r.position();
    fb.off = size_t(r.get_uvarint());
    fb.size = size_t(r.get_uvarint());
    DV_CHECK_MSG(fb.off >= lo && fb.off <= bump_ && fb.size <= bump_ - fb.off,
                 "checkpoint heap free block " << fb.off << "+" << fb.size
                     << " at offset " << at
                     << " lies outside the allocated live space [" << lo
                     << ", " << bump_ << ")");
    free_list_.push_back(fb);
  }
  allocate_zeroed();
  at = r.position();
  size_t len = size_t(r.get_uvarint());
  DV_CHECK_MSG(len == bump_ - lo, "checkpoint heap image length "
                                      << len << " at offset " << at
                                      << " disagrees with the bump pointer");
  r.get_bytes(mem_.get() + lo, len);
}

}  // namespace dejavu::heap
