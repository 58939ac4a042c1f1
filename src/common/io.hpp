// Byte-oriented serialization used by the trace file format.
//
// ByteWriter appends to a growable byte vector; ByteReader consumes a byte
// span. Integers use LEB128 varints (zig-zag for signed) so that the common
// small values (nyp deltas, small clock increments) take one byte -- trace
// compactness is one of the paper's selling points (experiment E3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/check.hpp"

namespace dejavu {

class ByteWriter {
 public:
  ByteWriter() = default;
  // Writes into `buf`'s storage: its bytes are dropped, its capacity kept,
  // so a buffer handed back by take() is reused without a new allocation.
  explicit ByteWriter(std::vector<uint8_t> buf) : buf_(std::move(buf)) {
    buf_.clear();
  }

  void put_u8(uint8_t v) { buf_.push_back(v); }

  void put_u32_fixed(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }

  void put_u64_fixed(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }

  // Unsigned LEB128.
  void put_uvarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(uint8_t(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(uint8_t(v));
  }

  // Zig-zag encoded signed varint.
  void put_svarint(int64_t v) {
    put_uvarint((uint64_t(v) << 1) ^ uint64_t(v >> 63));
  }

  void put_bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    // Grow geometrically before the insert: reserving the exact size on
    // every append would degrade repeated small appends to O(n^2) copies.
    if (buf_.capacity() - buf_.size() < n) {
      buf_.reserve(std::max(buf_.capacity() * 2, buf_.size() + n));
    }
    buf_.insert(buf_.end(), p, p + n);
  }

  void put_string(std::string_view s) {
    put_uvarint(s.size());
    put_bytes(s.data(), s.size());
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }
  // For a writer whose final size is known: take() then hands over a
  // buffer without the slack of geometric growth. A no-op when the buffer
  // already has room for `n` bytes.
  void reserve(size_t n) { buf_.reserve(n); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit ByteReader(std::span<const uint8_t> v)
      : data_(v.data()), size_(v.size()) {}

  uint8_t get_u8() {
    DV_CHECK_MSG(pos_ < size_, "ByteReader underrun (u8)");
    return data_[pos_++];
  }

  uint32_t get_u32_fixed() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(get_u8()) << (8 * i);
    return v;
  }

  uint64_t get_u64_fixed() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(get_u8()) << (8 * i);
    return v;
  }

  uint64_t get_uvarint() {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      uint8_t b = get_u8();
      v |= uint64_t(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
      DV_CHECK_MSG(shift < 64, "varint too long");
    }
    return v;
  }

  int64_t get_svarint() {
    uint64_t u = get_uvarint();
    return int64_t(u >> 1) ^ -int64_t(u & 1);
  }

  // Bounds are checked as `n <= remaining()` so a hostile length (say a
  // varint near 2^64) cannot wrap `pos_ + n` past the end.
  void get_bytes(void* dst, size_t n) {
    DV_CHECK_MSG(n <= size_ - pos_, "ByteReader underrun (bytes)");
    if (n != 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  std::string get_string() {
    uint64_t n = get_uvarint();
    DV_CHECK_MSG(n <= size_ - pos_, "ByteReader underrun (string)");
    std::string s(size_t(n), '\0');
    get_bytes(s.data(), n);
    return s;
  }

  // Reads the count of the items that follow, each at least
  // `min_item_bytes` (>= 1) long on the wire, and rejects a count that the
  // remaining bytes cannot hold with a located error. Call it before
  // sizing any container from a count, so a hostile count never becomes a
  // large allocation.
  size_t get_count(size_t min_item_bytes, const char* what) {
    size_t at = pos_;
    uint64_t n = get_uvarint();
    DV_CHECK_MSG(n <= remaining() / min_item_bytes,
                 what << " count " << n << " at offset " << at
                      << " exceeds the " << remaining()
                      << " byte(s) left");
    return size_t(n);
  }

  void skip(size_t n) {
    DV_CHECK_MSG(n <= size_ - pos_, "ByteReader underrun (skip)");
    pos_ += n;
  }

  bool at_end() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Zero-run elision, for byte images whose bulk is runs of zeros (a VM
// checkpoint: a mostly empty heap, cleared tables). The stream is
//
//   uvarint decoded_size | record*
//   record := uvarint literal_len | literal bytes | uvarint zero_run_len
//
// with records until decoded_size bytes are produced and nothing after.
// The encoder elides every run of at least kMinZeroRun zeros (a run costs
// two varints, 2-4 bytes); shorter runs stay in the literals.
inline constexpr size_t kMinZeroRun = 8;
std::vector<uint8_t> zero_run_encode(const uint8_t* data, size_t n);
// Decodes into *out, replacing its contents. The declared size must not
// exceed `max_size`, and *out never grows past the declared size: a
// truncated stream, a record that overruns the declared size or trailing
// bytes throw a VmError naming the stream offset, before any allocation
// beyond that size.
void zero_run_decode(const uint8_t* data, size_t n, size_t max_size,
                     std::vector<uint8_t>* out);

// Opens `path` for writing as a new, empty file; nullptr on failure. An
// existing regular file is unlinked first instead of truncated: on ext4
// (auto_da_alloc, the default) closing a file that was truncated to zero
// starts its writeback, and the next O_TRUNC of that path waits for it --
// tens of milliseconds per rewrite, whatever the size. A fresh inode never
// waits. Anything else at `path` (a symlink, a device such as /dev/null, a
// FIFO) is opened exactly as fopen(path, "wb") would. The one visible
// difference: another hard link to the old file keeps the old bytes.
std::FILE* open_for_replace(const std::string& path);

// Whole-file helpers used by the trace writer/reader. write_file replaces
// the file through open_for_replace.
void write_file(const std::string& path, const std::vector<uint8_t>& bytes);
std::vector<uint8_t> read_file(const std::string& path);

}  // namespace dejavu
