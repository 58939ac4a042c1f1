#include "src/common/io.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

namespace dejavu {

std::FILE* open_for_replace(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode))
    ::unlink(path.c_str());  // on failure fopen truncates, as before
  return std::fopen(path.c_str(), "wb");
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = open_for_replace(path);
  DV_CHECK_MSG(f != nullptr, "cannot open for write: " << path);
  if (!bytes.empty()) {
    size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    DV_CHECK_MSG(n == bytes.size(), "short write: " << path);
  }
  std::fclose(f);
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  DV_CHECK_MSG(f != nullptr, "cannot open for read: " << path);
  std::fseek(f, 0, SEEK_END);
  long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> out(static_cast<size_t>(sz), uint8_t(0));
  if (sz > 0) {
    size_t n = std::fread(out.data(), 1, out.size(), f);
    DV_CHECK_MSG(n == out.size(), "short read: " << path);
  }
  std::fclose(f);
  return out;
}

namespace {

uint64_t load_word(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// True when some byte of `v` is zero.
bool has_zero_byte(uint64_t v) {
  return ((v - 0x0101010101010101ull) & ~v & 0x8080808080808080ull) != 0;
}

}  // namespace

std::vector<uint8_t> zero_run_encode(const uint8_t* data, size_t n) {
  ByteWriter w;
  w.put_uvarint(n);
  size_t lit = 0;  // start of the literal not yet written
  size_t i = 0;
  while (i < n) {
    // Skip non-zero bytes a word at a time, then byte by byte.
    while (i + 8 <= n && !has_zero_byte(load_word(data + i))) i += 8;
    if (i == n) break;
    if (data[i] != 0) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j + 8 <= n && load_word(data + j) == 0) j += 8;
    while (j < n && data[j] == 0) ++j;
    if (j - i >= kMinZeroRun) {
      w.put_uvarint(i - lit);
      w.put_bytes(data + lit, i - lit);
      w.put_uvarint(j - i);
      lit = j;
    }
    i = j;
  }
  if (lit < n) {
    w.put_uvarint(n - lit);
    w.put_bytes(data + lit, n - lit);
    w.put_uvarint(0);
  }
  std::vector<uint8_t> out = w.take();
  out.shrink_to_fit();
  return out;
}

void zero_run_decode(const uint8_t* data, size_t n, size_t max_size,
                     std::vector<uint8_t>* out) {
  out->clear();
  ByteReader r(data, n);
  // Reads one length, located by its offset, and bounds it by `limit`.
  auto length = [&r](const char* what, uint64_t limit) {
    size_t at = r.position();
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      DV_CHECK_MSG(!r.at_end() && shift < 64,
                   "zero-run stream: " << what << " at offset " << at
                                       << " is truncated or malformed");
      uint8_t b = r.get_u8();
      v |= uint64_t(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
    }
    DV_CHECK_MSG(v <= limit, "zero-run stream: " << what << " " << v
                                 << " at offset " << at << " exceeds the "
                                 << limit << " byte(s) allowed");
    return v;
  };
  const size_t size = size_t(length("decoded size", max_size));
  out->reserve(size);
  while (out->size() < size) {
    size_t lit = size_t(length("literal length", size - out->size()));
    DV_CHECK_MSG(lit <= r.remaining(),
                 "zero-run stream: literal of " << lit << " byte(s) at offset "
                     << r.position() << " is cut off after "
                     << r.remaining());
    out->insert(out->end(), data + r.position(), data + r.position() + lit);
    r.skip(lit);
    size_t zeros = size_t(length("zero run", size - out->size()));
    out->resize(out->size() + zeros, uint8_t(0));
  }
  DV_CHECK_MSG(r.at_end(), "zero-run stream: " << r.remaining()
                               << " trailing byte(s) at offset "
                               << r.position());
}

}  // namespace dejavu
