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

}  // namespace dejavu
