#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <limits>

#include "src/common/io.hpp"

namespace dejavu {
namespace {

TEST(ByteIo, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32_fixed(0xdeadbeef);
  w.put_u64_fixed(0x0123456789abcdefull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32_fixed(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64_fixed(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteIo, UvarintSmallValuesAreOneByte) {
  for (uint64_t v : {0ull, 1ull, 42ull, 127ull}) {
    ByteWriter w;
    w.put_uvarint(v);
    EXPECT_EQ(w.size(), 1u) << v;
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_uvarint(), v);
  }
}

TEST(ByteIo, UvarintBoundaries) {
  const uint64_t cases[] = {127ull,         128ull,
                            16383ull,       16384ull,
                            uint64_t(1) << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    ByteWriter w;
    w.put_uvarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_uvarint(), v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(ByteIo, SvarintRoundTrip) {
  const int64_t cases[] = {0,        1,        -1,      63, -64,
                           1234567,  -1234567,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    ByteWriter w;
    w.put_svarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_svarint(), v);
  }
}

TEST(ByteIo, StringsRoundTrip) {
  ByteWriter w;
  w.put_string("");
  w.put_string("hello");
  w.put_string(std::string("\0binary\xff", 8));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), std::string("\0binary\xff", 8));
}

TEST(ByteIo, ReaderUnderrunThrows) {
  ByteWriter w;
  w.put_u8(1);
  ByteReader r(w.bytes());
  r.get_u8();
  EXPECT_THROW(r.get_u8(), VmError);
}

TEST(ByteIo, TruncatedVarintThrows) {
  std::vector<uint8_t> bad{0x80, 0x80};
  ByteReader r(bad.data(), bad.size());
  EXPECT_THROW(r.get_uvarint(), VmError);
}

TEST(ByteIo, FileRoundTrip) {
  std::string path = testing::TempDir() + "/dv_io_test.bin";
  std::vector<uint8_t> data{1, 2, 3, 0, 255, 42};
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
  std::remove(path.c_str());
}

TEST(ByteIo, EmptyFileRoundTrip) {
  std::string path = testing::TempDir() + "/dv_io_empty.bin";
  write_file(path, {});
  EXPECT_TRUE(read_file(path).empty());
  std::remove(path.c_str());
}

// write_file replaces a regular file with a new inode (another hard link
// keeps the old bytes) but writes through a symlink to its target.
TEST(ByteIo, WriteFileReplacesRegularFilesAndFollowsSymlinks) {
  std::string stem = testing::TempDir() + "/dv_io_replace_" +
                     std::to_string(::getpid());
  std::string path = stem + ".bin", link = stem + "_link.bin",
              sym = stem + "_sym.bin";
  for (const std::string& p : {path, link, sym}) std::remove(p.c_str());
  write_file(path, {1, 2, 3});
  ASSERT_EQ(::link(path.c_str(), link.c_str()), 0);
  write_file(path, {4, 5});
  EXPECT_EQ(read_file(path), (std::vector<uint8_t>{4, 5}));
  EXPECT_EQ(read_file(link), (std::vector<uint8_t>{1, 2, 3}));

  ASSERT_EQ(::symlink(path.c_str(), sym.c_str()), 0);
  write_file(sym, {6});
  struct stat st;
  ASSERT_EQ(::lstat(sym.c_str(), &st), 0);
  EXPECT_TRUE(S_ISLNK(st.st_mode));
  EXPECT_EQ(read_file(path), (std::vector<uint8_t>{6}));
  for (const std::string& p : {path, link, sym}) std::remove(p.c_str());
}

TEST(ByteIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/dir/file.bin"), VmError);
}

}  // namespace
}  // namespace dejavu
