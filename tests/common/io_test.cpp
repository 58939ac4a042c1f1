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

// A buffer of literals and zero runs of every length around the elision
// threshold, at the start, the middle and the end.
std::vector<uint8_t> zero_run_sample() {
  std::vector<uint8_t> v;
  for (size_t run = 0; run <= 2 * kMinZeroRun + 1; ++run) {
    v.insert(v.end(), run, 0);
    for (uint8_t b = 1; b <= run % 5 + 1; ++b) v.push_back(uint8_t(b * 37));
  }
  v.insert(v.end(), 1000, 0);
  return v;
}

std::vector<uint8_t> zero_run_round_trip(const std::vector<uint8_t>& in) {
  std::vector<uint8_t> packed = zero_run_encode(in.data(), in.size());
  std::vector<uint8_t> out;
  zero_run_decode(packed.data(), packed.size(), in.size(), &out);
  return out;
}

TEST(ZeroRun, RoundTripsEveryRunLength) {
  std::vector<std::vector<uint8_t>> cases = {
      {}, {0}, {1}, std::vector<uint8_t>(7, 0), std::vector<uint8_t>(8, 0),
      std::vector<uint8_t>(4096, 0xff), zero_run_sample()};
  std::vector<uint8_t> leading(kMinZeroRun, 0);
  leading.push_back(9);
  cases.push_back(leading);
  for (const std::vector<uint8_t>& c : cases) {
    SCOPED_TRACE(c.size());
    EXPECT_EQ(zero_run_round_trip(c), c);
  }
}

TEST(ZeroRun, LongRunsCostAFewBytes) {
  std::vector<uint8_t> v(1 << 20, 0);
  v[100] = 1;
  v[500000] = 2;
  std::vector<uint8_t> packed = zero_run_encode(v.data(), v.size());
  EXPECT_LT(packed.size(), 24u);
  EXPECT_EQ(zero_run_round_trip(v), v);
  // Runs shorter than the threshold stay literal: no expansion beyond the
  // framing of the one record.
  std::vector<uint8_t> short_runs;
  for (int i = 0; i < 100; ++i) {
    short_runs.push_back(uint8_t(i + 1));
    short_runs.insert(short_runs.end(), kMinZeroRun - 1, 0);
  }
  EXPECT_LE(zero_run_encode(short_runs.data(), short_runs.size()).size(),
            short_runs.size() + 6);
}

// Decoding hostile bytes throws a located VmError, and the output never
// holds more than the declared size, even when a record claims more.
void expect_rejected(const std::vector<uint8_t>& stream, size_t max_size,
                     size_t declared, const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<uint8_t> out;
  try {
    zero_run_decode(stream.data(), stream.size(), max_size, &out);
    ADD_FAILURE() << "decoded without an error";
  } catch (const VmError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("zero-run stream"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
  EXPECT_LE(out.capacity(), declared);
}

TEST(ZeroRun, HostileStreamsAreLocatedErrorsWithBoundedOutput) {
  std::vector<uint8_t> sample = zero_run_sample();
  std::vector<uint8_t> packed = zero_run_encode(sample.data(), sample.size());
  // Every truncation of a valid stream.
  for (size_t cut = 0; cut < packed.size(); ++cut) {
    std::vector<uint8_t> part(packed.begin(), packed.begin() + long(cut));
    expect_rejected(part, sample.size(), sample.size(),
                    cut == 0 ? "decoded size" : "");
  }
  auto stream = [](std::initializer_list<uint64_t> lens,
                   std::vector<uint8_t> tail = {}) {
    ByteWriter w;
    for (uint64_t n : lens) w.put_uvarint(n);
    w.put_bytes(tail.data(), tail.size());
    return w.take();
  };
  // A literal longer than the declared size.
  expect_rejected(stream({10, 11}, std::vector<uint8_t>(11, 1)), 64, 10,
                  "literal length 11 at offset 1 exceeds the 10");
  // A literal longer than the bytes that follow it.
  expect_rejected(stream({10, 4}, {1, 2}), 64, 10, "is cut off after 2");
  // A zero run far past the declared size.
  std::vector<uint8_t> huge_run = stream({10, 2}, {1, 2});
  for (uint8_t b : stream({1ull << 40})) huge_run.push_back(b);
  expect_rejected(huge_run, 64, 10,
                  "zero run 1099511627776 at offset 4 exceeds the 8");
  // Trailing bytes after the declared size is reached.
  std::vector<uint8_t> trailing = packed;
  trailing.push_back(0);
  expect_rejected(trailing, sample.size(), sample.size(), "trailing byte");
  // A declared size over the caller's limit allocates nothing.
  expect_rejected(stream({1ull << 40}), 1 << 20, 0,
                  "decoded size 1099511627776 at offset 0 exceeds");
  // A length varint that never ends.
  expect_rejected(std::vector<uint8_t>(12, 0xff), 64, 0, "malformed");
}

}  // namespace
}  // namespace dejavu
