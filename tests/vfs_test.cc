// Tests for src/vfs: the in-memory filesystem.
#include <gtest/gtest.h>

#include <vector>

#include "support/error.h"
#include "vfs/fs.h"

namespace msv::vfs {
namespace {

TEST(MemFs, WriteThenRead) {
  MemFs fs;
  {
    auto f = fs.open("a.bin", OpenMode::kWrite);
    f->write("hello", 5);
  }
  EXPECT_TRUE(fs.exists("a.bin"));
  EXPECT_EQ(fs.file_size("a.bin"), 5u);
  auto f = fs.open("a.bin", OpenMode::kRead);
  char buf[8] = {};
  EXPECT_EQ(f->read(buf, 8), 5u);
  EXPECT_STREQ(buf, "hello");
  EXPECT_EQ(f->read(buf, 8), 0u) << "EOF reached";
}

TEST(MemFs, OpenMissingFileForReadThrows) {
  MemFs fs;
  EXPECT_THROW(fs.open("missing", OpenMode::kRead), RuntimeFault);
  EXPECT_THROW(fs.file_size("missing"), RuntimeFault);
  EXPECT_THROW(fs.remove("missing"), RuntimeFault);
}

TEST(MemFs, WriteTruncates) {
  MemFs fs;
  fs.open("f", OpenMode::kWrite)->write("0123456789", 10);
  fs.open("f", OpenMode::kWrite)->write("ab", 2);
  EXPECT_EQ(fs.file_size("f"), 2u);
}

TEST(MemFs, AppendPositionsAtEnd) {
  MemFs fs;
  fs.open("f", OpenMode::kWrite)->write("abc", 3);
  fs.open("f", OpenMode::kAppend)->write("def", 3);
  auto data = fs.map("f");
  EXPECT_EQ(std::string(data->begin(), data->end()), "abcdef");
}

TEST(MemFs, SeekAndOverwrite) {
  MemFs fs;
  auto f = fs.open("f", OpenMode::kReadWrite);
  f->write("aaaaaa", 6);
  f->seek(2);
  f->write("XX", 2);
  f->seek(0);
  char buf[7] = {};
  f->read(buf, 6);
  EXPECT_STREQ(buf, "aaXXaa");
}

TEST(MemFs, SparseWriteExtends) {
  MemFs fs;
  auto f = fs.open("f", OpenMode::kWrite);
  f->seek(100);
  f->write("x", 1);
  EXPECT_EQ(f->size(), 101u);
}

TEST(MemFs, AppendAfterLargeWriteStaysInPlace) {
  // The PalDB store's shape: a small header, a large data write, then a
  // smaller index append. The large write reserves ahead of need, so the
  // append lands in place instead of moving the file.
  MemFs fs;
  auto f = fs.open("store", OpenMode::kWrite);
  const std::vector<std::uint8_t> header(32, 0x11);
  const std::vector<std::uint8_t> data(1 << 20, 0x22);
  const std::vector<std::uint8_t> index(1 << 18, 0x33);
  f->write(header.data(), header.size());
  f->write(data.data(), data.size());
  const std::uint8_t* const before = fs.map("store")->data();
  f->write(index.data(), index.size());

  const auto file = fs.map("store");
  EXPECT_EQ(file->data(), before) << "the append reallocated the file";
  std::vector<std::uint8_t> expected = header;
  expected.insert(expected.end(), data.begin(), data.end());
  expected.insert(expected.end(), index.begin(), index.end());
  EXPECT_EQ(*file, expected);
}

TEST(MemFs, ListByPrefix) {
  MemFs fs;
  fs.open("shard.0", OpenMode::kWrite);
  fs.open("shard.1", OpenMode::kWrite);
  fs.open("other", OpenMode::kWrite);
  const auto shards = fs.list("shard.");
  EXPECT_EQ(shards.size(), 2u);
}

TEST(MemFs, MapSurvivesRemove) {
  MemFs fs;
  fs.open("f", OpenMode::kWrite)->write("data", 4);
  auto snapshot = fs.map("f");
  fs.remove("f");
  EXPECT_FALSE(fs.exists("f"));
  EXPECT_EQ(snapshot->size(), 4u);
}

TEST(MemFs, ReadOnlyHandleRejectsWrite) {
  MemFs fs;
  fs.open("f", OpenMode::kWrite)->write("x", 1);
  auto f = fs.open("f", OpenMode::kRead);
  EXPECT_THROW(f->write("y", 1), RuntimeFault);
}

TEST(MemFs, TotalBytes) {
  MemFs fs;
  fs.open("a", OpenMode::kWrite)->write("xx", 2);
  fs.open("b", OpenMode::kWrite)->write("yyy", 3);
  EXPECT_EQ(fs.total_bytes(), 5u);
}

}  // namespace
}  // namespace msv::vfs
