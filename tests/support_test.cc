// Tests for src/support: clock/timers, byte buffers, hashes, stats, tables.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "support/bytes.h"
#include "support/clock.h"
#include "support/error.h"
#include "support/fnv.h"
#include "support/md5.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "support/stats.h"
#include "support/table.h"

namespace msv {
namespace {

TEST(VirtualClock, StartsAtZero) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.0);
}

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock clock(1e9);
  clock.advance(500);
  clock.advance(1500);
  EXPECT_EQ(clock.now(), 2000u);
  EXPECT_DOUBLE_EQ(clock.seconds(), 2e-6);
}

TEST(VirtualClock, SecondsToCyclesUsesFrequency) {
  VirtualClock clock(2e9);
  EXPECT_EQ(clock.seconds_to_cycles(1.5), 3'000'000'000u);
}

TEST(ByteBuffer, PrimitivesRoundTrip) {
  ByteBuffer buf;
  buf.put_u8(0xab);
  buf.put_u16(0x1234);
  buf.put_u32(0xdeadbeef);
  buf.put_u64(0x0123456789abcdefull);
  buf.put_i32(-42);
  buf.put_i64(-1'000'000'000'000ll);
  buf.put_f64(3.14159);
  ByteReader r(buf);
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1'000'000'000'000ll);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(ByteBuffer, VarintRoundTrip) {
  ByteBuffer buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  0xffffffffull, 0xffffffffffffffffull};
  for (const auto v : values) buf.put_varint(v);
  ByteReader r(buf);
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, VarintTenthByteAboveOneRejected) {
  // The 10th byte of a varint carries bit 63 alone; higher bits do not
  // fit in 64 and must not be dropped silently.
  auto decode = [](std::uint8_t last) {
    std::vector<std::uint8_t> bytes(9, 0xff);
    bytes.push_back(last);
    ByteReader r(bytes.data(), bytes.size());
    const std::uint64_t v = r.get_varint();
    EXPECT_TRUE(r.done());
    return v;
  };
  EXPECT_EQ(decode(0x01), 0xffffffffffffffffull);
  EXPECT_EQ(decode(0x00), 0x7fffffffffffffffull);
  EXPECT_THROW(decode(0x02), RuntimeFault);
  EXPECT_THROW(decode(0x7f), RuntimeFault);
  EXPECT_THROW(decode(0x81), RuntimeFault) << "an 11th byte is never valid";
}

TEST(ByteBuffer, StringRoundTrip) {
  ByteBuffer buf;
  buf.put_string("hello");
  buf.put_string("");
  buf.put_string(std::string(1000, 'x'));
  ByteReader r(buf);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteBuffer buf;
  buf.put_u16(7);
  ByteReader r(buf);
  EXPECT_THROW(r.get_u32(), RuntimeFault);
}

TEST(ByteReader, ZeroBytesIntoNullFromEmptyReader) {
  // An empty field decoded into an empty vector hands get_bytes a null
  // destination; memcpy must not see it, even for zero bytes (UBSan).
  const std::vector<std::uint8_t> empty;
  ByteReader r(empty.data(), empty.size());
  r.get_bytes(nullptr, 0);
  EXPECT_TRUE(r.done());
  ByteBuffer b;
  b.put_bytes(nullptr, 0);
  EXPECT_TRUE(b.empty());
}

TEST(ByteReader, SeekAndPosition) {
  ByteBuffer buf;
  buf.put_u32(1);
  buf.put_u32(2);
  ByteReader r(buf);
  r.seek(4);
  EXPECT_EQ(r.get_u32(), 2u);
  r.seek(0);
  EXPECT_EQ(r.get_u32(), 1u);
  EXPECT_THROW(r.seek(100), RuntimeFault);
}

TEST(BufferArena, ReusesReleasedCapacity) {
  BufferArena arena;
  ByteBuffer b = arena.acquire();
  for (int i = 0; i < 64; ++i) b.put_u32(i);
  const std::uint8_t* storage = b.data();
  arena.release(std::move(b));
  EXPECT_EQ(arena.pooled(), 1u);

  ByteBuffer c = arena.acquire();
  EXPECT_EQ(arena.pooled(), 0u);
  EXPECT_EQ(c.size(), 0u) << "recycled buffers come back empty";
  c.put_u8(1);
  EXPECT_EQ(c.data(), storage) << "same allocation, no fresh malloc";
  EXPECT_EQ(arena.stats().acquires, 2u);
  EXPECT_EQ(arena.stats().reuses, 1u);
}

TEST(BufferArena, OversizedAndEmptyBuffersNotPooled) {
  BufferArena arena;
  arena.release(ByteBuffer());  // no storage to keep
  EXPECT_EQ(arena.pooled(), 0u);

  ByteBuffer huge = arena.acquire();
  for (int i = 0; i < (2 << 20); ++i) huge.put_u8(0);  // > 1 MiB cap
  arena.release(std::move(huge));
  EXPECT_EQ(arena.pooled(), 0u) << "huge payloads must not pin their storage";
}

TEST(BufferArena, LeaseReturnsBufferOnDestruction) {
  BufferArena arena;
  {
    ArenaLease lease(arena);
    lease->put_u32(7);
    EXPECT_EQ(arena.pooled(), 0u);
  }
  EXPECT_EQ(arena.pooled(), 1u);
  {
    ArenaLease lease(arena);
    EXPECT_EQ(arena.stats().reuses, 1u);
    ArenaLease moved(std::move(lease));
    moved->put_u8(1);
  }
  EXPECT_EQ(arena.pooled(), 1u) << "moved-from lease must not double-release";
}

// RFC 1321 test vectors.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(Md5::hash("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(Md5::hash("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex(Md5::hash("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(Md5::hash("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(Md5::hash("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, IncrementalMatchesOneShot) {
  Md5 h;
  h.update("mess");
  h.update("age ");
  h.update("digest");
  EXPECT_EQ(Md5::hex(h.finish()), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5, MultiBlockInput) {
  const std::string input(1000, 'z');
  Md5 one;
  one.update(input);
  Md5 chunked;
  for (std::size_t i = 0; i < input.size(); i += 77) {
    chunked.update(input.substr(i, 77));
  }
  EXPECT_EQ(one.finish(), chunked.finish());
}

// FIPS 180-4 test vectors.
TEST(Sha256, FipsVectors) {
  EXPECT_EQ(Sha256::hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::hex(Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Sha256::hex(Sha256::hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(Sha256::hex(Sha256::hash(std::string(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("ab");
  h.update("c");
  EXPECT_EQ(Sha256::hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Seeded messages of every length from 0 to 1,100 bytes, each hashed
// with `compress` over 1-3 update calls cut at seeded points.
std::vector<std::pair<std::string, Sha256::Digest>> split_cases(
    Sha256::Compress compress) {
  Rng rng(256);
  std::string input(1100, '\0');
  for (char& c : input) c = static_cast<char>(rng.next_below(256));
  std::vector<std::pair<std::string, Sha256::Digest>> out;
  for (std::size_t len = 0; len <= input.size(); ++len) {
    const std::string_view msg(input.data(), len);
    for (int parts = 1; parts <= 3; ++parts) {
      std::size_t cut1 = parts >= 2 ? rng.next_below(len + 1) : len;
      std::size_t cut2 = parts == 3 ? rng.next_below(len + 1) : len;
      if (cut2 < cut1) std::swap(cut1, cut2);
      Sha256 h(compress);
      h.update(msg.substr(0, cut1));
      h.update(msg.substr(cut1, cut2 - cut1));
      h.update(msg.substr(cut2));
      out.emplace_back(std::string(msg), h.finish());
    }
  }
  return out;
}

TEST(Sha256, SplitUpdatesMatchOneShot) {
  for (const auto& [msg, digest] : split_cases(Sha256::portable())) {
    Sha256 one(Sha256::portable());
    one.update(msg);
    ASSERT_EQ(digest, one.finish()) << "length " << msg.size();
  }
}

TEST(Sha256, HardwareCompressionMatchesPortable) {
  if (Sha256::hardware() == nullptr) {
    GTEST_SKIP() << "this CPU lacks the x86 SHA extensions";
  }
  for (const auto& [msg, digest] : split_cases(Sha256::hardware())) {
    Sha256 ref(Sha256::portable());
    ref.update(msg);
    ASSERT_EQ(digest, ref.finish()) << "length " << msg.size();
  }
}

TEST(Fnv, KnownValues) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), kFnvOffset64);
  // Stability check (value computed once and frozen).
  EXPECT_EQ(fnv1a64("hello"), 0xa430d84680aabd0bull);
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  EXPECT_NE(rng.next_u64(), rng.next_u64());
}

TEST(Samples, SummaryStatistics) {
  Samples s;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.mean(), RuntimeFault);
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(5e-9), "5.0 ns");
  EXPECT_EQ(format_seconds(2.5e-6), "2.50 us");
  EXPECT_EQ(format_seconds(3.2e-3), "3.20 ms");
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MiB");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), RuntimeFault);
}

}  // namespace
}  // namespace msv
