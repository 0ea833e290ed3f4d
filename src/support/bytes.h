// Growable byte buffer with little-endian primitive encoding.
//
// Used by the neutral-object serializer (src/rmi), the PalDB store format
// (src/apps/paldb) and the GraphChi shard files (src/apps/graphchi).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace msv {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> data) : data_(std::move(data)) {}

  const std::uint8_t* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return data_.capacity(); }
  bool empty() const { return data_.empty(); }
  // Drops the contents but keeps the allocation — the property BufferArena
  // relies on to amortize marshalling buffers across calls.
  void clear() { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }
  const std::vector<std::uint8_t>& bytes() const { return data_; }
  std::vector<std::uint8_t> take() { return std::move(data_); }

  // The fixed-width put/get pairs are defined inline: they are the RMI
  // marshalling inner loop and the call overhead is measurable there.
  void put_u8(std::uint8_t v) { data_.push_back(v); }
  void put_u16(std::uint16_t v) {
    put_u8(static_cast<std::uint8_t>(v));
    put_u8(static_cast<std::uint8_t>(v >> 8));
  }
  void put_u32(std::uint32_t v) {
    // One growth check + memcpy instead of four checked push_backs.
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    put_bytes(b, sizeof b);
  }
  void put_u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    put_bytes(b, sizeof b);
  }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  // Unsigned LEB128; compact for small lengths and ids.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<std::uint8_t>(v));
  }
  // `p` may be null when `n` is 0.
  void put_bytes(const void* p, std::size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const std::uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  // Length-prefixed (varint) string.
  void put_string(std::string_view s);

 private:
  std::vector<std::uint8_t> data_;
};

// Non-owning sequential reader over an encoded buffer. Throws RuntimeFault
// on truncated input.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const ByteBuffer& b) : ByteReader(b.data(), b.size()) {}

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  // Base pointer of the underlying buffer (position 0). The batch frame
  // decoder slices per-entry views out of one frame without copying.
  const std::uint8_t* raw() const { return data_; }
  bool done() const { return pos_ == size_; }
  void seek(std::size_t pos);

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t get_u16() {
    std::uint16_t v = get_u8();
    v |= static_cast<std::uint16_t>(get_u8()) << 8;
    return v;
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t b = get_u8();
      // The 10th byte holds bit 63 only: anything above 1 (a set
      // continuation bit included) would overflow 64 bits.
      if (shift == 63 && b > 1) fail_varint();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
    }
    return v;
  }
  void get_bytes(void* p, std::size_t n);
  std::string get_string();

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;

  void need(std::size_t n) const {
    if (remaining() < n) fail_truncated();
  }
  [[noreturn]] static void fail_truncated();
  [[noreturn]] static void fail_varint();
};

// A small pool of marshalling buffers. The RMI hot path encodes a request
// and decodes a response for every relayed call; acquiring buffers here
// instead of default-constructing them reuses the grown capacity of
// earlier calls, so steady-state marshalling performs no heap allocation.
// Release order is irrelevant (nested ecall/ocall chains release inner
// buffers first; the pool is just a free list).
class BufferArena {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;  // acquires served from the free list
  };

  BufferArena() = default;
  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  // Returns an empty buffer, reusing pooled capacity when available.
  // Inline: the RMI hot path takes two leases per relayed call.
  ByteBuffer acquire() {
    ++stats_.acquires;
    if (free_.empty()) return ByteBuffer();
    ++stats_.reuses;
    std::vector<std::uint8_t> storage = std::move(free_.back());
    free_.pop_back();
    storage.clear();
    return ByteBuffer(std::move(storage));
  }
  // Returns `b`'s storage to the pool (contents are discarded).
  void release(ByteBuffer&& b) {
    if (free_.size() >= kMaxPooled) return;
    std::vector<std::uint8_t> storage = b.take();
    // Don't let one huge payload pin its allocation forever.
    if (storage.capacity() == 0 || storage.capacity() > kMaxPooledCapacity) {
      return;
    }
    free_.push_back(std::move(storage));
  }

  std::size_t pooled() const { return free_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMaxPooled = 16;
  static constexpr std::size_t kMaxPooledCapacity = 1 << 20;  // 1 MiB
  std::vector<std::vector<std::uint8_t>> free_;
  Stats stats_;
};

// RAII lease of one arena buffer; returns it on destruction. Move-only.
class ArenaLease {
 public:
  explicit ArenaLease(BufferArena& arena)
      : arena_(&arena), buf_(arena.acquire()) {}
  ~ArenaLease() {
    if (arena_ != nullptr) arena_->release(std::move(buf_));
  }
  ArenaLease(ArenaLease&& other) noexcept
      : arena_(other.arena_), buf_(std::move(other.buf_)) {
    other.arena_ = nullptr;
  }
  ArenaLease& operator=(ArenaLease&&) = delete;
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  ByteBuffer& buf() { return buf_; }
  ByteBuffer& operator*() { return buf_; }
  ByteBuffer* operator->() { return &buf_; }

 private:
  BufferArena* arena_;
  ByteBuffer buf_;
};

}  // namespace msv
