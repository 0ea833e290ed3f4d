#include "apps/paldb/store.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "support/bytes.h"
#include "support/error.h"
#include "support/fnv.h"

namespace msv::apps::paldb {
namespace {

// CPU cost of hashing + record bookkeeping per put/get.
constexpr Cycles kRecordCpuCycles = 2'000;  // Java-side hashing,
                                            // stream encoding, bookkeeping

std::uint64_t key_hash(std::string_view key) {
  std::uint64_t h = fnv1a64(key);
  return h == 0 ? 1 : h;  // 0 marks an empty slot
}

}  // namespace

StoreWriter::StoreWriter(Env& env, shim::IoService& io, std::string path)
    : env_(env),
      io_(io),
      path_(std::move(path)),
      keys_tmp_(io.open(path_ + ".keys.tmp", vfs::OpenMode::kWrite)),
      values_tmp_(io.open(path_ + ".values.tmp", vfs::OpenMode::kWrite)) {}

StoreWriter::~StoreWriter() {
  // A store that was never closed leaves only the staging file behind;
  // that is a usage bug but must not throw from a destructor.
}

void StoreWriter::put(std::string_view key, std::string_view value) {
  MSV_CHECK_MSG(!closed_, "put() after close()");
  env_.clock.advance(kRecordCpuCycles);
  // PalDB stages keys and values in separate per-key-length streams; each
  // put writes both. From inside an enclave that is two ocalls per record
  // — the write amplification behind the RUWT scheme's ocall storm.
  ByteBuffer key_rec;
  key_rec.put_string(key);
  io_.write(keys_tmp_, key_rec.data(), key_rec.size());
  ByteBuffer value_rec;
  value_rec.put_string(value);
  io_.write(values_tmp_, value_rec.data(), value_rec.size());
  ++stats_.puts;
  stats_.bytes_staged += key_rec.size() + value_rec.size();
}

namespace {

// One record as put() staged it: a varint length, then that many bytes
// (ByteBuffer::put_string). The data region holds records in the same
// encoding, so the merge copies `encoded` as is.
struct StagedRecord {
  std::string_view payload;
  std::span<const std::uint8_t> encoded;
};

// Takes the record at r's position if the buffer holds all of it. Returns
// nullopt, leaving r in place, if the record runs past the buffer's end.
std::optional<StagedRecord> take_record(ByteReader& r) {
  if (r.done()) return std::nullopt;
  const std::size_t start = r.position();
  const std::uint8_t* p = r.raw() + start;
  // Find the length prefix's last byte before decoding it: a prefix cut by
  // a chunk boundary is carried over, not reported as truncated input.
  std::size_t prefix = 0;
  while (prefix < r.remaining() && (p[prefix] & 0x80) != 0) ++prefix;
  if (prefix == r.remaining()) return std::nullopt;
  const std::uint64_t len = r.get_varint();  // throws on an overlong prefix
  if (len > r.remaining()) {
    r.seek(start);
    return std::nullopt;
  }
  const std::size_t header = r.position() - start;
  r.seek(r.position() + len);
  const auto size = static_cast<std::size_t>(len);
  return StagedRecord{{reinterpret_cast<const char*>(p + header), size},
                      {p, header + size}};
}

// A staging file's records, read back front to back in 64 KiB read()
// calls, as the Java implementation does through a buffered stream, and
// taken one at a time as the merge consumes them. Only the chunk being
// merged is held, with a record cut by its end carried over to the next
// chunk, never the whole file.
class StagedRecords {
 public:
  StagedRecords(shim::IoService& io, const std::string& path)
      : io_(io),
        size_(io.file_size(path)),
        in_(io.open(path, vfs::OpenMode::kRead)) {}

  // The next record, valid until the next call. Returns nullopt, and
  // closes the file, once every record has been taken; call it until it
  // does. Reads the next chunk only when no whole record is left.
  std::optional<StagedRecord> next() {
    while (true) {
      if (auto record = take_record(records_)) return record;
      const auto consumed = static_cast<std::ptrdiff_t>(records_.position());
      window_.erase(window_.begin(), window_.begin() + consumed);
      if (off_ == size_) {
        MSV_CHECK_MSG(window_.empty(), "staging file truncated");
        io_.close(in_);
        return std::nullopt;
      }
      constexpr std::uint64_t kChunk = 64 << 10;
      const std::uint64_t want = std::min(kChunk, size_ - off_);
      const std::size_t have = window_.size();
      window_.resize(have + want);
      const std::uint64_t got = io_.read(in_, window_.data() + have, want);
      MSV_CHECK_MSG(got > 0, "staging file truncated");
      window_.resize(have + got);
      off_ += got;
      records_ = ByteReader(window_.data(), window_.size());
    }
  }

 private:
  shim::IoService& io_;
  const std::uint64_t size_;
  const shim::FileId in_;
  std::uint64_t off_ = 0;
  std::vector<std::uint8_t> window_;  // carried partial record + new chunk
  ByteReader records_{nullptr, 0};
};

// Where a record's key hash goes in the index: the merge notes one per
// record, in record order, and the index is built from them once the data
// region is written.
struct IndexEntry {
  std::uint64_t hash;
  std::uint64_t offset;  // of the record in the data region
};

// True if two records share a key hash, which the index cannot hold.
bool has_duplicate_hash(const std::vector<IndexEntry>& entries) {
  std::vector<std::uint64_t> hashes(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    hashes[i] = entries[i].hash;
  }
  std::sort(hashes.begin(), hashes.end());
  return std::adjacent_find(hashes.begin(), hashes.end()) != hashes.end();
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// The index's slot count for `keys` records: a power of two, at least 16,
// that keeps the load factor <= 0.5.
std::uint64_t slot_count_for(std::uint64_t keys) {
  std::uint64_t slots = 16;
  while (slots < keys * 2) slots *= 2;
  return slots;
}

// The open-addressed index in the little-endian layout the file holds:
// per slot the key hash, then the record offset + 1. Records are inserted
// in record order, each by linear probing from its hash's home slot; the
// hashes are distinct. Consumes `entries`.
std::vector<std::uint8_t> build_index(std::vector<IndexEntry> entries,
                                      std::uint64_t slot_count) {
  std::vector<std::uint8_t> bytes(slot_count * kSlotBytes);
  for (const IndexEntry& e : entries) {
    std::uint64_t s = e.hash & (slot_count - 1);
    while (load_u64(&bytes[s * kSlotBytes]) != 0) {
      s = (s + 1) & (slot_count - 1);
    }
    store_u64(&bytes[s * kSlotBytes], e.hash);
    store_u64(&bytes[s * kSlotBytes + 8], e.offset + 1);
  }
  return bytes;
}

// Writes `bytes` and frees them as soon as the write returns.
void write_and_release(shim::IoService& io, shim::FileId out,
                       std::vector<std::uint8_t> bytes) {
  io.write(out, bytes.data(), bytes.size());
}

}  // namespace

void StoreWriter::close() {
  MSV_CHECK_MSG(!closed_, "close() called twice");
  closed_ = true;
  io_.flush(keys_tmp_);
  io_.close(keys_tmp_);
  io_.flush(values_tmp_);
  io_.close(values_tmp_);

  // Merge the staged streams into the data region (records in insertion
  // order). Both are read back chunk by chunk as the merge consumes them,
  // so the staging files and the data region are the only copies of the
  // data held; each record leaves one index entry behind.
  const std::string keys_path = path_ + ".keys.tmp";
  const std::string values_path = path_ + ".values.tmp";
  std::vector<std::uint8_t> data;
  data.reserve(stats_.bytes_staged);
  std::vector<IndexEntry> entries;
  entries.reserve(stats_.puts);
  {
    StagedRecords keys(io_, keys_path);
    StagedRecords values(io_, values_path);
    while (const auto value = values.next()) {
      const auto key = keys.next();
      MSV_CHECK_MSG(key.has_value() && entries.size() < stats_.puts,
                    "staging streams out of sync");
      entries.push_back({key_hash(key->payload), data.size()});
      data.insert(data.end(), key->encoded.begin(), key->encoded.end());
      data.insert(data.end(), value->encoded.begin(), value->encoded.end());
    }
    MSV_CHECK_MSG(!keys.next() && entries.size() == stats_.puts,
                  "staging streams out of sync");
  }
  env_.clock.advance(stats_.puts * kRecordCpuCycles);
  // Fails before the store file is created, leaving the staging files.
  if (has_duplicate_hash(entries)) {
    throw RuntimeFault("duplicate key in write-once store " + path_);
  }
  io_.remove(keys_path);
  io_.remove(values_path);

  // Final file: header + data + index, written through regular I/O. Each
  // region is freed as soon as it is written, and the index is built only
  // once the data region is gone: at most two copies of the data are ever
  // held, the store's buffer and the file.
  const std::uint64_t slot_count = slot_count_for(stats_.puts);
  ByteBuffer header;
  header.put_u32(kMagic);
  header.put_u32(kVersion);
  header.put_u64(stats_.puts);
  header.put_u64(kHeaderBytes + data.size());
  header.put_u64(slot_count);
  MSV_CHECK(header.size() == kHeaderBytes);

  const auto out = io_.open(path_, vfs::OpenMode::kWrite);
  io_.write(out, header.data(), header.size());
  write_and_release(io_, out, std::move(data));
  // A statement of its own, so the entries are freed before the write.
  std::vector<std::uint8_t> index = build_index(std::move(entries), slot_count);
  write_and_release(io_, out, std::move(index));
  io_.flush(out);
  io_.close(out);
}

StoreReader::StoreReader(Env& env, shim::IoService& io,
                         const std::string& path)
    : env_(env), map_(io.map(path)) {
  MSV_CHECK_MSG(map_->size() >= kHeaderBytes, "store file too small: " + path);
  if (map_->read_u32(0) != kMagic) {
    throw RuntimeFault("not a PalDB store: " + path);
  }
  MSV_CHECK_MSG(map_->read_u32(4) == kVersion, "store version mismatch");
  key_count_ = map_->read_u64(8);
  index_offset_ = map_->read_u64(16);
  slot_count_ = map_->read_u64(24);
  // The header comes from a file: every probe below relies on these.
  const std::uint64_t size = map_->size();
  if (index_offset_ < kHeaderBytes || index_offset_ > size) {
    throw RuntimeFault("corrupt store: index outside the file: " + path);
  }
  if (slot_count_ == 0 || (slot_count_ & (slot_count_ - 1)) != 0) {
    throw RuntimeFault("corrupt store: slot count not a power of two: " +
                       path);
  }
  if (slot_count_ > (size - index_offset_) / kSlotBytes) {
    throw RuntimeFault("corrupt store: index runs past the end: " + path);
  }
}

std::optional<std::string> StoreReader::get(std::string_view key) {
  env_.clock.advance(kRecordCpuCycles);
  ++stats_.gets;
  const std::uint64_t h = key_hash(key);
  std::uint64_t s = h & (slot_count_ - 1);
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    ++stats_.probes;
    const std::uint64_t slot_off = index_offset_ + s * kSlotBytes;
    const std::uint64_t slot_hash = map_->read_u64(slot_off);
    if (slot_hash == 0) return std::nullopt;
    if (slot_hash == h) {
      // The slot stores the record's offset + 1; the record must start
      // inside the data region.
      const std::uint64_t stored = map_->read_u64(slot_off + 8);
      if (stored == 0 || stored > index_offset_ - kHeaderBytes) {
        throw RuntimeFault("corrupt store: slot points outside the data");
      }
      const std::uint64_t rec_off = stored - 1;
      // Read the record: key (verify), then value. Records are usually
      // small; pull a bounded window from the mapping and grow it if the
      // record turns out to be larger.
      const std::uint64_t data_start = kHeaderBytes + rec_off;
      const std::uint64_t available = index_offset_ - data_start;
      // Records are length-prefixed and usually small; PalDB reads just
      // the record, not a page-sized window.
      std::uint64_t window = std::min<std::uint64_t>(256, available);
      while (true) {
        std::vector<std::uint8_t> buf(window);
        map_->read(data_start, buf.data(), window);
        try {
          ByteReader r(buf.data(), buf.size());
          const std::string stored_key = r.get_string();
          if (stored_key != key) break;  // hash collision: keep probing
          ++stats_.hits;
          return r.get_string();
        } catch (const RuntimeFault&) {
          MSV_CHECK_MSG(window < available, "corrupt record in store");
          window = std::min(window * 2, available);
        }
      }
    }
    s = (s + 1) & (slot_count_ - 1);
  }
  return std::nullopt;
}

}  // namespace msv::apps::paldb
