// A write-once embeddable key-value store modelled on LinkedIn's PalDB
// (§6.5), the first macro-benchmark application of the paper.
//
// Format of "<name>.paldb":
//   header   : magic, version, key count, index offset, slot count
//   data     : length-prefixed (key, value) records
//   index    : open-addressed hash table of (key hash, record offset+1)
//
// The performance asymmetry the paper exploits is reproduced exactly:
//   * the writer does regular buffered I/O — every put() appends the
//     record to a temporary file through write() (an ocall storm when the
//     writer runs inside the enclave: the RUWT scheme's 23x ocalls);
//   * the reader memory-maps the store file and probes the index in the
//     mapping — nearly free outside the enclave, but paying per-page
//     copy-in plus MEE traffic inside it.
//
// The writer holds at most two copies of the data at once (DESIGN.md §5
// item 6): close() merges the staging files chunk by chunk into the data
// region, and builds the index only after the data region is written.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "shim/io_service.h"
#include "sim/env.h"

namespace msv::apps::paldb {

constexpr std::uint32_t kMagic = 0x50414c44;  // "PALD"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::uint64_t kSlotBytes = 16;

struct WriterStats {
  std::uint64_t puts = 0;
  std::uint64_t bytes_staged = 0;
};

// Builds a store file. Write-once: after close() the store is immutable.
class StoreWriter {
 public:
  // Creates "<path>.keys.tmp" / "<path>.values.tmp" for staging; close()
  // merges them into "<path>".
  StoreWriter(Env& env, shim::IoService& io, std::string path);
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  // Appends one record. Duplicate keys are not detected until close()
  // (PalDB semantics: last write wins is *not* supported; duplicates are
  // an error).
  void put(std::string_view key, std::string_view value);

  // Merges the staging files into the data region and removes them, then
  // writes the final store file: header, data, and the index, built from
  // the records' key hashes once the data is written. Must be called
  // exactly once before reading. Throws RuntimeFault on a duplicate key,
  // before the store file is created, leaving the staging files in place.
  void close();

  const WriterStats& stats() const { return stats_; }

 private:
  Env& env_;
  shim::IoService& io_;
  std::string path_;
  shim::FileId keys_tmp_;
  shim::FileId values_tmp_;
  bool closed_ = false;
  WriterStats stats_;
};

struct ReaderStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t probes = 0;
};

// Reads a store file through a memory mapping.
class StoreReader {
 public:
  StoreReader(Env& env, shim::IoService& io, const std::string& path);

  std::optional<std::string> get(std::string_view key);
  std::uint64_t key_count() const { return key_count_; }
  const ReaderStats& stats() const { return stats_; }

 private:
  Env& env_;
  std::shared_ptr<shim::MappedFile> map_;
  std::uint64_t key_count_ = 0;
  std::uint64_t index_offset_ = 0;
  std::uint64_t slot_count_ = 0;
  ReaderStats stats_;
};

}  // namespace msv::apps::paldb
