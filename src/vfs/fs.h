// Filesystem abstraction used by the host-side shim helper (§5.4).
//
// MemFs, a deterministic in-memory filesystem, implements it for the
// tests, benchmarks and examples. The shim layer charges syscall costs;
// this layer only moves bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace msv::vfs {

enum class OpenMode {
  kRead,      // existing file, read-only
  kWrite,     // create or truncate
  kAppend,    // create if needed, position at end
  kReadWrite  // create if needed, read/write from the start
};

// An open file handle. Closing happens in the destructor (RAII).
class File {
 public:
  virtual ~File() = default;

  // Reads up to `n` bytes; returns the number of bytes read (0 at EOF).
  virtual std::size_t read(void* buf, std::size_t n) = 0;
  // Writes exactly `n` bytes.
  virtual void write(const void* buf, std::size_t n) = 0;
  virtual void seek(std::uint64_t pos) = 0;
  virtual std::uint64_t tell() const = 0;
  virtual std::uint64_t size() const = 0;
  virtual void flush() = 0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Throws RuntimeFault if the file cannot be opened.
  virtual std::unique_ptr<File> open(const std::string& path, OpenMode mode) = 0;
  virtual bool exists(const std::string& path) const = 0;
  virtual std::uint64_t file_size(const std::string& path) const = 0;
  virtual void remove(const std::string& path) = 0;
  // Returns the paths of all files whose name starts with `prefix`.
  virtual std::vector<std::string> list(const std::string& prefix) const = 0;
  // Memory-maps a file for reading: returns an immutable snapshot of its
  // contents. PalDB's reader uses this, mirroring the mmap-optimised reads
  // the paper's evaluation relies on (§6.5).
  virtual std::shared_ptr<const std::vector<std::uint8_t>> map(
      const std::string& path) = 0;
};

// Deterministic in-memory filesystem.
class MemFs final : public FileSystem {
 public:
  MemFs();
  ~MemFs() override;

  std::unique_ptr<File> open(const std::string& path, OpenMode mode) override;
  bool exists(const std::string& path) const override;
  std::uint64_t file_size(const std::string& path) const override;
  void remove(const std::string& path) override;
  std::vector<std::string> list(const std::string& prefix) const override;
  std::shared_ptr<const std::vector<std::uint8_t>> map(
      const std::string& path) override;

  // Total bytes stored across all files (test/diagnostic helper).
  std::uint64_t total_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace msv::vfs
