#include <algorithm>
#include <cstring>
#include <map>

#include "support/error.h"
#include "vfs/fs.h"

namespace msv::vfs {

struct MemFs::Impl {
  // shared_ptr so map() snapshots stay valid if the file is removed.
  std::map<std::string, std::shared_ptr<std::vector<std::uint8_t>>> files;
};

namespace {

class MemFile final : public File {
 public:
  MemFile(std::shared_ptr<std::vector<std::uint8_t>> data, OpenMode mode)
      : data_(std::move(data)), writable_(mode != OpenMode::kRead) {
    if (mode == OpenMode::kAppend) pos_ = data_->size();
  }

  std::size_t read(void* buf, std::size_t n) override {
    const std::size_t avail =
        pos_ < data_->size() ? data_->size() - pos_ : 0;
    const std::size_t take = std::min(n, avail);
    if (take != 0) std::memcpy(buf, data_->data() + pos_, take);
    pos_ += take;
    return take;
  }

  void write(const void* buf, std::size_t n) override {
    MSV_CHECK_MSG(writable_, "write to a read-only MemFile");
    const std::uint64_t end = pos_ + n;
    if (end > data_->size()) {
      // Grow ahead of need: a write that outgrows the file reserves twice
      // its new size, so later appends land in place instead of moving the
      // file while its old copy is still live. Pages past the end are
      // never written until a write reaches them.
      if (end > data_->capacity()) data_->reserve(2 * end);
      data_->resize(end);
    }
    if (n != 0) std::memcpy(data_->data() + pos_, buf, n);
    pos_ += n;
  }

  void seek(std::uint64_t pos) override { pos_ = pos; }
  std::uint64_t tell() const override { return pos_; }
  std::uint64_t size() const override { return data_->size(); }
  void flush() override {}

 private:
  std::shared_ptr<std::vector<std::uint8_t>> data_;
  bool writable_;
  std::uint64_t pos_ = 0;
};

}  // namespace

MemFs::MemFs() : impl_(std::make_unique<Impl>()) {}
MemFs::~MemFs() = default;

std::unique_ptr<File> MemFs::open(const std::string& path, OpenMode mode) {
  auto it = impl_->files.find(path);
  if (mode == OpenMode::kRead) {
    if (it == impl_->files.end())
      throw RuntimeFault("MemFs: no such file: " + path);
    return std::make_unique<MemFile>(it->second, mode);
  }
  if (it == impl_->files.end()) {
    it = impl_->files
             .emplace(path, std::make_shared<std::vector<std::uint8_t>>())
             .first;
  } else if (mode == OpenMode::kWrite) {
    it->second->clear();
  }
  return std::make_unique<MemFile>(it->second, mode);
}

bool MemFs::exists(const std::string& path) const {
  return impl_->files.count(path) != 0;
}

std::uint64_t MemFs::file_size(const std::string& path) const {
  const auto it = impl_->files.find(path);
  if (it == impl_->files.end())
    throw RuntimeFault("MemFs: no such file: " + path);
  return it->second->size();
}

void MemFs::remove(const std::string& path) {
  if (impl_->files.erase(path) == 0)
    throw RuntimeFault("MemFs: no such file: " + path);
}

std::vector<std::string> MemFs::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, data] : impl_->files) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

std::shared_ptr<const std::vector<std::uint8_t>> MemFs::map(
    const std::string& path) {
  const auto it = impl_->files.find(path);
  if (it == impl_->files.end())
    throw RuntimeFault("MemFs: no such file: " + path);
  return it->second;
}

std::uint64_t MemFs::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [path, data] : impl_->files) total += data->size();
  return total;
}

}  // namespace msv::vfs
