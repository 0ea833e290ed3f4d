#include "shim/host_io.h"

#include <cstring>

#include "support/error.h"

namespace msv::shim {

MappedFile::MappedFile(Env& env, MemoryDomain& domain,
                       std::shared_ptr<const std::vector<std::uint8_t>> data,
                       std::string path,
                       std::function<void(std::uint64_t)> fetch_page)
    : env_(env),
      domain_(domain),
      data_(std::move(data)),
      path_(std::move(path)),
      fetch_page_(std::move(fetch_page)),
      region_(domain_.register_region()),
      touched_((data_->size() + env.cost.page_bytes - 1) / env.cost.page_bytes,
               false) {
  env_.clock.advance(env_.cost.mmap_base_cycles);
}

void MappedFile::touch_range(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t page_bytes = env_.cost.page_bytes;
  const std::uint64_t first = offset / page_bytes;
  const std::uint64_t last = (offset + len - 1) / page_bytes;
  for (std::uint64_t p = first; p <= last; ++p) {
    if (!touched_[p]) {
      touched_[p] = true;
      ++touched_count_;
      // First touch: the page is faulted in.
      if (fetch_page_) {
        // Enclave mapping: the shim pulls the page through the boundary.
        fetch_page_(p);
      } else {
        env_.clock.advance(env_.cost.soft_page_fault_cycles);
        if (domain_.trusted()) {
          // Enclave domain without a shim (direct use in tests): charge
          // the boundary copy inline.
          env_.clock.advance(static_cast<Cycles>(
              static_cast<double>(page_bytes) *
              env_.cost.edge_copy_cycles_per_byte));
        }
      }
    }
    domain_.touch_pages(region_, p, 1);
  }
}

void MappedFile::read(std::uint64_t offset, void* dst, std::uint64_t len) {
  // Overflow-safe: `offset + len` can wrap for an offset read from a
  // corrupt file.
  if (offset > data_->size() || len > data_->size() - offset) {
    throw RuntimeFault("mmap read past end of " + path_);
  }
  touch_range(offset, len);
  domain_.charge_traffic(len);
  // An empty mapping's data() may be null; memcpy needs valid pointers.
  if (len != 0) std::memcpy(dst, data_->data() + offset, len);
}

std::uint32_t MappedFile::read_u32(std::uint64_t offset) {
  std::uint32_t v;
  read(offset, &v, sizeof(v));
  return v;
}

std::uint64_t MappedFile::read_u64(std::uint64_t offset) {
  std::uint64_t v;
  read(offset, &v, sizeof(v));
  return v;
}

HostIo::HostIo(Env& env, MemoryDomain& domain) : env_(env), domain_(domain) {}

vfs::File& HostIo::file(FileId id) {
  const auto it = open_files_.find(id);
  if (it == open_files_.end()) {
    throw RuntimeFault("I/O on closed or unknown file id " +
                       std::to_string(id));
  }
  return *it->second;
}

FileId HostIo::open(const std::string& path, vfs::OpenMode mode) {
  env_.clock.advance(env_.cost.file_open_cycles);
  ++stats_.opens;
  const FileId id = next_id_++;
  open_files_.emplace(id, env_.fs->open(path, mode));
  return id;
}

void HostIo::write(FileId id, const void* buf, std::uint64_t len) {
  env_.clock.advance(env_.cost.syscall_base_cycles +
                     static_cast<Cycles>(static_cast<double>(len) *
                                         env_.cost.io_write_cycles_per_byte));
  ++stats_.writes;
  stats_.bytes_written += len;
  file(id).write(buf, len);
}

std::uint64_t HostIo::read(FileId id, void* buf, std::uint64_t len) {
  env_.clock.advance(env_.cost.syscall_base_cycles +
                     static_cast<Cycles>(static_cast<double>(len) *
                                         env_.cost.io_read_cycles_per_byte));
  ++stats_.reads;
  const std::uint64_t got = file(id).read(buf, len);
  stats_.bytes_read += got;
  return got;
}

void HostIo::seek(FileId id, std::uint64_t pos) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  file(id).seek(pos);
}

void HostIo::flush(FileId id) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  file(id).flush();
}

void HostIo::close(FileId id) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  file(id);  // validate
  open_files_.erase(id);
}

bool HostIo::exists(const std::string& path) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  return env_.fs->exists(path);
}

std::uint64_t HostIo::file_size(const std::string& path) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  return env_.fs->file_size(path);
}

void HostIo::remove(const std::string& path) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  env_.fs->remove(path);
}

std::vector<std::string> HostIo::list(const std::string& prefix) {
  env_.clock.advance(env_.cost.syscall_base_cycles);
  ++stats_.other_calls;
  return env_.fs->list(prefix);
}

std::shared_ptr<MappedFile> HostIo::map(const std::string& path) {
  env_.clock.advance(env_.cost.mmap_base_cycles);
  ++stats_.maps;
  return std::make_shared<MappedFile>(env_, domain_, env_.fs->map(path), path);
}

}  // namespace msv::shim
