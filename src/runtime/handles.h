// GC handles.
//
// The semispace collector moves objects, so C++ code never holds raw heap
// addresses across an allocation. Instead it holds an index into the
// isolate's handle table; the collector updates the table in place. Handle
// table entries are GC roots.
//
// Each slot carries a reference count: create() hands out the first
// reference, retain() adds one (a GcRef copy), and release() drops one,
// freeing the slot for reuse when the last reference goes.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.h"

namespace msv::rt {

// Heap address: byte offset into the current from-space. 0 is the null
// reference (the first 8 bytes of each semispace are never allocated).
using ObjAddr = std::uint64_t;
constexpr ObjAddr kNullAddr = 0;

class HandleTable {
 public:
  // Creates a root slot holding `addr` with one reference; returns its
  // index.
  std::uint32_t create(ObjAddr addr);
  void retain(std::uint32_t index) {
    MSV_CHECK_MSG(index < refs_.size() && refs_[index] != 0,
                  "retaining a dead handle");
    ++refs_[index];
  }
  void release(std::uint32_t index);

  ObjAddr get(std::uint32_t index) const;
  void set(std::uint32_t index, ObjAddr addr);

  std::size_t live() const { return slots_.size() - free_.size(); }

  // Visits every live slot; `fn(ObjAddr&)` may rewrite the address (used by
  // the collector to forward roots).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (refs_[i] != 0) fn(slots_[i]);
    }
  }

 private:
  std::vector<ObjAddr> slots_;
  std::vector<std::uint32_t> refs_;  // 0 = free
  std::vector<std::uint32_t> free_;
};

}  // namespace msv::rt
