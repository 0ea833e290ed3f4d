// A managed heap with a serial semispace stop-and-copy collector — the
// collector GraalVM native images embed (§2.2, §6.4: "GraalVM native
// images embed a serial stop and copy GC").
//
// Allocation is bump-pointer. When a semispace fills up, collect() copies
// the transitive closure of the roots (the isolate's handle table) into the
// other semispace, updating roots and clearing weak references to dead
// objects. All costs — allocation, copying, and crucially the extra MEE/EPC
// traffic when the heap lives inside an enclave — are charged through the
// MemoryDomain, which is what makes in-enclave GC an order of magnitude
// more expensive (Fig. 5a).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/handles.h"
#include "runtime/object.h"
#include "runtime/weakref.h"
#include "sim/domain.h"
#include "sim/env.h"

namespace msv::rt {

// Thrown when a collection cannot free enough space for an allocation.
class OutOfMemoryError : public RuntimeFault {
 public:
  explicit OutOfMemoryError(const std::string& what) : RuntimeFault(what) {}
};

struct HeapStats {
  std::uint64_t allocations = 0;
  std::uint64_t allocated_bytes = 0;
  std::uint64_t gc_count = 0;
  std::uint64_t copied_bytes_total = 0;
  Cycles gc_cycles_total = 0;
  std::uint64_t last_live_bytes = 0;
};

class Heap {
 public:
  struct Config {
    std::uint64_t max_bytes = 64ull << 20;  // both semispaces combined
    std::string name = "heap";
  };

  Heap(Env& env, MemoryDomain& domain, HandleTable& handles,
       WeakRefTable& weak_refs, Config config);

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // ---- Allocation (may trigger a collection) ----
  ObjAddr alloc_instance(std::uint32_t class_id, std::uint32_t field_count);
  ObjAddr alloc_array(std::uint32_t length);
  ObjAddr alloc_string(std::string_view bytes);

  // ---- Object access ----
  ObjectKind kind(ObjAddr addr) const;
  std::uint32_t class_id(ObjAddr addr) const;
  // Field count, array length, or string byte length.
  std::uint32_t count(ObjAddr addr) const;
  std::uint32_t identity_hash(ObjAddr addr) const;
  std::uint32_t object_bytes(ObjAddr addr) const;

  SlotValue slot(ObjAddr addr, std::uint32_t index) const;
  void set_slot(ObjAddr addr, std::uint32_t index, SlotValue value);
  std::string_view string_at(ObjAddr addr) const;

  // ---- Collection ----
  // Stop-the-world semispace collection. Roots: the handle table. Weak
  // entries to unreached objects are cleared.
  void collect();

  // Invoked after every collection with (live_bytes, collected_bytes).
  void set_gc_observer(std::function<void(std::uint64_t, std::uint64_t)> fn) {
    gc_observer_ = std::move(fn);
  }

  // A semispace's first buffer, one page: a heap that stays within it (an
  // isolate holding a session or two) zero-fills no more. A heap that
  // outgrows it reserves the whole semispace.
  static constexpr std::uint64_t kFirstChunkBytes = 1ull << 12;

  std::uint64_t used_bytes() const { return top_; }
  std::uint64_t semispace_bytes() const { return semi_bytes_; }
  const HeapStats& stats() const { return stats_; }
  MemoryDomain& domain() { return domain_; }

 private:
  std::vector<std::uint8_t>& from_space() { return a_is_from_ ? a_ : b_; }
  const std::vector<std::uint8_t>& from_space() const {
    return a_is_from_ ? a_ : b_;
  }
  std::vector<std::uint8_t>& to_space() { return a_is_from_ ? b_ : a_; }

  const ObjectHeader* header(ObjAddr addr) const;
  ObjectHeader* header_mut(ObjAddr addr);
  void check_addr(ObjAddr addr) const;

  // Raw (uncharged) slot access used internally and by the collector.
  SlotValue raw_slot(const std::vector<std::uint8_t>& space, ObjAddr addr,
                     std::uint32_t index) const;
  void raw_set_slot(std::vector<std::uint8_t>& space, ObjAddr addr,
                    std::uint32_t index, SlotValue value);

  ObjAddr alloc_raw(ObjectKind kind, std::uint32_t class_id,
                    std::uint32_t count, std::uint32_t payload_bytes);
  void ensure_space(std::vector<std::uint8_t>& space, std::uint64_t needed);
  std::uint32_t next_identity_hash();

  // Copies the object at `addr` (from-space) to to-space if not already
  // forwarded; returns its new address.
  ObjAddr forward(ObjAddr addr, std::uint64_t& to_top);

  static std::uint32_t tag_bytes(std::uint32_t count) {
    return (count + 7u) & ~7u;
  }

  Env& env_;
  MemoryDomain& domain_;
  HandleTable& handles_;
  WeakRefTable& weak_refs_;
  Config config_;
  std::uint64_t semi_bytes_;
  std::uint64_t region_a_;
  std::uint64_t region_b_;

  std::vector<std::uint8_t> a_;
  std::vector<std::uint8_t> b_;
  bool a_is_from_ = true;
  std::uint64_t top_ = 8;  // offset 0 is the null reference
  std::uint32_t hash_counter_ = 0;
  std::uint32_t name_hash_;  // mixed into every identity hash

  HeapStats stats_;
  std::function<void(std::uint64_t, std::uint64_t)> gc_observer_;
};

}  // namespace msv::rt
