#include "runtime/heap.h"

#include <algorithm>
#include <cstring>

#include "support/fnv.h"

namespace msv::rt {

double SlotValue::as_f64() const {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

SlotValue SlotValue::from_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return {SlotTag::kF64, bits};
}

Heap::Heap(Env& env, MemoryDomain& domain, HandleTable& handles,
           WeakRefTable& weak_refs, Config config)
    : env_(env),
      domain_(domain),
      handles_(handles),
      weak_refs_(weak_refs),
      config_(std::move(config)),
      semi_bytes_(config_.max_bytes / 2),
      region_a_(domain.register_region()),
      region_b_(domain.register_region()),
      name_hash_(fnv1a32(config_.name)) {
  MSV_CHECK_MSG(semi_bytes_ >= 4096, "heap too small to be usable");
}

void Heap::check_addr(ObjAddr addr) const {
  MSV_CHECK_MSG(addr != kNullAddr, "null dereference in heap " + config_.name);
  MSV_CHECK_MSG(addr % 8 == 0 && addr + sizeof(ObjectHeader) <= top_,
                "bad object address in heap " + config_.name);
}

const ObjectHeader* Heap::header(ObjAddr addr) const {
  check_addr(addr);
  return reinterpret_cast<const ObjectHeader*>(from_space().data() + addr);
}

ObjectHeader* Heap::header_mut(ObjAddr addr) {
  check_addr(addr);
  return reinterpret_cast<ObjectHeader*>(from_space().data() + addr);
}

void Heap::ensure_space(std::vector<std::uint8_t>& space,
                        std::uint64_t needed) {
  if (space.size() >= needed) return;
  std::uint64_t target = space.empty() ? kFirstChunkBytes : space.size();
  while (target < needed) target *= 2;
  target = std::max(std::min(target, semi_bytes_), needed);
  // Past the first chunk the semispace gets its whole reservation at once,
  // so no buffer is ever outgrown (an outgrown buffer stays resident in the
  // allocator); resize() still zero-fills only up to `target`, so pages the
  // heap never reaches are never written.
  if (target > kFirstChunkBytes) space.reserve(semi_bytes_);
  space.resize(target);
}

std::uint32_t Heap::next_identity_hash() {
  // Java identity hash codes: effectively address/counter based. FNV mixing
  // keeps them well distributed while staying deterministic.
  std::uint32_t h = 0;
  while (h == 0) {
    ++hash_counter_;
    h = name_hash_ ^ static_cast<std::uint32_t>(
                         fnv1a64(&hash_counter_, sizeof(hash_counter_)));
  }
  return h;
}

ObjAddr Heap::alloc_raw(ObjectKind kind, std::uint32_t class_id,
                        std::uint32_t count, std::uint32_t payload_bytes) {
  const std::uint64_t total =
      sizeof(ObjectHeader) + ((payload_bytes + 7ull) & ~7ull);
  if (top_ + total > semi_bytes_) {
    collect();
    if (top_ + total > semi_bytes_) {
      throw OutOfMemoryError("heap " + config_.name + " exhausted: need " +
                             std::to_string(total) + " bytes, " +
                             std::to_string(semi_bytes_ - top_) + " free");
    }
  }
  auto& space = from_space();
  ensure_space(space, top_ + total);

  const ObjAddr addr = top_;
  top_ += total;

  auto* h = reinterpret_cast<ObjectHeader*>(space.data() + addr);
  h->class_id = class_id;
  h->count = count;
  h->kind = kind;
  h->flags = 0;
  h->reserved = 0;
  h->identity_hash = next_identity_hash();
  h->byte_size = static_cast<std::uint32_t>(total);
  h->forward = 0;
  std::memset(space.data() + addr + sizeof(ObjectHeader), 0,
              total - sizeof(ObjectHeader));

  // Cost: bump allocation + zeroing, DRAM/MEE traffic for the written
  // bytes, EPC residency for the touched pages.
  env_.clock.advance(env_.cost.alloc_cycles +
                     static_cast<Cycles>(static_cast<double>(total) *
                                         env_.cost.alloc_cycles_per_byte));
  domain_.charge_traffic(total);
  const std::uint64_t region = a_is_from_ ? region_a_ : region_b_;
  const std::uint64_t first_page = addr / env_.cost.page_bytes;
  const std::uint64_t last_page = (addr + total - 1) / env_.cost.page_bytes;
  domain_.touch_pages(region, first_page, last_page - first_page + 1);

  ++stats_.allocations;
  stats_.allocated_bytes += total;
  return addr;
}

ObjAddr Heap::alloc_instance(std::uint32_t class_id,
                             std::uint32_t field_count) {
  return alloc_raw(ObjectKind::kInstance, class_id, field_count,
                   tag_bytes(field_count) + field_count * 8);
}

ObjAddr Heap::alloc_array(std::uint32_t length) {
  return alloc_raw(ObjectKind::kArray, 0, length, tag_bytes(length) + length * 8);
}

ObjAddr Heap::alloc_string(std::string_view bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const ObjAddr addr = alloc_raw(ObjectKind::kString, 0, len, len);
  std::memcpy(from_space().data() + addr + sizeof(ObjectHeader), bytes.data(),
              bytes.size());
  return addr;
}

ObjectKind Heap::kind(ObjAddr addr) const { return header(addr)->kind; }

std::uint32_t Heap::class_id(ObjAddr addr) const {
  return header(addr)->class_id;
}

std::uint32_t Heap::count(ObjAddr addr) const { return header(addr)->count; }

std::uint32_t Heap::identity_hash(ObjAddr addr) const {
  return header(addr)->identity_hash;
}

std::uint32_t Heap::object_bytes(ObjAddr addr) const {
  return header(addr)->byte_size;
}

SlotValue Heap::raw_slot(const std::vector<std::uint8_t>& space, ObjAddr addr,
                         std::uint32_t index) const {
  const auto* h = reinterpret_cast<const ObjectHeader*>(space.data() + addr);
  MSV_CHECK_MSG(h->kind != ObjectKind::kString, "slot access on a string");
  MSV_CHECK_MSG(index < h->count, "slot index out of range");
  const std::uint8_t* base = space.data() + addr + sizeof(ObjectHeader);
  SlotValue v;
  v.tag = static_cast<SlotTag>(base[index]);
  std::memcpy(&v.bits, base + tag_bytes(h->count) + index * 8, 8);
  return v;
}

void Heap::raw_set_slot(std::vector<std::uint8_t>& space, ObjAddr addr,
                        std::uint32_t index, SlotValue value) {
  auto* h = reinterpret_cast<ObjectHeader*>(space.data() + addr);
  MSV_CHECK_MSG(h->kind != ObjectKind::kString, "slot access on a string");
  MSV_CHECK_MSG(index < h->count, "slot index out of range");
  std::uint8_t* base = space.data() + addr + sizeof(ObjectHeader);
  base[index] = static_cast<std::uint8_t>(value.tag);
  std::memcpy(base + tag_bytes(h->count) + index * 8, &value.bits, 8);
}

SlotValue Heap::slot(ObjAddr addr, std::uint32_t index) const {
  check_addr(addr);
  env_.clock.advance(env_.cost.field_access_cycles);
  return raw_slot(from_space(), addr, index);
}

void Heap::set_slot(ObjAddr addr, std::uint32_t index, SlotValue value) {
  check_addr(addr);
  if (value.tag == SlotTag::kRef && value.bits != kNullAddr) {
    MSV_CHECK_MSG(value.bits % 8 == 0 && value.bits < top_,
                  "storing a foreign reference into heap " + config_.name);
  }
  env_.clock.advance(env_.cost.field_access_cycles);
  raw_set_slot(from_space(), addr, index, value);
}

std::string_view Heap::string_at(ObjAddr addr) const {
  const auto* h = header(addr);
  MSV_CHECK_MSG(h->kind == ObjectKind::kString, "string access on non-string");
  return {reinterpret_cast<const char*>(from_space().data() + addr +
                                        sizeof(ObjectHeader)),
          h->count};
}

ObjAddr Heap::forward(ObjAddr addr, std::uint64_t& to_top) {
  if (addr == kNullAddr) return kNullAddr;
  auto& from = from_space();
  auto* h = reinterpret_cast<ObjectHeader*>(from.data() + addr);
  if (h->forward != 0) return static_cast<ObjAddr>(h->forward - 1);

  auto& to = to_space();
  ensure_space(to, to_top + h->byte_size);
  std::memcpy(to.data() + to_top, from.data() + addr, h->byte_size);
  const ObjAddr new_addr = to_top;
  to_top += h->byte_size;
  h->forward = new_addr + 1;
  reinterpret_cast<ObjectHeader*>(to.data() + new_addr)->forward = 0;
  return new_addr;
}

void Heap::collect() {
  const Cycles start = env_.clock.now();
  // GC spans (DESIGN.md §10): a gc.collect parent with per-phase
  // children. Charges keep the seed's exact order; the spans only bracket
  // them. Under a detached collection (measure_detached) now() is frozen,
  // so these record as zero-duration markers — the realized pause is the
  // server's gc.pause span.
  telemetry::Tracer& tracer = env_.telemetry.tracer();
  telemetry::SpanScope collect_span(tracer, telemetry::Category::kGc,
                                    env_.telemetry.names().gc_collect);
  env_.clock.advance(env_.cost.gc_base_cycles);

  std::uint64_t to_top = 8;
  ensure_space(to_space(), to_top);

  // Roots: every live handle.
  {
    telemetry::SpanScope span(tracer, telemetry::Category::kGc,
                              env_.telemetry.names().gc_roots);
    std::uint64_t root_count = 0;
    handles_.for_each([&](ObjAddr& root) {
      ++root_count;
      if (root != kNullAddr) root = forward(root, to_top);
    });
    env_.clock.advance(root_count * env_.cost.gc_scan_root_cycles);
  }

  // Cheney scan of the copied objects.
  {
    telemetry::SpanScope span(tracer, telemetry::Category::kGc,
                              env_.telemetry.names().gc_copy);
    auto& to = to_space();
    std::uint64_t scan = 8;
    while (scan < to_top) {
      // Copy header fields out: forward() below may grow the to-space
      // vector and invalidate pointers into it.
      const auto* h = reinterpret_cast<const ObjectHeader*>(to.data() + scan);
      const ObjectKind obj_kind = h->kind;
      const std::uint32_t obj_count = h->count;
      const std::uint32_t obj_bytes = h->byte_size;
      if (obj_kind != ObjectKind::kString) {
        for (std::uint32_t i = 0; i < obj_count; ++i) {
          SlotValue v = raw_slot(to, scan, i);
          if (v.tag == SlotTag::kRef && v.bits != kNullAddr) {
            v.bits = forward(v.bits, to_top);
            raw_set_slot(to, scan, i, v);
          }
        }
      }
      scan += obj_bytes;
    }
  }

  // Weak references: forward survivors, clear the rest (§5.5 relies on
  // exactly this "null referent" signal).
  {
    telemetry::SpanScope span(tracer, telemetry::Category::kGc,
                              env_.telemetry.names().gc_weak);
    weak_refs_.for_each([&](WeakEntry& e) {
      const auto* h = reinterpret_cast<const ObjectHeader*>(
          from_space().data() + e.target);
      e.target = h->forward != 0 ? static_cast<ObjAddr>(h->forward - 1)
                                 : kNullAddr;
    });
  }

  const std::uint64_t live_bytes = to_top - 8;
  const std::uint64_t collected = top_ - 8 - live_bytes;

  // Cost: CPU work of the copy plus the memory traffic it causes (read from
  // from-space, write to to-space). Inside an enclave the traffic term pays
  // the MEE factor and the to-space pages are touched in the EPC — this is
  // what Fig. 5a measures.
  env_.clock.advance(static_cast<Cycles>(static_cast<double>(live_bytes) *
                                         env_.cost.gc_copy_cycles_per_byte));
  domain_.charge_traffic(2 * live_bytes);
  const std::uint64_t to_region = a_is_from_ ? region_b_ : region_a_;
  domain_.touch_pages(to_region, 0,
                      (to_top + env_.cost.page_bytes - 1) / env_.cost.page_bytes);

  a_is_from_ = !a_is_from_;
  top_ = to_top;

  ++stats_.gc_count;
  stats_.copied_bytes_total += live_bytes;
  stats_.last_live_bytes = live_bytes;
  stats_.gc_cycles_total += env_.clock.now() - start;

  if (gc_observer_) gc_observer_(live_bytes, collected);
}

}  // namespace msv::rt
