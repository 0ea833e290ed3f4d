#include "runtime/isolate.h"

#include "support/error.h"

namespace msv::rt {

Isolate::Isolate(Env& env, MemoryDomain& domain, Config config)
    : env_(env), domain_(domain), config_(std::move(config)) {
  heap_ = std::make_unique<Heap>(
      env_, domain_, handles_, weak_refs_,
      Heap::Config{config_.heap_max_bytes, config_.name});
  // The image heap is memory-mapped into the application heap at startup
  // (§2.2): charge the mapping plus first-touch of its pages.
  if (config_.image_heap_bytes > 0) {
    env_.clock.advance(env_.cost.mmap_base_cycles);
    const std::uint64_t region = domain_.register_region();
    const std::uint64_t pages =
        (config_.image_heap_bytes + env_.cost.page_bytes - 1) /
        env_.cost.page_bytes;
    domain_.touch_pages(region, 0, pages);
  }
}

// A 100k-deep nested list is a legal neutral value (checkpoints and RMI
// arguments both carry them), so to_slot/from_slot walk the graph with
// explicit frame stacks — allocation order, rooting discipline and
// therefore every simulated charge and GC trigger point are identical to
// the old recursive walk; only the native-stack usage changed.

SlotValue Isolate::to_slot(const Value& v) {
  if (v.type() != ValueType::kList) return to_slot_scalar(v);
  // One frame per open list. Elements convert in order: strings allocate
  // immediately, sublists complete (post-order) before the parent's
  // array is allocated. Each conversion may allocate and collect, so
  // addresses are only taken while no further allocation happens —
  // element objects stay alive through the `rooted` Values (GcRef roots
  // / C++ copies), exactly the old two-pass discipline.
  struct Frame {
    const ValueList* input;
    std::vector<Value> rooted;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({&v.as_list(), {}, 0});
  stack.back().rooted.reserve(v.as_list().size());
  while (true) {
    Frame& f = stack.back();
    if (f.next < f.input->size()) {
      const Value& e = (*f.input)[f.next];
      ++f.next;
      if (e.type() == ValueType::kString) {
        f.rooted.emplace_back(make_ref(heap_->alloc_string(e.as_string())));
      } else if (e.type() == ValueType::kList) {
        stack.push_back({&e.as_list(), {}, 0});
        stack.back().rooted.reserve(e.as_list().size());
      } else {
        f.rooted.push_back(e);
      }
      continue;
    }
    // Every element rooted: allocate the array and fill it (the fill
    // converts only primitives and refs — nothing allocates here).
    const ObjAddr arr =
        heap_->alloc_array(static_cast<std::uint32_t>(f.input->size()));
    const GcRef arr_ref = make_ref(arr);
    for (std::uint32_t i = 0; i < f.rooted.size(); ++i) {
      heap_->set_slot(arr_ref.address(), i, to_slot_scalar(f.rooted[i]));
    }
    stack.pop_back();
    if (stack.empty()) return SlotValue::from_ref(arr_ref.address());
    stack.back().rooted.emplace_back(make_ref(arr_ref.address()));
  }
}

SlotValue Isolate::to_slot_scalar(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return SlotValue::null();
    case ValueType::kBool:
      return SlotValue::from_bool(v.as_bool());
    case ValueType::kI32:
      return SlotValue::from_i32(v.as_i32());
    case ValueType::kI64:
      return SlotValue::from_i64(v.as_i64());
    case ValueType::kF64:
      return SlotValue::from_f64(v.as_f64());
    case ValueType::kString:
      return SlotValue::from_ref(heap_->alloc_string(v.as_string()));
    case ValueType::kRef: {
      const GcRef& r = v.as_ref();
      if (r.is_null()) return SlotValue::null();
      if (r.isolate() != this) {
        throw SecurityFault(
            "cross-isolate reference stored into heap of " + name() +
            " — annotated objects must cross the boundary via proxies");
      }
      return SlotValue::from_ref(r.address());
    }
    case ValueType::kList:
      MSV_CHECK_MSG(false, "to_slot_scalar on a list");
  }
  return SlotValue::null();
}

Value Isolate::from_slot(SlotValue s) {
  const bool is_array = s.tag == SlotTag::kRef && s.as_ref() != kNullAddr &&
                        heap_->kind(s.as_ref()) == ObjectKind::kArray;
  if (!is_array) return from_slot_scalar(s);
  // Materialize a neutral copy, one frame per open array. Arrays are
  // rooted for their whole frame lifetime: from_slot of elements cannot
  // allocate (only strings/arrays do, and those are read, not written),
  // but rooting is cheap and keeps this safe if that ever changes.
  struct Frame {
    GcRef arr;
    ValueList out;
    std::uint32_t n;
    std::uint32_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({make_ref(s.as_ref()), {}, heap_->count(s.as_ref()), 0});
  stack.back().out.reserve(stack.back().n);
  while (true) {
    Frame& f = stack.back();
    if (f.next < f.n) {
      const SlotValue sv = heap_->slot(f.arr.address(), f.next);
      ++f.next;
      const bool sub_array = sv.tag == SlotTag::kRef &&
                             sv.as_ref() != kNullAddr &&
                             heap_->kind(sv.as_ref()) == ObjectKind::kArray;
      if (sub_array) {
        stack.push_back(
            {make_ref(sv.as_ref()), {}, heap_->count(sv.as_ref()), 0});
        stack.back().out.reserve(stack.back().n);
      } else {
        f.out.push_back(from_slot_scalar(sv));
      }
      continue;
    }
    Value done(std::move(f.out));
    stack.pop_back();
    if (stack.empty()) return done;
    stack.back().out.push_back(std::move(done));
  }
}

Value Isolate::from_slot_scalar(SlotValue s) {
  switch (s.tag) {
    case SlotTag::kNull:
      return Value();
    case SlotTag::kBool:
      return Value(s.as_bool());
    case SlotTag::kI32:
      return Value(s.as_i32());
    case SlotTag::kI64:
      return Value(s.as_i64());
    case SlotTag::kF64:
      return Value(s.as_f64());
    case SlotTag::kRef: {
      const ObjAddr addr = s.as_ref();
      if (addr == kNullAddr) return Value();
      switch (heap_->kind(addr)) {
        case ObjectKind::kString:
          return Value(std::string(heap_->string_at(addr)));
        case ObjectKind::kArray:
          MSV_CHECK_MSG(false, "from_slot_scalar on an array");
          return Value();
        case ObjectKind::kInstance:
          return Value(make_ref(addr));
      }
      return Value();
    }
  }
  return Value();
}

GcRef Isolate::new_instance(std::uint32_t class_id,
                            std::uint32_t field_count) {
  return make_ref(heap_->alloc_instance(class_id, field_count));
}

Value Isolate::get_field(const GcRef& obj, std::uint32_t index) {
  MSV_CHECK_MSG(obj.isolate() == this, "field access on a foreign object");
  return from_slot(heap_->slot(obj.address(), index));
}

void Isolate::set_field(const GcRef& obj, std::uint32_t index,
                        const Value& v) {
  MSV_CHECK_MSG(obj.isolate() == this, "field access on a foreign object");
  const SlotValue s = to_slot(v);  // may allocate and move `obj`
  heap_->set_slot(obj.address(), index, s);
}

}  // namespace msv::rt
