#include "runtime/value.h"

#include "runtime/isolate.h"
#include "support/error.h"

namespace msv::rt {

GcRef::GcRef(Isolate& isolate, ObjAddr addr) {
  MSV_CHECK_MSG(addr != kNullAddr, "GcRef to null; use a default GcRef");
  handle_ = isolate.handles().create(addr);
  isolate_ = &isolate;
}

GcRef::GcRef(const GcRef& other)
    : isolate_(other.isolate_), handle_(other.handle_) {
  if (isolate_ != nullptr) isolate_->handles().retain(handle_);
}

GcRef::GcRef(GcRef&& other) noexcept
    : isolate_(other.isolate_), handle_(other.handle_) {
  other.isolate_ = nullptr;
}

GcRef& GcRef::operator=(const GcRef& other) {
  // The copy retains before the move releases, so self-assignment (or a
  // ref sharing this slot) never frees it in between.
  return *this = GcRef(other);
}

GcRef& GcRef::operator=(GcRef&& other) noexcept {
  if (this != &other) {
    reset();
    isolate_ = other.isolate_;
    handle_ = other.handle_;
    other.isolate_ = nullptr;
  }
  return *this;
}

void GcRef::reset() noexcept {
  if (isolate_ == nullptr) return;
  isolate_->handles().release(handle_);
  isolate_ = nullptr;
}

ObjAddr GcRef::address() const {
  if (isolate_ == nullptr) return kNullAddr;
  return isolate_->handles().get(handle_);
}

bool GcRef::same_object(const GcRef& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  return isolate_ == other.isolate_ && address() == other.address();
}

ValueType Value::type() const {
  switch (v_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kI32;
    case 3:
      return ValueType::kI64;
    case 4:
      return ValueType::kF64;
    case 5:
      return ValueType::kString;
    case 6:
      return ValueType::kRef;
    default:
      return ValueType::kList;
  }
}

const char* Value::type_name() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kI32:
      return "i32";
    case ValueType::kI64:
      return "i64";
    case ValueType::kF64:
      return "f64";
    case ValueType::kString:
      return "string";
    case ValueType::kRef:
      return "ref";
    case ValueType::kList:
      return "list";
  }
  return "?";
}

void Value::require(ValueType t) const {
  if (type() != t) {
    throw RuntimeFault(std::string("value type mismatch: have ") +
                       type_name());
  }
}

bool Value::as_bool() const {
  require(ValueType::kBool);
  return std::get<bool>(v_);
}

std::int32_t Value::as_i32() const {
  require(ValueType::kI32);
  return std::get<std::int32_t>(v_);
}

std::int64_t Value::as_i64() const {
  if (type() == ValueType::kI32) return std::get<std::int32_t>(v_);
  require(ValueType::kI64);
  return std::get<std::int64_t>(v_);
}

double Value::as_f64() const {
  switch (type()) {
    case ValueType::kI32:
      return std::get<std::int32_t>(v_);
    case ValueType::kI64:
      return static_cast<double>(std::get<std::int64_t>(v_));
    case ValueType::kF64:
      return std::get<double>(v_);
    default:
      require(ValueType::kF64);
      return 0;
  }
}

const std::string& Value::as_string() const {
  require(ValueType::kString);
  return std::get<std::string>(v_);
}

const GcRef& Value::as_ref() const {
  require(ValueType::kRef);
  return std::get<GcRef>(v_);
}

const ValueList& Value::as_list() const {
  require(ValueType::kList);
  return *std::get<std::shared_ptr<ValueList>>(v_);
}

std::shared_ptr<ValueList> Value::list_ptr() const {
  require(ValueType::kList);
  return std::get<std::shared_ptr<ValueList>>(v_);
}

// Deep neutral-object graphs are legal RMI arguments (a 100k-deep nested
// list must round-trip), so every graph walk below — including the
// destructor — uses an explicit work-list instead of native-stack
// recursion.

Value::~Value() {
  auto* own = std::get_if<std::shared_ptr<ValueList>>(&v_);
  if (own == nullptr || *own == nullptr || own->use_count() != 1) return;
  // Uniquely-owned list: without help, the shared_ptr teardown would
  // recurse element-by-element down the chain. Steal sublists that are
  // about to become uniquely owned and drain them iteratively; elements
  // are destroyed one at a time (back to front) so a sublist shared
  // between siblings is seen as unique by the *last* sibling to die and
  // still lands on the work-list instead of unwinding recursively.
  std::vector<std::shared_ptr<ValueList>> pending;
  pending.push_back(std::move(*own));
  while (!pending.empty()) {
    std::shared_ptr<ValueList> list = std::move(pending.back());
    pending.pop_back();
    while (!list->empty()) {
      auto* sub = std::get_if<std::shared_ptr<ValueList>>(&list->back().v_);
      if (sub != nullptr && *sub != nullptr && sub->use_count() == 1) {
        pending.push_back(std::move(*sub));
      }
      list->pop_back();  // shallow: the element's sublist was stolen
    }
  }
}

std::uint64_t Value::payload_bytes() const {
  // The footprint is an order-independent sum, so a plain pointer
  // work-list replaces the recursion.
  std::uint64_t total = 0;
  std::vector<const Value*> work{this};
  while (!work.empty()) {
    const Value* v = work.back();
    work.pop_back();
    switch (v->type()) {
      case ValueType::kNull:
      case ValueType::kBool:
        total += 1;
        break;
      case ValueType::kI32:
        total += 4;
        break;
      case ValueType::kI64:
      case ValueType::kF64:
        total += 8;
        break;
      case ValueType::kString:
        total += 4 + v->as_string().size();
        break;
      case ValueType::kRef:
        total += 8;  // the proxy hash travels instead of the object
        break;
      case ValueType::kList:
        total += 4;
        for (const auto& e : v->as_list()) work.push_back(&e);
        break;
    }
  }
  return total;
}

namespace {

std::string scalar_debug_string(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return v.as_bool() ? "true" : "false";
    case ValueType::kI32:
      return std::to_string(v.as_i32());
    case ValueType::kI64:
      return std::to_string(v.as_i64()) + "L";
    case ValueType::kF64:
      return std::to_string(v.as_f64());
    case ValueType::kString:
      return "\"" + v.as_string() + "\"";
    case ValueType::kRef:
      return v.as_ref().is_null()
                 ? "ref(null)"
                 : "ref@" + std::to_string(v.as_ref().address());
    case ValueType::kList:
      break;
  }
  return "?";
}

}  // namespace

std::string Value::to_debug_string() const {
  if (type() != ValueType::kList) return scalar_debug_string(*this);
  // Depth-first with an explicit frame stack; emits exactly the bytes
  // the recursive formatter did ("[e0, e1, ...]", nested in place).
  struct Frame {
    const ValueList* list;
    std::size_t next = 0;
  };
  std::string out = "[";
  std::vector<Frame> stack{{&as_list(), 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next == f.list->size()) {
      out += "]";
      stack.pop_back();
      continue;
    }
    if (f.next > 0) out += ", ";
    const Value& e = (*f.list)[f.next++];
    if (e.type() == ValueType::kList) {
      out += "[";
      stack.push_back({&e.as_list(), 0});
    } else {
      out += scalar_debug_string(e);
    }
  }
  return out;
}

}  // namespace msv::rt
