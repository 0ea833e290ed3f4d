// Dynamic values used by the interpreter, the RMI layer and native-bound
// methods.
//
// Primitive values and *neutral* values (strings, lists — §5.1's neutral
// classes) live as plain C++ data and may be freely copied between the
// trusted and untrusted runtimes. Instances of annotated classes live on a
// managed heap and are held through GcRef, a root-protected reference that
// survives moving collections and never crosses an isolate boundary (that
// is what proxies are for).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "runtime/handles.h"

namespace msv::rt {

class Isolate;

// A rooted reference to a heap object of one isolate. Copies share the
// same root slot through its reference count in the handle table; the slot
// is released when the last copy dies. A moved-from ref is null.
class GcRef {
 public:
  GcRef() = default;  // null reference

  // Roots `addr` in `isolate`'s handle table.
  GcRef(Isolate& isolate, ObjAddr addr);

  GcRef(const GcRef& other);
  GcRef(GcRef&& other) noexcept;
  GcRef& operator=(const GcRef& other);
  GcRef& operator=(GcRef&& other) noexcept;
  ~GcRef() { reset(); }

  bool is_null() const { return isolate_ == nullptr; }
  explicit operator bool() const { return !is_null(); }

  // The object's current address (valid until the next allocation/GC).
  ObjAddr address() const;
  Isolate* isolate() const { return isolate_; }

  bool same_object(const GcRef& other) const;

 private:
  // Drops this ref's reference to its slot and makes it null.
  void reset() noexcept;

  Isolate* isolate_ = nullptr;
  std::uint32_t handle_ = 0;
};

enum class ValueType : std::uint8_t {
  kNull,
  kBool,
  kI32,
  kI64,
  kF64,
  kString,
  kRef,
  kList
};

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(bool b) : v_(b) {}
  Value(std::int32_t i) : v_(i) {}
  Value(std::int64_t i) : v_(i) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(GcRef r) : v_(std::move(r)) {}
  Value(ValueList l) : v_(std::make_shared<ValueList>(std::move(l))) {}
  Value(std::shared_ptr<ValueList> l) : v_(std::move(l)) {}

  // Deep neutral-object graphs (a 100k-deep nested list is one RMI
  // argument) must not unwind the native stack recursively: the custom
  // destructor drains uniquely-owned list chains with an explicit
  // work-list. Declaring it suppresses the implicit copy/move members,
  // so they are defaulted back explicitly — all four are memberwise.
  ~Value();
  Value(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(const Value&) = default;
  Value& operator=(Value&&) = default;

  ValueType type() const;
  const char* type_name() const;

  bool is_null() const { return type() == ValueType::kNull; }
  bool as_bool() const;
  std::int32_t as_i32() const;
  std::int64_t as_i64() const;
  // Accepts i32/i64/f64 and widens.
  double as_f64() const;
  const std::string& as_string() const;
  const GcRef& as_ref() const;
  const ValueList& as_list() const;
  std::shared_ptr<ValueList> list_ptr() const;

  // Rough serialized footprint, used for cost accounting.
  std::uint64_t payload_bytes() const;

  std::string to_debug_string() const;

 private:
  void require(ValueType t) const;

  std::variant<std::monostate, bool, std::int32_t, std::int64_t, double,
               std::string, GcRef, std::shared_ptr<ValueList>>
      v_;
};

}  // namespace msv::rt
