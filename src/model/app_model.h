// The application model: classes, fields, methods — the unit Montsalvat's
// toolchain operates on.
//
// This is the stand-in for compiled Java classes. A method body is either
// bytecode (IrBody), a native C++ function (how the real applications —
// PalDB, GraphChi, the SPECjvm kernels — are bound into the model), or one
// of the two synthetic forms the bytecode transformer produces: a proxy
// stub that transitions into the opposite runtime, or a relay method (a
// @CEntryPoint wrapper) invoked from the opposite runtime (§5.2).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "model/annotations.h"
#include "model/ir.h"
#include "runtime/value.h"

namespace msv::interp {
class ExecContext;
}

namespace msv::model {

// Context passed to native method bodies. `ctx` gives access to cost
// charging, the shim (I/O) and object construction; `isolate` is the
// runtime the method executes in; `self` is null for static methods.
struct NativeCall {
  interp::ExecContext& ctx;
  rt::Isolate& isolate;
  rt::GcRef self;
  std::vector<rt::Value>& args;
};

using NativeFn = std::function<rt::Value(NativeCall&)>;

enum class MethodKind : std::uint8_t {
  kIr,         // bytecode body
  kNative,     // C++ body
  kProxyStub,  // transformed: transition to the relay in the other runtime
  kRelay,      // transformed: @CEntryPoint wrapper around a concrete method
};

// Filled in by the transformer for kProxyStub methods.
struct ProxyStubInfo {
  std::string relay_name;  // bridge function, e.g. "ecall_relay_Account_init"
  bool via_ecall = false;  // true in untrusted image (enters the enclave)
  std::string target_class;
  std::string target_method;
  bool is_constructor = false;
};

// Filled in by the transformer for kRelay methods.
struct RelayInfo {
  std::string target_class;
  std::string target_method;
  bool is_constructor = false;
  // The bridge transition that enters this relay (ProxyStubInfo::relay_name
  // of its proxy stubs, the EDL function's name).
  std::string transition;
};

// The paper names constructors after the class; internally we use the JVM
// convention so the transformer can treat them uniformly.
inline constexpr const char* kConstructorName = "<init>";

struct FieldDecl {
  std::string name;
  bool is_private = true;
};

class MethodDecl {
 public:
  MethodDecl(std::string name, std::uint32_t param_count)
      : name_(std::move(name)), param_count_(param_count) {}

  // ---- Fluent definition API ----
  MethodDecl& body(IrBody ir);
  MethodDecl& body_native(NativeFn fn);
  // Reachability hint for native bodies: "this method may invoke
  // Class.method". The analog of GraalVM's reflection configuration: the
  // points-to analysis cannot see through native code, so the developer
  // declares dynamic targets (§2.2).
  MethodDecl& calls(const std::string& cls, const std::string& method);
  MethodDecl& set_static();
  MethodDecl& set_private();
  // Code-size estimate for native bodies, used for image/TCB accounting.
  MethodDecl& code_size(std::uint64_t bytes);
  // Declares that every parameter and the return value are primitives
  // (null/bool/i32/i64/f64). The analog of a Java signature like
  // `void set(int)`: the transformer copies the flag onto the generated
  // proxy stub and relay, and msvlint checks the claim. The RMI layer
  // picks the fixed-layout wire path per argument and does not read it.
  MethodDecl& primitive_signature(bool v = true);
  // Declares the method safe to reorder within a batched RMI flush
  // (DESIGN.md §13): invoking it carries no ordering dependency on other
  // batched calls — e.g. pure field reads/writes on the receiver. The
  // transformer copies the flag onto the generated stub and relay; the
  // MSV009 lint flags declarations whose bodies make the claim dubious.
  MethodDecl& batch_async(bool v = true);

  // ---- Accessors ----
  const std::string& name() const { return name_; }
  std::uint32_t param_count() const { return param_count_; }
  bool is_static() const { return is_static_; }
  bool is_public() const { return is_public_; }
  bool is_constructor() const { return name_ == kConstructorName; }
  bool has_primitive_signature() const { return primitive_sig_; }
  bool is_batch_async() const { return batch_async_; }
  MethodKind kind() const { return kind_; }
  const IrBody& ir() const { return ir_; }
  const NativeFn& native() const { return native_; }
  const ProxyStubInfo& proxy() const { return proxy_; }
  const RelayInfo& relay() const { return relay_; }
  const std::vector<std::pair<std::string, std::string>>& declared_callees()
      const {
    return declared_callees_;
  }

  // Estimated compiled size, used by the image builder for TCB numbers.
  std::uint64_t code_bytes() const;

  // ---- Transformer interface ----
  void make_proxy_stub(ProxyStubInfo info);
  void set_relay(RelayInfo info);

 private:
  std::string name_;
  std::uint32_t param_count_;
  bool is_static_ = false;
  bool is_public_ = true;
  bool primitive_sig_ = false;
  bool batch_async_ = false;
  MethodKind kind_ = MethodKind::kIr;
  IrBody ir_;
  NativeFn native_;
  std::uint64_t native_code_bytes_ = 256;
  std::vector<std::pair<std::string, std::string>> declared_callees_;
  ProxyStubInfo proxy_;
  RelayInfo relay_;
};

class ClassDecl {
 public:
  ClassDecl(std::string name, Annotation annotation)
      : name_(std::move(name)), annotation_(annotation) {}

  const std::string& name() const { return name_; }
  Annotation annotation() const { return annotation_; }
  bool is_proxy() const { return is_proxy_; }
  void mark_proxy() { is_proxy_ = true; }
  // Optimizer interface (xform::apply_partition_plan): re-partitioning
  // rewrites the annotation before the model is transformed and woven.
  void set_annotation(Annotation a) { annotation_ = a; }

  FieldDecl& add_field(const std::string& name, bool is_private = true);
  MethodDecl& add_constructor(std::uint32_t param_count);
  MethodDecl& add_method(const std::string& name, std::uint32_t param_count);
  MethodDecl& add_static_method(const std::string& name,
                                std::uint32_t param_count);

  const std::vector<FieldDecl>& fields() const { return fields_; }
  std::vector<FieldDecl>& fields() { return fields_; }
  // Index of a field by name, -1 if absent.
  std::int32_t field_index(const std::string& name) const;

  const std::deque<MethodDecl>& methods() const { return methods_; }
  std::deque<MethodDecl>& methods() { return methods_; }
  const MethodDecl* find_method(const std::string& name) const;
  MethodDecl* find_method(const std::string& name);

 private:
  std::string name_;
  Annotation annotation_;
  bool is_proxy_ = false;
  std::vector<FieldDecl> fields_;
  std::deque<MethodDecl> methods_;  // deque: references stay valid
};

// A set of classes forming one application (or one transformed image
// input). Copyable: the transformer clones the model to build the trusted
// and untrusted variants.
class AppModel {
 public:
  ClassDecl& add_class(const std::string& name,
                       Annotation annotation = Annotation::kNeutral);

  const ClassDecl* find_class(const std::string& name) const;
  ClassDecl* find_class(const std::string& name);
  // Like find_class but throws ConfigError when absent.
  const ClassDecl& cls(const std::string& name) const;
  ClassDecl& cls(const std::string& name);

  const std::deque<ClassDecl>& classes() const { return classes_; }
  std::deque<ClassDecl>& classes() { return classes_; }

  // The class whose static `main` is the program entry point.
  void set_main_class(const std::string& name) { main_class_ = name; }
  const std::string& main_class() const { return main_class_; }

  // Checks the model's well-formedness and the paper's programming-model
  // assumptions; throws ConfigError on violation:
  //  * unique class names; unique method names per class (no overloading);
  //  * @Trusted/@Untrusted classes are properly encapsulated — all fields
  //    private (§5.1 "Assumptions");
  //  * the main class exists, has a static public `main`, and is not
  //    @Trusted (SGX applications begin in the untrusted runtime, §5.3).
  void validate() const;

 private:
  std::deque<ClassDecl> classes_;
  std::string main_class_;
};

}  // namespace msv::model
