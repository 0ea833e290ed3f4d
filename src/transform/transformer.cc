#include "transform/transformer.h"

#include "analysis/optimize.h"
#include "support/error.h"

namespace msv::xform {

using model::Annotation;
using model::ClassDecl;
using model::MethodDecl;

namespace {

// "<init>" is not a valid C identifier fragment; transitions use "init".
std::string sanitize(const std::string& method) {
  return method == model::kConstructorName ? "init" : method;
}

// Appends a verbatim copy of `cls` (fields and methods) to `out`.
ClassDecl& copy_class(model::AppModel& out, const ClassDecl& cls) {
  ClassDecl& copy = out.add_class(cls.name(), cls.annotation());
  for (const auto& f : cls.fields()) copy.add_field(f.name, f.is_private);
  for (const auto& m : cls.methods()) copy.methods().push_back(m);
  return copy;
}

}  // namespace

std::string relay_method_name(const std::string& method) {
  return "relay$" + sanitize(method);
}

std::string transition_name(const std::string& cls, const std::string& method,
                            bool concrete_is_trusted) {
  return std::string(concrete_is_trusted ? "ecall" : "ocall") + "_relay_" +
         cls + "_" + sanitize(method);
}

void BytecodeTransformer::weave(TransformResult& result,
                                const ClassDecl& concrete,
                                bool concrete_is_trusted) const {
  ClassDecl& copy = copy_class(
      concrete_is_trusted ? result.trusted : result.untrusted, concrete);
  // Stripping: all fields vanish; a single hash field identifies the proxy
  // and its mirror across the boundary (§5.2).
  ClassDecl& proxy =
      (concrete_is_trusted ? result.untrusted : result.trusted)
          .add_class(concrete.name(), concrete.annotation());
  proxy.mark_proxy();
  proxy.add_field("hash");
  const auto add_transition = [&](std::string name,
                                  std::vector<sgx::EdlParam> params) {
    sgx::EdlFunction fn{std::move(name), "void", std::move(params)};
    if (concrete_is_trusted) {
      result.edl.add_ecall(std::move(fn));
    } else {
      result.edl.add_ocall(std::move(fn));
    }
  };

  // One transition per public method, including constructors (Listing 4):
  // a relay method, a static entry-point wrapper, on the concrete class; a
  // native stub to it on the proxy (public method bodies replaced, private
  // methods stripped entirely); and its EDL function. Its name is built
  // once and shared by all three.
  for (const auto& m : concrete.methods()) {
    if (!m.is_public()) continue;
    std::string transition =
        transition_name(concrete.name(), m.name(), concrete_is_trusted);
    if (m.kind() != model::MethodKind::kRelay) {
      MethodDecl& relay = copy.add_static_method(relay_method_name(m.name()),
                                                 m.param_count());
      relay.primitive_signature(m.has_primitive_signature());
      relay.batch_async(m.is_batch_async());
      relay.set_relay(model::RelayInfo{concrete.name(), m.name(),
                                       m.is_constructor(), transition});
    }
    MethodDecl& stub = proxy.add_method(m.name(), m.param_count());
    if (m.is_static()) stub.set_static();
    stub.primitive_signature(m.has_primitive_signature());
    stub.batch_async(m.is_batch_async());
    stub.make_proxy_stub(model::ProxyStubInfo{
        transition, /*via_ecall=*/concrete_is_trusted, concrete.name(),
        m.name(), m.is_constructor()});
    // The relay calling convention (§5.2): the callee isolate, the caller
    // proxy's hash, and a serialized buffer holding neutral parameters and
    // the hashes standing in for proxy/mirror parameters.
    add_transition(std::move(transition),
                   {
                       {"uint64_t", "isolate", sgx::EdlDirection::kIn, ""},
                       {"int64_t", "hash", sgx::EdlDirection::kIn, ""},
                       {"const uint8_t*", "buf", sgx::EdlDirection::kIn, "len"},
                       {"size_t", "len", sgx::EdlDirection::kIn, ""},
                       {"uint8_t*", "ret", sgx::EdlDirection::kOut, "ret_len"},
                       {"size_t", "ret_len", sgx::EdlDirection::kIn, ""},
                   });
  }
  // A class without a declared constructor still needs a construction
  // transition: its proxies must be able to create mirrors (default ctor).
  if (concrete.find_method(model::kConstructorName) == nullptr) {
    std::string transition = transition_name(
        concrete.name(), model::kConstructorName, concrete_is_trusted);
    MethodDecl& relay = copy.add_static_method(
        relay_method_name(model::kConstructorName), 0);
    relay.set_relay(model::RelayInfo{concrete.name(), model::kConstructorName,
                                     true, transition});
    MethodDecl& stub = proxy.add_method(model::kConstructorName, 0);
    stub.make_proxy_stub(model::ProxyStubInfo{
        transition, /*via_ecall=*/concrete_is_trusted, concrete.name(),
        model::kConstructorName, true});
    add_transition(std::move(transition),
                   {{"uint64_t", "isolate", sgx::EdlDirection::kIn, ""},
                    {"int64_t", "hash", sgx::EdlDirection::kIn, ""}});
  }
}

TransformResult BytecodeTransformer::transform(
    const model::AppModel& app) const {
  app.validate();
  TransformResult result;
  result.edl.enclave_name = "montsalvat_enclave";
  result.trusted.set_main_class("");  // main lives in the untrusted image
  result.untrusted.set_main_class(app.main_class());

  for (const auto& c : app.classes()) {
    MSV_CHECK_MSG(!c.is_proxy(), "transform() re-applied to transformed code");
    switch (c.annotation()) {
      case Annotation::kNeutral:
        // Unchanged, present in both worlds; instances may evolve
        // independently (§5.1). Neutral classes need no relays — they are
        // serialized across the boundary, never remotely invoked.
        copy_class(result.trusted, c);
        copy_class(result.untrusted, c);
        break;
      case Annotation::kTrusted:
        weave(result, c, /*concrete_is_trusted=*/true);
        break;
      case Annotation::kUntrusted:
        weave(result, c, /*concrete_is_trusted=*/false);
        break;
    }
  }
  return result;
}

model::AppModel apply_partition_plan(const model::AppModel& app,
                                     const analysis::PartitionPlan& plan) {
  model::AppModel out = app;
  for (const auto& p : plan.placements) {
    model::ClassDecl* cls = out.find_class(p.cls);
    if (cls == nullptr) {
      throw ConfigError("partition plan names unknown class " + p.cls);
    }
    if (cls->annotation() == model::Annotation::kNeutral) {
      throw ConfigError("partition plan places neutral class " + p.cls +
                        " (the optimizer only moves annotated classes)");
    }
    cls->set_annotation(p.after);
  }
  // The plan must still satisfy the programming model (encapsulated
  // annotated classes, untrusted main, ...).
  out.validate();
  return out;
}

}  // namespace msv::xform
