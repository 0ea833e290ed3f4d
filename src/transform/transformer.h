// The bytecode transformer (§5.2) — the Javassist weaver of the paper.
//
// Input: an annotated application model. Output: the two class sets used
// for image generation (§5.3):
//   * trusted set  (T ∪ N): concrete @Trusted classes extended with relay
//     methods, proxy versions of @Untrusted classes, neutral classes;
//   * untrusted set (U ∪ N): concrete @Untrusted classes extended with
//     relay methods, proxy versions of @Trusted classes, neutral classes;
// plus the EDL fragment describing every generated ecall/ocall transition.
//
// Proxy classes are produced by *stripping*: fields are removed and
// replaced by a single `hash` field, public method bodies are replaced by
// native transition stubs to the corresponding relay method, and private
// methods are dropped (they are unreachable from the other runtime).
// Relay methods are static @CEntryPoint-style wrappers added to concrete
// classes; their restrictions (static, primitive/pointer parameters only)
// are what forces the hash+serialized-buffer calling convention.
#pragma once

#include <string>

#include "model/app_model.h"
#include "sgx/edl.h"

namespace msv::analysis {
struct PartitionPlan;
}

namespace msv::xform {

struct TransformResult {
  model::AppModel trusted;    // input set for the trusted image
  model::AppModel untrusted;  // input set for the untrusted image
  sgx::EdlSpec edl;           // relay transitions (ecalls + ocalls)
};

// Name of the relay method added to a concrete class for `method`.
std::string relay_method_name(const std::string& method);

// Name of the bridge transition invoked by a proxy stub for
// `cls.method`: "ecall_relay_<cls>_<method>" when the concrete class is
// trusted, "ocall_relay_<cls>_<method>" otherwise.
std::string transition_name(const std::string& cls, const std::string& method,
                            bool concrete_is_trusted);

// Applies a partition plan (analysis/optimize.h) to an annotated model:
// every placed class's annotation is rewritten to the plan's `after` side
// and the model is re-validated, so the transformer weaves the
// re-partitioned images. Classes absent from the plan (neutral classes)
// keep their annotation. Throws ConfigError when the plan names an
// unknown or neutral class.
model::AppModel apply_partition_plan(const model::AppModel& app,
                                     const analysis::PartitionPlan& plan);

class BytecodeTransformer {
 public:
  // Validates `app` and produces the two transformed class sets. Only
  // annotated classes are modified; neutral classes are copied verbatim
  // into both sets. Unpartitioned builds (§5.6) skip this entirely.
  TransformResult transform(const model::AppModel& app) const;

 private:
  // Appends `concrete` plus a relay method per public method to its own
  // set, a stripped proxy version to the other set, and the transitions
  // between them to the EDL.
  void weave(TransformResult& result, const model::ClassDecl& concrete,
             bool concrete_is_trusted) const;
};

}  // namespace msv::xform
