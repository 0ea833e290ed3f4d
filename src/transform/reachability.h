// Closed-world reachability analysis (§5.3).
//
// GraalVM native-image runs a points-to analysis from the entry points and
// compiles only reachable program elements. We implement the variant that
// matters for partitioning: a rapid-type-analysis-style fixpoint over the
// model's call edges.
//
//   * kNew edges are precise (the class name is in the instruction).
//   * kCall edges are resolved against every *instantiated* class declaring
//     the method (dynamic dispatch without receiver types — RTA).
//   * Native bodies are opaque; their declared_callees() hints play the
//     role of GraalVM's reflection configuration (§2.2).
//   * Relay methods reach their target concrete method; proxy stubs have
//     no same-image callees (their target lives in the other image).
//
// Entry points follow the paper: for the trusted image, every relay method
// of a trusted class; for the untrusted image, main plus the relay methods
// of untrusted classes.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "model/app_model.h"

namespace msv::xform {

// A method identified as "Class.method".
using MethodRef = std::pair<std::string, std::string>;

// One syntactic call edge leaving a method body. This is the unit shared
// between the RTA fixpoint below and the partition lints
// (analysis/lint.cc): both walk the same edges, so a method the analysis
// reaches is exactly a method the linter attributes to a partition.
struct CallSite {
  enum class Kind : std::uint8_t {
    kNew,       // kNew instruction: precise class, implies <init>
    kVirtual,   // kCall instruction: method name only, RTA-resolved
    kDeclared,  // declared_callees() hint on a native body
    kRelay,     // relay method -> its concrete target
  };
  Kind kind;
  std::string cls;     // target class; empty for kVirtual
  std::string method;  // target method; empty for kNew (constructor implied)
  std::int32_t pc = -1;  // instruction index for kNew/kVirtual, else -1
};

// The call sites of one method body. Total: never throws, even on dangling
// declared callees (callers validate targets themselves).
std::vector<CallSite> direct_call_sites(const model::MethodDecl& method);

// Marks by position in the analysed model: class c of classes(), and
// method m of that class's methods() at flat index method_base[c] + m.
// The by-name queries resolve through `app`, which must outlive the
// result.
struct ReachabilityResult {
  const model::AppModel* app = nullptr;
  std::vector<bool> classes;
  std::vector<bool> instantiated;
  std::vector<std::size_t> method_base;  // classes.size() + 1 offsets
  std::vector<bool> methods;

  bool class_reachable(std::size_t c) const { return classes[c]; }
  bool method_reachable(std::size_t c, std::size_t m) const {
    return methods[method_base[c] + m];
  }

  bool class_reachable(const std::string& cls) const;
  bool class_instantiated(const std::string& cls) const;
  bool method_reachable(const std::string& cls,
                        const std::string& method) const;
};

class ReachabilityAnalysis {
 public:
  explicit ReachabilityAnalysis(const model::AppModel& app) : app_(app) {}

  ReachabilityResult analyze(const std::vector<MethodRef>& entry_points) const;

 private:
  const model::AppModel& app_;
};

// The entry points of an image per §5.3.
std::vector<MethodRef> trusted_image_entry_points(const model::AppModel& set);
std::vector<MethodRef> untrusted_image_entry_points(const model::AppModel& set);

}  // namespace msv::xform
