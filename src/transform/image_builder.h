// The native image generator (§5.3).
//
// Takes a transformed class set, runs the reachability analysis from the
// image's entry points, prunes unreachable classes and methods (this is
// what removes unneeded proxies), and produces a NativeImage artifact: the
// pruned code, size accounting used for TCB reporting, and — because the
// Montsalvat image generator bypasses the final linking step — a
// relocatable object file name (trusted.o / untrusted.o) plus a canonical
// byte serialization over which the SGX module computes the enclave
// measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/app_model.h"
#include "support/bytes.h"
#include "transform/reachability.h"

namespace msv::xform {

struct ImageBuildConfig {
  // Size of the embedded runtime components (GC, thread support, stack
  // walking, exception handling — §2.2). GraalVM helloworld images are a
  // few MB; this is the part that is always in the TCB.
  std::uint64_t runtime_code_bytes = 3ull << 20;
  std::uint64_t image_heap_base_bytes = 1ull << 20;
  std::uint64_t image_heap_per_class_bytes = 2048;
  // Native image max heap at run time (the paper builds with -Xmx2G).
  std::uint64_t max_heap_bytes = 2ull << 30;
};

struct NativeImage {
  std::string name;            // "trusted" or "untrusted"
  std::string object_file;     // "trusted.o" / "untrusted.o"
  bool is_trusted = false;
  model::AppModel classes;     // pruned, reachable program elements only
  std::vector<MethodRef> entry_points;
  std::uint64_t code_bytes = 0;        // compiled application methods
  std::uint64_t runtime_code_bytes = 0;
  std::uint64_t image_heap_bytes = 0;
  std::uint64_t max_heap_bytes = 0;

  std::uint64_t total_bytes() const {
    return code_bytes + runtime_code_bytes + image_heap_bytes;
  }

  // Canonical serialization (what gets EADDed page by page); stable across
  // runs so measurements are reproducible.
  ByteBuffer serialize() const;

  // Statistics useful for the TCB discussion in the paper.
  std::size_t class_count() const { return classes.classes().size(); }
  std::size_t method_count() const;
  std::size_t pruned_proxy_count = 0;  // proxies dropped by reachability
};

class ImageBuilder {
 public:
  explicit ImageBuilder(ImageBuildConfig config = {}) : config_(config) {}

  // Builds the trusted or untrusted image from its transformed class set,
  // copying the classes, fields and methods it keeps.
  // `entry_override`, when non-empty, replaces the §5.3 entry-point rule —
  // used for unpartitioned builds (§5.6), where the whole application goes
  // into one image rooted at main.
  NativeImage build(const model::AppModel& input, bool is_trusted,
                    std::vector<MethodRef> entry_override = {}) const;
  // The same image, moving the fields and methods it keeps out of `input`
  // instead of copying them; `input` is left valid but unspecified.
  NativeImage build(model::AppModel&& input, bool is_trusted,
                    std::vector<MethodRef> entry_override = {}) const;

 private:
  ImageBuildConfig config_;
};

}  // namespace msv::xform
