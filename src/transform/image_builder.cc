#include "transform/image_builder.h"

#include <type_traits>
#include <utility>

#include "support/error.h"

namespace msv::xform {

using model::ClassDecl;
using model::MethodDecl;

std::size_t NativeImage::method_count() const {
  std::size_t n = 0;
  for (const auto& c : classes.classes()) n += c.methods().size();
  return n;
}

ByteBuffer NativeImage::serialize() const {
  ByteBuffer buf;
  buf.put_string(name);
  buf.put_u8(is_trusted ? 1 : 0);
  buf.put_u64(code_bytes);
  buf.put_u64(runtime_code_bytes);
  buf.put_u64(image_heap_bytes);
  buf.put_varint(classes.classes().size());
  for (const auto& c : classes.classes()) {
    buf.put_string(c.name());
    buf.put_u8(static_cast<std::uint8_t>(c.annotation()));
    buf.put_u8(c.is_proxy() ? 1 : 0);
    buf.put_varint(c.fields().size());
    for (const auto& f : c.fields()) buf.put_string(f.name);
    buf.put_varint(c.methods().size());
    for (const auto& m : c.methods()) {
      buf.put_string(m.name());
      buf.put_u8(static_cast<std::uint8_t>(m.kind()));
      buf.put_u64(m.code_bytes());
      // Bytecode bodies contribute their instruction stream: a change in
      // any compiled method changes the measurement.
      for (const auto& instr : m.ir().code) {
        buf.put_u8(static_cast<std::uint8_t>(instr.op));
        buf.put_i32(instr.a);
        buf.put_i32(instr.b);
      }
    }
  }
  return buf;
}

namespace {

// Moves from a mutable input, copies from a const one.
template <class T>
decltype(auto) take(T& x) {
  if constexpr (std::is_const_v<T>) {
    return x;
  } else {
    return std::move(x);
  }
}

// The one pruning loop of both ImageBuilder::build overloads: `Model` is
// `const model::AppModel` to copy what is kept, `model::AppModel` to move
// it.
template <class Model>
NativeImage build_image(const ImageBuildConfig& config, Model& input,
                        bool is_trusted,
                        std::vector<MethodRef> entry_override) {
  NativeImage image;
  image.name = is_trusted ? "trusted" : "untrusted";
  image.object_file = image.name + ".o";
  image.is_trusted = is_trusted;
  image.entry_points = !entry_override.empty()
                           ? std::move(entry_override)
                           : (is_trusted ? trusted_image_entry_points(input)
                                         : untrusted_image_entry_points(input));
  // An image can legitimately be empty, e.g. the trusted image of an
  // application with no @Trusted classes.

  const ReachabilityResult reachable =
      ReachabilityAnalysis(input).analyze(image.entry_points);

  // Prune: only reachable classes, and within them only reachable methods,
  // survive into the image (§2.2: AoT compiles only reachable elements).
  // The marks are by position, so taking from `input` cannot disturb them.
  auto& classes = input.classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    auto& cls = classes[c];
    if (!reachable.class_reachable(c)) {
      if (cls.is_proxy()) ++image.pruned_proxy_count;
      continue;
    }
    ClassDecl& kept = image.classes.add_class(cls.name(), cls.annotation());
    if (cls.is_proxy()) kept.mark_proxy();
    kept.fields() = take(cls.fields());
    for (std::size_t m = 0; m < cls.methods().size(); ++m) {
      // Proxy classes are pruned at class granularity only: a reachable
      // proxy "exposes the same methods as the original class" (§5.2) so
      // any of its stubs may be invoked through a received reference.
      if (!cls.is_proxy() && !reachable.method_reachable(c, m)) continue;
      image.code_bytes += cls.methods()[m].code_bytes();
      kept.methods().push_back(take(cls.methods()[m]));
    }
  }
  image.classes.set_main_class(input.main_class());

  image.runtime_code_bytes = config.runtime_code_bytes;
  image.image_heap_bytes =
      config.image_heap_base_bytes +
      config.image_heap_per_class_bytes * image.classes.classes().size();
  image.max_heap_bytes = config.max_heap_bytes;
  return image;
}

}  // namespace

NativeImage ImageBuilder::build(const model::AppModel& input, bool is_trusted,
                                std::vector<MethodRef> entry_override) const {
  return build_image(config_, input, is_trusted, std::move(entry_override));
}

NativeImage ImageBuilder::build(model::AppModel&& input, bool is_trusted,
                                std::vector<MethodRef> entry_override) const {
  return build_image(config_, input, is_trusted, std::move(entry_override));
}

}  // namespace msv::xform
