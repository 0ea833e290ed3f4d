#include "transform/reachability.h"

#include <algorithm>
#include <string_view>

#include "support/error.h"

namespace msv::xform {

using model::Annotation;
using model::ClassDecl;
using model::MethodDecl;
using model::MethodKind;
using model::Op;

namespace {

// Visits the call sites of one method body in order, as
// fn(kind, cls, method, pc) with views into the body: the one walk behind
// direct_call_sites and the fixpoint below.
template <class Fn>
void visit_call_sites(const MethodDecl& method, Fn&& fn) {
  switch (method.kind()) {
    case MethodKind::kIr: {
      const model::IrBody& ir = method.ir();
      for (std::size_t pc = 0; pc < ir.code.size(); ++pc) {
        const auto& instr = ir.code[pc];
        if (instr.a < 0 || static_cast<std::size_t>(instr.a) >= ir.names.size())
          continue;  // malformed operand; the verifier reports it
        const auto at = static_cast<std::int32_t>(pc);
        if (instr.op == Op::kNew) {
          fn(CallSite::Kind::kNew, std::string_view(ir.names[instr.a]),
             std::string_view(), at);
        } else if (instr.op == Op::kCall) {
          fn(CallSite::Kind::kVirtual, std::string_view(),
             std::string_view(ir.names[instr.a]), at);
        }
      }
      break;
    }
    case MethodKind::kNative:
      for (const auto& [tc, tm] : method.declared_callees()) {
        fn(CallSite::Kind::kDeclared, std::string_view(tc),
           std::string_view(tm), -1);
      }
      break;
    case MethodKind::kRelay:
      fn(CallSite::Kind::kRelay, std::string_view(method.relay().target_class),
         std::string_view(method.relay().target_method), -1);
      break;
    case MethodKind::kProxyStub:
      break;  // target lives in the opposite image
  }
}

constexpr std::size_t kAbsent = ~std::size_t{0};

// Position of the first method of `cls` named `name`, or kAbsent (the
// rule of ClassDecl::find_method).
std::size_t method_pos(const ClassDecl& cls, std::string_view name) {
  const auto& methods = cls.methods();
  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (methods[m].name() == name) return m;
  }
  return kAbsent;
}

// Position of the first class named `name` in `app`, or kAbsent (the
// rule of AppModel::find_class).
std::size_t class_pos(const model::AppModel& app, std::string_view name) {
  const auto& classes = app.classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].name() == name) return c;
  }
  return kAbsent;
}

}  // namespace

std::vector<CallSite> direct_call_sites(const model::MethodDecl& method) {
  std::vector<CallSite> sites;
  visit_call_sites(method, [&](CallSite::Kind kind, std::string_view cls,
                               std::string_view target, std::int32_t pc) {
    sites.push_back({kind, std::string(cls), std::string(target), pc});
  });
  return sites;
}

bool ReachabilityResult::class_reachable(const std::string& cls) const {
  const std::size_t c = class_pos(*app, cls);
  return c != kAbsent && classes[c];
}

bool ReachabilityResult::class_instantiated(const std::string& cls) const {
  const std::size_t c = class_pos(*app, cls);
  return c != kAbsent && instantiated[c];
}

bool ReachabilityResult::method_reachable(const std::string& cls,
                                          const std::string& method) const {
  const std::size_t c = class_pos(*app, cls);
  if (c == kAbsent) return false;
  const std::size_t m = method_pos(app->classes()[c], method);
  return m != kAbsent && method_reachable(c, m);
}

ReachabilityResult ReachabilityAnalysis::analyze(
    const std::vector<MethodRef>& entry_points) const {
  const auto& all = app_.classes();
  ReachabilityResult r;
  r.app = &app_;
  r.classes.assign(all.size(), false);
  r.instantiated.assign(all.size(), false);
  r.method_base.reserve(all.size() + 1);
  std::size_t n_methods = 0;
  for (const ClassDecl& c : all) {
    r.method_base.push_back(n_methods);
    n_methods += c.methods().size();
  }
  r.method_base.push_back(n_methods);
  r.methods.assign(n_methods, false);

  // FIFO of reached (class, method) positions still to scan.
  std::vector<std::pair<std::size_t, std::size_t>> pending;
  std::size_t next = 0;
  // Method names invoked virtually somewhere reachable, in first-seen
  // order; re-examined when a new class becomes instantiated.
  std::vector<std::string_view> virtual_calls;

  const auto mark_method = [&](std::size_t c, std::size_t m) {
    if (!r.methods[r.method_base[c] + m]) {
      r.methods[r.method_base[c] + m] = true;
      pending.emplace_back(c, m);
    }
    r.classes[c] = true;
  };
  // Marks `c`'s method named `method`, if it has one.
  const auto mark_named = [&](std::size_t c, std::string_view method) {
    const std::size_t m = method_pos(all[c], method);
    if (m != kAbsent) mark_method(c, m);
    return m != kAbsent;
  };
  const auto instantiate = [&](std::size_t c) {
    if (r.instantiated[c]) return;
    r.instantiated[c] = true;
    r.classes[c] = true;
    // Newly instantiated class: any already-seen virtual call may now
    // dispatch to it.
    for (const std::string_view name : virtual_calls) mark_named(c, name);
  };
  const auto virtual_call = [&](std::string_view name) {
    if (std::find(virtual_calls.begin(), virtual_calls.end(), name) !=
        virtual_calls.end()) {
      return;
    }
    virtual_calls.push_back(name);
    for (std::size_t c = 0; c < all.size(); ++c) {
      if (r.instantiated[c]) mark_named(c, name);
    }
  };

  for (const auto& [cls, method] : entry_points) {
    const std::size_t c = class_pos(app_, cls);
    if (c == kAbsent || !mark_named(c, method)) {
      throw ConfigError("entry point " + cls + "." + method + " not found");
    }
  }

  while (next < pending.size()) {
    const auto [c, mi] = pending[next++];
    const ClassDecl& cls = all[c];
    const MethodDecl& m = cls.methods()[mi];

    // Instance methods imply an instance of the declaring class; proxy
    // stubs likewise need the proxy class itself (the target lives in the
    // opposite image).
    if (!m.is_static() || m.kind() == MethodKind::kProxyStub) instantiate(c);

    visit_call_sites(m, [&](CallSite::Kind kind, std::string_view site_cls,
                            std::string_view site_method, std::int32_t) {
      const std::size_t t = kind == CallSite::Kind::kVirtual
                                ? kAbsent
                                : class_pos(app_, site_cls);
      switch (kind) {
        case CallSite::Kind::kNew:
          // A class the image lacks has nothing to instantiate (the
          // verifier reports it).
          if (t != kAbsent) {
            instantiate(t);
            mark_named(t, model::kConstructorName);
          }
          break;
        case CallSite::Kind::kVirtual:
          virtual_call(site_method);
          break;
        case CallSite::Kind::kDeclared:
          // Opaque native body: the declared callees play the role of
          // GraalVM's reflection configuration.
          if (t == kAbsent || method_pos(all[t], site_method) == kAbsent) {
            throw ConfigError("declared callee " + std::string(site_cls) +
                              "." + std::string(site_method) +
                              " of native method " + cls.name() + "." +
                              m.name() + " not found");
          }
          if (site_method == model::kConstructorName) instantiate(t);
          mark_named(t, site_method);
          break;
        case CallSite::Kind::kRelay:
          MSV_CHECK_MSG(t != kAbsent, "relay target class missing");
          // Synthesized default-constructor relays have no concrete <init>;
          // they still instantiate the class.
          mark_named(t, site_method);
          if (m.relay().is_constructor) instantiate(t);
          break;
      }
    });
  }
  return r;
}

std::vector<MethodRef> trusted_image_entry_points(const model::AppModel& set) {
  // All relay methods of concrete (non-proxy) classes in the trusted set
  // are exported @CEntryPoints (§5.3).
  std::vector<MethodRef> eps;
  for (const auto& cls : set.classes()) {
    if (cls.is_proxy() || cls.annotation() != Annotation::kTrusted) continue;
    for (const auto& m : cls.methods()) {
      if (m.kind() == MethodKind::kRelay) eps.push_back({cls.name(), m.name()});
    }
  }
  return eps;
}

std::vector<MethodRef> untrusted_image_entry_points(
    const model::AppModel& set) {
  // main plus the relay methods of concrete untrusted classes (§5.3).
  std::vector<MethodRef> eps;
  if (!set.main_class().empty()) eps.push_back({set.main_class(), "main"});
  for (const auto& cls : set.classes()) {
    if (cls.is_proxy() || cls.annotation() != Annotation::kUntrusted) continue;
    for (const auto& m : cls.methods()) {
      if (m.kind() == MethodKind::kRelay) eps.push_back({cls.name(), m.name()});
    }
  }
  return eps;
}

}  // namespace msv::xform
