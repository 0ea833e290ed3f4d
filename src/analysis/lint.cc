#include "analysis/lint.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <tuple>

#include "analysis/absint.h"
#include "analysis/trust.h"
#include "model/ir.h"
#include "transform/reachability.h"
#include "transform/transformer.h"

namespace msv::analysis {

using model::Annotation;
using model::ClassDecl;
using model::MethodDecl;
using model::Op;

const std::vector<LintRule>& lint_rules() {
  static const std::vector<LintRule> rules = {
      {"MSV001",
       "secret read from @Trusted state flows into a cross-boundary call "
       "argument or I/O intrinsic"},
      {"MSV002",
       "neutral-class field written on one side and read on the other "
       "(neutral instances are per-side copies)"},
      {"MSV003",
       "cross-partition instantiation with no construction relay, or from "
       "neutral code"},
      {"MSV004",
       "declared_callees() hint dangling, unreachable across the boundary, "
       "or missing an observed native call edge"},
      {"MSV005",
       "primitive-signature relay passed or returning a non-primitive "
       "value, or call arity mismatch"},
      {"MSV006",
       "cross-boundary reference cycle (proxy and mirror keep each other "
       "alive; never collected, paper §7)"},
      {"MSV007", "malformed bytecode (verifier findings)"},
      {"MSV008",
       "relay transition name matches no registered telemetry call prefix "
       "(spans fall back to the generic bridge category; informational)"},
      {"MSV009",
       "batch_async() method body performs I/O or invokes other methods — "
       "unsafe to reorder within a batched RMI flush"},
      {"MSV010",
       "@Trusted field provably never carries secret data (every store is "
       "public) — demotion candidate for the partition optimizer"},
  };
  return rules;
}

std::vector<std::string> lint_rule_ids() {
  std::vector<std::string> ids;
  for (const auto& r : lint_rules()) ids.emplace_back(r.id);
  return ids;
}

namespace {

// Which partition(s) a method's code may execute in.
constexpr unsigned kSideT = 1;  // inside the enclave
constexpr unsigned kSideU = 2;  // outside

std::string side_name(unsigned mask) {
  switch (mask) {
    case kSideT:
      return "trusted";
    case kSideU:
      return "untrusted";
    case kSideT | kSideU:
      return "both";
  }
  return "unreached";
}

struct Access {
  // Deterministic ordering for golden output.
  std::string cls;  // accessing class
  std::string method;
  std::int32_t pc;
  bool is_write;
  unsigned mask;

  bool operator<(const Access& other) const {
    return std::tie(cls, method, pc) <
           std::tie(other.cls, other.method, other.pc);
  }
};

struct Location {
  std::string cls;
  std::string method;
  std::int32_t pc = -1;

  bool operator<(const Location& other) const {
    return std::tie(cls, method, pc) <
           std::tie(other.cls, other.method, other.pc);
  }
};

// Accumulates wall time into stats().rule_wall_ms[rule] on scope exit.
// Rules folded into the shared per-method pass (MSV003/5/7) keep their
// seeded 0.0 entry — the v2 report still lists them, which is the point:
// a zero-cost rule is distinguishable from a rule that never ran.
class RuleTimer {
 public:
  RuleTimer(Report& report, const char* rule)
      : report_(report),
        rule_(rule),
        start_(std::chrono::steady_clock::now()) {}
  ~RuleTimer() {
    report_.stats().rule_wall_ms[rule_] +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
  }
  RuleTimer(const RuleTimer&) = delete;
  RuleTimer& operator=(const RuleTimer&) = delete;

 private:
  Report& report_;
  const char* rule_;
  std::chrono::steady_clock::time_point start_;
};

class Linter {
 public:
  Linter(const model::AppModel& app, const LintOptions& options,
         Report& report)
      : app_(app), options_(options), report_(report) {}

  void run() {
    // Every rule the suite runs gets a timing entry up front, so
    // zero-diagnostic (and zero-cost) rules still appear in the v2
    // report's rule_timings. MSV010 only runs under trust_analysis.
    for (const auto& id : lint_rule_ids()) {
      if (id == "MSV010" && !options_.trust_analysis) continue;
      report_.stats().rule_wall_ms[id] += 0.0;
    }
    index_model();
    {
      // The taint fixpoint exists for MSV001; the per-method rule passes
      // that reuse its dataflow states are near-free by comparison.
      RuleTimer t(report_, "MSV001");
      compute_summaries();
    }
    compute_side_masks();
    for (const auto& cls : app_.classes()) {
      for (const auto& method : cls.methods()) {
        if (method.kind() == model::MethodKind::kIr) {
          check_ir_method(cls, method);
        } else if (method.kind() == model::MethodKind::kNative) {
          check_native_hints(cls, method);
        }
      }
    }
    {
      RuleTimer t(report_, "MSV004");
      check_native_edges();
    }
    {
      RuleTimer t(report_, "MSV002");
      check_neutral_divergence();
    }
    {
      RuleTimer t(report_, "MSV006");
      check_reference_cycles();
    }
    {
      RuleTimer t(report_, "MSV008");
      check_telemetry_categories();
    }
    {
      RuleTimer t(report_, "MSV009");
      check_batch_async();
    }
    if (options_.trust_analysis) {
      RuleTimer t(report_, "MSV010");
      check_trusted_fields();
    }
  }

 private:
  void add(const char* rule, Severity severity, const std::string& cls,
           const std::string& method, std::int32_t pc, std::string message) {
    Diagnostic d;
    d.rule = rule;
    d.severity = severity;
    d.cls = cls;
    d.method = method;
    d.pc = pc;
    d.message = std::move(message);
    report_.add(std::move(d));
  }

  void index_model() {
    for (const auto& cls : app_.classes()) {
      for (const auto& m : cls.methods()) {
        declarers_[m.name()].push_back(&cls);
      }
    }
  }

  // Virtual-call resolution, RTA-style: every class declaring the method
  // name, narrowed by the abstract receiver's class set when known.
  std::vector<const ClassDecl*> resolve(const std::string& name,
                                        const std::set<std::string>& recv)
      const {
    std::vector<const ClassDecl*> out;
    if (!recv.empty()) {
      for (const auto& cls_name : recv) {
        const ClassDecl* cls = app_.find_class(cls_name);
        if (cls != nullptr && cls->find_method(name) != nullptr) {
          out.push_back(cls);
        }
      }
      return out;
    }
    const auto it = declarers_.find(name);
    return it == declarers_.end() ? out : it->second;
  }

  // ---- Interprocedural fixpoint 1: return-value taint summaries ----
  //
  // Iterates analyze_method over every bytecode body, feeding each round's
  // return-value abstractions into the next, so a secret returned by
  // Account.getBalance taints the call result at every getBalance site.
  void compute_summaries() {
    constexpr int kMaxRounds = 8;
    for (int round = 0; round < kMaxRounds; ++round) {
      SummaryMap next;
      bool last_round = false;
      for (const auto& cls : app_.classes()) {
        for (const auto& method : cls.methods()) {
          if (method.kind() != model::MethodKind::kIr) continue;
          DataflowContext ctx;
          ctx.app = &app_;
          ctx.cls = &cls;
          ctx.method = &method;
          ctx.summaries = &summaries_;
          ctx.taint_trusted_fields = true;
          ctx.max_stack = options_.max_stack;
          DataflowResult flow = analyze_method(method.ir(), ctx);
          report_.stats().dataflow_iterations += flow.block_visits;
          next[{cls.name(), method.name()}] = flow.return_value;
          flows_[{cls.name(), method.name()}] = std::move(flow);
        }
      }
      last_round = (next == summaries_) || round == kMaxRounds - 1;
      summaries_ = std::move(next);
      if (last_round) break;
    }
    for (const auto& [key, flow] : flows_) {
      ++report_.stats().methods_analyzed;
      report_.stats().instrs_analyzed += flow.before.size();
    }
  }

  // ---- Interprocedural fixpoint 2: partition-side propagation ----
  //
  // Methods of @Trusted classes execute inside the enclave, @Untrusted
  // outside; a *neutral* method executes wherever its callers do. The
  // propagation walks the same call edges the RTA reachability fixpoint
  // walks (xform::direct_call_sites), so a method the analysis reaches
  // from side S is exactly a method the linter attributes to S.
  void compute_side_masks() {
    std::deque<MethodKey> worklist;
    for (const auto& cls : app_.classes()) {
      unsigned seed = 0;
      if (cls.annotation() == Annotation::kTrusted) seed = kSideT;
      if (cls.annotation() == Annotation::kUntrusted) seed = kSideU;
      for (const auto& m : cls.methods()) {
        mask_[{cls.name(), m.name()}] = seed;
        if (seed != 0) worklist.push_back({cls.name(), m.name()});
      }
    }
    auto propagate = [&](const MethodKey& target, unsigned bits) {
      const ClassDecl* cls = app_.find_class(target.first);
      if (cls == nullptr || cls->annotation() != Annotation::kNeutral) {
        return;  // annotated methods have a fixed side
      }
      const auto it = mask_.find(target);
      if (it == mask_.end()) return;
      if ((it->second | bits) != it->second) {
        it->second |= bits;
        worklist.push_back(target);
      }
    };
    while (!worklist.empty()) {
      const MethodKey key = worklist.front();
      worklist.pop_front();
      const unsigned bits = mask_[key];
      const ClassDecl* cls = app_.find_class(key.first);
      const MethodDecl* method =
          cls == nullptr ? nullptr : cls->find_method(key.second);
      if (method == nullptr || bits == 0) continue;
      for (const auto& site : xform::direct_call_sites(*method)) {
        switch (site.kind) {
          case xform::CallSite::Kind::kNew:
            propagate({site.cls, model::kConstructorName}, bits);
            break;
          case xform::CallSite::Kind::kVirtual:
            for (const ClassDecl* target : resolve(site.method, {})) {
              propagate({target->name(), site.method}, bits);
            }
            break;
          case xform::CallSite::Kind::kDeclared:
          case xform::CallSite::Kind::kRelay:
            propagate({site.cls, site.method}, bits);
            break;
        }
      }
    }
  }

  unsigned mask_of(const std::string& cls, const std::string& method) const {
    const auto it = mask_.find({cls, method});
    return it == mask_.end() ? 0 : it->second;
  }

  // ---- Per-method rule pass over the recorded dataflow states ----
  void check_ir_method(const ClassDecl& cls, const MethodDecl& method) {
    const auto flow_it = flows_.find({cls.name(), method.name()});
    if (flow_it == flows_.end()) return;
    const DataflowResult& flow = flow_it->second;
    const unsigned m_mask = mask_of(cls.name(), method.name());
    const model::IrBody& body = method.ir();

    // MSV007: verifier findings, surfaced as lint diagnostics.
    for (const Diagnostic& e : flow.errors) {
      Diagnostic d = e;
      d.rule = "MSV007";
      d.cls = cls.name();
      d.method = method.name();
      report_.add(std::move(d));
    }

    for (std::size_t pc = 0; pc < body.code.size(); ++pc) {
      if (!flow.before[pc].reachable) continue;
      const model::Instr& instr = body.code[pc];
      const FrameState& state = flow.before[pc];
      switch (instr.op) {
        case Op::kCall:
          check_call_site(cls, method, m_mask, state, pc, instr);
          break;
        case Op::kNew:
          check_new_site(cls, method, m_mask, state, pc, instr);
          break;
        case Op::kIntrinsic:
          check_intrinsic_site(cls, method, m_mask, state, pc, instr);
          break;
        case Op::kGetField:
        case Op::kPutField:
          record_field_access(cls, method, m_mask, state, pc, instr);
          break;
        default:
          break;
      }
    }

    // MSV005: a primitive-signature method must return a primitive — the
    // relay's fixed-layout wire encoding has no slot for anything else.
    if (method.has_primitive_signature() &&
        cls.annotation() != Annotation::kNeutral &&
        flow.return_value.definitely_nonprimitive()) {
      add("MSV005", Severity::kError, cls.name(), method.name(), -1,
          "method declares primitive_signature() but returns a " +
              std::string(kind_name(flow.return_value.kind)) +
              "; the fixed-layout wire path cannot encode it");
    }
  }

  // Arguments are the top `argc` stack slots; named helper shared by the
  // call/new/intrinsic passes. Returns an empty span view when the
  // recorded stack is shallower than argc (already an MSV007).
  static std::vector<const AbsValue*> args_of(const FrameState& state,
                                              std::int32_t argc) {
    std::vector<const AbsValue*> args;
    if (argc < 0 ||
        state.stack.size() < static_cast<std::size_t>(argc)) {
      return args;
    }
    const std::size_t base = state.stack.size() - static_cast<std::size_t>(argc);
    for (std::size_t i = 0; i < static_cast<std::size_t>(argc); ++i) {
      args.push_back(&state.stack[base + i]);
    }
    return args;
  }

  void report_tainted_args(const ClassDecl& cls, const MethodDecl& method,
                           std::size_t pc,
                           const std::vector<const AbsValue*>& args,
                           const std::string& sink) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!args[i]->tainted) continue;
      add("MSV001", Severity::kError, cls.name(), method.name(),
          static_cast<std::int32_t>(pc),
          "value read from @Trusted state flows into argument " +
              std::to_string(i) + " of " + sink +
              " — the secret crosses into untrusted memory");
    }
  }

  void check_call_site(const ClassDecl& cls, const MethodDecl& method,
                       unsigned m_mask, const FrameState& state,
                       std::size_t pc, const model::Instr& instr) {
    const model::IrBody& body = method.ir();
    if (instr.a < 0 ||
        static_cast<std::size_t>(instr.a) >= body.names.size()) {
      return;  // malformed operand; MSV007 already reported it
    }
    const std::string& name = body.names[static_cast<std::size_t>(instr.a)];
    const auto args = args_of(state, instr.b);
    // Receiver sits under the arguments.
    std::set<std::string> recv;
    const std::size_t need = static_cast<std::size_t>(std::max(instr.b, 0)) + 1;
    if (state.stack.size() >= need) {
      recv = state.stack[state.stack.size() - need].classes;
    }
    const auto candidates = resolve(name, recv);

    bool crosses_to_untrusted = false;
    for (const ClassDecl* target : candidates) {
      if (target->annotation() == Annotation::kUntrusted) {
        crosses_to_untrusted = true;
      }
    }
    // MSV001: trusted-side caller, untrusted-side callee — the woven proxy
    // stub serializes every argument into untrusted memory.
    if ((m_mask & kSideT) != 0 && crosses_to_untrusted) {
      report_tainted_args(cls, method, pc, args,
                          "untrusted-side method " + name + "()");
    }

    // MSV005: primitive-signature + arity constraints against each
    // partitioned candidate (their relays carry the constraint).
    bool any_arity_match = candidates.empty();
    for (const ClassDecl* target : candidates) {
      const MethodDecl* callee = target->find_method(name);
      if (callee == nullptr) continue;
      if (callee->param_count() == static_cast<std::uint32_t>(
                                       std::max(instr.b, 0))) {
        any_arity_match = true;
      }
      if (target->annotation() == Annotation::kNeutral) continue;
      if (!callee->has_primitive_signature()) continue;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (!args[i]->definitely_nonprimitive()) continue;
        add("MSV005", Severity::kError, cls.name(), method.name(),
            static_cast<std::int32_t>(pc),
            "argument " + std::to_string(i) + " of " + target->name() + "." +
                name + " is a " + kind_name(args[i]->kind) +
                " but the method declares primitive_signature(); the "
                "fixed-layout wire path cannot encode it");
      }
    }
    if (!any_arity_match) {
      add("MSV005", Severity::kError, cls.name(), method.name(),
          static_cast<std::int32_t>(pc),
          "call to " + name + " with " + std::to_string(instr.b) +
              " argument(s) matches no declaration of that method — the "
              "relay invocation fails at run time");
    }
  }

  void check_new_site(const ClassDecl& cls, const MethodDecl& method,
                      unsigned m_mask, const FrameState& state,
                      std::size_t pc, const model::Instr& instr) {
    const model::IrBody& body = method.ir();
    if (instr.a < 0 ||
        static_cast<std::size_t>(instr.a) >= body.names.size()) {
      return;  // MSV007
    }
    const std::string& target_name =
        body.names[static_cast<std::size_t>(instr.a)];
    const ClassDecl* target = app_.find_class(target_name);
    if (target == nullptr) return;  // pruned/undefined: a model error
    const Annotation ann = target->annotation();
    const auto args = args_of(state, instr.b);
    const MethodDecl* ctor = target->find_method(model::kConstructorName);

    const bool crossing = (ann == Annotation::kTrusted && (m_mask & kSideU)) ||
                          (ann == Annotation::kUntrusted && (m_mask & kSideT));
    // MSV003a: the transformer relays only *public* methods; a private
    // constructor means the stripped proxy has no construction stub, so
    // this allocation fails on the proxy side at run time.
    if (crossing && ctor != nullptr && !ctor->is_public()) {
      add("MSV003", Severity::kError, cls.name(), method.name(),
          static_cast<std::int32_t>(pc),
          "cross-partition instantiation of " +
              std::string(model::annotation_name(ann)) + " class " +
              target_name +
              ": its constructor is private, so no construction relay is "
              "woven and the proxy-side new fails at run time");
    }
    // MSV003b: neutral code instantiating a partitioned class gets a
    // concrete instance on one side and a proxy on the other — the two
    // copies of the neutral state diverge structurally.
    if (cls.annotation() == Annotation::kNeutral &&
        ann != Annotation::kNeutral) {
      add("MSV003", Severity::kWarning, cls.name(), method.name(),
          static_cast<std::int32_t>(pc),
          "neutral method instantiates " +
              std::string(model::annotation_name(ann)) + " class " +
              target_name +
              " — concrete on one side, a proxy on the other; the per-side "
              "copies of the neutral object graph diverge");
    }
    // MSV001: constructor arguments cross the boundary like call args.
    if ((m_mask & kSideT) != 0 && ann == Annotation::kUntrusted) {
      report_tainted_args(cls, method, pc, args,
                          "constructor of untrusted class " + target_name);
    }
    // MSV005: constructor arity/signature against the construction relay.
    if (ctor != nullptr) {
      if (ctor->param_count() !=
          static_cast<std::uint32_t>(std::max(instr.b, 0))) {
        add("MSV005", Severity::kError, cls.name(), method.name(),
            static_cast<std::int32_t>(pc),
            "new " + target_name + " with " + std::to_string(instr.b) +
                " argument(s) but the constructor takes " +
                std::to_string(ctor->param_count()));
      }
      if (ann != Annotation::kNeutral && ctor->has_primitive_signature()) {
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (!args[i]->definitely_nonprimitive()) continue;
          add("MSV005", Severity::kError, cls.name(), method.name(),
              static_cast<std::int32_t>(pc),
              "constructor argument " + std::to_string(i) + " of " +
                  target_name + " is a " + kind_name(args[i]->kind) +
                  " but the constructor declares primitive_signature()");
        }
      }
    } else if (instr.b > 0) {
      add("MSV005", Severity::kError, cls.name(), method.name(),
          static_cast<std::int32_t>(pc),
          "new " + target_name + " with " + std::to_string(instr.b) +
              " argument(s) but the class declares no constructor");
    }
  }

  void check_intrinsic_site(const ClassDecl& cls, const MethodDecl& method,
                            unsigned m_mask, const FrameState& state,
                            std::size_t pc, const model::Instr& instr) {
    const model::IrBody& body = method.ir();
    if (instr.a < 0 ||
        static_cast<std::size_t>(instr.a) >= body.names.size()) {
      return;  // MSV007
    }
    const std::string& name = body.names[static_cast<std::size_t>(instr.a)];
    if ((m_mask & kSideT) == 0 || options_.sink_intrinsics.count(name) == 0) {
      return;
    }
    // From trusted-side code, the I/O intrinsics relay through the shim's
    // ocalls and print writes to host stdout: the argument bytes leave the
    // enclave.
    report_tainted_args(cls, method, pc, args_of(state, instr.b),
                        "intrinsic " + name + " (leaves the enclave via the "
                        "shim)");
  }

  void record_field_access(const ClassDecl& cls, const MethodDecl& method,
                           unsigned m_mask, const FrameState& state,
                           std::size_t pc, const model::Instr& instr) {
    const bool is_write = instr.op == Op::kPutField;
    const std::size_t need = is_write ? 2 : 1;
    if (state.stack.size() < need) return;  // MSV007 territory
    const AbsValue& receiver = state.stack[state.stack.size() - need];
    // MSV002 bookkeeping: accesses to neutral-class fields, attributed to
    // the side(s) this method executes on. Constructor writes are excluded
    // — each side's copy initializes identically.
    for (const auto& recv_cls_name : receiver.classes) {
      const ClassDecl* recv_cls = app_.find_class(recv_cls_name);
      if (recv_cls == nullptr ||
          recv_cls->annotation() != Annotation::kNeutral) {
        continue;
      }
      if (is_write && method.is_constructor() &&
          recv_cls_name == cls.name()) {
        continue;
      }
      neutral_accesses_[{recv_cls_name, instr.a}].push_back(
          Access{cls.name(), method.name(), static_cast<std::int32_t>(pc),
                 is_write, m_mask});
    }
    // MSV006 bookkeeping: a store of a value with known classes into a
    // field gives a class-level "may reference" edge receiver -> value.
    if (is_write) {
      const AbsValue& value = state.stack.back();
      for (const auto& from : receiver.classes) {
        for (const auto& to : value.classes) {
          const auto key = std::make_pair(from, to);
          const Location loc{cls.name(), method.name(),
                             static_cast<std::int32_t>(pc)};
          const auto it = ref_edges_.find(key);
          if (it == ref_edges_.end() || loc < it->second) {
            ref_edges_[key] = loc;
          }
        }
      }
    }
  }

  // ---- MSV002: neutral-class state divergence ----
  void check_neutral_divergence() {
    for (auto& [key, accesses] : neutral_accesses_) {
      std::sort(accesses.begin(), accesses.end());
      unsigned write_mask = 0;
      unsigned read_mask = 0;
      for (const auto& a : accesses) {
        (a.is_write ? write_mask : read_mask) |= a.mask;
      }
      const unsigned any_mask = write_mask | read_mask;
      const bool diverges =
          ((write_mask & kSideT) && (any_mask & kSideU)) ||
          ((write_mask & kSideU) && (any_mask & kSideT));
      if (!diverges) continue;
      const ClassDecl* cls = app_.find_class(key.first);
      std::string field = "#" + std::to_string(key.second);
      if (cls != nullptr && key.second >= 0 &&
          static_cast<std::size_t>(key.second) < cls->fields().size()) {
        field = cls->fields()[static_cast<std::size_t>(key.second)].name;
      }
      // Anchor the finding at the first write that participates.
      const Access* anchor = nullptr;
      for (const auto& a : accesses) {
        if (a.is_write) {
          anchor = &a;
          break;
        }
      }
      if (anchor == nullptr) continue;
      add("MSV002", Severity::kWarning, anchor->cls, anchor->method,
          anchor->pc,
          "neutral class " + key.first + " field `" + field +
              "` is written on the " + side_name(write_mask) +
              " side and accessed on the other — neutral instances are "
              "per-side copies, the views silently diverge");
    }
  }

  // ---- MSV004: declared_callees() completeness ----
  void check_native_hints(const ClassDecl& cls, const MethodDecl& method) {
    const unsigned m_mask = mask_of(cls.name(), method.name());
    for (const auto& [tc, tm] : method.declared_callees()) {
      const ClassDecl* target = app_.find_class(tc);
      const MethodDecl* callee =
          target == nullptr ? nullptr : target->find_method(tm);
      if (callee == nullptr) {
        add("MSV004", Severity::kError, cls.name(), method.name(), -1,
            "declared callee " + tc + "." + tm +
                " does not exist in the model — the reachability analysis "
                "rejects this hint at build time");
        continue;
      }
      const Annotation ann = target->annotation();
      const bool crossing =
          (ann == Annotation::kTrusted && (m_mask & kSideU)) ||
          (ann == Annotation::kUntrusted && (m_mask & kSideT));
      if (crossing && !callee->is_public()) {
        add("MSV004", Severity::kError, cls.name(), method.name(), -1,
            "declared callee " + tc + "." + tm +
                " is private on the opposite partition — private methods "
                "are stripped from proxies, so the call cannot be relayed");
      }
    }
  }

  void check_native_edges() {
    std::set<NativeEdge> seen;
    for (const auto& edge : options_.native_edges) {
      if (!seen.insert(edge).second) continue;
      const auto& [caller, callee] = edge;
      const ClassDecl* cls = app_.find_class(caller.first);
      const MethodDecl* method =
          cls == nullptr ? nullptr : cls->find_method(caller.second);
      if (method == nullptr ||
          method->kind() != model::MethodKind::kNative) {
        continue;
      }
      bool declared = false;
      for (const auto& hint : method->declared_callees()) {
        if (hint.first == callee.first && hint.second == callee.second) {
          declared = true;
          break;
        }
      }
      if (declared) continue;
      add("MSV004", Severity::kError, caller.first, caller.second, -1,
          "native body invokes " + callee.first + "." + callee.second +
              " at run time but declared_callees() omits it — the callee "
              "is invisible to the closed-world reachability analysis and "
              "may be pruned from the image");
    }
  }

  // ---- MSV006: cross-boundary reference cycles ----
  void check_reference_cycles() {
    // Transitive closure over the (tiny) class-reference graph.
    std::map<std::string, std::set<std::string>> reach;
    for (const auto& [edge, loc] : ref_edges_) {
      reach[edge.first].insert(edge.second);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [from, tos] : reach) {
        std::set<std::string> grow = tos;
        for (const auto& mid : tos) {
          const auto it = reach.find(mid);
          if (it == reach.end()) continue;
          grow.insert(it->second.begin(), it->second.end());
        }
        if (grow.size() != tos.size()) {
          tos = std::move(grow);
          changed = true;
        }
      }
    }
    for (const auto& [a, a_reach] : reach) {
      const ClassDecl* cls_a = app_.find_class(a);
      if (cls_a == nullptr || cls_a->annotation() == Annotation::kNeutral) {
        continue;
      }
      for (const auto& b : a_reach) {
        if (b <= a) continue;  // one finding per unordered pair
        const auto it = reach.find(b);
        if (it == reach.end() || it->second.count(a) == 0) continue;
        const ClassDecl* cls_b = app_.find_class(b);
        if (cls_b == nullptr ||
            cls_b->annotation() == Annotation::kNeutral ||
            cls_b->annotation() == cls_a->annotation()) {
          continue;
        }
        // Anchor at the smallest recorded edge location on the cycle.
        Location anchor;
        bool have_anchor = false;
        for (const auto& [edge, loc] : ref_edges_) {
          const bool on_cycle =
              (a_reach.count(edge.first) || edge.first == a) &&
              (a_reach.count(edge.second) || edge.second == a);
          if (!on_cycle) continue;
          if (!have_anchor || loc < anchor) {
            anchor = loc;
            have_anchor = true;
          }
        }
        if (!have_anchor) continue;
        add("MSV006", Severity::kWarning, anchor.cls, anchor.method,
            anchor.pc,
            "cross-boundary reference cycle between " +
                std::string(model::annotation_name(cls_a->annotation())) +
                " " + a + " and " +
                std::string(model::annotation_name(cls_b->annotation())) +
                " " + b +
                " — proxy and mirror keep each other alive across the "
                "boundary; neither side's GC ever reclaims the cycle "
                "(paper §7)");
      }
    }
  }

  // MSV008: every public method of a partitioned class gets a woven relay
  // transition (xform::transition_name); if its name matches none of the
  // registered telemetry call prefixes, its spans land in the generic
  // bridge category and silently opt out of the rmi/gc trace filters.
  // Informational: the weave still works, only the observability is
  // degraded.
  void check_telemetry_categories() {
    for (const auto& cls : app_.classes()) {
      const Annotation ann = cls.annotation();
      if (ann == Annotation::kNeutral) continue;
      const bool trusted = ann == Annotation::kTrusted;
      const auto check_one = [&](const std::string& method_name) {
        const std::string transition =
            xform::transition_name(cls.name(), method_name, trusted);
        for (const auto& prefix : options_.telemetry_call_prefixes) {
          if (transition.rfind(prefix, 0) == 0) return;
        }
        add("MSV008", Severity::kInfo, cls.name(), method_name, -1,
            "relay transition " + transition +
                " matches no registered telemetry call prefix — its spans "
                "fall back to the generic bridge category and opt out of "
                "the rmi/gc trace filters (DESIGN.md §10)");
      };
      bool has_ctor = false;
      for (const auto& m : cls.methods()) {
        if (m.kind() == model::MethodKind::kRelay || !m.is_public()) continue;
        if (m.is_constructor()) has_ctor = true;
        check_one(m.name());
      }
      // A class without a declared constructor still gets a default
      // construction relay (transform/transformer.cc).
      if (!has_ctor) check_one(model::kConstructorName);
    }
  }

  // MSV009: batch_async() claims the method is safe to reorder within a
  // batch. The claim is checked on the declaration alone: no runtime path
  // reorders batched calls (ProxyRuntime::invoke_batch runs a frame's
  // entries in order). A body that performs a sink intrinsic (I/O, print
  // — effects observable outside the receiver) or calls/constructs other
  // objects (effects on state other batched calls may touch) makes that
  // claim dubious: flag it. Pure field reads/writes on the receiver and local
  // arithmetic are fine. `Class.method` entries in batch_reorder_exempt
  // suppress the finding for audited declarations.
  void check_batch_async() {
    for (const auto& cls : app_.classes()) {
      if (cls.annotation() == Annotation::kNeutral) continue;
      for (const auto& method : cls.methods()) {
        if (!method.is_batch_async() || !method.is_public()) continue;
        if (method.kind() != model::MethodKind::kIr) continue;
        if (options_.batch_reorder_exempt.count(cls.name() + "." +
                                                method.name()) > 0) {
          continue;
        }
        const model::IrBody& body = method.ir();
        for (std::size_t pc = 0; pc < body.code.size(); ++pc) {
          const model::Instr& instr = body.code[pc];
          if (instr.op == Op::kIntrinsic) {
            if (instr.a < 0 ||
                static_cast<std::size_t>(instr.a) >= body.names.size()) {
              continue;  // MSV007
            }
            const std::string& name = body.names[instr.a];
            if (options_.sink_intrinsics.count(name) == 0) continue;
            add("MSV009", Severity::kWarning, cls.name(), method.name(),
                static_cast<std::int32_t>(pc),
                "method declares batch_async() but its body invokes the "
                "I/O intrinsic '" +
                    name +
                    "' — reordering it within a batched RMI flush reorders "
                    "externally observable effects");
            break;
          }
          if (instr.op == Op::kCall || instr.op == Op::kNew) {
            const std::string callee =
                (instr.a >= 0 &&
                 static_cast<std::size_t>(instr.a) < body.names.size())
                    ? body.names[instr.a]
                    : "<malformed>";
            add("MSV009", Severity::kWarning, cls.name(), method.name(),
                static_cast<std::int32_t>(pc),
                std::string("method declares batch_async() but its body ") +
                    (instr.op == Op::kCall ? "calls '" : "constructs '") +
                    callee +
                    "' — effects on other objects are not safe to reorder "
                    "within a batched RMI flush");
            break;
          }
        }
      }
    }
  }

  // ---- MSV010: over-trusted fields (value-granular trust fixpoint) ----
  //
  // Runs analysis/trust.h's interprocedural fixpoint and flags every
  // @Trusted-class field whose stores are all provably public (or that is
  // never stored to): the field cannot carry a secret, so keeping its
  // class inside the enclave buys no confidentiality — only transition
  // cost. Informational: demotion is the optimizer's call, not the lint's.
  void check_trusted_fields() {
    const TrustFacts facts = analyze_trust(app_, options_.trust);
    report_.stats().dataflow_iterations += facts.contexts_analyzed;
    for (const auto& [cls_name, idx] : facts.demotable_trusted_fields(app_)) {
      const ClassDecl* cls = app_.find_class(cls_name);
      std::string field = "#" + std::to_string(idx);
      if (cls != nullptr && idx >= 0 &&
          static_cast<std::size_t>(idx) < cls->fields().size()) {
        field = cls->fields()[static_cast<std::size_t>(idx)].name;
      }
      const bool never_stored =
          facts.field(cls_name, idx) == Trust::kBottom;
      // d.method carries the field name: the baseline key becomes
      // "MSV010 Class.field", one suppression per field.
      add("MSV010", Severity::kInfo, cls_name, field, -1,
          "@Trusted field `" + field + "` " +
              (never_stored
                   ? "is never stored to"
                   : "only ever holds values provably visible outside the "
                     "enclave (constants and untrusted-side inputs)") +
              " — it cannot carry a secret; demotion candidate for "
              "msvlint --propose-partition (DESIGN.md §15)");
    }
  }

  const model::AppModel& app_;
  const LintOptions& options_;
  Report& report_;

  std::map<std::string, std::vector<const ClassDecl*>> declarers_;
  SummaryMap summaries_;
  std::map<MethodKey, DataflowResult> flows_;
  std::map<MethodKey, unsigned> mask_;
  // (neutral class, field index) -> accesses.
  std::map<std::pair<std::string, std::int32_t>, std::vector<Access>>
      neutral_accesses_;
  // (from class, to class) -> first recorded store location.
  std::map<std::pair<std::string, std::string>, Location> ref_edges_;
};

}  // namespace

Report lint(const model::AppModel& app, const LintOptions& options) {
  Report report;
  Linter linter(app, options, report);
  linter.run();
  report.sort();
  return report;
}

}  // namespace msv::analysis
