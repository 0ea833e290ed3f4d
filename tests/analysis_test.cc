// Tests for src/analysis: the bytecode verifier, the msvlint rule suite
// (golden fixtures with exact rule/location per rule ID), the diagnostics
// engine (baseline suppression, JSON), the interpreter's TrapError bounds
// checks and verify gate, and the msvlint driver.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/absint.h"
#include "analysis/lint.h"
#include "analysis/optimize.h"
#include "analysis/verify.h"
#include "apps/illustrative/bank.h"
#include "apps/msvlint/driver.h"
#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"
#include "dsl/parser.h"
#include "support/rng.h"

namespace msv {
namespace {

using analysis::Diagnostic;
using analysis::Severity;
using model::Annotation;
using model::IrBody;
using model::IrBuilder;
using model::Op;
using rt::Value;

// Diagnostics of one rule.
std::vector<Diagnostic> of_rule(const analysis::Report& report,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

// ---- Verifier: malformed-bytecode corpus -----------------------------------
//
// Each body is one the interpreter previously executed as UB (raw pool
// indexing, silent exit on a wild jump); the verifier must reject all of
// them, and the clean corpus must verify with zero findings.

IrBody raw_body(std::vector<model::Instr> code,
                std::vector<Value> consts = {},
                std::vector<std::string> names = {},
                std::uint32_t local_count = 0) {
  IrBody body;
  body.code = std::move(code);
  body.consts = std::move(consts);
  body.names = std::move(names);
  body.local_count = local_count;
  return body;
}

TEST(Verifier, StackUnderflow) {
  const auto errors =
      analysis::verify(raw_body({{Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}}));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].pc, 0);
  EXPECT_NE(errors[0].message.find("underflow"), std::string::npos);
}

TEST(Verifier, MalformedJumpTarget) {
  const auto errors = analysis::verify(raw_body({{Op::kJump, 99, 0}}));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].pc, 0);
  EXPECT_NE(errors[0].message.find("target"), std::string::npos);
}

TEST(Verifier, ConstantPoolIndexOutOfRange) {
  const auto errors = analysis::verify(
      raw_body({{Op::kConst, 7, 0}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}}));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].pc, 0);
  EXPECT_NE(errors[0].message.find("constant pool"), std::string::npos);
}

TEST(Verifier, NamePoolIndexOutOfRange) {
  const auto errors = analysis::verify(raw_body(
      {{Op::kNew, 3, 0}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}}));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].pc, 0);
}

TEST(Verifier, LocalIndexOutOfRange) {
  const auto errors = analysis::verify(raw_body(
      {{Op::kLoadLocal, 5, 0}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}}));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("local"), std::string::npos);
}

TEST(Verifier, FieldIndexOutOfRangeOnTypedReceiver) {
  // With model context the verifier proves field bounds on receivers whose
  // class is statically unique.
  model::AppModel app;
  auto& box = app.add_class("Box", Annotation::kNeutral);
  box.add_field("only");
  auto& m = box.add_method("poke", 0);
  m.body(raw_body({{Op::kLoadLocal, 0, 0},
                   {Op::kGetField, 9, 0},
                   {Op::kPop, 0, 0},
                   {Op::kReturnVoid, 0, 0}},
                  {}, {}, 1));
  analysis::VerifyOptions options;
  options.app = &app;
  options.cls = &app.classes().front();
  options.method = &app.classes().front().methods().front();
  const auto errors = analysis::verify(m.ir(), options);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].pc, 1);
  EXPECT_NE(errors[0].message.find("field"), std::string::npos);
}

TEST(Verifier, FallThroughWithoutReturn) {
  const auto errors = analysis::verify(raw_body({{Op::kNop, 0, 0}}));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("fall"), std::string::npos);
}

TEST(Verifier, InconsistentMergeDepth) {
  // Path A (branch taken) reaches pc 3 with depth 0; path B (fall-through
  // through the extra const) reaches it with depth 1.
  const auto errors = analysis::verify(raw_body({{Op::kConst, 0, 0},
                                                 {Op::kBranchFalse, 3, 0},
                                                 {Op::kConst, 0, 0},
                                                 {Op::kReturnVoid, 0, 0}},
                                                {Value(true)}));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("merge"), std::string::npos);
}

TEST(Verifier, OperandStackOverflow) {
  // A straight-line push sequence exceeds the configured stack limit.
  std::vector<model::Instr> code(12, {Op::kConst, 0, 0});
  code.push_back({Op::kReturnVoid, 0, 0});
  analysis::VerifyOptions options;
  options.max_stack = 8;
  const auto errors =
      analysis::verify(raw_body(std::move(code), {Value(1)}), options);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("overflow"), std::string::npos);
}

TEST(Verifier, NegativeArgumentCount) {
  const auto errors = analysis::verify(raw_body(
      {{Op::kCall, 0, -2}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}},
      {}, {"m"}));
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].pc, 0);
}

// ---- Verifier: the clean corpus verifies -----------------------------------

TEST(Verifier, BankAppVerifies) {
  EXPECT_TRUE(analysis::verify_app(apps::build_bank_app(true)).empty());
}

TEST(Verifier, MicroAppVerifies) {
  EXPECT_TRUE(analysis::verify_app(apps::synthetic::build_micro_app()).empty());
}

TEST(Verifier, SyntheticGeneratorOutputVerifies) {
  for (const double fraction : {0.0, 0.4, 1.0}) {
    apps::synthetic::SyntheticSpec spec;
    spec.n_classes = 20;
    spec.untrusted_fraction = fraction;
    const analysis::Report report =
        analysis::verify_app(apps::synthetic::generate(spec));
    EXPECT_TRUE(report.empty()) << report.to_text();
    EXPECT_GT(report.stats().methods_analyzed, 0u);
  }
}

// Property: every program assembled through IrBuilder's structured API
// (balanced pushes/pops, label-bound jumps, explicit return) verifies.
class VerifierProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifierProperty, RandomBuilderProgramsVerify) {
  Rng rng(GetParam());
  for (int program = 0; program < 20; ++program) {
    IrBuilder ir;
    const std::uint32_t locals = 1 + static_cast<std::uint32_t>(
                                         rng.next_below(4));
    ir.locals(locals);
    int depth = 0;
    const int steps = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < steps; ++i) {
      switch (rng.next_below(6)) {
        case 0:
          ir.const_val(Value(static_cast<std::int32_t>(rng.next_u64() % 100)));
          ++depth;
          break;
        case 1:
          ir.load_local(static_cast<std::int32_t>(rng.next_below(locals)));
          ++depth;
          break;
        case 2:
          if (depth >= 1) {
            ir.store_local(static_cast<std::int32_t>(rng.next_below(locals)));
            --depth;
          }
          break;
        case 3:
          if (depth >= 2) {
            ir.add();
            --depth;
          }
          break;
        case 4:
          if (depth >= 1) {
            ir.dup();
            ++depth;
          }
          break;
        default:
          if (depth >= 1) {
            ir.pop();
            --depth;
          }
          break;
      }
    }
    while (depth > 0) {
      ir.pop();
      --depth;
    }
    ir.ret_void();
    const auto errors = analysis::verify(ir.build());
    EXPECT_TRUE(errors.empty())
        << "seed " << GetParam() << " program " << program << ": "
        << errors.front().message;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- Lint golden fixtures: every rule ID detects its seeded violation ------

model::AppModel parse(const std::string& source) {
  return dsl::parse_program(source);
}

TEST(Lint, Msv001SecretFlowIntoUntrustedCallAndIntrinsic) {
  const auto report = analysis::lint(parse(R"(
    class Secrets @Trusted {
      field pin;
      ctor(v) { this.pin = v; }
      method leak(s) {
        s.store(this.pin);
        @io_write("f", this.pin);
      }
    }
    class Sink @Untrusted {
      field v;
      ctor() { this.v = 0; }
      method store(x) { this.v = x; }
    }
    class Main @Untrusted {
      static method main() {
        sec = new Secrets(1234);
        sink = new Sink();
        sec.leak(sink);
      }
    }
    main Main;
  )"));
  const auto findings = of_rule(report, "MSV001");
  ASSERT_EQ(findings.size(), 2u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].cls, "Secrets");
  EXPECT_EQ(findings[0].method, "leak");
  EXPECT_EQ(findings[0].pc, 3);  // the s.store(...) call
  EXPECT_EQ(findings[1].pc, 8);  // the @io_write intrinsic
  EXPECT_EQ(report.errors(), 2u) << "no other rule should fire";
}

TEST(Lint, Msv002NeutralFieldWrittenTrustedReadUntrusted) {
  const auto report = analysis::lint(parse(R"(
    class Counter {
      field n;
      ctor() { this.n = 0; }
      method bump() { this.n = this.n + 1; }
      method get() { return this.n; }
    }
    class Keeper @Trusted {
      field c;
      ctor() { this.c = new Counter(); }
      method touch() { this.c.bump(); }
    }
    class Main @Untrusted {
      static method main() {
        k = new Keeper();
        c = new Counter();
        c.get();
        k.touch();
      }
    }
    main Main;
  )"));
  const auto findings = of_rule(report, "MSV002");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].cls, "Counter");
  EXPECT_EQ(findings[0].method, "bump");
  EXPECT_EQ(findings[0].pc, 5);  // the put_field of `n`
  EXPECT_NE(findings[0].message.find("`n`"), std::string::npos);
}

TEST(Lint, Msv003PrivateConstructorAcrossPartition) {
  // The transformer relays only public methods; a class whose constructor
  // is private gets no construction relay, so a cross-partition `new`
  // fails at run time. DSL constructors are always public, so build the
  // model directly.
  model::AppModel app;
  auto& box = app.add_class("SecretBox", Annotation::kTrusted);
  box.add_constructor(0).set_private().body(IrBuilder().ret_void().build());
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(
      IrBuilder().new_object("SecretBox", 0).pop().ret_void().build());
  app.set_main_class("Main");

  const auto report = analysis::lint(app);
  const auto findings = of_rule(report, "MSV003");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].cls, "Main");
  EXPECT_EQ(findings[0].method, "main");
  EXPECT_EQ(findings[0].pc, 0);
}

TEST(Lint, Msv003NeutralCodeInstantiatesPartitionedClass) {
  const auto report = analysis::lint(parse(R"(
    class Vaultlet @Trusted {
      method ping() { return 1; }
    }
    class Helper {
      method make() { return new Vaultlet(); }
    }
    class Main @Untrusted {
      static method main() { h = new Helper(); }
    }
    main Main;
  )"));
  const auto findings = of_rule(report, "MSV003");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].cls, "Helper");
  EXPECT_EQ(findings[0].method, "make");
  EXPECT_EQ(findings[0].pc, 0);
}

TEST(Lint, Msv004DanglingAndPrivateCrossPartitionHints) {
  model::AppModel app;
  auto& vault = app.add_class("Vault", Annotation::kTrusted);
  vault.add_method("open", 0).set_private().body(
      IrBuilder().ret_void().build());
  auto& driver = app.add_class("Driver", Annotation::kUntrusted);
  driver.add_static_method("go", 0)
      .body_native([](model::NativeCall&) { return Value(); })
      .calls("Ghost", "boo")    // dangling: no such class
      .calls("Vault", "open");  // private across the boundary: never relayed
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder().ret_void().build());
  app.set_main_class("Main");

  const auto findings = of_rule(analysis::lint(app), "MSV004");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].cls, "Driver");
  EXPECT_EQ(findings[0].method, "go");
  EXPECT_NE(findings[0].message.find("Ghost.boo"), std::string::npos);
  EXPECT_NE(findings[1].message.find("Vault.open"), std::string::npos);
  EXPECT_NE(findings[1].message.find("private"), std::string::npos);
}

TEST(Lint, Msv004ObservedNativeEdgeMissingFromHints) {
  model::AppModel app;
  auto& store = app.add_class("Store", Annotation::kTrusted);
  store.add_method("put", 0).body(IrBuilder().ret_void().build());
  store.add_method("hidden", 0).body(
      IrBuilder().const_val(Value(std::int32_t{1})).ret().build());
  auto& driver = app.add_class("Driver", Annotation::kUntrusted);
  driver.add_static_method("go", 0)
      .body_native([](model::NativeCall&) { return Value(); })
      .calls("Store", "put");  // hidden() is invoked but never declared
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder().ret_void().build());
  app.set_main_class("Main");

  analysis::LintOptions options;
  options.native_edges.push_back({{"Driver", "go"}, {"Store", "hidden"}});
  const auto report = analysis::lint(app, options);
  const auto findings = of_rule(report, "MSV004");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].cls, "Driver");
  EXPECT_EQ(findings[0].method, "go");
  EXPECT_NE(findings[0].message.find("Store.hidden"), std::string::npos);
}

TEST(Lint, Msv005CallArityMismatch) {
  const auto report = analysis::lint(parse(R"(
    class Box @Trusted {
      field v;
      ctor() { this.v = 0; }
      method set(x) { this.v = x; }
    }
    class Main @Untrusted {
      static method main() {
        b = new Box();
        b.set(1, 2);
      }
    }
    main Main;
  )"));
  const auto findings = of_rule(report, "MSV005");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].cls, "Main");
  EXPECT_EQ(findings[0].method, "main");
  EXPECT_EQ(findings[0].pc, 5);  // the b.set(1, 2) call
}

TEST(Lint, Msv005NonPrimitiveIntoPrimitiveSignature) {
  model::AppModel app;
  auto& box = app.add_class("Box", Annotation::kTrusted);
  box.add_field("v");
  auto& set = box.add_method("set", 1);
  set.primitive_signature();
  set.body(IrBuilder()
               .load_local(0)
               .load_local(1)
               .put_field(0)
               .ret_void()
               .build());
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder()
                                                 .new_object("Box", 0)
                                                 .const_val(Value("oops"))
                                                 .call("set", 1)
                                                 .pop()
                                                 .ret_void()
                                                 .build());
  app.set_main_class("Main");

  const auto findings = of_rule(analysis::lint(app), "MSV005");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].cls, "Main");
  EXPECT_EQ(findings[0].method, "main");
  EXPECT_EQ(findings[0].pc, 2);  // the call site
  EXPECT_NE(findings[0].message.find("string"), std::string::npos);
}

TEST(Lint, Msv005PrimitiveSignatureReturnsNonPrimitive) {
  model::AppModel app;
  auto& box = app.add_class("Box", Annotation::kTrusted);
  auto& get = box.add_method("get", 0);
  get.primitive_signature();
  get.body(IrBuilder().const_val(Value("secret")).ret().build());
  const auto findings = of_rule(analysis::lint(app), "MSV005");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].cls, "Box");
  EXPECT_EQ(findings[0].method, "get");
  EXPECT_EQ(findings[0].pc, -1);  // a property of the method, not one pc
}

TEST(Lint, Msv006CrossBoundaryReferenceCycle) {
  const auto report = analysis::lint(parse(R"(
    class Alpha @Trusted {
      field peer;
      ctor() { this.peer = new Beta(); }
    }
    class Beta @Untrusted {
      field peer;
      ctor() { this.peer = 0; }
      method link() { this.peer = new Alpha(); }
    }
    class Main @Untrusted {
      static method main() {
        b = new Beta();
        b.link();
      }
    }
    main Main;
  )"));
  const auto findings = of_rule(report, "MSV006");
  ASSERT_EQ(findings.size(), 1u) << report.to_text();
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].cls, "Alpha");  // anchored at the first store edge
  EXPECT_EQ(findings[0].method, "<init>");
  EXPECT_NE(findings[0].message.find("Alpha"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Beta"), std::string::npos);
}

TEST(Lint, Msv007MalformedBytecodeSurfacesThroughLint) {
  model::AppModel app;
  auto& cls = app.add_class("Broken", Annotation::kUntrusted);
  cls.add_method("run", 0).body(raw_body({{Op::kJump, 99, 0}}));
  const auto findings = of_rule(analysis::lint(app), "MSV007");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].cls, "Broken");
  EXPECT_EQ(findings[0].method, "run");
  EXPECT_EQ(findings[0].pc, 0);
}

TEST(Lint, Msv008UnregisteredTelemetryCategory) {
  // With the live prefix table every woven relay name ("ecall_relay_...",
  // "ocall_relay_...") is covered, so the rule is quiet by default; an
  // options override simulates a telemetry registry that has dropped the
  // relay prefixes and must produce one informational finding per would-be
  // transition.
  model::AppModel app;
  auto& box = app.add_class("Box", Annotation::kTrusted);
  box.add_method("get", 0).body(
      IrBuilder().const_val(Value(std::int32_t{1})).ret().build());
  app.set_main_class("Box");

  EXPECT_TRUE(of_rule(analysis::lint(app), "MSV008").empty())
      << "default prefix table covers every woven relay";

  analysis::LintOptions options;
  options.telemetry_call_prefixes = {"ecall_gc_", "ocall_gc_"};
  const auto findings = of_rule(analysis::lint(app, options), "MSV008");
  // One finding per relay transition: get() plus the default-constructor
  // relay the transformer always weaves.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].severity, Severity::kInfo);
  EXPECT_EQ(findings[0].cls, "Box");
  bool saw_get = false;
  for (const auto& f : findings) {
    if (f.method == "get") {
      saw_get = true;
      EXPECT_NE(f.message.find("ecall_relay_Box_get"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_get);
}

TEST(Lint, Msv009BatchAsyncUnsafeBodies) {
  // Golden fixture: three batch_async() declarations — a pure field
  // setter (clean), a body that prints (I/O sink: reordering it within a
  // batched flush reorders externally observable output), and a body that
  // calls another method (effects on other objects).
  model::AppModel app;
  auto& box = app.add_class("Box", Annotation::kTrusted);
  box.add_field("value");
  box.add_method("set", 1).batch_async().body(IrBuilder()
                                                  .locals(2)
                                                  .load_local(0)
                                                  .load_local(1)
                                                  .put_field(0)
                                                  .ret_void()
                                                  .build());
  box.add_method("log", 1).batch_async().body(IrBuilder()
                                                  .locals(2)
                                                  .load_local(1)
                                                  .intrinsic("print", 1)
                                                  .pop()
                                                  .ret_void()
                                                  .build());
  box.add_method("poke", 0).batch_async().body(IrBuilder()
                                                   .locals(1)
                                                   .load_local(0)
                                                   .const_val(Value(
                                                       std::int32_t{1}))
                                                   .call("set", 1)
                                                   .pop()
                                                   .ret_void()
                                                   .build());
  app.set_main_class("Box");

  const auto findings = of_rule(analysis::lint(app), "MSV009");
  ASSERT_EQ(findings.size(), 2u);
  for (const auto& f : findings) {
    EXPECT_EQ(f.severity, Severity::kWarning);
    EXPECT_EQ(f.cls, "Box");
  }
  bool saw_log = false;
  bool saw_poke = false;
  for (const auto& f : findings) {
    if (f.method == "log") {
      saw_log = true;
      EXPECT_NE(f.message.find("'print'"), std::string::npos);
    }
    if (f.method == "poke") {
      saw_poke = true;
      EXPECT_NE(f.message.find("calls 'set'"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_log);
  EXPECT_TRUE(saw_poke);

  // Audited declarations are suppressed per-method via the exempt list.
  analysis::LintOptions options;
  options.batch_reorder_exempt = {"Box.log", "Box.poke"};
  EXPECT_TRUE(of_rule(analysis::lint(app, options), "MSV009").empty());
}

// ---- Lint: the clean corpus produces zero findings -------------------------

TEST(Lint, BankAppIsClean) {
  const auto report = analysis::lint(apps::build_bank_app(true));
  EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST(Lint, MicroAppIsClean) {
  const auto report = analysis::lint(apps::synthetic::build_micro_app());
  EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST(Lint, SyntheticGeneratorOutputIsClean) {
  for (const auto work :
       {apps::synthetic::WorkKind::kCpu, apps::synthetic::WorkKind::kIo}) {
    apps::synthetic::SyntheticSpec spec;
    spec.n_classes = 16;
    spec.untrusted_fraction = 0.5;
    spec.work = work;
    const auto report = analysis::lint(apps::synthetic::generate(spec));
    EXPECT_TRUE(report.empty()) << report.to_text();
  }
}

// ---- Diagnostics engine ----------------------------------------------------

TEST(Diag, BaselineSuppressesKnownFindings) {
  model::AppModel app;
  auto& cls = app.add_class("Broken", Annotation::kUntrusted);
  cls.add_method("run", 0).body(raw_body({{Op::kJump, 99, 0}}));
  analysis::Report report = analysis::lint(app);
  ASSERT_EQ(report.errors(), 1u);

  const analysis::Baseline baseline = report.to_baseline();
  EXPECT_TRUE(baseline.contains("MSV007 Broken.run"));
  report.apply_baseline(baseline);
  EXPECT_EQ(report.errors(), 0u) << "baselined findings do not count";
  EXPECT_TRUE(report.diagnostics().front().suppressed);

  // Round-trip through the file format.
  const analysis::Baseline reparsed =
      analysis::Baseline::parse(baseline.to_text());
  EXPECT_EQ(reparsed.size(), baseline.size());
}

TEST(Diag, JsonReportShape) {
  model::AppModel app;
  auto& cls = app.add_class("Broken", Annotation::kUntrusted);
  cls.add_method("run", 0).body(raw_body({{Op::kJump, 99, 0}}));
  const analysis::Report report = analysis::lint(app);
  const std::string json =
      report.to_json(analysis::lint_rule_ids(), report.stats(), "unit");
  EXPECT_NE(json.find("\"schema\": \"msvlint-report-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"target\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"MSV007\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"methods_analyzed\""), std::string::npos);
  // The timing object is unconditional: every rule the linter ran has an
  // entry even with zero diagnostics.
  EXPECT_NE(json.find("\"rule_timings\""), std::string::npos);
  EXPECT_NE(json.find("\"MSV003\":"), std::string::npos)
      << "zero-diagnostic rules keep their timing entry in v2";
}

TEST(Diag, RuleCatalogueIsStable) {
  const auto ids = analysis::lint_rule_ids();
  ASSERT_EQ(ids.size(), 10u);
  EXPECT_EQ(ids.front(), "MSV001");
  EXPECT_EQ(ids.back(), "MSV010");
}

// ---- Interpreter: TrapError bounds checks ----------------------------------
//
// Every body here used to index past a pool (UB) or silently exit the
// dispatch loop; the interpreter now raises a typed TrapError.

core::NativeApp make_trap_app(IrBody bad_body) {
  model::AppModel app;
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder().ret_void().build());
  main_cls.add_static_method("bad", 0).body(std::move(bad_body));
  app.set_main_class("Main");
  core::AppConfig config;
  config.extra_entry_points = {{"Main", "bad"}};
  return core::NativeApp(app, config);
}

TEST(InterpTrap, ConstantPoolIndexOutOfBounds) {
  auto app = make_trap_app(
      raw_body({{Op::kConst, 7, 0}, {Op::kReturnVoid, 0, 0}}));
  EXPECT_THROW(app.context().invoke_static("Main", "bad", {}), TrapError);
}

TEST(InterpTrap, LocalIndexOutOfBounds) {
  auto app = make_trap_app(raw_body(
      {{Op::kLoadLocal, 9, 0}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}}));
  EXPECT_THROW(app.context().invoke_static("Main", "bad", {}), TrapError);
}

TEST(InterpTrap, JumpTargetOutOfBounds) {
  // Previously a wild jump silently exited the dispatch loop (an implicit
  // void return); it must trap instead.
  auto app = make_trap_app(raw_body({{Op::kJump, 5, 0}}));
  EXPECT_THROW(app.context().invoke_static("Main", "bad", {}), TrapError);
}

TEST(InterpTrap, NamePoolIndexOutOfBounds) {
  auto app = make_trap_app(raw_body(
      {{Op::kNew, 3, 0}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}}));
  EXPECT_THROW(app.context().invoke_static("Main", "bad", {}), TrapError);
}

TEST(InterpTrap, NegativeArgumentCount) {
  auto app = make_trap_app(raw_body(
      {{Op::kCall, 0, -1}, {Op::kPop, 0, 0}, {Op::kReturnVoid, 0, 0}},
      {}, {"x"}));
  EXPECT_THROW(app.context().invoke_static("Main", "bad", {}), TrapError);
}

TEST(InterpTrap, FieldIndexOutOfBounds) {
  model::AppModel app;
  auto& box = app.add_class("Box", Annotation::kUntrusted);
  box.add_field("only");
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder().ret_void().build());
  main_cls.add_static_method("bad", 0).body(
      raw_body({{Op::kNew, 0, 0},
                {Op::kGetField, 5, 0},
                {Op::kPop, 0, 0},
                {Op::kReturnVoid, 0, 0}},
               {}, {"Box"}));
  app.set_main_class("Main");
  core::AppConfig config;
  config.extra_entry_points = {{"Main", "bad"}};
  core::NativeApp native(app, config);
  EXPECT_THROW(native.context().invoke_static("Main", "bad", {}), TrapError);
}

TEST(InterpTrap, CleanBodiesStillExecute) {
  auto app = make_trap_app(
      IrBuilder().const_val(Value(std::int32_t{41})).ret().build());
  EXPECT_EQ(app.context().invoke_static("Main", "bad", {}).as_i32(), 41);
  app.run_main();
}

// ---- Interpreter: the verify gate ------------------------------------------

TEST(VerifyGate, RefusesUnverifiedBytecodeBeforeExecuting) {
  // The jump-to-5 body would trap mid-method; with the gate armed it is
  // rejected at dispatch, before a single instruction runs.
  auto app = make_trap_app(raw_body({{Op::kJump, 5, 0}}));
  app.context().set_verify_bytecode(true);
  try {
    app.context().invoke_static("Main", "bad", {});
    FAIL() << "expected TrapError";
  } catch (const TrapError& e) {
    EXPECT_NE(std::string(e.what()).find("verify gate"), std::string::npos);
  }
}

TEST(VerifyGate, VerifiedBytecodeRunsNormally) {
  auto app = make_trap_app(
      IrBuilder().const_val(Value(std::int32_t{7})).ret().build());
  app.context().set_verify_bytecode(true);
  EXPECT_EQ(app.context().invoke_static("Main", "bad", {}).as_i32(), 7);
}

TEST(VerifyGate, AppConfigArmsGateAcrossRunners) {
  core::AppConfig config;
  config.verify_bytecode = true;
  core::PartitionedApp partitioned(apps::build_bank_app(), config);
  partitioned.run_main();  // the whole bank flow verifies and runs
  core::NativeApp native(apps::build_bank_app(), config);
  native.run_main();
  // Every isolate of a multi-isolate enclave is armed too.
  core::PartitionedApp tenants(apps::build_bank_app(), 2, config);
  for (std::uint32_t i = 0; i < tenants.isolate_count(); ++i) {
    EXPECT_TRUE(tenants.trusted_context(i).verify_bytecode()) << i;
  }
  EXPECT_TRUE(tenants.untrusted_context().verify_bytecode());
}

// ---- Native call-edge tracing (the MSV004 dry run) -------------------------

TEST(NativeEdges, TracerRecordsOnlyNativeCallerEdges) {
  model::AppModel app;
  auto& store = app.add_class("Store", Annotation::kNeutral);
  store.add_method("hidden", 0).body(
      IrBuilder().const_val(Value(std::int32_t{1})).ret().build());
  auto& driver = app.add_class("Driver", Annotation::kUntrusted);
  driver.add_static_method("go", 0).body_native([](model::NativeCall& call) {
    const Value s = call.ctx.construct("Store", {});
    return call.ctx.invoke(s.as_ref(), "hidden", {});
  });
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder().ret_void().build());
  app.set_main_class("Main");

  core::AppConfig config;
  config.root_everything = true;  // agent-style open world for the dry run
  core::NativeApp native(app, config);
  native.context().enable_native_edge_tracing();
  native.run_main();
  EXPECT_TRUE(native.context().native_edges().empty())
      << "bytecode-only execution records no native edges";
  native.context().invoke_static("Driver", "go", {});
  const auto& edges = native.context().native_edges();
  const interp::ExecContext::MethodRef caller{"Driver", "go"};
  const interp::ExecContext::MethodRef callee{"Store", "hidden"};
  EXPECT_EQ(edges.count({caller, callee}), 1u);
  for (const auto& edge : edges) {
    EXPECT_EQ(edge.first, caller) << "only native frames record edges";
  }
}

// ---- AppConfig::lint_partition gate ----------------------------------------

TEST(LintGate, CleanAppBuildsWithLintEnabled) {
  core::AppConfig config;
  config.lint_partition = true;
  core::PartitionedApp app(apps::build_bank_app(true), config);
  app.run_main();
}

TEST(LintGate, LeakyAppIsRejected) {
  const model::AppModel leaky = parse(R"(
    class Secrets @Trusted {
      field pin;
      ctor(v) { this.pin = v; }
      method leak(s) { s.store(this.pin); }
    }
    class Sink @Untrusted {
      field v;
      ctor() { this.v = 0; }
      method store(x) { this.v = x; }
    }
    class Main @Untrusted {
      static method main() { sec = new Secrets(9); }
    }
    main Main;
  )");
  core::AppConfig config;
  config.lint_partition = true;
  EXPECT_THROW(core::PartitionedApp(leaky, config), ConfigError);
  EXPECT_THROW(core::PartitionedApp(leaky, 2, config), ConfigError);
  config.lint_partition = false;
  core::PartitionedApp builds_without_gate(leaky, config);
}

// ---- msvlint driver --------------------------------------------------------

TEST(Driver, BuiltInTargetsLintCleanAndEmitJson) {
  apps::msvlint::DriverOptions options;
  options.bank = true;
  options.micro = true;
  options.synthetic_classes = 8;
  options.json_path = "-";
  std::ostringstream out, err;
  EXPECT_EQ(apps::msvlint::run_driver(options, out, err), 0);
  EXPECT_NE(out.str().find("msvlint-report-v2"), std::string::npos);
  EXPECT_NE(out.str().find("0 error(s)"), std::string::npos);
}

TEST(Driver, BaselineWorkflowSuppressesSeededViolations) {
  const std::string dir = ::testing::TempDir();
  const std::string source_path = dir + "/leaky.msv";
  const std::string baseline_path = dir + "/msvlint-baseline.txt";
  {
    std::ofstream src(source_path);
    src << R"(
      class Secrets @Trusted {
        field pin;
        ctor(v) { this.pin = v; }
        method leak(s) { s.store(this.pin); }
      }
      class Sink @Untrusted {
        field v;
        ctor() { this.v = 0; }
        method store(x) { this.v = x; }
      }
      class Main @Untrusted {
        static method main() { sec = new Secrets(9); }
      }
      main Main;
    )";
  }
  apps::msvlint::DriverOptions options;
  options.dsl_paths = {source_path};
  options.write_baseline_path = baseline_path;
  std::ostringstream out1, err1;
  EXPECT_EQ(apps::msvlint::run_driver(options, out1, err1), 1)
      << "unsuppressed errors fail the run";
  EXPECT_NE(out1.str().find("MSV001"), std::string::npos);

  options.write_baseline_path.clear();
  options.baseline_path = baseline_path;
  std::ostringstream out2, err2;
  EXPECT_EQ(apps::msvlint::run_driver(options, out2, err2), 0)
      << "baselined findings no longer fail";
  EXPECT_NE(out2.str().find("suppressed"), std::string::npos);
}

TEST(Driver, ListRules) {
  apps::msvlint::DriverOptions options;
  options.list_rules = true;
  std::ostringstream out, err;
  EXPECT_EQ(apps::msvlint::run_driver(options, out, err), 0);
  EXPECT_NE(out.str().find("MSV001"), std::string::npos);
  EXPECT_NE(out.str().find("MSV007"), std::string::npos);
  EXPECT_NE(out.str().find("MSV010"), std::string::npos);
}

// ---- Value-granular trust analysis (DESIGN.md §15) -------------------------

// The canonical MSV010 fixture: `pin` holds enclave-confined key material,
// `note` only ever holds the constant the untrusted main passed in.
const char* kSecretsFixture = R"(
  class Secrets @Trusted {
    field pin;
    field note;
    ctor(v) { this.pin = @enclave_secret(1); this.note = v; }
  }
  class Main @Untrusted {
    static method main() { s = new Secrets(7); }
  }
  main Main;
)";

TEST(Trust, ConstStoresArePublicSecretIntrinsicIsSecret) {
  const analysis::TrustFacts facts =
      analysis::analyze_trust(parse(kSecretsFixture));
  EXPECT_TRUE(facts.converged);
  EXPECT_TRUE(analysis::trust_may_be_secret(facts.field("Secrets", 0)))
      << "enclave_secret() results are enclave-confined";
  EXPECT_EQ(facts.field("Secrets", 1), analysis::Trust::kPublic)
      << "a constant passed in from the untrusted side is public";
  EXPECT_EQ(facts.secret_classes(), std::set<std::string>{"Secrets"});
  EXPECT_EQ(facts.field("Nope", 0), analysis::Trust::kBottom);
}

TEST(Trust, DemotableTrustedFieldsAndPolicyPins) {
  const model::AppModel app = parse(kSecretsFixture);
  const auto demotable =
      analysis::analyze_trust(app).demotable_trusted_fields(app);
  ASSERT_EQ(demotable.size(), 1u);
  EXPECT_EQ(demotable[0], (analysis::FieldKey{"Secrets", 1}));

  // Policy-pinned fields model out-of-band provisioning the analysis
  // cannot see; a pinned field is never demotable.
  analysis::TrustOptions options;
  options.pinned_secret_fields = {"Secrets.note"};
  const auto facts = analysis::analyze_trust(app, options);
  EXPECT_TRUE(analysis::trust_may_be_secret(facts.field("Secrets", 1)));
  EXPECT_TRUE(facts.demotable_trusted_fields(app).empty());
}

TEST(Trust, InterproceduralReturnTrustFlowsThroughSummaries) {
  const model::AppModel app = parse(R"(
    class Vault @Trusted {
      field key;
      ctor() { this.key = @enclave_secret(2); }
      method get() { return this.key; }
    }
    class Holder @Trusted {
      field got;
      ctor(v) { this.got = v.get(); }
    }
    class Main @Untrusted {
      static method main() { h = new Holder(new Vault()); }
    }
    main Main;
  )");
  const analysis::TrustFacts facts = analysis::analyze_trust(app);
  EXPECT_TRUE(analysis::trust_may_be_secret(facts.field("Holder", 0)))
      << "Vault.get()'s secret return must reach Holder.got";
  const auto it = facts.context_summaries.find(
      analysis::TrustSummaryKey{"Vault", "get", "Vault"});
  ASSERT_NE(it, facts.context_summaries.end())
      << "monomorphic call site records a {Vault} receiver-set context";
  EXPECT_TRUE(analysis::trust_may_be_secret(it->second));
}

TEST(Trust, ReceiverSetContextsDoNotCrossPollute) {
  // K.echo is called twice: once through a monomorphic {K} receiver with a
  // public argument, once through a widened {K, L} receiver with a secret.
  // Summaries are keyed by the receiver-set context, so the wide call must
  // not pollute the monomorphic "K" summary.
  const model::AppModel app = parse(R"(
    class K @Trusted {
      field v;
      ctor() { this.v = 0; }
      method echo(x) { return x; }
    }
    class L @Trusted {
      field v;
      ctor() { this.v = 0; }
      method echo(x) { return x; }
    }
    class Main @Untrusted {
      static method main() {
        k = new K();
        p = k.echo(3);
        r = new K();
        if (p == 3) { r = new L(); }
        s = r.echo(@enclave_secret(9));
      }
    }
    main Main;
  )");
  const analysis::TrustFacts facts = analysis::analyze_trust(app);
  const auto& cs = facts.context_summaries;
  const auto mono = cs.find(analysis::TrustSummaryKey{"K", "echo", "K"});
  ASSERT_NE(mono, cs.end());
  EXPECT_EQ(mono->second, analysis::Trust::kPublic)
      << "the secret at the {K, L} site must not widen the {K} summary";
  const auto wide = cs.find(analysis::TrustSummaryKey{"K", "echo", "K|L"});
  ASSERT_NE(wide, cs.end());
  EXPECT_TRUE(analysis::trust_may_be_secret(wide->second));
  const auto wide_l = cs.find(analysis::TrustSummaryKey{"L", "echo", "K|L"});
  ASSERT_NE(wide_l, cs.end());
  EXPECT_TRUE(analysis::trust_may_be_secret(wide_l->second));
}

TEST(Trust, NativeBodiesAreOpaque) {
  const analysis::TrustFacts facts =
      analysis::analyze_trust(apps::synthetic::build_micro_app());
  // Driver's bodies are native lambdas: its own fields widen to kMixed...
  EXPECT_EQ(facts.field("Driver", 0), analysis::Trust::kMixed);
  // ...and Worker.set is a declared callee of native code, so it is
  // analyzed under the all-kMixed "*" context and Worker.value may carry
  // anything.
  EXPECT_TRUE(analysis::trust_may_be_secret(facts.field("Worker", 0)));
}

// ---- MSV010 golden fixture -------------------------------------------------

TEST(Lint, Msv010FlagsProvablyPublicTrustedFields) {
  const model::AppModel app = parse(kSecretsFixture);
  analysis::LintOptions options;
  options.trust_analysis = true;
  const auto report = analysis::lint(app, options);
  const auto diags = of_rule(report, "MSV010");
  ASSERT_EQ(diags.size(), 1u) << report.to_text();
  EXPECT_EQ(diags[0].severity, Severity::kInfo);
  EXPECT_EQ(diags[0].cls, "Secrets");
  EXPECT_EQ(diags[0].method, "note") << "the field rides the method slot";
  EXPECT_NE(diags[0].message.find("demotion candidate"), std::string::npos);
  EXPECT_TRUE(report.to_baseline().contains("MSV010 Secrets.note"));
  EXPECT_EQ(report.errors(), 0u) << "MSV010 is informational";
}

TEST(Lint, Msv010OffByDefaultAndRespectsPins) {
  const model::AppModel app = parse(kSecretsFixture);
  // Default LintOptions keep the historical rule set (the embedded
  // AppConfig::lint_partition gate must not grow new findings).
  EXPECT_TRUE(of_rule(analysis::lint(app), "MSV010").empty());

  analysis::LintOptions options;
  options.trust_analysis = true;
  options.trust.pinned_secret_fields = {"Secrets.note"};
  EXPECT_TRUE(of_rule(analysis::lint(app, options), "MSV010").empty());
}

// ---- Absint fixpoint convergence on loop-heavy CFGs ------------------------

TEST(AbsintConvergence, SimpleLoopReachesFixpoint) {
  // i = 0; while (i < 10) { i = i + 1; } return i;
  IrBuilder b;
  const std::int32_t head = b.new_label();
  const std::int32_t exit = b.new_label();
  b.locals(1)
      .const_val(Value(std::int32_t{0}))
      .store_local(0)
      .bind(head)
      .load_local(0)
      .const_val(Value(std::int32_t{10}))
      .lt()
      .branch_false(exit)
      .load_local(0)
      .const_val(Value(std::int32_t{1}))
      .add()
      .store_local(0)
      .jump(head)
      .bind(exit)
      .load_local(0)
      .ret();
  const auto result = analysis::analyze_method(b.build(), {});
  EXPECT_TRUE(result.errors.empty());
  EXPECT_FALSE(result.falls_off_end);
  EXPECT_EQ(result.return_value.kind, analysis::Kind::kI32);
  EXPECT_LE(result.block_visits, 12u)
      << "the back edge must stabilize after one re-visit, not oscillate";
}

TEST(AbsintConvergence, BackEdgeWidensKindInsteadOfOscillating) {
  // x starts i32 and becomes f64 inside the loop: the merge at the loop
  // head must widen the local's kind (to top) and terminate.
  IrBuilder b;
  const std::int32_t head = b.new_label();
  const std::int32_t exit = b.new_label();
  b.locals(1)
      .const_val(Value(std::int32_t{0}))
      .store_local(0)
      .bind(head)
      .load_local(0)
      .const_val(Value(std::int32_t{3}))
      .lt()
      .branch_false(exit)
      .load_local(0)
      .const_val(Value(0.5))
      .add()
      .store_local(0)
      .jump(head)
      .bind(exit)
      .load_local(0)
      .ret();
  const auto result = analysis::analyze_method(b.build(), {});
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.return_value.kind, analysis::Kind::kTop)
      << "i32 joined with f64 widens to top at the loop head";
  EXPECT_LE(result.block_visits, 16u);
}

TEST(AbsintConvergence, NestedLoopsConvergeWithBoundedVisits) {
  // s = 0; for (i = 0; i < 3; i++) for (j = 0; j < 3; j++) s = s + 1;
  IrBuilder b;
  const std::int32_t outer = b.new_label();
  const std::int32_t inner = b.new_label();
  const std::int32_t inner_exit = b.new_label();
  const std::int32_t outer_exit = b.new_label();
  b.locals(3)
      .const_val(Value(std::int32_t{0}))
      .store_local(0)  // s
      .const_val(Value(std::int32_t{0}))
      .store_local(1)  // i
      .bind(outer)
      .load_local(1)
      .const_val(Value(std::int32_t{3}))
      .lt()
      .branch_false(outer_exit)
      .const_val(Value(std::int32_t{0}))
      .store_local(2)  // j
      .bind(inner)
      .load_local(2)
      .const_val(Value(std::int32_t{3}))
      .lt()
      .branch_false(inner_exit)
      .load_local(0)
      .const_val(Value(std::int32_t{1}))
      .add()
      .store_local(0)
      .load_local(2)
      .const_val(Value(std::int32_t{1}))
      .add()
      .store_local(2)
      .jump(inner)
      .bind(inner_exit)
      .load_local(1)
      .const_val(Value(std::int32_t{1}))
      .add()
      .store_local(1)
      .jump(outer)
      .bind(outer_exit)
      .load_local(0)
      .ret();
  const auto result = analysis::analyze_method(b.build(), {});
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.return_value.kind, analysis::Kind::kI32);
  EXPECT_LE(result.block_visits, 40u)
      << "chaotic iteration over a 2-deep loop nest stays bounded";
}

TEST(AbsintConvergence, LoopMergeDepthMismatchReportedOnceAndTerminates) {
  // Each trip around the loop pushes one operand, so the back edge carries
  // a deeper stack than the entry. The join truncates to the shallower
  // depth (keeping the analysis total), reports the merge exactly once,
  // and still reaches a fixpoint.
  IrBuilder b;
  const std::int32_t head = b.new_label();
  b.bind(head).const_val(Value(std::int32_t{1})).jump(head);
  const auto result = analysis::analyze_method(b.build(), {});
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].message.find("stack depth"), std::string::npos);
  EXPECT_LE(result.block_visits, 4u);
}

// ---- Call profiling (the optimizer's telemetry input) ----------------------

TEST(Profiling, CallCountsRecordProfiledEdges) {
  apps::synthetic::SyntheticSpec spec;
  spec.n_classes = 3;
  spec.extra_work_calls = 2;
  core::NativeApp native(apps::synthetic::generate(spec));
  native.context().enable_call_profiling();
  native.run_main();
  const auto profile =
      analysis::CallProfile::from_context(native.context());
  using MethodRef = analysis::CallProfile::MethodRef;
  const MethodRef main_ref{"Main", "main"};
  EXPECT_EQ(profile.edges.at({{"<entry>", ""}, main_ref}), 1u);
  EXPECT_EQ(profile.edges.at({main_ref, {"C0", "work"}}), 3u)
      << "one base call plus extra_work_calls";
  EXPECT_EQ(profile.invocation_counts().at({"C2", "work"}), 3u);
  EXPECT_GE(profile.class_edges().at({"Main", "C1"}), 3u);
  EXPECT_GE(profile.total_calls(), 10u);
}

// ---- Partition optimizer ---------------------------------------------------

// One untrusted Main driving a @Trusted class P with no secrets: the
// textbook demotion case.
model::AppModel make_hot_callee_app() {
  model::AppModel app;
  auto& p = app.add_class("P", Annotation::kTrusted);
  p.add_field("state");
  p.add_constructor(0).body(IrBuilder()
                                .locals(1)
                                .load_local(0)
                                .const_val(Value(std::int32_t{0}))
                                .put_field(0)
                                .ret_void()
                                .build());
  p.add_method("work", 0).body(IrBuilder().locals(1).ret_void().build());
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder()
                                                 .new_object("P", 0)
                                                 .call("work", 0)
                                                 .pop()
                                                 .ret_void()
                                                 .build());
  app.set_main_class("Main");
  app.validate();
  return app;
}

analysis::CallProfile hot_profile(std::uint64_t calls) {
  analysis::CallProfile profile;
  profile.edges[{{"Main", "main"}, {"P", "work"}}] = calls;
  return profile;
}

TEST(Optimizer, MovesHotSecretFreeCalleeOut) {
  const model::AppModel app = make_hot_callee_app();
  analysis::TrustFacts trust;
  trust.field_trust[{"P", 0}] = analysis::Trust::kPublic;
  const auto plan = analysis::optimize_partition(app, trust,
                                                 hot_profile(100),
                                                 CostModel::paper());
  ASSERT_NE(plan.find("P"), nullptr);
  EXPECT_EQ(plan.find("P")->after, Annotation::kUntrusted);
  EXPECT_EQ(plan.moved, std::vector<std::string>{"P"});
  EXPECT_EQ(plan.crossings_before, 100u);
  EXPECT_EQ(plan.crossings_after, 0u);
  EXPECT_LT(plan.modeled_cost_after, plan.modeled_cost_before);
  EXPECT_EQ(plan.find("Main")->after, Annotation::kUntrusted)
      << "the main class is always pinned untrusted";
  EXPECT_NE(plan.to_json().find("msvlint-partition-plan-v1"),
            std::string::npos);
}

TEST(Optimizer, SecretCarryingClassesArePinnedInside) {
  const model::AppModel app = make_hot_callee_app();
  analysis::TrustFacts trust;
  trust.field_trust[{"P", 0}] = analysis::Trust::kSecret;
  const auto plan = analysis::optimize_partition(app, trust,
                                                 hot_profile(100),
                                                 CostModel::paper());
  ASSERT_NE(plan.find("P"), nullptr);
  EXPECT_EQ(plan.find("P")->after, Annotation::kTrusted)
      << "no crossing saving justifies moving a secret out";
  EXPECT_FALSE(plan.changed());
  EXPECT_EQ(plan.crossings_after, plan.crossings_before);
}

TEST(Optimizer, PolicyPinsRespectedAndConflictsRejected) {
  const model::AppModel app = make_hot_callee_app();
  analysis::TrustFacts trust;
  trust.field_trust[{"P", 0}] = analysis::Trust::kPublic;
  analysis::PartitionPolicy policy;
  policy.pin_trusted = {"P"};
  const auto plan = analysis::optimize_partition(
      app, trust, hot_profile(100), CostModel::paper(), policy);
  EXPECT_EQ(plan.find("P")->after, Annotation::kTrusted);

  policy.pin_untrusted = {"P"};
  EXPECT_THROW(analysis::optimize_partition(app, trust, hot_profile(100),
                                            CostModel::paper(), policy),
               ConfigError);
}

TEST(Optimizer, MinGainRevertsMarginalPlans) {
  // Two trusted callees: S holds a secret and takes 100 crossings, P is
  // public with a single crossing. Moving P saves ~1% of the modeled
  // cost; a 50% min_gain gate must revert the plan.
  model::AppModel app;
  for (const char* name : {"P", "S"}) {
    auto& cls = app.add_class(name, Annotation::kTrusted);
    cls.add_field("state");
    cls.add_constructor(0).body(IrBuilder()
                                    .locals(1)
                                    .load_local(0)
                                    .const_val(Value(std::int32_t{0}))
                                    .put_field(0)
                                    .ret_void()
                                    .build());
    cls.add_method("work", 0).body(IrBuilder().locals(1).ret_void().build());
  }
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(IrBuilder()
                                                 .new_object("P", 0)
                                                 .call("work", 0)
                                                 .pop()
                                                 .new_object("S", 0)
                                                 .call("work", 0)
                                                 .pop()
                                                 .ret_void()
                                                 .build());
  app.set_main_class("Main");
  app.validate();

  analysis::TrustFacts trust;
  trust.field_trust[{"P", 0}] = analysis::Trust::kPublic;
  trust.field_trust[{"S", 0}] = analysis::Trust::kSecret;
  analysis::CallProfile profile;
  profile.edges[{{"Main", "main"}, {"P", "work"}}] = 1;
  profile.edges[{{"Main", "main"}, {"S", "work"}}] = 100;

  analysis::PartitionPolicy policy;
  const auto unrestricted = analysis::optimize_partition(
      app, trust, profile, CostModel::paper(), policy);
  EXPECT_EQ(unrestricted.moved, std::vector<std::string>{"P"});

  policy.min_gain = 0.5;
  const auto gated = analysis::optimize_partition(
      app, trust, profile, CostModel::paper(), policy);
  EXPECT_TRUE(gated.below_min_gain);
  EXPECT_FALSE(gated.changed());
  EXPECT_EQ(gated.crossings_after, gated.crossings_before);
  for (const auto& placement : gated.placements) {
    EXPECT_EQ(placement.after, placement.before);
  }
}

TEST(Optimizer, PlanDigestDeterministicAndSeedSensitive) {
  const model::AppModel app = make_hot_callee_app();
  analysis::TrustFacts trust;
  trust.field_trust[{"P", 0}] = analysis::Trust::kPublic;
  analysis::PartitionPolicy policy;
  const auto a = analysis::optimize_partition(app, trust, hot_profile(100),
                                              CostModel::paper(), policy);
  const auto b = analysis::optimize_partition(app, trust, hot_profile(100),
                                              CostModel::paper(), policy);
  EXPECT_EQ(a.digest, b.digest) << "same inputs, same plan digest";
  policy.seed = 1;
  const auto c = analysis::optimize_partition(app, trust, hot_profile(100),
                                              CostModel::paper(), policy);
  EXPECT_NE(a.digest, c.digest) << "the seed is folded into the digest";
  ASSERT_EQ(a.placements.size(), c.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].after, c.placements[i].after)
        << "the seed perturbs the digest, never the placement";
  }
}

TEST(Optimizer, PropertySecretsNeverLeaveTheEnclave) {
  // Property over seeded generator apps: whatever the profile says, every
  // class the trust analysis proves secret-carrying stays @Trusted, main
  // stays @Untrusted, and crossings never regress.
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    apps::synthetic::SyntheticSpec spec;
    spec.n_classes = 10;
    spec.untrusted_fraction = 0.2;
    spec.secret_fraction = 0.5;
    spec.extra_work_calls = 2;
    spec.seed = seed;
    const model::AppModel app = apps::synthetic::generate(spec);
    core::NativeApp native(app);
    native.context().enable_call_profiling();
    native.run_main();
    const auto profile =
        analysis::CallProfile::from_context(native.context());
    const auto facts = analysis::analyze_trust(app);
    const auto secret = facts.secret_classes();
    EXPECT_FALSE(secret.empty());
    const auto plan = analysis::optimize_partition(app, facts, profile,
                                                   CostModel::paper());
    for (const auto& placement : plan.placements) {
      if (placement.before == Annotation::kTrusted &&
          secret.count(placement.cls) != 0) {
        EXPECT_EQ(placement.after, Annotation::kTrusted)
            << placement.cls << " (seed " << seed << ")";
      }
    }
    EXPECT_EQ(plan.find("Main")->after, Annotation::kUntrusted);
    EXPECT_LE(plan.crossings_after, plan.crossings_before);
    const auto replay = analysis::optimize_partition(app, facts, profile,
                                                     CostModel::paper());
    EXPECT_EQ(plan.digest, replay.digest) << "seed " << seed;
  }
}

// ---- msvlint --fix: apply + replay-verify ----------------------------------

TEST(Driver, FixVerifiesByteIdenticalReplayAndReducesCrossings) {
  // The fig06-style workload: all classes trusted, a quarter holding real
  // secrets. --fix must move the secret-free classes out, replay both
  // partitions twice, and prove byte-identical results with fewer
  // crossings.
  apps::msvlint::DriverOptions options;
  options.synthetic_classes = 12;
  options.synthetic_untrusted = 0.0;
  options.synthetic_secret = 0.25;
  options.fix = true;
  options.quiet = true;
  std::ostringstream out, err;
  EXPECT_EQ(apps::msvlint::run_driver(options, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("byte-identical across 2+2 runs"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("% fewer"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace msv
