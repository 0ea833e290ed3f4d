// Tests for src/transform: bytecode transformer, reachability analysis and
// image builder (pruning, measurement, TCB accounting).
#include <gtest/gtest.h>

#include "apps/illustrative/bank.h"
#include "apps/paldb/model.h"
#include "apps/synthetic/generator.h"
#include "core/app.h"
#include "transform/image_builder.h"
#include "transform/reachability.h"
#include "transform/transformer.h"

namespace msv::xform {
namespace {

using model::Annotation;
using model::MethodKind;

TransformResult transform_bank() {
  return BytecodeTransformer().transform(apps::build_bank_app());
}

TEST(Transformer, NamesFollowThePaper) {
  EXPECT_EQ(relay_method_name("updateBalance"), "relay$updateBalance");
  EXPECT_EQ(relay_method_name("<init>"), "relay$init");
  EXPECT_EQ(transition_name("Account", "updateBalance", true),
            "ecall_relay_Account_updateBalance");
  EXPECT_EQ(transition_name("Person", "transfer", false),
            "ocall_relay_Person_transfer");
}

TEST(Transformer, TrustedSetHasConcreteTrustedAndProxyUntrusted) {
  const TransformResult r = transform_bank();
  const auto& account = r.trusted.cls("Account");
  EXPECT_FALSE(account.is_proxy());
  EXPECT_EQ(account.fields().size(), 2u);

  const auto& person = r.trusted.cls("Person");
  EXPECT_TRUE(person.is_proxy());
  ASSERT_EQ(person.fields().size(), 1u);
  EXPECT_EQ(person.fields()[0].name, "hash");
}

TEST(Transformer, UntrustedSetIsTheMirrorImage) {
  const TransformResult r = transform_bank();
  EXPECT_TRUE(r.untrusted.cls("Account").is_proxy());
  EXPECT_FALSE(r.untrusted.cls("Person").is_proxy());
  EXPECT_EQ(r.untrusted.main_class(), "Main");
  EXPECT_TRUE(r.trusted.main_class().empty())
      << "main lives in the untrusted image (§5.3)";
}

TEST(Transformer, ProxyMethodsAreStubsToTheRightTransitions) {
  const TransformResult r = transform_bank();
  const auto& account_proxy = r.untrusted.cls("Account");
  const auto* update = account_proxy.find_method("updateBalance");
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->kind(), MethodKind::kProxyStub);
  EXPECT_TRUE(update->proxy().via_ecall);
  EXPECT_EQ(update->proxy().relay_name, "ecall_relay_Account_updateBalance");

  const auto& person_proxy = r.trusted.cls("Person");
  const auto* transfer = person_proxy.find_method("transfer");
  ASSERT_NE(transfer, nullptr);
  EXPECT_FALSE(transfer->proxy().via_ecall) << "untrusted target -> ocall";
}

TEST(Transformer, RelayMethodsAddedToConcreteClasses) {
  const TransformResult r = transform_bank();
  const auto& account = r.trusted.cls("Account");
  const auto* relay = account.find_method("relay$updateBalance");
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->kind(), MethodKind::kRelay);
  EXPECT_TRUE(relay->is_static()) << "@CEntryPoint methods must be static";
  EXPECT_EQ(relay->relay().target_method, "updateBalance");
  // Constructor relay exists too (Listing 4's relayAccount).
  EXPECT_NE(account.find_method("relay$init"), nullptr);
}

TEST(Transformer, NeutralClassesUntouched) {
  model::AppModel app = apps::build_bank_app();
  app.add_class("StringUtils", Annotation::kNeutral)
      .add_static_method("pad", 1)
      .body(model::IrBuilder().load_local(0).ret().build());
  const TransformResult r = BytecodeTransformer().transform(app);
  for (const auto* set : {&r.trusted, &r.untrusted}) {
    const auto& c = set->cls("StringUtils");
    EXPECT_FALSE(c.is_proxy());
    EXPECT_EQ(c.find_method("pad")->kind(), MethodKind::kIr);
    EXPECT_EQ(c.find_method("relay$pad"), nullptr)
        << "neutral classes get no relays";
  }
}

TEST(Transformer, PrivateMethodsStrippedFromProxies) {
  model::AppModel app;
  auto& secret = app.add_class("Secret", Annotation::kTrusted);
  secret.add_constructor(0).body(model::IrBuilder().ret_void().build());
  secret.add_method("internal", 0).set_private().body(
      model::IrBuilder().ret_void().build());
  secret.add_method("api", 0).body(model::IrBuilder().ret_void().build());
  app.add_class("Main", Annotation::kUntrusted)
      .add_static_method("main", 0)
      .body(model::IrBuilder().ret_void().build());
  app.set_main_class("Main");

  const TransformResult r = BytecodeTransformer().transform(app);
  const auto& proxy = r.untrusted.cls("Secret");
  EXPECT_EQ(proxy.find_method("internal"), nullptr);
  EXPECT_NE(proxy.find_method("api"), nullptr);
}

TEST(Transformer, DefaultConstructorSynthesized) {
  model::AppModel app;
  auto& t = app.add_class("NoCtor", Annotation::kTrusted);
  t.add_method("work", 0).body(model::IrBuilder().ret_void().build());
  app.add_class("Main", Annotation::kUntrusted)
      .add_static_method("main", 0)
      .body(model::IrBuilder().ret_void().build());
  app.set_main_class("Main");
  const TransformResult r = BytecodeTransformer().transform(app);
  EXPECT_NE(r.trusted.cls("NoCtor").find_method("relay$init"), nullptr);
  EXPECT_NE(r.untrusted.cls("NoCtor").find_method(model::kConstructorName),
            nullptr);
}

TEST(Transformer, EdlListsEveryTransition) {
  const TransformResult r = transform_bank();
  EXPECT_TRUE(r.edl.has_ecall("ecall_relay_Account_updateBalance"));
  EXPECT_TRUE(r.edl.has_ecall("ecall_relay_Account_init"));
  EXPECT_TRUE(r.edl.has_ecall("ecall_relay_AccountRegistry_addAccount"));
  EXPECT_TRUE(r.edl.has_ocall("ocall_relay_Person_transfer"));
  EXPECT_TRUE(r.edl.has_ocall("ocall_relay_Main_main"));
  const std::string text = r.edl.to_edl_text();
  EXPECT_NE(text.find("trusted {"), std::string::npos);
}

TEST(Transformer, RejectsAlreadyTransformedInput) {
  const TransformResult r = transform_bank();
  EXPECT_THROW(BytecodeTransformer().transform(r.trusted), Error);
}

TEST(Reachability, WalksCallAndNewEdges) {
  const model::AppModel app = apps::build_bank_app();
  ReachabilityAnalysis analysis(app);
  const auto result = analysis.analyze({{"Main", "main"}});
  EXPECT_TRUE(result.method_reachable("Person", "transfer"));
  EXPECT_TRUE(result.method_reachable("Account", "updateBalance"));
  EXPECT_TRUE(result.class_reachable("AccountRegistry"));
  EXPECT_TRUE(result.class_instantiated("Person"));
}

TEST(Reachability, NativeCalleeHintsFollowed) {
  const model::AppModel app = apps::build_bank_app();
  ReachabilityAnalysis analysis(app);
  // addAccount is native; its declared callee Account.updateBalance must
  // become reachable even with no bytecode edge.
  const auto result = analysis.analyze({{"AccountRegistry", "addAccount"}});
  EXPECT_TRUE(result.method_reachable("Account", "updateBalance"));
}

TEST(Reachability, UnknownEntryPointThrows) {
  const model::AppModel app = apps::build_bank_app();
  ReachabilityAnalysis analysis(app);
  EXPECT_THROW(analysis.analyze({{"Ghost", "main"}}), ConfigError);
}

TEST(Reachability, UnreachableMethodNotMarked) {
  model::AppModel app;
  auto& c = app.add_class("C");
  c.add_method("used", 0).body(model::IrBuilder().ret_void().build());
  c.add_method("unused", 0).body(model::IrBuilder().ret_void().build());
  auto& m = app.add_class("Main");
  m.add_static_method("main", 0)
      .body(model::IrBuilder()
                .new_object("C", 0)
                .call("used", 0)
                .pop()
                .ret_void()
                .build());
  app.set_main_class("Main");
  const auto result = ReachabilityAnalysis(app).analyze({{"Main", "main"}});
  EXPECT_TRUE(result.method_reachable("C", "used"));
  EXPECT_FALSE(result.method_reachable("C", "unused"));
}

TEST(ImageBuilder, PrunesUnreachableProxies) {
  const TransformResult r = transform_bank();
  const NativeImage trusted = ImageBuilder().build(r.trusted, true);
  // §5.3: "proxy class Person will not be included inside the trusted
  // image since it is not reachable from any of the trusted classes."
  EXPECT_EQ(trusted.classes.find_class("Person"), nullptr);
  EXPECT_GE(trusted.pruned_proxy_count, 1u);
  EXPECT_NE(trusted.classes.find_class("Account"), nullptr);
}

TEST(ImageBuilder, UntrustedImageKeepsReachableProxies) {
  const TransformResult r = transform_bank();
  const NativeImage untrusted = ImageBuilder().build(r.untrusted, false);
  EXPECT_NE(untrusted.classes.find_class("Account"), nullptr);
  EXPECT_TRUE(untrusted.classes.cls("Account").is_proxy());
  EXPECT_NE(untrusted.classes.find_class("Main"), nullptr);
}

TEST(ImageBuilder, EntryPointsFollowSection53) {
  const TransformResult r = transform_bank();
  const NativeImage trusted = ImageBuilder().build(r.trusted, true);
  for (const auto& [cls, method] : trusted.entry_points) {
    EXPECT_EQ(method.rfind("relay$", 0), 0u)
        << "trusted entry points are relay methods, got " << cls << "."
        << method;
  }
  const NativeImage untrusted = ImageBuilder().build(r.untrusted, false);
  const bool has_main =
      std::any_of(untrusted.entry_points.begin(), untrusted.entry_points.end(),
                  [](const MethodRef& m) { return m.second == "main"; });
  EXPECT_TRUE(has_main);
}

TEST(ImageBuilder, MeasurementIsStableAndTamperSensitive) {
  const TransformResult r1 = transform_bank();
  const TransformResult r2 = transform_bank();
  const NativeImage a = ImageBuilder().build(r1.trusted, true);
  const NativeImage b = ImageBuilder().build(r2.trusted, true);
  const std::string edge = sgx::edger8r_trusted_source(r1.edl);
  EXPECT_EQ(core::measure_enclave_blob(a, edge),
            core::measure_enclave_blob(b, sgx::edger8r_trusted_source(r2.edl)))
      << "same input -> same MRENCLAVE";

  NativeImage tampered = ImageBuilder().build(r1.trusted, true);
  tampered.code_bytes ^= 1;
  EXPECT_NE(core::measure_enclave_blob(tampered, edge),
            core::measure_enclave_blob(a, edge));
}

TEST(ImageBuilder, SizeAccountingAddsUp) {
  const TransformResult r = transform_bank();
  const NativeImage img = ImageBuilder().build(r.trusted, true);
  EXPECT_GT(img.code_bytes, 0u);
  EXPECT_EQ(img.total_bytes(),
            img.code_bytes + img.runtime_code_bytes + img.image_heap_bytes);
  EXPECT_GT(img.method_count(), 0u);
}

TEST(ImageBuilder, ImageWithoutEntryPointsIsEmpty) {
  // An application with no @Trusted classes yields an empty (but valid)
  // trusted image.
  model::AppModel set;
  set.add_class("Lonely");
  const NativeImage img = ImageBuilder().build(set, true);
  EXPECT_EQ(img.class_count(), 0u);
  EXPECT_EQ(img.code_bytes, 0u);
}

TEST(ImageBuilder, ProxyClassesPrunedAtClassGranularityOnly) {
  const TransformResult r = transform_bank();
  const NativeImage untrusted = ImageBuilder().build(r.untrusted, false);
  // main never calls getBalance, but the Account proxy keeps the stub:
  // proxies expose the same methods as the original class (§5.2).
  const auto& proxy = untrusted.classes.cls("Account");
  EXPECT_NE(proxy.find_method("getBalance"), nullptr);
}

TEST(ImageBuilder, MoveBuildEqualsCopyBuild) {
  // PartitionedApp moves its transformed sets into the images; every
  // other caller builds from a set it keeps. Both give the same image.
  namespace paldb = apps::paldb;
  const std::pair<const char*, model::AppModel> inputs[] = {
      {"bank", apps::build_bank_app()},
      {"micro", apps::synthetic::build_micro_app()},
      {"paldb", paldb::build_paldb_app(
                    paldb::Scheme::kReaderTrustedWriterUntrusted,
                    paldb::PaldbWorkload{})},
  };
  for (const auto& [name, app] : inputs) {
    const TransformResult r = BytecodeTransformer().transform(app);
    for (const bool trusted : {true, false}) {
      SCOPED_TRACE(std::string(name) + (trusted ? " trusted" : " untrusted"));
      const model::AppModel& set = trusted ? r.trusted : r.untrusted;
      const NativeImage copied = ImageBuilder().build(set, trusted);
      model::AppModel taken = set;
      const NativeImage moved = ImageBuilder().build(std::move(taken), trusted);
      ASSERT_GT(copied.class_count(), 0u);
      EXPECT_EQ(moved.serialize().bytes(), copied.serialize().bytes());
      EXPECT_EQ(moved.entry_points, copied.entry_points);
      EXPECT_EQ(moved.class_count(), copied.class_count());
      EXPECT_EQ(moved.method_count(), copied.method_count());
      EXPECT_EQ(moved.code_bytes, copied.code_bytes);
      EXPECT_EQ(moved.pruned_proxy_count, copied.pruned_proxy_count);
    }
  }
}

}  // namespace
}  // namespace msv::xform
