// Tests for the extension features: the tracing agent (§2.2), the
// sgx-perf-style transition profiler, and the multi-isolate proxy/mirror
// support (future work §7).
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "apps/illustrative/bank.h"
#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"
#include "dsl/parser.h"
#include "rmi/wire.h"
#include "server/server.h"
#include "sgx/profiler.h"

namespace msv {
namespace {

using rt::Value;

// ---- Tracing agent ---------------------------------------------------------

TEST(TracingAgent, RecordsDynamicallyInvokedMethods) {
  core::NativeApp app(apps::build_bank_app());
  app.context().enable_tracing();
  app.run_main();
  const auto& traced = app.context().traced_methods();
  EXPECT_TRUE(traced.count({"Person", "transfer"}));
  EXPECT_TRUE(traced.count({"Account", "updateBalance"}));
  EXPECT_TRUE(traced.count({"Main", "main"}));
  EXPECT_FALSE(traced.count({"Account", "getOwner"}))
      << "never called by main";
}

TEST(TracingAgent, JsonFollowsReflectConfigShape) {
  core::NativeApp app(apps::build_bank_app());
  app.context().enable_tracing();
  app.run_main();
  const std::string json = app.context().trace_to_json();
  EXPECT_NE(json.find("{ \"name\": \"Account\", \"methods\": ["),
            std::string::npos);
  EXPECT_NE(json.find("{ \"name\": \"updateBalance\" }"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(TracingAgent, TraceFeedsExtraEntryPoints) {
  // The workflow the GraalVM agent exists for: a dry run discovers the
  // host-driven methods, whose trace keeps them from being pruned.
  model::AppModel app = apps::build_bank_app(/*with_audit=*/true);

  // The dry run happens in agent mode — the open world of a JVM.
  core::AppConfig agent_config;
  agent_config.root_everything = true;
  core::NativeApp dry_run(app, agent_config);
  dry_run.context().enable_tracing();
  dry_run.run_main();
  auto& ctx = dry_run.context();
  // The host also drives Vault during the dry run.
  const Value vault = ctx.construct("Vault", {});
  ctx.invoke(vault.as_ref(), "audit", {Value("x")});

  core::AppConfig config;
  for (const auto& m : ctx.traced_methods()) {
    config.extra_entry_points.push_back(m);
  }
  core::PartitionedApp partitioned(app, config);
  // Without the trace, Vault's proxy would be pruned and this would throw.
  const Value v = partitioned.untrusted_context().construct("Vault", {});
  partitioned.untrusted_context().invoke(v.as_ref(), "audit", {Value("y")});
  SUCCEED();
}

// ---- Transition profiler ---------------------------------------------------

TEST(Profiler, RanksCallsByOverheadAndRecommends) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  for (int i = 0; i < 2000; ++i) {
    u.invoke(w.as_ref(), "set", {Value(std::int32_t{i})});
  }

  const auto profile =
      sgx::profile_transitions(app.bridge().stats(), app.env().cost,
                               /*min_calls=*/1000, /*small_payload=*/512);
  ASSERT_FALSE(profile.entries.empty());
  EXPECT_EQ(profile.entries.front().name, "ecall_relay_Worker_set")
      << "the hot call dominates the overhead ranking";
  EXPECT_TRUE(profile.entries.front().recommend_switchless);
  EXPECT_LT(profile.overhead_after_switchless_cycles,
            profile.total_overhead_cycles / 2);

  const std::string report =
      sgx::transition_report(profile, app.env().cost);
  EXPECT_NE(report.find("ecall_relay_Worker_set"), std::string::npos);
  EXPECT_NE(report.find("recommend"), std::string::npos);
}

TEST(Profiler, ColdCallsNotRecommended) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  u.invoke(w.as_ref(), "set", {Value(std::int32_t{1})});
  const auto profile =
      sgx::profile_transitions(app.bridge().stats(), app.env().cost, 1000);
  for (const auto& e : profile.entries) {
    EXPECT_FALSE(e.recommend_switchless) << e.name;
  }
}

TEST(Profiler, NestedOcallOverheadExcludedFromSwitchlessParent) {
  // Regression: the profile is built from the bridge's measured per-call
  // transition cycles, which are exclusive. A switchless ecall issuing
  // nested ocalls must report only its own handshake+edge overhead; the
  // old constant model charged it a full hardware transition per call, so
  // the nested bridge time was effectively counted twice in the totals.
  Env env;
  sgx::Enclave enclave(env, "prof", Sha256::hash("img"), 1 << 20);
  enclave.init(Sha256::hash("img"));
  sgx::TransitionBridge bridge(env, enclave);
  const sgx::CallId log_id = bridge.register_ocall(
      "ocall_log", [](ByteReader&) { return ByteBuffer(); });
  const sgx::CallId tick_id =
      bridge.register_ecall("ecall_tick", [&, log_id](ByteReader&) {
        ByteBuffer nested;
        for (int i = 0; i < 3; ++i) bridge.ocall(log_id, ByteBuffer(), nested);
        return ByteBuffer();
      });
  bridge.set_switchless(tick_id, true);
  constexpr Cycles kCalls = 1500;
  ByteBuffer resp;
  for (Cycles i = 0; i < kCalls; ++i) {
    bridge.ecall(tick_id, ByteBuffer(), resp);
  }

  const auto profile = sgx::profile_transitions(bridge.stats(), env.cost,
                                                /*min_calls=*/1000,
                                                /*small_payload=*/512);
  const sgx::TransitionProfileEntry* parent = nullptr;
  const sgx::TransitionProfileEntry* nested = nullptr;
  for (const auto& e : profile.entries) {
    if (e.name == "ecall_tick") parent = &e;
    if (e.name == "ocall_log") nested = &e;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(parent->transition_overhead_cycles,
            kCalls * (env.cost.switchless_call_cycles +
                      env.cost.edge_call_cycles))
      << "parent must pay only its own handshake + edge dispatch";
  EXPECT_EQ(nested->transition_overhead_cycles,
            3 * kCalls * (env.cost.ocall_cycles + env.cost.edge_call_cycles))
      << "nested ocall time belongs to the ocall's own entry";
  EXPECT_EQ(profile.total_overhead_cycles,
            parent->transition_overhead_cycles +
                nested->transition_overhead_cycles);
}

// ---- Multi-isolate pairs (future work §7) ----------------------------------

class MultiIsolateTest : public ::testing::Test {
 protected:
  MultiIsolateTest() : app_(apps::build_bank_app(), 3) {}

  core::PartitionedApp app_;
};

TEST_F(MultiIsolateTest, ProxiesBindToTheirIsolate) {
  auto& u = app_.untrusted_context();
  const Value a0 = app_.construct_in(
      0, "Account", {Value("tenant0"), Value(std::int32_t{10})});
  const Value a1 = app_.construct_in(
      1, "Account", {Value("tenant1"), Value(std::int32_t{20})});
  const Value a2 = app_.construct_in(
      2, "Account", {Value("tenant2"), Value(std::int32_t{30})});

  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 0).size(), 1u);
  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 1).size(), 1u);
  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 2).size(), 1u);

  u.invoke(a1.as_ref(), "updateBalance", {Value(std::int32_t{5})});
  EXPECT_EQ(u.invoke(a0.as_ref(), "getBalance", {}).as_i32(), 10);
  EXPECT_EQ(u.invoke(a1.as_ref(), "getBalance", {}).as_i32(), 25);
  EXPECT_EQ(u.invoke(a2.as_ref(), "getBalance", {}).as_i32(), 30);
}

TEST_F(MultiIsolateTest, HeapsAreIndependent) {
  const Value a0 = app_.construct_in(
      0, "Account", {Value("t0"), Value(std::int32_t{1})});
  const Value a1 = app_.construct_in(
      1, "Account", {Value("t1"), Value(std::int32_t{2})});
  (void)a0;

  const auto gc0_before =
      app_.trusted_context(0).isolate().heap().stats().gc_count;
  const auto gc1_before =
      app_.trusted_context(1).isolate().heap().stats().gc_count;
  app_.collect_isolate(0);
  EXPECT_EQ(app_.trusted_context(0).isolate().heap().stats().gc_count,
            gc0_before + 1);
  EXPECT_EQ(app_.trusted_context(1).isolate().heap().stats().gc_count,
            gc1_before)
      << "collecting isolate 0 never pauses isolate 1 (§2.2)";

  // Mirrors survive their isolate's collection (registry roots).
  EXPECT_EQ(app_.untrusted_context()
                .invoke(a1.as_ref(), "getBalance", {})
                .as_i32(),
            2);
}

TEST_F(MultiIsolateTest, PlainNewTargetsIsolateZero) {
  auto& u = app_.untrusted_context();
  const Value p = u.construct("Account", {Value("x"), Value(std::int32_t{7})});
  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 0).size(), 1u);
  EXPECT_EQ(u.invoke(p.as_ref(), "getBalance", {}).as_i32(), 7);
}

TEST_F(MultiIsolateTest, DefaultIsolateCountValidated) {
  EXPECT_THROW(core::PartitionedApp(apps::build_bank_app(), 0), Error);
  EXPECT_THROW(app_.construct_in(9, "Account", {}), RuntimeFault);
  EXPECT_THROW(app_.trusted_context(9), RuntimeFault);
}

TEST_F(MultiIsolateTest, CrossIsolateProxyPassingRejected) {
  auto& u = app_.untrusted_context();
  const Value reg0 = app_.construct_in(0, "AccountRegistry", {});
  const Value acct1 = app_.construct_in(
      1, "Account", {Value("other"), Value(std::int32_t{1})});
  // A proxy of isolate 1's Account cannot flow into isolate 0's registry.
  EXPECT_THROW(u.invoke(reg0.as_ref(), "addAccount", {acct1}), SecurityFault);
  // Same-isolate passing works.
  const Value acct0 = app_.construct_in(
      0, "Account", {Value("own"), Value(std::int32_t{2})});
  u.invoke(reg0.as_ref(), "addAccount", {acct0});
  EXPECT_EQ(u.invoke(reg0.as_ref(), "count", {}).as_i32(), 1);
}

TEST_F(MultiIsolateTest, GcEvictionRoutedPerIsolate) {
  auto& u = app_.untrusted_context();
  {
    std::vector<Value> pool;
    for (int i = 0; i < 20; ++i) {
      pool.push_back(app_.construct_in(
          i % 3, "Account", {Value("p"), Value(std::int32_t{i})}));
    }
  }
  const Value keeper = app_.construct_in(
      1, "Account", {Value("keeper"), Value(std::int32_t{42})});

  u.isolate().heap().collect();
  app_.rmi().force_gc_scan();
  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 0).size(), 0u);
  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 1).size(), 1u)
      << "keeper survives";
  EXPECT_EQ(app_.rmi().registry(Side::kTrusted, 2).size(), 0u);
  EXPECT_EQ(u.invoke(keeper.as_ref(), "getBalance", {}).as_i32(), 42);
}

TEST_F(MultiIsolateTest, TrustedToUntrustedDirectionWorksPerIsolate) {
  // Each isolate's trusted code can reach out: Vault (trusted) builds an
  // untrusted Logger through the shared untrusted runtime.
  core::AppConfig config;
  config.extra_entry_points = {{"Vault", model::kConstructorName}};
  core::PartitionedApp app(apps::build_bank_app(/*with_audit=*/true), 2,
                           config);
  auto& u = app.untrusted_context();
  const Value v0 = app.construct_in(0, "Vault", {});
  const Value v1 = app.construct_in(1, "Vault", {});
  u.invoke(v0.as_ref(), "audit", {Value("a")});
  u.invoke(v1.as_ref(), "audit", {Value("b")});
  u.invoke(v1.as_ref(), "audit", {Value("c")});
  EXPECT_EQ(u.invoke(v0.as_ref(), "auditCount", {}).as_i32(), 1);
  EXPECT_EQ(u.invoke(v1.as_ref(), "auditCount", {}).as_i32(), 2);
  EXPECT_EQ(app.rmi().registry(Side::kUntrusted).size(), 2u)
      << "one Logger mirror per Vault";
}

TEST(MultiIsolateGc, ProxyMaterializedTwiceBeforeAScanIsEvictedOnce) {
  // A trusted Item handed out twice: its first untrusted proxy dies, the
  // second is materialized under the same hash before any scan and dies
  // too, so one scan sees the hash twice.
  core::AppConfig config;
  config.extra_entry_points = {{"Factory", model::kConstructorName},
                               {"Item", "value"}};
  core::PartitionedApp app(dsl::parse_program(R"(
    class Item @Trusted {
      field n;
      ctor() { this.n = 1; }
      method value() { return this.n; }
    }
    class Factory @Trusted {
      field item;
      ctor() { this.item = new Item(); }
      method get() { return this.item; }
    }
    class Main @Untrusted {
      static method main() { f = new Factory(); f.get().value(); }
    }
    main Main;
  )"), 2, config);
  auto& u = app.untrusted_context();
  const Value factory = app.construct_in(1, "Factory", {});
  for (int i = 0; i < 2; ++i) {
    {
      const Value item = u.invoke(factory.as_ref(), "get", {});
      EXPECT_EQ(u.invoke(item.as_ref(), "value", {}).as_i32(), 1);
    }
    u.isolate().heap().collect();  // the proxy dies; no scan runs at N = 2
  }
  EXPECT_EQ(app.rmi().registry(Side::kTrusted, 1).size(), 2u);
  app.rmi().force_gc_scan();
  EXPECT_EQ(app.rmi().registry(Side::kTrusted, 1).size(), 1u)
      << "the Item mirror is evicted; the Factory mirror stays";
}

// The serving stack's app class and its RMI runtime, named through
// RequestServer::app() so the pin below guards exactly what the serving
// and fleet stacks run.
using ServingApp = std::remove_reference_t<
    decltype(std::declval<server::RequestServer&>().app())>;
using ServingRmi =
    std::remove_reference_t<decltype(std::declval<ServingApp&>().rmi())>;

TEST(TwoIsolateRmi, MixedCallSequenceChargesPinnedCycles) {
  // End-to-end pin of the N >= 2 RMI path, the counterpart of
  // ProxyRuntimeTest.MixedCallSequenceChargesPinnedCycles: routed
  // construction on two isolates, primitive and non-primitive relays in
  // both directions, a coalesced batch and a per-isolate collection must
  // land on exactly these clocks and transition stats.
  core::AppConfig config;
  config.extra_entry_points = {{"Vault", model::kConstructorName}};
  ServingApp app(apps::build_bank_app(/*with_audit=*/true), 2, config);
  auto& u = app.untrusted_context();
  const Value a0 = app.construct_in(
      0, "Account", {Value("t0"), Value(std::int32_t{10})});
  const Value v1 = app.construct_in(1, "Vault", {});
  u.invoke(a0.as_ref(), "updateBalance", {Value(std::int32_t{5})});
  EXPECT_EQ(u.invoke(v1.as_ref(), "auditCount", {}).as_i32(), 0);
  const Value reg0 = app.construct_in(0, "AccountRegistry", {});
  u.invoke(reg0.as_ref(), "addAccount", {a0});
  u.invoke(v1.as_ref(), "audit", {Value("entry")});

  std::vector<ServingRmi::BatchCall> calls(3);
  const model::ClassDecl& account = u.class_of(a0.as_ref());
  calls[0].proxy = a0.as_ref();
  calls[0].stub = account.find_method("updateBalance");
  calls[0].args = {Value(std::int32_t{7})};
  calls[1].proxy = a0.as_ref();
  calls[1].stub = account.find_method("getBalance");
  calls[2].proxy = reg0.as_ref();
  calls[2].stub = u.class_of(reg0.as_ref()).find_method("totalBalance");
  const auto outcomes = app.rmi().invoke_batch(calls);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok && outcomes[1].ok && outcomes[2].ok);
  EXPECT_EQ(outcomes[1].value.as_i32(), 22);
  EXPECT_EQ(outcomes[2].value.as_i32(), 22);
  app.collect_isolate(1);

  EXPECT_EQ(app.env().clock.now(), 38'357'526u);
  // Three constructions, four relayed calls and one batch in; the Logger
  // construction, lineCount and log relays out.
  const sgx::BridgeStats& bridge = app.bridge().stats();
  EXPECT_EQ(bridge.ecalls, 8u);
  EXPECT_EQ(bridge.ocalls, 3u);
  EXPECT_EQ(bridge.bytes_in, 203u);
  EXPECT_EQ(bridge.bytes_out, 94u);
}

// One relayed call into isolate 1 served by the switchless ecall ring;
// returns its cycle cost under the given trusted isolate-attach charge.
Cycles ring_relay_cost(Cycles trusted_attach) {
  core::AppConfig config;
  config.cost.isolate_attach_trusted_cycles = trusted_attach;
  core::PartitionedApp app(apps::build_bank_app(), 2, config);
  const Value account = app.construct_in(
      1, "Account", {Value("t1"), Value(std::int32_t{5})});
  sgx::TransitionBridge& bridge = app.bridge();
  sched::Scheduler sched(app.env());
  bridge.attach_scheduler(sched);
  bridge.set_switchless("ecall_relay_Account_getBalance", true);
  bridge.start_switchless_workers({}, {});
  Cycles cost = 0;
  sched.spawn("caller", [&] {
    const Cycles t0 = app.env().clock.now();
    EXPECT_EQ(app.untrusted_context()
                  .invoke(account.as_ref(), "getBalance", {})
                  .as_i32(),
              5);
    cost = app.env().clock.now() - t0;
  });
  sched.run();
  EXPECT_EQ(bridge.stats().switchless_enqueued, 1u);
  bridge.stop_switchless_workers();
  return cost;
}

TEST(TwoIsolateRmi, RingServedRelayChargesNoIsolateAttach) {
  // Ring workers are persistent threads that attach to their isolate once
  // (§7, HotCalls), so a relay they serve pays no per-call attach — with
  // any number of trusted isolates.
  EXPECT_EQ(ring_relay_cost(480'000), ring_relay_cost(0));
}

// ---- Multi-isolate wire guards at the trust boundary ----------------------

// A trusted Sink that keeps whatever it is handed, and a neutral Node whose
// one field can chain to another Node.
model::AppModel sink_app() {
  model::AppModel app;
  auto& node = app.add_class("Node", model::Annotation::kNeutral);
  node.add_field("next", /*is_private=*/false);
  node.add_constructor(0).body(model::IrBuilder().ret_void().build());
  node.add_method("next", 0).body(
      model::IrBuilder().locals(1).load_local(0).get_field(0).ret().build());

  auto& sink = app.add_class("Sink", model::Annotation::kTrusted);
  sink.add_field("held");
  sink.add_constructor(0).body_native(
      [](model::NativeCall&) { return Value(); });
  sink.add_method("take", 1)
      .body_native([](model::NativeCall& call) {
        call.isolate.set_field(call.self, 0, call.args[0]);
        return Value();
      })
      .calls("Node", "next");

  app.add_class("Main", model::Annotation::kUntrusted)
      .add_static_method("main", 0)
      .body(model::IrBuilder()
                .new_object("Sink", 0)
                .new_object("Node", 0)
                .call("take", 1)
                .pop()
                .ret_void()
                .build());
  app.set_main_class("Main");
  return app;
}

class MultiIsolateWireTest : public ::testing::Test {
 protected:
  MultiIsolateWireTest() : app_(sink_app(), 2, config()) {
    sink_ = app_.construct_in(0, "Sink", {});
  }

  static core::AppConfig config() {
    core::AppConfig c;
    c.extra_entry_points = {{"Sink", model::kConstructorName}};
    return c;
  }

  // The relay frame an untrusted caller sends for sink_.take(arg): target
  // isolate 0, caller the untrusted runtime, self hash, one argument.
  ByteBuffer take_frame() {
    ByteBuffer frame;
    frame.put_u32(0);
    frame.put_u32(0xffffffffu);
    frame.put_i64(app_.untrusted_context()
                      .isolate()
                      .get_field(sink_.as_ref(), 0)
                      .as_i64());
    frame.put_varint(1);
    return frame;
  }

  // Appends a chain of `depth` neutral Nodes ending in null.
  static void put_node_chain(ByteBuffer& out, std::size_t depth) {
    for (std::size_t i = 0; i < depth; ++i) {
      out.put_u8(static_cast<std::uint8_t>(rmi::WireTag::kNeutralObject));
      out.put_string("Node");
      out.put_varint(1);
    }
    out.put_u8(static_cast<std::uint8_t>(rmi::WireTag::kNull));
  }

  // Delivers `frame` to the trusted take relay; returns the fault message
  // ("" when the frame was accepted).
  std::string send_take(const ByteBuffer& frame) {
    ByteBuffer response;
    try {
      app_.bridge().ecall(app_.bridge().ecall_id("ecall_relay_Sink_take"),
                          frame, response);
    } catch (const RuntimeFault& f) {
      return f.what();
    }
    return "";
  }

  core::PartitionedApp app_;
  Value sink_;
};

TEST_F(MultiIsolateWireTest, ForgedNeutralObjectOfTrustedClassRejected) {
  // A neutral-object tag naming the @Trusted Sink would instantiate a Sink
  // whose constructor never ran and hand it to trusted code.
  ByteBuffer frame = take_frame();
  frame.put_u8(static_cast<std::uint8_t>(rmi::WireTag::kNeutralObject));
  frame.put_string("Sink");
  frame.put_varint(1);
  frame.put_u8(static_cast<std::uint8_t>(rmi::WireTag::kNull));
  EXPECT_NE(send_take(frame).find("wire neutral object of non-neutral class "
                                  "Sink"),
            std::string::npos);
}

TEST_F(MultiIsolateWireTest, DeepNeutralChainRejected) {
  ByteBuffer frame = take_frame();
  put_node_chain(frame, 1'000);
  EXPECT_NE(send_take(frame).find("too deep to deserialize"),
            std::string::npos);

  // A chain within the bound still arrives.
  ByteBuffer ok = take_frame();
  put_node_chain(ok, rmi::kMaxSerializationDepth);
  EXPECT_EQ(send_take(ok), "");
}

TEST_F(MultiIsolateWireTest, VeryDeepNeutralChainRejectedWithoutRecursing) {
  // Unbounded, this frame recursed the decoder off its native stack.
  ByteBuffer frame = take_frame();
  put_node_chain(frame, 200'000);
  EXPECT_NE(send_take(frame).find("too deep to deserialize"),
            std::string::npos);
}

TEST_F(MultiIsolateWireTest, CyclicNeutralArgumentRejected) {
  auto& u = app_.untrusted_context();
  const Value node = u.construct("Node", {});
  u.isolate().set_field(node.as_ref(), 0, node);
  try {
    u.invoke(sink_.as_ref(), "take", {node});
    ADD_FAILURE() << "a cyclic neutral argument was serialized";
  } catch (const RuntimeFault& f) {
    EXPECT_NE(std::string(f.what()).find("too deep to serialize (cycle?)"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace msv
