// Tests for src/core: pipeline-level behaviours — determinism, tampering,
// configuration, and the guarantees the runners make.
#include <gtest/gtest.h>

#include "apps/illustrative/bank.h"
#include "apps/paldb/model.h"
#include "apps/specjvm/harness.h"
#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"

namespace msv::core {
namespace {

using rt::Value;

TEST(Determinism, IdenticalRunsProduceIdenticalClocks) {
  auto run_once = [] {
    PartitionedApp app(apps::build_bank_app());
    app.run_main();
    auto& u = app.untrusted_context();
    const Value p =
        u.construct("Person", {Value("x"), Value(std::int32_t{5})});
    u.invoke(p.as_ref(), "transfer",
             {u.construct("Person", {Value("y"), Value(std::int32_t{1})}),
              Value(std::int32_t{2})});
    u.isolate().heap().collect();
    app.rmi().force_gc_scan();
    return app.env().clock.now();
  };
  EXPECT_EQ(run_once(), run_once()) << "bit-for-bit reproducible simulation";
}

TEST(Determinism, MeasurementStableAcrossBuilds) {
  PartitionedApp a(apps::build_bank_app());
  PartitionedApp b(apps::build_bank_app());
  EXPECT_EQ(a.enclave().measurement(), b.enclave().measurement());
}

TEST(Determinism, DifferentCodeDifferentMeasurement) {
  PartitionedApp bank(apps::build_bank_app());
  PartitionedApp micro(apps::synthetic::build_micro_app());
  EXPECT_NE(bank.enclave().measurement(), micro.enclave().measurement());
}

// MRENCLAVE of the builds the benchmarks run, with the default AppConfig.
// A change to the image serializer, the shim tag, the EDL, Edger8r or
// SHA-256 moves these digests.
TEST(Determinism, MeasurementsArePinned) {
  const auto mrenclave = [](auto&& app) {
    return Sha256::hex(app.enclave().measurement());
  };
  EXPECT_EQ(mrenclave(PartitionedApp(apps::build_bank_app(), 8)),
            "a27ac6962c91871b9f840d7dc7c936ec1c13bc23518e62ac574d98a87f14c273");
  EXPECT_EQ(mrenclave(PartitionedApp(apps::synthetic::build_micro_app())),
            "f0548c2e31db6770cb1aa7651eaa4772cdc6482212fb8951e994fe0599769331");
  namespace paldb = apps::paldb;
  EXPECT_EQ(mrenclave(UnpartitionedApp(paldb::build_paldb_app(
                paldb::Scheme::kUnpartitioned, paldb::PaldbWorkload{}))),
            "0c899c2c2a89a0a78479b94b9762176c4578608da85c1cb2dec4269a953b0018");
  namespace specjvm = apps::specjvm;
  const specjvm::Benchmark mc = specjvm::Benchmark::kMonteCarlo;
  EXPECT_EQ(mrenclave(UnpartitionedApp(specjvm::build_model(
                mc, specjvm::WorkloadSpec::defaults(mc)))),
            "074e070b49818dc784fcf490fb68ac1b92dda3be08bcf26f27fba7d6fa456fda");
}

// MRENCLAVE covers only the trusted bridge source, so the untrusted source
// and the header are pinned separately.
TEST(Determinism, Edger8rOutputIsPinned) {
  const PartitionedApp app(apps::build_bank_app(), 8);
  const sgx::EdgeRoutines& edge = app.edge_routines();
  EXPECT_EQ(Sha256::hex(Sha256::hash(edge.trusted_source)),
            "ce6303f3dcb510f78b30a7326b17c468f72fb4c824c0157b01ca0c90ee920add");
  EXPECT_EQ(Sha256::hex(Sha256::hash(edge.untrusted_source)),
            "c6cce26957df6b770d54b8d5771e933839f0758633489dc6be4c6014b57e9db0");
  EXPECT_EQ(Sha256::hex(Sha256::hash(edge.header)),
            "a748bc3c3e155e69af6c760edaffdc516057c4bc4254584e03cb92e1fa9f866e");
}

TEST(Config, CostModelOverridesApply) {
  AppConfig slow;
  slow.cost.ecall_cycles *= 10;
  slow.cost.isolate_attach_trusted_cycles *= 10;

  auto measure = [](AppConfig config) {
    PartitionedApp app(apps::synthetic::build_micro_app(), config);
    auto& u = app.untrusted_context();
    const Value w = u.construct("Worker", {});
    const Cycles t0 = app.env().clock.now();
    for (int i = 0; i < 50; ++i) {
      u.invoke(w.as_ref(), "set", {Value(std::int32_t{1})});
    }
    return app.env().clock.now() - t0;
  };
  EXPECT_GT(measure(slow), measure(AppConfig{}) * 5);
}

TEST(Config, HeapSizesRespected) {
  AppConfig config;
  config.trusted_heap_bytes = 1 << 20;
  config.untrusted_heap_bytes = 1 << 20;
  PartitionedApp app(apps::build_bank_app(), config);
  EXPECT_EQ(app.trusted_context().isolate().heap().semispace_bytes(),
            (1u << 20) / 2);
}

TEST(Config, CustomFilesystemShared) {
  auto fs = std::make_shared<vfs::MemFs>();
  fs->open("preexisting.txt", vfs::OpenMode::kWrite)->write("hi", 2);
  AppConfig config;
  config.fs = fs;
  PartitionedApp app(apps::build_bank_app(), config);
  EXPECT_TRUE(app.env().fs->exists("preexisting.txt"));
}

TEST(Pipeline, ImageHeapsMappedAtIsolateStartup) {
  PartitionedApp app(apps::build_bank_app());
  // The trusted image heap was touched into the EPC during isolate
  // creation (§2.2: the image heap is memory-mapped at startup).
  EXPECT_GT(app.enclave().epc().stats().faults,
            app.trusted_image().image_heap_bytes /
                app.env().cost.page_bytes / 2);
}

TEST(Pipeline, EnclaveCreationChargedToStartup) {
  PartitionedApp app(apps::build_bank_app());
  EXPECT_GT(app.env().clock.now(), app.env().cost.enclave_create_base_cycles)
      << "build-time work is free, load-time work is not";
}

TEST(Pipeline, EdlCoversRelaysShimAndGcHelpers) {
  PartitionedApp app(apps::build_bank_app());
  const auto& edl = app.edl();
  EXPECT_TRUE(edl.has_ecall("ecall_relay_Account_updateBalance"));
  EXPECT_TRUE(edl.has_ecall("ecall_gc_evict_mirrors"));
  EXPECT_TRUE(edl.has_ecall("ecall_gc_scan_trusted"));
  EXPECT_TRUE(edl.has_ocall("ocall_fwrite"));
  EXPECT_TRUE(edl.has_ocall("ocall_mmap_fetch"));
  EXPECT_TRUE(edl.has_ocall("ocall_gc_evict_mirrors"));
}

TEST(Pipeline, SwitchlessConfigMarksEdl) {
  AppConfig config;
  config.switchless_relays = true;
  PartitionedApp app(apps::build_bank_app(), config);
  EXPECT_TRUE(app.edl().switchless);
  EXPECT_NE(app.edl().to_edl_text().find("transition_using_threads"),
            std::string::npos);
}

TEST(Runners, UnpartitionedRunInEnclaveHelper) {
  AppConfig config;
  // getBalance is not reachable from main; root it for the host driver.
  config.extra_entry_points = {{"Account", "getBalance"}};
  UnpartitionedApp app(apps::build_bank_app(), config);
  const Value result = app.run_in_enclave([](interp::ExecContext& ctx) {
    const Value acct =
        ctx.construct("Account", {Value("in"), Value(std::int32_t{9})});
    return ctx.invoke(acct.as_ref(), "getBalance", {});
  });
  EXPECT_EQ(result.as_i32(), 9);
  EXPECT_GE(app.bridge().stats().ecalls, 1u);
}

TEST(Runners, MainWithTrustedAnnotationRejectedEverywhere) {
  model::AppModel bad;
  bad.add_class("Main", model::Annotation::kTrusted)
      .add_static_method("main", 0)
      .body(model::IrBuilder().ret_void().build());
  bad.set_main_class("Main");
  EXPECT_THROW(PartitionedApp{bad}, ConfigError);
  EXPECT_THROW(UnpartitionedApp{bad}, ConfigError);
  EXPECT_THROW(NativeApp{bad}, ConfigError);
}

TEST(Runners, SimulatedTimeOrderingHolds) {
  // The headline qualitative claim across the three runners.
  const model::AppModel app = apps::build_bank_app();
  NativeApp native(app);
  native.run_main();
  PartitionedApp part(app);
  part.run_main();
  UnpartitionedApp unpart(app);
  unpart.run_main();
  EXPECT_LT(native.now_seconds(), part.now_seconds());
  // This workload is RMI-heavy with almost no I/O or memory pressure, so
  // the unpartitioned variant (one ecall total) beats the partitioned one
  // — partitioning pays off when real work can leave the enclave (Fig. 6).
  EXPECT_LT(unpart.now_seconds(), part.now_seconds());
}

TEST(Tcb, ShimBeatsLibOsByOrdersOfMagnitude) {
  PartitionedApp app(apps::build_bank_app());
  const TcbReport tcb = app.tcb_report();
  // Graphene/SGX-LKL-style LibOS TCBs are tens of MB of code; the §5.4
  // argument is that the shim keeps the enclave two orders smaller.
  constexpr std::uint64_t kLibOsCodeBytes = 40ull << 20;
  EXPECT_LT(tcb.shim_bytes * 100, kLibOsCodeBytes);
  EXPECT_LT(tcb.total_bytes(), kLibOsCodeBytes);
}

}  // namespace
}  // namespace msv::core
