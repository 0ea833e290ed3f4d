// Cross-commit pins for the serving family (DESIGN.md §8, §12-§14): the
// single-enclave request server and the enclave fleet, each driven through
// one fixed scenario whose simulated outcome is pinned to exact numbers.
//
// The determinism tests in server_test/fleet_test compare two runs of the
// same build; these compare a run against the numbers the serving stack
// produced when they were recorded, so a refactor of the request pipeline
// that moves a single cycle, request or transition fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/illustrative/bank.h"
#include "apps/paldb/model.h"
#include "apps/synthetic/generator.h"
#include "core/app.h"
#include "faults/plan.h"
#include "fleet/load.h"
#include "fleet/router.h"
#include "sched/scheduler.h"
#include "server/harness.h"
#include "server/server.h"
#include "sgx/bridge.h"
#include "sgx/epc.h"
#include "sim/env.h"
#include "support/sha256.h"

namespace msv {
namespace {

struct Pinned {
  Cycles final_clock = 0;
  Cycles latency_cycle_sum = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t restarts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t tcs_waits = 0;
};

void add_bridge(Pinned& p, const sgx::TransitionBridge& bridge) {
  const sgx::BridgeStats& s = bridge.stats();
  p.ecalls += s.ecalls;
  p.ocalls += s.ocalls;
  p.tcs_waits += s.tcs_waits;
}

void expect_pinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.final_clock, want.final_clock);
  EXPECT_EQ(got.latency_cycle_sum, want.latency_cycle_sum);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.promotions, want.promotions);
  EXPECT_EQ(got.migrations, want.migrations);
  EXPECT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.ecalls, want.ecalls);
  EXPECT_EQ(got.ocalls, want.ocalls);
  EXPECT_EQ(got.tcs_waits, want.tcs_waits);
}

// (a) Four tenants, open loop, coalescing up to 4 requests per swing,
// blocking admission, and a GC of tenant 0's isolate every 10 submissions;
// two TCS slots for four workers, so entries queue on the pool.
TEST(ServingPins, CoalescedOpenLoopServerWithTenantGc) {
  core::AppConfig app_cfg;
  app_cfg.tcs.slots = 2;
  core::PartitionedApp app(apps::build_bank_app(), 4, app_cfg);
  sched::Scheduler sched(app.env());
  server::ServerConfig cfg;
  cfg.coalesce_max = 4;
  cfg.shed_on_full = false;
  server::RequestServer srv(sched, app, cfg);
  server::LoadHarness harness(srv);
  server::OpenLoopSpec spec;
  spec.requests_per_tenant = 60;
  spec.mean_interarrival_cycles = 150'000;
  spec.gc_every = 10;
  spec.gc_tenant = 0;
  const server::HarnessReport rep = harness.run_open_loop(spec);

  Pinned got;
  got.final_clock = rep.final_clock;
  got.latency_cycle_sum = rep.latency_cycle_sum;
  got.completed = rep.completed;
  got.shed = rep.shed;
  got.failed = rep.failed;
  got.retries = rep.retries;
  got.restarts = srv.restarts();
  for (std::uint32_t t = 0; t < 4; ++t) {
    got.checkpoints += srv.tenant_stats(t).checkpoints;
  }
  add_bridge(got, app.bridge());
  srv.stop();

  expect_pinned(got, {.final_clock = 76'514'730,
                      .latency_cycle_sum = 3'412'953'243,
                      .completed = 240,
                      .shed = 0,
                      .failed = 0,
                      .retries = 0,
                      .restarts = 0,
                      .promotions = 0,
                      .migrations = 0,
                      .checkpoints = 0,
                      .ecalls = 67,
                      .ocalls = 0,
                      .tcs_waits = 59});
}

// (b)/(c) Two shards, 16 Zipfian tenants, a 2-loss targeted fault plan and
// one hot-tenant migration at half-window; with replication a loss is a
// promotion, without it the restart ladder.
Pinned run_fleet(bool replication) {
  const model::AppModel model = apps::build_bank_app();
  Env env;
  sched::Scheduler sched(env);
  fleet::FleetConfig cfg;
  cfg.shards = 2;
  cfg.tenants = 16;
  cfg.shard.replication = replication;
  cfg.shard.shared_workers = 2;
  cfg.shard.coalesce_max = 4;
  cfg.shard.recovery.enabled = true;
  cfg.shard.recovery.checkpoint_every = 2;
  fleet::FleetRouter router(env, sched, model, cfg);
  router.start();

  fleet::FleetLoadSpec spec;
  spec.requests = 400;
  spec.mean_interarrival_cycles = 1'000'000;
  const Cycles run_start = env.clock.now();
  faults::FaultPlanConfig pc;
  pc.seed = 11;
  pc.horizon = static_cast<Cycles>(spec.requests) *
               spec.mean_interarrival_cycles;
  pc.fleet_shards = 2;
  pc.shard_losses = 2;
  const faults::FaultPlan generated = faults::FaultPlan::generate(pc);
  faults::FaultPlan plan;
  for (faults::FaultEvent e : generated.events()) {
    e.at += run_start;
    plan.add(e);
  }
  router.attach_fault_plan(plan);

  sched.spawn("migrator", [&] {
    sched.sleep_for(static_cast<Cycles>(spec.requests / 2) *
                    spec.mean_interarrival_cycles);
    const std::uint32_t hot = router.hottest_tenant();
    router.migrate_tenant(hot, router.shard_of(hot) ^ 1);
  });
  fleet::FleetLoad load(router);
  const fleet::FleetLoadReport rep = load.run(spec);

  const fleet::FleetStats s = router.stats();
  Pinned got;
  got.final_clock = rep.final_clock;
  got.latency_cycle_sum = rep.latency_cycle_sum;
  got.completed = s.completed;
  got.shed = s.shed;
  got.failed = s.failed;
  got.retries = s.retries;
  got.restarts = s.restarts;
  got.promotions = s.promotions;
  got.migrations = s.migrations;
  got.checkpoints = s.checkpoints;
  for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
    add_bridge(got, router.shard(k).app().bridge());
    if (core::PartitionedApp* standby = router.shard(k).standby_app()) {
      add_bridge(got, standby->bridge());
    }
  }
  router.stop();
  return got;
}

TEST(ServingPins, ReplicatedFleetPromotesAndMigrates) {
  expect_pinned(run_fleet(/*replication=*/true),
                {.final_clock = 640'369'081,
                 .latency_cycle_sum = 740'371'374,
                 .completed = 400,
                 .shed = 0,
                 .failed = 0,
                 .retries = 2,
                 .restarts = 0,
                 .promotions = 2,
                 .migrations = 1,
                 .checkpoints = 197,
                 .ecalls = 609,
                 .ocalls = 0,
                 .tcs_waits = 0});
}

TEST(ServingPins, UnreplicatedFleetTakesTheRestartLadder) {
  expect_pinned(run_fleet(/*replication=*/false),
                {.final_clock = 543'071'179,
                 .latency_cycle_sum = 2'440'040'005,
                 .completed = 397,
                 .shed = 0,
                 .failed = 3,
                 .retries = 1,
                 .restarts = 2,
                 .promotions = 0,
                 .migrations = 1,
                 .checkpoints = 196,
                 .ecalls = 562,
                 .ocalls = 0,
                 .tcs_waits = 0});
}

// (d) The launch perfbench `serve` times as set-up: eight tenants on one
// enclave, a scheduler and a started server (one session proxy per
// tenant). Host-side launch work may be restructured freely; the
// simulated launch may not move a cycle, page or byte.
TEST(ServingPins, EightTenantLaunch) {
  core::PartitionedApp app(apps::build_bank_app(), 8);
  const Cycles build_cycles = app.env().clock.now();
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, server::ServerConfig{});
  srv.start();
  const sgx::EpcStats& epc = app.enclave().epc().stats();
  EXPECT_EQ(build_cycles, 49'186'608u);
  EXPECT_EQ(app.env().clock.now(), 53'449'048u);
  EXPECT_EQ(epc.accesses, 2'072u);
  EXPECT_EQ(epc.faults, 2'064u);
  EXPECT_EQ(epc.evictions, 0u);
  EXPECT_EQ(app.enclave().epc().resident_pages(), 2'064u);
  EXPECT_EQ(app.bridge().stats().ecalls, 8u);
  EXPECT_EQ(app.bridge().stats().ocalls, 0u);
  EXPECT_EQ(Sha256::hex(app.enclave().measurement()),
            "a27ac6962c91871b9f840d7dc7c936ec"
            "1c13bc23518e62ac574d98a87f14c273");
}

// The bridge's call names in CallId order, one per line. CallIds follow
// registration order and batch frames carry them as varints, so any
// renumbering can change frame bytes: the three stacks perfbench launches
// pin the order, not just the set.
std::string call_id_digest(const sgx::TransitionBridge& bridge) {
  std::string joined;
  for (const std::string& name : bridge.call_names()) {
    if (!joined.empty()) joined += '\n';
    joined += name;
  }
  return Sha256::hex(Sha256::hash(joined));
}

TEST(ServingPins, BridgeCallIdsArePinned) {
  {
    core::PartitionedApp app(apps::build_bank_app(), 8);
    sched::Scheduler sched(app.env());
    server::RequestServer srv(sched, app, server::ServerConfig{});
    srv.start();
    EXPECT_EQ(app.bridge().call_names().size(), 29u);
    EXPECT_EQ(call_id_digest(app.bridge()),
              "fe96a5cd973e528b3a3c98d4a7173624"
              "6e3dc8a32cde16c1ca7d178187a5b61c");
  }
  {
    core::PartitionedApp app(apps::synthetic::build_micro_app());
    app.untrusted_context().construct("Driver", {});
    EXPECT_EQ(app.bridge().call_names().size(), 32u);
    EXPECT_EQ(call_id_digest(app.bridge()),
              "9c58c5115dd319ea1d650f1de115e909"
              "b0c1f4613afb2b70f878b1830404290d");
  }
  {
    core::UnpartitionedApp app(apps::paldb::build_paldb_app(
        apps::paldb::Scheme::kUnpartitioned, apps::paldb::PaldbWorkload{}));
    EXPECT_EQ(app.bridge().call_names().size(), 14u);
    EXPECT_EQ(call_id_digest(app.bridge()),
              "b7e8f3e06119488d7f9fa771ee8b6aaf"
              "52e14904509e8aacb0af3b2f0dbe687f");
  }
}

}  // namespace
}  // namespace msv
