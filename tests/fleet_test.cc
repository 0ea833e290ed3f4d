// Tests for the enclave fleet (DESIGN.md §14): consistent-hash ring
// properties, tenant-state byte-format stability, replica promotion with
// epoch fencing (stale proxies fault, deposits count exactly once), and
// hot-tenant migration behind the coalescing drain fence.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "apps/illustrative/bank.h"
#include "core/app.h"
#include "fleet/load.h"
#include "fleet/ring.h"
#include "fleet/router.h"
#include "rmi/proxy_runtime.h"
#include "sched/scheduler.h"
#include "server/tenant_state.h"
#include "sim/env.h"
#include "support/error.h"

namespace msv {
namespace {

using fleet::FleetConfig;
using fleet::FleetRouter;
using fleet::HashRing;

// ---- Consistent-hash ring --------------------------------------------------

TEST(HashRingTest, AssignmentIsPureFunctionOfSeedAndMemberSet) {
  HashRing a(0x5eed, 16);
  HashRing b(0x5eed, 16);
  // Insertion order must not matter.
  for (std::uint32_t n : {0u, 1u, 2u, 3u}) a.add_node(n);
  for (std::uint32_t n : {3u, 1u, 0u, 2u}) b.add_node(n);
  for (std::uint32_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.owner_of(key), b.owner_of(key));
  }
  // A different seed shuffles ownership.
  HashRing c(0x5eee, 16);
  for (std::uint32_t n : {0u, 1u, 2u, 3u}) c.add_node(n);
  std::uint32_t moved = 0;
  for (std::uint32_t key = 0; key < 1000; ++key) {
    if (a.owner_of(key) != c.owner_of(key)) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, NodeAddMovesOnlyKeysOntoTheNewNode) {
  HashRing ring(42, 32);
  for (std::uint32_t n = 0; n < 4; ++n) ring.add_node(n);
  std::map<std::uint32_t, std::uint32_t> before;
  for (std::uint32_t key = 0; key < 2000; ++key) {
    before[key] = ring.owner_of(key);
  }
  ring.add_node(4);
  std::uint32_t moved = 0;
  for (std::uint32_t key = 0; key < 2000; ++key) {
    const std::uint32_t now = ring.owner_of(key);
    if (now != before[key]) {
      EXPECT_EQ(now, 4u) << "churn may only flow onto the new node";
      ++moved;
    }
  }
  // Expected churn is ~1/5 of the keyspace; assert a generous envelope
  // (the point is "bounded", not "exact").
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 2000u / 2);
}

TEST(HashRingTest, NodeRemoveMovesOnlyThatNodesKeys) {
  HashRing ring(42, 32);
  for (std::uint32_t n = 0; n < 5; ++n) ring.add_node(n);
  std::map<std::uint32_t, std::uint32_t> before;
  for (std::uint32_t key = 0; key < 2000; ++key) {
    before[key] = ring.owner_of(key);
  }
  ring.remove_node(2);
  for (std::uint32_t key = 0; key < 2000; ++key) {
    if (before[key] != 2) {
      EXPECT_EQ(ring.owner_of(key), before[key])
          << "keys not owned by the removed node must not move";
    } else {
      EXPECT_NE(ring.owner_of(key), 2u);
    }
  }
  EXPECT_FALSE(ring.has_node(2));
  EXPECT_EQ(ring.node_count(), 4u);
}

// ---- Tenant-state byte format ----------------------------------------------

// Golden bytes: u32 LE tenant, LEB128 varint seq, i32 LE balance. The
// sealed checkpoint stream (and with it every PR 5 trace digest) depends
// on this layout never drifting.
TEST(TenantStateTest, CheckpointPayloadLayoutIsStable) {
  const std::vector<std::uint8_t> payload =
      server::TenantState::encode_payload(/*tenant=*/7, /*seq=*/300,
                                          /*balance=*/-2);
  const std::vector<std::uint8_t> expected = {
      0x07, 0x00, 0x00, 0x00,  // tenant, u32 LE
      0xac, 0x02,              // seq 300, LEB128
      0xfe, 0xff, 0xff, 0xff,  // balance -2, i32 LE
  };
  EXPECT_EQ(payload, expected);
  const auto decoded = server::TenantState::decode_payload(payload, 7);
  EXPECT_EQ(decoded.seq, 300u);
  EXPECT_EQ(decoded.balance, -2);
  EXPECT_THROW(server::TenantState::decode_payload(payload, 8),
               SecurityFault);
}

// ---- Zipf CDF --------------------------------------------------------------

TEST(FleetLoadTest, ZipfCdfIsSkewedAndClosed) {
  const std::vector<double> cdf = fleet::FleetLoad::zipf_cdf(64, 1.1);
  ASSERT_EQ(cdf.size(), 64u);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  // The head tenant carries an order of magnitude more than the uniform
  // share — the skew that makes one shard hot.
  EXPECT_GT(cdf[0], 10.0 / 64.0);
}

// ---- Fleet rig -------------------------------------------------------------

struct FleetRig {
  explicit FleetRig(FleetConfig cfg)
      : model(apps::build_bank_app()),
        sched(env),
        router(env, sched, model, cfg) {}

  Env env;
  model::AppModel model;
  sched::Scheduler sched;
  FleetRouter router;  // destroyed first: stop() runs while sched is alive
};

FleetConfig small_fleet(bool replication) {
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.tenants = 8;
  cfg.shard.replication = replication;
  cfg.shard.recovery.enabled = true;
  cfg.shard.recovery.checkpoint_every = 1;
  cfg.shard.initial_balance = 100;
  return cfg;
}

// ---- Replica promotion -----------------------------------------------------

TEST(FleetShardTest, FenceProxiesMakesEveryMintedProxyStale) {
  core::PartitionedApp app(apps::build_bank_app(), 1);
  const rt::Value session = app.construct_in(
      0, "Account", {rt::Value("t"), rt::Value(10)});
  EXPECT_EQ(app.untrusted_context()
                .invoke(session.as_ref(), "getBalance", {})
                .as_i32(),
            10);
  app.rmi().fence_proxies();
  EXPECT_THROW(app.untrusted_context().invoke(session.as_ref(),
                                              "getBalance", {}),
               rmi::StaleProxyError);
}

TEST(FleetShardTest, PlannedPromotionCountsEveryDepositExactlyOnce) {
  FleetRig rig(small_fleet(/*replication=*/true));
  rig.router.start();
  const std::uint32_t tenant = 0;
  const std::uint32_t k = rig.router.shard_of(tenant);
  const std::uint64_t epoch_before = rig.router.shard(k).authority_epoch();
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 5;
    for (int i = 0; i < 10; ++i) rig.router.submit_and_wait(tenant, dep);
    // Flip the authority mid-stream: every session minted so far is
    // fenced; the next request rebuilds from the replicated checkpoint.
    rig.router.promote_shard(k);
    for (int i = 0; i < 10; ++i) rig.router.submit_and_wait(tenant, dep);
    server::Request bal;
    bal.op = server::RequestOp::kBalance;
    EXPECT_EQ(rig.router.submit_and_wait(tenant, bal), 100 + 20 * 5);
  });
  rig.sched.run();
  EXPECT_EQ(rig.router.shard(k).authority_epoch(), epoch_before + 1);
  EXPECT_EQ(rig.router.shard(k).stats().promotions, 1u);
  EXPECT_EQ(rig.router.shard(k).stats().restarts, 0u);
  // Planned failover: the healthy demoted enclave is the new standby.
  EXPECT_TRUE(rig.router.shard(k).standby_ready());
  rig.router.stop();
}

TEST(FleetShardTest, EnclaveLossPromotesTheWarmStandby) {
  FleetRig rig(small_fleet(/*replication=*/true));
  rig.router.start();
  const std::uint32_t tenant = 1;
  const std::uint32_t k = rig.router.shard_of(tenant);
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 7;
    for (int i = 0; i < 5; ++i) rig.router.submit_and_wait(tenant, dep);
    // Lose the authority; with checkpoint_every=1 the replica stream has
    // every deposit, so nothing is lost across the promotion.
    rig.router.shard(k).app().enclave().mark_lost();
    for (int i = 0; i < 5; ++i) rig.router.submit_and_wait(tenant, dep);
    server::Request bal;
    bal.op = server::RequestOp::kBalance;
    EXPECT_EQ(rig.router.submit_and_wait(tenant, bal), 100 + 10 * 7);
  });
  rig.sched.run();
  const server::RecoveryStats& s = rig.router.shard(k).stats();
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.restarts, 0u) << "a warm standby means no inline restart";
  // The background rebuild re-measured the lost enclave into the next
  // standby by the time the run drained.
  EXPECT_EQ(s.standby_rebuilds, 1u);
  EXPECT_TRUE(rig.router.shard(k).standby_ready());
  rig.router.stop();
}

TEST(FleetShardTest, WithoutReplicationLossFallsBackToRestart) {
  FleetRig rig(small_fleet(/*replication=*/false));
  rig.router.start();
  const std::uint32_t tenant = 1;
  const std::uint32_t k = rig.router.shard_of(tenant);
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 3;
    for (int i = 0; i < 4; ++i) rig.router.submit_and_wait(tenant, dep);
    rig.router.shard(k).app().enclave().mark_lost();
    for (int i = 0; i < 4; ++i) rig.router.submit_and_wait(tenant, dep);
    server::Request bal;
    bal.op = server::RequestOp::kBalance;
    EXPECT_EQ(rig.router.submit_and_wait(tenant, bal), 100 + 8 * 3);
  });
  rig.sched.run();
  EXPECT_EQ(rig.router.shard(k).stats().promotions, 0u);
  EXPECT_EQ(rig.router.shard(k).stats().restarts, 1u);
  rig.router.stop();
}

// ---- Hot-tenant migration --------------------------------------------------

TEST(FleetRouterTest, MigrationDrainsThenPreservesBalanceExactly) {
  FleetRig rig(small_fleet(/*replication=*/true));
  rig.router.start();
  const std::uint32_t tenant = 0;
  const std::uint32_t from = rig.router.shard_of(tenant);
  const std::uint32_t to = from ^ 1;
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 11;
    for (int i = 0; i < 6; ++i) rig.router.submit_and_wait(tenant, dep);
    // Leave work in flight so the migration actually has to drain: these
    // fire-and-forget deposits are queued, not completed, when the
    // migration starts.
    std::uint32_t queued = 0;
    for (int i = 0; i < 4; ++i) {
      if (rig.router.submit(tenant, dep)) ++queued;
    }
    EXPECT_GT(queued, 0u);
    rig.router.migrate_tenant(tenant, to);
    EXPECT_EQ(rig.router.shard_of(tenant), to);
    server::Request bal;
    bal.op = server::RequestOp::kBalance;
    EXPECT_EQ(rig.router.submit_and_wait(tenant, bal),
              100 + static_cast<int>(6 + queued) * 11)
        << "every queued deposit lands exactly once, before the move";
  });
  rig.sched.run();
  EXPECT_FALSE(rig.router.shard(from).hosts(tenant));
  EXPECT_TRUE(rig.router.shard(to).hosts(tenant));
  // The route table now disagrees with the ring for exactly this tenant.
  EXPECT_EQ(rig.router.tenants_off_ring(), 1u);
  EXPECT_EQ(rig.router.stats().migrations, 1u);
  rig.router.stop();
}

TEST(FleetRouterTest, RoutesEveryTenantToItsRingOwnerAtStart) {
  FleetConfig cfg = small_fleet(false);
  cfg.shards = 4;
  cfg.tenants = 64;
  FleetRig rig(cfg);
  rig.router.start();
  EXPECT_EQ(rig.router.tenants_off_ring(), 0u);
  std::set<std::uint32_t> used;
  for (std::uint32_t t = 0; t < 64; ++t) {
    const std::uint32_t k = rig.router.shard_of(t);
    EXPECT_EQ(k, rig.router.ring_owner(t));
    EXPECT_TRUE(rig.router.shard(k).hosts(t));
    used.insert(k);
  }
  // 64 tenants over 4 shards with 16 vnodes each: every shard is used.
  EXPECT_EQ(used.size(), 4u);
  rig.router.stop();
}

}  // namespace
}  // namespace msv
