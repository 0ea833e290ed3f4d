// Tests for the fault-injection and recovery layer (DESIGN.md §12):
// seeded deterministic fault plans, the polled injector, enclave loss /
// restart / epoch fencing, and the request server's recovery ladder
// (bounded retry, sealed-checkpoint restore, corruption fallback).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/illustrative/bank.h"
#include "core/app.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "fleet/router.h"
#include "rmi/proxy_runtime.h"
#include "sched/scheduler.h"
#include "server/server.h"
#include "sgx/enclave.h"
#include "sgx/sealing.h"
#include "sim/env.h"
#include "support/error.h"
#include "telemetry/telemetry.h"

namespace msv {
namespace {

using faults::FaultEvent;
using faults::FaultInjector;
using faults::FaultKind;
using faults::FaultPlan;
using faults::FaultPlanConfig;

// ---- Fault plans -----------------------------------------------------------

FaultPlanConfig busy_config(std::uint64_t seed) {
  FaultPlanConfig c;
  c.seed = seed;
  c.horizon = 1'000'000;
  c.enclave_losses = 3;
  c.transition_failures = 5;
  c.epc_spikes = 2;
  c.epc_spike_cycles = 100'000;
  c.tcs_bursts = 2;
  c.tcs_burst_cycles = 50'000;
  c.blob_corruptions = 2;
  return c;
}

TEST(FaultPlanTest, GenerateIsPureFunctionOfConfig) {
  const FaultPlan a = FaultPlan::generate(busy_config(42));
  const FaultPlan b = FaultPlan::generate(busy_config(42));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.digest(), b.digest());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  EXPECT_NE(a.digest(), FaultPlan::generate(busy_config(43)).digest());
}

TEST(FaultPlanTest, GenerateCountsKindsAndClosesWindows) {
  const FaultPlanConfig cfg = busy_config(7);
  const FaultPlan plan = FaultPlan::generate(cfg);
  // 3 losses + 5 failures + 2*(start+end) EPC + 2*(start+end) TCS + 2.
  ASSERT_EQ(plan.size(), 18u);
  std::uint32_t losses = 0, failures = 0, corruptions = 0;
  std::uint32_t epc_open = 0, tcs_open = 0;
  Cycles prev = 0;
  for (const FaultEvent& e : plan.events()) {
    EXPECT_GE(e.at, prev) << "plan must be time-sorted";
    prev = e.at;
    EXPECT_LT(e.at, cfg.horizon) << "every event must land inside the horizon";
    switch (e.kind) {
      case FaultKind::kEnclaveLoss: ++losses; break;
      case FaultKind::kTransitionFailure: ++failures; break;
      case FaultKind::kBlobCorruption: ++corruptions; break;
      case FaultKind::kEpcPressureStart: ++epc_open; break;
      case FaultKind::kEpcPressureEnd:
        ASSERT_GT(epc_open, 0u) << "window end before its start";
        --epc_open;
        break;
      case FaultKind::kTcsSeizeStart: ++tcs_open; break;
      case FaultKind::kTcsSeizeEnd:
        ASSERT_GT(tcs_open, 0u) << "window end before its start";
        --tcs_open;
        break;
    }
  }
  EXPECT_EQ(losses, cfg.enclave_losses);
  EXPECT_EQ(failures, cfg.transition_failures);
  EXPECT_EQ(corruptions, cfg.blob_corruptions);
  EXPECT_EQ(epc_open, 0u) << "every EPC window must close inside the horizon";
  EXPECT_EQ(tcs_open, 0u) << "every TCS window must close inside the horizon";
}

TEST(FaultPlanTest, ManualAddKeepsTimeSortedAndStable) {
  FaultPlan plan;
  plan.add({300, FaultKind::kTransitionFailure, 0});
  plan.add({100, FaultKind::kEnclaveLoss, 0});
  plan.add({300, FaultKind::kBlobCorruption, 0});  // equal instant: after
  plan.add({200, FaultKind::kEpcPressureStart, 8});
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kEnclaveLoss);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kEpcPressureStart);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kTransitionFailure);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kBlobCorruption);
}

TEST(FaultPlanTest, DigestSeesEveryField) {
  FaultPlan a, b, c, d;
  a.add({100, FaultKind::kEpcPressureStart, 8});
  b.add({100, FaultKind::kEpcPressureStart, 9});   // magnitude differs
  c.add({101, FaultKind::kEpcPressureStart, 8});   // instant differs
  d.add({100, FaultKind::kEpcPressureStart, 8, 2});  // target differs
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(b.digest(), c.digest());
  EXPECT_NE(a.digest(), d.digest());
}

// ---- Fleet-scoped plans (DESIGN.md §14) ------------------------------------

TEST(FaultPlanTest, FleetEventsPartitionByTarget) {
  FaultPlanConfig cfg = busy_config(42);
  cfg.fleet_shards = 4;
  cfg.shard_losses = 6;
  cfg.shard_transition_failures = 4;
  const FaultPlan plan = FaultPlan::generate(cfg);
  EXPECT_EQ(plan.digest(), FaultPlan::generate(cfg).digest());
  std::size_t targeted = 0;
  for (const FaultEvent& e : plan.events()) {
    if (e.target != faults::kAnyTarget) {
      ++targeted;
      EXPECT_LT(e.target, 4u);
    }
  }
  EXPECT_EQ(targeted, 10u);
  // The per-shard projections partition the targeted events...
  std::size_t across_shards = 0;
  for (std::uint32_t k = 0; k < 4; ++k) {
    const FaultPlan mine = plan.for_target(k);
    for (const FaultEvent& e : mine.events()) EXPECT_EQ(e.target, k);
    across_shards += mine.size();
  }
  EXPECT_EQ(across_shards, targeted);
  // ...and with include_untargeted every projection carries the shared
  // single-enclave events too.
  const std::size_t untargeted = plan.size() - targeted;
  EXPECT_EQ(plan.for_target(0, /*include_untargeted=*/true).size(),
            plan.for_target(0).size() + untargeted);
}

TEST(FaultPlanTest, FleetCountsExtendTheSingleEnclavePrefix) {
  // Adding fleet events must not disturb the single-enclave schedule a
  // pre-fleet config would generate: same seed, same prefix.
  const FaultPlanConfig base = busy_config(9);
  FaultPlanConfig fleet = base;
  fleet.fleet_shards = 2;
  fleet.shard_losses = 3;
  const FaultPlan a = FaultPlan::generate(base);
  const FaultPlan b = FaultPlan::generate(fleet);
  ASSERT_EQ(b.size(), a.size() + 3);
  std::vector<FaultEvent> untargeted;
  for (const FaultEvent& e : b.events()) {
    if (e.target == faults::kAnyTarget) untargeted.push_back(e);
  }
  ASSERT_EQ(untargeted.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(untargeted[i].at, a.events()[i].at);
    EXPECT_EQ(untargeted[i].kind, a.events()[i].kind);
    EXPECT_EQ(untargeted[i].magnitude, a.events()[i].magnitude);
  }
}

// ---- Injector (polled directly, no app) ------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest() : enclave_(env_, "t", Sha256::hash("img"), 4096) {
    enclave_.init(Sha256::hash("img"));
  }

  Env env_;
  sgx::Enclave enclave_;
};

TEST_F(FaultInjectorTest, LossIsHeldUntilEcallEntry) {
  FaultPlan plan;
  plan.add({0, FaultKind::kEnclaveLoss, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  // Due, but an ocall-side poll must not fire it: the loss surfaces
  // mid-ecall or not at all.
  EXPECT_NO_THROW(injector.on_transition_start());
  EXPECT_EQ(injector.stats().enclave_losses, 0u);
  EXPECT_EQ(injector.pending(), 1u);
  EXPECT_THROW(injector.on_ecall_entry(), sgx::EnclaveLostError);
  EXPECT_EQ(enclave_.state(), sgx::EnclaveState::kLost);
  EXPECT_EQ(injector.stats().enclave_losses, 1u);
  EXPECT_TRUE(injector.exhausted());
}

TEST_F(FaultInjectorTest, EventsQueueBehindAPendingLoss) {
  FaultPlan plan;
  plan.add({0, FaultKind::kEnclaveLoss, 0});
  plan.add({0, FaultKind::kTransitionFailure, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  // The due transition failure waits behind the held loss...
  EXPECT_NO_THROW(injector.on_transition_start());
  EXPECT_EQ(injector.pending(), 2u);
  // ...fires the loss first at ecall entry, then the failure on the next
  // poll (one throw per poll: a consumed event never replays).
  EXPECT_THROW(injector.on_ecall_entry(), sgx::EnclaveLostError);
  EXPECT_THROW(injector.on_transition_start(), sgx::TransitionError);
  EXPECT_TRUE(injector.exhausted());
}

TEST_F(FaultInjectorTest, TransitionFailureFiresExactlyOnce) {
  FaultPlan plan;
  plan.add({0, FaultKind::kTransitionFailure, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  EXPECT_THROW(injector.on_transition_start(), sgx::TransitionError);
  EXPECT_NO_THROW(injector.on_transition_start());
  EXPECT_EQ(injector.stats().transition_failures, 1u);
}

TEST_F(FaultInjectorTest, EpcPressureWindowOpensAndCloses) {
  // Enclave build/measure already advanced the clock: schedule relative.
  const Cycles t0 = env_.clock.now();
  FaultPlan plan;
  plan.add({t0, FaultKind::kEpcPressureStart, 0});  // 0 = resolve at arm
  plan.add({t0 + 1000, FaultKind::kEpcPressureEnd, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  injector.on_transition_start();
  const std::uint64_t half =
      std::max<std::uint64_t>(1, enclave_.epc().capacity_pages() / 2);
  EXPECT_EQ(enclave_.epc().reserved_pages(), half);
  EXPECT_EQ(injector.stats().epc_spikes, 1u);
  env_.clock.advance(1000);
  injector.on_transition_start();
  EXPECT_EQ(enclave_.epc().reserved_pages(), 0u);
}

TEST_F(FaultInjectorTest, TcsSeizureWindowOpensAndCloses) {
  const Cycles t0 = env_.clock.now();
  FaultPlan plan;
  plan.add({t0, FaultKind::kTcsSeizeStart, 0});  // 0 = all slots but one
  plan.add({t0 + 1000, FaultKind::kTcsSeizeEnd, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  injector.on_transition_start();
  EXPECT_EQ(enclave_.tcs().seized(), enclave_.tcs().slots() - 1);
  EXPECT_EQ(injector.stats().tcs_bursts, 1u);
  env_.clock.advance(1000);
  injector.on_transition_start();
  EXPECT_EQ(enclave_.tcs().seized(), 0u);
}

TEST_F(FaultInjectorTest, CorruptionWithoutTargetIsCountedNotEaten) {
  FaultPlan plan;
  plan.add({0, FaultKind::kBlobCorruption, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  EXPECT_NO_THROW(injector.on_transition_start());
  EXPECT_EQ(injector.stats().blob_corruptions, 0u);
  EXPECT_EQ(injector.stats().skipped_corruptions, 1u);
}

TEST_F(FaultInjectorTest, FutureEventsAreNotFiredEarly) {
  FaultPlan plan;
  plan.add({env_.clock.now() + 5000, FaultKind::kTransitionFailure, 0});
  FaultInjector injector(env_, std::move(plan));
  injector.arm(enclave_);
  EXPECT_NO_THROW(injector.on_transition_start());
  EXPECT_EQ(injector.pending(), 1u);
  env_.clock.advance(5000);
  EXPECT_THROW(injector.on_transition_start(), sgx::TransitionError);
}

// ---- Enclave loss, restart and epoch fencing -------------------------------

TEST(EnclaveRecoveryTest, LostEnclaveFaultsEveryEcallUntilRestart) {
  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  const rt::Value session =
      app.construct_in(0, "Account", {rt::Value("a"), rt::Value(5)});
  EXPECT_EQ(
      app.untrusted_context().invoke(session.as_ref(), "getBalance", {})
          .as_i32(),
      5);
  EXPECT_EQ(app.enclave().epoch(), 1u);
  // A healthy enclave must refuse a restart (nothing to recover from).
  EXPECT_THROW(app.restart_enclave(), RuntimeFault);

  app.enclave().mark_lost();
  EXPECT_THROW(
      app.untrusted_context().invoke(session.as_ref(), "getBalance", {}),
      sgx::EnclaveLostError);

  app.restart_enclave();
  EXPECT_EQ(app.enclave().state(), sgx::EnclaveState::kInitialized);
  EXPECT_EQ(app.enclave().epoch(), 2u);
  EXPECT_EQ(app.enclave().lost_count(), 1u);
  // The old proxy's mirror died with the old enclave heap: epoch fencing
  // turns the dangling route into a typed fault, not a wrong answer.
  EXPECT_THROW(
      app.untrusted_context().invoke(session.as_ref(), "getBalance", {}),
      rmi::StaleProxyError);
  // Fresh sessions against the restarted enclave work.
  const rt::Value fresh =
      app.construct_in(0, "Account", {rt::Value("a"), rt::Value(7)});
  EXPECT_EQ(
      app.untrusted_context().invoke(fresh.as_ref(), "getBalance", {})
          .as_i32(),
      7);
}

TEST(EnclaveRecoveryTest, SealedBlobSurvivesRestart) {
  // Same image => same measurement => same sealing key: a checkpoint
  // sealed before the loss unseals after the restart.
  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  sgx::SealingPlatform sealer("fuse");
  const std::vector<std::uint8_t> secret = {1, 2, 3, 4};
  const sgx::SealedBlob blob = sealer.seal(app.enclave(), secret, 99);
  app.enclave().mark_lost();
  app.restart_enclave();
  EXPECT_EQ(sealer.unseal(app.enclave(), blob), secret);
}

// ---- Server recovery ladder ------------------------------------------------

server::ServerConfig recovery_config(std::uint32_t checkpoint_every) {
  server::ServerConfig cfg;
  cfg.recovery.enabled = true;
  cfg.recovery.checkpoint_every = checkpoint_every;
  return cfg;
}

server::Request deposit(std::int32_t amount) {
  server::Request r;
  r.op = server::RequestOp::kDeposit;
  r.amount = amount;
  return r;
}

server::Request read_balance() {
  server::Request r;
  r.op = server::RequestOp::kBalance;
  return r;
}

TEST(ServerRecoveryTest, RestartRestoresSealedCheckpoints) {
  core::PartitionedApp app(apps::build_bank_app(), 2, {});
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, recovery_config(2));
  srv.start();
  sched.spawn("clients", [&] {
    for (int i = 0; i < 4; ++i) {
      for (std::uint32_t t = 0; t < 2; ++t) {
        srv.submit_and_wait(t, deposit(10));
      }
    }
  });
  sched.run();
  EXPECT_EQ(srv.tenant_stats(0).checkpoints, 2u);  // after requests 2 and 4

  app.enclave().mark_lost();
  std::int64_t bal0 = -1, bal1 = -1;
  sched.spawn("reader", [&] {
    bal0 = srv.submit_and_wait(0, read_balance());
    bal1 = srv.submit_and_wait(1, read_balance());
  });
  sched.run();
  // The first post-loss request restarts the enclave once and restores
  // *both* tenants from their latest checkpoints (sealed at deposit 4).
  EXPECT_EQ(bal0, 40);
  EXPECT_EQ(bal1, 40);
  EXPECT_EQ(srv.restarts(), 1u);
  EXPECT_EQ(app.enclave().epoch(), 2u);
  EXPECT_EQ(srv.tenant_stats(0).restored, 1u);
  EXPECT_EQ(srv.tenant_stats(1).restored, 1u);
  EXPECT_EQ(srv.totals().failed, 0u);
  srv.stop();
}

TEST(ServerRecoveryTest, DepositsSinceLastCheckpointAreLost) {
  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, recovery_config(2));
  srv.start();
  sched.spawn("client", [&] {
    for (int i = 0; i < 3; ++i) srv.submit_and_wait(0, deposit(10));
  });
  sched.run();
  app.enclave().mark_lost();
  std::int64_t balance = -1;
  sched.spawn("reader",
              [&] { balance = srv.submit_and_wait(0, read_balance()); });
  sched.run();
  // Checkpoint sealed at deposit 2 (balance 20); deposit 3 is inside the
  // crash-consistency window and rolls back.
  EXPECT_EQ(balance, 20);
  EXPECT_EQ(srv.tenant_stats(0).restored, 1u);
  srv.stop();
}

TEST(ServerRecoveryTest, RetryAbsorbsTransientTransitionFailures) {
  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, recovery_config(0));
  srv.start();

  FaultPlan plan;
  plan.add({0, FaultKind::kTransitionFailure, 0});
  plan.add({0, FaultKind::kTransitionFailure, 0});
  FaultInjector injector(app.env(), std::move(plan));
  injector.arm(app.enclave());
  app.bridge().attach_fault_injector(&injector);

  std::int64_t balance = -1;
  sched.spawn("client", [&] {
    srv.submit_and_wait(0, deposit(10));
    balance = srv.submit_and_wait(0, read_balance());
  });
  sched.run();
  app.bridge().attach_fault_injector(nullptr);

  EXPECT_EQ(balance, 10);
  EXPECT_EQ(srv.tenant_stats(0).retries, 2u);
  EXPECT_EQ(srv.tenant_stats(0).completed, 2u);
  EXPECT_EQ(srv.tenant_stats(0).failed, 0u);
  EXPECT_EQ(injector.stats().transition_failures, 2u);
  srv.stop();
}

TEST(ServerRecoveryTest, RetryBudgetExhaustionFailsTheRequest) {
  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  sched::Scheduler sched(app.env());
  server::ServerConfig cfg = recovery_config(0);
  cfg.recovery.max_attempts = 3;
  server::RequestServer srv(sched, app, cfg);
  srv.start();

  FaultPlan plan;
  for (int i = 0; i < 10; ++i) {
    plan.add({0, FaultKind::kTransitionFailure, 0});
  }
  FaultInjector injector(app.env(), std::move(plan));
  injector.arm(app.enclave());
  app.bridge().attach_fault_injector(&injector);

  sched.spawn("client", [&] {
    EXPECT_THROW(srv.submit_and_wait(0, deposit(10)),
                 server::RetriesExhaustedError);
  });
  sched.run();
  app.bridge().attach_fault_injector(nullptr);

  EXPECT_EQ(srv.tenant_stats(0).failed, 1u);
  EXPECT_EQ(srv.tenant_stats(0).retries, 3u);  // one per attempt
  EXPECT_EQ(srv.tenant_stats(0).completed, 0u);
  srv.stop();
}

TEST(ServerRecoveryTest, FailedCheckpointReadNeverReusesASequenceNumber) {
  // Three deposits, a checkpoint after each, and the second checkpoint's
  // balance read fails. The IV of a sealed checkpoint is (seq << 8) |
  // tenant under a key that survives restarts, so a sequence number sealed
  // twice would encrypt two balances with one keystream.
  //
  // A traced fault-free run finds the instant that read enters its
  // transition (tracing never moves the clock); the measured run fails the
  // transition starting there.
  Cycles read_start = 0;
  {
    core::AppConfig traced;
    traced.trace.mode = telemetry::TraceMode::kFull;
    core::PartitionedApp app(apps::build_bank_app(), 1, traced);
    sched::Scheduler sched(app.env());
    server::RequestServer srv(sched, app, recovery_config(1));
    srv.start();
    Cycles second = 0;
    sched.spawn("client", [&] {
      srv.submit_and_wait(0, deposit(10));
      second = app.env().clock.now();
      srv.submit_and_wait(0, deposit(10));
    });
    sched.run();
    srv.stop();
    const telemetry::Tracer& tr = app.env().telemetry.tracer();
    for (const telemetry::SpanRecord& s : tr.spans()) {
      const std::string& name = tr.name(s.name);
      if (s.start >= second && name.rfind("ecall_relay_", 0) == 0 &&
          name.find("getBalance") != std::string::npos &&
          (read_start == 0 || s.start < read_start)) {
        read_start = s.start;
      }
    }
  }
  ASSERT_GT(read_start, 0u);

  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, recovery_config(1));
  srv.start();
  FaultPlan plan;
  plan.add({read_start, FaultKind::kTransitionFailure, 0});
  FaultInjector injector(app.env(), std::move(plan));
  injector.arm(app.enclave());
  app.bridge().attach_fault_injector(&injector);
  std::vector<std::vector<std::uint8_t>> blobs;
  sched.spawn("client", [&] {
    for (int i = 0; i < 3; ++i) {
      srv.submit_and_wait(0, deposit(10));
      blobs.push_back(srv.tenant_state(0).checkpoint);
    }
  });
  sched.run();
  app.bridge().attach_fault_injector(nullptr);

  EXPECT_EQ(injector.stats().transition_failures, 1u);
  EXPECT_EQ(srv.tenant_stats(0).retries, 0u) << "no request absorbed it";
  EXPECT_EQ(srv.tenant_stats(0).completed, 3u);
  EXPECT_EQ(srv.tenant_stats(0).checkpoints, 2u) << "the second one failed";
  ASSERT_EQ(blobs.size(), 3u);
  EXPECT_EQ(blobs[1], blobs[0]) << "a failed checkpoint keeps the last blob";
  const sgx::SealingPlatform sealer(server::RecoveryConfig{}.platform_secret);
  std::uint64_t last_seq = 0;
  std::set<std::vector<std::uint8_t>> ivs;
  for (const std::size_t i : {0u, 2u}) {
    const sgx::SealedBlob blob = sgx::SealedBlob::deserialize(blobs[i]);
    EXPECT_TRUE(ivs.insert(blob.iv).second) << "an IV was sealed twice";
    const std::uint64_t seq = server::TenantState::decode_payload(
                                  sealer.unseal(app.enclave(), blob), 0)
                                  .seq;
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  srv.stop();
}

TEST(ServerRecoveryTest, CorruptCheckpointIsRejectedAndFallsBack) {
  core::PartitionedApp app(apps::build_bank_app(), 1, {});
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, recovery_config(2));

  FaultPlan plan;
  plan.add({0, FaultKind::kBlobCorruption, 0});
  FaultInjector injector(app.env(), std::move(plan));
  injector.arm(app.enclave());
  srv.attach_fault_injector(injector);  // registers the blob corrupter
  srv.start();

  // Two deposits seal a checkpoint (balance 20)...
  sched.spawn("client", [&] {
    srv.submit_and_wait(0, deposit(10));
    srv.submit_and_wait(0, deposit(10));
  });
  sched.run();
  EXPECT_EQ(srv.tenant_stats(0).checkpoints, 1u);

  // ...then the corruption event flips one bit of the stored blob on the
  // next transition (an odd request, so no fresh checkpoint overwrites
  // the damage).
  app.bridge().attach_fault_injector(&injector);
  sched.spawn("client2", [&] { srv.submit_and_wait(0, read_balance()); });
  sched.run();
  app.bridge().attach_fault_injector(nullptr);
  EXPECT_EQ(injector.stats().blob_corruptions, 1u);

  app.enclave().mark_lost();
  std::int64_t balance = -1;
  sched.spawn("reader",
              [&] { balance = srv.submit_and_wait(0, read_balance()); });
  sched.run();
  // The tampered blob must fail authentication, never restore garbage:
  // the tenant falls back to a fresh session at the initial balance.
  EXPECT_EQ(balance, 0);
  EXPECT_EQ(srv.tenant_stats(0).checkpoint_corrupt, 1u);
  EXPECT_EQ(srv.tenant_stats(0).restored, 0u);
  EXPECT_EQ(srv.restarts(), 1u);
  srv.stop();
}

// ---- Fleet failover vs the restart ladder ----------------------------------

// The acceptance claim behind fig_fleet, in unit form: losing an enclave
// with a warm standby (replica promotion) must recover the shard at least
// 3x faster than the PR 5 restart-and-restore ladder. The recovery window
// is what ensure_recovered() bills — fence+flip for promotion vs a full
// enclave re-create and re-measure for restart.
TEST(FleetRecoveryTest, PromotionBeatsRestartLadderOnRecoveryLatency) {
  const auto recovery_window = [](bool replication) {
    const model::AppModel model = apps::build_bank_app();
    Env env;
    sched::Scheduler sched(env);
    fleet::FleetConfig cfg;
    cfg.shards = 1;
    cfg.tenants = 2;
    cfg.shard.replication = replication;
    cfg.shard.recovery.enabled = true;
    cfg.shard.recovery.checkpoint_every = 1;
    fleet::FleetRouter router(env, sched, model, cfg);
    router.start();
    sched.spawn("client", [&] {
      server::Request dep;
      dep.op = server::RequestOp::kDeposit;
      for (int i = 0; i < 3; ++i) router.submit_and_wait(0, dep);
      router.shard(0).app().enclave().mark_lost();
      router.submit_and_wait(0, dep);  // triggers the recovery path
    });
    sched.run();
    const Cycles window = router.shard(0).stats().last_recovery_cycles;
    router.stop();
    return window;
  };
  const Cycles promoted = recovery_window(true);
  const Cycles restarted = recovery_window(false);
  EXPECT_GT(restarted, 0u);
  EXPECT_LT(promoted * 3, restarted)
      << "promotion window " << promoted << " vs restart window "
      << restarted;
}

}  // namespace
}  // namespace msv
