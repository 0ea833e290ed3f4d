// Tests for the fleet health stack (DESIGN.md §16): SLO window/burn-rate
// edge cases (empty window, min-samples guard, epoch bump across a clock
// jump), flight-recorder ring bounding and snapshot-on-loss round-trips,
// sampling-profiler two-run determinism, and the overhead-when-off
// contract (arming the whole stack must not move the virtual clock).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "apps/illustrative/bank.h"
#include "fleet/router.h"
#include "sched/scheduler.h"
#include "sim/env.h"
#include "support/clock.h"
#include "telemetry/flight.h"
#include "telemetry/sampler.h"
#include "telemetry/slo.h"
#include "telemetry/telemetry.h"

namespace msv {
namespace {

using fleet::FleetConfig;
using fleet::FleetRouter;
using telemetry::FlightBus;
using telemetry::FlightEventKind;
using telemetry::HealthState;
using telemetry::MetricsRegistry;
using telemetry::PostMortem;
using telemetry::SampleProfiler;
using telemetry::SloConfig;
using telemetry::SloMonitor;
using telemetry::SloSnapshot;

// ---- SLO monitor -----------------------------------------------------------

SloConfig tight_slo() {
  SloConfig cfg;
  cfg.window_cycles = 1000;
  cfg.fast_windows = 1;
  cfg.slow_windows = 4;
  cfg.p99_target_cycles = 100;
  cfg.max_slow_fraction = 0.1;  // 1 slow in 10 is budgeted
  cfg.degraded_burn = 1.0;
  cfg.critical_burn = 8.0;
  cfg.min_samples = 1;
  return cfg;
}

TEST(SloMonitorTest, EmptyWindowStaysHealthy) {
  VirtualClock clock;
  SloMonitor mon(clock, tight_slo(), "shard");
  EXPECT_EQ(mon.health(0), HealthState::kHealthy);
  const SloSnapshot snap = mon.evaluate(0);
  EXPECT_EQ(snap.fast_total, 0u);
  EXPECT_EQ(snap.slow_total, 0u);
  EXPECT_EQ(snap.window_p99, 0u);
  EXPECT_STREQ(snap.dominant, "none");
  EXPECT_TRUE(mon.timeline().empty());
  EXPECT_EQ(mon.first_entered(0, HealthState::kDegraded), 0u);
  // Idle time passing changes nothing: an empty window is evidence of
  // health, not a breach.
  clock.advance(50'000);
  EXPECT_EQ(mon.health(0), HealthState::kHealthy);
  EXPECT_TRUE(mon.timeline().empty());
}

TEST(SloMonitorTest, MinSamplesGuardWithholdsJudgement) {
  VirtualClock clock;
  SloConfig cfg = tight_slo();
  cfg.min_samples = 8;
  SloMonitor mon(clock, cfg, "shard");
  // Seven straight errors: burn is catastrophic but the sample floor is
  // not met, so the state machine must not whipsaw on a thin window.
  for (int i = 0; i < 7; ++i) {
    clock.advance(10);
    mon.record_error(0);
    EXPECT_EQ(mon.health(0), HealthState::kHealthy);
  }
  EXPECT_TRUE(mon.timeline().empty());
  // The eighth event crosses the floor and the burn (1.0 error rate vs a
  // 0.01 budget) pages straight through degraded to critical.
  clock.advance(10);
  mon.record_error(0);
  EXPECT_EQ(mon.health(0), HealthState::kCritical);
  ASSERT_EQ(mon.timeline().size(), 1u);
  EXPECT_EQ(mon.timeline()[0].from, HealthState::kHealthy);
  EXPECT_EQ(mon.timeline()[0].to, HealthState::kCritical);
  EXPECT_EQ(mon.timeline()[0].reason, "error");
}

TEST(SloMonitorTest, BurnEscalatesStepwiseAndFastWindowRecovers) {
  VirtualClock clock;
  SloMonitor mon(clock, tight_slo(), "shard");
  // One fast completion: zero burn, healthy.
  clock.advance(10);
  mon.record_latency(0, 50);
  EXPECT_EQ(mon.health(0), HealthState::kHealthy);
  // 1 slow of 2 completions: slow rate 0.5 vs budget 0.1 = burn 5.0 —
  // past degraded (1.0), short of critical (8.0).
  clock.advance(10);
  mon.record_latency(0, 500);
  EXPECT_EQ(mon.health(0), HealthState::kDegraded);
  // Keep the slow stream coming until 4 of 5 are slow: burn 8.0 pages.
  for (int i = 0; i < 3; ++i) {
    clock.advance(10);
    mon.record_latency(0, 500);
  }
  EXPECT_EQ(mon.health(0), HealthState::kCritical);
  EXPECT_GT(mon.first_entered(0, HealthState::kDegraded), 0u);
  EXPECT_GE(mon.first_entered(0, HealthState::kCritical),
            mon.first_entered(0, HealthState::kDegraded));
  EXPECT_EQ(mon.keys_at_least(HealthState::kCritical), 1u);
  // Recovery keys off the fast window alone: jump past the slow window
  // and show one good completion — the slow window's memory of the storm
  // must not hold the shard hostage.
  clock.advance(tight_slo().window_cycles * 10);
  mon.record_latency(0, 50);
  EXPECT_EQ(mon.health(0), HealthState::kHealthy);
  // Timeline: healthy->degraded, degraded->critical, critical->healthy.
  ASSERT_EQ(mon.timeline().size(), 3u);
  EXPECT_EQ(mon.timeline()[2].from, HealthState::kCritical);
  EXPECT_EQ(mon.timeline()[2].to, HealthState::kHealthy);
}

TEST(SloMonitorTest, EpochBumpForgivesAcrossClockJump) {
  VirtualClock clock;
  SloMonitor mon(clock, tight_slo(), "shard");
  clock.advance(10);
  for (int i = 0; i < 5; ++i) mon.record_error(0);
  ASSERT_EQ(mon.health(0), HealthState::kCritical);
  // Promotion: the new authority starts with a clean error budget. The
  // bump itself renders judgement on nothing (empty window = withheld),
  // so the state holds until fresh evidence arrives...
  mon.note_epoch(0, 2);
  EXPECT_EQ(mon.health(0), HealthState::kCritical);
  // ...even across the recovery ladder's dead-time jump: the stale
  // buckets are gone, so none of the old errors can be attributed to the
  // fresh enclave after the jump.
  clock.advance(tight_slo().window_cycles * 3);
  mon.record_latency(0, 50);
  EXPECT_EQ(mon.health(0), HealthState::kHealthy);
  // The bump is an annotation (from == to) on the timeline and the
  // report carries the new epoch.
  bool saw_epoch = false;
  for (const auto& ev : mon.timeline()) {
    if (ev.reason == "epoch=2") {
      saw_epoch = true;
      EXPECT_EQ(ev.from, ev.to);
    }
  }
  EXPECT_TRUE(saw_epoch);
  const std::string report = mon.report(clock.hz());
  EXPECT_NE(report.find("epoch=2"), std::string::npos);
  EXPECT_NE(report.find("critical -> healthy"), std::string::npos);
}

TEST(SloMonitorTest, ReportIsByteDeterministic) {
  const auto drive = [](VirtualClock& clock, SloMonitor& mon) {
    for (int i = 0; i < 20; ++i) {
      clock.advance(137);
      mon.record_latency(i % 3, i % 4 == 0 ? 500 : 50);
      if (i % 5 == 0) mon.record_shed(1);
    }
    mon.note_epoch(2, 1);
    clock.advance(9999);
    mon.evaluate(0);
  };
  VirtualClock c1, c2;
  SloMonitor m1(c1, tight_slo(), "shard");
  SloMonitor m2(c2, tight_slo(), "shard");
  drive(c1, m1);
  drive(c2, m2);
  const std::string r1 = m1.report(c1.hz());
  EXPECT_FALSE(r1.empty());
  EXPECT_EQ(r1, m2.report(c2.hz()));
}

TEST(SloMonitorTest, PublishExportsPerKeyStateAndTransitions) {
  VirtualClock clock;
  SloMonitor mon(clock, tight_slo(), "shard");
  clock.advance(10);
  for (int i = 0; i < 5; ++i) mon.record_error(0);
  mon.record_latency(1, 50);
  MetricsRegistry m;
  mon.publish(m);
  const auto* sick = m.find("msv_slo_health", {{"shard", "0"}});
  ASSERT_NE(sick, nullptr);
  EXPECT_EQ(sick->gauge.value, 2.0);  // critical
  const auto* fine = m.find("msv_slo_health", {{"shard", "1"}});
  ASSERT_NE(fine, nullptr);
  EXPECT_EQ(fine->gauge.value, 0.0);
  const auto* crit = m.find("msv_slo_critical_total", {{"shard", "0"}});
  ASSERT_NE(crit, nullptr);
  EXPECT_EQ(crit->counter.value, 1u);
  EXPECT_EQ(mon.keys_at_least(HealthState::kDegraded), 1u);
}

// ---- Flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, RingEvictsFifoAndCountsEvictions) {
  Env env;
  FlightBus bus(env.telemetry, /*ring_capacity=*/4);
  telemetry::FlightRecorder& rec = bus.recorder("e1");
  for (int i = 0; i < 10; ++i) {
    env.clock.advance(10);
    rec.record(FlightEventKind::kBridge, "ev" + std::to_string(i), i);
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.evicted(), 6u);
  // Strictly FIFO: the survivors are the newest four, oldest first.
  EXPECT_EQ(rec.events().front().name, "ev6");
  EXPECT_EQ(rec.events().back().name, "ev9");
  EXPECT_EQ(rec.events().back().a, 9);
}

TEST(FlightRecorderTest, SnapshotFreezesRingAndBundleRenders) {
  Env env;
  FlightBus bus(env.telemetry, /*ring_capacity=*/8);
  telemetry::FlightRecorder& rec = bus.recorder("e1");
  env.clock.advance(100);
  rec.record(FlightEventKind::kFault, "fault.enclave_loss");
  const PostMortem& pm =
      bus.snapshot("e1", "enclave_lost", {{"shard", "3"}});
  EXPECT_EQ(pm.seq, 1u);
  EXPECT_EQ(pm.reason, "enclave_lost");
  EXPECT_EQ(pm.at, 100u);
  ASSERT_EQ(pm.events.size(), 1u);
  // The snapshot is a frozen copy: later traffic must not leak into it.
  rec.record(FlightEventKind::kLifecycle, "restart");
  EXPECT_EQ(bus.post_mortems()[0].events.size(), 1u);
  EXPECT_EQ(bus.post_mortems()[0].events[0].name, "fault.enclave_loss");
  // Snapshotting a silent enclave is legal — forensics must not depend
  // on the victim having been chatty.
  const PostMortem& ghost = bus.snapshot("ghost", "restart");
  EXPECT_EQ(ghost.seq, 2u);
  EXPECT_TRUE(ghost.events.empty());
  const std::string bundle = bus.bundle_json(env.clock.hz());
  EXPECT_NE(bundle.find("msv-postmortem-v1"), std::string::npos);
  EXPECT_NE(bundle.find("enclave_lost"), std::string::npos);
  EXPECT_NE(bundle.find("fault.enclave_loss"), std::string::npos);
  EXPECT_NE(bundle.find("\"shard\""), std::string::npos);
}

// ---- Fleet integration -----------------------------------------------------

struct HealthRig {
  explicit HealthRig(FleetConfig cfg)
      : model(apps::build_bank_app()),
        sched(env),
        router(env, sched, model, cfg) {}

  Env env;
  model::AppModel model;
  sched::Scheduler sched;
  FleetRouter router;  // destroyed first: stop() runs while sched is alive
};

FleetConfig health_fleet() {
  FleetConfig cfg;
  cfg.shards = 2;
  cfg.tenants = 8;
  cfg.shard.replication = true;
  cfg.shard.recovery.enabled = true;
  cfg.shard.recovery.checkpoint_every = 1;
  cfg.shard.initial_balance = 100;
  return cfg;
}

// Deposits across every tenant with one mid-stream enclave loss; the
// workload every armed-vs-disarmed comparison below reruns verbatim.
Cycles run_loss_storm(HealthRig& rig) {
  rig.router.start();
  rig.sched.spawn("client", [&rig] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 7;
    for (std::uint32_t t = 0; t < 8; ++t) {
      for (int i = 0; i < 3; ++i) rig.router.submit_and_wait(t, dep);
    }
    const std::uint32_t victim = rig.router.shard_of(1);
    rig.router.shard(victim).app().enclave().mark_lost();
    for (std::uint32_t t = 0; t < 8; ++t) {
      for (int i = 0; i < 3; ++i) rig.router.submit_and_wait(t, dep);
    }
  });
  rig.sched.run();
  rig.router.stop();
  return rig.env.clock.now();
}

TEST(FlightStormTest, EnclaveLossLeavesAPostMortemRoundTrip) {
  HealthRig rig(health_fleet());
  FlightBus bus(rig.env.telemetry);
  rig.env.telemetry.set_flight(&bus);
  run_loss_storm(rig);
  rig.env.telemetry.set_flight(nullptr);
  // The loss froze the victim's ring the instant it died, and the
  // warm-standby promotion that served the failover snapshotted too.
  std::set<std::string> reasons;
  for (const PostMortem& pm : bus.post_mortems()) reasons.insert(pm.reason);
  EXPECT_TRUE(reasons.count("enclave_lost")) << "loss must snapshot";
  EXPECT_TRUE(reasons.count("promotion")) << "promotion must snapshot";
  // Round-trip: the enclave_lost snapshot carries the victim's bridge
  // traffic from before the loss.
  for (const PostMortem& pm : bus.post_mortems()) {
    if (pm.reason != "enclave_lost") continue;
    EXPECT_FALSE(pm.events.empty())
        << "the victim served traffic before dying; its ring cannot be "
           "empty";
    EXPECT_GT(pm.ring_recorded, 0u);
  }
  const std::string bundle = bus.bundle_json(rig.env.clock.hz());
  EXPECT_NE(bundle.find("msv-postmortem-v1"), std::string::npos);
  EXPECT_NE(bundle.find("enclave_lost"), std::string::npos);
  EXPECT_NE(bundle.find("promotion"), std::string::npos);
}

TEST(HealthOverheadTest, ArmingTheStackNeverMovesTheClock) {
  // Disarmed baseline.
  HealthRig base(health_fleet());
  const Cycles base_clock = run_loss_storm(base);

  // Fully armed: SLO monitor (observe mode), flight bus, profiler.
  FleetConfig cfg = health_fleet();
  cfg.slo_enabled = true;
  HealthRig armed(cfg);
  FlightBus bus(armed.env.telemetry);
  armed.env.telemetry.set_flight(&bus);
  SampleProfiler sampler(armed.env.clock, armed.env.telemetry.tracer(),
                         /*interval_cycles=*/100'000);
  armed.sched.set_sampler(&sampler);
  const Cycles armed_clock = run_loss_storm(armed);
  armed.sched.set_sampler(nullptr);
  armed.env.telemetry.set_flight(nullptr);

  // The whole stack observes; none of it is allowed to charge cycles.
  EXPECT_EQ(armed_clock, base_clock);
  // And it genuinely observed something while costing nothing.
  EXPECT_GT(sampler.samples(), 0u);
  EXPECT_FALSE(bus.post_mortems().empty());
  ASSERT_NE(armed.router.slo(), nullptr);
  EXPECT_FALSE(armed.router.slo()->timeline().empty());
}

TEST(SamplerTest, TwoArmedRunsFoldIdentically) {
  const auto run_armed = [](std::string* folded, std::uint64_t* samples) {
    HealthRig rig(health_fleet());
    telemetry::TraceConfig tc;
    tc.mode = telemetry::TraceMode::kFull;
    rig.env.telemetry.configure(tc);
    SampleProfiler sampler(rig.env.clock, rig.env.telemetry.tracer(),
                           /*interval_cycles=*/50'000);
    rig.sched.set_sampler(&sampler);
    const Cycles end = run_loss_storm(rig);
    rig.sched.set_sampler(nullptr);
    *folded = sampler.folded();
    *samples = sampler.samples();
    return end;
  };
  std::string f1, f2;
  std::uint64_t s1 = 0, s2 = 0;
  const Cycles c1 = run_armed(&f1, &s1);
  const Cycles c2 = run_armed(&f2, &s2);
  EXPECT_GT(s1, 0u);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(c1, c2);
  EXPECT_FALSE(f1.empty());
  EXPECT_EQ(f1, f2) << "profiles must be byte-identical at a seed";
}

// ---- Router SLO enforcement ------------------------------------------------

// An SLO config under which a single completion pages: everything lands
// in one absolute window and any latency exceeds the 1-cycle target.
FleetConfig paging_fleet(bool enforce) {
  FleetConfig cfg = health_fleet();
  cfg.slo_enabled = true;
  cfg.slo_enforce = enforce;
  cfg.slo.window_cycles = 1ull << 40;
  cfg.slo.p99_target_cycles = 1;
  cfg.slo.min_samples = 1;
  return cfg;
}

TEST(FleetSloTest, EnforceShedsSubmissionsToACriticalShard) {
  HealthRig rig(paging_fleet(/*enforce=*/true));
  rig.router.start();
  const std::uint32_t tenant = 0;
  const std::uint32_t k = rig.router.shard_of(tenant);
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 5;
    // The completion's latency (far beyond 1 cycle) pages the shard
    // critical the moment it is recorded.
    rig.router.submit_and_wait(tenant, dep);
    ASSERT_NE(rig.router.slo(), nullptr);
    EXPECT_EQ(rig.router.slo()->health(k), HealthState::kCritical);
    // Enforcement: admission to the critical shard closes.
    EXPECT_FALSE(rig.router.submit(tenant, dep));
  });
  rig.sched.run();
  const fleet::FleetStats stats = rig.router.stats();
  EXPECT_GT(stats.shed_slo, 0u);
  EXPECT_GE(stats.shed, stats.shed_slo) << "shed_slo folds into total shed";
  rig.router.stop();
}

TEST(FleetSloTest, ObserveModeNeverSheds) {
  HealthRig rig(paging_fleet(/*enforce=*/false));
  rig.router.start();
  const std::uint32_t tenant = 0;
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 5;
    rig.router.submit_and_wait(tenant, dep);
    // Observe mode: the monitor pages but the router keeps admitting.
    EXPECT_TRUE(rig.router.submit(tenant, dep));
  });
  rig.sched.run();
  EXPECT_EQ(rig.router.stats().shed_slo, 0u);
  rig.router.stop();
}

TEST(FleetSloTest, MigrationHintPointsOffTheSickShard) {
  HealthRig rig(paging_fleet(/*enforce=*/false));
  rig.router.start();
  // All shards healthy: no hint.
  EXPECT_FALSE(rig.router.migration_hint().has_value());
  // Page exactly one shard by driving one tenant's traffic at it.
  const std::uint32_t tenant = 0;
  const std::uint32_t sick = rig.router.shard_of(tenant);
  rig.sched.spawn("client", [&] {
    server::Request dep;
    dep.op = server::RequestOp::kDeposit;
    dep.amount = 5;
    for (int i = 0; i < 5; ++i) rig.router.submit_and_wait(tenant, dep);
  });
  rig.sched.run();
  const std::optional<FleetRouter::MigrationHint> hint =
      rig.router.migration_hint();
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->from_shard, sick);
  EXPECT_NE(hint->to_shard, sick);
  // The hint names a tenant actually resident on the sick shard.
  EXPECT_EQ(rig.router.shard_of(hint->tenant), sick);
  rig.router.stop();
}

}  // namespace
}  // namespace msv
