// Tests for the serving layer (DESIGN.md §8): TCS pool semantics under
// concurrent callers, switchless worker rings and their honesty contract,
// per-task bridge call contexts, the multi-tenant request server, and —
// the property the subsystem exists to demonstrate — GC pause
// independence across tenant isolates under concurrent load.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "apps/illustrative/bank.h"
#include "core/app.h"
#include "sched/scheduler.h"
#include "server/harness.h"
#include "server/server.h"
#include "sgx/bridge.h"
#include "sgx/enclave.h"
#include "sgx/tcs.h"
#include "support/error.h"

namespace msv {
namespace {

using sgx::CallId;
using sgx::TcsConfig;
using sgx::TransitionBridge;

Sha256::Digest test_measurement() { return Sha256::hash("trusted-image"); }

std::unique_ptr<sgx::Enclave> make_enclave(Env& env, TcsConfig tcs = {}) {
  auto e = std::make_unique<sgx::Enclave>(env, "test", test_measurement(),
                                          /*image_bytes=*/1 << 20,
                                          4ull << 30, 8ull << 20, tcs);
  e->init(test_measurement());
  return e;
}

// ---- TCS pool --------------------------------------------------------------

// Runs `tasks` concurrent ecalls whose handler holds its TCS for
// `hold_cycles` of simulated time, and returns the bridge stats.
sgx::BridgeStats run_contended_ecalls(std::uint32_t slots,
                                      std::uint32_t tasks,
                                      Cycles hold_cycles) {
  Env env;
  auto enclave = make_enclave(env, TcsConfig{slots,
                                             TcsConfig::OnExhaustion::kBlock});
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const CallId id = bridge.register_ecall("work", [&](ByteReader&) {
    sched.sleep_for(hold_cycles);  // TCS held across the whole ecall
    return ByteBuffer();
  });
  for (std::uint32_t t = 0; t < tasks; ++t) {
    sched.spawn("caller", [&, id] {
      ByteBuffer req, resp;
      bridge.ecall(id, req, resp);
    });
  }
  sched.run();
  return bridge.stats();
}

TEST(TcsPool, FewerSlotsThanTasksProducesQueueingDelay) {
  const auto stats = run_contended_ecalls(/*slots=*/1, /*tasks=*/4,
                                          /*hold_cycles=*/10'000);
  EXPECT_EQ(stats.ecalls, 4u);
  EXPECT_EQ(stats.tcs_waits, 3u) << "three callers queued behind slot 0";
  EXPECT_GT(stats.tcs_wait_cycles, 0u);
}

TEST(TcsPool, EnoughSlotsMeansNoQueueing) {
  const auto stats = run_contended_ecalls(/*slots=*/4, /*tasks=*/4,
                                          /*hold_cycles=*/10'000);
  EXPECT_EQ(stats.ecalls, 4u);
  EXPECT_EQ(stats.tcs_waits, 0u);
  EXPECT_EQ(stats.tcs_wait_cycles, 0u)
      << "a free slot costs zero cycles (seed cycle-exactness)";
}

TEST(TcsPool, FailPolicyThrowsOutOfTcs) {
  Env env;
  auto enclave =
      make_enclave(env, TcsConfig{1, TcsConfig::OnExhaustion::kFail});
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const CallId id = bridge.register_ecall("work", [&](ByteReader&) {
    sched.sleep_for(1'000);
    return ByteBuffer();
  });
  int failures = 0;
  for (int t = 0; t < 3; ++t) {
    sched.spawn("caller", [&, id] {
      ByteBuffer req, resp;
      try {
        bridge.ecall(id, req, resp);
      } catch (const sgx::OutOfTcsError&) {
        ++failures;
      }
    });
  }
  sched.run();
  EXPECT_EQ(failures, 2) << "SGX_ERROR_OUT_OF_TCS for callers 2 and 3";
  EXPECT_EQ(bridge.stats().out_of_tcs_errors, 2u);
  EXPECT_EQ(bridge.stats().ecalls, 1u);
}

TEST(TcsPool, NestedOcallKeepsTheTcs) {
  // An ocall from inside an ecall re-enters through the *same* TCS: with
  // one slot, a second caller stays queued across the nested ocall.
  Env env;
  auto enclave =
      make_enclave(env, TcsConfig{1, TcsConfig::OnExhaustion::kBlock});
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  std::uint32_t max_in_use = 0;
  const CallId host = bridge.register_ocall("host", [&](ByteReader&) {
    max_in_use = std::max(max_in_use, enclave->tcs().in_use());
    sched.sleep_for(5'000);
    return ByteBuffer();
  });
  const CallId enter = bridge.register_ecall("enter", [&](ByteReader&) {
    ByteBuffer req, resp;
    bridge.ocall(host, req, resp);
    return ByteBuffer();
  });
  for (int t = 0; t < 2; ++t) {
    sched.spawn("caller", [&, enter] {
      ByteBuffer req, resp;
      bridge.ecall(enter, req, resp);
    });
  }
  sched.run();
  EXPECT_EQ(max_in_use, 1u) << "the ocall did not release the TCS";
  EXPECT_EQ(bridge.stats().tcs_waits, 1u);
}

TEST(TcsPool, QueueDrainsFifoAcrossNestedOcallWindow) {
  // Callers that queued while the lone TCS holder sat in a nested ocall
  // must be granted in arrival order once the ecall finally returns, and
  // each waiter's full queued window (arrival -> grant claim) must land
  // in tcs_wait_cycles — the drain happening "under" an ocall window is
  // exactly where the pre-fix pool mis-handled unclaimed grants.
  Env env;
  auto enclave =
      make_enclave(env, TcsConfig{1, TcsConfig::OnExhaustion::kBlock});
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const CallId host = bridge.register_ocall("host", [&](ByteReader&) {
    sched.sleep_for(10'000);  // the TCS stays held across this window
    return ByteBuffer();
  });
  const CallId enter = bridge.register_ecall("enter", [&](ByteReader&) {
    ByteBuffer req, resp;
    bridge.ocall(host, req, resp);
    return ByteBuffer();
  });
  const CallId quick = bridge.register_ecall("quick", [&](ByteReader&) {
    return ByteBuffer();
  });
  std::vector<int> completion_order;
  sched.spawn("holder", [&, enter] {
    ByteBuffer req, resp;
    bridge.ecall(enter, req, resp);
    completion_order.push_back(0);
  });
  for (int t = 1; t <= 3; ++t) {
    sched.spawn("waiter", [&, quick, t] {
      sched.sleep_for(static_cast<Cycles>(t));  // arrival order 1, 2, 3
      ByteBuffer req, resp;
      bridge.ecall(quick, req, resp);
      completion_order.push_back(t);
    });
  }
  sched.run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3}))
      << "grants must drain the queue in arrival order";
  EXPECT_EQ(bridge.stats().tcs_waits, 3u);
  // Every waiter queued from its arrival (t=1,2,3) until the holder's
  // ecall released the slot after the 10k-cycle nested ocall; the three
  // windows overlap almost entirely, so the total is strictly more than
  // 3x the ocall window alone would suggest for one waiter.
  EXPECT_GT(bridge.stats().tcs_wait_cycles, 3u * 10'000u);
}

// ---- Per-task call contexts ------------------------------------------------

TEST(BridgeConcurrency, SideStacksArePerTask) {
  Env env;
  auto enclave = make_enclave(env, TcsConfig{8, {}});
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  bool observed_trusted_inside = false;
  bool observed_untrusted_outside = false;
  const CallId nap = bridge.register_ecall("nap", [&](ByteReader&) {
    EXPECT_EQ(bridge.side(), Side::kTrusted);
    sched.sleep_for(10'000);  // suspend *inside* the handler
    observed_trusted_inside = bridge.side() == Side::kTrusted;
    return ByteBuffer();
  });
  sched.spawn("inside", [&, nap] {
    ByteBuffer req, resp;
    bridge.ecall(nap, req, resp);
  });
  sched.spawn("outside", [&] {
    sched.sleep_for(1'000);  // while "inside" sits in the handler
    observed_untrusted_outside = bridge.side() == Side::kUntrusted;
  });
  sched.run();
  EXPECT_TRUE(observed_trusted_inside);
  EXPECT_TRUE(observed_untrusted_outside)
      << "task B's side stack is independent of task A's ecall depth";
  EXPECT_EQ(bridge.side(), Side::kUntrusted) << "main context untouched";
}

// ---- Switchless rings ------------------------------------------------------

// One switchless call made from a task, either inline (workers stopped)
// or through the ring. Returns the cycle cost of the call.
Cycles switchless_call_cost(bool via_ring,
                            sgx::SwitchlessConfig::WakePolicy policy) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const CallId id = bridge.register_ecall("f", [&](ByteReader& r) {
    ByteBuffer out;
    out.put_u32(r.get_u32() + 1);
    return out;
  });
  bridge.set_switchless(id, true);
  if (via_ring) {
    sgx::SwitchlessConfig ring;
    ring.policy = policy;
    bridge.start_switchless_workers(ring, ring);
  }
  Cycles cost = 0;
  sched.spawn("caller", [&, id] {
    ByteBuffer req, resp;
    req.put_u32(41);
    const Cycles t0 = env.clock.now();
    bridge.ecall(id, req, resp);
    cost = env.clock.now() - t0;
    EXPECT_EQ(ByteReader(resp).get_u32(), 42u);
  });
  sched.run();
  if (via_ring) bridge.stop_switchless_workers();
  return cost;
}

TEST(SwitchlessRing, SingleCallerCycleEquivalentToInlinePath) {
  const Cycles inline_cost = switchless_call_cost(
      false, sgx::SwitchlessConfig::WakePolicy::kBusyWait);
  const Cycles ring_cost = switchless_call_cost(
      true, sgx::SwitchlessConfig::WakePolicy::kBusyWait);
  EXPECT_EQ(ring_cost, inline_cost)
      << "the ring path must not invent or hide cycles (honesty contract)";
}

// One switchless ocall carrying a 512-byte out-of-line buffer, made from
// inside an ecall, either inline (workers stopped) or through the ocall
// ring. Returns the call's cycle cost; `in_place` reports whether the
// handler read the caller's buffer itself.
Cycles payload_ocall_cost(bool via_ring, bool& in_place) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const std::vector<std::uint8_t> data(512, 0x5a);
  const CallId sink = bridge.register_ocall("sink", [&](ByteReader&) {
    const sgx::Payload p = bridge.current_payload();
    in_place = p.data() == data.data() && p.size() == data.size();
    return ByteBuffer();
  });
  bridge.set_switchless(sink, true);
  Cycles cost = 0;
  const CallId enter = bridge.register_ecall("enter", [&](ByteReader&) {
    ByteBuffer req, resp;
    const Cycles t0 = env.clock.now();
    bridge.ocall(sink, req, resp, data);
    cost = env.clock.now() - t0;
    return ByteBuffer();
  });
  if (via_ring) bridge.start_switchless_workers({}, {});
  sched.spawn("caller", [&, enter] {
    ByteBuffer req, resp;
    bridge.ecall(enter, req, resp);
  });
  sched.run();
  if (via_ring) {
    EXPECT_EQ(bridge.stats().switchless_enqueued, 1u);
    bridge.stop_switchless_workers();
  }
  return cost;
}

TEST(SwitchlessRing, DescriptorCarriesOutOfLinePayload) {
  bool inline_in_place = false;
  bool ring_in_place = false;
  const Cycles inline_cost = payload_ocall_cost(false, inline_in_place);
  const Cycles ring_cost = payload_ocall_cost(true, ring_in_place);
  EXPECT_TRUE(inline_in_place);
  EXPECT_TRUE(ring_in_place)
      << "the worker reads the caller's buffer through the descriptor";
  EXPECT_EQ(ring_cost, inline_cost);
}

TEST(SwitchlessRing, SleepWakePolicyChargesExactlyPerWakeup) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const CallId id =
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });
  bridge.set_switchless(id, true);
  sgx::SwitchlessConfig ring;
  ring.policy = sgx::SwitchlessConfig::WakePolicy::kSleepWake;
  bridge.start_switchless_workers(ring, ring);
  constexpr int kCalls = 5;
  sched.spawn("caller", [&, id] {
    for (int i = 0; i < kCalls; ++i) {
      ByteBuffer req, resp;
      bridge.ecall(id, req, resp);
    }
  });
  sched.run();
  bridge.stop_switchless_workers();
  const auto stats = bridge.stats();
  EXPECT_EQ(stats.switchless_enqueued, kCalls);
  EXPECT_EQ(stats.switchless_wake_charge_cycles,
            stats.switchless_worker_wakeups * env.cost.switchless_wake_cycles);
  EXPECT_GE(stats.switchless_worker_wakeups, static_cast<std::uint64_t>(1));
  EXPECT_EQ(stats.switchless_idle_spin_cycles, 0u)
      << "a sleeping worker burns no core";
}

TEST(SwitchlessRing, BusyWaitAttributesIdleSpinWithoutCharging) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  sched::Scheduler sched(env);
  bridge.attach_scheduler(sched);
  const CallId id =
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });
  bridge.set_switchless(id, true);
  bridge.start_switchless_workers({}, {});  // default: busy-wait
  sched.spawn("caller", [&, id] {
    sched.sleep_for(50'000);  // the worker spins idle through this window
    ByteBuffer req, resp;
    bridge.ecall(id, req, resp);
  });
  sched.run();
  bridge.stop_switchless_workers();
  const auto stats = bridge.stats();
  EXPECT_GE(stats.switchless_idle_spin_cycles, 50'000u)
      << "idle spin is attributed to the dedicated worker core";
  EXPECT_EQ(stats.switchless_wake_charge_cycles, 0u)
      << "but never charged to the serving timeline";
}

// ---- Request server --------------------------------------------------------

struct ServerRig {
  explicit ServerRig(std::uint32_t tenants, server::ServerConfig cfg = {},
                     core::AppConfig app_cfg = {})
      : app(apps::build_bank_app(), tenants, app_cfg),
        sched(app.env()),
        srv(sched, app, cfg) {}

  // Declaration order is the documented destruction contract: the server
  // stops (and the scheduler cancels) before the app's bridge dies.
  core::PartitionedApp app;
  sched::Scheduler sched;
  server::RequestServer srv;
};

TEST(RequestServer, ServesTenantsToTheirOwnIsolates) {
  ServerRig rig(3);
  server::LoadHarness harness(rig.srv);
  server::ClosedLoopSpec spec;
  spec.clients_per_tenant = 2;
  spec.requests_per_client = 10;
  const auto rep = harness.run_closed_loop(spec);
  EXPECT_EQ(rep.completed, 3u * 2u * 10u);
  EXPECT_EQ(rep.shed, 0u);
  for (const auto& tr : rep.tenants) {
    EXPECT_EQ(tr.stats.completed, 20u);
    EXPECT_GT(tr.latency.p50_us, 0.0);
  }
  rig.srv.stop();
}

TEST(RequestServer, ShedsWhenQueueFull) {
  server::ServerConfig cfg;
  cfg.max_queue_depth = 4;
  cfg.shed_on_full = true;
  ServerRig rig(1, cfg);
  rig.srv.start();
  // Burst from the main context: the single worker never runs between
  // submissions, so everything beyond the queue bound sheds.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (rig.srv.submit(0, server::Request{})) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rig.srv.tenant_stats(0).shed, 6u);
  rig.sched.run();  // drain? workers are daemons; run returns immediately
  rig.srv.stop();   // stop() drains the queued four
  EXPECT_EQ(rig.srv.tenant_stats(0).completed, 4u);
}

TEST(RequestServer, TcsStarvationVisibleInBridgeStats) {
  // 4 tenants hammering a 1-slot enclave queue on the TCS; with 8 slots
  // the same load shows zero wait. (Acceptance criterion of ISSUE 2.)
  auto run = [](std::uint32_t slots) {
    core::AppConfig app_cfg;
    app_cfg.tcs = sgx::TcsConfig{slots, {}};
    server::ServerConfig cfg;
    cfg.shed_on_full = false;
    cfg.max_queue_depth = 256;
    ServerRig rig(4, cfg, app_cfg);
    server::LoadHarness harness(rig.srv);
    server::OpenLoopSpec spec;
    spec.requests_per_tenant = 25;
    spec.mean_interarrival_cycles = 1'000;  // far below service time
    harness.run_open_loop(spec);
    const auto stats = rig.app.bridge().stats();
    rig.srv.stop();
    return std::pair(stats.tcs_waits, stats.tcs_wait_cycles);
  };
  const auto starved = run(1);
  EXPECT_GT(starved.first, 0u);
  EXPECT_GT(starved.second, 0u);
  const auto roomy = run(8);
  EXPECT_EQ(roomy.first, 0u);
  EXPECT_EQ(roomy.second, 0u);
}

TEST(RequestServer, GcPausesOnlyItsOwnTenant) {
  // Satellite (c): a GC in tenant 0's isolate under concurrent load must
  // not pause tenant 1's request processing. Single-run assertions: the
  // pause is real for tenant 0 (gate waits observed), invisible to tenant
  // 1 (zero gate waits), and tenant 1 keeps completing requests *inside*
  // tenant 0's pause windows.
  server::ServerConfig cfg;
  cfg.shed_on_full = false;
  cfg.max_queue_depth = 256;
  ServerRig rig(2, cfg);
  server::LoadHarness harness(rig.srv);
  server::OpenLoopSpec spec;
  spec.requests_per_tenant = 60;
  spec.mean_interarrival_cycles = 20'000;
  spec.gc_every = 20;
  spec.gc_tenant = 0;
  harness.run_open_loop(spec);

  const auto& t0 = rig.srv.tenant_stats(0);
  const auto& t1 = rig.srv.tenant_stats(1);
  ASSERT_GT(t0.gc_runs, 0u);
  EXPECT_GT(t0.gc_pause_cycles, 0u);
  EXPECT_EQ(t1.gc_gate_wait_cycles, 0u)
      << "tenant 1 never waits on tenant 0's collector";
  EXPECT_EQ(t1.gc_runs, 0u);
  EXPECT_EQ(t0.completed, 60u);
  EXPECT_EQ(t1.completed, 60u);

  // Tenant 1 made progress during at least one of tenant 0's pauses.
  const auto& windows = rig.srv.gc_windows(0);
  ASSERT_FALSE(windows.empty());
  bool progressed_during_pause = false;
  for (const Cycles done : rig.srv.completion_times(1)) {
    for (const auto& [start, end] : windows) {
      if (done > start && done < end) progressed_during_pause = true;
    }
  }
  EXPECT_TRUE(progressed_during_pause)
      << "tenant 1 completed requests inside tenant 0's GC pause window";
  rig.srv.stop();
}

TEST(RequestServer, OpenLoopIsDeterministic) {
  auto run = [] {
    ServerRig rig(3);
    server::LoadHarness harness(rig.srv);
    server::OpenLoopSpec spec;
    spec.requests_per_tenant = 40;
    spec.mean_interarrival_cycles = 50'000;
    spec.gc_every = 15;
    const auto rep = harness.run_open_loop(spec);
    rig.srv.stop();
    return rep;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.final_clock, b.final_clock);
  EXPECT_EQ(a.latency_cycle_sum, b.latency_cycle_sum);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].latency_cycle_sum, b.tenants[t].latency_cycle_sum);
    EXPECT_EQ(a.tenants[t].stats.completed, b.tenants[t].stats.completed);
  }
}

TEST(RequestServer, SwitchlessModeServesThroughRings) {
  core::AppConfig app_cfg;
  app_cfg.switchless_relays = true;
  ServerRig rig(2, {}, app_cfg);
  server::LoadHarness harness(rig.srv);
  server::ClosedLoopSpec spec;
  spec.clients_per_tenant = 2;
  spec.requests_per_client = 5;
  const auto rep = harness.run_closed_loop(spec);
  EXPECT_EQ(rep.completed, 2u * 2u * 5u);
  const auto stats = rig.app.bridge().stats();
  EXPECT_GT(stats.switchless_enqueued, 0u)
      << "relay transitions went through the worker rings";
  rig.srv.stop();
}

TEST(RequestServer, SwitchlessRelaysFlagExactlyTheRelayTransitions) {
  // AppConfig::switchless_relays is the one switch: the app must flag
  // every relay transition the bridge interned — each ecall_relay_* and
  // ocall_relay_* call — and nothing else.
  core::AppConfig app_cfg;
  app_cfg.switchless_relays = true;
  core::PartitionedApp app(apps::build_bank_app(), 2, app_cfg);
  const auto& names = app.bridge().call_names();
  std::set<CallId> flagged;
  std::set<CallId> relays;
  for (CallId id = 0; id < names.size(); ++id) {
    if (app.bridge().is_switchless(id)) flagged.insert(id);
    if (names[id].rfind("ecall_relay_", 0) == 0 ||
        names[id].rfind("ocall_relay_", 0) == 0) {
      relays.insert(id);
    }
  }
  EXPECT_FALSE(relays.empty());
  EXPECT_EQ(flagged, relays);
}

}  // namespace
}  // namespace msv
