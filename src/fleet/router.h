// Fleet front-end: consistent-hash routing over N shards, fleet-level
// admission control, hot-tenant migration, and fault-plan distribution
// (DESIGN.md §14).
//
// Each shard is a server::RequestServer with its own enclave and, with
// replication, a warm standby. The router owns the shards and the only
// mutable copy of the tenant->shard route table. The table is *seeded*
// from the ring at start and *amended* by migrations — routing follows
// the table, never the ring directly, so moving a hot tenant off its
// ring-assigned home is an explicit, stateful act (and `tenants_off_ring`
// gauges how far the table has drifted from the ring's equilibrium).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "faults/injector.h"
#include "fleet/ring.h"
#include "server/server.h"
#include "telemetry/slo.h"

namespace msv::fleet {

struct FleetConfig {
  std::uint32_t shards = 4;
  std::uint32_t tenants = 64;
  // Ring geometry. More vnodes = smoother tenant spread per shard.
  std::uint32_t vnodes = 16;
  std::uint64_t ring_seed = 0x6d73762d666c74ull;  // "msv-flt"
  // Fleet-level admission cap: submissions to a shard whose total backlog
  // (queued + in flight) reaches this are shed at the router.
  std::size_t max_shard_pending = 256;
  // Every shard's serving config. A shard's slots all feed one lane, by
  // default served by one worker.
  server::ServerConfig shard = [] {
    server::ServerConfig c;
    c.shared_workers = 1;
    return c;
  }();
  core::AppConfig app;
  // Fleet health (DESIGN.md §16). slo_enabled builds a per-shard
  // SloMonitor and wires every shard's sheds/faults/latencies into it;
  // slo_enforce additionally closes router admission to shards the
  // monitor holds critical. Observe-mode (enforce off) changes no
  // routing decision and no cycle total — the monitor only reads the
  // clock, never advances it.
  bool slo_enabled = false;
  bool slo_enforce = false;
  telemetry::SloConfig slo;
};

// Aggregated across shards, plus the router's own counters.
struct FleetStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_admission = 0;  // shed at the router's fleet-level cap
  std::uint64_t shed_slo = 0;        // shed because the shard is critical
  std::uint64_t shed_recovery = 0;
  std::uint64_t shed_migrating = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t replicated_blobs = 0;
  std::uint64_t replicated_bytes = 0;
  std::uint64_t restored = 0;
  std::uint64_t checkpoint_corrupt = 0;
  std::uint64_t promotions = 0;
  std::uint64_t restarts = 0;
  std::uint64_t standby_rebuilds = 0;
  std::uint64_t migrations = 0;
  Cycles recovery_cycles = 0;
};

class FleetRouter {
 public:
  FleetRouter(Env& env, sched::Scheduler& sched,
              const model::AppModel& app_model, FleetConfig config);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Builds the shards' worker pools and binds every tenant to its
  // ring-assigned shard. Must be called outside tasks; idempotent.
  void start();
  // Retires every worker (and any in-flight standby rebuilds) by running
  // the scheduler to quiescence. Idempotent; also called by the dtor.
  void stop();

  Env& env() { return env_; }
  sched::Scheduler& scheduler() { return sched_; }
  const FleetConfig& config() const { return config_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  server::RequestServer& shard(std::uint32_t k) { return *shards_[k]; }
  const server::RequestServer& shard(std::uint32_t k) const {
    return *shards_[k];
  }
  const HashRing& ring() const { return ring_; }

  // Current routing (table, including migrations) vs ring equilibrium.
  std::uint32_t shard_of(std::uint32_t tenant) const;
  std::uint32_t ring_owner(std::uint32_t tenant) const {
    return ring_.owner_of(tenant);
  }
  // How many tenants the table routes away from their ring owner — the
  // rebalance debt a ring change or migration leaves behind.
  std::uint32_t tenants_off_ring() const;

  // ---- Serving ----
  // Fire-and-forget through the route table; sheds at the fleet-level
  // admission cap before the shard even sees the request.
  bool submit(std::uint32_t tenant, server::Request r);
  // Closed-loop variant (task-only); bypasses the shed ladder by blocking.
  std::int64_t submit_and_wait(std::uint32_t tenant, server::Request r);
  std::size_t pending() const;

  // ---- Hot-tenant migration (task-only) ----
  // Drains the tenant behind the coalescing fence, seals its state,
  // rebinds it on `to_shard`, and flips the route table. In-flight work
  // finishes on the source first; requests arriving mid-drain shed.
  void migrate_tenant(std::uint32_t tenant, std::uint32_t to_shard);
  // Router-side per-tenant accepted counters: the hottest tenant is the
  // natural migration candidate fig_fleet picks.
  std::uint64_t tenant_accepted(std::uint32_t tenant) const;
  std::uint32_t hottest_tenant() const;

  // ---- Failover / faults ----
  // Planned promotion of shard k's warm standby (requires replication).
  void promote_shard(std::uint32_t k) { shards_[k]->promote_standby(); }
  // Partitions a fleet fault plan (absolute instants) into per-shard
  // schedules, builds one injector per targeted shard, arms each at its
  // shard's active enclave and attaches it to the bridge. The injectors
  // follow promotions automatically (the shard re-attaches + retargets).
  void attach_fault_plan(const faults::FaultPlan& plan);
  const faults::FaultInjector* injector_for(std::uint32_t k) const {
    return injectors_[k].get();
  }

  // ---- Fleet health (DESIGN.md §16) ----
  // Null unless config.slo_enabled.
  telemetry::SloMonitor* slo() { return slo_.get(); }
  const telemetry::SloMonitor* slo() const { return slo_.get(); }
  // Migration hint: the hottest tenant of the sickest shard, pointed at
  // the healthiest (ties: coldest) other shard. Empty when every shard is
  // healthy, the fleet has one shard, or the SLO monitor is off. The
  // router never acts on this by itself — migration is task-side and the
  // operator's (or the bench harness's) call.
  struct MigrationHint {
    std::uint32_t tenant = 0;
    std::uint32_t from_shard = 0;
    std::uint32_t to_shard = 0;
  };
  // Non-const: evaluating health rolls the monitor's windows to now().
  std::optional<MigrationHint> migration_hint();

  FleetStats stats() const;
  // Absorbs fleet + per-shard counters into the metrics registry
  // (telemetry::publish_fleet / publish_fleet_shard).
  void publish_metrics();

 private:
  Env& env_;
  sched::Scheduler& sched_;
  const model::AppModel& app_model_;
  FleetConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<server::RequestServer>> shards_;
  std::map<std::uint32_t, std::uint32_t> route_;  // tenant -> shard
  std::vector<std::uint64_t> accepted_by_tenant_;
  // One slot per shard; null where the plan targets nothing.
  std::vector<std::unique_ptr<faults::FaultInjector>> injectors_;
  std::unique_ptr<telemetry::SloMonitor> slo_;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t shed_slo_ = 0;
  std::uint64_t migrations_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace msv::fleet
