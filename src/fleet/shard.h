// One fleet shard: an active enclave, an optional warm standby, and a
// worker pool serving the tenants the ring assigns here (DESIGN.md §14).
//
// A shard owns up to two PartitionedApp instances on the fleet's shared
// Env (one clock, one cost model, one telemetry spine):
//
//   * The *active* app holds every resident tenant's live session and
//     serves all requests.
//   * With replication enabled, a *standby* app idles warm: its enclave is
//     already created and measured — the 20M-cycle ECREATE/EADD/EINIT bill
//     was paid at fleet start — and the replication stream keeps a copy of
//     every sealed checkpoint on its side. Enclave loss then becomes a
//     *promotion*: fence the demoted runtime's proxies (no double
//     execution), flip the active index, bump the shard's authority epoch
//     and lazily rebuild sessions from the replicated checkpoints; the
//     lost enclave is re-measured in the background (on a detached core,
//     the §5.5 helper-thread pattern) to become the next standby. Without
//     a ready standby the shard falls back to the PR 5 restart-and-restore
//     ladder inline — the 3x+ p99 gap fig_fleet measures.
//
// Sessions are restored *lazily*, one tenant per first post-recovery
// touch: the recovery window itself stays O(1) and the per-tenant restore
// cost lands on the requests that need that tenant, which is both honest
// latency accounting and what keeps promotion cheap at 16+ residents.
//
// Cross-enclave unsealing is legal by construction: both apps run the same
// trusted image, so both enclaves carry the same measurement and the
// sealing KDF (MRENCLAVE policy) derives the same key.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/app.h"
#include "sched/scheduler.h"
#include "server/server.h"
#include "server/tenant_state.h"

namespace msv::faults {
class FaultInjector;
}

namespace msv::telemetry {
class SloMonitor;  // telemetry/slo.h
}

namespace msv::fleet {

struct ShardConfig {
  // Isolate slots per enclave = maximum resident tenants of this shard.
  std::uint32_t slots = 8;
  std::uint32_t workers = 1;
  std::size_t max_queue_depth = 64;  // per resident tenant
  // Coalescing width (DESIGN.md §13); 1 disables batching.
  std::uint32_t coalesce_max = 1;
  // Keep a warm standby enclave fed by the checkpoint replication stream.
  bool replication = false;
  std::int32_t initial_balance = 0;
  // Retry ladder + checkpoint cadence, shared with the single-enclave
  // server so the restart-and-restore fallback is cycle-comparable.
  server::RecoveryConfig recovery;
};

struct ShardStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_recovery = 0;   // of shed: admission closed mid-recovery
  std::uint64_t shed_migrating = 0;  // of shed: tenant quiesced for migration
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t replicated_blobs = 0;  // checkpoints streamed to the standby
  std::uint64_t replicated_bytes = 0;
  std::uint64_t restored = 0;
  std::uint64_t checkpoint_corrupt = 0;
  std::uint64_t promotions = 0;        // replica promotions (warm path)
  std::uint64_t restarts = 0;          // inline restart-and-restore (cold path)
  std::uint64_t standby_rebuilds = 0;  // background re-measures completed
  Cycles recovery_cycles = 0;          // total serving-stall across recoveries
  Cycles last_recovery_cycles = 0;
  std::size_t max_queue_depth = 0;
  // Health timeline (DESIGN.md §16): recoverable faults workers caught,
  // and the instants the bench gate compares ("the SLO monitor must flag
  // the shard degraded no later than the ladder fires").
  std::uint64_t fault_errors = 0;
  Cycles first_fault_seen_cycles = 0;        // first caught recoverable fault
  Cycles first_recovery_started_cycles = 0;  // first ladder activation
};

class Shard {
 public:
  Shard(Env& env, sched::Scheduler& sched, const model::AppModel& app_model,
        std::uint32_t shard_id, ShardConfig config,
        core::AppConfig app_config);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Spawns the worker daemons. Must be called outside tasks; idempotent.
  void start();
  // Cooperative stop: flags workers to retire once their queues drain and
  // wakes them. The router runs the scheduler afterwards.
  void begin_stop();

  std::uint32_t shard_id() const { return shard_id_; }

  // ---- Tenant residency ----
  // Binds a tenant to a free isolate slot; the session itself is built
  // lazily on first touch (fresh, or from the adopted checkpoint).
  void bind_tenant(std::uint32_t tenant);
  // bind_tenant + seed the tenant's sealed checkpoint (migration arrival).
  void adopt_checkpoint(std::uint32_t tenant, std::vector<std::uint8_t> blob);
  // Force-seals the tenant's current state and returns the blob
  // (migration departure). Task-side; the tenant should be quiesced.
  std::vector<std::uint8_t> seal_tenant(std::uint32_t tenant);
  // Ends residency. The tenant must be fully drained.
  void unbind_tenant(std::uint32_t tenant);
  bool hosts(std::uint32_t tenant) const;
  std::vector<std::uint32_t> resident_tenants() const;  // sorted
  std::uint32_t resident_count() const {
    return static_cast<std::uint32_t>(slot_of_.size());
  }

  // ---- Serving ----
  // Fire-and-forget; sheds on a full queue, mid-recovery, or while the
  // tenant is quiesced for migration.
  bool submit(std::uint32_t tenant, server::Request r);
  // Closed-loop: blocks for queue space, waits for the result. Task-only.
  std::int64_t submit_and_wait(std::uint32_t tenant, server::Request r);
  std::size_t pending() const;  // queued + in-flight across residents
  std::size_t pending_for(std::uint32_t tenant) const;

  // Task-side migration fence: closes admission for `tenant` and waits
  // until its queue and in-flight work drain. A worker mid-batch finishes
  // the whole coalesced swing first — the PR 6 fence the migration drains
  // behind. resume_tenant reopens admission (migration abandoned).
  void quiesce_tenant(std::uint32_t tenant);
  void resume_tenant(std::uint32_t tenant);

  // ---- Failover ----
  bool standby_ready() const { return standby_ready_; }
  bool recovering() const { return recovering_; }
  // Planned promotion (tests / operator-driven failover): requires a ready
  // standby and no recovery in flight.
  void promote_standby();
  // Authority epoch: bumped once per promotion. Proxies of earlier epochs
  // were fenced and fault with StaleProxyError.
  std::uint64_t authority_epoch() const { return authority_epoch_; }

  core::PartitionedApp& active_app() { return *apps_[active_]; }
  const core::PartitionedApp& active_app() const { return *apps_[active_]; }
  // Null when replication is off.
  core::PartitionedApp* standby_app() {
    return apps_[active_ ^ 1] == nullptr ? nullptr : apps_[active_ ^ 1].get();
  }

  // Fault wiring: the injector is attached to the *active* bridge and
  // follows the authority across promotions (retarget + re-attach).
  void attach_injector(faults::FaultInjector* injector);

  // SLO wiring (DESIGN.md §16): sheds, caught recoverable faults and
  // completion latencies feed the monitor keyed by shard id. Faults are
  // recorded at the *catch* site — before the recovery ladder runs — so
  // the health state machine flips degraded no later than the failover
  // starts. nullptr detaches; every record site is one pointer test.
  void attach_slo(telemetry::SloMonitor* slo) { slo_ = slo; }

  const ShardStats& stats() const { return stats_; }
  // Completed-request latencies, shard-wide, in completion order.
  const std::vector<Cycles>& latencies() const { return latencies_; }
  telemetry::Histogram* latency_hist = nullptr;  // resolved by the router

 private:
  struct Pending {
    server::Request req;
    std::uint32_t tenant = 0;
    bool owned = false;
    bool done = false;
    sched::TaskId waiter = sched::kNoTask;
    std::int64_t result = 0;
    std::exception_ptr error;
    telemetry::Tracer::DetachedSpan span;
  };

  struct Slot {
    explicit Slot(sched::Scheduler& s) : space(s), drained(s) {}
    static constexpr std::uint32_t kFree = 0xffffffffu;
    std::uint32_t index = 0;  // isolate index inside the enclave
    std::uint32_t tenant = kFree;
    server::TenantState state;
    // Shard generation the session was built under; != generation_ means
    // the session must be (re)built before the next invoke.
    std::uint64_t session_generation = 0;
    // The standby's copy of the latest sealed checkpoint — what the
    // replication stream has delivered so far. Promotion restores from
    // this, the bytes the new authority actually holds.
    std::vector<std::uint8_t> replica_checkpoint;
    std::deque<Pending*> queue;
    sched::WaitQueue space;    // submitters park here when the queue is full
    sched::WaitQueue drained;  // migration fence parks here
    std::size_t in_flight = 0;
    bool quiescing = false;
  };

  Slot& slot_for(std::uint32_t tenant);
  const Slot& slot_for(std::uint32_t tenant) const;
  void enqueue(Slot& slot, Pending* p);
  void worker_loop();
  void finish_request(Slot& slot, Pending* p);
  void execute_batch(Slot& slot, std::vector<Pending*>& batch);
  std::int64_t execute_with_retry(Slot& slot, Pending& p);
  // First worker to find the active enclave lost runs the failover —
  // promotion when a standby is warm, inline restart otherwise; the rest
  // park on recovery_done_ and admission sheds meanwhile.
  void ensure_recovered();
  void promote_standby_locked();
  // Catch-site bookkeeping for a recoverable fault (SLO + timeline).
  void note_fault();
  // Lazy per-tenant session build: fresh, or from the sealed checkpoint.
  void prepare_slot(Slot& slot);
  void maybe_checkpoint(Slot& slot);
  void seal_now(Slot& slot);

  Env& env_;
  sched::Scheduler& sched_;
  std::uint32_t shard_id_;
  ShardConfig config_;
  sgx::SealingPlatform sealer_;
  // [0] primary at start; [1] standby (null with replication off).
  std::unique_ptr<core::PartitionedApp> apps_[2];
  std::uint32_t active_ = 0;
  std::uint64_t authority_epoch_ = 1;
  // Bumped whenever every resident session becomes invalid (promotion or
  // enclave restart); slots rebuild lazily against the new value.
  std::uint64_t generation_ = 1;
  bool standby_ready_ = false;
  bool recovering_ = false;
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::map<std::uint32_t, std::uint32_t> slot_of_;  // tenant -> slot index
  std::deque<std::uint32_t> work_;  // slot indices with queued work
  sched::WaitQueue work_available_;
  sched::WaitQueue recovery_done_;
  faults::FaultInjector* injector_ = nullptr;
  telemetry::SloMonitor* slo_ = nullptr;
  ShardStats stats_;
  std::vector<Cycles> latencies_;
};

}  // namespace msv::fleet
