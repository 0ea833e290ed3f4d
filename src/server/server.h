// Enclave request server: the one serving core (DESIGN.md §8, §12-§14).
//
// Wraps a PartitionedApp — one trusted isolate per tenant slot behind one
// measured enclave — in the shape of an actual enclave service: requests
// are admitted into bounded per-slot queues, worker tasks (fibers on the
// deterministic scheduler, src/sched) drain them and execute the tenant's
// operation through the proxy/RMI machinery, and GC runs per isolate on
// the §5.5 helper-thread model without stopping other tenants.
//
// Two configurations of one pipeline:
//   * The single-enclave server, RequestServer(sched, app, config): slot t
//     hosts tenant t from construction on, and there is no standby.
//   * A fleet shard (DESIGN.md §14), built by fleet::FleetRouter: the
//     server builds its own enclave and, with `replication`, a warm
//     standby; slots start free and the router binds tenants to them.
//
// Workers drain *lanes*: a lane is a FIFO of slot tokens, one pushed per
// admitted request, plus the wait queue its workers park on. With
// `shared_workers = 0` every slot has its own lane and one dedicated
// worker, so a tenant's backlog or GC pause never holds another tenant's
// worker; with N > 0 all slots feed one lane served by N workers.
//
// Concurrency and cost accounting:
//   * Workers contend for the enclave's TCS pool through the bridge; with
//     fewer slots than concurrently-entering tasks the queueing delay
//     shows up in BridgeStats::tcs_wait_cycles.
//   * When the app's relays are switchless (AppConfig::switchless_relays)
//     start() brings up the bridge's worker rings and relay transitions
//     are served through them instead of hardware transitions.
//   * A tenant GC measures the collection cost with the clock detached
//     (VirtualClock::measure_detached — the helper thread runs on its own
//     core) and realizes it as a pause gate on that tenant only.
//
// Recovery (DESIGN.md §12, §14) is one ladder for both configurations:
// the first worker to find the enclave lost promotes the warm standby
// when one is ready and restarts the enclave in place otherwise; either
// way the shard's generation moves and every session is rebuilt lazily,
// by its own worker, on the next touch (fresh, or from the tenant's
// sealed checkpoint). Admission sheds only while the restart or the
// promotion itself runs.
//
// Destruction order: the scheduler must outlive the server (declare the
// app, then the scheduler, then the server — C++ destroys in reverse, so
// the server's cooperative stop() runs while the scheduler is still
// alive, and the scheduler's cancel_all() runs before the bridge dies).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/app.h"
#include "sched/scheduler.h"
#include "server/tenant_state.h"
#include "sgx/sealing.h"

namespace msv::faults {
class FaultInjector;
}

namespace msv::telemetry {
class SloMonitor;  // telemetry/slo.h
}

namespace msv::server {

// A request that ran out of retry budget: either max_attempts faults in a
// row, or the next backoff would blow the request's deadline.
class RetriesExhaustedError : public RuntimeFault {
 public:
  explicit RetriesExhaustedError(const std::string& what)
      : RuntimeFault(what) {}
};

enum class RequestOp : std::uint8_t {
  kDeposit,  // Account.updateBalance(amount)
  kBalance,  // Account.getBalance()
};

struct Request {
  RequestOp op = RequestOp::kDeposit;
  std::int32_t amount = 1;
  // Intended arrival instant (absolute simulated cycles). Latency is
  // measured from here, which keeps open-loop results honest under
  // coordinated omission: a request delayed behind a backlog accrues the
  // full delay since it *should* have arrived. 0 = stamp at submission.
  Cycles arrival = 0;
};

// The retry ladder's truncated exponential backoff: a retry sleeps
// kInitialBackoffCycles, each further one kBackoffMultiplier times longer
// up to kMaxBackoffCycles, and never past kRequestDeadlineCycles after
// the request's arrival instant (a retry that cannot finish in time is
// not worth the enclave's cycles; the request fails with
// RetriesExhaustedError instead).
inline constexpr Cycles kInitialBackoffCycles = 200'000;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr Cycles kMaxBackoffCycles = 3'200'000;
inline constexpr Cycles kRequestDeadlineCycles = 400'000'000;

// Fault-recovery policy (DESIGN.md §12). Disabled by default: a server
// without recovery behaves — cycle for cycle — like the pre-fault server,
// and a fault surfaces as the request's error.
struct RecoveryConfig {
  bool enabled = false;
  // Per-request retry budget: a request is retried after a recoverable
  // fault (enclave loss, stale proxy, transient transition failure) at
  // most `max_attempts - 1` times, under the backoff above.
  std::uint32_t max_attempts = 4;
  // Seal a per-tenant state checkpoint every N completed requests
  // (0 = never). Rebuilt sessions restore from the latest checkpoint;
  // deposits since then are lost — the crash-consistency window the
  // fig_faults bench measures.
  std::uint32_t checkpoint_every = 0;
  // Platform fuse-key stand-in for the sealing KDF.
  std::string platform_secret = "msv-sim-fuse-key";
};

struct ServerConfig {
  // Per-slot admission queue bound; submissions beyond it shed or block.
  std::size_t max_queue_depth = 64;
  bool shed_on_full = true;  // false: submitter task blocks for queue space
  std::int32_t initial_balance = 0;
  // Worker topology (see the lanes above): 0 = one dedicated worker per
  // slot; N > 0 = one lane shared by every slot, served by N workers.
  std::uint32_t shared_workers = 0;
  // Cross-boundary call coalescing (DESIGN.md §13): a worker waking to a
  // backlog of two or more drains up to this many queued requests in one
  // swing and serves them with one ProxyRuntime::invoke_batch, a single
  // "ecall_rmi_batch" transition paying the 13,100-cycle ecall and the
  // isolate attach once for the batch. 1 (the default) disables
  // coalescing; the single-request path is untouched.
  std::uint32_t coalesce_max = 1;
  // Wake policy of both switchless rings (ecall and ocall direction), used
  // when the app's relays are switchless.
  sgx::SwitchlessConfig::WakePolicy ring_policy =
      sgx::SwitchlessConfig::WakePolicy::kBusyWait;
  // Fleet shards only: keep a warm standby enclave fed by the checkpoint
  // replication stream.
  bool replication = false;
  RecoveryConfig recovery;
};

// Per-slot counters. A slot's counters survive rebinding, so their sum is
// everything the server did.
struct TenantStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   // finished with an error (retries exhausted
                              // or recovery disabled); no latency recorded
  std::uint64_t retries = 0;  // recoverable faults absorbed by re-attempts
  std::uint64_t restored = 0;            // checkpoint unseals that succeeded
  std::uint64_t checkpoints = 0;         // checkpoints sealed
  std::uint64_t checkpoint_corrupt = 0;  // unseals rejected (tampered blob)
  std::uint64_t shed_recovery = 0;   // of `shed`: load-shed mid-recovery
  std::uint64_t shed_migrating = 0;  // of `shed`: tenant quiesced to move
  std::uint64_t gc_runs = 0;
  Cycles gc_pause_cycles = 0;      // detached collection cost, realized
  Cycles gc_gate_wait_cycles = 0;  // worker time spent waiting out a pause
  std::size_t max_queue_depth = 0;
};

// Server-wide recovery, replication and health counters.
struct RecoveryStats {
  std::uint64_t promotions = 0;        // replica promotions (warm path)
  std::uint64_t restarts = 0;          // in-place enclave restarts
  std::uint64_t standby_rebuilds = 0;  // background re-measures completed
  Cycles recovery_cycles = 0;          // total serving stall across recoveries
  Cycles last_recovery_cycles = 0;
  std::uint64_t replicated_blobs = 0;  // checkpoints streamed to the standby
  std::uint64_t replicated_bytes = 0;
  // Health timeline (DESIGN.md §16): recoverable faults workers caught,
  // and the instants the fleet bench gate compares ("the SLO monitor must
  // flag the shard degraded no later than the ladder fires").
  std::uint64_t fault_errors = 0;
  Cycles first_fault_seen_cycles = 0;        // first caught recoverable fault
  Cycles first_recovery_started_cycles = 0;  // first ladder activation
};

class RequestServer {
 public:
  // Single-enclave server over `app`: one slot per trusted isolate, slot t
  // bound to tenant t.
  RequestServer(sched::Scheduler& sched, core::PartitionedApp& app,
                ServerConfig config);
  // Fleet shard `shard_id` with `slots` isolate slots, all free: builds
  // its enclave ("shard<k>-a") and, with config.replication, the warm
  // standby ("shard<k>-b") on the shared Env — the standby's warmth is
  // exactly its enclave build, paid here on the shared clock.
  RequestServer(Env& env, sched::Scheduler& sched,
                const model::AppModel& app_model, std::uint32_t shard_id,
                std::uint32_t slots, ServerConfig config,
                const core::AppConfig& app_config);
  ~RequestServer();

  RequestServer(const RequestServer&) = delete;
  RequestServer& operator=(const RequestServer&) = delete;

  // Attaches the scheduler to the bridges, starts the switchless rings
  // when the app's relays are switchless, builds the session ("Account")
  // of every slot bound so far and spawns the worker daemons. Must be
  // called outside tasks; idempotent.
  void start();
  // Flags the workers to retire once their lanes drain and wakes them;
  // running the scheduler finishes the job (what stop() does, and what
  // the fleet router does once for all its shards).
  void begin_stop();
  // Cooperative drain: workers finish queued requests, then retire. Must
  // be called from outside tasks; idempotent. The destructor calls it.
  void stop();

  // ---- Tenant residency ----
  // Binds a tenant to a free isolate slot; its session is built lazily on
  // first touch (fresh, or from the adopted checkpoint).
  void bind_tenant(std::uint32_t tenant);
  // bind_tenant + seed the tenant's sealed checkpoint (migration arrival).
  void adopt_checkpoint(std::uint32_t tenant, std::vector<std::uint8_t> blob);
  // Force-seals the tenant's current state and returns the blob
  // (migration departure). Task-side; the tenant should be quiesced.
  std::vector<std::uint8_t> seal_tenant(std::uint32_t tenant);
  // Ends residency. The tenant must be fully drained.
  void unbind_tenant(std::uint32_t tenant);
  bool hosts(std::uint32_t tenant) const { return slot_of_.count(tenant); }
  std::uint32_t tenant_count() const {
    return static_cast<std::uint32_t>(slot_of_.size());
  }

  // ---- Serving ----
  // Fire-and-forget admission. Returns false when the server sheds: a full
  // queue (with shed_on_full; otherwise a task blocks for space and
  // callers outside tasks fault), mid-recovery, or while the tenant is
  // quiesced for migration.
  bool submit(std::uint32_t tenant, Request r);
  // Closed-loop admission: blocks for queue space (never sheds), waits
  // for completion and returns the operation result. Task-only.
  std::int64_t submit_and_wait(std::uint32_t tenant, Request r);
  // Queued + in-flight requests across all slots (0 = fully drained).
  std::size_t pending() const;

  // Task-side migration fence: closes admission for `tenant` and waits
  // until its queue and in-flight work drain. A worker mid-batch finishes
  // the whole coalesced swing first — the §13 fence the migration drains
  // behind.
  void quiesce_tenant(std::uint32_t tenant);

  // Spawns a task that collects the tenant's isolate on the GC helper
  // thread model: cost measured detached, realized as a pause gate on
  // this tenant only.
  void collect_tenant_async(std::uint32_t tenant);

  // ---- Failover ----
  bool standby_ready() const { return standby_ready_; }
  // Planned promotion (tests / operator-driven failover): requires a ready
  // standby and no recovery in flight.
  void promote_standby();
  // Authority epoch: bumped once per promotion. Proxies of earlier epochs
  // were fenced and fault with StaleProxyError.
  std::uint64_t authority_epoch() const { return authority_epoch_; }
  std::uint64_t restarts() const { return stats_.restarts; }

  // The app holding the serving authority, and the warm standby's (null
  // without replication).
  core::PartitionedApp& app() { return *apps_[active_]; }
  core::PartitionedApp* standby_app() { return apps_[active_ ^ 1]; }
  sched::Scheduler& scheduler() { return sched_; }

  // Registers the server as the injector's sealed-blob corruption target
  // (a corruption event flips one bit of one tenant's stored checkpoint)
  // and lets a promotion move the injector to the new authority's bridge.
  // Arm the injector and attach it to the serving bridge separately.
  void attach_fault_injector(faults::FaultInjector& injector);

  // SLO wiring (DESIGN.md §16): sheds, caught recoverable faults and
  // completion latencies feed the monitor keyed by shard id. Faults are
  // recorded at the *catch* site — before the recovery ladder runs — so
  // the health state machine flips degraded no later than the failover
  // starts. nullptr detaches; every record site is one pointer test.
  void attach_slo(telemetry::SloMonitor* slo) { slo_ = slo; }
  // Records every slot's completion latencies into `hist` (the fleet's
  // per-shard histogram). The single-enclave server resolves one
  // histogram per tenant in start() when metrics are enabled.
  void set_latency_histogram(telemetry::Histogram* hist);

  // Counters of the slot hosting `tenant`.
  const TenantStats& tenant_stats(std::uint32_t tenant) const {
    return slot_for(tenant).stats;
  }
  TenantStats totals() const;  // summed over slots (max queue depth: max)
  const RecoveryStats& stats() const { return stats_; }
  // Completed-request latencies (cycles from Request::arrival) of the slot
  // hosting `tenant`, in completion order, and their completion instants.
  const std::vector<Cycles>& latencies(std::uint32_t tenant) const {
    return slot_for(tenant).latencies;
  }
  const std::vector<Cycles>& completion_times(std::uint32_t tenant) const {
    return slot_for(tenant).completion_times;
  }
  // Every slot's latencies, slot after slot.
  std::vector<Cycles> all_latencies() const;
  // [start, end) of every realized GC pause of the tenant's slot.
  const std::vector<std::pair<Cycles, Cycles>>& gc_windows(
      std::uint32_t tenant) const {
    return slot_for(tenant).gc_windows;
  }
  // The tenant's session and sealed-checkpoint state, read-only.
  const TenantState& tenant_state(std::uint32_t tenant) const {
    return slot_for(tenant).state;
  }

 private:
  // One queued request. Fire-and-forget descriptors are heap-owned and
  // freed by the worker; submit_and_wait descriptors live on the waiting
  // task's fiber stack.
  struct Pending {
    Request req;
    bool owned = false;
    bool done = false;
    sched::TaskId waiter = sched::kNoTask;
    std::int64_t result = 0;
    std::exception_ptr error;
    // Request-lifetime span (admission -> completion). Detached because
    // it is opened by the submitting task and closed by a worker; its
    // context parents the worker's server.handle span (DESIGN.md §10).
    telemetry::Tracer::DetachedSpan span;
  };

  struct Lane {
    explicit Lane(sched::Scheduler& s) : ready(s) {}
    std::deque<std::uint32_t> work;  // slot index, one per admitted request
    sched::WaitQueue ready;          // workers park here while `work` is empty
  };

  struct Slot {
    explicit Slot(sched::Scheduler& s) : space(s), drained(s), gc_done(s) {}
    static constexpr std::uint32_t kFree = 0xffffffffu;
    std::uint32_t index = 0;  // isolate index inside the enclave
    std::uint32_t tenant = kFree;
    Lane* lane = nullptr;
    TenantState state;
    // Generation the session was built under; != generation_ means the
    // session must be (re)built before the next invoke.
    std::uint64_t session_generation = 0;
    // The standby's copy of the latest sealed checkpoint — what the
    // replication stream has delivered so far. Promotion restores from
    // this, the bytes the new authority actually holds.
    std::vector<std::uint8_t> replica_checkpoint;
    std::deque<Pending*> queue;
    sched::WaitQueue space;    // submitters park here when the queue is full
    sched::WaitQueue drained;  // migration fence parks here
    sched::WaitQueue gc_done;  // workers park here during a GC pause
    std::size_t in_flight = 0;
    bool quiescing = false;
    bool gc_active = false;
    TenantStats stats;
    std::vector<Cycles> latencies;
    std::vector<Cycles> completion_times;
    std::vector<std::pair<Cycles, Cycles>> gc_windows;
    telemetry::Histogram* latency_hist = nullptr;
  };

  void add_slots(std::uint32_t count);
  Slot& slot_for(std::uint32_t tenant);
  const Slot& slot_for(std::uint32_t tenant) const;
  bool queue_full(const Slot& slot) const {
    return slot.queue.size() >= config_.max_queue_depth;
  }
  bool shed(Slot& slot);
  telemetry::Tracer::DetachedSpan open_request_span(std::uint32_t tenant);
  void enqueue(Slot& slot, Pending* p);
  void worker_loop(Lane& lane);
  // This tenant's isolate is paused while its heap is collected; the
  // worker waits out the pause. Other tenants' workers never pass through
  // this gate (§2.2 isolate independence).
  void pass_gc_gate(Slot& slot);
  // Runs one request through the retry ladder plus its checkpoint step,
  // storing the result or the error in the descriptor.
  void execute_one(Slot& slot, Pending& p);
  // Completion bookkeeping shared by the single and coalesced paths:
  // closes the request span, records latency or failure, releases the
  // descriptor and wakes a closed-loop waiter.
  void finish_request(Slot& slot, Pending* p);
  // Executes a drained swing of >=2 requests as one batched transition;
  // a transition-level fault aborts the batch before any call executes
  // and the requests fall back to the per-request retry ladder.
  void execute_batch(Slot& slot, std::vector<Pending*>& batch);
  // Runs one request, absorbing recoverable faults under the retry
  // budget; every attempt starts with ensure_recovered() and prepare_slot().
  std::int64_t execute_with_retry(Slot& slot, Pending& p);
  // First worker to find the serving enclave lost runs the failover —
  // promotion when a standby is warm, in-place restart otherwise; the
  // rest park on recovery_done_ and admission sheds meanwhile.
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
  ServerConfig config_;
  // Fleet shard id (0 for the single-enclave server); keys the SLO
  // monitor and names the shard's tasks.
  std::uint32_t shard_id_ = 0;
  bool fleet_shard_ = false;
  sgx::SealingPlatform sealer_;
  // [0] primary at start; [1] standby (null without replication). The
  // fleet shard owns both; the single-enclave server borrows its app.
  std::unique_ptr<core::PartitionedApp> owned_apps_[2];
  core::PartitionedApp* apps_[2] = {nullptr, nullptr};
  std::uint32_t active_ = 0;
  std::uint64_t authority_epoch_ = 1;
  // Bumped whenever every session becomes invalid (promotion or enclave
  // restart); slots rebuild lazily against the new value.
  std::uint64_t generation_ = 1;
  bool standby_ready_ = false;
  bool recovering_ = false;
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::map<std::uint32_t, std::uint32_t> slot_of_;  // tenant -> slot index
  sched::WaitQueue recovery_done_;
  faults::FaultInjector* injector_ = nullptr;
  telemetry::SloMonitor* slo_ = nullptr;
  RecoveryStats stats_;
};

}  // namespace msv::server
