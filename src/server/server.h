// Multi-tenant enclave request server (serving layer, DESIGN.md §8).
//
// Wraps a PartitionedApp — one trusted isolate per tenant behind one
// measured enclave — in the shape of an actual enclave service: requests
// are admitted into bounded per-tenant queues, worker tasks (fibers on the
// deterministic scheduler, src/sched) drain each queue and execute the
// tenant's operation through the proxy/RMI machinery, and GC runs per
// isolate on the §5.5 helper-thread model without stopping other tenants.
//
// Concurrency and cost accounting:
//   * Workers contend for the enclave's TCS pool through the bridge; with
//     fewer slots than concurrently-entering tasks the queueing delay
//     shows up in BridgeStats::tcs_wait_cycles (the starvation signal the
//     acceptance test asserts).
//   * With `switchless` enabled the relay transitions are served by the
//     bridge's per-direction worker rings instead of hardware transitions.
//   * A tenant GC measures the collection cost with the clock detached
//     (VirtualClock::measure_detached — the helper thread runs on its own
//     core) and realizes it as a pause gate on that tenant only; workers
//     of other tenants keep serving, which is the multi-isolate property
//     (§2.2) the serving layer exists to demonstrate.
//
// Destruction order: the scheduler must outlive the server (declare the
// app, then the scheduler, then the server — C++ destroys in reverse, so
// the server's cooperative stop() runs while the scheduler is still
// alive, and the scheduler's cancel_all() runs before the bridge dies).
#pragma once

#include <cstdint>
#include <deque>
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

// Fault-recovery policy (DESIGN.md §12). Disabled by default: a server
// without recovery behaves — cycle for cycle — like the pre-fault server,
// and a fault surfaces as the request's error.
struct RecoveryConfig {
  bool enabled = false;
  // Per-request retry budget: a request is retried after a recoverable
  // fault (enclave loss, stale proxy, transient transition failure) at
  // most `max_attempts - 1` times...
  std::uint32_t max_attempts = 4;
  // ...under truncated exponential backoff...
  Cycles initial_backoff_cycles = 200'000;
  double backoff_multiplier = 2.0;
  Cycles max_backoff_cycles = 3'200'000;
  // ...and never past this deadline after the request's arrival instant
  // (a retry that cannot finish in time is not worth the enclave's
  // cycles; the request fails with RetriesExhaustedError instead).
  Cycles request_deadline_cycles = 400'000'000;
  // Seal a per-tenant state checkpoint every N completed requests
  // (0 = never). Restarted enclaves restore from the latest checkpoint;
  // deposits since then are lost — the crash-consistency window the
  // fig_faults bench measures.
  std::uint32_t checkpoint_every = 0;
  // Platform fuse-key stand-in for the sealing KDF.
  std::string platform_secret = "msv-sim-fuse-key";
};

struct ServerConfig {
  // Per-tenant admission queue bound; submissions beyond it shed or block.
  std::size_t max_queue_depth = 64;
  bool shed_on_full = true;  // false: submitter task blocks for queue space
  std::uint32_t workers_per_tenant = 1;
  std::int32_t initial_balance = 0;
  // Serve relay transitions through the bridge's switchless worker rings.
  bool switchless = false;
  sgx::SwitchlessConfig ecall_ring;
  sgx::SwitchlessConfig ocall_ring;
  // Cross-boundary call coalescing (DESIGN.md §13): a worker waking to a
  // backlog drains up to this many queued requests in one swing and packs
  // them into a single "ecall_rmi_batch" transition, paying the
  // 13,100-cycle ecall and the isolate attach once for the batch. 1 (the
  // default) disables coalescing; the single-request path is untouched.
  std::uint32_t coalesce_max = 1;
  RecoveryConfig recovery;
};

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
  std::uint64_t shed_recovery = 0;  // of `shed`: load-shed mid-recovery
  std::uint64_t gc_runs = 0;
  Cycles gc_pause_cycles = 0;      // detached collection cost, realized
  Cycles gc_gate_wait_cycles = 0;  // worker time spent waiting out a pause
  std::size_t max_queue_depth = 0;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
};

class RequestServer {
 public:
  RequestServer(sched::Scheduler& sched, core::PartitionedApp& app,
                ServerConfig config);
  ~RequestServer();

  RequestServer(const RequestServer&) = delete;
  RequestServer& operator=(const RequestServer&) = delete;

  // Attaches the scheduler to the bridge, constructs one session object
  // ("Account") per tenant isolate and spawns the worker daemons. Must be
  // called from outside tasks.
  void start();
  // Cooperative drain: workers finish queued requests, then retire. Must
  // be called from outside tasks; idempotent. The destructor calls it.
  void stop();
  bool started() const { return started_; }

  // Fire-and-forget admission. Returns false when the tenant queue is
  // full and the server sheds; with shed_on_full=false a task blocks for
  // space (callers outside tasks cannot block and fault instead).
  bool submit(std::uint32_t tenant, Request r);

  // Closed-loop admission: blocks for queue space (never sheds), waits
  // for completion and returns the operation result. Task-only.
  std::int64_t submit_and_wait(std::uint32_t tenant, Request r);

  // Spawns a task that collects tenant `t`'s isolate on the GC helper
  // thread model: cost measured detached, realized as a pause gate on
  // this tenant only.
  void collect_tenant_async(std::uint32_t tenant);

  // Registers the server as the injector's sealed-blob corruption target
  // (a corruption event flips one bit of one tenant's stored checkpoint).
  // Attach the injector to the bridge separately. Call before start().
  void attach_fault_injector(faults::FaultInjector& injector);

  // Per-tenant SLO wiring (DESIGN.md §16): completion latencies, sheds
  // and failures feed the monitor keyed by tenant id. nullptr detaches;
  // every record site is one pointer test, so a server without a monitor
  // is cycle-identical to the pre-SLO server.
  void attach_slo(telemetry::SloMonitor* slo) { slo_ = slo; }

  // Enclave restarts performed by the recovery path.
  std::uint64_t restarts() const { return restarts_; }
  bool recovering() const { return recovering_; }

  std::uint32_t tenant_count() const {
    return static_cast<std::uint32_t>(tenants_.size());
  }
  // Queued + in-flight requests across all tenants (0 = fully drained).
  std::size_t pending() const;

  const TenantStats& tenant_stats(std::uint32_t t) const;
  ServerStats stats() const;  // aggregated over tenants
  // Completed-request latencies (cycles from Request::arrival), in
  // completion order.
  const std::vector<Cycles>& latencies(std::uint32_t t) const;
  // Completion instants, parallel to latencies().
  const std::vector<Cycles>& completion_times(std::uint32_t t) const;
  // [start, end) of every realized GC pause of tenant `t`.
  const std::vector<std::pair<Cycles, Cycles>>& gc_windows(
      std::uint32_t t) const;

  core::PartitionedApp& app() { return app_; }
  sched::Scheduler& scheduler() { return sched_; }

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

  struct Tenant {
    explicit Tenant(sched::Scheduler& s) : work(s), space(s), gc_done(s) {}
    // Session proxy + sealed-checkpoint state, shared with the fleet layer
    // (tenant_state.h owns the checkpoint byte format).
    TenantState state;
    std::deque<Pending*> queue;
    sched::WaitQueue work;     // workers park here when the queue is empty
    sched::WaitQueue space;    // submitters park here when the queue is full
    sched::WaitQueue gc_done;  // workers park here during a GC pause
    bool gc_active = false;
    std::size_t in_flight = 0;
    TenantStats stats;
    std::vector<Cycles> latencies;
    std::vector<Cycles> completion_times;
    std::vector<std::pair<Cycles, Cycles>> gc_windows;
    // Per-tenant request-latency histogram handle, resolved once in
    // start() when metrics are enabled (p50/p99 in the metrics dump).
    telemetry::Histogram* latency_hist = nullptr;
  };

  Tenant& tenant(std::uint32_t t);
  const Tenant& tenant(std::uint32_t t) const;
  bool queue_full(const Tenant& ten) const {
    return ten.queue.size() >= config_.max_queue_depth;
  }
  void enqueue(Tenant& ten, Pending* p);
  void worker_loop(std::uint32_t t);
  // Completion bookkeeping shared by the single and coalesced paths:
  // closes the request span, records latency or failure, releases the
  // descriptor and wakes a closed-loop waiter.
  void finish_request(std::uint32_t t, Tenant& ten, Pending* p);
  // Executes a drained swing of >=2 requests as one batched transition;
  // a transition-level fault aborts the batch before any call executes
  // and the requests fall back to the per-request retry ladder.
  void execute_batch(std::uint32_t t, Tenant& ten,
                     std::vector<Pending*>& batch);
  // Runs one request, absorbing recoverable faults under the retry
  // budget; first step of every attempt is ensure_recovered().
  std::int64_t execute_with_retry(std::uint32_t t, Tenant& ten, Pending& p);
  // Restart-and-restore barrier: first worker to find the enclave lost
  // performs the restart and restores every tenant from its checkpoint;
  // the rest park on recovery_done_ (and admission sheds) meanwhile.
  void ensure_recovered();
  void restore_tenant(std::uint32_t t);
  void maybe_checkpoint(std::uint32_t t, Tenant& ten);

  Env& env_;
  sched::Scheduler& sched_;
  core::PartitionedApp& app_;
  ServerConfig config_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  sgx::SealingPlatform sealer_;
  sched::WaitQueue recovery_done_;
  telemetry::SloMonitor* slo_ = nullptr;
  std::uint64_t restarts_ = 0;
  bool recovering_ = false;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace msv::server
