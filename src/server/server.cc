#include "server/server.h"

#include <algorithm>
#include <optional>

#include "faults/injector.h"
#include "support/error.h"
#include "telemetry/flight.h"
#include "telemetry/slo.h"

namespace msv::server {

RequestServer::RequestServer(sched::Scheduler& sched,
                             core::PartitionedApp& app, ServerConfig config)
    : env_(app.env()),
      sched_(sched),
      config_(config),
      sealer_(config.recovery.platform_secret),
      recovery_done_(sched) {
  MSV_CHECK_MSG(!config_.replication,
                "a warm standby needs a fleet shard (fleet::FleetRouter)");
  apps_[0] = &app;
  add_slots(app.isolate_count());
  for (std::uint32_t t = 0; t < app.isolate_count(); ++t) bind_tenant(t);
}

RequestServer::RequestServer(Env& env, sched::Scheduler& sched,
                             const model::AppModel& app_model,
                             std::uint32_t shard_id, std::uint32_t slots,
                             ServerConfig config,
                             const core::AppConfig& app_config)
    : env_(env),
      sched_(sched),
      config_(config),
      shard_id_(shard_id),
      fleet_shard_(true),
      sealer_(config.recovery.platform_secret),
      recovery_done_(sched) {
  const std::string tag = "shard" + std::to_string(shard_id_);
  owned_apps_[0] = std::make_unique<core::PartitionedApp>(
      env_, app_model, slots, app_config, tag + "-a");
  if (config_.replication) {
    owned_apps_[1] = std::make_unique<core::PartitionedApp>(
        env_, app_model, slots, app_config, tag + "-b");
    standby_ready_ = true;
  }
  apps_[0] = owned_apps_[0].get();
  apps_[1] = owned_apps_[1].get();
  add_slots(slots);
}

void RequestServer::add_slots(std::uint32_t count) {
  MSV_CHECK_MSG(count > 0, "server needs at least one slot");
  MSV_CHECK_MSG(config_.max_queue_depth > 0, "queue depth must be positive");
  MSV_CHECK_MSG(config_.recovery.max_attempts > 0,
                "retry budget needs at least one attempt");
  if (config_.shared_workers > 0) {
    lanes_.push_back(std::make_unique<Lane>(sched_));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (config_.shared_workers == 0) {
      lanes_.push_back(std::make_unique<Lane>(sched_));
    }
    slots_.push_back(std::make_unique<Slot>(sched_));
    slots_.back()->index = i;
    slots_.back()->lane = lanes_.back().get();
  }
}

RequestServer::~RequestServer() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown of a half-wedged simulation must not terminate.
  }
}

void RequestServer::start() {
  if (started_) return;
  MSV_CHECK_MSG(!sched_.in_task(), "start() must be called outside tasks");
  for (core::PartitionedApp* app : apps_) {
    if (app != nullptr) app->bridge().attach_scheduler(sched_);
  }
  if (app().config().switchless_relays) {
    sgx::SwitchlessConfig rings;
    rings.policy = config_.ring_policy;
    app().bridge().start_switchless_workers(rings, rings);
  }
  for (auto& sp : slots_) {
    if (sp->tenant == Slot::kFree) continue;
    prepare_slot(*sp);
    if (env_.telemetry.metrics_enabled()) {
      // Handle resolved once; workers record with a pointer poke.
      sp->latency_hist = &env_.telemetry.metrics().histogram(
          "msv_server_request_latency_cycles",
          {{"tenant", std::to_string(sp->tenant)}});
    }
  }
  if (config_.shared_workers == 0) {
    for (auto& sp : slots_) {
      sched_.spawn_daemon("srv-t" + std::to_string(sp->index) + "-w0",
                          [this, lane = sp->lane] { worker_loop(*lane); });
    }
  } else {
    for (std::uint32_t w = 0; w < config_.shared_workers; ++w) {
      sched_.spawn_daemon(
          "flt-s" + std::to_string(shard_id_) + "-w" + std::to_string(w),
          [this] { worker_loop(*lanes_[0]); });
    }
  }
  started_ = true;
}

void RequestServer::begin_stop() {
  stopping_ = true;
  for (auto& lane : lanes_) lane->ready.notify_all();
}

void RequestServer::stop() {
  if (!started_) return;
  MSV_CHECK_MSG(!sched_.in_task(), "stop() must be called outside tasks");
  begin_stop();
  // Workers drain their lanes, observe the stop flag and retire; run()
  // returns once only parked daemons (none of ours) remain.
  sched_.run();
  if (app().bridge().switchless_workers_running()) {
    app().bridge().stop_switchless_workers();
  }
  stopping_ = false;
  started_ = false;
}

// ---------------------------------------------------------------------------
// Residency

RequestServer::Slot& RequestServer::slot_for(std::uint32_t tenant) {
  const auto it = slot_of_.find(tenant);
  MSV_CHECK_MSG(it != slot_of_.end(),
                "tenant " + std::to_string(tenant) + " is not resident on "
                "shard " + std::to_string(shard_id_));
  return *slots_[it->second];
}

const RequestServer::Slot& RequestServer::slot_for(
    std::uint32_t tenant) const {
  return const_cast<RequestServer*>(this)->slot_for(tenant);
}

void RequestServer::bind_tenant(std::uint32_t tenant) {
  MSV_CHECK_MSG(slot_of_.count(tenant) == 0, "tenant already resident");
  // A free slot is fresh or reset by unbind_tenant: no session (built on
  // first touch, or by start()), no checkpoint, open admission.
  for (auto& sp : slots_) {
    if (sp->tenant != Slot::kFree) continue;
    sp->tenant = tenant;
    slot_of_[tenant] = sp->index;
    return;
  }
  MSV_CHECK_MSG(false, "shard " + std::to_string(shard_id_) +
                           " has no free isolate slot");
}

void RequestServer::adopt_checkpoint(std::uint32_t tenant,
                                     std::vector<std::uint8_t> blob) {
  bind_tenant(tenant);
  Slot& slot = slot_for(tenant);
  slot.state.checkpoint = std::move(blob);
  // Seed the standby's copy too: a promotion immediately after a
  // migration must not lose the migrated tenant.
  if (apps_[1] != nullptr) slot.replica_checkpoint = slot.state.checkpoint;
}

std::vector<std::uint8_t> RequestServer::seal_tenant(std::uint32_t tenant) {
  Slot& slot = slot_for(tenant);
  prepare_slot(slot);
  seal_now(slot);
  return slot.state.checkpoint;
}

void RequestServer::unbind_tenant(std::uint32_t tenant) {
  Slot& slot = slot_for(tenant);
  MSV_CHECK_MSG(slot.queue.empty() && slot.in_flight == 0,
                "unbinding a tenant with requests in flight");
  slot_of_.erase(tenant);
  slot.tenant = Slot::kFree;
  slot.state = TenantState{};
  slot.session_generation = 0;
  slot.replica_checkpoint.clear();
  slot.quiescing = false;
}

// ---------------------------------------------------------------------------
// Admission

bool RequestServer::shed(Slot& slot) {
  ++slot.stats.shed;
  if (slo_ != nullptr) slo_->record_shed(shard_id_);
  return false;
}

telemetry::Tracer::DetachedSpan RequestServer::open_request_span(
    std::uint32_t tenant) {
  // A fleet shard's requests are fleet.request spans (admission at the
  // router's shard), the single-enclave server's server.request spans.
  const telemetry::Category cat = fleet_shard_ ? telemetry::Category::kFleet
                                               : telemetry::Category::kServer;
  if (!env_.telemetry.tracer().enabled(cat)) return {};
  return env_.telemetry.tracer().begin_detached(
      cat,
      fleet_shard_ ? env_.telemetry.names().fleet_request
                   : env_.telemetry.names().request,
      static_cast<std::int32_t>(tenant));
}

void RequestServer::enqueue(Slot& slot, Pending* p) {
  slot.queue.push_back(p);
  slot.stats.max_queue_depth =
      std::max(slot.stats.max_queue_depth, slot.queue.size());
  ++slot.stats.accepted;
  slot.lane->work.push_back(slot.index);
  slot.lane->ready.notify_one();
}

bool RequestServer::submit(std::uint32_t tenant, Request r) {
  MSV_CHECK_MSG(started_, "server not started");
  Slot& slot = slot_for(tenant);
  // Degradation ladder at admission (retry -> recover -> shed): a
  // recovering server cannot serve, and a quiesced tenant is about to
  // move — shed rather than queue against either (the counters keep the
  // two causes distinguishable).
  if (recovering_) {
    ++slot.stats.shed_recovery;
    return shed(slot);
  }
  if (slot.quiescing) {
    ++slot.stats.shed_migrating;
    return shed(slot);
  }
  if (queue_full(slot)) {
    if (config_.shed_on_full) return shed(slot);
    MSV_CHECK_MSG(sched_.in_task(),
                  "blocking admission requires a scheduler task");
    while (queue_full(slot)) slot.space.wait();
  }
  if (r.arrival == 0) r.arrival = env_.clock.now();
  auto* p = new Pending;
  p->req = r;
  p->owned = true;
  p->span = open_request_span(tenant);
  enqueue(slot, p);
  return true;
}

std::int64_t RequestServer::submit_and_wait(std::uint32_t tenant, Request r) {
  MSV_CHECK_MSG(started_, "server not started");
  MSV_CHECK_MSG(sched_.in_task(), "submit_and_wait must run inside a task");
  Slot& slot = slot_for(tenant);
  // Closed-loop clients are synchronous; they block for space, never shed.
  while (queue_full(slot)) slot.space.wait();
  if (r.arrival == 0) r.arrival = env_.clock.now();
  Pending p;
  p.req = r;
  p.waiter = sched_.current();
  p.span = open_request_span(tenant);
  enqueue(slot, &p);
  try {
    while (!p.done) sched_.suspend();
  } catch (...) {
    // Cancellation while queued: withdraw the stack descriptor. Once a
    // worker has popped it, the worker is guaranteed never to touch it
    // again on a cancelled timeline (every suspension point throws).
    auto it = std::find(slot.queue.begin(), slot.queue.end(), &p);
    if (it != slot.queue.end()) slot.queue.erase(it);
    throw;
  }
  if (p.error) std::rethrow_exception(p.error);
  return p.result;
}

std::size_t RequestServer::pending() const {
  std::size_t n = 0;
  for (const auto& sp : slots_) n += sp->queue.size() + sp->in_flight;
  return n;
}

void RequestServer::quiesce_tenant(std::uint32_t tenant) {
  MSV_CHECK_MSG(sched_.in_task(), "quiesce must run inside a task");
  Slot& slot = slot_for(tenant);
  slot.quiescing = true;
  // A worker mid-swing finishes its whole coalesced batch before the
  // in-flight count returns to zero — the §13 fence the drain sits behind.
  while (!slot.queue.empty() || slot.in_flight > 0) slot.drained.wait();
}

// ---------------------------------------------------------------------------
// Serving

void RequestServer::worker_loop(Lane& lane) {
  for (;;) {
    while (lane.work.empty()) {
      if (stopping_) return;
      lane.ready.wait();
    }
    Slot& slot = *slots_[lane.work.front()];
    lane.work.pop_front();
    // One token is pushed per enqueue; a batch consumes several queue
    // entries at once, so later tokens may find nothing left. Skipping
    // them reaches no suspension point, so a one-slot lane waits and
    // wakes exactly where a plain per-tenant queue would.
    if (slot.queue.empty()) continue;
    // Coalescing: a worker waking to a backlog drains up to coalesce_max
    // requests and serves them in one batched transition. A backlog of one
    // (or coalesce_max = 1) takes the single-request path below unchanged,
    // so the uncoalesced server's timeline is preserved exactly.
    if (config_.coalesce_max > 1 && slot.queue.size() > 1) {
      std::vector<Pending*> batch;
      while (!slot.queue.empty() && batch.size() < config_.coalesce_max) {
        batch.push_back(slot.queue.front());
        slot.queue.pop_front();
        slot.space.notify_one();
        ++slot.in_flight;
      }
      execute_batch(slot, batch);
      continue;
    }
    Pending* p = slot.queue.front();
    slot.queue.pop_front();
    slot.space.notify_one();
    ++slot.in_flight;
    {
      // Service span, adopted under the request's detached span so the
      // whole chain — request -> handle -> rmi -> ecall — is one tree.
      telemetry::AdoptedSpanScope handle(
          env_.telemetry.tracer(), p->span.ctx, telemetry::Category::kServer,
          env_.telemetry.names().server_handle,
          static_cast<std::int32_t>(slot.tenant));
      pass_gc_gate(slot);
      execute_one(slot, *p);
    }
    finish_request(slot, p);
  }
}

void RequestServer::pass_gc_gate(Slot& slot) {
  while (slot.gc_active) {
    const Cycles gate_start = env_.clock.now();
    slot.gc_done.wait();
    slot.stats.gc_gate_wait_cycles += env_.clock.now() - gate_start;
  }
}

void RequestServer::execute_one(Slot& slot, Pending& p) {
  try {
    p.result = execute_with_retry(slot, p);
    maybe_checkpoint(slot);
  } catch (const sched::TaskCancelled&) {
    // Teardown: unwind without touching the descriptor — its owner (a
    // cancelled submit_and_wait frame) may already be gone.
    throw;
  } catch (...) {
    p.error = std::current_exception();
  }
}

void RequestServer::finish_request(Slot& slot, Pending* p) {
  const Cycles done_at = env_.clock.now();
  env_.telemetry.tracer().end_detached(p->span);
  if (p->error) {
    // Failed requests are availability losses, not latency samples.
    ++slot.stats.failed;
    if (slo_ != nullptr) slo_->record_error(shard_id_);
  } else {
    const Cycles lat = done_at - p->req.arrival;
    if (slot.latency_hist != nullptr) slot.latency_hist->record(lat);
    if (slo_ != nullptr) slo_->record_latency(shard_id_, lat);
    slot.latencies.push_back(lat);
    slot.completion_times.push_back(done_at);
    ++slot.stats.completed;
  }
  --slot.in_flight;
  p->done = true;
  if (p->waiter != sched::kNoTask) sched_.wake(p->waiter);
  if (p->owned) delete p;
  if (slot.quiescing && slot.queue.empty() && slot.in_flight == 0) {
    slot.drained.notify_all();
  }
}

void RequestServer::execute_batch(Slot& slot, std::vector<Pending*>& batch) {
  // Same GC gate as the single path, taken once for the swing: the whole
  // batch executes inside this tenant's un-paused window.
  pass_gc_gate(slot);
  bool batched = false;
  try {
    // Recovery (and the lazy session build) run inside the try: a fault
    // here drops to the per-request fallback, which owns the retry budget.
    if (config_.recovery.enabled) ensure_recovered();
    prepare_slot(slot);
    const model::ClassDecl& cls =
        app().untrusted_context().class_of(slot.state.session.as_ref());
    std::vector<rmi::ProxyRuntime::BatchCall> calls(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Pending& p = *batch[i];
      calls[i].proxy = slot.state.session.as_ref();
      if (p.req.op == RequestOp::kDeposit) {
        calls[i].stub = cls.find_method("updateBalance");
        calls[i].args = {rt::Value(p.req.amount)};
      } else {
        calls[i].stub = cls.find_method("getBalance");
      }
    }
    const std::vector<rmi::ProxyRuntime::BatchOutcome> outcomes =
        app().rmi().invoke_batch(calls);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending* p = batch[i];
      if (outcomes[i].ok) {
        p->result = outcomes[i].value.type() == rt::ValueType::kI32
                        ? outcomes[i].value.as_i32()
                        : 0;
        maybe_checkpoint(slot);
      } else {
        // Per-call application fault, surfaced in-band by the batch
        // dispatcher: fail this request only.
        p->error = std::make_exception_ptr(RuntimeFault(outcomes[i].error));
      }
      finish_request(slot, p);
    }
    batched = true;
  } catch (const sched::TaskCancelled&) {
    // Teardown: unwind without touching the descriptors (see execute_one).
    throw;
  } catch (const sgx::EnclaveLostError&) {
    note_fault();
  } catch (const rmi::StaleProxyError&) {
    note_fault();
    slot.session_generation = 0;
  } catch (const sgx::TransitionError&) {
    note_fault();
  }
  if (batched) return;
  // The whole batch aborted before any call executed (lost enclave, stale
  // session, transient transition fault — the up-front epoch fence in
  // invoke_batch guarantees no partial execution). Re-run each request
  // through the ordinary retry ladder, which recovers the enclave and
  // applies the per-request backoff budget; with recovery disabled the
  // fault surfaces as each request's error, as in the single path.
  for (Pending* p : batch) {
    execute_one(slot, *p);
    finish_request(slot, p);
  }
}

std::int64_t RequestServer::execute_with_retry(Slot& slot, Pending& p) {
  const RecoveryConfig& rc = config_.recovery;
  const Cycles deadline = p.req.arrival + kRequestDeadlineCycles;
  Cycles backoff = kInitialBackoffCycles;
  std::uint32_t attempt = 0;
  for (;;) {
    try {
      // Recovery and the session build run inside the try on purpose: a
      // fault during either consumes this attempt and re-enters the
      // backoff path, instead of escaping the loop mid-recovery.
      if (rc.enabled) ensure_recovered();
      prepare_slot(slot);
      auto& u = app().untrusted_context();
      const rt::Value result =
          p.req.op == RequestOp::kDeposit
              ? u.invoke(slot.state.session.as_ref(), "updateBalance",
                         {rt::Value(p.req.amount)})
              : u.invoke(slot.state.session.as_ref(), "getBalance", {});
      return result.type() == rt::ValueType::kI32 ? result.as_i32() : 0;
    } catch (const sgx::EnclaveLostError&) {
      note_fault();
      if (!rc.enabled) throw;
    } catch (const rmi::StaleProxyError&) {
      note_fault();
      // The session itself is what went stale (fenced by a promotion this
      // worker raced, or minted under a dead incarnation): force its
      // rebuild on the next attempt even if no global recovery runs.
      slot.session_generation = 0;
      if (!rc.enabled) throw;
    } catch (const sgx::TransitionError&) {
      note_fault();
      if (!rc.enabled) throw;
    }
    ++attempt;
    ++slot.stats.retries;
    if (attempt >= rc.max_attempts) {
      throw RetriesExhaustedError(
          "request failed after " + std::to_string(attempt) +
          " attempts (tenant " + std::to_string(slot.tenant) + ")");
    }
    if (env_.clock.now() + backoff > deadline) {
      throw RetriesExhaustedError(
          "retry backoff would exceed the request deadline (tenant " +
          std::to_string(slot.tenant) + ", attempt " +
          std::to_string(attempt) + ")");
    }
    {
      // The retry span covers the backoff sleep: its duration in the
      // trace *is* the wait this attempt added to the request.
      telemetry::SpanScope span(
          env_.telemetry.tracer(), telemetry::Category::kFault,
          env_.telemetry.names().rmi_retry,
          static_cast<std::int32_t>(slot.tenant));
      sched_.sleep_for(backoff);
    }
    backoff = std::min(static_cast<Cycles>(static_cast<double>(backoff) *
                                           kBackoffMultiplier),
                       kMaxBackoffCycles);
  }
}

// ---------------------------------------------------------------------------
// Recovery

void RequestServer::note_fault() {
  ++stats_.fault_errors;
  if (stats_.first_fault_seen_cycles == 0) {
    stats_.first_fault_seen_cycles = env_.clock.now();
  }
  // Recorded at the catch site — before ensure_recovered() can run the
  // ladder — so the SLO monitor's health flip is never later than the
  // failover it predicts (the fig_fleet degraded-before-ladder gate).
  if (slo_ != nullptr) slo_->record_error(shard_id_);
}

void RequestServer::ensure_recovered() {
  // Parked workers re-check on wake: the recovery they waited out may
  // itself have been interrupted by another loss.
  while (recovering_) recovery_done_.wait();
  if (app().enclave().state() != sgx::EnclaveState::kLost) return;
  recovering_ = true;
  if (stats_.first_recovery_started_cycles == 0) {
    stats_.first_recovery_started_cycles = env_.clock.now();
  }
  const Cycles t0 = env_.clock.now();
  try {
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kFleet,
                              env_.telemetry.names().fleet_failover,
                              static_cast<std::int32_t>(shard_id_));
    if (standby_ready_) {
      promote_standby_locked();
    } else {
      // Cold path: re-create and re-measure the enclave in place, on the
      // serving timeline. Sessions rebuild lazily against the new
      // generation, each by its own tenant's next request.
      app().restart_enclave();
      ++stats_.restarts;
      ++generation_;
    }
  } catch (...) {
    recovering_ = false;
    recovery_done_.notify_all();
    throw;
  }
  stats_.last_recovery_cycles = env_.clock.now() - t0;
  stats_.recovery_cycles += stats_.last_recovery_cycles;
  recovering_ = false;
  recovery_done_.notify_all();
  // A new authority (or freshly re-measured enclave) starts with a clean
  // error budget: the outage is the old incarnation's debt.
  if (slo_ != nullptr) slo_->note_epoch(shard_id_, authority_epoch_);
}

void RequestServer::promote_standby() {
  MSV_CHECK_MSG(!recovering_, "promotion while a recovery is in flight");
  MSV_CHECK_MSG(standby_ready_, "no warm standby to promote");
  promote_standby_locked();
  if (slo_ != nullptr) slo_->note_epoch(shard_id_, authority_epoch_);
}

void RequestServer::promote_standby_locked() {
  MSV_CHECK_MSG(apps_[active_ ^ 1] != nullptr && standby_ready_,
                "promote without a ready standby");
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kFleet,
                            env_.telemetry.names().fleet_promote,
                            static_cast<std::int32_t>(shard_id_));
  // Fence first: requests still holding sessions minted on the demoted
  // runtime fault with StaleProxyError and rebuild — never double-execute
  // against an enclave that stopped being the authority (which, in a
  // planned failover, is still perfectly alive).
  apps_[active_]->rmi().fence_proxies();
  const std::uint32_t demoted = active_;
  active_ ^= 1;
  ++authority_epoch_;
  ++generation_;
  ++stats_.promotions;
  // Freeze the demoted enclave's flight ring: the post-mortem shows what
  // the old authority was doing when it stopped being the authority.
  if (telemetry::FlightBus* bus = env_.telemetry.flight()) {
    bus->recorder(apps_[demoted]->enclave().name())
        .record(telemetry::FlightEventKind::kLifecycle, "shard.promote",
                static_cast<std::int64_t>(shard_id_),
                static_cast<std::int64_t>(authority_epoch_));
    bus->snapshot(apps_[demoted]->enclave().name(), "promotion",
                  {{"shard", std::to_string(shard_id_)},
                   {"authority_epoch", std::to_string(authority_epoch_)}});
  }
  // The replica's streamed copies are the blobs the new authority actually
  // holds; adopt them as the authoritative checkpoints.
  for (auto& sp : slots_) {
    if (sp->tenant != Slot::kFree && !sp->replica_checkpoint.empty()) {
      sp->state.checkpoint = sp->replica_checkpoint;
    }
  }
  // The injector follows the authority: faults strike whichever enclave
  // serves the shard.
  if (injector_ != nullptr) {
    apps_[demoted]->bridge().attach_fault_injector(nullptr);
    apps_[active_]->bridge().attach_fault_injector(injector_);
    injector_->retarget(apps_[active_]->enclave());
  }
  standby_ready_ = false;
  if (apps_[demoted]->enclave().state() == sgx::EnclaveState::kLost) {
    // Rebuild the lost enclave as the next standby on a detached core
    // (the §5.5 helper-thread pattern): its 20M-cycle re-measure never
    // stalls the promoted authority's serving timeline.
    sched_.spawn("flt-s" + std::to_string(shard_id_) + "-rebuild",
                 [this, demoted] {
                   const Cycles cost = env_.clock.measure_detached(
                       [&] { apps_[demoted]->restart_enclave(); });
                   sched_.sleep_for(cost);
                   standby_ready_ = true;
                   ++stats_.standby_rebuilds;
                 });
  } else {
    // Planned failover: the healthy demoted app is the new standby as-is.
    standby_ready_ = true;
  }
}

void RequestServer::prepare_slot(Slot& slot) {
  // construct_in yields inside its ecall, and another worker may run a
  // promotion meanwhile — so the generation a session counts for is the
  // one captured *before* the build, and a mid-build flip just loops.
  while (slot.session_generation != generation_) {
    const std::uint64_t gen = generation_;
    // Builds inside start() bring the server up; only a build on the
    // serving path is a restore in the trace.
    std::optional<telemetry::SpanScope> span;
    if (started_) {
      span.emplace(env_.telemetry.tracer(), telemetry::Category::kFleet,
                   env_.telemetry.names().fleet_restore,
                   static_cast<std::int32_t>(slot.tenant));
    }
    std::int32_t balance = config_.initial_balance;
    try {
      if (const auto restored = slot.state.unseal_checkpoint(
              sealer_, app().enclave(), slot.tenant)) {
        balance = *restored;
        ++slot.stats.restored;
      }
    } catch (const SecurityFault&) {
      // Tampered or spliced blob: refuse it, count it, and fall back to a
      // fresh session — corruption must never fail the whole recovery.
      ++slot.stats.checkpoint_corrupt;
      slot.state.checkpoint.clear();
      balance = config_.initial_balance;
    }
    slot.state.session = app().construct_in(
        slot.index, "Account",
        {rt::Value("tenant-" + std::to_string(slot.tenant)),
         rt::Value(balance)});
    slot.session_generation = gen;
  }
}

void RequestServer::maybe_checkpoint(Slot& slot) {
  const RecoveryConfig& rc = config_.recovery;
  if (!rc.enabled || rc.checkpoint_every == 0) return;
  if (++slot.state.since_checkpoint < rc.checkpoint_every) return;
  slot.state.since_checkpoint = 0;
  try {
    seal_now(slot);
  } catch (const sched::TaskCancelled&) {
    throw;
  } catch (...) {
    // A fault mid-checkpoint loses this checkpoint, not the request; the
    // previous sealed blob (and its replica copy) stay valid. The sequence
    // number only ever moves forward: reusing one would seal a different
    // balance under the same key and IV.
  }
}

void RequestServer::seal_now(Slot& slot) {
  const rt::Value bal = app().untrusted_context().invoke(
      slot.state.session.as_ref(), "getBalance", {});
  const std::vector<std::uint8_t>& blob = slot.state.seal_checkpoint(
      sealer_, app().enclave(), slot.tenant, bal.as_i32());
  ++slot.stats.checkpoints;
  if (apps_[1] != nullptr) {
    // The replication stream: the sealed blob is forwarded to the standby
    // verbatim (sealed bytes are already safe in untrusted hands, and the
    // standby's measurement derives the same unsealing key).
    slot.replica_checkpoint = blob;
    ++stats_.replicated_blobs;
    stats_.replicated_bytes += blob.size();
  }
}

void RequestServer::attach_fault_injector(faults::FaultInjector& injector) {
  injector_ = &injector;
  injector.set_blob_corrupter([this](Rng& rng) {
    std::vector<Slot*> with;
    for (auto& sp : slots_) {
      if (sp->tenant != Slot::kFree && sp->state.has_checkpoint()) {
        with.push_back(sp.get());
      }
    }
    if (with.empty()) return false;
    std::vector<std::uint8_t>& bytes =
        with[rng.next_below(with.size())]->state.checkpoint;
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    return true;
  });
}

// ---------------------------------------------------------------------------
// GC and observation

void RequestServer::collect_tenant_async(std::uint32_t tenant) {
  MSV_CHECK_MSG(started_, "server not started");
  Slot& slot = slot_for(tenant);
  sched_.spawn("gc-tenant-" + std::to_string(tenant), [this, &slot] {
    // One collection of a heap at a time; a second request queues behind
    // the gate like any worker.
    while (slot.gc_active) slot.gc_done.wait();
    // Realized pause window of this tenant (the zero-duration gc.collect
    // phase markers from the detached collection sit inside it).
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kGc,
                              env_.telemetry.names().gc_pause,
                              static_cast<std::int32_t>(slot.tenant));
    slot.gc_active = true;
    const Cycles pause_start = env_.clock.now();
    // The collection itself runs on the §5.5 GC helper thread — its own
    // core — so its cycles never advance the shared serving timeline;
    // they are realized as a sleep (pause) of this isolate only.
    const Cycles cost = env_.clock.measure_detached(
        [&] { app().collect_isolate(slot.index); });
    sched_.sleep_for(cost);
    slot.gc_active = false;
    ++slot.stats.gc_runs;
    slot.stats.gc_pause_cycles += cost;
    slot.gc_windows.emplace_back(pause_start, env_.clock.now());
    slot.gc_done.notify_all();
  });
}

void RequestServer::set_latency_histogram(telemetry::Histogram* hist) {
  for (auto& sp : slots_) sp->latency_hist = hist;
}

TenantStats RequestServer::totals() const {
  TenantStats s;
  for (const auto& sp : slots_) {
    const TenantStats& t = sp->stats;
    s.accepted += t.accepted;
    s.shed += t.shed;
    s.completed += t.completed;
    s.failed += t.failed;
    s.retries += t.retries;
    s.restored += t.restored;
    s.checkpoints += t.checkpoints;
    s.checkpoint_corrupt += t.checkpoint_corrupt;
    s.shed_recovery += t.shed_recovery;
    s.shed_migrating += t.shed_migrating;
    s.gc_runs += t.gc_runs;
    s.gc_pause_cycles += t.gc_pause_cycles;
    s.gc_gate_wait_cycles += t.gc_gate_wait_cycles;
    s.max_queue_depth = std::max(s.max_queue_depth, t.max_queue_depth);
  }
  return s;
}

std::vector<Cycles> RequestServer::all_latencies() const {
  std::vector<Cycles> out;
  for (const auto& sp : slots_) {
    out.insert(out.end(), sp->latencies.begin(), sp->latencies.end());
  }
  return out;
}

}  // namespace msv::server
