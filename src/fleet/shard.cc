#include "fleet/shard.h"

#include <algorithm>
#include <utility>

#include "faults/injector.h"
#include "support/error.h"
#include "telemetry/flight.h"
#include "telemetry/slo.h"

namespace msv::fleet {

Shard::Shard(Env& env, sched::Scheduler& sched,
             const model::AppModel& app_model, std::uint32_t shard_id,
             ShardConfig config, core::AppConfig app_config)
    : env_(env),
      sched_(sched),
      shard_id_(shard_id),
      config_(config),
      sealer_(config.recovery.platform_secret),
      work_available_(sched),
      recovery_done_(sched) {
  MSV_CHECK_MSG(config_.slots > 0, "shard needs at least one slot");
  MSV_CHECK_MSG(config_.workers > 0, "shard needs at least one worker");
  MSV_CHECK_MSG(config_.max_queue_depth > 0, "queue depth must be positive");
  MSV_CHECK_MSG(config_.recovery.max_attempts > 0,
                "retry budget needs at least one attempt");
  const std::string tag = "shard" + std::to_string(shard_id_);
  // Both enclaves are built (and their ECREATE/EADD/EINIT bill paid) at
  // fleet start, on the shared clock — the standby's warmth is exactly
  // this prepaid cost.
  apps_[0] = std::make_unique<core::PartitionedApp>(
      env_, app_model, config_.slots, app_config, tag + "-a");
  if (config_.replication) {
    apps_[1] = std::make_unique<core::PartitionedApp>(
        env_, app_model, config_.slots, app_config, tag + "-b");
    standby_ready_ = true;
  }
  for (std::uint32_t i = 0; i < config_.slots; ++i) {
    slots_.push_back(std::make_unique<Slot>(sched_));
    slots_.back()->index = i;
  }
}

Shard::~Shard() = default;

void Shard::start() {
  if (started_) return;
  MSV_CHECK_MSG(!sched_.in_task(), "start() must be called outside tasks");
  apps_[0]->bridge().attach_scheduler(sched_);
  if (apps_[1] != nullptr) apps_[1]->bridge().attach_scheduler(sched_);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    sched_.spawn_daemon(
        "flt-s" + std::to_string(shard_id_) + "-w" + std::to_string(w),
        [this] { worker_loop(); });
  }
  started_ = true;
}

void Shard::begin_stop() {
  stopping_ = true;
  work_available_.notify_all();
}

// ---------------------------------------------------------------------------
// Residency

Shard::Slot& Shard::slot_for(std::uint32_t tenant) {
  const auto it = slot_of_.find(tenant);
  MSV_CHECK_MSG(it != slot_of_.end(),
                "tenant " + std::to_string(tenant) + " is not resident on "
                "shard " + std::to_string(shard_id_));
  return *slots_[it->second];
}

const Shard::Slot& Shard::slot_for(std::uint32_t tenant) const {
  return const_cast<Shard*>(this)->slot_for(tenant);
}

void Shard::bind_tenant(std::uint32_t tenant) {
  MSV_CHECK_MSG(slot_of_.count(tenant) == 0, "tenant already resident");
  for (auto& sp : slots_) {
    if (sp->tenant != Slot::kFree) continue;
    sp->tenant = tenant;
    sp->state = server::TenantState{};
    sp->session_generation = 0;  // built lazily on first touch
    sp->replica_checkpoint.clear();
    sp->quiescing = false;
    slot_of_[tenant] = sp->index;
    return;
  }
  MSV_CHECK_MSG(false, "shard " + std::to_string(shard_id_) +
                           " has no free isolate slot");
}

void Shard::adopt_checkpoint(std::uint32_t tenant,
                             std::vector<std::uint8_t> blob) {
  bind_tenant(tenant);
  Slot& slot = slot_for(tenant);
  slot.state.checkpoint = std::move(blob);
  // Seed the standby's copy too: a promotion immediately after a
  // migration must not lose the migrated tenant.
  if (config_.replication) slot.replica_checkpoint = slot.state.checkpoint;
}

std::vector<std::uint8_t> Shard::seal_tenant(std::uint32_t tenant) {
  Slot& slot = slot_for(tenant);
  prepare_slot(slot);
  seal_now(slot);
  return slot.state.checkpoint;
}

void Shard::unbind_tenant(std::uint32_t tenant) {
  Slot& slot = slot_for(tenant);
  MSV_CHECK_MSG(slot.queue.empty() && slot.in_flight == 0,
                "unbinding a tenant with requests in flight");
  slot_of_.erase(tenant);
  slot.tenant = Slot::kFree;
  slot.state = server::TenantState{};
  slot.session_generation = 0;
  slot.replica_checkpoint.clear();
  slot.quiescing = false;
}

bool Shard::hosts(std::uint32_t tenant) const {
  return slot_of_.count(tenant) != 0;
}

std::vector<std::uint32_t> Shard::resident_tenants() const {
  std::vector<std::uint32_t> out;
  out.reserve(slot_of_.size());
  for (const auto& [tenant, index] : slot_of_) out.push_back(tenant);
  return out;
}

// ---------------------------------------------------------------------------
// Admission

void Shard::enqueue(Slot& slot, Pending* p) {
  slot.queue.push_back(p);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, slot.queue.size());
  ++stats_.accepted;
  work_.push_back(slot.index);
  work_available_.notify_one();
}

bool Shard::submit(std::uint32_t tenant, server::Request r) {
  MSV_CHECK_MSG(started_, "shard not started");
  Slot& slot = slot_for(tenant);
  // Degradation ladder at admission: a recovering shard cannot serve, and
  // a quiesced tenant is about to move — shed rather than queue against
  // either (the counters keep the two causes distinguishable).
  if (recovering_) {
    ++stats_.shed;
    ++stats_.shed_recovery;
    if (slo_ != nullptr) slo_->record_shed(shard_id_);
    return false;
  }
  if (slot.quiescing) {
    ++stats_.shed;
    ++stats_.shed_migrating;
    if (slo_ != nullptr) slo_->record_shed(shard_id_);
    return false;
  }
  if (slot.queue.size() >= config_.max_queue_depth) {
    ++stats_.shed;
    if (slo_ != nullptr) slo_->record_shed(shard_id_);
    return false;
  }
  if (r.arrival == 0) r.arrival = env_.clock.now();
  auto* p = new Pending;
  p->req = r;
  p->tenant = tenant;
  p->owned = true;
  if (env_.telemetry.tracer().enabled(telemetry::Category::kFleet)) {
    p->span = env_.telemetry.tracer().begin_detached(
        telemetry::Category::kFleet, env_.telemetry.names().fleet_request,
        static_cast<std::int32_t>(tenant));
  }
  enqueue(slot, p);
  return true;
}

std::int64_t Shard::submit_and_wait(std::uint32_t tenant, server::Request r) {
  MSV_CHECK_MSG(started_, "shard not started");
  MSV_CHECK_MSG(sched_.in_task(), "submit_and_wait must run inside a task");
  Slot& slot = slot_for(tenant);
  while (slot.queue.size() >= config_.max_queue_depth) slot.space.wait();
  if (r.arrival == 0) r.arrival = env_.clock.now();
  Pending p;
  p.req = r;
  p.tenant = tenant;
  p.waiter = sched_.current();
  if (env_.telemetry.tracer().enabled(telemetry::Category::kFleet)) {
    p.span = env_.telemetry.tracer().begin_detached(
        telemetry::Category::kFleet, env_.telemetry.names().fleet_request,
        static_cast<std::int32_t>(tenant));
  }
  enqueue(slot, &p);
  try {
    while (!p.done) sched_.suspend();
  } catch (...) {
    auto it = std::find(slot.queue.begin(), slot.queue.end(), &p);
    if (it != slot.queue.end()) slot.queue.erase(it);
    throw;
  }
  if (p.error) std::rethrow_exception(p.error);
  return p.result;
}

std::size_t Shard::pending() const {
  std::size_t n = 0;
  for (const auto& sp : slots_) n += sp->queue.size() + sp->in_flight;
  return n;
}

std::size_t Shard::pending_for(std::uint32_t tenant) const {
  const Slot& slot = slot_for(tenant);
  return slot.queue.size() + slot.in_flight;
}

void Shard::quiesce_tenant(std::uint32_t tenant) {
  MSV_CHECK_MSG(sched_.in_task(), "quiesce must run inside a task");
  Slot& slot = slot_for(tenant);
  slot.quiescing = true;
  // A worker mid-swing finishes its whole coalesced batch before the
  // in-flight count returns to zero — the §13 fence the drain sits behind.
  while (!slot.queue.empty() || slot.in_flight > 0) slot.drained.wait();
}

void Shard::resume_tenant(std::uint32_t tenant) {
  slot_for(tenant).quiescing = false;
}

// ---------------------------------------------------------------------------
// Serving

void Shard::worker_loop() {
  for (;;) {
    while (work_.empty()) {
      if (stopping_) return;
      work_available_.wait();
    }
    const std::uint32_t si = work_.front();
    work_.pop_front();
    Slot& slot = *slots_[si];
    // One work token is pushed per enqueue; a batch consumes several
    // queue entries at once, so later tokens may find nothing left.
    if (slot.queue.empty()) continue;
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
      telemetry::AdoptedSpanScope handle(
          env_.telemetry.tracer(), p->span.ctx, telemetry::Category::kServer,
          env_.telemetry.names().server_handle,
          static_cast<std::int32_t>(slot.tenant));
      try {
        p->result = execute_with_retry(slot, *p);
        maybe_checkpoint(slot);
      } catch (const sched::TaskCancelled&) {
        throw;
      } catch (...) {
        p->error = std::current_exception();
      }
    }
    finish_request(slot, p);
  }
}

void Shard::finish_request(Slot& slot, Pending* p) {
  const Cycles done_at = env_.clock.now();
  env_.telemetry.tracer().end_detached(p->span);
  if (p->error) {
    ++stats_.failed;
    if (slo_ != nullptr) slo_->record_error(shard_id_);
  } else {
    const Cycles lat = done_at - p->req.arrival;
    if (latency_hist != nullptr) latency_hist->record(lat);
    latencies_.push_back(lat);
    ++stats_.completed;
    if (slo_ != nullptr) slo_->record_latency(shard_id_, lat);
  }
  --slot.in_flight;
  p->done = true;
  if (p->waiter != sched::kNoTask) sched_.wake(p->waiter);
  if (p->owned) delete p;
  if (slot.quiescing && slot.queue.empty() && slot.in_flight == 0) {
    slot.drained.notify_all();
  }
}

void Shard::execute_batch(Slot& slot, std::vector<Pending*>& batch) {
  bool batched = false;
  try {
    // Recovery (and the lazy session build) run inside the try: a fault
    // here drops to the per-request fallback, which owns the retry budget.
    if (config_.recovery.enabled) ensure_recovered();
    prepare_slot(slot);
    core::PartitionedApp& app = active_app();
    const model::ClassDecl& cls =
        app.untrusted_context().class_of(slot.state.session.as_ref());
    std::vector<rmi::ProxyRuntime::BatchCall> calls(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Pending& p = *batch[i];
      calls[i].proxy = slot.state.session.as_ref();
      if (p.req.op == server::RequestOp::kDeposit) {
        calls[i].stub = cls.find_method("updateBalance");
        calls[i].args = {rt::Value(p.req.amount)};
      } else {
        calls[i].stub = cls.find_method("getBalance");
      }
    }
    const std::vector<rmi::ProxyRuntime::BatchOutcome> outcomes =
        app.rmi().invoke_batch(calls);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending* p = batch[i];
      if (outcomes[i].ok) {
        p->result = outcomes[i].value.type() == rt::ValueType::kI32
                        ? outcomes[i].value.as_i32()
                        : 0;
        maybe_checkpoint(slot);
      } else {
        p->error = std::make_exception_ptr(RuntimeFault(outcomes[i].error));
      }
      finish_request(slot, p);
    }
    batched = true;
  } catch (const sched::TaskCancelled&) {
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
  // Whole-batch abort before any call executed (invoke_batch's up-front
  // epoch fence guarantees no partial execution): per-request retry ladder.
  for (Pending* p : batch) {
    try {
      p->result = execute_with_retry(slot, *p);
      maybe_checkpoint(slot);
    } catch (const sched::TaskCancelled&) {
      throw;
    } catch (...) {
      p->error = std::current_exception();
    }
    finish_request(slot, p);
  }
}

std::int64_t Shard::execute_with_retry(Slot& slot, Pending& p) {
  const server::RecoveryConfig& rc = config_.recovery;
  const Cycles deadline = p.req.arrival + rc.request_deadline_cycles;
  Cycles backoff = rc.initial_backoff_cycles;
  std::uint32_t attempt = 0;
  for (;;) {
    try {
      if (rc.enabled) ensure_recovered();
      prepare_slot(slot);
      core::PartitionedApp& app = active_app();
      const rt::Value result =
          p.req.op == server::RequestOp::kDeposit
              ? app.untrusted_context().invoke(slot.state.session.as_ref(),
                                               "updateBalance",
                                               {rt::Value(p.req.amount)})
              : app.untrusted_context().invoke(slot.state.session.as_ref(),
                                               "getBalance", {});
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
    ++stats_.retries;
    if (attempt >= rc.max_attempts) {
      throw server::RetriesExhaustedError(
          "request failed after " + std::to_string(attempt) +
          " attempts (shard " + std::to_string(shard_id_) + ", tenant " +
          std::to_string(slot.tenant) + ")");
    }
    if (env_.clock.now() + backoff > deadline) {
      throw server::RetriesExhaustedError(
          "retry backoff would exceed the request deadline (shard " +
          std::to_string(shard_id_) + ", tenant " +
          std::to_string(slot.tenant) + ")");
    }
    {
      telemetry::SpanScope span(
          env_.telemetry.tracer(), telemetry::Category::kFault,
          env_.telemetry.names().rmi_retry,
          static_cast<std::int32_t>(slot.tenant));
      sched_.sleep_for(backoff);
    }
    backoff = std::min(
        static_cast<Cycles>(static_cast<double>(backoff) *
                            rc.backoff_multiplier),
        rc.max_backoff_cycles);
  }
}

// ---------------------------------------------------------------------------
// Recovery

void Shard::note_fault() {
  ++stats_.fault_errors;
  if (stats_.first_fault_seen_cycles == 0) {
    stats_.first_fault_seen_cycles = env_.clock.now();
  }
  // Recorded at the catch site — before ensure_recovered() can run the
  // ladder — so the SLO monitor's health flip is never later than the
  // failover it predicts (the fig_fleet degraded-before-ladder gate).
  if (slo_ != nullptr) slo_->record_error(shard_id_);
}

void Shard::ensure_recovered() {
  while (recovering_) recovery_done_.wait();
  if (active_app().enclave().state() != sgx::EnclaveState::kLost) return;
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
      // Cold path: the PR 5 ladder — re-create and re-measure the enclave
      // inline, on the serving timeline. Sessions rebuild lazily.
      active_app().restart_enclave();
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

void Shard::promote_standby() {
  MSV_CHECK_MSG(!recovering_, "promotion while a recovery is in flight");
  MSV_CHECK_MSG(standby_ready_, "no warm standby to promote");
  promote_standby_locked();
  if (slo_ != nullptr) slo_->note_epoch(shard_id_, authority_epoch_);
}

void Shard::promote_standby_locked() {
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

void Shard::prepare_slot(Slot& slot) {
  // construct_in yields inside its ecall, and another worker may run a
  // promotion meanwhile — so the generation a session counts for is the
  // one captured *before* the build, and a mid-build flip just loops.
  while (slot.session_generation != generation_) {
    const std::uint64_t gen = generation_;
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kFleet,
                              env_.telemetry.names().fleet_restore,
                              static_cast<std::int32_t>(slot.tenant));
    core::PartitionedApp& app = active_app();
    std::int32_t balance = config_.initial_balance;
    try {
      if (const auto restored = slot.state.unseal_checkpoint(
              sealer_, app.enclave(), slot.tenant)) {
        balance = *restored;
        ++stats_.restored;
      }
    } catch (const SecurityFault&) {
      ++stats_.checkpoint_corrupt;
      slot.state.checkpoint.clear();
      balance = config_.initial_balance;
    }
    slot.state.session = app.construct_in(
        slot.index, "Account",
        {rt::Value("tenant-" + std::to_string(slot.tenant)),
         rt::Value(balance)});
    slot.state.session_epoch = app.enclave().epoch();
    slot.session_generation = gen;
  }
}

void Shard::maybe_checkpoint(Slot& slot) {
  const server::RecoveryConfig& rc = config_.recovery;
  if (!rc.enabled || rc.checkpoint_every == 0) return;
  if (++slot.state.since_checkpoint < rc.checkpoint_every) return;
  slot.state.since_checkpoint = 0;
  try {
    seal_now(slot);
  } catch (const sched::TaskCancelled&) {
    throw;
  } catch (...) {
    // A fault mid-checkpoint loses this checkpoint, not the request; the
    // previous sealed blob (and its replica copy) stay valid.
  }
}

void Shard::seal_now(Slot& slot) {
  const rt::Value bal = active_app().untrusted_context().invoke(
      slot.state.session.as_ref(), "getBalance", {});
  const std::vector<std::uint8_t>& blob = slot.state.seal_checkpoint(
      sealer_, active_app().enclave(), slot.tenant, bal.as_i32());
  ++stats_.checkpoints;
  if (config_.replication) {
    // The replication stream: the sealed blob is forwarded to the standby
    // verbatim (sealed bytes are already safe in untrusted hands, and the
    // standby's measurement derives the same unsealing key).
    slot.replica_checkpoint = blob;
    ++stats_.replicated_blobs;
    stats_.replicated_bytes += blob.size();
  }
}

void Shard::attach_injector(faults::FaultInjector* injector) {
  injector_ = injector;
  active_app().bridge().attach_fault_injector(injector);
}

}  // namespace msv::fleet
