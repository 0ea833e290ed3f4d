#include "server/server.h"

#include <algorithm>

#include "faults/injector.h"
#include "support/error.h"
#include "telemetry/slo.h"

namespace msv::server {

RequestServer::RequestServer(sched::Scheduler& sched,
                             core::PartitionedApp& app, ServerConfig config)
    : env_(app.env()),
      sched_(sched),
      app_(app),
      config_(config),
      sealer_(config.recovery.platform_secret),
      recovery_done_(sched) {
  MSV_CHECK_MSG(config_.max_queue_depth > 0, "queue depth must be positive");
  MSV_CHECK_MSG(config_.workers_per_tenant > 0, "need at least one worker");
  MSV_CHECK_MSG(config_.recovery.max_attempts > 0,
                "retry budget needs at least one attempt");
  MSV_CHECK_MSG(config_.recovery.backoff_multiplier >= 1.0,
                "backoff must not shrink");
  for (std::uint32_t t = 0; t < app_.isolate_count(); ++t) {
    tenants_.push_back(std::make_unique<Tenant>(sched_));
  }
}

RequestServer::~RequestServer() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown of a half-wedged simulation must not terminate.
  }
}

RequestServer::Tenant& RequestServer::tenant(std::uint32_t t) {
  MSV_CHECK_MSG(t < tenants_.size(), "no such tenant");
  return *tenants_[t];
}

const RequestServer::Tenant& RequestServer::tenant(std::uint32_t t) const {
  MSV_CHECK_MSG(t < tenants_.size(), "no such tenant");
  return *tenants_[t];
}

void RequestServer::start() {
  if (started_) return;
  MSV_CHECK_MSG(!sched_.in_task(), "start() must be called outside tasks");
  app_.bridge().attach_scheduler(sched_);
  if (config_.switchless) {
    // Flag the relay transitions switchless by prefix, the way
    // PartitionedApp walks its EDL spec, then bring up the rings.
    const auto& names = app_.bridge().call_names();
    for (sgx::CallId id = 0; id < names.size(); ++id) {
      if (names[id].rfind("ecall_relay_", 0) == 0 ||
          names[id].rfind("ocall_relay_", 0) == 0) {
        app_.bridge().set_switchless(id, true);
      }
    }
    app_.bridge().start_switchless_workers(config_.ecall_ring,
                                           config_.ocall_ring);
  }
  for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
    tenants_[t]->state.session = app_.construct_in(
        t, "Account",
        {rt::Value("tenant-" + std::to_string(t)),
         rt::Value(config_.initial_balance)});
    tenants_[t]->state.session_epoch = app_.enclave().epoch();
    if (env_.telemetry.metrics_enabled()) {
      // Handle resolved once; workers record with a pointer poke.
      tenants_[t]->latency_hist = &env_.telemetry.metrics().histogram(
          "msv_server_request_latency_cycles",
          {{"tenant", std::to_string(t)}});
    }
  }
  for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
    for (std::uint32_t w = 0; w < config_.workers_per_tenant; ++w) {
      sched_.spawn_daemon(
          "srv-t" + std::to_string(t) + "-w" + std::to_string(w),
          [this, t] { worker_loop(t); });
    }
  }
  started_ = true;
}

void RequestServer::stop() {
  if (!started_) return;
  MSV_CHECK_MSG(!sched_.in_task(), "stop() must be called outside tasks");
  stopping_ = true;
  for (auto& ten : tenants_) ten->work.notify_all();
  // Workers drain their queues, observe the stop flag and retire; run()
  // returns once only parked daemons (none of ours) remain.
  sched_.run();
  if (app_.bridge().switchless_workers_running()) {
    app_.bridge().stop_switchless_workers();
  }
  stopping_ = false;
  started_ = false;
}

void RequestServer::enqueue(Tenant& ten, Pending* p) {
  ten.queue.push_back(p);
  ten.stats.max_queue_depth =
      std::max(ten.stats.max_queue_depth, ten.queue.size());
  ++ten.stats.accepted;
  ten.work.notify_one();
}

bool RequestServer::submit(std::uint32_t tenant_id, Request r) {
  MSV_CHECK_MSG(started_, "server not started");
  Tenant& ten = tenant(tenant_id);
  // Mid-recovery the enclave cannot serve anyway: shed at admission so the
  // backlog does not grow against a stalled service (degradation ladder:
  // retry -> recover -> shed).
  if (config_.recovery.enabled && recovering_) {
    ++ten.stats.shed;
    ++ten.stats.shed_recovery;
    if (slo_ != nullptr) slo_->record_shed(tenant_id);
    return false;
  }
  if (queue_full(ten)) {
    if (config_.shed_on_full) {
      ++ten.stats.shed;
      if (slo_ != nullptr) slo_->record_shed(tenant_id);
      return false;
    }
    MSV_CHECK_MSG(sched_.in_task(),
                  "blocking admission requires a scheduler task");
    while (queue_full(ten)) ten.space.wait();
  }
  if (r.arrival == 0) r.arrival = env_.clock.now();
  auto* p = new Pending;
  p->req = r;
  p->owned = true;
  if (env_.telemetry.tracer().enabled(telemetry::Category::kServer)) {
    p->span = env_.telemetry.tracer().begin_detached(
        telemetry::Category::kServer, env_.telemetry.names().request,
        static_cast<std::int32_t>(tenant_id));
  }
  enqueue(ten, p);
  return true;
}

std::int64_t RequestServer::submit_and_wait(std::uint32_t tenant_id,
                                            Request r) {
  MSV_CHECK_MSG(started_, "server not started");
  MSV_CHECK_MSG(sched_.in_task(), "submit_and_wait must run inside a task");
  Tenant& ten = tenant(tenant_id);
  // Closed-loop clients are synchronous; they block for space, never shed.
  while (queue_full(ten)) ten.space.wait();
  if (r.arrival == 0) r.arrival = env_.clock.now();
  Pending p;
  p.req = r;
  p.waiter = sched_.current();
  if (env_.telemetry.tracer().enabled(telemetry::Category::kServer)) {
    p.span = env_.telemetry.tracer().begin_detached(
        telemetry::Category::kServer, env_.telemetry.names().request,
        static_cast<std::int32_t>(tenant_id));
  }
  enqueue(ten, &p);
  try {
    while (!p.done) sched_.suspend();
  } catch (...) {
    // Cancellation while queued: withdraw the stack descriptor. Once a
    // worker has popped it, the worker is guaranteed never to touch it
    // again on a cancelled timeline (every suspension point throws).
    auto it = std::find(ten.queue.begin(), ten.queue.end(), &p);
    if (it != ten.queue.end()) ten.queue.erase(it);
    throw;
  }
  if (p.error) std::rethrow_exception(p.error);
  return p.result;
}

void RequestServer::worker_loop(std::uint32_t t) {
  Tenant& ten = *tenants_[t];
  for (;;) {
    while (ten.queue.empty()) {
      if (stopping_) return;
      ten.work.wait();
    }
    // Coalescing: a worker waking to a backlog drains up to coalesce_max
    // requests and serves them in one batched transition. A backlog of one
    // (or coalesce_max = 1) takes the single-request path below unchanged,
    // so the uncoalesced server's timeline is preserved exactly.
    if (config_.coalesce_max > 1 && ten.queue.size() > 1) {
      std::vector<Pending*> batch;
      while (!ten.queue.empty() && batch.size() < config_.coalesce_max) {
        batch.push_back(ten.queue.front());
        ten.queue.pop_front();
        ten.space.notify_one();
        ++ten.in_flight;
      }
      execute_batch(t, ten, batch);
      continue;
    }
    Pending* p = ten.queue.front();
    ten.queue.pop_front();
    ten.space.notify_one();
    ++ten.in_flight;
    {
      // Service span, adopted under the request's detached span so the
      // whole chain — request -> handle -> rmi -> ecall — is one tree.
      telemetry::AdoptedSpanScope handle(
          env_.telemetry.tracer(), p->span.ctx, telemetry::Category::kServer,
          env_.telemetry.names().server_handle, static_cast<std::int32_t>(t));
      // GC gate: this tenant's isolate is paused while its heap is
      // collected; the request waits out the pause. Other tenants' workers
      // never pass through this gate (§2.2 isolate independence).
      while (ten.gc_active) {
        const Cycles gate_start = env_.clock.now();
        ten.gc_done.wait();
        ten.stats.gc_gate_wait_cycles += env_.clock.now() - gate_start;
      }
      try {
        p->result = execute_with_retry(t, ten, *p);
        maybe_checkpoint(t, ten);
      } catch (const sched::TaskCancelled&) {
        // Teardown: unwind without touching the descriptor — its owner (a
        // cancelled submit_and_wait frame) may already be gone.
        throw;
      } catch (...) {
        p->error = std::current_exception();
      }
    }
    finish_request(t, ten, p);
  }
}

void RequestServer::finish_request(std::uint32_t t, Tenant& ten, Pending* p) {
  const Cycles done_at = env_.clock.now();
  env_.telemetry.tracer().end_detached(p->span);
  if (p->error) {
    // Failed requests are availability losses, not latency samples.
    ++ten.stats.failed;
    if (slo_ != nullptr) slo_->record_error(t);
  } else {
    if (ten.latency_hist != nullptr) {
      ten.latency_hist->record(done_at - p->req.arrival);
    }
    if (slo_ != nullptr) slo_->record_latency(t, done_at - p->req.arrival);
    ten.latencies.push_back(done_at - p->req.arrival);
    ten.completion_times.push_back(done_at);
    ++ten.stats.completed;
  }
  --ten.in_flight;
  p->done = true;
  if (p->waiter != sched::kNoTask) sched_.wake(p->waiter);
  if (p->owned) delete p;
}

void RequestServer::execute_batch(std::uint32_t t, Tenant& ten,
                                  std::vector<Pending*>& batch) {
  // Same GC gate as the single path, taken once for the swing: the whole
  // batch executes inside this tenant's un-paused window.
  while (ten.gc_active) {
    const Cycles gate_start = env_.clock.now();
    ten.gc_done.wait();
    ten.stats.gc_gate_wait_cycles += env_.clock.now() - gate_start;
  }
  bool batched = false;
  try {
    // Recovery runs inside the try: a fault during restart drops to the
    // per-request fallback below, which owns the retry budget.
    if (config_.recovery.enabled) ensure_recovered();
    const model::ClassDecl& cls =
        app_.untrusted_context().class_of(ten.state.session.as_ref());
    std::vector<rmi::ProxyRuntime::BatchCall> calls(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Pending& p = *batch[i];
      calls[i].proxy = ten.state.session.as_ref();
      if (p.req.op == RequestOp::kDeposit) {
        calls[i].stub = cls.find_method("updateBalance");
        calls[i].args = {rt::Value(p.req.amount)};
      } else {
        calls[i].stub = cls.find_method("getBalance");
      }
    }
    const std::vector<rmi::ProxyRuntime::BatchOutcome> outcomes =
        app_.rmi().invoke_batch(calls);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending* p = batch[i];
      if (outcomes[i].ok) {
        p->result = outcomes[i].value.type() == rt::ValueType::kI32
                        ? outcomes[i].value.as_i32()
                        : 0;
        maybe_checkpoint(t, ten);
      } else {
        // Per-call application fault, surfaced in-band by the batch
        // dispatcher: fail this request only.
        p->error =
            std::make_exception_ptr(RuntimeFault(outcomes[i].error));
      }
      finish_request(t, ten, p);
    }
    batched = true;
  } catch (const sched::TaskCancelled&) {
    // Teardown: unwind without touching the descriptors (see worker_loop).
    throw;
  } catch (const sgx::EnclaveLostError&) {
  } catch (const rmi::StaleProxyError&) {
  } catch (const sgx::TransitionError&) {
  }
  if (batched) return;
  // The whole batch aborted before any call executed (lost enclave, stale
  // session, transient transition fault — the up-front epoch fence in
  // invoke_batch guarantees no partial execution). Re-run each request
  // through the ordinary retry ladder, which recovers the enclave and
  // applies the per-request backoff budget; with recovery disabled the
  // fault surfaces as each request's error, as in the single path.
  for (Pending* p : batch) {
    try {
      p->result = execute_with_retry(t, ten, *p);
      maybe_checkpoint(t, ten);
    } catch (const sched::TaskCancelled&) {
      throw;
    } catch (...) {
      p->error = std::current_exception();
    }
    finish_request(t, ten, p);
  }
}

std::int64_t RequestServer::execute_with_retry(std::uint32_t t, Tenant& ten,
                                               Pending& p) {
  const RecoveryConfig& rc = config_.recovery;
  auto& u = app_.untrusted_context();
  const Cycles deadline = p.req.arrival + rc.request_deadline_cycles;
  Cycles backoff = rc.initial_backoff_cycles;
  std::uint32_t attempt = 0;
  for (;;) {
    try {
      // Recovery runs inside the try on purpose: a fault during restart
      // or restore consumes this attempt and re-enters the backoff path,
      // instead of escaping the loop mid-recovery.
      if (rc.enabled) ensure_recovered();
      const rt::Value result =
          p.req.op == RequestOp::kDeposit
              ? u.invoke(ten.state.session.as_ref(), "updateBalance",
                         {rt::Value(p.req.amount)})
              : u.invoke(ten.state.session.as_ref(), "getBalance", {});
      return result.type() == rt::ValueType::kI32 ? result.as_i32() : 0;
    } catch (const sgx::EnclaveLostError&) {
      if (!rc.enabled) throw;
    } catch (const rmi::StaleProxyError&) {
      if (!rc.enabled) throw;
    } catch (const sgx::TransitionError&) {
      if (!rc.enabled) throw;
    }
    ++attempt;
    ++ten.stats.retries;
    if (attempt >= rc.max_attempts) {
      throw RetriesExhaustedError(
          "request failed after " + std::to_string(attempt) +
          " attempts (tenant " + std::to_string(t) + ")");
    }
    if (env_.clock.now() + backoff > deadline) {
      throw RetriesExhaustedError(
          "retry backoff would exceed the request deadline (tenant " +
          std::to_string(t) + ", attempt " + std::to_string(attempt) + ")");
    }
    {
      // The retry span covers the backoff sleep: its duration in the
      // trace *is* the wait this attempt added to the request.
      telemetry::SpanScope span(
          env_.telemetry.tracer(), telemetry::Category::kFault,
          env_.telemetry.names().rmi_retry, static_cast<std::int32_t>(t));
      sched_.sleep_for(backoff);
    }
    backoff = std::min(
        static_cast<Cycles>(static_cast<double>(backoff) *
                            rc.backoff_multiplier),
        rc.max_backoff_cycles);
  }
}

void RequestServer::ensure_recovered() {
  // Parked workers re-check on wake: the recovery they waited out may
  // itself have been interrupted by another loss.
  while (recovering_) recovery_done_.wait();
  const bool lost = app_.enclave().state() == sgx::EnclaveState::kLost;
  bool stale = false;
  for (const auto& ten : tenants_) {
    if (ten->state.session_epoch != app_.enclave().epoch()) {
      stale = true;
      break;
    }
  }
  if (!lost && !stale) return;
  recovering_ = true;
  try {
    if (app_.enclave().state() == sgx::EnclaveState::kLost) {
      app_.restart_enclave();
      ++restarts_;
    }
    // Restore only the tenants still behind — resuming a restore that a
    // second fault interrupted picks up where it left off.
    for (std::uint32_t t = 0; t < tenant_count(); ++t) {
      if (tenants_[t]->state.session_epoch != app_.enclave().epoch()) {
        restore_tenant(t);
      }
    }
  } catch (...) {
    recovering_ = false;
    recovery_done_.notify_all();
    throw;
  }
  recovering_ = false;
  recovery_done_.notify_all();
}

void RequestServer::restore_tenant(std::uint32_t t) {
  Tenant& ten = *tenants_[t];
  std::int32_t balance = config_.initial_balance;
  try {
    if (const auto restored =
            ten.state.unseal_checkpoint(sealer_, app_.enclave(), t)) {
      balance = *restored;
      ++ten.stats.restored;
    }
  } catch (const SecurityFault&) {
    // Tampered or spliced blob: refuse it, count it, and fall back to a
    // fresh session — corruption must never fail the whole recovery.
    ++ten.stats.checkpoint_corrupt;
    ten.state.checkpoint.clear();
    balance = config_.initial_balance;
  }
  ten.state.session = app_.construct_in(
      t, "Account",
      {rt::Value("tenant-" + std::to_string(t)), rt::Value(balance)});
  ten.state.session_epoch = app_.enclave().epoch();
}

void RequestServer::maybe_checkpoint(std::uint32_t t, Tenant& ten) {
  const RecoveryConfig& rc = config_.recovery;
  if (!rc.enabled || rc.checkpoint_every == 0) return;
  if (++ten.state.since_checkpoint < rc.checkpoint_every) return;
  ten.state.since_checkpoint = 0;
  try {
    const rt::Value bal = app_.untrusted_context().invoke(
        ten.state.session.as_ref(), "getBalance", {});
    ten.state.seal_checkpoint(sealer_, app_.enclave(), t, bal.as_i32());
    ++ten.stats.checkpoints;
  } catch (const sched::TaskCancelled&) {
    throw;
  } catch (...) {
    // A fault mid-checkpoint loses this checkpoint, not the request: the
    // previous sealed blob stays valid and the next interval retries.
    // The rollback applies even when the balance read (not the seal)
    // faulted — the next successful checkpoint reuses this seq, which is
    // the sequence the pre-TenantState fig_faults runs sealed.
    --ten.state.checkpoint_seq;
  }
}

void RequestServer::attach_fault_injector(faults::FaultInjector& injector) {
  injector.set_blob_corrupter([this](Rng& rng) {
    std::vector<std::uint32_t> with;
    for (std::uint32_t t = 0; t < tenant_count(); ++t) {
      if (tenants_[t]->state.has_checkpoint()) with.push_back(t);
    }
    if (with.empty()) return false;
    std::vector<std::uint8_t>& bytes =
        tenants_[with[rng.next_below(with.size())]]->state.checkpoint;
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    return true;
  });
}

void RequestServer::collect_tenant_async(std::uint32_t tenant_id) {
  MSV_CHECK_MSG(started_, "server not started");
  MSV_CHECK_MSG(tenant_id < tenants_.size(), "no such tenant");
  sched_.spawn("gc-tenant-" + std::to_string(tenant_id), [this, tenant_id] {
    Tenant& ten = *tenants_[tenant_id];
    // One collection of a heap at a time; a second request queues behind
    // the gate like any worker.
    while (ten.gc_active) ten.gc_done.wait();
    // Realized pause window of this tenant (the zero-duration gc.collect
    // phase markers from the detached collection sit inside it).
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kGc,
                              env_.telemetry.names().gc_pause,
                              static_cast<std::int32_t>(tenant_id));
    ten.gc_active = true;
    const Cycles pause_start = env_.clock.now();
    // The collection itself runs on the §5.5 GC helper thread — its own
    // core — so its cycles never advance the shared serving timeline;
    // they are realized as a sleep (pause) of this isolate only.
    const Cycles cost =
        env_.clock.measure_detached([&] { app_.collect_isolate(tenant_id); });
    sched_.sleep_for(cost);
    ten.gc_active = false;
    ++ten.stats.gc_runs;
    ten.stats.gc_pause_cycles += cost;
    ten.gc_windows.emplace_back(pause_start, env_.clock.now());
    ten.gc_done.notify_all();
  });
}

std::size_t RequestServer::pending() const {
  std::size_t n = 0;
  for (const auto& ten : tenants_) n += ten->queue.size() + ten->in_flight;
  return n;
}

const TenantStats& RequestServer::tenant_stats(std::uint32_t t) const {
  return tenant(t).stats;
}

ServerStats RequestServer::stats() const {
  ServerStats s;
  for (const auto& ten : tenants_) {
    s.accepted += ten->stats.accepted;
    s.shed += ten->stats.shed;
    s.completed += ten->stats.completed;
    s.failed += ten->stats.failed;
    s.retries += ten->stats.retries;
  }
  return s;
}

const std::vector<Cycles>& RequestServer::latencies(std::uint32_t t) const {
  return tenant(t).latencies;
}

const std::vector<Cycles>& RequestServer::completion_times(
    std::uint32_t t) const {
  return tenant(t).completion_times;
}

const std::vector<std::pair<Cycles, Cycles>>& RequestServer::gc_windows(
    std::uint32_t t) const {
  return tenant(t).gc_windows;
}

}  // namespace msv::server
