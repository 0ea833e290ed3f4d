#include "sgx/bridge.h"

#include "faults/injector.h"
#include "sched/scheduler.h"
#include "support/error.h"
#include "telemetry/flight.h"

namespace msv::sgx {

TransitionBridge::TransitionBridge(Env& env, Enclave& enclave)
    : env_(env), enclave_(enclave) {
  // Typical interfaces are a few dozen entries (relays + shim + GC);
  // reserving ahead keeps registration from rehashing the interner.
  ids_.reserve(64);
}

CallId TransitionBridge::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<CallId>(slots_.size());
  Slot& slot = slots_.emplace_back();
  slot.name = name;
  ids_.emplace(slot.name, id);
  // Resolve the telemetry identity here, at registration: the transition
  // span carries the call name verbatim and the category from the prefix
  // registry (relays -> rmi, GC helpers -> gc, everything else bridge;
  // msvlint MSV008 flags names the registry would miss).
  telemetry::Category category = telemetry::Category::kBridge;
  (void)telemetry::category_for_call(name, &category);
  slot.span_category = category;
  if (env_.telemetry.tracing_enabled()) {
    slot.span_name = env_.telemetry.tracer().intern(name);
  }
  return id;
}

CallId TransitionBridge::register_raw(const std::string& name,
                                      RawHandler handler, bool is_ecall) {
  const CallId id = intern(name);
  RawHandler& slot = is_ecall ? slots_[id].ecall : slots_[id].ocall;
  MSV_CHECK_MSG(!slot, std::string("duplicate ") +
                           (is_ecall ? "ecall" : "ocall") +
                           " registration: " + name);
  slot = std::move(handler);
  return id;
}

CallId TransitionBridge::register_ecall(const std::string& name,
                                        Handler handler) {
  return register_raw(
      name,
      [h = std::move(handler)](ByteReader& in, ByteBuffer& out) {
        out = h(in);
      },
      /*is_ecall=*/true);
}

CallId TransitionBridge::register_ocall(const std::string& name,
                                        Handler handler) {
  return register_raw(
      name,
      [h = std::move(handler)](ByteReader& in, ByteBuffer& out) {
        out = h(in);
      },
      /*is_ecall=*/false);
}

CallId TransitionBridge::register_ecall_raw(const std::string& name,
                                            RawHandler handler) {
  return register_raw(name, std::move(handler), /*is_ecall=*/true);
}

CallId TransitionBridge::register_ocall_raw(const std::string& name,
                                            RawHandler handler) {
  return register_raw(name, std::move(handler), /*is_ecall=*/false);
}

bool TransitionBridge::has_ecall(const std::string& name) const {
  const auto it = ids_.find(name);
  return it != ids_.end() && static_cast<bool>(slots_[it->second].ecall);
}

bool TransitionBridge::has_ocall(const std::string& name) const {
  const auto it = ids_.find(name);
  return it != ids_.end() && static_cast<bool>(slots_[it->second].ocall);
}

CallId TransitionBridge::find_call(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kNoCallId : it->second;
}

CallId TransitionBridge::ecall_id(const std::string& name) const {
  const CallId id = find_call(name);
  if (id == kNoCallId || !slots_[id].ecall) {
    throw RuntimeFault("no ecall named '" + name + "' in the EDL");
  }
  return id;
}

CallId TransitionBridge::ocall_id(const std::string& name) const {
  const CallId id = find_call(name);
  if (id == kNoCallId || !slots_[id].ocall) {
    throw RuntimeFault("no ocall named '" + name + "' in the EDL");
  }
  return id;
}

const std::string& TransitionBridge::call_name(CallId id) const {
  MSV_CHECK_MSG(id < slots_.size(), "bad call id");
  return slots_[id].name;
}

std::vector<std::string> TransitionBridge::call_names() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const Slot& slot : slots_) names.push_back(slot.name);
  return names;
}

void TransitionBridge::set_switchless(const std::string& name, bool enabled) {
  const CallId id = find_call(name);
  if (id == kNoCallId) {
    throw RuntimeFault("no ecall or ocall named '" + name + "' in the EDL");
  }
  slots_[id].switchless = enabled;
}

void TransitionBridge::set_switchless(CallId id, bool enabled) {
  MSV_CHECK_MSG(id < slots_.size(), "bad call id");
  slots_[id].switchless = enabled;
}

bool TransitionBridge::is_switchless(CallId id) const {
  MSV_CHECK_MSG(id < slots_.size(), "bad call id");
  return slots_[id].switchless;
}

void TransitionBridge::check_ecall_entry(const std::string& name) const {
  if (side() != Side::kUntrusted) {
    throw SecurityFault("ecall '" + name + "' issued from inside the enclave");
  }
  if (enclave_.state() == EnclaveState::kLost) {
    // Typed so the serving layer can distinguish "restart and retry" from
    // a genuine security violation.
    throw EnclaveLostError("ecall '" + name + "' into lost enclave " +
                           enclave_.name() +
                           " (SGX_ERROR_ENCLAVE_LOST); restart required");
  }
  if (enclave_.state() != EnclaveState::kInitialized) {
    throw SecurityFault("ecall into uninitialized enclave " + enclave_.name());
  }
}

void TransitionBridge::ecall(CallId id, const ByteBuffer& request,
                             ByteBuffer& response) {
  MSV_CHECK_MSG(id < slots_.size(), "bad call id");
  check_ecall_entry(slots_[id].name);
  if (!slots_[id].ecall) {
    throw RuntimeFault("no ecall named '" + slots_[id].name + "' in the EDL");
  }
  call(id, request, {}, response, /*is_ecall=*/true);
}

void TransitionBridge::ocall(CallId id, const ByteBuffer& request,
                             ByteBuffer& response, Payload payload) {
  MSV_CHECK_MSG(id < slots_.size(), "bad call id");
  if (side() != Side::kTrusted) {
    throw SecurityFault("ocall '" + slots_[id].name +
                        "' issued from untrusted code");
  }
  if (!slots_[id].ocall) {
    throw RuntimeFault("no ocall named '" + slots_[id].name + "' in the EDL");
  }
  call(id, request, payload, response, /*is_ecall=*/false);
}

TransitionBridge::CallCtx& TransitionBridge::ctx() const {
  if (sched_ != nullptr && sched_->in_task()) {
    return task_ctxs_[sched_->current()];
  }
  return main_ctx_;
}

void TransitionBridge::call(CallId id, const ByteBuffer& request,
                            Payload payload, ByteBuffer& response,
                            bool is_ecall) {
  Slot& slot = slots_[id];

  // Fault window poll: fires every due plan event (pressure windows open/
  // close, transition failures throw). Enclave-loss events are deferred to
  // the mid-ecall poll in execute_call.
  if (injector_ != nullptr) injector_->on_transition_start();

  // Flight ring (DESIGN.md §16): every transition leaves a breadcrumb in
  // the enclave's bounded ring so a post-mortem shows what crossed the
  // boundary right before a loss. Disarmed = one pointer test.
  if (telemetry::FlightBus* bus = env_.telemetry.flight()) {
    if (flight_rec_ == nullptr) {
      flight_rec_ = &bus->recorder(enclave_.name());
    }
    flight_rec_->record(
        telemetry::FlightEventKind::kBridge, slot.name,
        static_cast<std::int64_t>(request.size() + payload.size()),
        is_ecall ? 1 : 0);
  }

  // Transition span: covers handshake, TCS acquisition, copies and the
  // handler — including the parked wait on the ring path (the span lives
  // on the calling task's stack, so it brackets the whole round trip).
  telemetry::Tracer& tracer = env_.telemetry.tracer();
  if (tracer.enabled(slot.span_category) &&
      slot.span_name == telemetry::Tracer::kNoIndex) {
    // Tracing was switched on after this call was registered.
    slot.span_name = tracer.intern(slot.name);
  }
  telemetry::SpanScope span(tracer, slot.span_category, slot.span_name);

  if (slot.switchless) {
    // Ring path: with workers running and a task to park, the request is
    // queued to a persistent worker on the other side. Otherwise — the
    // single-caller shape — the handshake plus inline execution models
    // the dedicated worker responding instantly, with identical charges.
    SwitchlessRing* ring = is_ecall ? ecall_ring_.get() : ocall_ring_.get();
    if (workers_running_ && ring != nullptr && sched_ != nullptr &&
        sched_->in_task()) {
      call_via_ring(*ring, id, request, payload, response);
      return;
    }
    env_.clock.advance(env_.cost.switchless_call_cycles);
    slot.stats.transition_cycles += env_.cost.switchless_call_cycles;
    execute_call(slot, request, payload, response, is_ecall,
                 /*switchless=*/true);
    return;
  }

  if (is_ecall) {
    // EENTER binds a TCS for the whole ecall — held across nested ocalls,
    // which re-enter through the same one; a nested ecall from an ocall
    // handler takes a second slot, as on hardware. A free slot costs zero
    // cycles (the binding is part of the EENTER cost below), so the
    // uncontended path is cycle-identical to the pre-pool bridge.
    TcsPool& tcs = enclave_.tcs();
    tcs.acquire();
    try {
      charge_transition(env_.cost.ecall_cycles);
      slot.stats.transition_cycles += env_.cost.ecall_cycles;
      execute_call(slot, request, payload, response, /*is_ecall=*/true,
                   /*switchless=*/false);
    } catch (...) {
      tcs.release();
      throw;
    }
    tcs.release();
    return;
  }

  charge_transition(env_.cost.ocall_cycles);
  slot.stats.transition_cycles += env_.cost.ocall_cycles;
  execute_call(slot, request, payload, response, /*is_ecall=*/false,
               /*switchless=*/false);
}

// Charges a hardware transition window. Outside tasks this advances the
// shared clock — the pre-scheduler behaviour, cycle-exact with the seed.
// Inside a task the EENTER/EEXIT microcode spin occupies only the calling
// thread's core, so it is realized as a sleep on the scheduler: work of
// other tasks overlaps the window, and a TCS held across it is genuinely
// contended — which is what makes slot starvation observable under load
// (DESIGN.md §8). For a lone task the sleep advances the clock by exactly
// the same cycles, so single-caller totals are unchanged.
void TransitionBridge::charge_transition(Cycles cycles) {
  if (sched_ != nullptr && sched_->in_task()) {
    sched_->sleep_for(cycles);
  } else {
    env_.clock.advance(cycles);
  }
}

void TransitionBridge::execute_call(Slot& slot, const ByteBuffer& request,
                                    Payload payload, ByteBuffer& response,
                                    bool is_ecall, bool switchless) {
  if (switchless) ++stats_.switchless_calls;
  env_.clock.advance(env_.cost.edge_call_cycles);
  slot.stats.transition_cycles += env_.cost.edge_call_cycles;

  // Request marshalling: the bridge copies the request and its out-of-line
  // payload across the boundary (into the enclave for ecalls, out of it
  // for ocalls). The payload's copy is charged as if it were appended to
  // the request; the handler then reads the caller's buffer in place.
  const std::size_t request_bytes = request.size() + payload.size();
  env_.clock.advance(static_cast<Cycles>(static_cast<double>(request_bytes) *
                                         env_.cost.edge_copy_cycles_per_byte));

  if (is_ecall) {
    ++stats_.ecalls;
    stats_.bytes_in += request_bytes;
  } else {
    ++stats_.ocalls;
    stats_.bytes_out += request_bytes;
  }
  ++slot.stats.calls;
  slot.stats.bytes_in += request_bytes;

  // Mid-ecall fault poll: the payload is inside, the TCS is bound, the
  // handler is about to run — the point where SGX_ERROR_ENCLAVE_LOST
  // bites. A thrown loss unwinds through the TCS release in call().
  if (is_ecall && injector_ != nullptr) injector_->on_ecall_entry();

  // Per-task call context: stable reference (node-based map), valid even
  // if the handler suspends and other tasks create contexts meanwhile.
  CallCtx& c = ctx();
  c.frames.push_back(
      {is_ecall ? Side::kTrusted : Side::kUntrusted, switchless, payload});
  response.clear();
  try {
    ByteReader reader(request);
    (is_ecall ? slot.ecall : slot.ocall)(reader, response);
  } catch (...) {
    c.frames.pop_back();
    throw;
  }
  c.frames.pop_back();

  // Response marshalling back to the caller.
  env_.clock.advance(static_cast<Cycles>(static_cast<double>(response.size()) *
                                         env_.cost.edge_copy_cycles_per_byte));
  if (is_ecall) {
    stats_.bytes_out += response.size();
  } else {
    stats_.bytes_in += response.size();
  }
  slot.stats.bytes_out += response.size();
}

void TransitionBridge::call_via_ring(SwitchlessRing& ring, CallId id,
                                     const ByteBuffer& request,
                                     Payload payload, ByteBuffer& response) {
  // Caller half of the handshake: write the descriptor, signal, park.
  env_.clock.advance(env_.cost.switchless_call_cycles);
  slots_[id].stats.transition_cycles += env_.cost.switchless_call_cycles;
  telemetry::Tracer& tracer = env_.telemetry.tracer();
  SwitchlessRing::Request r;
  r.call_id = id;
  r.request = &request;
  r.payload = payload;
  r.response = &response;
  r.caller = sched_->current();
  // The descriptor carries the caller's trace context across the ring so
  // the worker's service span joins this call's tree (one causal RMI).
  if (env_.telemetry.tracing_enabled()) r.trace = tracer.current_context();
  {
    // Ring-hop span: enqueue through completion, i.e. queue wait plus
    // service time as seen from the calling task.
    telemetry::SpanScope hop(tracer, telemetry::Category::kSwitchless,
                             env_.telemetry.names().swl_ring);
    ring.push(&r);
    try {
      while (!r.done) sched_->suspend();
    } catch (...) {
      // Cancelled while parked: withdraw the stack descriptor. If a worker
      // already popped it, the worker is on the same cancelled timeline and
      // unwinds without ever touching it again.
      ring.withdraw(&r);
      throw;
    }
  }
  if (r.error != nullptr) std::rethrow_exception(r.error);
}

void TransitionBridge::run_switchless_worker(SwitchlessRing& ring,
                                             bool is_ecall_ring) {
  for (;;) {
    if (ring.empty()) {
      if (workers_stop_) return;
      ring.wait_for_work();
      continue;
    }
    SwitchlessRing::Request* r = ring.pop();
    if (r == nullptr) continue;
    Slot& slot = slots_[r->call_id];
    try {
      // Service span, adopted under the caller's context carried in the
      // descriptor: the worker task's work renders inside the caller's
      // call tree, not as a disconnected root.
      telemetry::AdoptedSpanScope serve(env_.telemetry.tracer(), r->trace,
                                        telemetry::Category::kSwitchless,
                                        env_.telemetry.names().swl_serve);
      // The worker runs in its own call context: baseline untrusted, so
      // an ecall-ring worker pushing kTrusted mirrors the persistent
      // in-enclave thread executing the request.
      execute_call(slot, *r->request, r->payload, *r->response,
                   is_ecall_ring, /*switchless=*/true);
    } catch (const sched::TaskCancelled&) {
      // Teardown: the descriptor's owner may already be unwound — exit
      // without touching it.
      throw;
    } catch (...) {
      r->error = std::current_exception();
    }
    r->done = true;
    sched_->wake(r->caller);
  }
}

void TransitionBridge::attach_scheduler(sched::Scheduler& sched) {
  sched_ = &sched;
  enclave_.tcs().attach_scheduler(&sched);
}

void TransitionBridge::start_switchless_workers(
    const SwitchlessConfig& ecall_ring, const SwitchlessConfig& ocall_ring) {
  MSV_CHECK_MSG(sched_ != nullptr,
                "start_switchless_workers needs an attached scheduler");
  MSV_CHECK_MSG(!workers_running_, "switchless workers already running");
  workers_stop_ = false;
  ecall_ring_ = std::make_unique<SwitchlessRing>(env_, *sched_, ecall_ring);
  ocall_ring_ = std::make_unique<SwitchlessRing>(env_, *sched_, ocall_ring);
  for (std::uint32_t i = 0; i < ecall_ring.workers; ++i) {
    sched_->spawn_daemon(
        "swl-ecall-worker-" + std::to_string(i),
        [this] { run_switchless_worker(*ecall_ring_, /*is_ecall_ring=*/true); });
  }
  for (std::uint32_t i = 0; i < ocall_ring.workers; ++i) {
    sched_->spawn_daemon(
        "swl-ocall-worker-" + std::to_string(i),
        [this] { run_switchless_worker(*ocall_ring_, /*is_ecall_ring=*/false); });
  }
  workers_running_ = true;
}

void TransitionBridge::stop_switchless_workers() {
  if (!workers_running_) return;
  MSV_CHECK_MSG(!sched_->in_task(),
                "stop_switchless_workers from inside a task");
  workers_stop_ = true;
  ecall_ring_->shutdown_kick();
  ocall_ring_->shutdown_kick();
  // Workers are daemons: this drains any queued requests and retires them.
  sched_->run();
  // Fold the retired rings' stats into the persistent accumulators, then
  // drop the rings so switchless calls fall back to the inline path.
  for (const SwitchlessRing* ring : {ecall_ring_.get(), ocall_ring_.get()}) {
    const SwitchlessRingStats& s = ring->stats();
    ring_accum_.enqueued += s.enqueued;
    ring_accum_.served += s.served;
    ring_accum_.queue_wait_cycles += s.queue_wait_cycles;
    ring_accum_.worker_wakeups += s.worker_wakeups;
    ring_accum_.idle_spin_cycles += s.idle_spin_cycles;
    ring_accum_.wake_charge_cycles += s.wake_charge_cycles;
    ring_accum_.full_stalls += s.full_stalls;
  }
  ecall_ring_.reset();
  ocall_ring_.reset();
  workers_running_ = false;
  workers_stop_ = false;
}

const SwitchlessRingStats* TransitionBridge::ecall_ring_stats() const {
  return ecall_ring_ == nullptr ? nullptr : &ecall_ring_->stats();
}

const SwitchlessRingStats* TransitionBridge::ocall_ring_stats() const {
  return ocall_ring_ == nullptr ? nullptr : &ocall_ring_->stats();
}

const BridgeStats& TransitionBridge::stats() const {
  const TcsStats& t = enclave_.tcs().stats();
  stats_.tcs_waits = t.waits;
  stats_.tcs_wait_cycles = t.wait_cycles;
  stats_.out_of_tcs_errors = t.out_of_tcs_failures;
  SwitchlessRingStats merged = ring_accum_;
  for (const SwitchlessRing* ring : {ecall_ring_.get(), ocall_ring_.get()}) {
    if (ring == nullptr) continue;
    const SwitchlessRingStats& s = ring->stats();
    merged.enqueued += s.enqueued;
    merged.queue_wait_cycles += s.queue_wait_cycles;
    merged.worker_wakeups += s.worker_wakeups;
    merged.idle_spin_cycles += s.idle_spin_cycles;
    merged.wake_charge_cycles += s.wake_charge_cycles;
  }
  stats_.switchless_enqueued = merged.enqueued;
  stats_.switchless_queue_wait_cycles = merged.queue_wait_cycles;
  stats_.switchless_worker_wakeups = merged.worker_wakeups;
  stats_.switchless_idle_spin_cycles = merged.idle_spin_cycles;
  stats_.switchless_wake_charge_cycles = merged.wake_charge_cycles;
  stats_.per_call.clear();
  for (CallId id = 0; id < slots_.size(); ++id) {
    const CallStats& s = slots_[id].stats;
    if (s.calls != 0) stats_.per_call.emplace(slots_[id].name, s);
  }
  return stats_;
}

}  // namespace msv::sgx
