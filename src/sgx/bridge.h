// ecall/ocall transition machinery (§2.1, §5.4).
//
// The bridge is the runtime counterpart of the Edger8r-generated edge
// routines: named ecall handlers live on the trusted side, named ocall
// handlers on the untrusted side, and every call marshals a byte payload
// across the boundary while charging the hardware transition cost, the
// bridge dispatch cost and a per-byte copy cost to the virtual clock.
//
// An ocall may also pass one buffer out of line, the way Edger8r passes an
// `[in, size=len]` pointer parameter: the bridge charges, counts and
// records it exactly as if it were appended to the marshalled request,
// and the handler reads it in place (current_payload()). The copy is
// charged but never made, so a large write holds one host copy of its
// bytes instead of two.
//
// Re-entrancy follows the SGX programming model: ecalls may only be issued
// from untrusted code, ocalls only from trusted code, and an ocall handler
// may issue nested ecalls (the SDK's "nested calls"), which a stack of
// handler frames tracks.
//
// The bridge also implements the paper's first future-work item (§7):
// switchless calls in the style of HotCalls / the SDK's switchless mode. A
// call marked switchless is serviced by a worker thread on the other side
// through a shared-memory request queue, replacing the 13k-cycle hardware
// transition with a much cheaper handshake.
//
// Dispatch works on interned call IDs: registration assigns every call
// name a dense uint32_t, and handlers, switchless flags and per-call stats
// live in one flat table indexed by that ID — no string hashing or tree
// walks per call. The real Edger8r does the same thing: generated stubs
// invoke sgx_ecall(eid, ordinal, ...) with the function's table index,
// never its name. Callers resolve a name to its ID once (ecall_id /
// ocall_id), at registration or set-up time.
//
// The bridge keeps one copy of each name, in the call's slot. A call's
// transition span takes the name verbatim, but the tracer interns it only
// when spans are recorded: at registration when a full-mode tracer
// exists, otherwise at the first traced call, so a launch with tracing off
// interns nothing and a tracer configured later still names every span.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sgx/enclave.h"
#include "sgx/tcs.h"
#include "sim/env.h"
#include "support/bytes.h"

namespace msv::sched {
class Scheduler;
}

namespace msv::faults {
class FaultInjector;
}

namespace msv::telemetry {
class FlightRecorder;  // telemetry/flight.h
}

namespace msv::sgx {

// Dense index assigned at registration; the ordinal of the Edger8r table.
using CallId = std::uint32_t;
inline constexpr CallId kNoCallId = 0xffffffffu;

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  // Measured bridge overhead charged by this call itself: the hardware
  // transition (or switchless handshake) plus edge dispatch. Exclusive by
  // construction — a nested ocall issued from inside an ecall handler
  // charges its *own* slot, never the parent's — which is what lets the
  // profiler report per-call overhead without double counting
  // (sgx/profiler.h).
  Cycles transition_cycles = 0;
};

struct BridgeStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t switchless_calls = 0;
  std::uint64_t bytes_in = 0;   // payload bytes copied into the enclave
  std::uint64_t bytes_out = 0;  // payload bytes copied out of the enclave
  // ---- Serving layer (merged from TcsPool / SwitchlessRing on access) ----
  std::uint64_t tcs_waits = 0;            // ecalls that queued for a TCS
  Cycles tcs_wait_cycles = 0;             // total TCS queueing delay
  std::uint64_t out_of_tcs_errors = 0;
  std::uint64_t switchless_enqueued = 0;  // calls that went through a ring
  Cycles switchless_queue_wait_cycles = 0;
  std::uint64_t switchless_worker_wakeups = 0;
  Cycles switchless_idle_spin_cycles = 0;  // busy-wait workers, idle core
  Cycles switchless_wake_charge_cycles = 0;  // sleep/wake workers
  // Name-keyed view, rebuilt from the flat per-ID table on access (the
  // table itself is ID-indexed; names only matter for reporting).
  std::map<std::string, CallStats> per_call;
};

// An out-of-line call buffer, read in place by the handler.
using Payload = std::span<const std::uint8_t>;

class TransitionBridge {
 public:
  // A handler consumes the marshalled request and produces the marshalled
  // response. Handlers run on the side that registered them.
  using Handler = std::function<ByteBuffer(ByteReader&)>;
  // Hot-path variant: writes the response into a caller-provided buffer
  // (normally arena-backed) instead of returning a fresh allocation.
  using RawHandler = std::function<void(ByteReader&, ByteBuffer&)>;

  TransitionBridge(Env& env, Enclave& enclave);

  TransitionBridge(const TransitionBridge&) = delete;
  TransitionBridge& operator=(const TransitionBridge&) = delete;

  // Registers the handler of one EDL function and returns the interned ID
  // callers dispatch by; IDs follow registration order. The runtimes that
  // own a part of the interface (the shim, the RMI runtime and its GC
  // helper, the unpartitioned app's entry points) register raw handlers;
  // the Handler form adds one wrapper and serves tests.
  CallId register_ecall(const std::string& name, Handler handler);
  CallId register_ocall(const std::string& name, Handler handler);
  CallId register_ecall_raw(const std::string& name, RawHandler handler);
  CallId register_ocall_raw(const std::string& name, RawHandler handler);
  bool has_ecall(const std::string& name) const;
  bool has_ocall(const std::string& name) const;

  // Interner lookups. find_call returns kNoCallId for unknown names;
  // ecall_id/ocall_id additionally require a registered handler and throw
  // RuntimeFault otherwise.
  CallId find_call(const std::string& name) const;
  CallId ecall_id(const std::string& name) const;
  CallId ocall_id(const std::string& name) const;
  const std::string& call_name(CallId id) const;
  // Every interned call name, indexed by CallId (registration order).
  std::vector<std::string> call_names() const;

  // Invokes trusted function `id`. Must be called from the untrusted
  // side; throws SecurityFault otherwise (the hardware would fault). The
  // response is written into `response` (cleared first).
  void ecall(CallId id, const ByteBuffer& request, ByteBuffer& response);
  // Invokes untrusted function `id` from inside the enclave. `payload` is
  // the call's out-of-line buffer (empty when it has none).
  void ocall(CallId id, const ByteBuffer& request, ByteBuffer& response,
             Payload payload = {});

  // Marks registered call `name` (ecall or ocall) as switchless:
  // subsequent invocations pay the worker-handshake cost instead of a
  // hardware transition. Throws RuntimeFault for an unknown name.
  void set_switchless(const std::string& name, bool enabled);
  void set_switchless(CallId id, bool enabled);
  bool is_switchless(CallId id) const;

  // ---- Serving layer (DESIGN.md §8) ----
  // Attaching a scheduler turns on concurrency-aware behaviour: call
  // side/switchless stacks become per-task, TCS exhaustion can park the
  // calling task, and switchless rings can be started. Single-task
  // programs behave exactly as without a scheduler.
  void attach_scheduler(sched::Scheduler& sched);
  sched::Scheduler* scheduler() { return sched_; }

  // ---- Fault injection (DESIGN.md §12) ----
  // Attaches a (pre-armed) fault injector: every transition polls it for
  // due events, and an ecall polls again right before the trusted handler
  // runs so enclave-loss events surface mid-ecall. nullptr detaches.
  // Without an injector the only added cost is one pointer test per call
  // — cycle totals are byte-identical to the uninstrumented bridge.
  void attach_fault_injector(faults::FaultInjector* injector) {
    injector_ = injector;
  }
  faults::FaultInjector* fault_injector() { return injector_; }

  // Spawns persistent daemon worker tasks servicing per-direction request
  // rings; switchless-marked calls issued from tasks are then enqueued and
  // executed by a worker instead of inline. Requires an attached
  // scheduler. For a single caller the cycle total of a ring call is
  // identical to the inline switchless path (the honesty contract that
  // bench/abl_switchless asserts).
  void start_switchless_workers(const SwitchlessConfig& ecall_ring,
                                const SwitchlessConfig& ocall_ring);
  // Signals workers to drain and exit, then runs the scheduler until they
  // are gone. Must be called from outside tasks. Idempotent.
  void stop_switchless_workers();
  bool switchless_workers_running() const { return workers_running_; }
  const SwitchlessRingStats* ecall_ring_stats() const;
  const SwitchlessRingStats* ocall_ring_stats() const;

  Side side() const { return ctx().frames.back().side; }
  // True while executing a handler that was invoked switchlessly (the
  // serving worker thread is persistent and stays attached to its isolate;
  // relay dispatch uses this to skip the attach cost).
  bool current_call_switchless() const {
    return ctx().frames.back().switchless;
  }
  // The out-of-line payload of the call whose handler is running; empty
  // outside handlers and for calls that pass none.
  Payload current_payload() const { return ctx().frames.back().payload; }
  const BridgeStats& stats() const;
  Enclave& enclave() { return enclave_; }

 private:
  // One row of the flat dispatch table. ecall and ocall handlers share the
  // interner namespace but not the slot fields (names are disjoint in
  // practice; a name registered on both sides simply fills both).
  struct Slot {
    std::string name;  // the bridge's one copy; ids_ keys view it
    RawHandler ecall;
    RawHandler ocall;
    bool switchless = false;
    CallStats stats;
    // Telemetry: category resolved once, at registration
    // (telemetry::category_for_call); the span name interned once, when
    // spans are first recorded (kNoIndex until then), so tracing costs the
    // hot path nothing beyond the enabled() branch.
    std::uint32_t span_name = telemetry::Tracer::kNoIndex;
    telemetry::Category span_category = telemetry::Category::kBridge;
  };

  // Call context: the handler frames of one logical thread, innermost
  // last, above a base frame for untrusted code outside any call. With a
  // scheduler attached each task gets its own (task A can sit inside an
  // ecall handler while task B is still untrusted); code running outside
  // any task uses the main context, exactly the pre-scheduler behaviour.
  struct Frame {
    Side side = Side::kUntrusted;
    bool switchless = false;
    Payload payload;
  };
  struct CallCtx {
    std::vector<Frame> frames{Frame{}};
  };

  CallId intern(const std::string& name);
  CallId register_raw(const std::string& name, RawHandler handler,
                      bool is_ecall);
  void check_ecall_entry(const std::string& name) const;
  void call(CallId id, const ByteBuffer& request, Payload payload,
            ByteBuffer& response, bool is_ecall);
  // Hardware transition cost: advance outside tasks, sleep inside them
  // (the spin occupies the caller's core, not the shared timeline).
  void charge_transition(Cycles cycles);
  // The post-handshake portion of a call: edge dispatch, copies, handler,
  // shared between the inline path and the ring workers.
  void execute_call(Slot& slot, const ByteBuffer& request, Payload payload,
                    ByteBuffer& response, bool is_ecall, bool switchless);
  void call_via_ring(SwitchlessRing& ring, CallId id,
                     const ByteBuffer& request, Payload payload,
                     ByteBuffer& response);
  void run_switchless_worker(SwitchlessRing& ring, bool is_ecall_ring);
  CallCtx& ctx() const;

  Env& env_;
  Enclave& enclave_;
  // Deque: slots, and so the names ids_ views, stay put when calls are
  // registered (a handler may register new calls).
  std::deque<Slot> slots_;
  std::unordered_map<std::string_view, CallId> ids_;
  mutable CallCtx main_ctx_;
  // Ordered map: deterministic, and entries are created per live task.
  mutable std::map<std::uint64_t, CallCtx> task_ctxs_;
  sched::Scheduler* sched_ = nullptr;
  faults::FaultInjector* injector_ = nullptr;
  // Flight-recorder ring for this enclave, resolved lazily on the first
  // call with a bus armed (telemetry.flight()); nullptr otherwise, so the
  // disarmed cost is one pointer test per transition.
  telemetry::FlightRecorder* flight_rec_ = nullptr;
  std::unique_ptr<SwitchlessRing> ecall_ring_;
  std::unique_ptr<SwitchlessRing> ocall_ring_;
  bool workers_running_ = false;
  bool workers_stop_ = false;
  // Stats of rings already torn down, folded in stop_switchless_workers.
  SwitchlessRingStats ring_accum_;
  mutable BridgeStats stats_;
};

}  // namespace msv::sgx
