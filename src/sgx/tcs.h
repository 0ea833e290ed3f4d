// TCS slot pool and switchless request rings (serving layer, DESIGN.md §8).
//
// Every non-switchless ecall enters the enclave through a Thread Control
// Structure, and an enclave has a fixed number of them (the TCSNum of the
// SDK's enclave configuration XML). A thread holds its TCS for the whole
// ecall — across nested ocalls, which re-enter through the *same* TCS —
// so concurrent callers beyond the slot count must either wait for a slot
// or fail with SGX_ERROR_OUT_OF_TCS, per configuration. Switchless calls
// never consume a TCS: the persistent worker inside the enclave already
// holds one.
//
// SwitchlessRing models the HotCalls / SDK-switchless shared-memory queue
// for one direction (ecall requests or ocall requests): callers enqueue a
// request descriptor and park; persistent worker tasks dequeue and execute
// the handler. Workers either busy-wait on the ring (zero wake latency,
// a core burned while idle) or sleep and pay a futex-wake cost per
// wakeup — the two policies the SDK exposes.
//
// Both structures are passive bookkeeping over the simulated scheduler
// (src/sched): with no scheduler attached the pool degrades to the
// single-caller semantics of the seed (a free slot costs zero cycles, so
// cycle totals are unchanged), and the rings stay inactive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/env.h"
#include "support/bytes.h"
#include "support/error.h"

namespace msv::sched {
class Scheduler;
}

namespace msv::sgx {

// The SGX_ERROR_OUT_OF_TCS analog: every TCS is busy and the pool is
// configured to fail rather than queue the caller.
class OutOfTcsError : public RuntimeFault {
 public:
  explicit OutOfTcsError(const std::string& what) : RuntimeFault(what) {}
};

struct TcsConfig {
  // TCSNum: number of threads that can be inside the enclave at once.
  // The SDK default template uses 10; 8 matches one slot per vCPU on the
  // paper's testbed.
  std::uint32_t slots = 8;
  enum class OnExhaustion : std::uint8_t {
    kBlock,  // queue the calling task FIFO until a slot frees
    kFail,   // throw OutOfTcsError (SGX_ERROR_OUT_OF_TCS)
  };
  OnExhaustion on_exhaustion = OnExhaustion::kBlock;
};

struct TcsStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t waits = 0;            // acquisitions that had to queue
  Cycles wait_cycles = 0;             // total queueing delay
  std::uint64_t out_of_tcs_failures = 0;
  std::uint32_t max_in_use = 0;
  std::size_t max_waiters = 0;
};

// FIFO pool of TCS slots. Zero-cycle when a slot is free — the TCS binding
// itself is part of the EENTER cost already charged by the bridge — so the
// uncontended path is cycle-identical to the pre-pool bridge.
class TcsPool {
 public:
  TcsPool(Env& env, TcsConfig config);

  TcsPool(const TcsPool&) = delete;
  TcsPool& operator=(const TcsPool&) = delete;

  // Reconfiguration is only legal while no call is in flight.
  void configure(const TcsConfig& config);
  // Blocking on exhaustion requires a scheduler (a task to park).
  void attach_scheduler(sched::Scheduler* sched) { sched_ = sched; }

  // Takes a slot for the calling task, queueing or throwing on exhaustion
  // as configured. Callers without a scheduler task context cannot queue
  // and always get OutOfTcsError when the pool is exhausted.
  void acquire();
  void release();

  // Withholds `target` slots from callers — external pressure (another
  // workload's threads squatting in the enclave) for fault-injection
  // bursts. Free slots are seized immediately; the remainder is taken as
  // in-flight calls release. At least one slot always stays available.
  // 0 returns every seized slot (queued waiters are granted first).
  void set_seized(std::uint32_t target);
  std::uint32_t seized() const { return seized_held_; }

  const TcsConfig& config() const { return config_; }
  std::uint32_t slots() const { return config_.slots; }
  std::uint32_t in_use() const { return in_use_; }
  const TcsStats& stats() const { return stats_; }

 private:
  // Routes one newly-free slot: pending seizure first, then the first
  // queued waiter, else back to the pool.
  void slot_freed();

  Env& env_;
  TcsConfig config_;
  sched::Scheduler* sched_ = nullptr;
  std::uint32_t in_use_ = 0;
  std::uint32_t seized_target_ = 0;
  std::uint32_t seized_held_ = 0;
  std::deque<std::uint64_t> waiters_;   // TaskId, FIFO
  std::vector<std::uint64_t> granted_;  // slots handed off, not yet claimed
  TcsStats stats_;
};

struct SwitchlessConfig {
  enum class WakePolicy : std::uint8_t {
    kBusyWait,   // worker spins on the ring: no wake cost, core burned idle
    kSleepWake,  // worker parks when empty; enqueue pays a futex wake
  };
  WakePolicy policy = WakePolicy::kBusyWait;
  std::uint32_t workers = 1;
  std::size_t ring_capacity = 64;  // enqueues beyond this stall the caller
};

struct SwitchlessRingStats {
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  Cycles queue_wait_cycles = 0;   // enqueue -> worker pickup
  std::uint64_t worker_wakeups = 0;
  Cycles idle_spin_cycles = 0;    // kBusyWait: idle cycles on the worker core
  Cycles wake_charge_cycles = 0;  // kSleepWake: futex wakes charged
  std::uint64_t full_stalls = 0;  // enqueues that waited for ring space
  std::size_t max_depth = 0;
};

// One direction of the switchless shared-memory queue. The ring holds
// pointers to caller-stack request descriptors (the real implementation
// passes untrusted-memory descriptors the same way); completion is
// signalled through the descriptor plus a task wake.
class SwitchlessRing {
 public:
  struct Request {
    std::uint32_t call_id = 0;  // CallId; kept as raw int to avoid a cycle
    const ByteBuffer* request = nullptr;
    // The call's out-of-line payload (sgx::Payload), passed by reference
    // like the request: the caller's buffer outlives the descriptor.
    std::span<const std::uint8_t> payload;
    ByteBuffer* response = nullptr;
    Cycles enqueued_at = 0;
    std::uint64_t caller = 0;  // TaskId to wake on completion
    // Caller's trace context: lets the worker's service span join the
    // caller's span tree across the task boundary (DESIGN.md §10).
    telemetry::TraceContext trace;
    bool done = false;
    std::exception_ptr error;
  };

  SwitchlessRing(Env& env, sched::Scheduler& sched, SwitchlessConfig config);
  ~SwitchlessRing();

  SwitchlessRing(const SwitchlessRing&) = delete;
  SwitchlessRing& operator=(const SwitchlessRing&) = delete;

  const SwitchlessConfig& config() const { return config_; }

  // Caller side: blocks while the ring is full, then enqueues and wakes a
  // worker. The descriptor must stay alive until done.
  void push(Request* r);

  // Worker side: nullptr when empty.
  Request* pop();
  // Parks the worker until push() signals; counts the wakeup and applies
  // the policy cost (idle-spin attribution or futex-wake charge). A wake
  // that finds the ring still empty — another worker won the race, or a
  // shutdown kick — is neither counted nor charged.
  void wait_for_work();
  // Wakes every parked worker so it can observe a stop flag and drain.
  void shutdown_kick();
  // Removes a still-queued descriptor (cancellation unwinding). Returns
  // false when a worker already took it.
  bool withdraw(Request* r);

  bool empty() const { return queue_.empty(); }
  std::size_t depth() const { return queue_.size(); }
  const SwitchlessRingStats& stats() const { return stats_; }

 private:
  Env& env_;
  sched::Scheduler& sched_;
  SwitchlessConfig config_;
  std::deque<Request*> queue_;
  // WaitQueue is declared in sched/scheduler.h; stored by pointer to keep
  // this header free of the scheduler's internals.
  struct Waiters;
  std::unique_ptr<Waiters> waiters_;
  SwitchlessRingStats stats_;
};

}  // namespace msv::sgx
