// Deterministic discrete-event scheduler over the simulated clock.
//
// The serving layer needs *concurrent* callers — tenants contending for
// TCS slots, switchless worker threads, GC helpers — but the simulation
// must stay bit-for-bit reproducible, so no real threads are involved.
// Instead tasks are stackful cooperative fibers multiplexed onto the one
// simulated CPU:
//
//   - All cycle charges (env.clock.advance) performed by the running task
//     serialize on the single VirtualClock, exactly as before. Scheduling
//     itself charges zero cycles; concurrency is visible only at explicit
//     suspension points (yield / sleep / join / blocking waits inside the
//     bridge).
//   - The run loop is deterministic: ready tasks resume in FIFO order,
//     sleepers wake at exact deadlines (ties broken by sleep order), and
//     when every task is parked the clock jumps to the next deadline.
//     Given the same program and seed, two runs interleave identically.
//   - Fibers are ucontext-based so a task can suspend from arbitrarily
//     deep inside plain call stacks — which is where blocking actually
//     happens (TcsPool::acquire under TransitionBridge::call). C++20
//     coroutines cannot do that without colouring every frame in between.
//
// Determinism contract (DESIGN.md §8): no wall-clock, no real threads, no
// address-dependent ordering; every queue in this file is FIFO and every
// tie-break uses a monotonic sequence number.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/env.h"

namespace msv::telemetry {
class SampleProfiler;  // telemetry/sampler.h
}

namespace msv::sched {

using TaskId = std::uint64_t;
inline constexpr TaskId kNoTask = 0;

// Thrown *into* a task (from its current suspension point) when the
// scheduler tears it down (cancel_all / destructor), so fiber stacks
// unwind and run their destructors instead of leaking. Deliberately not
// derived from Error: cancellation is control flow, not a fault, and
// `catch (const msv::Error&)` handlers in task code must not swallow it.
struct TaskCancelled {};

struct SchedulerStats {
  std::uint64_t spawned = 0;
  std::uint64_t completed = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  // Cycles the run loop advanced the clock because every task was asleep
  // (simulated idle time of the serving CPU).
  Cycles idle_advanced_cycles = 0;
};

class Scheduler {
 public:
  struct Config {
    // Per-fiber stack. Interpreter recursion across nested RMI relays can
    // go deep; 256 KiB matches the SGX stack ballpark and is plenty. The
    // stack is mapped when the fiber first runs, committed page by page as
    // it is touched, and sits above a PROT_NONE guard page, so an
    // overflow faults instead of writing into a neighbouring allocation.
    std::size_t stack_bytes = 256 * 1024;
  };

  explicit Scheduler(Env& env) : Scheduler(env, Config{}) {}
  Scheduler(Env& env, Config config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a task in the ready queue. `name` shows up in deadlock
  // reports and profiling; it need not be unique. Tasks run only inside
  // run().
  TaskId spawn(std::string name, std::function<void()> fn);

  // Daemon tasks (switchless workers, server worker pools) do not keep
  // run() alive: the loop exits when no non-daemon task is runnable or
  // sleeping, regardless of parked daemons.
  TaskId spawn_daemon(std::string name, std::function<void()> fn);

  // Runs tasks until every non-daemon task has finished. Rethrows the
  // first exception that escapes a task (remaining tasks stay parked and
  // are cancelled on destruction). Throws RuntimeFault when all live
  // non-daemon tasks are blocked with no sleeper to advance time to —
  // a genuine deadlock in the simulated program.
  void run();

  // ---- Task-side primitives (callable only from inside a task) ----
  void yield();                      // back of the ready queue
  void sleep_until(Cycles deadline); // absolute simulated instant
  void sleep_for(Cycles cycles);
  void join(TaskId id);              // block until `id` finishes
  // Parks the current task until some other task calls wake() on it.
  // A wake that arrives while the task is still running is latched and
  // consumes the next suspend()/sleep — the lost-wakeup pattern.
  void suspend();

  // ---- Callable from anywhere ----
  // Makes `id` runnable: unblocks a suspend, cuts a sleep short, or — if
  // the task is currently running or already ready — latches a pending
  // wake. No-op on finished/unknown tasks.
  void wake(TaskId id);

  // Cancels every unfinished task by resuming it once with TaskCancelled
  // thrown from its suspension point. Must be called from outside tasks;
  // the destructor calls it automatically.
  void cancel_all();

  // Sampling-profiler hook (telemetry/sampler.h). The scheduler owns
  // every point where simulated time is charged between context changes,
  // so it polls the profiler at each voluntary suspension point and task
  // exit (ticks attributed to the suspending task + its open span path)
  // and after every idle clock advance (attributed to "(idle)").
  // Detached = one pointer test per site; the profiler never advances
  // the clock, so attaching it cannot change simulated totals.
  void set_sampler(telemetry::SampleProfiler* sampler) {
    sampler_ = sampler;
  }

  bool in_task() const { return current_ != kNoTask; }
  TaskId current() const { return current_; }
  bool finished(TaskId id) const;
  const std::string& task_name(TaskId id) const;
  // Unfinished non-daemon tasks.
  std::size_t live_tasks() const { return live_nondaemon_; }

  Env& env() { return env_; }
  const SchedulerStats& stats() const { return stats_; }

 private:
  struct Task;

  Task* find(TaskId id);
  const Task* find(TaskId id) const;
  Task& current_task();
  TaskId spawn_impl(std::string name, std::function<void()> fn, bool daemon);
  void resume(Task& t);
  void switch_into(Task& t);
  void switch_out(Task& t);          // fiber -> main; rechecks cancellation
  [[noreturn]] void exit_task(Task& t);
  void make_ready(Task& t);
  void finishd(Task& t);             // bookkeeping when a task ends
  void poll_sampler();               // one pointer test when detached
  bool promote_due_sleepers();
  // Earliest valid sleeper deadline, or false if none.
  bool next_deadline(Cycles* out);
  static void trampoline();

  struct SleepEntry {
    Cycles deadline;
    std::uint64_t token;  // also the FIFO tie-break at equal deadlines
    TaskId id;
    bool operator>(const SleepEntry& o) const {
      return deadline != o.deadline ? deadline > o.deadline : token > o.token;
    }
  };

  Env& env_;
  Config config_;
  std::map<TaskId, std::unique_ptr<Task>> tasks_;  // ordered: deterministic
  std::deque<TaskId> ready_;
  std::priority_queue<SleepEntry, std::vector<SleepEntry>, std::greater<>>
      sleepers_;
  TaskId current_ = kNoTask;
  TaskId next_id_ = 1;
  std::uint64_t next_token_ = 1;
  std::size_t live_nondaemon_ = 0;
  std::size_t live_total_ = 0;
  bool cancelling_ = false;
  telemetry::SampleProfiler* sampler_ = nullptr;
  SchedulerStats stats_;

  // Main-context bookkeeping for swapcontext / ASan fiber annotations.
  struct MainCtx;
  std::unique_ptr<MainCtx> main_;
  static Scheduler* tramp_sched_;  // handoff into the trampoline
  static Task* tramp_task_;        // (single-threaded by construction)
};

// FIFO condition-variable analog for tasks. wait() is robust against
// spurious resumes: the task stays parked until a notify has actually
// removed it from the queue. Cancellation propagates out of wait().
class WaitQueue {
 public:
  explicit WaitQueue(Scheduler& sched) : sched_(&sched) {}

  void wait();
  // Both return the number of tasks released.
  std::size_t notify_one();
  std::size_t notify_all();
  std::size_t waiters() const { return q_.size(); }

 private:
  Scheduler* sched_;
  std::deque<TaskId> q_;
};

}  // namespace msv::sched
