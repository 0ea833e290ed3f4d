// Tests for the deterministic discrete-event scheduler (src/sched):
// FIFO ordering, exact sleep deadlines, join/suspend/wake semantics,
// cancellation unwinding, the WaitQueue condition-variable analog, and
// the detached clock mode the GC helper model builds on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "sgx/tcs.h"
#include "support/error.h"

namespace msv {
namespace {

struct SchedFixture : ::testing::Test {
  SchedFixture() : env(CostModel::paper(), nullptr) {}
  Env env;
};

using SchedulerTest = SchedFixture;

TEST_F(SchedulerTest, TasksRunInSpawnOrder) {
  sched::Scheduler sched(env);
  std::vector<int> order;
  sched.spawn("a", [&] { order.push_back(1); });
  sched.spawn("b", [&] { order.push_back(2); });
  sched.spawn("c", [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.stats().spawned, 3u);
  EXPECT_EQ(sched.stats().completed, 3u);
}

TEST_F(SchedulerTest, YieldInterleavesFifo) {
  sched::Scheduler sched(env);
  std::vector<std::string> order;
  for (const char* name : {"a", "b"}) {
    sched.spawn(name, [&, name] {
      for (int i = 0; i < 2; ++i) {
        order.push_back(std::string(name) + std::to_string(i));
        sched.yield();
      }
    });
  }
  sched.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a0", "b0", "a1", "b1"}));
}

TEST_F(SchedulerTest, SchedulingChargesZeroCycles) {
  sched::Scheduler sched(env);
  sched.spawn("a", [&] {
    for (int i = 0; i < 100; ++i) sched.yield();
  });
  sched.spawn("b", [&] {
    for (int i = 0; i < 100; ++i) sched.yield();
  });
  sched.run();
  EXPECT_EQ(env.clock.now(), 0u)
      << "context switches are free on the simulated timeline";
}

TEST_F(SchedulerTest, SleepAdvancesClockExactly) {
  sched::Scheduler sched(env);
  sched.spawn("sleeper", [&] { sched.sleep_for(12'345); });
  sched.run();
  EXPECT_EQ(env.clock.now(), 12'345u);
  EXPECT_EQ(sched.stats().idle_advanced_cycles, 12'345u);
}

TEST_F(SchedulerTest, SleepersWakeInDeadlineOrderWithFifoTies) {
  sched::Scheduler sched(env);
  std::vector<std::string> order;
  sched.spawn("late", [&] {
    sched.sleep_for(200);
    order.push_back("late");
  });
  sched.spawn("tie1", [&] {
    sched.sleep_for(100);
    order.push_back("tie1");
  });
  sched.spawn("tie2", [&] {
    sched.sleep_for(100);
    order.push_back("tie2");
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<std::string>{"tie1", "tie2", "late"}));
  EXPECT_EQ(env.clock.now(), 200u);
}

TEST_F(SchedulerTest, JoinBlocksUntilTargetFinishes) {
  sched::Scheduler sched(env);
  bool child_done = false;
  sched.spawn("parent", [&] {
    const sched::TaskId child = sched.spawn("child", [&] {
      sched.sleep_for(1'000);
      child_done = true;
    });
    sched.join(child);
    EXPECT_TRUE(child_done);
  });
  sched.run();
  EXPECT_TRUE(child_done);
}

TEST_F(SchedulerTest, WakeUnblocksSuspendedTask) {
  sched::Scheduler sched(env);
  bool resumed = false;
  const sched::TaskId waiter = sched.spawn("waiter", [&] {
    sched.suspend();
    resumed = true;
  });
  sched.spawn("waker", [&] { sched.wake(waiter); });
  sched.run();
  EXPECT_TRUE(resumed);
}

TEST_F(SchedulerTest, WakeWhileRunnableIsLatched) {
  sched::Scheduler sched(env);
  bool resumed = false;
  sched::TaskId waiter = sched::kNoTask;
  waiter = sched.spawn("waiter", [&] {
    // The wake below arrives while this task is READY — before this
    // suspend. It must be latched and consume the suspend, or the wakeup
    // is lost and the scheduler deadlocks.
    sched.yield();
    sched.suspend();
    resumed = true;
  });
  sched.spawn("waker", [&] { sched.wake(waiter); });
  sched.run();
  EXPECT_TRUE(resumed);
}

TEST_F(SchedulerTest, WakeCutsSleepShort) {
  sched::Scheduler sched(env);
  const sched::TaskId sleeper =
      sched.spawn("sleeper", [&] { sched.sleep_for(1'000'000); });
  sched.spawn("waker", [&] {
    sched.sleep_for(10);
    sched.wake(sleeper);
  });
  sched.run();
  EXPECT_EQ(env.clock.now(), 10u) << "the long sleep never ran to deadline";
}

TEST_F(SchedulerTest, DeadlockIsReportedNotHung) {
  sched::Scheduler sched(env);
  sched.spawn("stuck", [&] { sched.suspend(); });
  EXPECT_THROW(sched.run(), RuntimeFault);
}

TEST_F(SchedulerTest, DaemonsDoNotKeepRunAlive) {
  sched::Scheduler sched(env);
  sched.spawn_daemon("daemon", [&] {
    for (;;) sched.suspend();
  });
  sched.spawn("work", [&] { sched.sleep_for(5); });
  sched.run();  // returns despite the parked daemon
  EXPECT_EQ(env.clock.now(), 5u);
  EXPECT_EQ(sched.live_tasks(), 0u);
}

TEST_F(SchedulerTest, TaskExceptionPropagatesOutOfRun) {
  sched::Scheduler sched(env);
  sched.spawn("thrower", [] { throw RuntimeFault("boom"); });
  EXPECT_THROW(sched.run(), RuntimeFault);
}

TEST_F(SchedulerTest, CancellationUnwindsFiberStacks) {
  auto sched = std::make_unique<sched::Scheduler>(env);
  // The destructor-observing object lives on the fiber stack; TaskCancelled
  // must unwind through it.
  auto destroyed = std::make_shared<bool>(false);
  struct Sentinel {
    std::shared_ptr<bool> flag;
    ~Sentinel() { *flag = true; }
  };
  sched->spawn_daemon("parked", [&, destroyed] {
    Sentinel s{destroyed};
    for (;;) sched->suspend();
  });
  sched->spawn("kick", [] {});
  sched->run();
  EXPECT_FALSE(*destroyed) << "daemon still parked after run()";
  sched.reset();  // destructor cancels
  EXPECT_TRUE(*destroyed) << "cancellation ran the fiber's destructors";
}

TEST_F(SchedulerTest, WaitQueueIsFifoAndRobustToSpuriousWakes) {
  sched::Scheduler sched(env);
  sched::WaitQueue q(sched);
  std::vector<int> order;
  sched::TaskId first = sched::kNoTask;
  for (int i = 0; i < 3; ++i) {
    const sched::TaskId id = sched.spawn("w" + std::to_string(i), [&, i] {
      q.wait();
      order.push_back(i);
    });
    if (i == 0) first = id;
  }
  sched.spawn("notifier", [&] {
    sched.yield();  // let all three park
    // A direct wake is spurious for a WaitQueue waiter: the task must
    // re-park until a notify actually removes it from the queue.
    sched.wake(first);
    sched.yield();
    EXPECT_EQ(q.waiters(), 3u);
    q.notify_one();
    q.notify_all();
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(SchedulerTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Env env(CostModel::paper(), nullptr);
    sched::Scheduler sched(env);
    std::vector<std::string> order;
    for (int t = 0; t < 4; ++t) {
      sched.spawn("t" + std::to_string(t), [&, t] {
        for (int i = 0; i < 3; ++i) {
          sched.sleep_for(static_cast<Cycles>(100 * (t + 1)));
          order.push_back(std::to_string(t) + "." + std::to_string(i));
        }
      });
    }
    sched.run();
    return std::pair(order, env.clock.now());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- VirtualClock::measure_detached (the GC helper-thread model) -----------

TEST_F(SchedulerTest, MeasureDetachedCapturesWithoutAdvancing) {
  const Cycles before = env.clock.now();
  const Cycles cost = env.clock.measure_detached([&] {
    env.clock.advance(5'000);
    env.clock.advance(2'500);
  });
  EXPECT_EQ(cost, 7'500u);
  EXPECT_EQ(env.clock.now(), before) << "detached work is off-timeline";
}

TEST_F(SchedulerTest, MeasureDetachedNests) {
  const Cycles outer = env.clock.measure_detached([&] {
    env.clock.advance(100);
    const Cycles inner = env.clock.measure_detached([&] {
      env.clock.advance(40);
    });
    EXPECT_EQ(inner, 40u);
    env.clock.advance(1);
  });
  EXPECT_EQ(outer, 141u);
  EXPECT_EQ(env.clock.now(), 0u);
}

// ---- Fiber stacks ------------------------------------------------------------

// Recursion the compiler cannot turn into a loop: each frame keeps a
// volatile buffer live across the call and reads it after the callee
// returns.
std::uint64_t recurse_deep(std::uint64_t depth) {
  volatile unsigned char frame[512] = {};
  frame[depth % 512] = static_cast<unsigned char>(depth);
  if (depth == 0) return frame[0];
  return recurse_deep(depth - 1) + frame[depth % 512];
}

using SchedulerDeathTest = SchedFixture;

TEST_F(SchedulerDeathTest, FiberStackOverflowFaultsOnTheGuardPage) {
  // A fiber's stack sits above a PROT_NONE guard page: recursing to about
  // twice its 64 KiB faults at once instead of writing into whatever the
  // host allocator placed below the stack.
  EXPECT_DEATH(
      {
        sched::Scheduler sched(env, {.stack_bytes = 64 * 1024});
        volatile std::uint64_t result = 0;
        sched.spawn("deep", [&] {
          volatile std::uint64_t depth = 256;
          result = recurse_deep(depth);
        });
        sched.run();
      },
      "");
}

// ---- TCS pool queueing under the scheduler (DESIGN.md §8) ------------------
//
// The pool's wakeup protocol parks waiters on the scheduler, so its FIFO
// and attribution contracts are really scheduler contracts — pinned here
// with the pool driven directly (no bridge), where the interleavings are
// explicit.

TEST_F(SchedulerTest, TcsPendingGrantDoesNotCloseTheFastPath) {
  // Regression (stress_tcs bursty-arrival find): a slot handed to a
  // queued waiter is counted in in_use_ from the instant of the grant,
  // but before the fix acquire()'s fast path also required
  // granted_.empty() — so a caller arriving while a grant sat unclaimed
  // (e.g. the queue drained during another task's nested ocall) queued
  // behind an unrelated future release even though a slot was genuinely
  // free. Timeline: A and B hold both slots until t=1000; C queues at
  // t=1; at t=1000 A's release grants C (unclaimed — C resumes last),
  // B's release frees a slot, and D's acquire at the same instant must
  // take that free slot without queueing.
  sched::Scheduler sched(env);
  sgx::TcsPool pool(env, sgx::TcsConfig{2, sgx::TcsConfig::OnExhaustion::kBlock});
  pool.attach_scheduler(&sched);
  for (const char* name : {"a", "b"}) {
    sched.spawn(name, [&] {
      pool.acquire();
      sched.sleep_for(1'000);
      pool.release();
    });
  }
  sched.spawn("c", [&] {
    sched.sleep_for(1);
    pool.acquire();  // queues: both slots held until t=1000
    sched.sleep_for(5'000);
    pool.release();
  });
  Cycles d_acquired_at = 0;
  sched.spawn("d", [&] {
    sched.sleep_for(1'000);
    pool.acquire();  // a slot is free; C's grant must not push D into the queue
    d_acquired_at = env.clock.now();
    sched.sleep_for(5'000);
    pool.release();
  });
  sched.run();
  EXPECT_EQ(pool.stats().acquisitions, 4u);
  EXPECT_EQ(pool.stats().waits, 1u) << "only C queued; D hit the fast path";
  EXPECT_EQ(pool.stats().wait_cycles, 999u)
      << "C's wait (t=1 .. t=1000) is the only queueing delay — D waiting "
         "for C's release would have inflated this by ~5000";
  EXPECT_EQ(d_acquired_at, 1'000u) << "D acquired the free slot immediately";
}

TEST_F(SchedulerTest, TcsWaitersWakeFifoWithExactAttribution) {
  // Three callers queue behind a single slot in arrival order; grants
  // must come back in the same order, and each waiter's queueing delay
  // lands in wait_cycles exactly (arrival -> grant claim, no rounding).
  sched::Scheduler sched(env);
  sgx::TcsPool pool(env, sgx::TcsConfig{1, sgx::TcsConfig::OnExhaustion::kBlock});
  pool.attach_scheduler(&sched);
  std::vector<std::string> grant_order;
  sched.spawn("holder", [&] {
    pool.acquire();
    sched.sleep_for(1'000);
    pool.release();
  });
  for (const char* name : {"w1", "w2", "w3"}) {
    sched.spawn(name, [&, name] {
      pool.acquire();
      grant_order.push_back(name);
      sched.sleep_for(100);
      pool.release();
    });
  }
  sched.run();
  EXPECT_EQ(grant_order, (std::vector<std::string>{"w1", "w2", "w3"}));
  EXPECT_EQ(pool.stats().waits, 3u);
  EXPECT_EQ(pool.stats().max_waiters, 3u);
  // w1 waited 0..1000, w2 0..1100, w3 0..1200.
  EXPECT_EQ(pool.stats().wait_cycles, 1'000u + 1'100u + 1'200u);
}

}  // namespace
}  // namespace msv
