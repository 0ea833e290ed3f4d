#include "sched/scheduler.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <utility>

#include "support/error.h"
#include "telemetry/sampler.h"

// ASan cannot follow swapcontext on its own: each fiber's stack must be
// announced around every switch or the tool reports false stack-overflow /
// use-after-return on the first resume. These hooks are no-ops without
// ASan (guarded below), so the scheduler builds identically either way.
#if defined(__SANITIZE_ADDRESS__)
#define MSV_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSV_ASAN_FIBERS 1
#endif
#endif

#if defined(MSV_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace msv::sched {

namespace {

// A fiber stack: `bytes` (rounded up to whole pages) of anonymous memory
// above one PROT_NONE guard page. MAP_NORESERVE leaves the pages
// uncommitted until the fiber touches them, and the stack grows down
// into the guard page, so an overflow faults at once.
class FiberStack {
 public:
  FiberStack() = default;
  explicit FiberStack(std::size_t bytes) {
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    size_ = (bytes + page - 1) / page * page;
    mapped_ = size_ + page;
    void* m = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(m);
    if (mprotect(base_, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      throw std::bad_alloc();
    }
  }
  ~FiberStack() {
    if (base_ != nullptr) munmap(base_, mapped_);
  }
  FiberStack(FiberStack&& o) noexcept
      : base_(std::exchange(o.base_, nullptr)),
        mapped_(o.mapped_),
        size_(o.size_) {}
  FiberStack& operator=(FiberStack&& o) noexcept {
    std::swap(base_, o.base_);
    std::swap(mapped_, o.mapped_);
    std::swap(size_, o.size_);
    return *this;
  }

  // The usable range, above the guard page.
  char* bottom() const { return base_ + (mapped_ - size_); }
  std::size_t size() const { return size_; }

 private:
  char* base_ = nullptr;
  std::size_t mapped_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

struct Scheduler::Task {
  enum class State : std::uint8_t {
    kReady,
    kRunning,
    kSleeping,
    kBlocked,
    kFinished,
  };

  TaskId id = kNoTask;
  std::string name;
  std::function<void()> fn;
  bool daemon = false;
  State state = State::kReady;
  bool started = false;
  bool wake_pending = false;
  std::uint64_t sleep_token = 0;  // invalidates stale heap entries
  std::vector<TaskId> joiners;
  std::exception_ptr error;
  FiberStack stack;  // mapped on first resume, unmapped when finished
  ucontext_t ctx{};
  void* asan_fake = nullptr;
};

struct Scheduler::MainCtx {
  ucontext_t ctx{};
  void* asan_fake = nullptr;
  // Bounds of the thread stack hosting run(), reported by the sanitizer on
  // the first switch into a fiber; needed to announce switches back.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
};

Scheduler* Scheduler::tramp_sched_ = nullptr;
Scheduler::Task* Scheduler::tramp_task_ = nullptr;

Scheduler::Scheduler(Env& env, Config config)
    : env_(env), config_(config), main_(std::make_unique<MainCtx>()) {
  MSV_CHECK_MSG(config_.stack_bytes >= 16 * 1024, "fiber stack too small");
  // Telemetry spans opened inside fibers must nest per task, not
  // globally: hand the tracer a view of the running TaskId.
  env_.telemetry.tracer().set_task_source(
      [this]() -> std::uint64_t { return current_; });
}

Scheduler::~Scheduler() {
  try {
    cancel_all();
  } catch (...) {
    // Destructors must not throw; a failed teardown leaks fiber stacks
    // but keeps the process coherent.
  }
  env_.telemetry.tracer().clear_task_source();
}

Scheduler::Task* Scheduler::find(TaskId id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : it->second.get();
}

const Scheduler::Task* Scheduler::find(TaskId id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : it->second.get();
}

Scheduler::Task& Scheduler::current_task() {
  MSV_CHECK_MSG(in_task(), "this operation requires a running task");
  Task* t = find(current_);
  MSV_CHECK(t != nullptr);
  return *t;
}

TaskId Scheduler::spawn(std::string name, std::function<void()> fn) {
  return spawn_impl(std::move(name), std::move(fn), /*daemon=*/false);
}

TaskId Scheduler::spawn_daemon(std::string name, std::function<void()> fn) {
  return spawn_impl(std::move(name), std::move(fn), /*daemon=*/true);
}

TaskId Scheduler::spawn_impl(std::string name, std::function<void()> fn,
                             bool daemon) {
  MSV_CHECK_MSG(fn != nullptr, "spawn with empty function");
  const TaskId id = next_id_++;
  auto t = std::make_unique<Task>();
  t->id = id;
  t->name = std::move(name);
  t->fn = std::move(fn);
  t->daemon = daemon;
  ready_.push_back(id);
  ++live_total_;
  if (!daemon) ++live_nondaemon_;
  ++stats_.spawned;
  if (env_.telemetry.tracing_enabled()) {
    env_.telemetry.tracer().set_thread_name(id, t->name);
  }
  tasks_.emplace(id, std::move(t));
  return id;
}

void Scheduler::run() {
  MSV_CHECK_MSG(!in_task(), "Scheduler::run() called from inside a task");
  for (;;) {
    promote_due_sleepers();
    if (!ready_.empty()) {
      const TaskId id = ready_.front();
      ready_.pop_front();
      Task* t = find(id);
      if (t == nullptr || t->state != Task::State::kReady) continue;
      resume(*t);
      continue;
    }
    // Advance to the next sleeper before considering exit: a *sleeping*
    // daemon is mid-work (a worker inside a transition window) and must be
    // driven to completion; only *blocked* daemons — parked on a queue,
    // waiting for work that will never come from this run() — are ignored
    // by the exit condition.
    Cycles next = 0;
    if (next_deadline(&next)) {
      MSV_CHECK(next >= env_.clock.now());
      stats_.idle_advanced_cycles += next - env_.clock.now();
      // The idle jump; the loop then promotes the sleepers now due.
      env_.clock.advance(next - env_.clock.now());
      // Ticks crossed by the idle jump belong to nobody's stack.
      if (sampler_ != nullptr) sampler_->poll_label("(idle)");
      continue;
    }
    if (live_nondaemon_ == 0) break;
    std::string who;
    for (const auto& [id, t] : tasks_) {
      if (t->state == Task::State::kFinished || t->daemon) continue;
      if (!who.empty()) who += ", ";
      who += t->name;
    }
    throw RuntimeFault(
        "scheduler deadlock: every live task is blocked with no sleeper to "
        "advance time to (blocked: " +
        who + ")");
  }
}

bool Scheduler::promote_due_sleepers() {
  bool any = false;
  while (!sleepers_.empty() &&
         sleepers_.top().deadline <= env_.clock.now()) {
    const SleepEntry e = sleepers_.top();
    sleepers_.pop();
    Task* t = find(e.id);
    if (t != nullptr && t->state == Task::State::kSleeping &&
        t->sleep_token == e.token) {
      t->sleep_token = 0;
      make_ready(*t);
      any = true;
    }
  }
  return any;
}

bool Scheduler::next_deadline(Cycles* out) {
  while (!sleepers_.empty()) {
    const SleepEntry& e = sleepers_.top();
    const Task* t = find(e.id);
    if (t == nullptr || t->state != Task::State::kSleeping ||
        t->sleep_token != e.token) {
      sleepers_.pop();  // invalidated by an early wake
      continue;
    }
    *out = e.deadline;
    return true;
  }
  return false;
}

void Scheduler::make_ready(Task& t) {
  t.state = Task::State::kReady;
  ready_.push_back(t.id);
}

void Scheduler::resume(Task& t) {
  ++stats_.context_switches;
  if (!t.started) {
    t.started = true;
    t.stack = FiberStack(config_.stack_bytes);
    MSV_CHECK(getcontext(&t.ctx) == 0);
    t.ctx.uc_stack.ss_sp = t.stack.bottom();
    t.ctx.uc_stack.ss_size = t.stack.size();
    t.ctx.uc_link = nullptr;  // tasks exit through exit_task, never fall off
    makecontext(&t.ctx, &Scheduler::trampoline, 0);
  }
  t.state = Task::State::kRunning;
  current_ = t.id;
  switch_into(t);
  current_ = kNoTask;
  if (t.state == Task::State::kFinished) {
    t.stack = FiberStack();
    if (t.error != nullptr && !cancelling_) {
      std::exception_ptr e = t.error;
      t.error = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void Scheduler::switch_into(Task& t) {
  tramp_sched_ = this;
  tramp_task_ = &t;
#if defined(MSV_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&main_->asan_fake, t.stack.bottom(),
                                 t.stack.size());
#endif
  swapcontext(&main_->ctx, &t.ctx);
#if defined(MSV_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(main_->asan_fake, nullptr, nullptr);
#endif
}

void Scheduler::switch_out(Task& t) {
#if defined(MSV_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&t.asan_fake, main_->stack_bottom,
                                 main_->stack_size);
#endif
  swapcontext(&t.ctx, &main_->ctx);
#if defined(MSV_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(t.asan_fake, nullptr, nullptr);
#endif
  // Resumed. Teardown resumes a task only so it can unwind.
  if (cancelling_) throw TaskCancelled{};
}

void Scheduler::exit_task(Task& t) {
  poll_sampler();  // the task's final charge segment, before teardown
  t.state = Task::State::kFinished;
  ++stats_.completed;
  --live_total_;
  if (!t.daemon) --live_nondaemon_;
  for (const TaskId j : t.joiners) wake(j);
  t.joiners.clear();
#if defined(MSV_ASAN_FIBERS)
  // nullptr fake-stack handle: tells ASan this fiber is exiting for good.
  __sanitizer_start_switch_fiber(nullptr, main_->stack_bottom,
                                 main_->stack_size);
#endif
  swapcontext(&t.ctx, &main_->ctx);
  std::abort();  // unreachable: finished tasks are never resumed
}

void Scheduler::trampoline() {
  Scheduler* s = tramp_sched_;
  Task* t = tramp_task_;
#if defined(MSV_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(t->asan_fake, &s->main_->stack_bottom,
                                  &s->main_->stack_size);
#endif
  // Task-lifetime span: opened and closed in the fiber's own context
  // (current_ == t->id on both sides, even on the cancellation path).
  telemetry::Tracer& tracer = s->env_.telemetry.tracer();
  const bool traced = tracer.enabled(telemetry::Category::kSched);
  if (traced) {
    tracer.begin_span(telemetry::Category::kSched,
                      tracer.intern("task:" + t->name));
  }
  try {
    if (!s->cancelling_) t->fn();
  } catch (const TaskCancelled&) {
    // Normal teardown path.
  } catch (...) {
    t->error = std::current_exception();
  }
  if (traced) tracer.end_span();
  t->fn = nullptr;  // release captured state deterministically
  s->exit_task(*t);
}

void Scheduler::poll_sampler() {
  if (sampler_ == nullptr || !sampler_->due()) return;
  if (current_ == kNoTask) {
    sampler_->poll_label("(main)");
  } else {
    sampler_->poll_task(current_, current_task().name);
  }
}

void Scheduler::yield() {
  poll_sampler();
  Task& t = current_task();
  t.state = Task::State::kReady;
  ready_.push_back(t.id);
  switch_out(t);
}

void Scheduler::sleep_until(Cycles deadline) {
  poll_sampler();
  Task& t = current_task();
  ++stats_.sleeps;
  if (t.wake_pending) {  // a latched wake cancels the sleep outright
    t.wake_pending = false;
    return;
  }
  if (deadline <= env_.clock.now()) {
    yield();
    return;
  }
  // The sleep span closes via RAII even when switch_out throws
  // TaskCancelled (the fiber unwinds in its own context).
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kSched,
                            env_.telemetry.names().fiber_sleep);
  t.state = Task::State::kSleeping;
  t.sleep_token = next_token_++;
  sleepers_.push(SleepEntry{deadline, t.sleep_token, t.id});
  switch_out(t);
}

void Scheduler::sleep_for(Cycles cycles) {
  sleep_until(env_.clock.now() + cycles);
}

void Scheduler::join(TaskId id) {
  Task& t = current_task();
  MSV_CHECK_MSG(id != t.id, "task joining itself");
  Task* target = find(id);
  if (target == nullptr || target->state == Task::State::kFinished) return;
  target->joiners.push_back(t.id);
  while (target->state != Task::State::kFinished) suspend();
}

void Scheduler::suspend() {
  poll_sampler();
  Task& t = current_task();
  if (t.wake_pending) {
    t.wake_pending = false;
    return;
  }
  t.state = Task::State::kBlocked;
  switch_out(t);
}

void Scheduler::wake(TaskId id) {
  Task* t = find(id);
  if (t == nullptr || t->state == Task::State::kFinished) return;
  ++stats_.wakes;
  switch (t->state) {
    case Task::State::kBlocked:
      make_ready(*t);
      break;
    case Task::State::kSleeping:
      t->sleep_token = 0;  // the heap entry is skipped as stale
      make_ready(*t);
      break;
    case Task::State::kRunning:
    case Task::State::kReady:
      t->wake_pending = true;  // latch: consumes the next suspend/sleep
      break;
    case Task::State::kFinished:
      break;
  }
}

void Scheduler::cancel_all() {
  MSV_CHECK_MSG(!in_task(), "cancel_all() called from inside a task");
  cancelling_ = true;
  for (auto& [id, t] : tasks_) {
    (void)id;
    if (t->state == Task::State::kFinished) continue;
    if (!t->started) {
      // Never ran: nothing to unwind, just retire it.
      t->fn = nullptr;
      t->state = Task::State::kFinished;
      ++stats_.completed;
      --live_total_;
      if (!t->daemon) --live_nondaemon_;
      for (const TaskId j : t->joiners) wake(j);
      t->joiners.clear();
      continue;
    }
    if (t->state == Task::State::kSleeping ||
        t->state == Task::State::kBlocked) {
      t->sleep_token = 0;
      make_ready(*t);
    }
  }
  // Resume each cancelled task once; TaskCancelled is thrown from its
  // suspension point and the fiber unwinds to completion. Task errors are
  // intentionally dropped here (resume() checks cancelling_).
  while (!ready_.empty()) {
    const TaskId id = ready_.front();
    ready_.pop_front();
    Task* t = find(id);
    if (t == nullptr || t->state != Task::State::kReady) continue;
    resume(*t);
  }
  cancelling_ = false;
}

bool Scheduler::finished(TaskId id) const {
  const Task* t = find(id);
  return t == nullptr || t->state == Task::State::kFinished;
}

const std::string& Scheduler::task_name(TaskId id) const {
  static const std::string kUnknown = "<unknown-task>";
  const Task* t = find(id);
  return t == nullptr ? kUnknown : t->name;
}

void WaitQueue::wait() {
  const TaskId me = sched_->current();
  MSV_CHECK_MSG(me != kNoTask, "WaitQueue::wait() outside a task");
  q_.push_back(me);
  try {
    // Parked until a notify removed us; robust against latched wakes
    // aimed at this task for other reasons.
    while (std::find(q_.begin(), q_.end(), me) != q_.end()) {
      sched_->suspend();
    }
  } catch (...) {
    auto it = std::find(q_.begin(), q_.end(), me);
    if (it != q_.end()) q_.erase(it);
    throw;
  }
}

std::size_t WaitQueue::notify_one() {
  if (q_.empty()) return 0;
  const TaskId id = q_.front();
  q_.pop_front();
  sched_->wake(id);
  return 1;
}

std::size_t WaitQueue::notify_all() {
  std::size_t n = 0;
  while (notify_one() == 1) ++n;
  return n;
}

}  // namespace msv::sched
