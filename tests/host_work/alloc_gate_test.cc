// Host-work gate: counts the host allocations (operator new calls and
// bytes) of one app launch and fails when a launch allocates more than
// the ceiling recorded for it. The count is deterministic — the same
// binary makes the same calls on every run — so unlike wall time it can
// be gated exactly; the ceilings leave a little room for differences
// between standard-library builds (gcc, clang, sanitizers).
//
// This executable replaces the global operator new, so it is built apart
// from msv_tests: the counter sees every allocation of the process, and
// only the window between start() and stop() is read.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/illustrative/bank.h"
#include "apps/paldb/model.h"
#include "apps/specjvm/harness.h"
#include "apps/synthetic/generator.h"
#include "core/app.h"
#include "sched/scheduler.h"
#include "server/server.h"

namespace {

struct AllocCounter {
  bool on = false;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCounter g_counter;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counter.on) {
    ++g_counter.calls;
    g_counter.bytes += n;
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace msv {
namespace {

struct Counted {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// Allocations made by `launch`, run once to warm the process-wide state
// (the default intrinsic table, telemetry name tables) and counted on the
// second run.
template <class Fn>
Counted count_allocations(Fn&& launch) {
  launch();
  g_counter = {true, 0, 0};
  launch();
  g_counter.on = false;
  return {g_counter.calls, g_counter.bytes};
}

// Ceilings: the counts at which the launches were recorded plus a small
// margin (serve 857 calls / 276,750 bytes; rmi 512 / 128,904; kv 107 /
// 27,367; gc 92 / 24,329). Before the EPC frame store was sized once per
// launch and the images moved what they keep out of the transformed sets,
// the serve and rmi launches made 909 / 420,946 and 573 / 144,047. With
// the untrusted batch endpoint still registered, they made 911 / 421,506
// and 575 / 144,607. Before each enclave interface had one process-wide
// definition, span names were interned only when traced and the mirror
// registries grew on demand, the same launches made 1,073 / 673,525,
// 739 / 229,203, 202 / 53,889 and 187 / 50,947; before the EPC page
// runs, page-sized first heap chunks and shared image tables the serve
// and rmi launches made 1,462 / 3,358,158 and 917 / 374,926.
constexpr std::uint64_t kServeCallCeiling = 879;
constexpr std::uint64_t kServeByteCeiling = 283'670;
constexpr std::uint64_t kRmiCallCeiling = 525;
constexpr std::uint64_t kRmiByteCeiling = 132'130;
constexpr std::uint64_t kKvCallCeiling = 110;
constexpr std::uint64_t kKvByteCeiling = 28'100;
constexpr std::uint64_t kGcCallCeiling = 95;
constexpr std::uint64_t kGcByteCeiling = 25'000;

// perfbench `serve`'s set-up: eight tenants on one enclave, a scheduler
// and a started server.
TEST(HostWork, ServeLaunchAllocations) {
  const model::AppModel model = apps::build_bank_app();
  const Counted got = count_allocations([&] {
    core::PartitionedApp app(model, 8);
    sched::Scheduler sched(app.env());
    server::RequestServer srv(sched, app, server::ServerConfig{});
    srv.start();
  });
  RecordProperty("allocations", static_cast<int>(got.calls));
  RecordProperty("bytes", static_cast<int>(got.bytes));
  EXPECT_LE(got.calls, kServeCallCeiling);
  EXPECT_LE(got.bytes, kServeByteCeiling);
}

// perfbench `rmi`'s set-up: the Fig. 3-5 micro app and its driver.
TEST(HostWork, RmiLaunchAllocations) {
  const model::AppModel model = apps::synthetic::build_micro_app();
  const Counted got = count_allocations([&] {
    core::PartitionedApp app(model);
    app.untrusted_context().construct("Driver", {});
  });
  RecordProperty("allocations", static_cast<int>(got.calls));
  RecordProperty("bytes", static_cast<int>(got.bytes));
  EXPECT_LE(got.calls, kRmiCallCeiling);
  EXPECT_LE(got.bytes, kRmiByteCeiling);
}

// perfbench `kv`'s set-up: PalDB built as one image inside the enclave.
TEST(HostWork, KvLaunchAllocations) {
  const model::AppModel model = apps::paldb::build_paldb_app(
      apps::paldb::Scheme::kUnpartitioned, apps::paldb::PaldbWorkload{});
  const Counted got = count_allocations([&] {
    core::UnpartitionedApp app(model);
  });
  RecordProperty("allocations", static_cast<int>(got.calls));
  RecordProperty("bytes", static_cast<int>(got.bytes));
  EXPECT_LE(got.calls, kKvCallCeiling);
  EXPECT_LE(got.bytes, kKvByteCeiling);
}

// perfbench `gc`'s set-up: Table 1's monte_carlo inside the enclave, with
// the heap sizes of its default workload.
TEST(HostWork, GcLaunchAllocations) {
  namespace specjvm = apps::specjvm;
  const specjvm::WorkloadSpec spec =
      specjvm::WorkloadSpec::defaults(specjvm::Benchmark::kMonteCarlo);
  const model::AppModel model =
      specjvm::build_model(specjvm::Benchmark::kMonteCarlo, spec);
  core::AppConfig config;
  config.trusted_heap_bytes = spec.heap_bytes;
  config.untrusted_heap_bytes = spec.heap_bytes;
  const Counted got = count_allocations([&] {
    core::UnpartitionedApp app(model, config);
  });
  RecordProperty("allocations", static_cast<int>(got.calls));
  RecordProperty("bytes", static_cast<int>(got.bytes));
  EXPECT_LE(got.calls, kGcCallCeiling);
  EXPECT_LE(got.bytes, kGcByteCeiling);
}

}  // namespace
}  // namespace msv
