// Host-work gate: counts the host allocations (operator new calls and
// bytes) of one app launch and fails when a launch allocates more than
// the ceiling recorded for it. The count is deterministic — the same
// binary makes the same calls on every run — so unlike wall time it can
// be gated exactly; the ceilings leave a little room for differences
// between standard-library builds (gcc, clang, sanitizers). The counter
// also tracks the bytes live at once and their high-water mark, which
// gates the host memory of the PalDB store build.
//
// This executable replaces the global operator new, so it is built apart
// from msv_tests: the counter sees every allocation of the process, and
// only the window between start_counting() and stop_counting() is read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/illustrative/bank.h"
#include "apps/paldb/model.h"
#include "apps/paldb/store.h"
#include "apps/specjvm/harness.h"
#include "apps/synthetic/generator.h"
#include "core/app.h"
#include "interp/exec_context.h"
#include "sched/scheduler.h"
#include "server/server.h"

namespace {

struct AllocCounter {
  bool on = false;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_live_bytes = 0;
};
AllocCounter g_counter;
// Numbers the counting windows (0: outside any), so that a block counted
// in one window and freed in a later one is not subtracted from it.
std::uint64_t g_window = 0;

// Each block starts with a header holding its requested size and the
// window that counted it, so a free subtracts exactly what its allocation
// added, whatever size the allocator (or a sanitizer) rounds it up to.
struct BlockHeader {
  std::uint64_t size;
  std::uint64_t window;
};
static_assert(sizeof(BlockHeader) == alignof(std::max_align_t));

// Bytes from the start of a block to the pointer handed out: the header,
// padded to the alignment asked for.
std::size_t header_offset(std::size_t align) {
  return std::max(align, sizeof(BlockHeader));
}

void* counted_alloc(std::size_t n, std::size_t align) {
  const std::size_t offset = header_offset(align);
  if (n > SIZE_MAX - 2 * offset) throw std::bad_alloc();
  const std::size_t total = n + offset;
  void* base =
      align <= alignof(std::max_align_t)
          ? std::malloc(total)
          : std::aligned_alloc(align, (total + align - 1) / align * align);
  if (base == nullptr) throw std::bad_alloc();
  char* p = static_cast<char*>(base) + offset;
  BlockHeader* header = reinterpret_cast<BlockHeader*>(p) - 1;
  header->size = n;
  header->window = 0;
  if (g_counter.on) {
    ++g_counter.calls;
    g_counter.bytes += n;
    g_counter.live_bytes += n;
    g_counter.peak_live_bytes =
        std::max(g_counter.peak_live_bytes, g_counter.live_bytes);
    header->window = g_window;
  }
  return p;
}

void counted_free(void* p, std::size_t align) {
  if (p == nullptr) return;
  const BlockHeader* header = static_cast<BlockHeader*>(p) - 1;
  if (g_counter.on && header->window == g_window) {
    g_counter.live_bytes -= header->size;
  }
  std::free(static_cast<char*>(p) - header_offset(align));
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return counted_alloc(n, kDefaultAlign); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, kDefaultAlign);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, kDefaultAlign);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p, kDefaultAlign); }
void operator delete[](void* p) noexcept { counted_free(p, kDefaultAlign); }
void operator delete(void* p, std::size_t) noexcept {
  counted_free(p, kDefaultAlign);
}
void operator delete[](void* p, std::size_t) noexcept {
  counted_free(p, kDefaultAlign);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}

namespace msv {
namespace {

struct Counted {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t peak_live_bytes = 0;
};

// Opens a counting window; blocks allocated before it never count.
void start_counting() {
  ++g_window;
  g_counter = {true, 0, 0, 0, 0};
}

Counted stop_counting() {
  g_counter.on = false;
  return {g_counter.calls, g_counter.bytes, g_counter.peak_live_bytes};
}

// Allocations made by `launch`, run once to warm the process-wide state
// (the default intrinsic table, telemetry name tables) and counted on the
// second run.
template <class Fn>
Counted count_allocations(Fn&& launch) {
  launch();
  start_counting();
  launch();
  return stop_counting();
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
// and rmi launches made 1,462 / 3,358,158 and 917 / 374,926. The kv store
// build's peak was recorded at 22,740,018 live bytes; with the index built
// during the merge and held through the data write, it was 24,037,170.
constexpr std::uint64_t kServeCallCeiling = 879;
constexpr std::uint64_t kServeByteCeiling = 283'670;
constexpr std::uint64_t kRmiCallCeiling = 525;
constexpr std::uint64_t kRmiByteCeiling = 132'130;
constexpr std::uint64_t kKvCallCeiling = 110;
constexpr std::uint64_t kKvByteCeiling = 28'100;
constexpr std::uint64_t kGcCallCeiling = 95;
constexpr std::uint64_t kGcByteCeiling = 25'000;
constexpr std::uint64_t kKvStoreBuildPeakCeiling = 23'310'000;

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

// perfbench `kv`'s store build, at 50,000 of its 600,000 keys: the keys
// and 128-byte values put from inside the enclave through the shim, then
// merged into the store file. The high-water mark counts every copy of the
// data the build holds at once (the staging files, the merge's buffers,
// the index, the store file); unlike RSS it repeats exactly.
TEST(HostWork, KvStoreBuildPeakLiveBytes) {
  const model::AppModel model = apps::paldb::build_paldb_app(
      apps::paldb::Scheme::kUnpartitioned, apps::paldb::PaldbWorkload{});
  apps::paldb::PaldbWorkload workload;
  workload.n_keys = 50'000;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (std::uint64_t i = 0; i < workload.n_keys; ++i) {
    keys.push_back(apps::paldb::workload_key(workload, i));
    values.push_back(apps::paldb::workload_value(workload, i));
  }
  auto build = [&] {
    core::UnpartitionedApp app(model);
    Counted got;
    app.run_in_enclave([&](interp::ExecContext& ctx) {
      start_counting();
      {
        apps::paldb::StoreWriter writer(app.env(), ctx.io(), "kv.paldb");
        for (std::size_t i = 0; i < keys.size(); ++i) {
          writer.put(keys[i], values[i]);
        }
        writer.close();
      }
      got = stop_counting();
      return rt::Value();
    });
    return got;
  };
  build();  // warms the process-wide state, as count_allocations does
  const Counted got = build();
  RecordProperty("peak_live_bytes", static_cast<int>(got.peak_live_bytes));
  EXPECT_LE(got.peak_live_bytes, kKvStoreBuildPeakCeiling);
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
