// Ablation C (§2.1): the EPC paging cliff.
//
// "The Linux SGX kernel driver can swap pages between the EPC and regular
// DRAM. This paging mechanism lets enclave applications use more than the
// total EPC, but at a significant cost." An enclave sweeps a 64 MB working
// set ten times while the usable EPC varies: once the working set exceeds
// the EPC, the LRU page cache misses on every touch and the run falls off
// a cliff. This is the effect behind GraphChi's in-enclave slowdown
// (Figs. 9/11): its memory budget exceeds the 93.5 MB of usable EPC.
//
// Every sweep's simulated cycles are pinned, so a change to the EPC model's
// eviction order or per-page charges fails the run (exit 1, FATAL on
// stderr) even where the printed times round it away.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_common.h"
#include "sgx/enclave.h"
#include "sim/env.h"

namespace msv {
namespace {

constexpr Cycles kPinnedAmpleCycles = 1'841'561'600;
struct PinnedSweep {
  std::uint64_t epc_mb;
  Cycles cycles;
};
constexpr PinnedSweep kPinnedSweeps[] = {
    {256, 1'841'561'600}, {128, 1'841'561'600}, {93, 1'841'561'600},
    {72, 1'841'561'600},  {64, 1'841'561'600},  {56, 4'362'649'600},
    {48, 4'376'985'600},  {32, 4'405'657'600},  {16, 4'434'329'600}};

// Simulated cycles of `passes` sweeps over the working set.
Cycles sweep_working_set(std::uint64_t epc_bytes,
                         std::uint64_t working_set_bytes, int passes) {
  CostModel cost;
  cost.epc_usable_bytes = epc_bytes;
  Env env(cost);
  sgx::Enclave enclave(env, "sweep", Sha256::hash("img"), 4096);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain domain(env, enclave);

  const std::uint64_t region = domain.register_region();
  const std::uint64_t pages = working_set_bytes / cost.page_bytes;
  const Cycles t0 = env.clock.now();
  for (int p = 0; p < passes; ++p) {
    domain.touch_pages(region, 0, pages);
    domain.charge_traffic(working_set_bytes);
  }
  return env.clock.now() - t0;
}

bool matches_pin(std::uint64_t epc_mb, Cycles cycles, Cycles pinned) {
  if (cycles == pinned) return true;
  std::fprintf(stderr,
               "FATAL: the %" PRIu64 " MB sweep took %" PRIu64
               " simulated cycles, pinned %" PRIu64
               " — the EPC model changed results\n",
               epc_mb, cycles, pinned);
  return false;
}

}  // namespace
}  // namespace msv

int main() {
  using namespace msv;
  bench::print_header("Ablation C",
                      "EPC capacity vs 64 MB working set (10 passes)");

  constexpr std::uint64_t kWorkingSet = 64ull << 20;
  const double cpu_hz = CostModel{}.cpu_hz;
  const Cycles ample = sweep_working_set(256ull << 20, kWorkingSet, 10);
  bool ok = matches_pin(256, ample, kPinnedAmpleCycles);
  const double plenty = static_cast<double>(ample) / cpu_hz;
  Table table({"usable EPC", "sweep time", "slowdown vs ample EPC"});
  for (const PinnedSweep& pin : kPinnedSweeps) {
    const Cycles cycles =
        sweep_working_set(pin.epc_mb << 20, kWorkingSet, 10);
    ok = matches_pin(pin.epc_mb, cycles, pin.cycles) && ok;
    const double t = static_cast<double>(cycles) / cpu_hz;
    table.add_row({std::to_string(pin.epc_mb) + " MB", bench::fmt_s(t),
                   bench::fmt_x(t / plenty)});
  }
  table.print();
  std::printf(
      "\nThe cliff sits where the EPC shrinks below the 64 MB working set: "
      "every touch becomes a\npage-in + eviction. The paper's platform has "
      "93.5 MB usable (§6.1).\n");
  return ok ? 0 : 1;
}
