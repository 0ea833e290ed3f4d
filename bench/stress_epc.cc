// stress_epc (DESIGN.md §17): working-set sweeps past the EPC cliff.
//
// Three access patterns — sequential, strided (same touched pages, 4x the
// address span) and Zipfian — sweep working sets from 1/6th of the usable
// EPC to 2.7x past it, so the paging cliff shows as a *curve* (seven
// points spanning capacity), not a single before/after pair. A disarmed
// baseline (same sweep against an ample EPC) runs next to the armed one;
// the armed/disarmed ratio per point is the published EWB cost shape: flat
// near 1x below capacity, then a jump to the page-in + page-out regime
// (§2.1 "at a significant cost", Figs. 9/11).
//
// A fourth scenario shrinks the EPC limit *mid-run* (the lazy-eviction
// path of EpcModel::set_limit): a warm resident set is cut in half while
// the run is touching it, which must charge the deferred EWB evictions on
// the next access, keep the fault/eviction ledger reconciled, and regrow
// without spurious evictions when the limit lifts.
#include <cinttypes>
#include <string>

#include "bench/bench_common.h"
#include "bench/stress_common.h"
#include "sgx/enclave.h"
#include "sim/env.h"

namespace msv {
namespace {

struct SweepPoint {
  double cycles_per_touch = 0;
  std::uint64_t faults = 0;
  std::uint64_t evictions = 0;
};

enum class Pattern { kSequential, kStrided, kZipf };

// One sweep: `passes` rounds of `ws_pages` touches against an enclave
// whose usable EPC is `epc_bytes`. Strided touches every 4th page of a
// 4x-wider region — same touched-page count, so the EPC outcome must
// match sequential (pressure follows touched pages, not address span).
SweepPoint sweep(std::uint64_t epc_bytes, std::uint64_t ws_pages,
                 Pattern pattern, int passes) {
  CostModel cost;
  cost.epc_usable_bytes = epc_bytes;
  Env env(cost);
  sgx::Enclave enclave(env, "stress-epc", Sha256::hash("img"), 4096);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain domain(env, enclave);
  const std::uint64_t region = domain.register_region();

  bench::stress::Rng rng(7);
  const bench::stress::Zipf zipf(ws_pages, 1.1);
  const Cycles t0 = env.clock.now();
  std::uint64_t touches = 0;
  for (int p = 0; p < passes; ++p) {
    for (std::uint64_t i = 0; i < ws_pages; ++i) {
      std::uint64_t page = i;
      if (pattern == Pattern::kStrided) {
        page = i * 4;
      } else if (pattern == Pattern::kZipf) {
        page = zipf.sample(rng);
      }
      domain.touch_pages(region, page, 1);
      ++touches;
    }
  }
  SweepPoint pt;
  pt.cycles_per_touch =
      static_cast<double>(env.clock.now() - t0) / static_cast<double>(touches);
  pt.faults = enclave.epc().stats().faults;
  pt.evictions = enclave.epc().stats().evictions;
  bench::stress::gate(enclave.epc().stats_reconcile(),
                      "EPC ledger must reconcile after a sweep");
  return pt;
}

// Mid-run capacity shrink: warm a resident set that exactly fills the
// EPC, halve the limit while still touching, then lift it again.
void shrink_mid_run(bench::JsonReport& report, std::uint64_t epc_bytes,
                    int passes) {
  CostModel cost;
  cost.epc_usable_bytes = epc_bytes;
  Env env(cost);
  sgx::Enclave enclave(env, "stress-epc-shrink", Sha256::hash("img"), 4096);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain domain(env, enclave);
  const std::uint64_t region = domain.register_region();
  sgx::EpcModel& epc = enclave.epc();

  const std::uint64_t pages = epc.effective_capacity_pages();
  domain.touch_pages(region, 0, pages);  // warm: everything resident
  bench::stress::Rng rng(11);
  const bench::stress::Zipf zipf(pages, 1.1);

  const auto zipf_round = [&](std::uint64_t n) {
    const Cycles t0 = env.clock.now();
    for (std::uint64_t i = 0; i < n; ++i) {
      domain.touch_pages(region, zipf.sample(rng), 1);
    }
    return static_cast<double>(env.clock.now() - t0) /
           static_cast<double>(n);
  };

  const std::uint64_t round = pages * static_cast<std::uint64_t>(passes);
  const double warm_cpt = zipf_round(round);
  const std::uint64_t evictions_before = epc.stats().evictions;

  // The cut itself is bookkeeping-only (lazy eviction): no cycles move
  // until the next access pays the deferred EWB write-backs.
  const Cycles at_cut = env.clock.now();
  epc.set_limit(pages / 2);
  bench::stress::gate(env.clock.now() == at_cut,
                      "set_limit must not advance the clock");
  const double shrunk_cpt = zipf_round(round);
  const std::uint64_t drained = epc.stats().evictions - evictions_before;

  bench::stress::gate(drained >= pages - pages / 2,
                      "halving the limit must drain at least the overage");
  bench::stress::gate(shrunk_cpt > warm_cpt,
                      "a halved EPC must cost more per touch than warm");
  bench::stress::gate(epc.stats_reconcile(),
                      "EPC ledger must reconcile after the shrink");

  // Regrow: the limit lifts, the hot set refaults in, and nothing gets
  // evicted while the resident set is under the restored capacity.
  epc.set_limit(pages);
  const std::uint64_t evictions_at_regrow = epc.stats().evictions;
  const double regrown_cpt = zipf_round(round);
  bench::stress::gate(epc.stats().evictions == evictions_at_regrow,
                      "no evictions while refilling under the limit");
  bench::stress::gate(regrown_cpt < shrunk_cpt,
                      "restoring the limit must restore the cost");
  bench::stress::gate(epc.stats_reconcile(),
                      "EPC ledger must reconcile after the regrow");

  Table table({"phase", "cycles/touch", "evictions"});
  table.add_row({"warm (full limit)", format_fixed(warm_cpt, 1),
                 std::to_string(evictions_before)});
  table.add_row({"shrunk to half", format_fixed(shrunk_cpt, 1),
                 std::to_string(drained)});
  table.add_row({"regrown", format_fixed(regrown_cpt, 1), "0"});
  std::printf("\nMid-run EPC shrink (lazy eviction, %" PRIu64
              " resident pages cut to %" PRIu64 "):\n",
              pages, pages / 2);
  table.print();
  report.add_table("shrink_mid_run", table);
  report.add_metric("shrink_warm_cycles_per_touch", warm_cpt);
  report.add_metric("shrink_halved_cycles_per_touch", shrunk_cpt);
  report.add_metric("shrink_regrown_cycles_per_touch", regrown_cpt);
  report.add_metric("shrink_drained_evictions", drained);
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);

  bench::print_header("stress_epc",
                      "working-set sweeps past the EPC paging cliff");
  bench::JsonReport report("stress_epc");

  // Seven working-set points around a 6-unit usable EPC; smoke shrinks
  // the unit, not the shape, so every point keeps its capacity ratio.
  const std::uint64_t unit = (opt.smoke ? 1ull : 4ull) << 20;
  const std::uint64_t epc_bytes = 6 * unit;
  // Enough passes that the one unavoidable cold pass amortizes away:
  // below capacity the steady state is warm hits, past it every pass
  // refaults the whole set, so the cliff shows at its full height.
  const int passes = 8;
  const std::uint64_t ws_units[] = {1, 2, 4, 6, 8, 12, 16};
  report.add_metric("iterations",
                    static_cast<std::uint64_t>(6 * (unit >> 20)));

  CostModel cost_ref;
  const std::uint64_t page = cost_ref.page_bytes;
  const double fault_regime = static_cast<double>(
      cost_ref.epc_page_in_cycles + cost_ref.epc_page_out_cycles);

  Table table({"working set", "of EPC", "seq cyc/touch", "strided",
               "zipf", "seq slowdown vs ample"});
  double seq_below = 0, seq_above = 0, zipf_above = 0;
  for (const std::uint64_t u : ws_units) {
    const std::uint64_t ws_pages = u * unit / page;
    SweepPoint seq = sweep(epc_bytes, ws_pages, Pattern::kSequential, passes);
    SweepPoint str = sweep(epc_bytes, ws_pages, Pattern::kStrided, passes);
    SweepPoint zpf = sweep(epc_bytes, ws_pages, Pattern::kZipf, passes);
    // Disarmed baseline: identical sweep, EPC ample for every point.
    SweepPoint ample =
        sweep(64 * unit, ws_pages, Pattern::kSequential, passes);
    const double slowdown = seq.cycles_per_touch / ample.cycles_per_touch;

    // Same touched pages => same pressure, whatever the address span.
    bench::stress::gate(seq.faults == str.faults &&
                            seq.evictions == str.evictions,
                        "strided must fault exactly like sequential");
    if (u == 2) seq_below = seq.cycles_per_touch;
    if (u == 16) {
      seq_above = seq.cycles_per_touch;
      zipf_above = zpf.cycles_per_touch;
      // Past capacity a sequential sweep misses on every touch: the cost
      // must sit in the EWB regime (page-in + page-out dominated).
      bench::stress::gate(
          seq.cycles_per_touch > 0.8 * fault_regime,
          "deep past the cliff, cost must be page-in + page-out bound");
      bench::stress::gate(
          zpf.cycles_per_touch < 0.8 * seq.cycles_per_touch,
          "the Zipf head must keep a hot subset resident past the cliff");
    }

    const double pct = 100.0 * static_cast<double>(u) / 6.0;
    table.add_row({std::to_string(u * (unit >> 20)) + " MB",
                   format_fixed(pct, 0) + "%",
                   format_fixed(seq.cycles_per_touch, 1),
                   format_fixed(str.cycles_per_touch, 1),
                   format_fixed(zpf.cycles_per_touch, 1),
                   bench::fmt_x(slowdown)});
    const std::string key = "ws_r" + std::to_string(u * 100 / 6);
    report.add_metric(key + "_seq_cycles_per_touch", seq.cycles_per_touch);
    report.add_metric(key + "_zipf_cycles_per_touch", zpf.cycles_per_touch);
    report.add_metric(key + "_seq_faults", seq.faults);
    report.add_metric(key + "_slowdown", slowdown);
  }
  std::printf("Paging-cliff curve (usable EPC %" PRIu64 " MB, %d passes, "
              "disarmed baseline = ample EPC):\n",
              epc_bytes >> 20, passes);
  table.print();
  report.add_table("paging_cliff", table);

  bench::stress::gate(seq_above > 10.0 * seq_below,
                      "the cliff must be at least an order of magnitude");
  report.add_metric("cliff_ratio", seq_above / seq_below);
  report.add_metric("zipf_relief_ratio", seq_above / zipf_above);

  shrink_mid_run(report, epc_bytes, passes);

  std::printf(
      "\nBelow capacity every pattern runs at the warm-touch cost; past it "
      "the sequential sweep\npays page-in + page-out per touch (the EWB "
      "regime) while the Zipf head stays resident.\n");
  if (!opt.json_path.empty() && !report.write(opt.json_path)) return 1;
  return 0;
}
