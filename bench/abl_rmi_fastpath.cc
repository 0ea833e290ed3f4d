// Ablation B: the RMI hot path (interned call IDs, wire-buffer arena,
// primitive fixed-layout encoder, quickened relay targets).
//
// The quantity of interest is HOST wall-clock throughput: the hot path is
// a pure simulator optimisation and must leave every simulated cycle
// unchanged. Its speedup over the pre-overhaul string-dispatch path is
// recorded in BENCH_rmi.json; that path is gone, so the honesty contract
// is now an exact pin. Each scenario's simulated cycles must equal the
// values both paths produced while they coexisted, and the run aborts on
// a single cycle of difference.
//
// Scenarios: {hardware transition, switchless} x {all-primitive signature
// (Worker.set(int)), generic signature (Worker.set_list(List))}.
#include <chrono>
#include <cinttypes>
#include <cstdlib>

#include "apps/synthetic/generator.h"
#include "bench/bench_common.h"
#include "core/montsalvat.h"

namespace msv {
namespace {

struct Scenario {
  bool switchless;
  bool primitive;
  // Pinned simulated cycles over all passes, at --smoke and at full size.
  // The full-size values are BENCH_rmi.json's sim_cycles_* metrics.
  Cycles smoke_cycles;
  Cycles full_cycles;
};

constexpr Scenario kScenarios[] = {
    {false, true, 2'074'920'000, 181'555'500'423},
    {false, false, 2'201'328'000, 192'616'630'450},
    {true, true, 107'720'000, 9'425'500'018},
    {true, false, 234'128'000, 20'486'630'045},
};

struct RunResult {
  double wall_sec = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t fast_path_calls = 0;
};

RunResult run(bool switchless, bool primitive, std::int64_t n, int reps) {
  core::AppConfig config;
  config.switchless_relays = switchless;
  core::PartitionedApp app(apps::synthetic::build_micro_app(), config);
  auto& u = app.untrusted_context();

  const rt::Value w = u.construct("Worker", {});
  const model::ClassDecl& proxy_cls = u.classes().cls("Worker");
  const model::MethodDecl* stub =
      proxy_cls.find_method(primitive ? "set" : "set_list");
  std::vector<rt::Value> args;
  if (primitive) {
    args.push_back(rt::Value(std::int32_t{7}));
  } else {
    args.push_back(rt::Value(rt::ValueList{
        rt::Value(std::int32_t{1}), rt::Value(std::int32_t{2}),
        rt::Value(std::int32_t{3})}));
  }

  // Warm-up: resolve plans, fault in the arena, settle the registries.
  for (int i = 0; i < 64; ++i) {
    app.rmi().invoke_proxy(u, w.as_ref(), proxy_cls, *stub, args);
  }

  // Best-of-`reps` wall clock: the host is a shared machine and the
  // minimum over several identical passes is the standard estimator for a
  // CPU-bound loop. Simulated cycles accumulate over ALL passes (the
  // pinned totals).
  RunResult r;
  const Cycles sim0 = app.env().clock.now();
  const std::uint64_t fp0 = app.rmi().stats().fast_path_calls;
  for (int rep = 0; rep < reps; ++rep) {
    const auto wall0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      app.rmi().invoke_proxy(u, w.as_ref(), proxy_cls, *stub, args);
    }
    const auto wall1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(wall1 - wall0).count();
    if (rep == 0 || wall < r.wall_sec) r.wall_sec = wall;
  }
  r.sim_cycles = app.env().clock.now() - sim0;
  r.fast_path_calls =
      (app.rmi().stats().fast_path_calls - fp0) / static_cast<unsigned>(reps);
  return r;
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
  const std::int64_t n = opt.smoke ? 2'000 : 50'000;
  const int reps = opt.smoke ? 2 : 7;

  bench::print_header("Ablation B",
                      "RMI hot path: interned IDs + buffer arena + "
                      "primitive encoder (host wall-clock)");

  Table table({"mode", "signature", "calls/s", "sim cycles", "pin"});
  bench::JsonReport report("abl_rmi_fastpath");
  report.add_metric("invocations", static_cast<std::uint64_t>(n));

  bool ok = true;
  for (const Scenario& s : kScenarios) {
    const RunResult r = run(s.switchless, s.primitive, n, reps);
    const Cycles pinned = opt.smoke ? s.smoke_cycles : s.full_cycles;
    const bool pin_ok = r.sim_cycles == pinned;
    if (!pin_ok) {
      std::fprintf(stderr,
                   "FATAL: simulated cycles %" PRIu64 " differ from the pinned "
                   "%" PRIu64 " — the hot path changed results\n",
                   r.sim_cycles, pinned);
      ok = false;
    }
    if (s.primitive && r.fast_path_calls != static_cast<std::uint64_t>(n)) {
      std::fprintf(stderr,
                   "FATAL: primitive fast path engaged on %" PRIu64
                   " of %" PRId64 " calls\n",
                   r.fast_path_calls, n);
      ok = false;
    }

    const double cps = static_cast<double>(n) / r.wall_sec;
    const std::string mode = s.switchless ? "switchless" : "transition";
    const std::string sig = s.primitive ? "primitive" : "generic";
    table.add_row({mode, sig, format_fixed(cps / 1e6, 2) + "M",
                   std::to_string(r.sim_cycles),
                   pin_ok ? "match" : "MISMATCH"});
    const std::string key = mode + "_" + sig;
    report.add_metric("calls_per_sec_" + key, cps);
    report.add_metric("sim_cycles_" + key, r.sim_cycles);
  }
  table.print();
  std::printf(
      "\nSimulated cycles are pinned to the values the pre-overhaul path "
      "also produced\n(BENCH_rmi.json records its speedup): only host time "
      "may change.\n");
  if (!opt.json_path.empty()) {
    report.add_table("rmi_fastpath", table);
    if (!report.write(opt.json_path)) return 1;
  }
  return ok ? 0 : 1;
}
