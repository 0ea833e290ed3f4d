// Ablation: batched RMI (DESIGN.md §13).
//
// Every unbatched proxy invocation pays a full enclave transition
// (cost.ecall_cycles = 13,100) plus the callee-side isolate attach
// (480,000 cycles for the trusted image). ProxyRuntime::invoke_batch —
// the batching path the request server's coalescing runs — packs N
// invocations into one wire frame dispatched by ONE transition and ONE
// attach, so — unlike abl_rmi_fastpath, which is a pure simulator
// optimisation — the quantity of interest here is SIMULATED-cycle
// throughput: the batch genuinely changes what the modelled hardware does.
//
// Honesty contract (abl_rmi_fastpath discipline): a batch of one takes
// the unbatched wire path byte for byte, so width 1's simulated cycles
// must be IDENTICAL to the synchronous loop. The run aborts on a single
// cycle of divergence. The acceptance gate asserts >= 5x simulated-cycle
// throughput at widths >= 16.
//
// The sync loop and every width are also pinned to exact simulated
// cycles, so any drift in the batch frame, its charges or the single-call
// path fails the run (exit 1, FATAL on stderr).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/synthetic/generator.h"
#include "bench/bench_common.h"
#include "core/montsalvat.h"

namespace msv {
namespace {

// Pinned simulated cycles at --smoke and at full size; the full-size
// values are BENCH_rmi_batch.json's.
constexpr Cycles kPinnedSyncSmoke = 1'062'359'040;
constexpr Cycles kPinnedSyncFull = 33'995'489'352;
struct PinnedWidth {
  std::int64_t width;
  Cycles smoke_cycles;
  Cycles full_cycles;
};
constexpr PinnedWidth kPinnedWidths[] = {
    {1, 1'062'359'040, 33'995'489'352}, {2, 556'815'360, 17'818'091'556},
    {4, 304'041'472, 9'729'327'122},    {8, 177'654'016, 5'684'928'521},
    {16, 114'460'288, 3'662'729'216},   {32, 82'863'552, 2'651'633'664},
    {64, 67'065'184, 2'146'085'888}};

bool matches_pin(const std::string& row, Cycles cycles, Cycles pinned) {
  if (cycles == pinned) return true;
  std::fprintf(stderr,
               "FATAL: %s took %" PRIu64 " simulated cycles, pinned %" PRIu64
               " — batching changed results\n",
               row.c_str(), cycles, pinned);
  return false;
}

struct RunResult {
  std::uint64_t sim_cycles = 0;
  std::uint64_t transitions = 0;  // RMI-layer bridge round trips
  std::int32_t final_value = 0;
};

// Synchronous baseline: n proxy invocations, one transition each.
RunResult run_sync(std::int64_t n) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const rt::Value w = u.construct("Worker", {});
  const model::ClassDecl& proxy_cls = u.classes().cls("Worker");
  const model::MethodDecl* set = proxy_cls.find_method("set");
  std::vector<rt::Value> args{rt::Value(std::int32_t{0})};
  for (int i = 0; i < 64; ++i) {  // warm-up: plans, arena, registries
    app.rmi().invoke_proxy(u, w.as_ref(), proxy_cls, *set, args);
  }

  RunResult r;
  const Cycles sim0 = app.env().clock.now();
  const std::uint64_t t0 = app.rmi().stats().transitions;
  for (std::int64_t i = 0; i < n; ++i) {
    args[0] = rt::Value(static_cast<std::int32_t>(i));
    app.rmi().invoke_proxy(u, w.as_ref(), proxy_cls, *set, args);
  }
  r.sim_cycles = app.env().clock.now() - sim0;
  r.transitions = app.rmi().stats().transitions - t0;
  r.final_value = u.invoke(w.as_ref(), "get", {}).as_i32();
  return r;
}

// Batched: n invocations packed `width` at a time into one invoke_batch
// each (one transition per batch).
RunResult run_batched(std::int64_t n, std::int64_t width) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const rt::Value w = u.construct("Worker", {});
  const model::ClassDecl& proxy_cls = u.classes().cls("Worker");
  const model::MethodDecl* set = proxy_cls.find_method("set");
  std::vector<rt::Value> args{rt::Value(std::int32_t{0})};
  for (int i = 0; i < 64; ++i) {
    app.rmi().invoke_proxy(u, w.as_ref(), proxy_cls, *set, args);
  }
  std::vector<rmi::ProxyRuntime::BatchCall> calls(width);
  for (auto& c : calls) {
    c.proxy = w.as_ref();
    c.stub = set;
    c.args = args;
  }

  RunResult r;
  const Cycles sim0 = app.env().clock.now();
  const std::uint64_t t0 = app.rmi().stats().transitions;
  for (std::int64_t i = 0; i < n; i += width) {
    for (std::int64_t k = 0; k < width; ++k) {
      calls[k].args[0] = rt::Value(static_cast<std::int32_t>(i + k));
    }
    app.rmi().invoke_batch(calls);
  }
  r.sim_cycles = app.env().clock.now() - sim0;
  r.transitions = app.rmi().stats().transitions - t0;
  r.final_value = u.invoke(w.as_ref(), "get", {}).as_i32();
  return r;
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
  // Divisible by every width below so each pass issues exactly n calls.
  const std::int64_t n = opt.smoke ? 2'048 : 65'536;

  bench::print_header("Ablation: batched RMI",
                      "N calls per transition: ProxyRuntime::invoke_batch "
                      "(simulated cycles)");

  const RunResult sync = run_sync(n);
  const double sync_tput = static_cast<double>(n) / sync.sim_cycles;

  Table table({"batch width", "sim cycles", "transitions", "cycles/call",
               "speedup"});
  table.add_row({"sync", std::to_string(sync.sim_cycles),
                 std::to_string(sync.transitions),
                 std::to_string(sync.sim_cycles / static_cast<std::uint64_t>(n)),
                 bench::fmt_x(1.0)});

  bench::JsonReport report("abl_rmi_batch");
  report.add_metric("invocations", static_cast<std::uint64_t>(n));
  report.add_metric("sync_sim_cycles", sync.sim_cycles);

  bool ok = matches_pin("the sync loop", sync.sim_cycles,
                        opt.smoke ? kPinnedSyncSmoke : kPinnedSyncFull);
  for (const PinnedWidth& pin : kPinnedWidths) {
    const std::int64_t width = pin.width;
    const RunResult b = run_batched(n, width);
    ok = matches_pin("width " + std::to_string(width), b.sim_cycles,
                     opt.smoke ? pin.smoke_cycles : pin.full_cycles) &&
         ok;
    if (b.final_value != sync.final_value) {
      std::fprintf(stderr,
                   "FATAL: width %" PRId64 " final value %d != sync %d\n",
                   width, b.final_value, sync.final_value);
      ok = false;
    }
    // Honesty contract: a batch of one IS the unbatched call.
    if (width == 1 && b.sim_cycles != sync.sim_cycles) {
      std::fprintf(stderr,
                   "FATAL: width-1 simulated cycles diverge (sync %" PRIu64
                   ", batched %" PRIu64 ") — batching changed the "
                   "single-call wire path\n",
                   sync.sim_cycles, b.sim_cycles);
      ok = false;
    }
    const double speedup =
        static_cast<double>(n) / b.sim_cycles / sync_tput;
    // Acceptance gate: the 13,100-cycle transition and the 480k-cycle
    // isolate attach amortize across the batch.
    if (width >= 16 && speedup < 5.0) {
      std::fprintf(stderr,
                   "FATAL: width %" PRId64 " speedup %.2fx < 5x gate\n",
                   width, speedup);
      ok = false;
    }
    table.add_row({std::to_string(width),
                   std::to_string(b.sim_cycles), std::to_string(b.transitions),
                   std::to_string(b.sim_cycles / static_cast<std::uint64_t>(n)),
                   bench::fmt_x(speedup)});
    const std::string key = "w" + std::to_string(width);
    report.add_metric("sim_cycles_" + key, b.sim_cycles);
    report.add_metric("transitions_" + key, b.transitions);
    report.add_metric("speedup_" + key, speedup);
  }
  table.print();
  std::printf(
      "\nBatch width 1 is asserted cycle-identical to the synchronous loop "
      "(a batch of one\ntakes the unbatched wire path); wider batches pay "
      "the transition and isolate\nattach once per invoke_batch frame.\n");
  if (!opt.json_path.empty()) {
    report.add_table("rmi_batch", table);
    if (!report.write(opt.json_path)) return 1;
  }
  return ok ? 0 : 1;
}
