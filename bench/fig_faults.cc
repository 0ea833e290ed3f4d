// Fault-injection figure (DESIGN.md §12): availability and tail latency of
// the multi-tenant enclave server under a seeded, deterministic fault plan.
//
// Two sweeps over a 4-tenant open-loop bank workload with recovery enabled
// (bounded retry with exponential backoff, enclave restart + sealed
// checkpoint restore, load shedding mid-recovery):
//
//   1. Enclave-loss rate: 0..8 losses over the run window. Each loss
//      surfaces mid-ecall as SGX_ERROR_ENCLAVE_LOST; the first worker to
//      trip over it restarts the enclave, re-measures the image and
//      restores every tenant from its latest sealed checkpoint while
//      admission sheds.
//   2. Fault storm: losses + transient transition failures + EPC pressure
//      windows + TCS seizure bursts + sealed-blob corruption, all at once.
//
// Determinism contract (ISSUE 5 acceptance): the storm scenario runs twice
// with the same plan seed and the run aborts unless both runs agree on the
// final simulated clock, the latency-cycle sum, every availability counter
// and the injector's own event counters. Under the storm the server must
// stay partially available: some requests complete, some are lost to
// shedding or retry exhaustion, and at least one enclave restart happens.
#include <cinttypes>
#include <string>

#include "apps/illustrative/bank.h"
#include "bench/bench_common.h"
#include "core/app.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "sched/scheduler.h"
#include "server/harness.h"
#include "server/server.h"
#include "support/error.h"

namespace msv {
namespace {

constexpr std::uint32_t kTenants = 4;

struct FaultRunResult {
  server::HarnessReport report;
  faults::FaultInjectorStats injected;
  std::uint64_t restarts = 0;
  std::uint64_t offered = 0;  // accepted + shed
  std::uint64_t checkpoints = 0;
  std::uint64_t restored = 0;
  std::uint64_t checkpoint_corrupt = 0;
  std::uint64_t shed_recovery = 0;
};

double availability(const FaultRunResult& r) {
  return r.offered == 0 ? 1.0
                        : static_cast<double>(r.report.completed) /
                              static_cast<double>(r.offered);
}

FaultRunResult run_faulty_workload(const server::ServerConfig& srv_cfg,
                                   const server::OpenLoopSpec& spec,
                                   const faults::FaultPlanConfig& fault_cfg) {
  core::PartitionedApp app(apps::build_bank_app(), kTenants, {});
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, srv_cfg);

  // Start first — session construction must not race the plan — then
  // shift the plan window to "now" so every event lands inside the run.
  srv.start();
  const Cycles run_start = app.env().clock.now();
  const faults::FaultPlan generated = faults::FaultPlan::generate(fault_cfg);
  faults::FaultPlan plan;
  for (faults::FaultEvent e : generated.events()) {
    e.at += run_start;
    plan.add(e);
  }
  faults::FaultInjector injector(app.env(), std::move(plan));
  injector.arm(app.enclave());
  srv.attach_fault_injector(injector);
  app.bridge().attach_fault_injector(&injector);

  server::LoadHarness harness(srv);
  FaultRunResult r;
  r.report = harness.run_open_loop(spec);
  // Detach before teardown ecalls (stop() must not consume plan leftovers).
  app.bridge().attach_fault_injector(nullptr);
  r.injected = injector.stats();
  r.restarts = srv.restarts();
  for (std::uint32_t t = 0; t < srv.tenant_count(); ++t) {
    const server::TenantStats& ts = srv.tenant_stats(t);
    r.offered += ts.accepted + ts.shed;
    r.checkpoints += ts.checkpoints;
    r.restored += ts.restored;
    r.checkpoint_corrupt += ts.checkpoint_corrupt;
    r.shed_recovery += ts.shed_recovery;
  }
  srv.stop();
  return r;
}

std::string fmt_us(double us) { return format_fixed(us, 1) + "us"; }

std::string fmt_pct(double frac) { return format_fixed(frac * 100.0, 2) + "%"; }

void add_fault_metrics(bench::JsonReport& report, const std::string& key,
                       const FaultRunResult& r) {
  report.add_metric(key + "_availability_pct", availability(r) * 100.0);
  report.add_metric(key + "_offered", r.offered);
  report.add_metric(key + "_completed", r.report.completed);
  report.add_metric(key + "_failed", r.report.failed);
  report.add_metric(key + "_shed", r.report.shed);
  report.add_metric(key + "_retries", r.report.retries);
  report.add_metric(key + "_restarts", r.restarts);
  report.add_metric(key + "_checkpoints", r.checkpoints);
  report.add_metric(key + "_restored", r.restored);
  report.add_metric(key + "_checkpoint_corrupt", r.checkpoint_corrupt);
  report.add_metric(key + "_p50_us", r.report.aggregate.p50_us);
  report.add_metric(key + "_p99_us", r.report.aggregate.p99_us);
  report.add_metric(key + "_final_clock_cycles", r.report.final_clock);
  report.add_metric(key + "_latency_cycle_sum", r.report.latency_cycle_sum);
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t requests = opt.smoke ? 80 : 300;

  bench::print_header("Faults & recovery",
                      "4-tenant open-loop serving under a seeded fault plan: "
                      "loss-rate sweep, full fault storm");
  bench::JsonReport report("fig_faults");
  report.add_metric("tenants", static_cast<std::uint64_t>(kTenants));
  report.add_metric("requests_per_tenant", requests);

  server::OpenLoopSpec spec;
  spec.requests_per_tenant = requests;
  spec.mean_interarrival_cycles = 400'000;

  server::ServerConfig srv_cfg;
  srv_cfg.max_queue_depth = 256;
  srv_cfg.recovery.enabled = true;
  srv_cfg.recovery.checkpoint_every = 4;
  srv_cfg.recovery.max_attempts = 5;

  faults::FaultPlanConfig base_faults;
  base_faults.seed = 7;
  // The service window: the arrival window plus the drain tail (the
  // backlog serves well past the last arrival), so late faults hit a
  // server that has sealed checkpoints worth restoring.
  base_faults.horizon =
      static_cast<Cycles>(requests) * spec.mean_interarrival_cycles * 4;
  base_faults.epc_spike_cycles = base_faults.horizon / 8;
  base_faults.tcs_burst_cycles = base_faults.horizon / 12;

  // --- Sweep 1: enclave-loss rate -----------------------------------------
  {
    Table table({"losses", "availability", "completed", "shed", "failed",
                 "retries", "restarts", "restored", "p50", "p99"});
    for (const std::uint32_t losses : {0u, 1u, 2u, 4u, 8u}) {
      faults::FaultPlanConfig fc = base_faults;
      fc.enclave_losses = losses;
      const FaultRunResult r = run_faulty_workload(srv_cfg, spec, fc);
      MSV_CHECK_MSG(r.injected.enclave_losses == 0 || r.restarts >= 1,
                    "an injected loss must force at least one restart");
      if (losses == 0) {
        MSV_CHECK_MSG(r.report.completed == r.offered &&
                          r.report.failed == 0 && r.restarts == 0,
                      "fault-free run must complete every request");
      }
      table.add_row({std::to_string(losses), fmt_pct(availability(r)),
                     std::to_string(r.report.completed),
                     std::to_string(r.report.shed),
                     std::to_string(r.report.failed),
                     std::to_string(r.report.retries),
                     std::to_string(r.restarts),
                     std::to_string(r.restored),
                     fmt_us(r.report.aggregate.p50_us),
                     fmt_us(r.report.aggregate.p99_us)});
      add_fault_metrics(report, "loss_" + std::to_string(losses), r);
    }
    std::printf("Enclave-loss sweep (%u tenants, %" PRIu64
                " requests/tenant, checkpoint every %u):\n",
                kTenants, requests, srv_cfg.recovery.checkpoint_every);
    table.print();
    report.add_table("loss_sweep", table);
    std::printf(
        "\nEach loss surfaces mid-ecall; recovery re-measures the image, "
        "restores sealed checkpoints\nand sheds admission meanwhile — the "
        "availability dip and the p99 knee are the cost of a loss.\n");
  }

  // --- Sweep 2: full fault storm + determinism self-check ------------------
  {
    faults::FaultPlanConfig storm = base_faults;
    // Twice the base window: the late half of the storm lands in the
    // drain tail, where sealed checkpoints exist to restore (and to
    // corrupt) — the early half exercises the empty-checkpoint path.
    storm.horizon = base_faults.horizon * 2;
    storm.enclave_losses = 8;
    storm.transition_failures = 16;
    storm.epc_spikes = 2;
    storm.tcs_bursts = 2;
    storm.blob_corruptions = 3;

    const FaultRunResult a = run_faulty_workload(srv_cfg, spec, storm);

    Table table({"metric", "value"});
    table.add_row({"availability", fmt_pct(availability(a))});
    table.add_row({"offered", std::to_string(a.offered)});
    table.add_row({"completed", std::to_string(a.report.completed)});
    table.add_row({"shed (mid-recovery)",
                   std::to_string(a.report.shed) + " (" +
                       std::to_string(a.shed_recovery) + ")"});
    table.add_row({"failed", std::to_string(a.report.failed)});
    table.add_row({"retries absorbed", std::to_string(a.report.retries)});
    table.add_row({"enclave restarts", std::to_string(a.restarts)});
    table.add_row({"checkpoints sealed", std::to_string(a.checkpoints)});
    table.add_row({"checkpoints restored", std::to_string(a.restored)});
    table.add_row(
        {"corrupt checkpoints rejected", std::to_string(a.checkpoint_corrupt)});
    table.add_row({"p50 / p99",
                   fmt_us(a.report.aggregate.p50_us) + " / " +
                       fmt_us(a.report.aggregate.p99_us)});
    std::printf("\nFault storm (losses=%u, transition failures=%u, EPC "
                "spikes=%u, TCS bursts=%u, corruptions=%u):\n",
                storm.enclave_losses, storm.transition_failures,
                storm.epc_spikes, storm.tcs_bursts, storm.blob_corruptions);
    table.print();
    std::fflush(stdout);

    const FaultRunResult b = run_faulty_workload(srv_cfg, spec, storm);
    MSV_CHECK_MSG(a.report.final_clock == b.report.final_clock,
                  "same fault plan, different simulated-cycle totals");
    MSV_CHECK_MSG(a.report.latency_cycle_sum == b.report.latency_cycle_sum,
                  "same fault plan, different latency cycle sums");
    MSV_CHECK_MSG(a.report.completed == b.report.completed &&
                      a.report.failed == b.report.failed &&
                      a.report.shed == b.report.shed &&
                      a.report.retries == b.report.retries &&
                      a.restarts == b.restarts,
                  "same fault plan, different availability counters");
    MSV_CHECK_MSG(a.injected.enclave_losses == b.injected.enclave_losses &&
                      a.injected.transition_failures ==
                          b.injected.transition_failures &&
                      a.injected.epc_spikes == b.injected.epc_spikes &&
                      a.injected.tcs_bursts == b.injected.tcs_bursts &&
                      a.injected.blob_corruptions ==
                          b.injected.blob_corruptions,
                  "same fault plan, different injected-event counts");
    // Degraded, not dead: the storm must cost availability without
    // flatlining the service.
    MSV_CHECK_MSG(a.report.completed > 0,
                  "storm run must keep completing requests");
    MSV_CHECK_MSG(a.report.completed < a.offered,
                  "storm run must lose some requests (shed or failed)");
    MSV_CHECK_MSG(a.restarts >= 1, "storm run must restart the enclave");
    MSV_CHECK_MSG(a.report.retries > 0, "storm run must absorb retries");
    report.add_table("storm", table);
    std::printf("\ndeterminism self-check: two storm runs, identical clock "
                "(%" PRIu64 " cycles), latency sum,\navailability counters "
                "and injected-event counts\n",
                a.report.final_clock);
    add_fault_metrics(report, "storm", a);
    report.add_metric("storm_shed_recovery", a.shed_recovery);
    report.add_metric("determinism_final_clock_cycles", a.report.final_clock);
  }

  if (!opt.json_path.empty()) {
    if (!report.write(opt.json_path)) return 1;
  }
  return 0;
}
