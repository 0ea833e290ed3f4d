// Enclave-fleet figure (DESIGN.md §14): consistent-hash sharding, passive
// replicas, and failover routing under Zipfian multi-tenant load.
//
// Three scenarios over a 64-tenant bank workload (Zipf s=1.1, one
// fleet-wide open-loop Poisson arrival process):
//
//   1. Shard-count sweep: 2/4/8 enclaves, no faults. Throughput scales
//      with shards while the ring keeps per-shard residency balanced.
//   2. Loss-with-failover storm: targeted enclave-loss events against a
//      4-shard fleet, replication OFF (restart-and-restore ladder) vs ON
//      (warm-standby promotion). Acceptance gate: the restart fleet's
//      p99 must be at least 3x the promoted fleet's p99.
//   3. Hot-tenant migration: mid-run, the Zipf head tenant is drained
//      behind the coalescing fence and moved to the coldest shard.
//   4. Health-under-storm (DESIGN.md §16): the restart-ladder storm again,
//      now with the SLO monitor, the flight recorder and the sampling
//      profiler armed. Gates: the monitor flags every injured shard
//      degraded no later than its recovery ladder fires, every enclave
//      loss yields a post-mortem, arming the health stack costs zero
//      simulated cycles, and two armed runs emit byte-identical health
//      report / post-mortem bundle / folded stacks.
//
// Determinism contract: the replicated storm scenario runs twice with
// full tracing; the bench aborts unless both runs agree on the final
// simulated clock, the latency-cycle sum, every fleet counter, and the
// rendered trace JSON and metrics text byte-for-byte — fleet-wide, across
// every enclave, worker, and injector.
#include <algorithm>
#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "apps/illustrative/bank.h"
#include "bench/bench_common.h"
#include "faults/plan.h"
#include "fleet/load.h"
#include "fleet/router.h"
#include "sched/scheduler.h"
#include "support/error.h"
#include "telemetry/adapters.h"
#include "telemetry/export.h"
#include "telemetry/flight.h"
#include "telemetry/sampler.h"
#include "telemetry/slo.h"

namespace msv {
namespace {

constexpr std::uint32_t kTenants = 64;

struct FleetRunResult {
  fleet::FleetLoadReport rep;
  fleet::FleetStats stats;
  std::vector<server::RecoveryStats> shards;
  std::vector<std::uint32_t> residents;
  std::string trace_json;
  std::string metrics_text;
  // Health-stack artifacts (scenario 4; empty unless sc.health).
  std::string health_report;
  std::string postmortem_bundle;
  std::string folded_stacks;
  std::uint64_t postmortems = 0;
  std::uint64_t losses_injected = 0;
  std::uint64_t profile_samples = 0;
  // Per shard: when the monitor first held it degraded (0 = never).
  std::vector<Cycles> first_degraded;
};

struct FleetScenario {
  std::uint32_t shards = 4;
  bool replication = false;
  std::uint32_t shard_losses = 0;  // targeted loss storm (plan seed below)
  bool migrate_hottest = false;    // mid-run hot-tenant migration
  bool health = false;  // arm SLO monitor + flight recorder + profiler
  telemetry::TraceMode trace = telemetry::TraceMode::kOff;
};

FleetRunResult run_fleet(const FleetScenario& sc,
                         const fleet::FleetLoadSpec& spec) {
  const model::AppModel model = apps::build_bank_app();
  Env env;
  telemetry::TraceConfig tc;
  tc.mode = sc.trace;
  env.telemetry.configure(tc);
  sched::Scheduler sched(env);

  fleet::FleetConfig fc;
  fc.shards = sc.shards;
  fc.tenants = kTenants;
  fc.shard.replication = sc.replication;
  fc.shard.shared_workers = 2;
  fc.shard.coalesce_max = 4;
  fc.shard.recovery.enabled = true;
  fc.shard.recovery.checkpoint_every = 2;
  fc.slo_enabled = sc.health;  // observe mode: no routing change
  fleet::FleetRouter router(env, sched, model, fc);

  // The health stack attaches *before* start(): the SLO monitor via the
  // router config, the flight bus on the telemetry spine, the profiler on
  // the scheduler. None of them ever advances the virtual clock, so the
  // armed run's cycle totals must equal the unarmed run's exactly — the
  // "overhead" gate scenario 4 asserts.
  std::unique_ptr<telemetry::FlightBus> flight;
  std::unique_ptr<telemetry::SampleProfiler> sampler;
  if (sc.health) {
    flight = std::make_unique<telemetry::FlightBus>(env.telemetry);
    env.telemetry.set_flight(flight.get());
    sampler = std::make_unique<telemetry::SampleProfiler>(
        env.clock, env.telemetry.tracer(), /*interval_cycles=*/1'000'000);
    sched.set_sampler(sampler.get());
  }
  router.start();

  if (sc.shard_losses > 0) {
    // Start first, then shift the plan window to "now": losses land while
    // the fleet is serving, never during setup.
    const Cycles run_start = env.clock.now();
    faults::FaultPlanConfig pc;
    pc.seed = 11;
    pc.horizon = static_cast<Cycles>(spec.requests) *
                 spec.mean_interarrival_cycles;
    pc.fleet_shards = sc.shards;
    pc.shard_losses = sc.shard_losses;
    // Named: a range-for over generate(pc).events() would iterate a
    // member of a temporary destroyed before the loop body runs.
    const faults::FaultPlan generated = faults::FaultPlan::generate(pc);
    faults::FaultPlan plan;
    for (faults::FaultEvent e : generated.events()) {
      e.at += run_start;
      plan.add(e);
    }
    router.attach_fault_plan(plan);
  }

  if (sc.migrate_hottest) {
    // Half-window in, move the Zipf head tenant to the shard with the
    // least traffic so far. Spawned before the generator: deterministic
    // interleaving under the fiber scheduler.
    sched.spawn("migrator", [&] {
      sched.sleep_for(static_cast<Cycles>(spec.requests / 2) *
                      spec.mean_interarrival_cycles);
      const std::uint32_t hot = router.hottest_tenant();
      const std::uint32_t from = router.shard_of(hot);
      std::uint32_t coldest = from;
      std::uint64_t best = ~0ull;
      for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
        if (k == from) continue;
        if (router.shard(k).totals().accepted < best) {
          best = router.shard(k).totals().accepted;
          coldest = k;
        }
      }
      router.migrate_tenant(hot, coldest);
    });
  }

  fleet::FleetLoad load(router);
  FleetRunResult r;
  r.rep = load.run(spec);
  r.stats = router.stats();
  for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
    r.shards.push_back(router.shard(k).stats());
    r.residents.push_back(router.shard(k).tenant_count());
    if (const faults::FaultInjector* inj = router.injector_for(k)) {
      r.losses_injected += inj->stats().enclave_losses;
    }
  }
  telemetry::Telemetry& tel = env.telemetry;
  if (tel.metrics_enabled()) {
    router.publish_metrics();
    telemetry::publish_scheduler(tel.metrics(), sched.stats());
    telemetry::publish_tracer_self(tel.metrics(), tel.tracer());
    if (flight != nullptr) flight->publish(tel.metrics());
    if (sampler != nullptr) sampler->publish(tel.metrics());
    r.metrics_text = telemetry::prometheus_text(tel.metrics());
  }
  if (tel.tracing_enabled()) {
    r.trace_json = telemetry::chrome_trace_json(tel.tracer(), env.clock.hz());
  }
  if (sc.health) {
    telemetry::SloMonitor& slo = *router.slo();
    r.health_report = slo.report(env.clock.hz());
    for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
      r.first_degraded.push_back(
          slo.first_entered(k, telemetry::HealthState::kDegraded));
    }
    r.postmortem_bundle = flight->bundle_json(env.clock.hz());
    r.postmortems = flight->post_mortems().size();
    r.folded_stacks = sampler->folded();
    r.profile_samples = sampler->samples();
  }
  router.stop();
  // Detach before the bus/profiler die (the scheduler and telemetry spine
  // outlive this frame only inside run_fleet, but stay tidy regardless).
  sched.set_sampler(nullptr);
  env.telemetry.set_flight(nullptr);
  return r;
}

std::string fmt_us(double us) { return format_fixed(us, 1) + "us"; }

std::string fmt_krps(double rps) {
  return format_fixed(rps / 1e3, 1) + "k/s";
}

void add_fleet_metrics(bench::JsonReport& report, const std::string& key,
                       const FleetRunResult& r) {
  report.add_metric(key + "_accepted", r.stats.accepted);
  report.add_metric(key + "_completed", r.stats.completed);
  report.add_metric(key + "_shed", r.stats.shed);
  report.add_metric(key + "_failed", r.stats.failed);
  report.add_metric(key + "_retries", r.stats.retries);
  report.add_metric(key + "_promotions", r.stats.promotions);
  report.add_metric(key + "_restarts", r.stats.restarts);
  report.add_metric(key + "_replicated_blobs", r.stats.replicated_blobs);
  report.add_metric(key + "_replicated_bytes", r.stats.replicated_bytes);
  report.add_metric(key + "_recovery_cycles", r.stats.recovery_cycles);
  report.add_metric(key + "_p50_us", r.rep.aggregate.p50_us);
  report.add_metric(key + "_p99_us", r.rep.aggregate.p99_us);
  report.add_metric(key + "_throughput_rps", r.rep.throughput_rps);
  report.add_metric(key + "_final_clock_cycles", r.rep.final_clock);
  report.add_metric(key + "_latency_cycle_sum", r.rep.latency_cycle_sum);
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t requests = opt.smoke ? 2'000 : 6'000;

  bench::print_header(
      "Enclave fleet",
      "64-tenant Zipfian load over sharded enclaves: ring scaling, "
      "loss-with-failover storm, hot-tenant migration");
  bench::JsonReport report("fig_fleet");
  report.add_metric("tenants", static_cast<std::uint64_t>(kTenants));
  report.add_metric("requests", requests);

  // Every ecall advances the one shared virtual clock, so fleet capacity
  // is serial: ~430k cycles/request (~8.8k req/s at 3.8GHz) regardless of
  // shard count. Offer ~3.2k req/s (36% utilization): queueing stays
  // shallow and the tail belongs to the recovery path under test, while a
  // 20M-cycle inline restart still backs up far more than 1% of arrivals.
  fleet::FleetLoadSpec spec;
  spec.requests = requests;
  spec.mean_interarrival_cycles = 1'200'000;
  spec.zipf_s = 1.1;
  spec.seed = 42;

  // --- Scenario 1: shard-count sweep --------------------------------------
  {
    Table table({"shards", "residents min/max", "completed", "shed",
                 "throughput", "p50", "p99"});
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      FleetScenario sc;
      sc.shards = shards;
      const FleetRunResult r = run_fleet(sc, spec);
      std::uint32_t rmin = kTenants, rmax = 0;
      for (const std::uint32_t n : r.residents) {
        rmin = std::min(rmin, n);
        rmax = std::max(rmax, n);
      }
      MSV_CHECK_MSG(rmin > 0, "the ring must use every shard");
      MSV_CHECK_MSG(r.stats.failed == 0,
                    "fault-free sweep must not fail requests");
      table.add_row({std::to_string(shards),
                     std::to_string(rmin) + "/" + std::to_string(rmax),
                     std::to_string(r.stats.completed),
                     std::to_string(r.stats.shed),
                     fmt_krps(r.rep.throughput_rps),
                     fmt_us(r.rep.aggregate.p50_us),
                     fmt_us(r.rep.aggregate.p99_us)});
      add_fleet_metrics(report, "shards_" + std::to_string(shards), r);
    }
    std::printf("Shard-count sweep (%u tenants, Zipf s=%.1f, %" PRIu64
                " fleet-wide requests):\n",
                kTenants, spec.zipf_s, requests);
    table.print();
    report.add_table("shard_sweep", table);
    std::printf(
        "\nOne arrival process fans out over the ring; more enclaves = more "
        "parallel isolates serving\nthe same tenant population.\n");
  }

  // --- Scenario 2: loss storm, restart ladder vs replica promotion ---------
  double restart_p99 = 0, promoted_p99 = 0;
  {
    const std::uint32_t losses = opt.smoke ? 4 : 8;
    FleetScenario restart;
    restart.shards = 4;
    restart.replication = false;
    restart.shard_losses = losses;
    FleetScenario promote = restart;
    promote.replication = true;
    // The promoted run carries full tracing: it doubles as run A of the
    // determinism self-check below.
    promote.trace = telemetry::TraceMode::kFull;

    const FleetRunResult a = run_fleet(restart, spec);
    const FleetRunResult b = run_fleet(promote, spec);
    restart_p99 = a.rep.aggregate.p99_us;
    promoted_p99 = b.rep.aggregate.p99_us;

    Table table({"mode", "completed", "shed", "failed", "promotions",
                 "restarts", "recovery cycles", "p50", "p99"});
    table.add_row({"restart-and-restore", std::to_string(a.stats.completed),
                   std::to_string(a.stats.shed),
                   std::to_string(a.stats.failed),
                   std::to_string(a.stats.promotions),
                   std::to_string(a.stats.restarts),
                   std::to_string(a.stats.recovery_cycles),
                   fmt_us(a.rep.aggregate.p50_us),
                   fmt_us(a.rep.aggregate.p99_us)});
    table.add_row({"replica promotion", std::to_string(b.stats.completed),
                   std::to_string(b.stats.shed),
                   std::to_string(b.stats.failed),
                   std::to_string(b.stats.promotions),
                   std::to_string(b.stats.restarts),
                   std::to_string(b.stats.recovery_cycles),
                   fmt_us(b.rep.aggregate.p50_us),
                   fmt_us(b.rep.aggregate.p99_us)});
    std::printf("\nLoss-with-failover storm (4 shards, %u targeted enclave "
                "losses):\n",
                losses);
    table.print();
    report.add_table("loss_storm", table);
    add_fleet_metrics(report, "storm_restart", a);
    add_fleet_metrics(report, "storm_promote", b);

    MSV_CHECK_MSG(a.losses_injected == losses && b.losses_injected == losses,
                  "every planned enclave loss must be injected");
    MSV_CHECK_MSG(a.stats.restarts >= 1,
                  "the restart fleet must pay for at least one restart");
    MSV_CHECK_MSG(b.stats.promotions >= 1,
                  "the replicated fleet must promote at least once");
    MSV_CHECK_MSG(b.stats.replicated_blobs > 0,
                  "replication must stream checkpoints to the standby");
    // The acceptance gate: a warm standby turns the 20M-cycle re-measure
    // into a fence-and-flip, and the tail shows it.
    MSV_CHECK_MSG(restart_p99 >= 3.0 * promoted_p99,
                  "restart p99 must be at least 3x the promoted p99 "
                  "(restart=" + std::to_string(restart_p99) +
                  "us, promoted=" + std::to_string(promoted_p99) + "us)");
    report.add_metric("storm_p99_ratio", restart_p99 / promoted_p99);
    std::printf("\np99 under the storm: restart ladder %s vs promotion %s "
                "(%.1fx) — the warm standby\nturns an enclave re-measure "
                "into a fence-and-flip.\n",
                fmt_us(restart_p99).c_str(), fmt_us(promoted_p99).c_str(),
                restart_p99 / promoted_p99);
    std::fflush(stdout);

    // --- Determinism self-check: the traced promoted storm, run again ----
    const FleetRunResult c = run_fleet(promote, spec);
    MSV_CHECK_MSG(b.rep.final_clock == c.rep.final_clock,
                  "same fleet spec, different simulated-cycle totals");
    MSV_CHECK_MSG(b.rep.latency_cycle_sum == c.rep.latency_cycle_sum,
                  "same fleet spec, different latency cycle sums");
    MSV_CHECK_MSG(b.stats.accepted == c.stats.accepted &&
                      b.stats.completed == c.stats.completed &&
                      b.stats.shed == c.stats.shed &&
                      b.stats.failed == c.stats.failed &&
                      b.stats.retries == c.stats.retries &&
                      b.stats.promotions == c.stats.promotions &&
                      b.stats.restarts == c.stats.restarts &&
                      b.stats.replicated_blobs == c.stats.replicated_blobs &&
                      b.stats.recovery_cycles == c.stats.recovery_cycles,
                  "same fleet spec, different fleet counters");
    MSV_CHECK_MSG(!b.trace_json.empty() && b.trace_json == c.trace_json,
                  "same fleet spec, different trace JSON");
    MSV_CHECK_MSG(!b.metrics_text.empty() &&
                      b.metrics_text == c.metrics_text,
                  "same fleet spec, different metrics text");
    std::printf("\ndeterminism self-check: two promoted-storm runs, "
                "identical clock (%" PRIu64 " cycles),\nlatency sum, fleet "
                "counters, trace JSON (%zu bytes) and metrics text — "
                "fleet-wide.\n",
                b.rep.final_clock, b.trace_json.size());
    report.add_metric("determinism_final_clock_cycles", b.rep.final_clock);
    report.add_metric("determinism_trace_bytes",
                      static_cast<std::uint64_t>(b.trace_json.size()));
    if (!opt.trace_path.empty() &&
        !bench::write_text_file(opt.trace_path, b.trace_json)) {
      return 1;
    }
    if (!opt.metrics_path.empty() &&
        !bench::write_text_file(opt.metrics_path, b.metrics_text)) {
      return 1;
    }
    if (!opt.trace_path.empty()) {
      std::printf("trace written to %s\n", opt.trace_path.c_str());
    }
    if (!opt.metrics_path.empty()) {
      std::printf("metrics written to %s\n", opt.metrics_path.c_str());
    }
  }

  // --- Scenario 3: hot-tenant migration ------------------------------------
  {
    FleetScenario sc;
    sc.shards = 4;
    sc.replication = true;
    sc.migrate_hottest = true;
    const FleetRunResult r = run_fleet(sc, spec);
    MSV_CHECK_MSG(r.stats.migrations == 1,
                  "the migrator must move exactly one tenant");
    MSV_CHECK_MSG(r.stats.failed == 0,
                  "migration must not fail requests — drained work "
                  "completes, mid-drain arrivals shed");
    Table table({"metric", "value"});
    table.add_row({"migrations", std::to_string(r.stats.migrations)});
    table.add_row({"shed while migrating",
                   std::to_string(r.stats.shed_migrating)});
    table.add_row({"completed", std::to_string(r.stats.completed)});
    table.add_row({"p99", fmt_us(r.rep.aggregate.p99_us)});
    std::printf("\nHot-tenant migration (Zipf head moved to the coldest "
                "shard at half-window):\n");
    table.print();
    report.add_table("migration", table);
    add_fleet_metrics(report, "migration", r);
  }

  // --- Scenario 4: health under storm (DESIGN.md §16) -----------------------
  {
    const std::uint32_t losses = opt.smoke ? 4 : 8;
    FleetScenario base;
    base.shards = 4;
    base.replication = false;
    base.shard_losses = losses;
    FleetScenario health = base;
    health.health = true;

    // Metrics-only baseline, then two armed runs: A proves the health
    // stack is free on the simulated timeline, A==B proves its artifacts
    // are deterministic.
    const FleetRunResult base_r = run_fleet(base, spec);
    const FleetRunResult a = run_fleet(health, spec);
    const FleetRunResult b = run_fleet(health, spec);

    MSV_CHECK_MSG(a.rep.final_clock == base_r.rep.final_clock &&
                      a.rep.latency_cycle_sum == base_r.rep.latency_cycle_sum,
                  "arming the health stack must cost zero simulated cycles");
    MSV_CHECK_MSG(!a.health_report.empty() &&
                      a.health_report == b.health_report,
                  "two armed runs must emit byte-identical health reports");
    MSV_CHECK_MSG(!a.postmortem_bundle.empty() &&
                      a.postmortem_bundle == b.postmortem_bundle,
                  "two armed runs must emit byte-identical post-mortems");
    MSV_CHECK_MSG(!a.folded_stacks.empty() &&
                      a.folded_stacks == b.folded_stacks,
                  "two armed runs must emit byte-identical folded stacks");
    MSV_CHECK_MSG(a.losses_injected > 0 &&
                      a.postmortems >= a.losses_injected,
                  "every injected enclave loss must yield a post-mortem");

    // Degraded-before-ladder: every shard that saw a recoverable fault
    // must have been flagged degraded no later than the instant its
    // recovery ladder first fired (faults are recorded at the catch site;
    // same-cycle is a tie the monitor wins by construction).
    std::uint32_t injured = 0;
    for (std::uint32_t k = 0; k < a.shards.size(); ++k) {
      const server::RecoveryStats& s = a.shards[k];
      if (s.first_recovery_started_cycles == 0) continue;
      ++injured;
      MSV_CHECK_MSG(a.first_degraded[k] != 0,
                    "an injured shard must be flagged degraded");
      MSV_CHECK_MSG(a.first_degraded[k] <= s.first_recovery_started_cycles,
                    "the SLO monitor must flag an injured shard degraded "
                    "before its recovery ladder fires");
    }
    MSV_CHECK_MSG(injured > 0, "the storm must injure at least one shard");

    Table table({"metric", "value"});
    table.add_row({"enclave losses injected",
                   std::to_string(a.losses_injected)});
    table.add_row({"post-mortems captured", std::to_string(a.postmortems)});
    table.add_row({"shards injured", std::to_string(injured)});
    table.add_row({"profiler samples", std::to_string(a.profile_samples)});
    table.add_row({"health report bytes",
                   std::to_string(a.health_report.size())});
    table.add_row({"overhead (cycles vs baseline)", "0 (byte-identical)"});
    std::printf("\nHealth under storm (4 shards, %u losses, SLO monitor + "
                "flight recorder + profiler armed):\n", losses);
    table.print();
    report.add_table("health_storm", table);
    add_fleet_metrics(report, "health_storm", a);
    report.add_metric("health_losses_injected", a.losses_injected);
    report.add_metric("health_postmortems", a.postmortems);
    report.add_metric("health_shards_injured",
                      static_cast<std::uint64_t>(injured));
    report.add_metric("health_profile_samples", a.profile_samples);
    report.add_metric("health_report_bytes",
                      static_cast<std::uint64_t>(a.health_report.size()));
    report.add_metric("health_bundle_bytes",
                      static_cast<std::uint64_t>(a.postmortem_bundle.size()));
    report.add_metric("health_overhead_cycles", std::uint64_t{0});
    std::printf("\ndeterminism: two armed runs agree byte-for-byte on the "
                "health report (%zu bytes),\npost-mortem bundle (%zu bytes) "
                "and folded stacks (%zu bytes); arming cost 0 cycles.\n",
                a.health_report.size(), a.postmortem_bundle.size(),
                a.folded_stacks.size());

    if (!opt.health_path.empty() &&
        !bench::write_text_file(opt.health_path, a.health_report)) {
      return 1;
    }
    if (!opt.postmortem_path.empty() &&
        !bench::write_text_file(opt.postmortem_path, a.postmortem_bundle)) {
      return 1;
    }
    if (!opt.folded_path.empty() &&
        !bench::write_text_file(opt.folded_path, a.folded_stacks)) {
      return 1;
    }
    if (!opt.health_path.empty()) {
      std::printf("health report written to %s\n", opt.health_path.c_str());
    }
    if (!opt.postmortem_path.empty()) {
      std::printf("post-mortem bundle written to %s\n",
                  opt.postmortem_path.c_str());
    }
    if (!opt.folded_path.empty()) {
      std::printf("folded stacks written to %s\n", opt.folded_path.c_str());
    }
  }

  if (!opt.json_path.empty() && !report.write(opt.json_path)) return 1;
  return 0;
}
