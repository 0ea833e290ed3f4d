// stress_storm (DESIGN.md §17): fault storm under overload on a 4-shard
// fleet, with the health stack armed.
//
// fig_fleet measures the loss storm at 36% utilization, where the tail
// belongs to the recovery path and queues stay shallow. This stressor
// runs the same 4-shard fleet at ~2x that offered load *and* doubles the
// targeted enclave losses, so recovery ladders fire while admission
// queues are already backed up — the regime where the SLO monitor, the
// flight recorder and the recovery ladder all contend for the same
// simulated timeline.
//
// Gates:
//   * overload is real: the armed run sheds where the disarmed (calm
//     load, no faults) run sheds nothing;
//   * the SLO monitor flags every injured shard degraded no later than
//     the instant its recovery ladder first fires (degrade-before-
//     recover, the DESIGN.md §16 ordering), storm or no storm;
//   * every injected enclave loss yields a post-mortem bundle entry;
//   * two armed runs are byte-identical end to end: final clock, latency
//     cycle sum, every fleet counter, the health report, the post-mortem
//     bundle and the folded profiler stacks.
#include <cinttypes>
#include <memory>
#include <string>

#include "apps/illustrative/bank.h"
#include "bench/bench_common.h"
#include "bench/stress_common.h"
#include "faults/plan.h"
#include "fleet/load.h"
#include "fleet/router.h"
#include "sched/scheduler.h"
#include "telemetry/adapters.h"
#include "telemetry/export.h"
#include "telemetry/flight.h"
#include "telemetry/sampler.h"
#include "telemetry/slo.h"

namespace msv {
namespace {

constexpr std::uint32_t kTenants = 64;
constexpr std::uint32_t kShards = 4;

struct StormResult {
  fleet::FleetLoadReport rep;
  fleet::FleetStats stats;
  std::vector<server::RecoveryStats> shards;
  std::vector<Cycles> first_degraded;
  std::string health_report;
  std::string postmortem_bundle;
  std::string folded_stacks;
  std::uint64_t postmortems = 0;
  std::uint64_t losses_injected = 0;
};

StormResult run_storm(const fleet::FleetLoadSpec& spec,
                      std::uint32_t shard_losses, bool health) {
  const model::AppModel model = apps::build_bank_app();
  Env env;
  sched::Scheduler sched(env);

  fleet::FleetConfig fc;
  fc.shards = kShards;
  fc.tenants = kTenants;
  fc.shard.replication = false;  // the restart ladder is the slow path
  fc.shard.shared_workers = 2;
  fc.shard.coalesce_max = 4;
  fc.shard.recovery.enabled = true;
  fc.shard.recovery.checkpoint_every = 2;
  fc.slo_enabled = health;
  fleet::FleetRouter router(env, sched, model, fc);

  std::unique_ptr<telemetry::FlightBus> flight;
  std::unique_ptr<telemetry::SampleProfiler> sampler;
  if (health) {
    flight = std::make_unique<telemetry::FlightBus>(env.telemetry);
    env.telemetry.set_flight(flight.get());
    sampler = std::make_unique<telemetry::SampleProfiler>(
        env.clock, env.telemetry.tracer(), /*interval_cycles=*/1'000'000);
    sched.set_sampler(sampler.get());
  }
  router.start();

  if (shard_losses > 0) {
    const Cycles run_start = env.clock.now();
    faults::FaultPlanConfig pc;
    pc.seed = 23;
    pc.horizon =
        static_cast<Cycles>(spec.requests) * spec.mean_interarrival_cycles;
    pc.fleet_shards = kShards;
    pc.shard_losses = shard_losses;
    const faults::FaultPlan generated = faults::FaultPlan::generate(pc);
    faults::FaultPlan plan;
    for (faults::FaultEvent e : generated.events()) {
      e.at += run_start;
      plan.add(e);
    }
    router.attach_fault_plan(plan);
  }

  fleet::FleetLoad load(router);
  StormResult r;
  r.rep = load.run(spec);
  r.stats = router.stats();
  for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
    r.shards.push_back(router.shard(k).stats());
    if (const faults::FaultInjector* inj = router.injector_for(k)) {
      r.losses_injected += inj->stats().enclave_losses;
    }
  }
  if (health) {
    telemetry::SloMonitor& slo = *router.slo();
    r.health_report = slo.report(env.clock.hz());
    for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
      r.first_degraded.push_back(
          slo.first_entered(k, telemetry::HealthState::kDegraded));
    }
    r.postmortem_bundle = flight->bundle_json(env.clock.hz());
    r.postmortems = flight->post_mortems().size();
    r.folded_stacks = sampler->folded();
  }
  router.stop();
  sched.set_sampler(nullptr);
  env.telemetry.set_flight(nullptr);
  return r;
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);

  bench::print_header("stress_storm",
                      "fault storm under overload, 4-shard fleet, health "
                      "stack armed");
  bench::JsonReport report("stress_storm");

  const std::uint64_t requests = opt.smoke ? 2'000 : 6'000;
  const std::uint32_t losses = opt.smoke ? 8 : 16;
  report.add_metric("requests", requests);

  // Disarmed: fig_fleet's calm operating point, no faults.
  fleet::FleetLoadSpec calm;
  calm.requests = requests;
  calm.mean_interarrival_cycles = 1'200'000;
  calm.zipf_s = 1.1;
  calm.seed = 42;
  // Armed: ~2x the offered load plus the doubled loss storm.
  fleet::FleetLoadSpec overload = calm;
  overload.mean_interarrival_cycles = 600'000;

  const StormResult base = run_storm(calm, 0, false);
  const StormResult a = run_storm(overload, losses, true);
  const StormResult b = run_storm(overload, losses, true);

  Table table({"run", "completed", "shed", "failed", "restarts",
               "recovery Mcycles", "p50", "p99"});
  const auto add_row = [&](const char* name, const StormResult& r) {
    table.add_row({name, std::to_string(r.stats.completed),
                   std::to_string(r.stats.shed),
                   std::to_string(r.stats.failed),
                   std::to_string(r.stats.restarts),
                   std::to_string(r.stats.recovery_cycles / 1'000'000),
                   format_fixed(r.rep.aggregate.p50_us, 1) + "us",
                   format_fixed(r.rep.aggregate.p99_us, 1) + "us"});
  };
  add_row("disarmed (calm, no faults)", base);
  add_row("armed (overload + storm)", a);
  table.print();
  report.add_table("storm", table);

  const auto add_metrics = [&](const std::string& key, const StormResult& r) {
    report.add_metric(key + "_completed", r.stats.completed);
    report.add_metric(key + "_shed", r.stats.shed);
    report.add_metric(key + "_failed", r.stats.failed);
    report.add_metric(key + "_restarts", r.stats.restarts);
    report.add_metric(key + "_recovery_cycles", r.stats.recovery_cycles);
    report.add_metric(key + "_p99_us", r.rep.aggregate.p99_us);
    report.add_metric(key + "_throughput_rps", r.rep.throughput_rps);
    report.add_metric(key + "_final_clock_cycles", r.rep.final_clock);
    report.add_metric(key + "_latency_cycle_sum", r.rep.latency_cycle_sum);
  };
  add_metrics("disarmed", base);
  add_metrics("armed", a);

  // Overload is real: the calm fleet sheds nothing, the stormed fleet
  // pays for the backlog while its shards restart.
  bench::stress::gate(base.stats.shed == 0 && base.stats.failed == 0,
                      "the disarmed run must be clean");
  bench::stress::gate(a.stats.restarts >= 1,
                      "the storm must force at least one restart ladder");
  bench::stress::gate(a.rep.aggregate.p99_us > base.rep.aggregate.p99_us,
                      "overload plus storm must show in the tail");

  // Degrade-before-recover, under overload: the monitor must flag every
  // injured shard no later than its recovery ladder fires even when the
  // burn-rate windows are full of shed and queueing noise.
  std::uint32_t injured = 0;
  for (std::uint32_t k = 0; k < a.shards.size(); ++k) {
    if (a.shards[k].first_recovery_started_cycles == 0) continue;
    ++injured;
    bench::stress::gate(a.first_degraded[k] != 0,
                        "shard " + std::to_string(k) +
                            " was injured but never flagged degraded");
    bench::stress::gate(
        a.first_degraded[k] <= a.shards[k].first_recovery_started_cycles,
        "shard " + std::to_string(k) +
            " recovered before the monitor degraded it");
  }
  bench::stress::gate(injured > 0, "the storm must injure at least a shard");
  bench::stress::gate(a.losses_injected > 0 &&
                          a.postmortems >= a.losses_injected,
                      "every enclave loss must yield a post-mortem");
  report.add_metric("injured_shards", static_cast<std::uint64_t>(injured));
  report.add_metric("postmortems", a.postmortems);

  // Two armed runs, byte-identical end to end.
  bench::stress::gate(a.rep.final_clock == b.rep.final_clock &&
                          a.rep.latency_cycle_sum == b.rep.latency_cycle_sum,
                      "two storms, different simulated timelines");
  bench::stress::gate(a.stats.completed == b.stats.completed &&
                          a.stats.shed == b.stats.shed &&
                          a.stats.failed == b.stats.failed &&
                          a.stats.restarts == b.stats.restarts &&
                          a.stats.recovery_cycles == b.stats.recovery_cycles,
                      "two storms, different fleet counters");
  bench::stress::gate(!a.health_report.empty() &&
                          a.health_report == b.health_report,
                      "two storms, different health reports");
  bench::stress::gate(!a.postmortem_bundle.empty() &&
                          a.postmortem_bundle == b.postmortem_bundle,
                      "two storms, different post-mortem bundles");
  bench::stress::gate(!a.folded_stacks.empty() &&
                          a.folded_stacks == b.folded_stacks,
                      "two storms, different folded stacks");
  report.add_metric("determinism_final_clock_cycles", a.rep.final_clock);

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

  std::printf(
      "\nThe monitor degrades every injured shard before its ladder fires "
      "even with the burn-rate\nwindows full of overload noise, and the "
      "whole storm replays byte-identically.\n");
  if (!opt.json_path.empty() && !report.write(opt.json_path)) return 1;
  return 0;
}
