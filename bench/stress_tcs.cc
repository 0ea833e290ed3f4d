// stress_tcs (DESIGN.md §17): TCS pool exhaustion under open-loop
// saturation.
//
// Eight tenants submit through an open-loop Poisson process whose mean
// interarrival sits well past the serial service capacity, so arrivals
// clump into bursts that pile every worker onto the enclave door at once.
// Armed = a 2-slot TCS pool (the door is the bottleneck); disarmed = 8
// slots (one per entering worker — the queueing delay must be *exactly*
// zero, the fig_server contract). Both run with hardware transitions and
// again with switchless worker rings: ring workers stay resident inside
// the enclave, so the rings don't just change what a transition costs —
// they keep bursts off the TCS door entirely, and the armed+rings row
// shows the exhaustion disappearing.
//
// Gates: zero waits at full provisioning, strictly positive wait cycles
// and a heavier tail when armed, wait-cycle attribution consistent with
// the wait count (regression guard for the pending-grant fast-path bug),
// and a byte-identical repeat run of the armed scenario.
#include <cinttypes>
#include <string>

#include "apps/illustrative/bank.h"
#include "bench/bench_common.h"
#include "bench/stress_common.h"
#include "core/app.h"
#include "sched/scheduler.h"
#include "server/harness.h"
#include "server/server.h"

namespace msv {
namespace {

constexpr std::uint32_t kTenants = 8;

struct RunResult {
  server::HarnessReport report;
  sgx::BridgeStats bridge;
  std::uint64_t max_waiters = 0;  // TcsPool high-water mark
};

RunResult run_burst(std::uint32_t tcs_slots, bool switchless,
                    const server::OpenLoopSpec& spec) {
  core::AppConfig app_cfg;
  app_cfg.tcs.slots = tcs_slots;
  app_cfg.switchless_relays = switchless;
  server::ServerConfig srv_cfg;

  core::PartitionedApp app(apps::build_bank_app(), kTenants, app_cfg);
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, srv_cfg);
  server::LoadHarness harness(srv);
  RunResult r;
  r.report = harness.run_open_loop(spec);
  srv.stop();
  r.bridge = app.bridge().stats();
  r.max_waiters = app.enclave().tcs().stats().max_waiters;
  return r;
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);

  bench::print_header("stress_tcs",
                      "TCS pool exhaustion under bursty open-loop load");
  bench::JsonReport report("stress_tcs");

  server::OpenLoopSpec spec;
  spec.requests_per_tenant = opt.smoke ? 40 : 150;
  // fig_server's stable operating point: the server keeps up overall, so
  // Poisson bursts are what pile workers onto the door — and the TCS
  // queueing delay lands in the tail instead of disappearing into an
  // open-loop backlog that would swamp any pool's contribution.
  spec.mean_interarrival_cycles = 400'000;
  spec.gc_every = 0;
  report.add_metric("requests", spec.requests_per_tenant);

  struct Scenario {
    const char* key;
    std::uint32_t slots;
    bool switchless;
  };
  const Scenario scenarios[] = {
      {"slots8_hw", 8, false},    // disarmed, hardware transitions
      {"slots2_hw", 2, false},    // armed: the door is the bottleneck
      {"slots8_ring", 8, true},   // disarmed, switchless rings
      {"slots2_ring", 2, true},   // armed + rings
  };

  Table table({"scenario", "tcs waits", "wait cycles", "max waiters",
               "throughput", "p50", "p99"});
  std::uint64_t armed_hw_waits = 0, disarmed_hw_waits = 0;
  double armed_hw_p99 = 0, disarmed_hw_p99 = 0;
  for (const Scenario& sc : scenarios) {
    const RunResult r = run_burst(sc.slots, sc.switchless, spec);
    table.add_row(
        {sc.key, std::to_string(r.bridge.tcs_waits),
         std::to_string(r.bridge.tcs_wait_cycles),
         std::to_string(r.max_waiters),
         format_fixed(r.report.throughput_rps / 1e3, 1) + "k/s",
         format_fixed(r.report.aggregate.p50_us, 1) + "us",
         format_fixed(r.report.aggregate.p99_us, 1) + "us"});
    const std::string key = sc.key;
    report.add_metric(key + "_waits", r.bridge.tcs_waits);
    report.add_metric(key + "_wait_cycles", r.bridge.tcs_wait_cycles);
    report.add_metric(key + "_max_waiters", r.max_waiters);
    report.add_metric(key + "_throughput_rps", r.report.throughput_rps);
    report.add_metric(key + "_p99_us", r.report.aggregate.p99_us);
    report.add_metric(key + "_completed", r.report.completed);

    // Attribution consistency: cycles and counts must agree — waits with
    // zero cycles (or cycles with zero waits) is exactly the shape of the
    // pending-grant accounting bug.
    bench::stress::gate(
        (r.bridge.tcs_waits == 0) == (r.bridge.tcs_wait_cycles == 0),
        std::string(sc.key) + ": wait cycles must be attributed iff "
        "arrivals actually queued");
    if (r.bridge.tcs_waits > 0) {
      const double avg = static_cast<double>(r.bridge.tcs_wait_cycles) /
                         static_cast<double>(r.bridge.tcs_waits);
      bench::stress::gate(avg >= 1.0 &&
                              avg < static_cast<double>(r.report.final_clock),
                          std::string(sc.key) +
                              ": per-wait attribution out of range");
    }

    if (std::string(sc.key) == "slots2_hw") {
      armed_hw_waits = r.bridge.tcs_waits;
      armed_hw_p99 = r.report.aggregate.p99_us;
    } else if (std::string(sc.key) == "slots8_hw") {
      disarmed_hw_waits = r.bridge.tcs_waits;
      disarmed_hw_p99 = r.report.aggregate.p99_us;
    }
  }
  std::printf("TCS exhaustion (%u tenants, open loop at %" PRIu64
              "-cycle mean interarrival):\n",
              kTenants, spec.mean_interarrival_cycles);
  table.print();
  report.add_table("tcs_exhaustion", table);

  bench::stress::gate(disarmed_hw_waits == 0,
                      "at one slot per entering worker the queueing delay "
                      "must be exactly zero");
  bench::stress::gate(armed_hw_waits > 0,
                      "the armed pool must actually exhaust");
  bench::stress::gate(armed_hw_p99 > disarmed_hw_p99,
                      "pool exhaustion must surface in the tail");
  report.add_metric("exhaustion_p99_ratio", armed_hw_p99 / disarmed_hw_p99);

  // Determinism: the armed scenario repeated must be cycle-identical.
  const RunResult a = run_burst(2, false, spec);
  const RunResult b = run_burst(2, false, spec);
  bench::stress::gate(a.report.final_clock == b.report.final_clock &&
                          a.report.latency_cycle_sum ==
                              b.report.latency_cycle_sum &&
                          a.bridge.tcs_wait_cycles == b.bridge.tcs_wait_cycles,
                      "two armed runs must agree cycle-for-cycle");
  report.add_metric("determinism_final_clock_cycles", a.report.final_clock);

  std::printf(
      "\nAt 8 slots the pool never queues; at 2 the bursts stack FIFO "
      "waiters on the door and the\nwait cycles land in the tail — with "
      "rings or hardware transitions alike.\n");
  if (!opt.json_path.empty() && !report.write(opt.json_path)) return 1;
  return 0;
}
