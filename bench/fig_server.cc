// Serving-layer figure (DESIGN.md §8): a multi-tenant enclave request
// server under open-loop load.
//
// Three sweeps over an 8-tenant bank workload (one trusted isolate per
// tenant behind one enclave, requests admitted through bounded queues and
// served by fiber workers on the deterministic scheduler):
//
//   1. Offered load: throughput and p50/p95/p99 latency as the per-tenant
//      Poisson arrival rate rises past the service capacity.
//   2. TCS pool size: with fewer TCS slots than concurrently-entering
//      workers the queueing delay surfaces in BridgeStats::tcs_wait_cycles
//      and in the tail percentiles; at slots >= workers it vanishes.
//   3. Switchless policy: hardware transitions vs. worker rings under the
//      busy-wait and sleep/wake wake policies.
//
// Determinism contract (ISSUE 2 acceptance): the base scenario runs twice
// with the same seed and the run aborts unless both runs agree on the
// final simulated clock, the exact latency-cycle sum, and every reported
// percentile. All latencies are simulated time; only the event order of
// the fiber scheduler — itself deterministic — decides interleaving.
#include <cinttypes>
#include <string>

#include "apps/illustrative/bank.h"
#include "bench/bench_common.h"
#include "core/app.h"
#include "sched/scheduler.h"
#include "server/harness.h"
#include "server/server.h"
#include "support/error.h"
#include "telemetry/adapters.h"
#include "telemetry/export.h"

namespace msv {
namespace {

constexpr std::uint32_t kTenants = 8;

struct RunResult {
  server::HarnessReport report;
  sgx::BridgeStats bridge;
  // Rendered telemetry artifacts; empty unless app_cfg.trace enables them
  // (--trace-out / --metrics-out, DESIGN.md §10).
  std::string trace_json;
  std::string metrics_text;
  std::string ascii_trace;  // one request's causal tree, for the console
};

RunResult run_workload(const core::AppConfig& app_cfg,
                       const server::ServerConfig& srv_cfg,
                       const server::OpenLoopSpec& spec) {
  // Declaration order is the destruction contract: the server stops (and
  // the scheduler cancels its fibers) before the app's bridge dies.
  core::PartitionedApp app(apps::build_bank_app(), kTenants, app_cfg);
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, srv_cfg);
  server::LoadHarness harness(srv);
  RunResult r;
  r.report = harness.run_open_loop(spec);
  r.bridge = app.bridge().stats();
  srv.stop();
  telemetry::Telemetry& tel = app.env().telemetry;
  if (tel.metrics_enabled()) {
    // Absorb every subsystem's stats into the shared registry, then
    // render, all before teardown. Stats are re-read after stop() so the
    // switchless-ring teardown folds are included.
    telemetry::MetricsRegistry& m = tel.metrics();
    telemetry::publish_bridge(m, app.bridge().stats());
    telemetry::publish_epc(m, app.enclave().epc().stats());
    telemetry::publish_tcs(m, app.enclave().tcs().stats());
    telemetry::publish_scheduler(m, sched.stats());
    telemetry::publish_server(m, srv.totals());
    for (std::uint32_t t = 0; t < srv.tenant_count(); ++t) {
      telemetry::publish_tenant(m, srv.tenant_stats(t), t);
    }
    for (std::uint32_t i = 0; i < app.isolate_count(); ++i) {
      telemetry::publish_heap(
          m, app.trusted_context(i).isolate().heap().stats(),
          "trusted-" + std::to_string(i));
    }
    telemetry::publish_heap(
        m, app.untrusted_context().isolate().heap().stats(), "untrusted");
    telemetry::publish_tracer_self(m, tel.tracer());
    r.metrics_text = telemetry::prometheus_text(m);
  }
  if (tel.tracing_enabled()) {
    r.trace_json =
        telemetry::chrome_trace_json(tel.tracer(), app.env().clock.hz());
    // Render the last completed request's causal tree (the steady-state
    // picture; early requests hit cold heaps and EPC).
    const telemetry::Tracer& tr = tel.tracer();
    const std::uint32_t request_name = tel.names().request;
    std::uint64_t request_trace = 0;
    for (const auto& s : tr.spans()) {
      if (!s.open && s.name == request_name) request_trace = s.trace_id;
    }
    if (request_trace != 0) {
      r.ascii_trace =
          telemetry::ascii_trace(tr, app.env().clock.hz(), request_trace, 40);
    }
  }
  return r;
}

std::string fmt_us(double us) { return format_fixed(us, 1) + "us"; }

std::string fmt_krps(double rps) {
  return format_fixed(rps / 1e3, 1) + "k/s";
}

void add_latency_metrics(bench::JsonReport& report, const std::string& key,
                         const RunResult& r) {
  report.add_metric(key + "_throughput_rps", r.report.throughput_rps);
  report.add_metric(key + "_p50_us", r.report.aggregate.p50_us);
  report.add_metric(key + "_p95_us", r.report.aggregate.p95_us);
  report.add_metric(key + "_p99_us", r.report.aggregate.p99_us);
  report.add_metric(key + "_completed", r.report.completed);
  report.add_metric(key + "_shed", r.report.shed);
  report.add_metric(key + "_final_clock_cycles", r.report.final_clock);
  report.add_metric(key + "_latency_cycle_sum", r.report.latency_cycle_sum);
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
  const std::uint64_t requests = opt.smoke ? 40 : 400;

  bench::print_header("Serving layer",
                      "8-tenant open-loop enclave serving: load sweep, TCS "
                      "pool sweep, switchless policies");
  bench::JsonReport report("fig_server");
  report.add_metric("tenants", static_cast<std::uint64_t>(kTenants));
  report.add_metric("requests_per_tenant", requests);

  server::OpenLoopSpec base_spec;
  base_spec.requests_per_tenant = requests;
  base_spec.mean_interarrival_cycles = 400'000;
  base_spec.gc_every = requests / 4;  // periodic per-isolate collections
  server::ServerConfig base_srv;
  base_srv.shed_on_full = false;
  base_srv.max_queue_depth = 1024;

  // --- Determinism self-check (acceptance criterion) ----------------------
  // The base scenario runs twice with full telemetry: beyond the clock /
  // latency / percentile agreement, the rendered Chrome trace JSON and the
  // metrics dump must be byte-identical — the determinism property only a
  // simulated-clock tracer can offer. Because telemetry never advances the
  // virtual clock, these traced runs report the same cycle totals an
  // untraced run would.
  {
    core::AppConfig traced_cfg;
    traced_cfg.trace.mode = telemetry::TraceMode::kFull;
    // Coalescing stays on here: the batched RMI dispatch (DESIGN.md §13)
    // must be exactly as deterministic as the single-request path.
    server::ServerConfig det_srv = base_srv;
    det_srv.coalesce_max = 4;
    const RunResult a = run_workload(traced_cfg, det_srv, base_spec);
    const RunResult b = run_workload(traced_cfg, det_srv, base_spec);
    MSV_CHECK_MSG(a.report.final_clock == b.report.final_clock,
                  "same seed, different simulated-cycle totals");
    MSV_CHECK_MSG(a.report.latency_cycle_sum == b.report.latency_cycle_sum,
                  "same seed, different latency cycle sums");
    MSV_CHECK_MSG(a.report.aggregate.p50_us == b.report.aggregate.p50_us &&
                      a.report.aggregate.p95_us == b.report.aggregate.p95_us &&
                      a.report.aggregate.p99_us == b.report.aggregate.p99_us,
                  "same seed, different percentiles");
    MSV_CHECK_MSG(a.report.completed == kTenants * requests,
                  "workload did not run to completion");
    MSV_CHECK_MSG(!a.trace_json.empty() && a.trace_json == b.trace_json,
                  "same seed, different trace JSON");
    MSV_CHECK_MSG(!a.metrics_text.empty() &&
                      a.metrics_text == b.metrics_text,
                  "same seed, different metrics dump");
    std::printf("determinism self-check: two runs, identical clock (%" PRIu64
                " cycles), latency sum, percentiles, trace JSON (%zu bytes) "
                "and metrics dump\n\n",
                a.report.final_clock, a.trace_json.size());
    report.add_metric("determinism_final_clock_cycles", a.report.final_clock);
    report.add_metric("determinism_latency_cycle_sum",
                      a.report.latency_cycle_sum);
    report.add_metric("determinism_trace_bytes",
                      static_cast<std::uint64_t>(a.trace_json.size()));
    if (!opt.trace_path.empty() &&
        !bench::write_text_file(opt.trace_path, a.trace_json)) {
      return 1;
    }
    if (!opt.metrics_path.empty() &&
        !bench::write_text_file(opt.metrics_path, a.metrics_text)) {
      return 1;
    }
    if (!opt.trace_path.empty()) {
      std::printf("trace written to %s\n", opt.trace_path.c_str());
      if (!a.ascii_trace.empty()) {
        std::printf("\none request's causal tree (last completed):\n%s",
                    a.ascii_trace.c_str());
      }
    }
    if (!opt.metrics_path.empty()) {
      std::printf("metrics written to %s\n\n", opt.metrics_path.c_str());
    }
  }

  // --- Sweep 1: offered load ----------------------------------------------
  {
    Table table({"mean gap", "offered/s", "throughput", "p50", "p95", "p99",
                 "max"});
    for (const Cycles gap :
         {25'600'000, 12'800'000, 6'400'000, 1'600'000, 400'000, 100'000}) {
      server::OpenLoopSpec spec = base_spec;
      spec.mean_interarrival_cycles = gap;
      const RunResult r = run_workload({}, base_srv, spec);
      const double hz = CostModel{}.cpu_hz;
      const double offered =
          static_cast<double>(kTenants) * hz / static_cast<double>(gap);
      table.add_row({std::to_string(gap / 1000) + "k cyc",
                     fmt_krps(offered), fmt_krps(r.report.throughput_rps),
                     fmt_us(r.report.aggregate.p50_us),
                     fmt_us(r.report.aggregate.p95_us),
                     fmt_us(r.report.aggregate.p99_us),
                     fmt_us(r.report.aggregate.max_us)});
      add_latency_metrics(report, "load_gap_" + std::to_string(gap), r);
    }
    std::printf("Open-loop load sweep (%u tenants, GC every %" PRIu64
                " requests on tenant 0):\n",
                kTenants, base_spec.gc_every);
    table.print();
    report.add_table("load_sweep", table);
  }

  // --- Sweep 2: TCS pool size ----------------------------------------------
  {
    Table table({"TCS slots", "tcs waits", "wait cycles", "p50", "p99"});
    server::OpenLoopSpec spec = base_spec;
    spec.mean_interarrival_cycles = 100'000;  // saturating
    spec.gc_every = 0;
    for (const std::uint32_t slots : {1u, 2u, 4u, 8u, 16u}) {
      core::AppConfig app_cfg;
      app_cfg.tcs.slots = slots;
      const RunResult r = run_workload(app_cfg, base_srv, spec);
      table.add_row({std::to_string(slots),
                     std::to_string(r.bridge.tcs_waits),
                     std::to_string(r.bridge.tcs_wait_cycles),
                     fmt_us(r.report.aggregate.p50_us),
                     fmt_us(r.report.aggregate.p99_us)});
      const std::string key = "tcs_slots_" + std::to_string(slots);
      report.add_metric(key + "_waits", r.bridge.tcs_waits);
      report.add_metric(key + "_wait_cycles", r.bridge.tcs_wait_cycles);
      add_latency_metrics(report, key, r);
    }
    std::printf("\nTCS pool sweep (saturating load, %u workers entering):\n",
                kTenants);
    table.print();
    report.add_table("tcs_sweep", table);
    std::printf(
        "\nWith fewer slots than concurrently-entering workers the queueing "
        "delay is visible in\nBridgeStats::tcs_wait_cycles and the tail; at "
        "slots >= workers it is exactly zero.\n");
  }

  // --- Sweep 3: switchless policy ------------------------------------------
  {
    Table table({"relay path", "throughput", "p50", "p99", "wakeups",
                 "idle spin cycles"});
    server::OpenLoopSpec spec = base_spec;
    spec.gc_every = 0;
    struct Scenario {
      const char* name;
      bool switchless;
      sgx::SwitchlessConfig::WakePolicy policy;
    };
    const Scenario scenarios[] = {
        {"hardware transitions", false,
         sgx::SwitchlessConfig::WakePolicy::kBusyWait},
        {"ring, busy-wait", true,
         sgx::SwitchlessConfig::WakePolicy::kBusyWait},
        {"ring, sleep/wake", true,
         sgx::SwitchlessConfig::WakePolicy::kSleepWake},
    };
    for (const Scenario& sc : scenarios) {
      core::AppConfig app_cfg;
      app_cfg.switchless_relays = sc.switchless;
      server::ServerConfig srv_cfg = base_srv;
      srv_cfg.ring_policy = sc.policy;
      const RunResult r = run_workload(app_cfg, srv_cfg, spec);
      table.add_row({sc.name, fmt_krps(r.report.throughput_rps),
                     fmt_us(r.report.aggregate.p50_us),
                     fmt_us(r.report.aggregate.p99_us),
                     std::to_string(r.bridge.switchless_worker_wakeups),
                     std::to_string(r.bridge.switchless_idle_spin_cycles)});
      std::string key = sc.name;
      for (char& c : key) {
        if (c == ' ' || c == ',' || c == '/' || c == '-') c = '_';
      }
      add_latency_metrics(report, key, r);
    }
    std::printf("\nSwitchless policy sweep:\n");
    table.print();
    std::printf(
        "\nBusy-wait workers burn a dedicated core while idle (attributed, "
        "never charged to the\nserving timeline); sleep/wake workers charge "
        "a futex-wake per wakeup instead.\n");
    report.add_table("switchless_sweep", table);
  }

  // --- Sweep 4: request coalescing ------------------------------------------
  {
    Table table({"coalesce max", "ecalls", "throughput", "p50", "p99"});
    server::OpenLoopSpec spec = base_spec;
    spec.mean_interarrival_cycles = 100'000;  // saturating: real backlogs
    spec.gc_every = 0;
    for (const std::uint32_t cmax : {1u, 2u, 4u, 8u}) {
      server::ServerConfig srv_cfg = base_srv;
      srv_cfg.coalesce_max = cmax;
      const RunResult r = run_workload({}, srv_cfg, spec);
      table.add_row({std::to_string(cmax), std::to_string(r.bridge.ecalls),
                     fmt_krps(r.report.throughput_rps),
                     fmt_us(r.report.aggregate.p50_us),
                     fmt_us(r.report.aggregate.p99_us)});
      const std::string key = "coalesce_" + std::to_string(cmax);
      report.add_metric(key + "_ecalls", r.bridge.ecalls);
      add_latency_metrics(report, key, r);
    }
    std::printf("\nCoalescing sweep (saturating load, batched RMI dispatch, "
                "DESIGN.md §13):\n");
    table.print();
    report.add_table("coalesce_sweep", table);
    std::printf(
        "\nA worker waking to a backlog drains up to coalesce_max requests "
        "into one\ntransition; under saturation the 13,100-cycle ecall and "
        "the isolate attach\namortize across the batch and the tail "
        "percentiles drop.\n");
  }

  if (!opt.json_path.empty()) {
    if (!report.write(opt.json_path)) return 1;
  }
  return 0;
}
