// Load harness for the request server: open-loop (Poisson arrivals) and
// closed-loop (think-time clients) tenant workloads, with percentile
// latency reporting. Backs bench/fig_server and the serving-layer tests.
//
// Determinism: every generator task owns a private Rng seeded from
// (spec.seed, tenant index), and consumes it in program order within that
// task — the sampled arrival process is a pure function of the spec, not
// of scheduler interleaving. Two runs of the same spec produce identical
// cycle totals and identical latency vectors (fig_server asserts this).
//
// Coordinated omission: open-loop latencies are measured from a request's
// *intended* arrival instant (precomputed from the Poisson process), not
// from when the generator got around to submitting it, so backlog delay
// is charged to the requests that suffered it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "server/server.h"
#include "support/rng.h"
#include "support/stats.h"

namespace msv::server {

// Exponential gap with the given mean, quantized to whole cycles. The Rng
// is consumed exactly once per call, in task program order, so the sampled
// process is independent of scheduler interleaving. Shared with the fleet
// generator (fleet/load.h).
Cycles exp_gap(Rng& rng, Cycles mean);

// Ends a load run: runs the scheduler until the generators finish, then
// keeps its run loop alive with a task named `drain_task` until
// `pending()` reaches 0 (worker daemons alone do not keep run() going).
// Quantized sleep-polling, not yield-polling: while work is in flight the
// clock advances from the work itself and the poll costs nothing; once
// drained the overshoot is at most one kDrainQuantum of idle.
inline constexpr Cycles kDrainQuantum = 10'000;
void run_until_drained(sched::Scheduler& sched, const std::string& drain_task,
                       const std::function<std::size_t()>& pending);

struct OpenLoopSpec {
  std::uint64_t requests_per_tenant = 200;
  // Mean of the exponential interarrival gap, per tenant, in cycles.
  Cycles mean_interarrival_cycles = 400'000;
  std::uint64_t seed = 42;
  double read_fraction = 0.5;  // getBalance share; rest are deposits
  // Inject a GC on `gc_tenant` every `gc_every` submissions (0 = never).
  std::uint64_t gc_every = 0;
  std::uint32_t gc_tenant = 0;
};

struct ClosedLoopSpec {
  std::uint32_t clients_per_tenant = 4;
  std::uint64_t requests_per_client = 50;
  Cycles mean_think_cycles = 100'000;
  std::uint64_t seed = 42;
  double read_fraction = 0.5;
};

struct LatencySummary {
  std::uint64_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

// Exact-integer digests make determinism checks robust: two runs of the
// same spec must agree on every field bit-for-bit.
struct TenantReport {
  LatencySummary latency;
  TenantStats stats;
  Cycles latency_cycle_sum = 0;
};

struct HarnessReport {
  std::vector<TenantReport> tenants;
  LatencySummary aggregate;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;   // finished with an error; no latency sample
  std::uint64_t retries = 0;  // recoverable faults absorbed by retries
  Cycles final_clock = 0;
  Cycles latency_cycle_sum = 0;
  double elapsed_seconds = 0;
  double throughput_rps = 0;  // completed / elapsed
};

LatencySummary summarize_latencies(const std::vector<Cycles>& lat, double hz);

class LoadHarness {
 public:
  explicit LoadHarness(RequestServer& server)
      : server_(server), env_(server.app().env()) {}

  // Starts the server if needed, runs the workload to completion
  // (including draining queued requests) and reports. Latency vectors on
  // the server accumulate across runs; use a fresh server per measured
  // configuration.
  HarnessReport run_open_loop(const OpenLoopSpec& spec);
  HarnessReport run_closed_loop(const ClosedLoopSpec& spec);

 private:
  HarnessReport report() const;

  RequestServer& server_;
  Env& env_;
};

}  // namespace msv::server
