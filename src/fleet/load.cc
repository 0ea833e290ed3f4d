#include "fleet/load.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/error.h"
#include "support/rng.h"

namespace msv::fleet {

std::vector<double> FleetLoad::zipf_cdf(std::uint32_t tenants, double s) {
  MSV_CHECK_MSG(tenants > 0, "zipf over zero tenants");
  std::vector<double> cdf(tenants);
  double total = 0;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    total += 1.0 / std::pow(static_cast<double>(t + 1), s);
    cdf[t] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;  // close the interval against rounding
  return cdf;
}

FleetLoadReport FleetLoad::run(const FleetLoadSpec& spec) {
  router_.start();
  sched::Scheduler& sched = router_.scheduler();
  const std::uint32_t tenants = router_.config().tenants;
  const std::vector<double> cdf = zipf_cdf(tenants, spec.zipf_s);

  FleetLoadReport rep;
  const FleetStats before = router_.stats();
  const Cycles run_start = env_.clock.now();

  sched.spawn("fleet-gen", [&] {
    Rng rng(spec.seed * 0x9e3779b97f4a7c15ull + 1);
    Cycles next = env_.clock.now();
    for (std::uint64_t i = 0; i < spec.requests; ++i) {
      next += server::exp_gap(rng, spec.mean_interarrival_cycles);
      if (next > env_.clock.now()) sched.sleep_until(next);
      // Zipf draw: invert the precomputed CDF with one uniform sample.
      const double u = rng.next_double();
      const std::uint32_t tenant = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      server::Request r;
      r.op = rng.next_bool(spec.read_fraction) ? server::RequestOp::kBalance
                                               : server::RequestOp::kDeposit;
      r.arrival = next;
      ++rep.submitted;
      if (router_.submit(tenant, r)) ++rep.accepted;
    }
  });
  server::run_until_drained(sched, "fleet-drain",
                            [this] { return router_.pending(); });

  const double hz = env_.clock.hz();
  std::vector<Cycles> all;
  for (std::uint32_t k = 0; k < router_.shard_count(); ++k) {
    const std::vector<Cycles> lat = router_.shard(k).all_latencies();
    rep.per_shard.push_back(server::summarize_latencies(lat, hz));
    for (const Cycles c : lat) rep.latency_cycle_sum += c;
    all.insert(all.end(), lat.begin(), lat.end());
  }
  rep.aggregate = server::summarize_latencies(all, hz);
  rep.stats = router_.stats();
  // Counters accumulate on the router across runs; subtract the baseline
  // so back-to-back phases report their own deltas.
  rep.stats.accepted -= before.accepted;
  rep.stats.shed -= before.shed;
  rep.stats.completed -= before.completed;
  rep.stats.failed -= before.failed;
  rep.final_clock = env_.clock.now();
  rep.elapsed_seconds =
      static_cast<double>(rep.final_clock - run_start) / hz;
  rep.throughput_rps =
      rep.elapsed_seconds > 0
          ? static_cast<double>(rep.stats.completed) / rep.elapsed_seconds
          : 0;
  return rep;
}

}  // namespace msv::fleet
