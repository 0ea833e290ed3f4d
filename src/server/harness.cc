#include "server/harness.h"

#include <cmath>
#include <string>

#include "support/rng.h"

namespace msv::server {

Cycles exp_gap(Rng& rng, Cycles mean) {
  const double u = rng.next_double();  // [0, 1)
  return static_cast<Cycles>(-std::log(1.0 - u) *
                             static_cast<double>(mean));
}

void run_until_drained(sched::Scheduler& sched, const std::string& drain_task,
                       const std::function<std::size_t()>& pending) {
  sched.run();  // generators finish (worker daemons may still hold work)
  sched.spawn(drain_task, [&] {
    while (pending() > 0) sched.sleep_for(kDrainQuantum);
  });
  sched.run();
}

namespace {

RequestOp pick_op(Rng& rng, double read_fraction) {
  return rng.next_bool(read_fraction) ? RequestOp::kBalance
                                      : RequestOp::kDeposit;
}

}  // namespace

LatencySummary summarize_latencies(const std::vector<Cycles>& lat,
                                   double hz) {
  LatencySummary s;
  s.count = lat.size();
  if (lat.empty()) return s;
  Samples samples;
  for (const Cycles c : lat) samples.add(static_cast<double>(c));
  const double to_us = 1e6 / hz;
  s.mean_us = samples.mean() * to_us;
  s.p50_us = samples.percentile(50.0) * to_us;
  s.p95_us = samples.percentile(95.0) * to_us;
  s.p99_us = samples.percentile(99.0) * to_us;
  s.max_us = samples.max() * to_us;
  return s;
}

HarnessReport LoadHarness::run_open_loop(const OpenLoopSpec& spec) {
  server_.start();
  sched::Scheduler& sched = server_.scheduler();
  for (std::uint32_t t = 0; t < server_.tenant_count(); ++t) {
    sched.spawn("gen-t" + std::to_string(t), [this, &sched, spec, t] {
      Rng rng(spec.seed * 0x9e3779b97f4a7c15ull + t + 1);
      Cycles next = env_.clock.now();
      for (std::uint64_t i = 0; i < spec.requests_per_tenant; ++i) {
        next += exp_gap(rng, spec.mean_interarrival_cycles);
        if (next > env_.clock.now()) sched.sleep_until(next);
        Request r;
        r.op = pick_op(rng, spec.read_fraction);
        r.arrival = next;
        server_.submit(t, r);
        if (spec.gc_every != 0 && t == spec.gc_tenant &&
            (i + 1) % spec.gc_every == 0) {
          server_.collect_tenant_async(t);
        }
      }
    });
  }
  run_until_drained(sched, "drain", [this] { return server_.pending(); });
  return report();
}

HarnessReport LoadHarness::run_closed_loop(const ClosedLoopSpec& spec) {
  server_.start();
  sched::Scheduler& sched = server_.scheduler();
  for (std::uint32_t t = 0; t < server_.tenant_count(); ++t) {
    for (std::uint32_t c = 0; c < spec.clients_per_tenant; ++c) {
      sched.spawn(
          "cli-t" + std::to_string(t) + "-" + std::to_string(c),
          [this, &sched, spec, t, c] {
            Rng rng(spec.seed * 0x9e3779b97f4a7c15ull +
                    (static_cast<std::uint64_t>(t) << 16) + c + 1);
            for (std::uint64_t i = 0; i < spec.requests_per_client; ++i) {
              Request r;
              r.op = pick_op(rng, spec.read_fraction);
              server_.submit_and_wait(t, r);
              if (spec.mean_think_cycles > 0) {
                sched.sleep_for(exp_gap(rng, spec.mean_think_cycles));
              }
            }
          });
    }
  }
  sched.run();  // clients are synchronous: done means drained
  return report();
}

HarnessReport LoadHarness::report() const {
  HarnessReport rep;
  const double hz = env_.clock.hz();
  std::vector<Cycles> all;
  for (std::uint32_t t = 0; t < server_.tenant_count(); ++t) {
    TenantReport tr;
    const std::vector<Cycles>& lat = server_.latencies(t);
    tr.latency = summarize_latencies(lat, hz);
    tr.stats = server_.tenant_stats(t);
    for (const Cycles c : lat) tr.latency_cycle_sum += c;
    rep.latency_cycle_sum += tr.latency_cycle_sum;
    all.insert(all.end(), lat.begin(), lat.end());
    rep.tenants.push_back(tr);
  }
  rep.aggregate = summarize_latencies(all, hz);
  const TenantStats s = server_.totals();
  rep.completed = s.completed;
  rep.shed = s.shed;
  rep.failed = s.failed;
  rep.retries = s.retries;
  rep.final_clock = env_.clock.now();
  rep.elapsed_seconds = env_.clock.seconds();
  rep.throughput_rps = rep.elapsed_seconds > 0
                           ? static_cast<double>(rep.completed) /
                                 rep.elapsed_seconds
                           : 0.0;
  return rep;
}

}  // namespace msv::server
