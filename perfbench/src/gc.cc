// gc: the Table 1 monte_carlo job inside the enclave (core::UnpartitionedApp)
// at its default size. Exists because allocation and copying GC dominate it
// behind a single transition: it isolates the runtime (heap, collector) from
// the RMI layer and the bridge, with the kernel's own time as a control.
// The 48 MB heap fits in the EPC, so it runs eviction-free.
#include <cmath>

#include "apps/specjvm/harness.h"
#include "baselines/jvm.h"
#include "bench.h"
#include "core/app.h"
#include "kernels/kernels.h"
#include "runtime/churn.h"
#include "support/rng.h"

namespace msv::perfbench {
namespace {

using apps::specjvm::Benchmark;
using apps::specjvm::WorkloadSpec;

// Paper value behind paper_err_pct: Table 1's monte_carlo gain of SGX-NI
// over SCONE+JVM (DESIGN.md §4).
constexpr double kPaperGain = 0.25;

class GcWorkload final : public Workload {
 public:
  explicit GcWorkload(std::uint64_t seed)
      : spec_(WorkloadSpec::defaults(Benchmark::kMonteCarlo)),
        model_(apps::specjvm::build_model(Benchmark::kMonteCarlo, spec_)) {
    // The seed picks the kernel's random stream and adds less than 1 KiB
    // (0.005%) to the live window; the default size is otherwise kept.
    // Every collection copies the whole window, so at a fixed window every
    // simulated time of the job would read the same on every seed.
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6c);
    rng_seed_ = rng.next_u64();
    live_bytes_ = spec_.churn_live_bytes + rng.next_below(1024);
    // Reference result of the kernel, computed outside the simulator.
    Rng ref(rng_seed_);
    std::uint64_t inside = 0;
    for (std::uint64_t i = 0; i < spec_.mc_samples; ++i) {
      const double x = ref.next_double();
      const double y = ref.next_double();
      if (x * x + y * y <= 1.0) ++inside;
    }
    expected_checksum_ = 4.0 * static_cast<double>(inside) /
                         static_cast<double>(spec_.mc_samples);
  }

  core::AppConfig config(bool traced) const {
    core::AppConfig c;
    c.trusted_heap_bytes = spec_.heap_bytes;
    c.untrusted_heap_bytes = spec_.heap_bytes;
    if (traced) {
      c.trace.mode = telemetry::TraceMode::kFull;
      c.trace.max_spans = 1u << 20;
    }
    return c;
  }

  double setup_only() override {
    const double t0 = host_now();
    core::UnpartitionedApp app(model_, config(false));
    return host_now() - t0;
  }

  RepResult run(HostTrace& trace) override;

 private:
  WorkloadSpec spec_;
  model::AppModel model_;
  std::uint64_t rng_seed_ = 0;
  std::uint64_t live_bytes_ = 0;
  double expected_checksum_ = 0;
};

RepResult GcWorkload::run(HostTrace& trace) {
  const std::uint32_t span_build = trace.intern("build.app");
  const std::uint32_t span_ecall = trace.intern("sgx.run_in_enclave");
  const std::uint32_t span_kernel = trace.intern("kernels.monte_carlo");
  const std::uint32_t span_churn = trace.intern("runtime.alloc_churn");
  RepResult r;
  if (trace.enabled()) time_build_stages(model_, false, trace);

  std::unique_ptr<core::UnpartitionedApp> app_ptr;
  {
    HostTrace::Scope s(trace, span_build);
    app_ptr = std::make_unique<core::UnpartitionedApp>(
        model_, config(trace.enabled()));
  }
  core::UnpartitionedApp& app = *app_ptr;
  Env& env = app.env();
  rt::Heap& heap = app.context().isolate().heap();
  const Cycles enclave_build = env.clock.now();

  // One latency sample per collection: its pause.
  std::vector<Cycles> pauses;
  Cycles gc_seen = heap.stats().gc_cycles_total;
  heap.set_gc_observer([&](std::uint64_t, std::uint64_t) {
    pauses.push_back(heap.stats().gc_cycles_total - gc_seen);
    gc_seen = heap.stats().gc_cycles_total;
  });

  auto snapshot = [&](Metrics& c, double sign) {
    add_sgx_counters(c, app.bridge(), app.enclave(), sign);
    add_heap_counters(c, heap.stats(), sign);
    add_exec_counters(c, app.context().stats(), sign);
  };
  snapshot(r.counters, -1);
  kernels::KernelResult kr;
  Cycles kernel_cycles = 0;
  const Cycles t0 = env.clock.now();
  const double h0 = host_now();
  {
    HostTrace::Scope s(trace, span_ecall);
    app.run_in_enclave([&](interp::ExecContext& ctx) {
      Rng rng(rng_seed_);
      const Cycles k0 = env.clock.now();
      {
        HostTrace::Scope k(trace, span_kernel);
        kr = kernels::monte_carlo(env, ctx.isolate().domain(),
                                  spec_.mc_samples, rng);
      }
      kernel_cycles = env.clock.now() - k0;
      HostTrace::Scope c(trace, span_churn);
      rt::alloc_churn(ctx.isolate(), kr.alloc_bytes, live_bytes_);
      return rt::Value();
    });
  }
  r.measured_s = host_now() - h0;
  const Cycles sim_cycles = env.clock.now() - t0;
  snapshot(r.counters, +1);
  heap.set_gc_observer(nullptr);

  check(kr.checksum == expected_checksum_,
        "gc: the monte_carlo checksum differs from the reference");
  check(!pauses.empty(), "gc: the job ran no collection");

  const double hz = env.clock.hz();
  const double sim_s = static_cast<double>(sim_cycles) / hz;
  const std::uint64_t samples = spec_.mc_samples;
  r.ops = samples;
  r.counts.attempted = r.counts.completed = samples;
  r.sim.set("sim_ops_per_s", static_cast<double>(samples) / sim_s, "1/s");
  set_latency_metrics(r.sim, pauses, hz);
  r.sim.set("sim_p99_us.peak", r.sim.get("sim_p99_us"), "us");
  // A sample misses the SLO when its allocation triggers a pause longer
  // than the SLO.
  const std::uint64_t missed = pauses.size() - within_slo(pauses, hz);
  r.sim.set("sim_max_rps_at_slo",
            static_cast<double>(samples - missed) / sim_s, "1/s");
  // Table 1: SCONE+JVM over SGX-NI, the JVM estimated from this run's
  // measured decomposition exactly as the Fig. 12 harness does.
  const Cycles total = env.clock.now();
  const baselines::JvmEstimator jvm(env.cost);
  const double scone =
      jvm.estimate(apps::specjvm::kSpecJvmClassCount, total,
                   heap.stats().gc_cycles_total, /*in_scone=*/true,
                   spec_.jvm_compute_factor)
          .seconds(env.cost);
  const double gain = scone / env.clock.seconds();
  r.sim.set("paper_err_pct", 100.0 * std::fabs(gain - kPaperGain) / kPaperGain,
            "%");
  r.counters.set("paper.table1_gain", gain, "ratio");
  r.counters.set("kernels.cycles", static_cast<double>(kernel_cycles),
                 "cycles");
  r.counters.set("sgx.enclave_build_cycles", static_cast<double>(enclave_build),
                 "cycles");
  r.total_cycles = total;
  if (trace.enabled()) {
    r.spans = attribute_spans(env.telemetry, r.total_cycles);
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_gc(std::uint64_t seed) {
  return std::make_unique<GcWorkload>(seed);
}

}  // namespace msv::perfbench
