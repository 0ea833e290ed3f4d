// rmi: the Fig. 3-5 micro app (core::PartitionedApp over
// apps::synthetic::build_micro_app) driven by one closed-loop caller with
// zero think time. Exists because it is the paper's core mechanism: proxy
// creation, primitive and serialized RMIs in both directions, the wire
// codec, the mirror registry, the GC helpers and the interpreter.
#include <cmath>

#include "apps/synthetic/generator.h"
#include "bench.h"
#include "core/app.h"
#include "support/rng.h"

namespace msv::perfbench {
namespace {

using rt::Value;
using rt::ValueList;

enum class OpKind : std::uint8_t {
  kCreate,      // out->in proxy creation: new Worker()
  kSet,         // out->in primitive RMI: worker.set(v)
  kGet,         // out->in primitive RMI: worker.get()
  kSetList,     // out->in serialized RMI: worker.set_list(100 strings)
  kDriverSet,   // in->out: driver.call_sink(n) -> n x sink.set(i)
  kDriverList,  // in->out: driver.call_sink_list(n, list) -> n x set_list
  kRelease,     // drop one Worker proxy (its mirror is evicted later)
};

struct Op {
  OpKind kind;
  std::uint32_t slot = 0;  // index into the live Worker pool
  std::int32_t value = 0;  // kSet value, or n of the Driver ops
  std::uint32_t payload = 0;
};

// The op mix is the calls the Fig. 3-5 harnesses (bench/fig03_proxy_creation,
// fig04_rmi, fig05_gc) issue at their default sizes, per kind, divided by
// kScale and played in a seeded random order.
constexpr std::uint32_t kScale = 250;
// fig04b makes 10k in->out RMIs per Driver call, and subtracts the cost of
// a zero-iteration call (the enclave entry and the Sink creation).
constexpr std::int32_t kDriverN = 10'000 / kScale;
struct KindCount {
  OpKind kind;
  std::int32_t n;  // inner RMIs of a Driver op
  std::uint32_t calls;
};
constexpr KindCount kMix[] = {
    // fig03 proxy-out->in, n = 10k..100k: 550k; fig05b: 25 s x 6,000.
    {OpKind::kCreate, 0, (550'000 + 150'000) / kScale},
    // fig05b drops all 150k proxies.
    {OpKind::kRelease, 0, 150'000 / kScale},
    // fig04a proxy-out->in 550k + fig04b 100k setter calls; half are
    // issued as get(), the read the output check needs.
    {OpKind::kSet, 0, 325'000 / kScale},
    {OpKind::kGet, 0, 325'000 / kScale},
    // fig04b proxy-out->in+s: 10 list sizes x 10k.
    {OpKind::kSetList, 0, 100'000 / kScale},
    // fig04a proxy-in->out 550k + fig04b 100k setter RMIs, kDriverN per call,
    // each call with its zero-iteration twin.
    {OpKind::kDriverSet, kDriverN, 650'000 / kScale / kDriverN},
    {OpKind::kDriverSet, 0, 650'000 / kScale / kDriverN},
    // fig04b proxy-in->out+s: 100k list RMIs.
    {OpKind::kDriverList, kDriverN, 100'000 / kScale / kDriverN},
    {OpKind::kDriverList, 0, 100'000 / kScale / kDriverN},
};

constexpr std::uint32_t kInitialWorkers = 8;  // never released below this
constexpr std::uint32_t kPayloads = 32;
constexpr std::uint32_t kListSize = 100;    // Fig. 4b's largest list
constexpr std::uint32_t kStringBytes = 16;  // Fig. 4b's 16-byte strings
// Housekeeping every this many ops and after every call_sink_list: both
// heaps are collected and the GC helpers scan, so released proxies die and
// their mirrors are evicted during the run. A call_sink_list leaves kDriverN
// lists of garbage behind at once; collecting right after it keeps the heaps'
// high-water marks, and with them the peak RSS, from depending on how the
// seed's order clusters those calls.
constexpr std::uint32_t kCollectEvery = 100;
// Paper values behind paper_err_pct (Fig. 4b, DESIGN.md §4).
constexpr double kPaperInRatio = 10.0;
constexpr double kPaperOutRatio = 3.0;

class RmiWorkload final : public Workload {
 public:
  explicit RmiWorkload(std::uint64_t seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x52d1);
    for (std::uint32_t p = 0; p < kPayloads; ++p) {
      ValueList items;
      for (std::uint32_t i = 0; i < kListSize; ++i) {
        std::string s(kStringBytes, ' ');
        for (char& c : s) c = static_cast<char>('a' + rng.next_below(26));
        items.emplace_back(std::move(s));
      }
      payloads_.emplace_back(std::move(items));
    }
    std::vector<Op> order;
    for (const KindCount& k : kMix) {
      for (std::uint32_t i = 0; i < k.calls; ++i) {
        order.push_back({k.kind, 0, k.n, 0});
      }
    }
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    // Operands follow the pool size, so every op names a live slot; a
    // release that would shrink the pool below its initial size waits for
    // the next creation.
    std::uint32_t live = kInitialWorkers, held = 0;
    auto slot = [&] {
      return static_cast<std::uint32_t>(rng.next_below(live));
    };
    for (Op op : order) {
      if (op.kind == OpKind::kRelease && live == kInitialWorkers) {
        ++held;
        continue;
      }
      if (op.kind == OpKind::kSet || op.kind == OpKind::kGet ||
          op.kind == OpKind::kSetList || op.kind == OpKind::kRelease) {
        op.slot = slot();
      }
      if (op.kind == OpKind::kSet) {
        op.value = static_cast<std::int32_t>(rng.next_below(1u << 30));
      }
      op.payload = static_cast<std::uint32_t>(rng.next_below(kPayloads));
      ops_.push_back(op);
      if (op.kind == OpKind::kRelease) --live;
      if (op.kind == OpKind::kCreate) {
        ++live;
        if (held > 0) {
          --held;
          ops_.push_back({OpKind::kRelease, slot()});
          --live;
        }
      }
    }
  }

  double setup_only() override {
    const double t0 = host_now();
    core::PartitionedApp app(model_);
    app.untrusted_context().construct("Driver", {});
    return host_now() - t0;
  }

  RepResult run(HostTrace& trace) override;

 private:
  model::AppModel model_ = apps::synthetic::build_micro_app();
  std::vector<Value> payloads_;
  std::vector<Op> ops_;
};

struct Worker {
  Value proxy;
  std::int32_t value = 0;     // last set(), 0 after construction
  std::int32_t payload = -1;  // last set_list() payload, -1 = none
};

double median_of(const std::vector<Cycles>& v) {
  std::vector<double> d(v.begin(), v.end());
  return median(d);
}

RepResult RmiWorkload::run(HostTrace& trace) {
  const std::uint32_t span_invoke = trace.intern("rmi.invoke");
  const std::uint32_t span_construct = trace.intern("rmi.construct");
  const std::uint32_t span_build = trace.intern("build.app");
  RepResult r;
  if (trace.enabled()) time_build_stages(model_, true, trace);

  core::AppConfig config;
  if (trace.enabled()) {
    config.trace.mode = telemetry::TraceMode::kFull;
    config.trace.max_spans = 1u << 23;
  }
  std::unique_ptr<core::PartitionedApp> app_ptr;
  {
    HostTrace::Scope s(trace, span_build);
    app_ptr = std::make_unique<core::PartitionedApp>(model_, config);
  }
  core::PartitionedApp& app = *app_ptr;
  interp::ExecContext& u = app.untrusted_context();
  Env& env = app.env();
  const Cycles enclave_build = env.clock.now();
  Value driver;
  std::vector<Worker> pool;
  {
    HostTrace::Scope s(trace, span_construct);
    driver = u.construct("Driver", {});
    for (std::uint32_t i = 0; i < kInitialWorkers; ++i) {
      pool.push_back({u.construct("Worker", {})});
    }
  }

  auto snapshot = [&](Metrics& c, double sign) {
    add_sgx_counters(c, app.bridge(), app.enclave(), sign);
    add_heap_counters(c, app.trusted_context().isolate().heap().stats(), sign);
    add_heap_counters(c, u.isolate().heap().stats(), sign);
    add_exec_counters(c, app.trusted_context().stats(), sign);
    add_exec_counters(c, u.stats(), sign);
    const rmi::RmiStats& s = app.rmi().stats();
    c.add("rmi.invocations", sign * static_cast<double>(s.remote_invocations),
          "count");
    c.add("rmi.transitions", sign * static_cast<double>(s.transitions),
          "count");
    c.add("rmi.fast_path_calls", sign * static_cast<double>(s.fast_path_calls),
          "count");
    c.add("rmi.proxies_created", sign * static_cast<double>(s.proxies_created),
          "count");
    for (const Side side : {Side::kTrusted, Side::kUntrusted}) {
      c.add("rmi.gc_helper_scans",
            sign * static_cast<double>(app.rmi().gc_stats(side).scans),
            "count");
      c.add("rmi.mirrors_evicted",
            sign * static_cast<double>(
                       app.rmi().registry(side).stats().removes),
            "count");
    }
  };
  snapshot(r.counters, -1);

  // Per-op simulated latency, by kind (Driver ops by n = 0 / kDriverN).
  std::vector<Cycles> all, set_lat, list_lat;
  std::vector<Cycles> drv_set[2], drv_list[2];
  all.reserve(ops_.size());
  std::uint64_t issued = 0;  // RMIs the benchmark issued (constructs excluded)
  std::uint64_t get_mismatch = 0;
  const Cycles t0 = env.clock.now();
  const double h0 = host_now();
  for (std::uint32_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    trace.set_op(i + 1);
    const Cycles c0 = env.clock.now();
    switch (op.kind) {
      case OpKind::kCreate: {
        HostTrace::Scope s(trace, span_construct);
        pool.push_back({u.construct("Worker", {})});
        break;
      }
      case OpKind::kRelease:
        if (op.slot + 1 != pool.size()) pool[op.slot] = std::move(pool.back());
        pool.pop_back();
        break;
      case OpKind::kSet: {
        HostTrace::Scope s(trace, span_invoke);
        u.invoke(pool[op.slot].proxy.as_ref(), "set", {Value(op.value)});
        pool[op.slot].value = op.value;
        ++issued;
        break;
      }
      case OpKind::kGet: {
        Value v;
        {
          HostTrace::Scope s(trace, span_invoke);
          v = u.invoke(pool[op.slot].proxy.as_ref(), "get", {});
        }
        get_mismatch += v.as_i32() == pool[op.slot].value ? 0 : 1;
        ++issued;
        break;
      }
      case OpKind::kSetList: {
        HostTrace::Scope s(trace, span_invoke);
        u.invoke(pool[op.slot].proxy.as_ref(), "set_list",
                 {payloads_[op.payload]});
        pool[op.slot].payload = static_cast<std::int32_t>(op.payload);
        ++issued;
        break;
      }
      case OpKind::kDriverSet: {
        HostTrace::Scope s(trace, span_invoke);
        u.invoke(driver.as_ref(), "call_sink",
                 {Value(static_cast<std::int64_t>(op.value))});
        issued += 1 + static_cast<std::uint64_t>(op.value);
        break;
      }
      case OpKind::kDriverList: {
        HostTrace::Scope s(trace, span_invoke);
        u.invoke(driver.as_ref(), "call_sink_list",
                 {Value(static_cast<std::int64_t>(op.value)),
                  payloads_[op.payload]});
        issued += 1 + static_cast<std::uint64_t>(op.value);
        break;
      }
    }
    const Cycles lat = env.clock.now() - c0;
    if (op.kind != OpKind::kRelease) all.push_back(lat);
    if (op.kind == OpKind::kSet) set_lat.push_back(lat);
    if (op.kind == OpKind::kSetList) list_lat.push_back(lat);
    if (op.kind == OpKind::kDriverSet) drv_set[op.value > 0].push_back(lat);
    if (op.kind == OpKind::kDriverList) drv_list[op.value > 0].push_back(lat);
    if ((i + 1) % kCollectEvery == 0 || op.kind == OpKind::kDriverList) {
      // Housekeeping, not an op.
      u.isolate().heap().collect();
      app.rmi().force_gc_scan();
      app.trusted_context().isolate().heap().collect();
    }
  }
  r.measured_s = host_now() - h0;
  const Cycles sim_cycles = env.clock.now() - t0;
  snapshot(r.counters, +1);

  // ---- Output checks ----
  check(get_mismatch == 0, "rmi: a get() did not return the preceding set()");
  // After the last helper scan the trusted mirrors are exactly the live
  // untrusted proxies: the pool, the Driver and nothing else.
  u.isolate().heap().collect();
  app.rmi().force_gc_scan();
  const std::size_t mirrors = app.rmi().registry(Side::kTrusted).size();
  check(mirrors == app.rmi().live_proxy_count(Side::kUntrusted) &&
            mirrors == pool.size() + 1,
        "rmi: trusted mirror count " + std::to_string(mirrors) +
            " != live proxy count " + std::to_string(pool.size() + 1));
  // Sampled set_list payloads read back intact from the mirrors.
  rt::Isolate& trusted = app.trusted_context().isolate();
  for (std::size_t w = 0; w < pool.size(); w += 4) {
    if (pool[w].payload < 0) continue;
    const std::int64_t hash =
        u.isolate().get_field(pool[w].proxy.as_ref(), 0).as_i64();
    const Value items =
        trusted.get_field(app.rmi().registry(Side::kTrusted).get(hash), 1);
    const ValueList& want = payloads_[pool[w].payload].as_list();
    const ValueList& got = items.as_list();
    bool same = got.size() == want.size();
    for (std::size_t k = 0; same && k < got.size(); ++k) {
      same = got[k].as_string() == want[k].as_string();
    }
    check(same, "rmi: a set_list payload did not read back intact");
  }
  check(static_cast<double>(issued) == r.counters.get("rmi.invocations"),
        "rmi: runtime invocation count differs from the RMIs issued");

  // ---- Metrics ----
  const double hz = env.clock.hz();
  r.ops = all.size();
  r.counts.attempted = r.counts.completed = all.size();
  r.sim.set("sim_ops_per_s",
            static_cast<double>(all.size()) /
                (static_cast<double>(sim_cycles) / hz),
            "1/s");
  set_latency_metrics(r.sim, all, hz);
  r.sim.set("sim_p99_us.peak", r.sim.get("sim_p99_us"), "us");
  r.sim.set("sim_max_rps_at_slo",
            static_cast<double>(within_slo(all, hz)) /
                (static_cast<double>(sim_cycles) / hz),
            "1/s");
  // Fig. 4b at list size 100: serialized over unserialized cost; in->out,
  // a Driver call's cost minus its zero-iteration twin's, as fig04 does.
  const double out_ratio = median_of(list_lat) / median_of(set_lat);
  const double in_ratio =
      (median_of(drv_list[1]) - median_of(drv_list[0])) /
      (median_of(drv_set[1]) - median_of(drv_set[0]));
  r.sim.set("paper_err_pct",
            50.0 * (std::fabs(in_ratio - kPaperInRatio) / kPaperInRatio +
                    std::fabs(out_ratio - kPaperOutRatio) / kPaperOutRatio),
            "%");
  r.counters.set("rmi.issued", static_cast<double>(issued), "count");
  r.counters.set("sgx.enclave_build_cycles", static_cast<double>(enclave_build),
                 "cycles");
  r.counters.set("paper.fig4b_in_ratio", in_ratio, "ratio");
  r.counters.set("paper.fig4b_out_ratio", out_ratio, "ratio");
  r.total_cycles = env.clock.now();
  if (trace.enabled()) {
    r.spans = attribute_spans(env.telemetry, r.total_cycles);
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_rmi(std::uint64_t seed) {
  return std::make_unique<RmiWorkload>(seed);
}

}  // namespace msv::perfbench
