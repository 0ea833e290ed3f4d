// Shared types of the repository benchmark (see ../README.md).
//
// One process runs one workload. Its inputs are generated from the seed
// before any timing; the measured phase is then repeated ("reps") on a
// freshly built app stack until the requested host time has elapsed. Every
// rep of a workload is the same deterministic simulation, so the simulated
// metrics of all reps must agree bit for bit; host metrics are medians over
// the reps.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/app_model.h"
#include "support/clock.h"
#include "telemetry/telemetry.h"

namespace msv::sgx {
class TransitionBridge;
class Enclave;
}  // namespace msv::sgx
namespace msv::rt {
struct HeapStats;
}
namespace msv::interp {
struct ExecStats;
}

namespace msv::perfbench {

// Named values with units, in insertion order (the print order).
class Metrics {
 public:
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  // Adds `delta` to `name` (creating it at 0).
  void add(const std::string& name, double delta, const std::string& unit);
  void add_all(const Metrics& other);
  // Value of `name`, 0 when absent.
  double get(const std::string& name) const;
  bool has(const std::string& name) const;
  const std::vector<Item>& items() const { return items_; }
  bool operator==(const Metrics& o) const;

 private:
  Item* find(const std::string& name);
  std::vector<Item> items_;
};

// Operation accounting shared by every workload.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // finished with an error
  std::uint64_t shed = 0;    // refused at admission (serve only)
  void add(const OpCounts& o) {
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    shed += o.shed;
  }
};

inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host-clock spans recorded by the benchmark around every call it makes
// into a layer: name, start, end, parent and the id of the benchmark
// operation being served. Every span is aggregated per name (count, total
// time, time inside each named parent); the first kMaxStored are also kept
// as records and written out at exit, the rest are counted as dropped so
// memory stays bounded. When disabled (untraced reps) a scope costs one
// branch.
class HostTrace {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // index + 1 of the parent record, 0 = none
    std::uint64_t op = 0;
    double start = 0;  // host seconds (steady clock)
    double end = 0;
  };
  static constexpr std::size_t kMaxStored = 1u << 19;

  explicit HostTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint32_t intern(const std::string& name);
  void set_op(std::uint64_t op) { op_ = op; }
  void begin(std::uint32_t name);
  void end();

  // Sum of the durations of the spans named `name`, and their number.
  double total_s(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  // Time covered by spans named `child` whose parent is named `parent`.
  double child_s(const std::string& parent, const std::string& child) const;
  std::uint64_t spans() const { return started_; }
  std::uint64_t dropped() const { return started_ - records_.size(); }
  std::string to_json() const;

  class Scope {
   public:
    Scope(HostTrace& trace, std::uint32_t name)
        : trace_(trace.enabled_ ? &trace : nullptr) {
      if (trace_ != nullptr) trace_->begin(name);
    }
    ~Scope() {
      if (trace_ != nullptr) trace_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTrace* trace_;
  };

 private:
  struct Open {
    std::uint32_t name;
    std::uint32_t record;  // index + 1 into records_, 0 = not stored
    double start;
  };
  struct PerName {
    std::uint64_t count = 0;
    double total = 0;
    std::vector<double> in_parent;  // by parent name id
  };
  std::uint32_t find(const std::string& name) const;  // ~0u when unknown
  bool enabled_;
  std::uint64_t op_ = 0;
  std::uint64_t started_ = 0;
  std::vector<std::string> names_;
  std::vector<PerName> per_name_;
  std::vector<Span> records_;
  std::vector<Open> open_;
};

// Mid-distribution quantile (q in [0, 1]) of `values`; 0 when empty. Each
// distinct value sits at the middle of its step of the empirical CDF, and
// the quantile interpolates linearly between those points (clamped to the
// smallest and largest value). Simulated latencies take a few exact values,
// one per op kind and size; a plain order statistic would read one kind's
// fixed cost whatever the mix, this estimator moves with the mix. On
// continuous data it is the usual interpolated percentile.
double quantile(std::vector<double> values, double q);
// Median of host measurements (the midpoint of the middle two when even).
double median(std::vector<double> values);

// Exclusive simulated cycles per telemetry span category.
struct SpanAttribution {
  Cycles untraced = 0;  // cycles inside no span (a pass of its own)
  Cycles self[telemetry::kCategoryCount] = {};
  Cycles sleep_self = 0;       // self cycles of "fiber.sleep" spans
  Cycles handle_cycles = 0;    // total duration of "server.handle" spans
  Cycles request_cycles = 0;   // total duration of "request" spans
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  void add(const SpanAttribution& o);
};

// Attributes every simulated cycle in [0, total) to the innermost open span
// on the timeline (the open span that started last). `untraced` is computed
// apart from that sweep, as `total` minus the length of the union of all
// span intervals, so the self cycles plus `untraced` equal `total` only if
// the sweep gave every covered cycle to exactly one span. The sweep is also
// checked against the span tree, trace by trace on each fiber, where spans
// nest: a span's self time there must equal its duration minus its
// children's; a mismatch throws CheckFailure.
SpanAttribution attribute_spans(const telemetry::Telemetry& tel, Cycles total);

// Result of one rep of a workload.
struct RepResult {
  double measured_s = 0;  // host time of the measured phase
  std::uint64_t ops = 0;  // operations in the measured phase
  OpCounts counts;
  Metrics sim;            // simulated end-to-end metrics (deterministic)
  Metrics counters;       // raw per-layer counters (stats deltas)
  Cycles total_cycles = 0;  // simulated cycles of the whole rep
  SpanAttribution spans;    // traced reps only
};

class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Throws CheckFailure(what) unless `ok`.
void check(bool ok, const std::string& what);

// A workload generates its inputs in its constructor, from the seed, before
// anything is timed.
class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the app stack up to the first measured op and tears it down;
  // returns the host seconds of the build (one setup_s sample).
  virtual double setup_only() = 0;
  // One rep: build, run the measured phase, check the outputs (throwing
  // CheckFailure on a wrong one) and report.
  virtual RepResult run(HostTrace& trace) = 0;
};

std::unique_ptr<Workload> make_serve(std::uint64_t seed);
std::unique_ptr<Workload> make_rmi(std::uint64_t seed);
std::unique_ptr<Workload> make_gc(std::uint64_t seed);
std::unique_ptr<Workload> make_kv(std::uint64_t seed);

// ---- Helpers shared by the workloads ----

// Calls the transform -> images -> EDL stages directly on `app` inside
// "build.*" host spans (the partitioned pipeline, or the single-image
// pipeline of an unpartitioned app).
void time_build_stages(const model::AppModel& app, bool partitioned,
                       HostTrace& trace);

// Adds the per-layer counters of a bridge + enclave pair, a heap and an
// execution context. Call once before and once after the measured phase
// with sign -1 / +1 to take the delta.
void add_sgx_counters(Metrics& c, sgx::TransitionBridge& bridge,
                      sgx::Enclave& enclave, double sign);
void add_heap_counters(Metrics& c, const rt::HeapStats& heap, double sign);
void add_exec_counters(Metrics& c, const interp::ExecStats& exec,
                       double sign);

// sim_p50_us / sim_p99_us of per-op simulated latencies.
void set_latency_metrics(Metrics& m, const std::vector<Cycles>& lat,
                         double hz);

// The SLO of sim_max_rps_at_slo: p99 at or below this, in simulated us.
inline constexpr double kSloP99Us = 1000.0;
// How many of `lat` are within the SLO.
std::uint64_t within_slo(const std::vector<Cycles>& lat, double hz);

// The per-layer metrics printed by a traced run, in order, with units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

// Builds the per-layer metrics of a traced rep from its counters, span
// attribution and host spans, plus the traced-vs-untraced comparison.
Metrics layer_metrics(const RepResult& traced, const HostTrace& trace,
                      double traced_host_s, double untraced_host_s,
                      double sim_delta_cycles);

}  // namespace msv::perfbench
