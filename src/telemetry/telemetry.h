// Unified telemetry layer: deterministic span tracing and a metrics
// registry over the simulated clock (DESIGN.md §10).
//
// Every subsystem of the simulation — bridge transitions, TCS queueing,
// switchless rings, RMI dispatch, GC phases, EPC paging, the fiber
// scheduler and the request server — reports into one spine:
//
//   * MetricsRegistry: counters, gauges and log-bucketed latency
//     histograms (p50/p90/p99/p999) keyed by name + labels. Hot paths
//     resolve a handle once and poke a field; adapters (adapters.h)
//     absorb the existing *Stats structs at export time so steady-state
//     collection costs nothing beyond what the seed already paid.
//   * Tracer: scoped spans stamped with VirtualClock cycles. Because all
//     timestamps are simulated, two runs at the same seed emit
//     byte-identical traces — a determinism property no wall-clock tracer
//     can offer, and one tier-1 asserts. Trace context (trace id + parent
//     span id) crosses task switches and enclave transitions so one
//     cross-enclave RMI renders as a single causal tree.
//
// Overhead-when-off contract: with TraceMode::kOff every instrumentation
// site reduces to one branch on a cached bool; nothing allocates, nothing
// is recorded, and — unconditionally, in every mode — telemetry never
// advances the virtual clock, so simulated cycle totals are identical
// whether tracing is on or off (bench/abl_* baselines are the proof).
//
// This header depends only on support/clock.h so it can sit inside Env
// without include cycles; it must not include sim/, sgx/ or sched/.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/clock.h"

namespace msv::telemetry {

// ---------------------------------------------------------------------------
// Categories

// Span taxonomy, one bit per subsystem (TraceConfig::categories masks).
enum class Category : std::uint8_t {
  kBridge = 0,  // raw ecall/ocall transitions (shim I/O, ecall_main, ...)
  kTcs,         // TCS slot queueing
  kSwitchless,  // ring hops: caller handshake and worker service
  kRmi,         // proxy invoke/construct, relay transitions, relay dispatch
  kGc,          // collector phases, GC-helper transitions, server GC pauses
  kEpc,         // page-in / page-out
  kSched,       // task lifetimes and fiber sleeps
  kServer,      // per-tenant request lifecycle
  kFault,       // injected faults, enclave restarts, request retries
  kFleet,       // shard routing, replica promotion, hot-tenant migration
};
inline constexpr std::size_t kCategoryCount = 10;

const char* category_name(Category c);

using CategoryMask = std::uint32_t;
constexpr CategoryMask mask_of(Category c) {
  return 1u << static_cast<unsigned>(c);
}
inline constexpr CategoryMask kAllCategories =
    (1u << kCategoryCount) - 1;

enum class TraceMode : std::uint8_t {
  kOff,          // no spans, no histogram recording
  kMetricsOnly,  // registry live (histograms record), no spans
  kFull,         // spans + metrics
};

struct TraceConfig {
  TraceMode mode = TraceMode::kOff;
  CategoryMask categories = kAllCategories;
  // Bounded span ring: spans beyond this are counted in dropped(), never
  // stored — memory stays bounded no matter how long the run.
  std::size_t max_spans = 1u << 18;
};

// ---------------------------------------------------------------------------
// Bridge-call category registry
//
// Every bridge call name is classified by prefix into the span taxonomy at
// registration time. msvlint's MSV008 checks the same table statically:
// a relay whose transition name no prefix covers would fall back to the
// generic kBridge category and silently opt out of RMI/GC trace filters.

struct CallPrefix {
  const char* prefix;
  Category category;
};

// The prefix table, in match order (first hit wins).
const std::vector<CallPrefix>& registered_call_prefixes();
// Just the prefix strings (LintOptions defaults, MSV008).
std::vector<std::string> registered_call_prefix_strings();
// Classifies a bridge call name; false when no prefix matches.
bool category_for_call(const std::string& call_name, Category* out);

// ---------------------------------------------------------------------------
// Metrics

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t delta = 1) { value += delta; }
};

struct Gauge {
  double value = 0;
  void set(double v) { value = v; }
};

// Log-bucketed histogram in the HdrHistogram style: values below 2^4 are
// exact; above that each power-of-two octave splits into 8 sub-buckets,
// bounding the relative quantile error at ~12.5% with a few hundred
// buckets across the full uint64 range. Buckets grow on demand, so a
// histogram that only ever sees small values stays small.
class Histogram {
 public:
  void record(std::uint64_t value);
  // Adds every bucket of `other` (the SLO monitor aggregates its trailing
  // windows this way). Exact: both sides share the same bucket geometry.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  // Quantile estimate (q in [0,1]): the upper bound of the bucket holding
  // the rank, clamped to the recorded max. 0 when empty.
  std::uint64_t quantile(double q) const;

  static std::size_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_upper_bound(std::size_t index);

 private:
  static constexpr unsigned kSubBits = 3;  // 8 sub-buckets per octave

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

using LabelSet = std::vector<std::pair<std::string, std::string>>;

// Canonical metric key: name{k1="v1",k2="v2"} with labels sorted by key.
std::string render_metric_key(const std::string& name, const LabelSet& labels);

// One tree of named metrics. Handles (the returned references) are stable
// for the registry's lifetime — resolve once, poke forever (the "cheap
// static handle" pattern the hot paths use).
class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    LabelSet labels;  // sorted by key
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Counter& counter(const std::string& name, const LabelSet& labels = {});
  Gauge& gauge(const std::string& name, const LabelSet& labels = {});
  Histogram& histogram(const std::string& name, const LabelSet& labels = {});

  // nullptr when the key was never registered.
  const Entry* find(const std::string& name, const LabelSet& labels = {}) const;

  // Entries sorted by canonical key — the deterministic export order.
  std::vector<std::pair<std::string, const Entry*>> sorted_entries() const;

  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  Entry& resolve(const std::string& name, const LabelSet& labels, Kind kind);

  // std::map: node stability makes every handle reference permanent, and
  // iteration order is the export order for free.
  std::map<std::string, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Tracing

// Size of the fixed span taxonomy: every tracer names ids
// 0..kWellKnownNames-1 without interning them (Telemetry::WellKnown).
inline constexpr std::uint32_t kWellKnownNames = 23;

// Propagated across tasks and enclave transitions: a ring worker or a
// server worker adopts the submitter's context so the serviced span hangs
// under the caller's tree. {0, 0} = no context (the adoptee roots a new
// trace).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::uint32_t name = 0;       // interned (Tracer::name())
  Category category = Category::kBridge;
  std::int32_t tenant = -1;  // per-tenant label, -1 = none
  std::uint64_t tid = 0;     // scheduler TaskId, 0 = main context
  Cycles start = 0;
  Cycles end = 0;
  bool open = true;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  explicit Tracer(const VirtualClock& clock) : clock_(&clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void configure(TraceMode mode, CategoryMask categories,
                 std::size_t max_spans);

  // The one hot-path gate: false short-circuits every instrumentation
  // site to a single branch.
  bool enabled(Category c) const {
    return full_ && (categories_ & mask_of(c)) != 0;
  }

  // Name interning. Registration-time code interns once and hot paths
  // carry the id; interning is idempotent. Ids below kWellKnownNames are
  // the fixed span taxonomy (Telemetry::WellKnown), the same in every
  // tracer; names interned at run time follow them.
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t id) const;

  // Per-task span stacks: the scheduler registers a callback returning
  // the running TaskId (0 outside tasks) so spans opened inside fibers
  // nest per task, not globally.
  void set_task_source(std::function<std::uint64_t()> source) {
    task_source_ = std::move(source);
  }
  void clear_task_source() { task_source_ = nullptr; }

  // Thread-name metadata for the Chrome trace rendering.
  void set_thread_name(std::uint64_t tid, const std::string& name);
  const std::map<std::uint64_t, std::string>& thread_names() const {
    return thread_names_;
  }

  // Opens a span on the current task's stack. Root spans (empty stack)
  // start a fresh trace; nested spans inherit trace id and parent.
  void begin_span(Category c, std::uint32_t name, std::int32_t tenant = -1);
  // Same, but parented under `parent` (cross-task adoption). A null
  // context degrades to begin_span.
  void begin_span_adopted(const TraceContext& parent, Category c,
                          std::uint32_t name, std::int32_t tenant = -1);
  // Closes the top span of the current task's stack (no-op when empty —
  // robust against mid-run reconfiguration).
  void end_span();

  // The innermost open span of the current task — what a submitter
  // stamps into a cross-task request descriptor.
  TraceContext current_context() const;

  // Detached spans live on no stack: opened by one task (request
  // admission) and closed by another (request completion).
  struct DetachedSpan {
    std::uint32_t index = kNoIndex;
    TraceContext ctx;  // for parenting children under this span
    bool valid() const { return ctx.span_id != 0; }
  };
  DetachedSpan begin_detached(Category c, std::uint32_t name,
                              std::int32_t tenant = -1);
  void end_detached(const DetachedSpan& span);

  const std::deque<SpanRecord>& spans() const { return spans_; }
  // Spans that hit the ring bound and were counted, not stored.
  std::uint64_t dropped() const { return dropped_; }
  // Ring-wrap accounting per subsystem: which category lost spans when
  // the ring filled (exported as msv_trace_dropped{category=...}).
  std::uint64_t dropped_in(Category c) const {
    return dropped_by_category_[static_cast<std::size_t>(c)];
  }
  // Total spans started (stored + dropped).
  std::uint64_t started() const { return next_span_id_ - 1; }

  // Interned name ids of `tid`'s open spans, outermost first (empty when
  // the task has none). Stack frames carry names even when the record
  // ring dropped the span, so the sampling profiler keeps attributing
  // after the ring wraps.
  std::vector<std::uint32_t> stack_names(std::uint64_t tid) const;

 private:
  struct Frame {
    std::uint32_t index;  // kNoIndex when the record was dropped
    std::uint32_t name;   // interned; survives a dropped record
    std::uint64_t span_id;
    std::uint64_t trace_id;
  };

  std::uint64_t current_tid() const {
    return task_source_ ? task_source_() : 0;
  }
  // Allocates the record (or drops) and pushes the stack frame.
  void open_span(std::uint64_t trace_id, std::uint64_t parent_id, Category c,
                 std::uint32_t name, std::int32_t tenant);
  std::uint32_t alloc_record(std::uint64_t trace_id, std::uint64_t span_id,
                             std::uint64_t parent_id, Category c,
                             std::uint32_t name, std::int32_t tenant,
                             std::uint64_t tid);

  const VirtualClock* clock_;
  bool full_ = false;
  CategoryMask categories_ = kAllCategories;
  std::size_t max_spans_ = 1u << 18;

  std::deque<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t dropped_by_category_[kCategoryCount] = {};
  std::uint64_t next_span_id_ = 1;

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  // Ordered map: deterministic, entries erased when a stack drains.
  std::map<std::uint64_t, std::vector<Frame>> stacks_;
  std::map<std::uint64_t, std::string> thread_names_;
  std::function<std::uint64_t()> task_source_;
};

// RAII span; the enabled() check happens once, at construction, so the
// destructor stays paired with it even if the config changes mid-scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, Category c, std::uint32_t name,
            std::int32_t tenant = -1)
      : tracer_(tracer.enabled(c) ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->begin_span(c, name, tenant);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end_span();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// RAII adopted span (cross-task parenting).
class AdoptedSpanScope {
 public:
  AdoptedSpanScope(Tracer& tracer, const TraceContext& parent, Category c,
                   std::uint32_t name, std::int32_t tenant = -1)
      : tracer_(tracer.enabled(c) ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->begin_span_adopted(parent, c, name, tenant);
    }
  }
  ~AdoptedSpanScope() {
    if (tracer_ != nullptr) tracer_->end_span();
  }

  AdoptedSpanScope(const AdoptedSpanScope&) = delete;
  AdoptedSpanScope& operator=(const AdoptedSpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Facade

class FlightBus;  // flight.h — forensics layer, attached via set_flight()

// One Telemetry per Env ("machine"): the registry, the tracer and the
// fixed ids of the span taxonomy's names, so hot paths never hash a
// string and building an Env interns nothing.
class Telemetry {
 public:
  // The fixed span names' tracer ids. The names themselves are one
  // process-wide table in telemetry.cc, in this order.
  struct WellKnown {
    std::uint32_t tcs_wait = 0;
    std::uint32_t swl_ring = 1;   // caller: enqueue -> completion
    std::uint32_t swl_serve = 2;  // worker: adopted service span
    std::uint32_t fiber_sleep = 3;
    std::uint32_t epc_page_in = 4;
    std::uint32_t epc_page_out = 5;
    std::uint32_t gc_collect = 6;
    std::uint32_t gc_roots = 7;
    std::uint32_t gc_copy = 8;
    std::uint32_t gc_weak = 9;
    std::uint32_t gc_pause = 10;
    std::uint32_t rmi_dispatch = 11;
    std::uint32_t rmi_batch = 12;
    std::uint32_t request = 13;
    std::uint32_t server_handle = 14;
    std::uint32_t fault_inject = 15;
    std::uint32_t enclave_restart = 16;
    std::uint32_t rmi_retry = 17;
    std::uint32_t fleet_request = 18;   // router admission -> completion
    std::uint32_t fleet_failover = 19;  // shard recovery window (either path)
    std::uint32_t fleet_promote = 20;   // replica promotion inside a failover
    std::uint32_t fleet_restore = 21;   // per-tenant checkpoint restore
    std::uint32_t fleet_migrate = 22;   // hot-tenant migration (drain+rebind)
  };

  explicit Telemetry(const VirtualClock& clock);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  void configure(const TraceConfig& config);
  const TraceConfig& config() const { return config_; }

  bool metrics_enabled() const { return config_.mode != TraceMode::kOff; }
  bool tracing_enabled() const { return config_.mode == TraceMode::kFull; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  static const WellKnown& names() {
    static constexpr WellKnown kNames;
    return kNames;
  }
  const VirtualClock& clock() const { return *clock_; }

  // Flight-recorder bus (flight.h). nullptr = disarmed: every recording
  // site in the bridge / faults / fleet layers is one pointer test, so
  // baselines without a bus stay byte-identical.
  FlightBus* flight() { return flight_; }
  void set_flight(FlightBus* bus) { flight_ = bus; }

 private:
  const VirtualClock* clock_;
  TraceConfig config_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  FlightBus* flight_ = nullptr;
};

}  // namespace msv::telemetry
