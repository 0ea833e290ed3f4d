#include "telemetry/telemetry.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string_view>

#include "support/error.h"

namespace msv::telemetry {

const char* category_name(Category c) {
  switch (c) {
    case Category::kBridge:
      return "bridge";
    case Category::kTcs:
      return "tcs";
    case Category::kSwitchless:
      return "switchless";
    case Category::kRmi:
      return "rmi";
    case Category::kGc:
      return "gc";
    case Category::kEpc:
      return "epc";
    case Category::kSched:
      return "sched";
    case Category::kServer:
      return "server";
    case Category::kFault:
      return "fault";
    case Category::kFleet:
      return "fleet";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Bridge-call category registry

const std::vector<CallPrefix>& registered_call_prefixes() {
  // Match order matters: more specific prefixes first. Every bridge call
  // the repo registers today is covered; msvlint MSV008 flags relays that
  // would fall through (transform/transformer.cc names relays, so the
  // "ecall_relay_" / "ocall_relay_" rows are the ones it leans on).
  static const std::vector<CallPrefix> kPrefixes = {
      {"ecall_gc_", Category::kGc},
      {"ocall_gc_", Category::kGc},
      {"ecall_relay_", Category::kRmi},
      {"ocall_relay_", Category::kRmi},
      {"ecall_rmi_batch", Category::kRmi},
      {"ecall_", Category::kBridge},  // ecall_main, ecall_invoke, ...
      {"ocall_", Category::kBridge},  // shim I/O relays
  };
  return kPrefixes;
}

std::vector<std::string> registered_call_prefix_strings() {
  std::vector<std::string> out;
  for (const CallPrefix& p : registered_call_prefixes()) {
    out.emplace_back(p.prefix);
  }
  return out;
}

bool category_for_call(const std::string& call_name, Category* out) {
  for (const CallPrefix& p : registered_call_prefixes()) {
    if (call_name.rfind(p.prefix, 0) == 0) {
      if (out != nullptr) *out = p.category;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_index(std::uint64_t value) {
  constexpr unsigned kExactBits = kSubBits + 1;
  if (value < (1ull << kExactBits)) return static_cast<std::size_t>(value);
  const unsigned n = std::bit_width(value);  // position of highest set bit + 1
  const unsigned shift = n - kExactBits;
  const std::size_t sub =
      static_cast<std::size_t>((value >> shift) - (1ull << kSubBits));
  return (1u << kExactBits) +
         static_cast<std::size_t>(n - kExactBits - 1) * (1u << kSubBits) + sub;
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) {
  constexpr unsigned kExactBits = kSubBits + 1;
  if (index < (1u << kExactBits)) return index;
  const std::size_t rel = index - (1u << kExactBits);
  const std::size_t octave = rel >> kSubBits;
  const std::size_t sub = rel & ((1u << kSubBits) - 1);
  const unsigned shift = static_cast<unsigned>(octave) + 1;
  return (((1ull << kSubBits) + sub + 1) << shift) - 1;
}

void Histogram::record(std::uint64_t value) {
  const std::size_t index = bucket_index(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0) return min();
  if (q >= 1) return max_;
  // Rank of the q-th quantile, 1-based; walk buckets until we pass it.
  const std::uint64_t rank = static_cast<std::uint64_t>(q * count_) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::min(bucket_upper_bound(i), max_);
  }
  return max_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

std::string render_metric_key(const std::string& name, const LabelSet& labels) {
  if (labels.empty()) return name;
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += "=\"";
    key += sorted[i].second;
    key += '"';
  }
  key += '}';
  return key;
}

MetricsRegistry::Entry& MetricsRegistry::resolve(const std::string& name,
                                                 const LabelSet& labels,
                                                 Kind kind) {
  const std::string key = render_metric_key(name, labels);
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& e = it->second;
  if (inserted) {
    e.name = name;
    e.labels = labels;
    std::sort(e.labels.begin(), e.labels.end());
    e.kind = kind;
  } else {
    MSV_CHECK_MSG(e.kind == kind,
                  "metric '" + key + "' registered with two different types");
  }
  return e;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels) {
  return resolve(name, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels) {
  return resolve(name, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels) {
  return resolve(name, labels, Kind::kHistogram).histogram;
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    const std::string& name, const LabelSet& labels) const {
  const auto it = entries_.find(render_metric_key(name, labels));
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, const MetricsRegistry::Entry*>>
MetricsRegistry::sorted_entries() const {
  std::vector<std::pair<std::string, const Entry*>> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.emplace_back(key, &entry);
  return out;
}

// ---------------------------------------------------------------------------
// Tracer

void Tracer::configure(TraceMode mode, CategoryMask categories,
                       std::size_t max_spans) {
  full_ = mode == TraceMode::kFull;
  categories_ = categories;
  max_spans_ = max_spans;
}

namespace {

// The fixed span taxonomy, indexed by the ids in Telemetry::WellKnown.
const std::array<std::string, kWellKnownNames>& well_known_names() {
  static const std::array<std::string, kWellKnownNames> kNames = {
      "tcs.wait",      "swl.ring",        "swl.serve",      "fiber.sleep",
      "epc.page_in",   "epc.page_out",    "gc.collect",     "gc.roots",
      "gc.copy",       "gc.weak",         "gc.pause",       "rmi.dispatch",
      "rmi.batch",     "request",         "server.handle",  "fault.inject",
      "enclave.restart", "rmi.retry",     "fleet.request",  "fleet.failover",
      "fleet.promote", "fleet.restore",   "fleet.migrate",
  };
  return kNames;
}

const std::unordered_map<std::string_view, std::uint32_t>& well_known_ids() {
  static const std::unordered_map<std::string_view, std::uint32_t> kIds = [] {
    std::unordered_map<std::string_view, std::uint32_t> ids;
    for (std::uint32_t id = 0; id < kWellKnownNames; ++id) {
      ids.emplace(well_known_names()[id], id);
    }
    return ids;
  }();
  return kIds;
}

}  // namespace

std::uint32_t Tracer::intern(const std::string& name) {
  const auto fixed = well_known_ids().find(name);
  if (fixed != well_known_ids().end()) return fixed->second;
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(kWellKnownNames + names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

const std::string& Tracer::name(std::uint32_t id) const {
  if (id < kWellKnownNames) return well_known_names()[id];
  MSV_CHECK(id - kWellKnownNames < names_.size());
  return names_[id - kWellKnownNames];
}

void Tracer::set_thread_name(std::uint64_t tid, const std::string& name) {
  thread_names_[tid] = name;
}

std::uint32_t Tracer::alloc_record(std::uint64_t trace_id,
                                   std::uint64_t span_id,
                                   std::uint64_t parent_id, Category c,
                                   std::uint32_t name, std::int32_t tenant,
                                   std::uint64_t tid) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    ++dropped_by_category_[static_cast<std::size_t>(c)];
    return kNoIndex;
  }
  SpanRecord r;
  r.trace_id = trace_id;
  r.span_id = span_id;
  r.parent_id = parent_id;
  r.name = name;
  r.category = c;
  r.tenant = tenant;
  r.tid = tid;
  r.start = clock_->now();
  r.end = r.start;
  spans_.push_back(r);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::open_span(std::uint64_t trace_id, std::uint64_t parent_id,
                       Category c, std::uint32_t name, std::int32_t tenant) {
  const std::uint64_t tid = current_tid();
  const std::uint64_t span_id = next_span_id_++;
  if (trace_id == 0) trace_id = span_id;  // roots start a fresh trace
  const std::uint32_t index =
      alloc_record(trace_id, span_id, parent_id, c, name, tenant, tid);
  stacks_[tid].push_back(Frame{index, name, span_id, trace_id});
}

std::vector<std::uint32_t> Tracer::stack_names(std::uint64_t tid) const {
  std::vector<std::uint32_t> out;
  const auto it = stacks_.find(tid);
  if (it == stacks_.end()) return out;
  out.reserve(it->second.size());
  for (const Frame& f : it->second) out.push_back(f.name);
  return out;
}

void Tracer::begin_span(Category c, std::uint32_t name, std::int32_t tenant) {
  const std::uint64_t tid = current_tid();
  std::uint64_t trace_id = 0;
  std::uint64_t parent_id = 0;
  const auto it = stacks_.find(tid);
  if (it != stacks_.end() && !it->second.empty()) {
    trace_id = it->second.back().trace_id;
    parent_id = it->second.back().span_id;
  }
  open_span(trace_id, parent_id, c, name, tenant);
}

void Tracer::begin_span_adopted(const TraceContext& parent, Category c,
                                std::uint32_t name, std::int32_t tenant) {
  if (parent.span_id == 0) {
    begin_span(c, name, tenant);
    return;
  }
  open_span(parent.trace_id, parent.span_id, c, name, tenant);
}

void Tracer::end_span() {
  const std::uint64_t tid = current_tid();
  const auto it = stacks_.find(tid);
  if (it == stacks_.end() || it->second.empty()) return;
  const Frame frame = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) stacks_.erase(it);
  if (frame.index != kNoIndex) {
    SpanRecord& r = spans_[frame.index];
    r.end = clock_->now();
    r.open = false;
  }
}

TraceContext Tracer::current_context() const {
  const auto it = stacks_.find(current_tid());
  if (it == stacks_.end() || it->second.empty()) return {};
  return {it->second.back().trace_id, it->second.back().span_id};
}

Tracer::DetachedSpan Tracer::begin_detached(Category c, std::uint32_t name,
                                            std::int32_t tenant) {
  const std::uint64_t span_id = next_span_id_++;
  DetachedSpan d;
  d.ctx = {span_id, span_id};  // detached spans root their own trace
  d.index = alloc_record(span_id, span_id, /*parent_id=*/0, c, name, tenant,
                         current_tid());
  return d;
}

void Tracer::end_detached(const DetachedSpan& span) {
  if (span.index == kNoIndex || span.index >= spans_.size()) return;
  SpanRecord& r = spans_[span.index];
  r.end = clock_->now();
  r.open = false;
}

// ---------------------------------------------------------------------------
// Telemetry facade

Telemetry::Telemetry(const VirtualClock& clock)
    : clock_(&clock), tracer_(clock) {}

void Telemetry::configure(const TraceConfig& config) {
  config_ = config;
  tracer_.configure(config.mode, config.categories, config.max_spans);
}

}  // namespace msv::telemetry
