#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "interp/exec_context.h"
#include "runtime/heap.h"
#include "sgx/bridge.h"
#include "sgx/edl.h"
#include "sgx/enclave.h"
#include "shim/enclave_shim.h"
#include "transform/image_builder.h"
#include "transform/reachability.h"
#include "transform/transformer.h"

namespace msv::perfbench {

// ---------------------------------------------------------------------------
// Metrics

Metrics::Item* Metrics::find(const std::string& name) {
  for (Item& it : items_) {
    if (it.name == name) return &it;
  }
  return nullptr;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (Item* it = find(name)) {
    it->value = value;
    it->unit = unit;
  } else {
    items_.push_back({name, value, unit});
  }
}

void Metrics::add(const std::string& name, double delta,
                  const std::string& unit) {
  if (Item* it = find(name)) {
    it->value += delta;
  } else {
    items_.push_back({name, delta, unit});
  }
}

void Metrics::add_all(const Metrics& other) {
  for (const Item& it : other.items_) add(it.name, it.value, it.unit);
}

double Metrics::get(const std::string& name) const {
  for (const Item& it : items_) {
    if (it.name == name) return it.value;
  }
  return 0;
}

bool Metrics::has(const std::string& name) const {
  for (const Item& it : items_) {
    if (it.name == name) return true;
  }
  return false;
}

bool Metrics::operator==(const Metrics& o) const {
  if (items_.size() != o.items_.size()) return false;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    // Bit-for-bit: simulated metrics are deterministic.
    if (items_[i].name != o.items_[i].name ||
        std::memcmp(&items_[i].value, &o.items_[i].value, sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// ---------------------------------------------------------------------------
// HostTrace

std::uint32_t HostTrace::find(const std::string& name) const {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return ~0u;
}

std::uint32_t HostTrace::intern(const std::string& name) {
  const std::uint32_t id = find(name);
  if (id != ~0u) return id;
  names_.push_back(name);
  per_name_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void HostTrace::begin(std::uint32_t name) {
  ++started_;
  std::uint32_t record = 0;
  const double now = host_now();
  if (records_.size() < kMaxStored) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? 0 : open_.back().record;
    s.op = op_;
    s.start = now;
    records_.push_back(s);
    record = static_cast<std::uint32_t>(records_.size());
  }
  open_.push_back({name, record, now});
}

void HostTrace::end() {
  const double now = host_now();
  const Open o = open_.back();
  open_.pop_back();
  if (o.record != 0) records_[o.record - 1].end = now;
  PerName& p = per_name_[o.name];
  ++p.count;
  p.total += now - o.start;
  if (!open_.empty()) {
    const std::uint32_t parent = open_.back().name;
    if (p.in_parent.size() <= parent) p.in_parent.resize(parent + 1, 0);
    p.in_parent[parent] += now - o.start;
  }
}

double HostTrace::total_s(const std::string& name) const {
  const std::uint32_t id = find(name);
  return id == ~0u ? 0 : per_name_[id].total;
}

std::uint64_t HostTrace::count(const std::string& name) const {
  const std::uint32_t id = find(name);
  return id == ~0u ? 0 : per_name_[id].count;
}

double HostTrace::child_s(const std::string& parent,
                          const std::string& child) const {
  const std::uint32_t pid = find(parent);
  const std::uint32_t cid = find(child);
  if (pid == ~0u || cid == ~0u) return 0;
  const std::vector<double>& in = per_name_[cid].in_parent;
  return pid < in.size() ? in[pid] : 0;
}

std::string HostTrace::to_json() const {
  std::string out = "{\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + names_[i] + "\"";
  }
  out += "],\n \"spans\": [";
  const double t0 = records_.empty() ? 0 : records_.front().start;
  char buf[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Span& s = records_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  [%u, %u, %llu, %.9f, %.9f]", i > 0 ? "," : "",
                  s.name, s.parent, static_cast<unsigned long long>(s.op),
                  s.start - t0, s.end - t0);
    out += buf;
  }
  out += "],\n \"dropped\": " + std::to_string(dropped()) + "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Distinct values and the midpoint of each one's cumulative-share step.
  std::vector<double> at, mid;
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size();) {
    std::size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    at.push_back(values[i]);
    mid.push_back((static_cast<double>(i) + 0.5 * static_cast<double>(j - i)) /
                  n);
    i = j;
  }
  if (q <= mid.front()) return at.front();
  if (q >= mid.back()) return at.back();
  const std::size_t k =
      static_cast<std::size_t>(std::upper_bound(mid.begin(), mid.end(), q) -
                               mid.begin());
  const double w = (q - mid[k - 1]) / (mid[k] - mid[k - 1]);
  return at[k - 1] + w * (at[k] - at[k - 1]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void set_latency_metrics(Metrics& m, const std::vector<Cycles>& lat,
                         double hz) {
  std::vector<double> us;
  us.reserve(lat.size());
  for (const Cycles c : lat) us.push_back(static_cast<double>(c) * 1e6 / hz);
  m.set("sim_p50_us", quantile(us, 0.50), "us");
  m.set("sim_p99_us", quantile(us, 0.99), "us");
}

std::uint64_t within_slo(const std::vector<Cycles>& lat, double hz) {
  std::uint64_t n = 0;
  for (const Cycles c : lat) n += static_cast<double>(c) * 1e6 / hz <= kSloP99Us;
  return n;
}

// ---------------------------------------------------------------------------
// Span attribution

void SpanAttribution::add(const SpanAttribution& o) {
  untraced += o.untraced;
  for (std::size_t i = 0; i < telemetry::kCategoryCount; ++i) {
    self[i] += o.self[i];
  }
  sleep_self += o.sleep_self;
  handle_cycles += o.handle_cycles;
  request_cycles += o.request_cycles;
  spans += o.spans;
  dropped += o.dropped;
}

namespace {

using SpanList = std::deque<telemetry::SpanRecord>;

// Timeline sweep over the spans `members` (indices into `spans`, which end
// at `end`): between consecutive span boundaries the set of open members is
// fixed, and the interval goes to the open member that started last (ties:
// the later span id, which is the child). Adds each member's share to
// self[index].
void sweep(const SpanList& spans, const std::vector<std::size_t>& members,
           const std::vector<Cycles>& end, std::vector<Cycles>& self) {
  struct Event {
    Cycles at;
    bool open;
    std::size_t index;
  };
  std::vector<Event> events;
  events.reserve(members.size() * 2);
  for (const std::size_t i : members) {
    if (end[i] <= spans[i].start) continue;  // zero-duration markers own no cycles
    events.push_back({spans[i].start, true, i});
    events.push_back({end[i], false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.at, a.open) < std::tie(b.at, b.open);  // closes first
  });
  using Key = std::tuple<Cycles, std::uint64_t, std::size_t>;
  std::set<Key> open;
  Cycles prev = 0;
  for (const Event& ev : events) {
    if (ev.at > prev && !open.empty()) {
      self[std::get<2>(*open.rbegin())] += ev.at - prev;
    }
    prev = std::max(prev, ev.at);
    const auto& s = spans[ev.index];
    const Key key{s.start, s.span_id, ev.index};
    if (ev.open) {
      open.insert(key);
    } else {
      open.erase(key);
    }
  }
}

// Cross-checks the sweep against the span tree. The spans one trace opens
// on one fiber's stack nest, so on their own timeline each span's self time
// must equal its duration minus the durations of its children in the same
// group. A span adopted from another fiber (the server's request handling)
// starts a group of its own there. Request spans are left out: the server
// opens them detached on the submitting fiber and ends them from a worker,
// so they overlap there. Returns each span's self time within its group.
std::vector<Cycles> check_span_trees(const SpanList& spans,
                                     const std::vector<Cycles>& end,
                                     std::uint32_t request_name) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::size_t>>
      groups;  // (fiber, trace) -> spans
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == request_name) continue;
    groups[{spans[i].tid, spans[i].trace_id}].push_back(i);
    by_id.emplace(spans[i].span_id, i);
  }
  std::vector<Cycles> self(spans.size(), 0), child(spans.size(), 0);
  for (const auto& [group, members] : groups) {
    sweep(spans, members, end, self);
    for (const std::size_t i : members) {
      const auto it = by_id.find(spans[i].parent_id);
      if (it == by_id.end()) continue;
      const auto& parent = spans[it->second];
      if (parent.tid == spans[i].tid && parent.trace_id == spans[i].trace_id) {
        child[it->second] += end[i] - spans[i].start;
      }
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == request_name) continue;
    const Cycles dur = end[i] - spans[i].start;
    check(dur >= child[i] && dur - child[i] == self[i],
          "span tree and timeline disagree on span " +
              std::to_string(spans[i].span_id));
  }
  return self;
}

}  // namespace

SpanAttribution attribute_spans(const telemetry::Telemetry& tel,
                                Cycles total) {
  const telemetry::Tracer& tracer = tel.tracer();
  SpanAttribution out;
  out.dropped = tracer.dropped();
  const SpanList& spans = tracer.spans();
  out.spans = spans.size();

  const std::uint32_t sleep_name = tel.names().fiber_sleep;
  const std::uint32_t handle_name = tel.names().server_handle;
  const std::uint32_t request_name = tel.names().request;
  std::vector<Cycles> end(spans.size());
  std::vector<std::size_t> all(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    end[i] = std::min(s.open ? total : s.end, total);
    all[i] = i;
    if (s.name == handle_name) out.handle_cycles += end[i] - s.start;
    if (s.name == request_name) out.request_cycles += end[i] - s.start;
  }

  // Self cycles: every span of the rep on one timeline.
  std::vector<Cycles> self(spans.size(), 0);
  sweep(spans, all, end, self);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.self[static_cast<std::size_t>(spans[i].category)] += self[i];
    if (spans[i].name == sleep_name) out.sleep_self += self[i];
  }

  // Untraced cycles: the clock minus the union of the span intervals,
  // merged in start order.
  std::vector<std::pair<Cycles, Cycles>> intervals;
  intervals.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (end[i] > spans[i].start) intervals.emplace_back(spans[i].start, end[i]);
  }
  std::sort(intervals.begin(), intervals.end());
  Cycles covered = 0, reach = 0;
  for (const auto& [start, stop] : intervals) {
    if (stop <= reach) continue;
    covered += stop - std::max(start, reach);
    reach = stop;
  }
  out.untraced = total - covered;

  // On one fiber traces follow one another, so there the tree-checked
  // group sweeps must give every span the self time of the global sweep.
  const std::vector<Cycles> group_self =
      check_span_trees(spans, end, request_name);
  const bool one_fiber =
      std::all_of(spans.begin(), spans.end(), [&](const auto& s) {
        return s.tid == spans.front().tid;
      });
  check(!one_fiber || group_self == self,
        "span groups and the timeline disagree on one fiber");
  return out;
}

// ---------------------------------------------------------------------------
// Layer helpers

void time_build_stages(const model::AppModel& app, bool partitioned,
                       HostTrace& trace) {
  const std::uint32_t transform = trace.intern("build.transform");
  const std::uint32_t images = trace.intern("build.images");
  const std::uint32_t edl = trace.intern("build.edl");
  if (partitioned) {
    xform::TransformResult t;
    {
      HostTrace::Scope s(trace, transform);
      t = xform::BytecodeTransformer().transform(app);
    }
    {
      HostTrace::Scope s(trace, images);
      const xform::ImageBuilder builder;
      builder.build(t.trusted, true, xform::trusted_image_entry_points(t.trusted));
      builder.build(t.untrusted, false,
                    xform::untrusted_image_entry_points(t.untrusted));
    }
    HostTrace::Scope s(trace, edl);
    shim::EnclaveShim::add_edl_entries(t.edl);
    sgx::edger8r_generate(t.edl);
  } else {
    {
      HostTrace::Scope s(trace, images);
      xform::ImageBuilder().build(app, true, {{app.main_class(), "main"}});
    }
    HostTrace::Scope s(trace, edl);
    sgx::EdlSpec spec;
    sgx::EdlFunction main_fn;
    main_fn.name = "ecall_main";
    spec.enclave_name = "montsalvat_enclave";
    spec.add_ecall(std::move(main_fn));
    shim::EnclaveShim::add_edl_entries(spec);
    sgx::edger8r_generate(spec);
  }
}

void add_sgx_counters(Metrics& c, sgx::TransitionBridge& bridge,
                      sgx::Enclave& enclave, double sign) {
  const sgx::BridgeStats& b = bridge.stats();
  Cycles transition = 0;
  for (const auto& [name, call] : b.per_call) transition += call.transition_cycles;
  auto d = [sign](double v) { return sign * v; };
  c.add("sgx.ecalls", d(static_cast<double>(b.ecalls)), "count");
  c.add("sgx.ocalls", d(static_cast<double>(b.ocalls)), "count");
  c.add("sgx.transition_cycles", d(static_cast<double>(transition)), "cycles");
  c.add("sgx.edge_bytes", d(static_cast<double>(b.bytes_in + b.bytes_out)),
        "bytes");
  c.add("sgx.tcs_waits", d(static_cast<double>(b.tcs_waits)), "count");
  c.add("sgx.tcs_wait_cycles", d(static_cast<double>(b.tcs_wait_cycles)),
        "cycles");
  const sgx::EpcStats& e = enclave.epc().stats();
  c.add("sgx.epc_accesses", d(static_cast<double>(e.accesses)), "count");
  c.add("sgx.epc_faults", d(static_cast<double>(e.faults)), "count");
  c.add("sgx.epc_evictions", d(static_cast<double>(e.evictions)), "count");
}

void add_heap_counters(Metrics& c, const rt::HeapStats& h, double sign) {
  auto d = [sign](std::uint64_t v) { return sign * static_cast<double>(v); };
  c.add("runtime.allocations", d(h.allocations), "count");
  c.add("runtime.allocated_bytes", d(h.allocated_bytes), "bytes");
  c.add("runtime.gc_count", d(h.gc_count), "count");
  c.add("runtime.gc_cycles", d(h.gc_cycles_total), "cycles");
  c.add("runtime.copied_bytes", d(h.copied_bytes_total), "bytes");
}

void add_exec_counters(Metrics& c, const interp::ExecStats& s, double sign) {
  auto d = [sign](std::uint64_t v) { return sign * static_cast<double>(v); };
  c.add("interp.method_calls", d(s.method_calls), "count");
  c.add("interp.ir_ops", d(s.ir_ops), "count");
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"bench.attempted", "count"},
      {"bench.completed", "count"},
      {"bench.failed", "count"},
      {"bench.shed", "count"},
      {"bench.fail_ratio", "ratio"},
      {"bench.ops", "count"},
      {"bench.host_ops_per_s", "1/s"},
      {"transform.build_host_s", "s"},
      {"sgx.enclave_build_cycles", "cycles"},
      {"sgx.ecalls", "count"},
      {"sgx.ocalls", "count"},
      {"sgx.transitions", "count"},
      {"sgx.transitions_per_op", "ratio"},
      {"sgx.transition_cycles", "cycles"},
      {"sgx.bridge_self_cycles", "cycles"},
      {"sgx.edge_bytes", "bytes"},
      {"sgx.tcs_waits", "count"},
      {"sgx.tcs_wait_cycles", "cycles"},
      {"sgx.epc_accesses", "count"},
      {"sgx.epc_faults", "count"},
      {"sgx.epc_evictions", "count"},
      {"sgx.epc_fault_ratio", "ratio"},
      {"sgx.epc_self_cycles", "cycles"},
      {"rmi.issued", "count"},
      {"rmi.invocations", "count"},
      {"rmi.transitions", "count"},
      {"rmi.fast_path_calls", "count"},
      {"rmi.fast_path_ratio", "ratio"},
      {"rmi.proxies_created", "count"},
      {"rmi.gc_helper_scans", "count"},
      {"rmi.mirrors_evicted", "count"},
      {"rmi.self_cycles", "cycles"},
      {"rmi.host_calls", "count"},
      {"rmi.invoke_host_s", "s"},
      {"rmi.invoke_host_us", "us"},
      {"runtime.allocations", "count"},
      {"runtime.allocated_bytes", "bytes"},
      {"runtime.gc_count", "count"},
      {"runtime.gc_cycles", "cycles"},
      {"runtime.gc_self_cycles", "cycles"},
      {"runtime.copied_bytes", "bytes"},
      {"runtime.survival_ratio", "ratio"},
      {"runtime.churn_host_s", "s"},
      {"interp.method_calls", "count"},
      {"interp.ir_ops", "count"},
      {"kernels.host_s", "s"},
      {"kernels.cycles", "cycles"},
      {"shim.write_calls", "count"},
      {"shim.read_calls", "count"},
      {"shim.map_calls", "count"},
      {"shim.page_fetches", "count"},
      {"shim.bytes", "bytes"},
      {"shim.write_host_s", "s"},
      {"shim.write_host_us", "us"},
      {"shim.read_host_s", "s"},
      {"shim.read_host_us", "us"},
      {"vfs.calls", "count"},
      {"vfs.bytes", "bytes"},
      {"vfs.host_s", "s"},
      {"paldb.puts", "count"},
      {"paldb.gets", "count"},
      {"paldb.probes", "count"},
      {"paldb.probes_per_get", "ratio"},
      {"paldb.put_host_s", "s"},
      {"paldb.put_host_us", "us"},
      {"paldb.get_host_s", "s"},
      {"paldb.get_host_us", "us"},
      {"sched.context_switches", "count"},
      {"sched.wakes", "count"},
      {"sched.idle_cycles", "cycles"},
      {"sched.self_cycles", "cycles"},
      {"sched.sleep_self_cycles", "cycles"},
      {"server.requests", "count"},
      {"server.queue_wait_cycles", "cycles"},
      {"server.handle_cycles", "cycles"},
      {"server.max_queue_depth", "count"},
      {"server.gc_pause_cycles", "cycles"},
      {"server.gc_gate_wait_cycles", "cycles"},
      {"server.generator_lag_cycles", "cycles"},
      {"server.self_cycles", "cycles"},
      {"paper.fig3_create_us", "us"},
      {"paper.fig4b_in_ratio", "ratio"},
      {"paper.fig4b_out_ratio", "ratio"},
      {"paper.table1_gain", "ratio"},
      {"paper.fig10_gain", "ratio"},
      {"trace.traced_host_s", "s"},
      {"trace.untraced_host_s", "s"},
      {"trace.host_overhead_pct", "%"},
      {"trace.sim_delta_cycles", "cycles"},
      {"trace.spans", "count"},
      {"trace.host_spans", "count"},
      {"trace.host_spans_dropped", "count"},
      {"trace.dropped_spans", "count"},
      {"trace.total_cycles", "cycles"},
      {"trace.untraced_cycles", "cycles"},
      {"trace.self.bridge", "cycles"},
      {"trace.self.tcs", "cycles"},
      {"trace.self.switchless", "cycles"},
      {"trace.self.rmi", "cycles"},
      {"trace.self.gc", "cycles"},
      {"trace.self.epc", "cycles"},
      {"trace.self.sched", "cycles"},
      {"trace.self.server", "cycles"},
      {"trace.self.fault", "cycles"},
      {"trace.self.fleet", "cycles"},
  };
  return kNames;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

Cycles self_of(const SpanAttribution& a, telemetry::Category c) {
  return a.self[static_cast<std::size_t>(c)];
}

}  // namespace

Metrics layer_metrics(const RepResult& r, const HostTrace& trace,
                      double traced_host_s, double untraced_host_s,
                      double sim_delta_cycles) {
  using telemetry::Category;
  const Metrics& c = r.counters;
  const SpanAttribution& a = r.spans;
  Metrics v;  // computed values; anything not set here comes from `c`
  const double ops = static_cast<double>(r.ops);
  v.set("bench.attempted", static_cast<double>(r.counts.attempted), "count");
  v.set("bench.completed", static_cast<double>(r.counts.completed), "count");
  v.set("bench.failed", static_cast<double>(r.counts.failed), "count");
  v.set("bench.shed", static_cast<double>(r.counts.shed), "count");
  v.set("bench.fail_ratio",
        ratio(static_cast<double>(r.counts.failed + r.counts.shed),
              static_cast<double>(r.counts.attempted)),
        "ratio");
  v.set("bench.ops", ops, "count");
  v.set("bench.host_ops_per_s", ratio(ops, untraced_host_s), "1/s");
  v.set("transform.build_host_s",
        trace.total_s("build.transform") + trace.total_s("build.images") +
            trace.total_s("build.edl"),
        "s");
  const double transitions = c.get("sgx.ecalls") + c.get("sgx.ocalls");
  v.set("sgx.transitions", transitions, "count");
  v.set("sgx.transitions_per_op", ratio(transitions, ops), "ratio");
  v.set("sgx.bridge_self_cycles",
        static_cast<double>(self_of(a, Category::kBridge)), "cycles");
  v.set("sgx.epc_fault_ratio",
        ratio(c.get("sgx.epc_faults"), c.get("sgx.epc_accesses")), "ratio");
  v.set("sgx.epc_self_cycles", static_cast<double>(self_of(a, Category::kEpc)),
        "cycles");
  // Every marshalled call (invocations and constructions) either stays on
  // the primitive fixed-layout path or not.
  v.set("rmi.fast_path_ratio",
        ratio(c.get("rmi.fast_path_calls"),
              c.get("rmi.invocations") + c.get("rmi.proxies_created")),
        "ratio");
  v.set("rmi.self_cycles", static_cast<double>(self_of(a, Category::kRmi)),
        "cycles");
  const double rmi_calls = static_cast<double>(trace.count("rmi.invoke") +
                                               trace.count("rmi.construct"));
  const double rmi_host_s =
      trace.total_s("rmi.invoke") + trace.total_s("rmi.construct");
  v.set("rmi.host_calls", rmi_calls, "count");
  v.set("rmi.invoke_host_s", rmi_host_s, "s");
  v.set("rmi.invoke_host_us", ratio(1e6 * rmi_host_s, rmi_calls), "us");
  v.set("runtime.gc_self_cycles",
        static_cast<double>(self_of(a, Category::kGc)), "cycles");
  v.set("runtime.survival_ratio",
        ratio(c.get("runtime.copied_bytes"), c.get("runtime.allocated_bytes")),
        "ratio");
  v.set("runtime.churn_host_s", trace.total_s("runtime.alloc_churn"), "s");
  v.set("kernels.host_s", trace.total_s("kernels.monte_carlo"), "s");
  const double write_s = trace.total_s("shim.write");
  const double read_s = trace.total_s("shim.read") + trace.total_s("shim.map");
  v.set("shim.write_host_s", write_s, "s");
  v.set("shim.write_host_us", ratio(1e6 * write_s, c.get("shim.write_calls")),
        "us");
  v.set("shim.read_host_s", read_s, "s");
  v.set("shim.read_host_us",
        ratio(1e6 * read_s, c.get("shim.read_calls") + c.get("shim.map_calls")),
        "us");
  v.set("vfs.host_s", trace.total_s("vfs"), "s");
  // Store time minus the time the store spent in the shim.
  const double put_s = trace.total_s("paldb.put") -
                       trace.child_s("paldb.put", "shim.write") -
                       trace.child_s("paldb.put", "shim.read");
  const double get_s = trace.total_s("paldb.get") -
                       trace.child_s("paldb.get", "shim.read") -
                       trace.child_s("paldb.get", "shim.map");
  v.set("paldb.put_host_s", put_s, "s");
  v.set("paldb.put_host_us", ratio(1e6 * put_s, c.get("paldb.puts")), "us");
  v.set("paldb.get_host_s", get_s, "s");
  v.set("paldb.get_host_us", ratio(1e6 * get_s, c.get("paldb.gets")), "us");
  v.set("paldb.probes_per_get",
        ratio(c.get("paldb.probes"), c.get("paldb.gets")), "ratio");
  v.set("sched.self_cycles", static_cast<double>(self_of(a, Category::kSched)),
        "cycles");
  v.set("sched.sleep_self_cycles", static_cast<double>(a.sleep_self),
        "cycles");
  v.set("server.queue_wait_cycles",
        static_cast<double>(a.request_cycles - a.handle_cycles), "cycles");
  v.set("server.handle_cycles", static_cast<double>(a.handle_cycles),
        "cycles");
  v.set("server.self_cycles",
        static_cast<double>(self_of(a, Category::kServer)), "cycles");
  v.set("trace.traced_host_s", traced_host_s, "s");
  v.set("trace.untraced_host_s", untraced_host_s, "s");
  v.set("trace.host_overhead_pct",
        100.0 * (ratio(traced_host_s, untraced_host_s) - 1.0), "%");
  v.set("trace.sim_delta_cycles", sim_delta_cycles, "cycles");
  v.set("trace.spans", static_cast<double>(a.spans), "count");
  v.set("trace.host_spans", static_cast<double>(trace.spans()), "count");
  v.set("trace.host_spans_dropped", static_cast<double>(trace.dropped()),
        "count");
  v.set("trace.dropped_spans", static_cast<double>(a.dropped), "count");
  v.set("trace.total_cycles", static_cast<double>(r.total_cycles), "cycles");
  v.set("trace.untraced_cycles", static_cast<double>(a.untraced), "cycles");
  for (std::size_t i = 0; i < telemetry::kCategoryCount; ++i) {
    v.set(std::string("trace.self.") +
              telemetry::category_name(static_cast<Category>(i)),
          static_cast<double>(a.self[i]), "cycles");
  }

  Metrics out;
  for (const auto& [name, unit] : layer_metric_names()) {
    out.set(name, v.has(name) ? v.get(name) : c.get(name), unit);
  }
  return out;
}

}  // namespace msv::perfbench
