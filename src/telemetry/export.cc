#include "telemetry/export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

namespace msv::telemetry {

namespace {

// Fixed-precision microseconds from integer cycles: same input, same
// bytes, on every run and platform.
std::string format_us(Cycles cycles, double hz) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(cycles) / hz * 1e6);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Prometheus exposition escaping for label values: backslash, double
// quote and newline (exposition-format spec §"Escaping").
std::string escape_label_value(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// HELP text only escapes backslash and newline (no quote).
std::string escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Exposition-format rendering of name + labels. Unlike the registry's
// canonical render_metric_key (which is a *map key* and must stay
// byte-stable against old BENCH baselines), this escapes label values.
std::string exposition_key(const std::string& name, const LabelSet& labels) {
  if (labels.empty()) return name;
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += "=\"";
    key += escape_label_value(sorted[i].second);
    key += '"';
  }
  key += '}';
  return key;
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer, double hz) {
  std::string out;
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"montsalvat-sim\"}}");
  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"main\"}}");
  for (const auto& [tid, name] : tracer.thread_names()) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  }

  for (const SpanRecord& span : tracer.spans()) {
    if (span.open) continue;  // unbalanced at export time: skip
    std::string e = "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    e += std::to_string(span.tid);
    e += ",\"cat\":\"";
    e += category_name(span.category);
    e += "\",\"name\":\"";
    e += json_escape(tracer.name(span.name));
    e += "\",\"ts\":";
    e += format_us(span.start, hz);
    e += ",\"dur\":";
    e += format_us(span.end - span.start, hz);
    e += ",\"args\":{\"trace\":";
    e += std::to_string(span.trace_id);
    e += ",\"span\":";
    e += std::to_string(span.span_id);
    e += ",\"parent\":";
    e += std::to_string(span.parent_id);
    e += ",\"start_cycles\":";
    e += std::to_string(span.start);
    e += ",\"dur_cycles\":";
    e += std::to_string(span.end - span.start);
    if (span.tenant >= 0) {
      e += ",\"tenant\":";
      e += std::to_string(span.tenant);
    }
    e += "}}";
    emit(e);
  }

  out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  out += "\"clock_hz\":" + format_value(hz);
  out += ",\"span_count\":" + std::to_string(tracer.spans().size());
  out += ",\"dropped_spans\":" + std::to_string(tracer.dropped());
  out += ",\"dropped_by_category\":{";
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += category_name(static_cast<Category>(c));
    out += "\":";
    out += std::to_string(tracer.dropped_in(static_cast<Category>(c)));
  }
  out += "}}}\n";
  return out;
}

std::string metric_help(const std::string& name) {
  // Curated help for the families the repo exports; the fallback keeps
  // the exposition conformant (every family gets a # HELP line) and
  // deterministic for families added by tests or future subsystems.
  static const std::map<std::string, std::string> kHelp = {
      {"msv_bridge_calls", "Bridge transitions per registered call"},
      {"msv_bridge_cycles", "Simulated cycles spent in bridge transitions"},
      {"msv_fleet_request_latency_cycles",
       "Per-shard request latency (simulated cycles)"},
      {"msv_flight_events_total",
       "Flight-recorder events recorded per enclave ring"},
      {"msv_flight_evicted_total",
       "Flight-recorder events evicted by ring wrap"},
      {"msv_flight_postmortems", "Post-mortem snapshots taken this run"},
      {"msv_profile_samples", "Virtual-clock profiler samples taken"},
      {"msv_profile_stacks", "Distinct folded stacks seen by the profiler"},
      {"msv_slo_health",
       "SLO health state per key (0=healthy 1=degraded 2=critical)"},
      {"msv_slo_degraded_total", "Transitions into the degraded state"},
      {"msv_slo_critical_total", "Transitions into the critical state"},
      {"msv_telemetry_spans_recorded", "Spans stored in the trace ring"},
      {"msv_telemetry_spans_started", "Spans started (stored + dropped)"},
      {"msv_telemetry_spans_dropped", "Spans dropped by trace-ring wrap"},
      {"msv_trace_dropped",
       "Spans dropped by trace-ring wrap, by span category"},
  };
  const auto it = kHelp.find(name);
  if (it != kHelp.end()) return it->second;
  return "Simulated metric from the montsalvat telemetry registry";
}

std::string prometheus_text(const MetricsRegistry& metrics) {
  static const std::pair<const char*, double> kQuantiles[] = {
      {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};

  std::string out;
  std::string last_name;
  for (const auto& [key, entry] : metrics.sorted_entries()) {
    if (entry->name != last_name) {
      last_name = entry->name;
      out += "# HELP ";
      out += entry->name;
      out += ' ';
      out += escape_help(metric_help(entry->name));
      out += '\n';
      out += "# TYPE ";
      out += entry->name;
      switch (entry->kind) {
        case MetricsRegistry::Kind::kCounter:
          out += " counter\n";
          break;
        case MetricsRegistry::Kind::kGauge:
          out += " gauge\n";
          break;
        case MetricsRegistry::Kind::kHistogram:
          out += " summary\n";
          break;
      }
    }
    switch (entry->kind) {
      case MetricsRegistry::Kind::kCounter:
        out += exposition_key(entry->name, entry->labels);
        out += ' ';
        out += std::to_string(entry->counter.value);
        out += '\n';
        break;
      case MetricsRegistry::Kind::kGauge:
        out += exposition_key(entry->name, entry->labels);
        out += ' ';
        out += format_value(entry->gauge.value);
        out += '\n';
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const Histogram& h = entry->histogram;
        for (const auto& [label, q] : kQuantiles) {
          LabelSet labels = entry->labels;
          labels.emplace_back("quantile", label);
          out += exposition_key(entry->name, labels);
          out += ' ';
          out += std::to_string(h.quantile(q));
          out += '\n';
        }
        out += exposition_key(entry->name + "_count", entry->labels);
        out += ' ';
        out += std::to_string(h.count());
        out += '\n';
        out += exposition_key(entry->name + "_sum", entry->labels);
        out += ' ';
        out += std::to_string(h.sum());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string ascii_trace(const Tracer& tracer, double hz,
                        std::uint64_t trace_id, std::size_t max_lines) {
  constexpr std::size_t kBarWidth = 32;
  const std::deque<SpanRecord>& spans = tracer.spans();

  // Selected spans, in record (begin) order, with child lists.
  std::vector<std::size_t> selected;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  Cycles lo = ~0ull, hi = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.open) continue;
    if (trace_id != 0 && s.trace_id != trace_id) continue;
    selected.push_back(i);
    by_id.emplace(s.span_id, i);
    lo = std::min(lo, s.start);
    hi = std::max(hi, s.end);
  }
  if (selected.empty()) return "(no spans)\n";
  const Cycles window = hi > lo ? hi - lo : 1;

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  for (const std::size_t i : selected) {
    const SpanRecord& s = spans[i];
    if (s.parent_id != 0 && by_id.count(s.parent_id)) {
      children[s.parent_id].push_back(i);
    } else {
      roots.push_back(i);
    }
  }

  std::string out;
  std::size_t lines = 0;
  std::size_t omitted = 0;
  const std::function<void(std::size_t, std::size_t)> render =
      [&](std::size_t index, std::size_t depth) {
        const SpanRecord& s = spans[index];
        if (lines >= max_lines) {
          ++omitted;
        } else {
          ++lines;
          const auto left = static_cast<std::size_t>(
              static_cast<double>(s.start - lo) / window * kBarWidth);
          auto right = static_cast<std::size_t>(
              static_cast<double>(s.end - lo) / window * kBarWidth);
          if (right <= left) right = left + 1;
          std::string bar(kBarWidth, ' ');
          for (std::size_t b = left; b < right && b < kBarWidth; ++b) {
            bar[b] = '#';
          }
          out += '[';
          out += bar;
          out += "] ";
          char head[64];
          std::snprintf(head, sizeof(head), "%10s +%-9s ",
                        format_us(s.start - lo, hz).c_str(),
                        format_us(s.end - s.start, hz).c_str());
          out += head;
          out.append(depth * 2, ' ');
          out += tracer.name(s.name);
          out += " (";
          out += category_name(s.category);
          if (s.tenant >= 0) {
            out += ", tenant ";
            out += std::to_string(s.tenant);
          }
          out += ")\n";
        }
        const auto it = children.find(s.span_id);
        if (it != children.end()) {
          for (const std::size_t child : it->second) render(child, depth + 1);
        }
      };
  for (const std::size_t root : roots) render(root, 0);
  if (omitted > 0) {
    out += "... (" + std::to_string(omitted) + " more spans)\n";
  }
  return out;
}

}  // namespace msv::telemetry
