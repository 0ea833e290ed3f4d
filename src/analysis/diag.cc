#include "analysis/diag.h"

#include <algorithm>
#include <sstream>

namespace msv::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::location() const {
  std::string out = cls.empty() ? std::string("<app>") : cls;
  if (!method.empty()) out += "." + method;
  if (pc >= 0) out += "@" + std::to_string(pc);
  return out;
}

std::string Diagnostic::baseline_key() const {
  std::string out = rule + " " + (cls.empty() ? std::string("<app>") : cls);
  if (!method.empty()) out += "." + method;
  return out;
}

std::string Diagnostic::to_text() const {
  std::string out = std::string(severity_name(severity)) + " " + rule + " " +
                    location() + ": " + message;
  if (suppressed) out += " [suppressed by baseline]";
  return out;
}

Baseline Baseline::parse(const std::string& text) {
  Baseline b;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim surrounding whitespace.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    b.add(line.substr(first, last - first + 1));
  }
  return b;
}

std::string Baseline::to_text() const {
  std::string out =
      "# msvlint baseline: one `RULE Class.method` key per line.\n";
  for (const auto& key : keys_) out += key + "\n";
  return out;
}

void Report::add(Diagnostic d) { diags_.push_back(std::move(d)); }

void Report::merge(Report other) {
  for (auto& d : other.diags_) diags_.push_back(std::move(d));
  stats_.methods_analyzed += other.stats_.methods_analyzed;
  stats_.instrs_analyzed += other.stats_.instrs_analyzed;
  stats_.dataflow_iterations += other.stats_.dataflow_iterations;
  for (const auto& [rule, ms] : other.stats_.rule_wall_ms) {
    stats_.rule_wall_ms[rule] += ms;
  }
}

std::size_t Report::count(Severity s) const {
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (!d.suppressed && d.severity == s) ++n;
  }
  return n;
}

void Report::apply_baseline(const Baseline& baseline) {
  for (auto& d : diags_) {
    if (baseline.contains(d.baseline_key())) d.suppressed = true;
  }
}

Baseline Report::to_baseline() const {
  Baseline b;
  for (const auto& d : diags_) b.add(d.baseline_key());
  return b;
}

void Report::sort() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.cls != b.cls) return a.cls < b.cls;
                     if (a.method != b.method) return a.method < b.method;
                     if (a.pc != b.pc) return a.pc < b.pc;
                     return a.rule < b.rule;
                   });
}

std::string Report::to_text() const {
  std::string out;
  for (const auto& d : diags_) out += d.to_text() + "\n";
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
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
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string Report::to_json(const std::vector<std::string>& rules_run,
                            const AnalysisStats& stats,
                            const std::string& target) const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"msvlint-report-v2\",\n";
  if (!target.empty()) {
    out << "  \"target\": \"" << json_escape(target) << "\",\n";
  }
  out << "  \"rules_run\": [";
  for (std::size_t i = 0; i < rules_run.size(); ++i) {
    out << (i ? ", " : "") << "\"" << rules_run[i] << "\"";
  }
  out << "],\n";
  // Per-rule wall time for every timed rule, so a cheap rule and a
  // skipped rule are distinguishable.
  out << "  \"rule_timings\": {";
  const char* sep = " ";
  for (const auto& [rule, ms] : stats.rule_wall_ms) {
    out << sep << "\"" << rule << "\": " << ms;
    sep = ", ";
  }
  out << " },\n  \"findings\": [\n";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    out << "    { \"rule\": \"" << d.rule << "\", \"severity\": \""
        << severity_name(d.severity) << "\", \"class\": \""
        << json_escape(d.cls) << "\", \"method\": \"" << json_escape(d.method)
        << "\", \"pc\": " << d.pc << ", \"suppressed\": "
        << (d.suppressed ? "true" : "false") << ", \"message\": \""
        << json_escape(d.message) << "\" }" << (i + 1 < diags_.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"metrics\": { \"findings_total\": " << diags_.size()
      << ", \"errors\": " << errors() << ", \"warnings\": " << warnings()
      << ", \"infos\": " << count(Severity::kInfo)
      << ", \"methods_analyzed\": " << stats.methods_analyzed
      << ", \"instrs_analyzed\": " << stats.instrs_analyzed
      << ", \"dataflow_iterations\": " << stats.dataflow_iterations
      << ", \"wall_ms\": " << stats.wall_ms << " }\n}\n";
  return out.str();
}

}  // namespace msv::analysis
