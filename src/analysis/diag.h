// Diagnostics engine for the static-analysis layer (msvlint).
//
// Every finding carries a stable rule ID (MSV001...), a severity, and a
// class/method/instruction location, so the golden-fixture tests can assert
// exact output and CI can gate on "no new findings". Reports render as
// human text or machine-readable JSON; a baseline file suppresses known
// findings without deleting them from the report.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace msv::analysis {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

const char* severity_name(Severity s);

struct Diagnostic {
  std::string rule;  // stable ID, e.g. "MSV001"
  Severity severity = Severity::kWarning;
  std::string cls;      // class the finding is located in ("" = whole app)
  std::string method;   // method within cls ("" = whole class)
  std::int32_t pc = -1; // instruction index within the method, -1 = none
  std::string message;
  bool suppressed = false;  // matched by the baseline file

  // Location as "Class.method@pc" (parts omitted when absent).
  std::string location() const;
  // Baseline key: rule + class/method location, pc excluded so small body
  // edits do not invalidate the suppression.
  std::string baseline_key() const;
  // One human-readable line: "error MSV001 Class.method@3: ...".
  std::string to_text() const;
};

// A baseline ("suppression") file: one key per line, '#' comments. Findings
// whose baseline_key() appears in the file are marked suppressed.
class Baseline {
 public:
  Baseline() = default;
  // Parses baseline text (not a path; callers own the I/O).
  static Baseline parse(const std::string& text);

  void add(const std::string& key) { keys_.insert(key); }
  bool contains(const std::string& key) const { return keys_.count(key) != 0; }
  std::size_t size() const { return keys_.size(); }
  // Serialized form, one key per line, sorted.
  std::string to_text() const;

 private:
  std::set<std::string> keys_;
};

// Analysis cost counters, surfaced through --json so linter cost shows up
// in the bench trajectory alongside BENCH_*.json records.
struct AnalysisStats {
  std::uint64_t methods_analyzed = 0;
  std::uint64_t instrs_analyzed = 0;
  std::uint64_t dataflow_iterations = 0;  // worklist block visits
  double wall_ms = 0.0;                   // filled in by the driver
  // Per-rule analysis wall time. The linter seeds an entry for EVERY rule
  // it runs (0.0 when the pass is folded into a shared fixpoint), so the
  // v2 report can emit timings unconditionally — the v1 schema dropped
  // zero-diagnostic rules from the timing object, which made "rule was
  // cheap" indistinguishable from "rule did not run".
  std::map<std::string, double> rule_wall_ms;
};

class Report {
 public:
  void add(Diagnostic d);
  void merge(Report other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::vector<Diagnostic>& diagnostics() { return diags_; }
  bool empty() const { return diags_.empty(); }

  // Counts exclude suppressed findings.
  std::size_t count(Severity s) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }

  // Marks findings present in `baseline` as suppressed.
  void apply_baseline(const Baseline& baseline);
  // Baseline covering every current (unsuppressed) finding.
  Baseline to_baseline() const;

  // Sorts by (class, method, pc, rule) for stable golden output.
  void sort();

  std::string to_text() const;
  // Machine-readable report, schema "msvlint-report-v2": its
  // "rule_timings" object lists wall time for every rule in
  // stats.rule_wall_ms, zero-diagnostic rules included.
  std::string to_json(const std::vector<std::string>& rules_run,
                      const AnalysisStats& stats,
                      const std::string& target = "") const;

  AnalysisStats& stats() { return stats_; }
  const AnalysisStats& stats() const { return stats_; }

 private:
  std::vector<Diagnostic> diags_;
  AnalysisStats stats_;
};

}  // namespace msv::analysis
