// msvlint driver — target assembly and report plumbing for the msvlint
// CLI (tools/msvlint.cc).
//
// Lives in the library (not the tool) so tests can drive the exact code
// path the CLI ships: target construction from DSL sources and the
// built-in app factories, the optional native-edge dry run feeding
// MSV004, baseline suppression, and text/JSON emission.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/lint.h"

namespace msv::apps::msvlint {

struct DriverOptions {
  // Targets: Montsalvat DSL sources plus the built-in app factories.
  std::vector<std::string> dsl_paths;
  bool bank = false;                     // the Listing-1 application
  bool micro = false;                    // the Fig. 3-4 micro model
  bool paldb = false;                    // the §6.5 PalDB app (RTWU scheme)
  bool graphchi = false;                 // the §6.5 GraphChi app
  bool specjvm = false;                  // the §6.6 SPECjvm harness (fft)
  std::int32_t synthetic_classes = -1;   // >= 0: the §6.5 generator output
  double synthetic_untrusted = 0.5;      // generator @Untrusted fraction
  double synthetic_secret = 0.0;         // generator secret-field fraction

  // Dry-run each target's main in a NativeApp with native call-edge
  // tracing enabled, feeding observed edges into MSV004's dynamic check.
  bool trace_native = false;

  // Value-granular trust analysis (analysis/trust.h): runs the
  // interprocedural trust fixpoint and the MSV010 over-trusted-field rule.
  bool trust_analysis = false;

  // Partition optimizer (DESIGN.md §15). --propose-partition profiles each
  // target's main in a NativeApp (ExecContext call profiling), feeds the
  // measured call counts + trust facts into analysis::optimize_partition,
  // and prints the plan. --fix additionally *applies* the plan
  // (AppConfig::partition_plan) and verifies it by replay: the fig06-style
  // workload runs on the original and the re-partitioned app twice each;
  // all four replays must produce byte-identical results (run_main value +
  // full filesystem contents) and the re-partitioned app must cross the
  // boundary less. Both imply trust_analysis.
  bool propose_partition = false;
  bool fix = false;
  std::string plan_out;   // write the plan JSON here ('-' for stdout)
  std::uint64_t plan_seed = 0;   // PartitionPolicy::seed (digest salt)
  double plan_min_gain = 0.0;    // PartitionPolicy::min_gain

  bool verify_only = false;  // bytecode verifier only, no partition rules
  bool list_rules = false;   // print the rule catalogue and exit

  std::string baseline_path;        // suppress findings listed in this file
  std::string write_baseline_path;  // write a baseline covering all findings
  std::string json_path;            // emit the JSON report here
  bool quiet = false;               // suppress per-finding text output
};

// Runs the driver. Returns the process exit code: 0 when no unsuppressed
// error-severity findings remain, 1 when some do, 2 on usage/IO errors.
int run_driver(const DriverOptions& options, std::ostream& out,
               std::ostream& err);

}  // namespace msv::apps::msvlint
