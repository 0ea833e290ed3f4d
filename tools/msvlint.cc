// msvlint — the Montsalvat partition-soundness and secret-flow linter.
//
// Runs the bytecode verifier (analysis/verify.h) and the MSV001…MSV010
// partition rule suite (analysis/lint.h) over Montsalvat DSL programs and
// the built-in application models, and reports findings as human text or
// msvlint-report-v2 JSON. With --propose-partition/--fix it additionally
// runs the min-cut partition optimizer (analysis/optimize.h) over a
// profiled dry run and emits — or applies and replay-verifies — a
// re-partitioning plan.
//
// Usage:
//   msvlint [<file.msv>...] [options]
//     --bank                 lint the Listing-1 bank application
//     --micro                lint the Fig. 3-4 micro model
//     --paldb                lint the §6.5 PalDB app (RTWU scheme)
//     --graphchi             lint the §6.5 GraphChi app
//     --specjvm              lint the §6.6 SPECjvm harness model (fft)
//     --synthetic[=N]        lint the §6.5 generator output (default 100)
//     --untrusted-fraction=F generator @Untrusted fraction (default 0.5)
//     --secret-fraction=F    generator secret-field fraction (default 0)
//     --trace-native         dry-run main, diff observed native call edges
//                            against declared_callees() hints (MSV004)
//     --trust                value-granular trust analysis + MSV010
//     --propose-partition    profile main, run the min-cut optimizer,
//                            print the re-partitioning plan (implies
//                            --trust)
//     --fix                  apply the plan and verify it: replay the
//                            workload on the original and re-partitioned
//                            app twice each; require byte-identical
//                            output and no crossing regression
//     --plan-out=FILE        write the plan JSON to FILE ('-' for stdout)
//     --plan-seed=N          optimizer digest seed (default 0)
//     --min-gain=F           revert plans below this relative gain
//     --verify-only          bytecode verifier only, no partition rules
//     --list-rules           print the rule catalogue and exit
//     --baseline=FILE        suppress findings listed in FILE
//     --write-baseline=FILE  write a baseline covering current findings
//     --json=FILE            emit JSON report to FILE ('-' for stdout)
//     --quiet                summary only, no per-finding lines
//
// Exit status: 0 clean (or only warnings/suppressed), 1 unsuppressed
// errors or failed --fix verification, 2 usage or I/O failure.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/msvlint/driver.h"

namespace {

int usage() {
  std::fputs(
      "usage: msvlint [<file.msv>...] [--bank] [--micro] [--paldb]\n"
      "               [--graphchi] [--specjvm] [--synthetic[=N]]\n"
      "               [--untrusted-fraction=F] [--secret-fraction=F]\n"
      "               [--trace-native] [--trust] [--propose-partition]\n"
      "               [--fix] [--plan-out=FILE] [--plan-seed=N]\n"
      "               [--min-gain=F] [--verify-only] [--list-rules]\n"
      "               [--baseline=FILE] [--write-baseline=FILE]\n"
      "               [--json=FILE] [--quiet]\n",
      stderr);
  return 2;
}

bool parse_value(const std::string& arg, const std::string& flag,
                 std::string* value) {
  if (arg.rfind(flag + "=", 0) != 0) return false;
  *value = arg.substr(flag.size() + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  msv::apps::msvlint::DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--bank") {
      options.bank = true;
    } else if (arg == "--micro") {
      options.micro = true;
    } else if (arg == "--paldb") {
      options.paldb = true;
    } else if (arg == "--graphchi") {
      options.graphchi = true;
    } else if (arg == "--specjvm") {
      options.specjvm = true;
    } else if (arg == "--synthetic") {
      options.synthetic_classes = 100;
    } else if (parse_value(arg, "--synthetic", &value)) {
      options.synthetic_classes = std::atoi(value.c_str());
    } else if (parse_value(arg, "--untrusted-fraction", &value)) {
      options.synthetic_untrusted = std::atof(value.c_str());
    } else if (parse_value(arg, "--secret-fraction", &value)) {
      options.synthetic_secret = std::atof(value.c_str());
    } else if (arg == "--trace-native") {
      options.trace_native = true;
    } else if (arg == "--trust") {
      options.trust_analysis = true;
    } else if (arg == "--propose-partition") {
      options.propose_partition = true;
    } else if (arg == "--fix") {
      options.fix = true;
    } else if (parse_value(arg, "--plan-out", &value)) {
      options.plan_out = value;
    } else if (parse_value(arg, "--plan-seed", &value)) {
      options.plan_seed =
          static_cast<std::uint64_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (parse_value(arg, "--min-gain", &value)) {
      options.plan_min_gain = std::atof(value.c_str());
    } else if (arg == "--verify-only") {
      options.verify_only = true;
    } else if (arg == "--list-rules") {
      options.list_rules = true;
    } else if (parse_value(arg, "--baseline", &value)) {
      options.baseline_path = value;
    } else if (parse_value(arg, "--write-baseline", &value)) {
      options.write_baseline_path = value;
    } else if (parse_value(arg, "--json", &value)) {
      options.json_path = value;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "msvlint: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      options.dsl_paths.push_back(arg);
    }
  }
  if (options.dsl_paths.empty() && !options.bank && !options.micro &&
      !options.paldb && !options.graphchi && !options.specjvm &&
      options.synthetic_classes < 0 && !options.list_rules) {
    return usage();
  }
  return msv::apps::msvlint::run_driver(options, std::cout, std::cerr);
}
