#include "apps/msvlint/driver.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/optimize.h"
#include "analysis/trust.h"
#include "analysis/verify.h"
#include "apps/graphchi/graph.h"
#include "apps/graphchi/model.h"
#include "apps/illustrative/bank.h"
#include "apps/paldb/model.h"
#include "apps/specjvm/harness.h"
#include "apps/synthetic/generator.h"
#include "core/app.h"
#include "dsl/parser.h"
#include "shim/host_io.h"
#include "support/error.h"
#include "vfs/fs.h"

namespace msv::apps::msvlint {

namespace {

struct Target {
  std::string name;
  model::AppModel app;
  // Builds a FRESH seeded filesystem for each dry run / replay (null =
  // fresh empty MemFs). Fresh per run, never shared: the --fix replay
  // self-check compares two runs of the same partition byte-for-byte, and
  // a reused filesystem would carry the first run's outputs into the
  // second.
  std::function<std::shared_ptr<vfs::FileSystem>()> make_fs;

  std::shared_ptr<vfs::FileSystem> fresh_fs() const {
    return make_fs ? make_fs() : std::make_shared<vfs::MemFs>();
  }
};

std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Assembles the lint targets. Throws ConfigError on unreadable sources.
std::vector<Target> build_targets(const DriverOptions& options) {
  std::vector<Target> targets;
  for (const auto& path : options.dsl_paths) {
    std::ifstream in(path);
    if (!in) throw ConfigError("cannot open " + path);
    std::ostringstream source;
    source << in.rdbuf();
    targets.push_back({basename_of(path), dsl::parse_program(source.str())});
  }
  if (options.bank) {
    targets.push_back({"bank", apps::build_bank_app(/*with_audit=*/true)});
  }
  if (options.micro) {
    targets.push_back({"micro", apps::synthetic::build_micro_app()});
  }
  if (options.paldb) {
    // The paper's RTWU scheme over a small workload, so the optional
    // profiled dry run stays cheap.
    apps::paldb::PaldbWorkload workload;
    workload.n_keys = 200;
    targets.push_back(
        {"paldb",
         apps::paldb::build_paldb_app(
             apps::paldb::Scheme::kReaderTrustedWriterUntrusted, workload)});
  }
  if (options.graphchi) {
    // Small RMAT graph so the optional dry runs (--trace-native,
    // --propose-partition) stay cheap; the graph is regenerated into a
    // fresh filesystem for every run (see Target::make_fs).
    Target target;
    target.name = "graphchi";
    target.app = apps::graphchi::build_graphchi_app(
        /*partitioned=*/true, apps::graphchi::GraphChiWorkload{},
        std::make_shared<apps::graphchi::PhaseBreakdown>());
    target.make_fs = [] {
      auto fs = std::make_shared<vfs::MemFs>();
      Env scratch(CostModel::paper(), fs);
      UntrustedDomain domain(scratch);
      shim::HostIo io(scratch, domain);
      Rng rng(0x97a9);
      apps::graphchi::write_edge_list(
          io, "graph.bin", /*nvertices=*/512,
          apps::graphchi::generate_rmat(rng, 512, 2048));
      return fs;
    };
    targets.push_back(std::move(target));
  }
  if (options.specjvm) {
    targets.push_back(
        {"specjvm",
         apps::specjvm::build_model(
             apps::specjvm::Benchmark::kFft,
             apps::specjvm::WorkloadSpec::defaults(
                 apps::specjvm::Benchmark::kFft))});
  }
  if (options.synthetic_classes >= 0) {
    apps::synthetic::SyntheticSpec spec;
    spec.n_classes = static_cast<std::uint32_t>(options.synthetic_classes);
    spec.untrusted_fraction = options.synthetic_untrusted;
    spec.secret_fraction = options.synthetic_secret;
    targets.push_back(
        {"synthetic-" + std::to_string(spec.n_classes),
         apps::synthetic::generate(spec)});
  }
  return targets;
}

// The GraalVM-agent-style dry run behind --trace-native: execute main in a
// plain native image with call-edge tracing on, so MSV004 can diff what
// native bodies actually invoked against their declared_callees() hints.
std::vector<analysis::NativeEdge> trace_native_edges(const Target& target,
                                                     std::ostream& err) {
  std::vector<analysis::NativeEdge> edges;
  if (target.app.main_class().empty()) {
    err << "msvlint: " << target.name
        << ": no main class, skipping native-edge trace\n";
    return edges;
  }
  try {
    core::AppConfig config;
    config.fs = target.fresh_fs();
    core::NativeApp native(target.app, config);
    native.context().enable_native_edge_tracing();
    native.run_main();
    for (const auto& edge : native.context().native_edges()) {
      edges.push_back(edge);
    }
  } catch (const Error& e) {
    err << "msvlint: " << target.name
        << ": native-edge trace failed: " << e.what() << "\n";
  }
  return edges;
}

// ---- Partition optimizer (--propose-partition / --fix) ----

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct ReplayResult {
  std::uint64_t digest = 0;     // run_main value + full filesystem contents
  std::uint64_t crossings = 0;  // measured ecalls + ocalls
};

// Replays the fig06-style workload (the target's own main) on a
// partitioned build over a fresh (possibly pre-seeded) filesystem and
// digests every observable output. Two runs of the same (app, plan) must
// produce the same digest — the deterministic self-check --fix relies on.
ReplayResult replay_partitioned(
    const model::AppModel& app,
    std::shared_ptr<const analysis::PartitionPlan> plan,
    std::shared_ptr<vfs::FileSystem> fs) {
  core::AppConfig config;
  config.fs = fs;
  config.partition_plan = std::move(plan);
  core::PartitionedApp papp(app, config);
  const rt::Value result = papp.run_main();

  ReplayResult r;
  r.digest = 1469598103934665603ull;
  const std::string repr = result.to_debug_string();
  r.digest = fnv1a(r.digest, repr.data(), repr.size());
  std::vector<std::string> paths = fs->list("");
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    r.digest = fnv1a(r.digest, path.data(), path.size());
    const auto bytes = fs->map(path);
    if (bytes != nullptr && !bytes->empty()) {
      r.digest = fnv1a(r.digest, bytes->data(), bytes->size());
    }
  }
  const sgx::BridgeStats& stats = papp.bridge().stats();
  r.crossings = stats.ecalls + stats.ocalls;
  return r;
}

// The --propose-partition / --fix flow for one target: profiled dry run ->
// trust fixpoint -> min-cut plan; under --fix, additionally apply the plan
// and verify byte-identical replays plus the measured crossing drop.
int propose_or_fix(const Target& target, const DriverOptions& options,
                   const analysis::TrustOptions& trust_options,
                   std::ostream& out, std::ostream& err) {
  if (target.app.main_class().empty()) {
    err << "msvlint: " << target.name
        << ": --propose-partition needs a main class to profile\n";
    return 2;
  }

  // 1. Telemetry: profile the workload's call counts in a plain native
  // run (annotations do not change semantics, so the native profile is
  // the partitioned profile).
  analysis::CallProfile profile;
  try {
    core::AppConfig config;
    config.fs = target.fresh_fs();
    core::NativeApp native(target.app, config);
    native.context().enable_call_profiling();
    native.run_main();
    profile = analysis::CallProfile::from_context(native.context());
  } catch (const Error& e) {
    err << "msvlint: " << target.name
        << ": profiling dry run failed: " << e.what() << "\n";
    return 2;
  }

  // 2. Trust facts + min-cut optimization.
  analysis::PartitionPlan plan;
  try {
    const analysis::TrustFacts trust =
        analysis::analyze_trust(target.app, trust_options);
    analysis::PartitionPolicy policy;
    policy.seed = options.plan_seed;
    policy.min_gain = options.plan_min_gain;
    plan = analysis::optimize_partition(target.app, trust, profile,
                                        CostModel::paper(), policy);
  } catch (const Error& e) {
    err << "msvlint: " << target.name << ": optimizer failed: " << e.what()
        << "\n";
    return 2;
  }
  if (!options.quiet) out << plan.to_text();
  if (!options.plan_out.empty()) {
    if (options.plan_out == "-") {
      out << plan.to_json();
    } else {
      std::ofstream pf(options.plan_out);
      if (!pf) {
        err << "msvlint: cannot write " << options.plan_out << "\n";
        return 2;
      }
      pf << plan.to_json();
    }
  }
  if (!options.fix) return 0;

  // 3. Fix-it verification: the original and the re-partitioned app replay
  // the workload twice each; all runs must agree byte-for-byte, and the
  // re-partitioned app must not cross the boundary more.
  try {
    const auto shared = std::make_shared<analysis::PartitionPlan>(plan);
    const ReplayResult base1 =
        replay_partitioned(target.app, nullptr, target.fresh_fs());
    const ReplayResult base2 =
        replay_partitioned(target.app, nullptr, target.fresh_fs());
    const ReplayResult opt1 =
        replay_partitioned(target.app, shared, target.fresh_fs());
    const ReplayResult opt2 =
        replay_partitioned(target.app, shared, target.fresh_fs());
    if (base1.digest != base2.digest || opt1.digest != opt2.digest) {
      err << "msvlint: " << target.name
          << ": --fix replay is nondeterministic (two runs of the same "
             "partition disagree) — plan rejected\n";
      return 1;
    }
    if (base1.digest != opt1.digest) {
      err << "msvlint: " << target.name
          << ": --fix replay mismatch: re-partitioned app produced "
             "different observable output — plan rejected\n";
      return 1;
    }
    if (plan.changed() && opt1.crossings > base1.crossings) {
      err << "msvlint: " << target.name
          << ": --fix regressed boundary crossings (" << base1.crossings
          << " -> " << opt1.crossings << ") — plan rejected\n";
      return 1;
    }
    const double drop =
        base1.crossings == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(base1.crossings - opt1.crossings) /
                  static_cast<double>(base1.crossings);
    out << "msvlint: --fix " << target.name << ": replay digest 0x"
        << std::hex << base1.digest << std::dec
        << " byte-identical across 2+2 runs; boundary crossings "
        << base1.crossings << " -> " << opt1.crossings << " ("
        << std::fixed << std::setprecision(1) << drop << "% fewer), "
        << plan.moved.size() << " class(es) moved\n";
  } catch (const Error& e) {
    err << "msvlint: " << target.name << ": --fix replay failed: " << e.what()
        << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int run_driver(const DriverOptions& options, std::ostream& out,
               std::ostream& err) {
  if (options.list_rules) {
    for (const auto& rule : analysis::lint_rules()) {
      out << rule.id << "  " << rule.summary << "\n";
    }
    return 0;
  }

  std::vector<Target> targets;
  try {
    targets = build_targets(options);
  } catch (const Error& e) {
    err << "msvlint: " << e.what() << "\n";
    return 2;
  }
  if (targets.empty()) {
    err << "msvlint: no targets (pass a .msv file or --bank/--micro/"
           "--synthetic)\n";
    return 2;
  }

  analysis::Baseline baseline;
  if (!options.baseline_path.empty()) {
    std::ifstream in(options.baseline_path);
    if (!in) {
      err << "msvlint: cannot open baseline " << options.baseline_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    baseline = analysis::Baseline::parse(text.str());
  }

  analysis::Report total;
  std::string target_names;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& target : targets) {
    if (!target_names.empty()) target_names += ",";
    target_names += target.name;

    analysis::LintOptions lint_options;
    lint_options.trust_analysis = options.trust_analysis ||
                                  options.propose_partition || options.fix;
    if (options.trace_native) {
      lint_options.native_edges = trace_native_edges(target, err);
    }
    analysis::Report report;
    try {
      report = options.verify_only ? analysis::verify_app(target.app)
                                   : analysis::lint(target.app, lint_options);
    } catch (const Error& e) {
      err << "msvlint: " << target.name << ": " << e.what() << "\n";
      return 2;
    }
    report.apply_baseline(baseline);
    if (!options.quiet) {
      out << "== " << target.name << ": " << report.diagnostics().size()
          << " finding(s), " << report.errors() << " error(s), "
          << report.warnings() << " warning(s)\n";
      out << report.to_text();
    }
    if ((options.propose_partition || options.fix) && !options.verify_only) {
      const int rc =
          propose_or_fix(target, options, lint_options.trust, out, err);
      if (rc != 0) return rc;
    }
    total.merge(std::move(report));
  }
  total.sort();
  total.stats().wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (!options.write_baseline_path.empty()) {
    std::ofstream bl(options.write_baseline_path);
    if (!bl) {
      err << "msvlint: cannot write baseline " << options.write_baseline_path
          << "\n";
      return 2;
    }
    bl << total.to_baseline().to_text();
  }
  if (!options.json_path.empty()) {
    std::vector<std::string> rules =
        options.verify_only ? std::vector<std::string>{"verify"}
                            : analysis::lint_rule_ids();
    if (!options.verify_only && !options.trust_analysis &&
        !options.propose_partition && !options.fix) {
      rules.erase(std::remove(rules.begin(), rules.end(), "MSV010"),
                  rules.end());
    }
    const std::string json =
        total.to_json(rules, total.stats(), target_names);
    if (options.json_path == "-") {
      out << json;
    } else {
      std::ofstream jf(options.json_path);
      if (!jf) {
        err << "msvlint: cannot write " << options.json_path << "\n";
        return 2;
      }
      jf << json;
    }
  }

  out << "msvlint: " << targets.size() << " target(s), "
      << total.stats().methods_analyzed << " method(s), "
      << total.diagnostics().size() << " finding(s): " << total.errors()
      << " error(s), " << total.warnings() << " warning(s)"
      << (total.diagnostics().size() >
                  total.errors() + total.warnings() +
                      total.count(analysis::Severity::kInfo)
              ? " (rest suppressed by baseline)"
              : "")
      << "\n";
  return total.errors() > 0 ? 1 : 0;
}

}  // namespace msv::apps::msvlint
