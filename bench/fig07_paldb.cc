// Figure 7 (§6.5): read and write times for partitioned PalDB.
//
// The application writes n K/V pairs (keys: stringified random 31-bit
// integers; values: random 128-char strings) into a store file and reads
// them all back. Four configurations, 10k-100k keys:
//   NoSGX       native image without SGX
//   NoPart      unpartitioned native image inside the enclave
//   Part(RTWU)  DBReader @Trusted, DBWriter @Untrusted
//   Part(RUWT)  DBReader @Untrusted, DBWriter @Trusted
//
// Expected shape: NoSGX fastest; RTWU ≈ 2.5x faster than NoPart (writes
// leave the enclave); RUWT barely better than NoPart (~1.04x) because the
// in-enclave writer does ~23x more ocalls than RTWU.
//
// --smoke runs 10k and 20k keys only; --json=<path> reports each
// configuration's simulated cycles and ocalls at each size plus the three
// averages (BENCH_paldb.json is the smoke run's report).
#include "apps/paldb/model.h"
#include "bench/bench_common.h"
#include "core/montsalvat.h"

namespace msv {
namespace {

using apps::paldb::PaldbWorkload;
using apps::paldb::Scheme;

struct RunOutcome {
  double seconds = 0;
  Cycles cycles = 0;
  std::uint64_t ocalls = 0;
};

RunOutcome run_paldb(const char* mode, std::uint64_t n_keys) {
  PaldbWorkload workload;
  workload.n_keys = n_keys;

  const std::string m(mode);
  RunOutcome out;
  if (m == "NoSGX") {
    core::NativeApp app(
        apps::paldb::build_paldb_app(Scheme::kUnpartitioned, workload));
    app.run_main();
    out.seconds = app.now_seconds();
    out.cycles = app.env().clock.now();
  } else if (m == "NoPart") {
    core::UnpartitionedApp app(
        apps::paldb::build_paldb_app(Scheme::kUnpartitioned, workload));
    app.run_main();
    out.seconds = app.now_seconds();
    out.cycles = app.env().clock.now();
    out.ocalls = app.bridge().stats().ocalls;
  } else {
    const Scheme scheme = m == "Part(RTWU)"
                              ? Scheme::kReaderTrustedWriterUntrusted
                              : Scheme::kReaderUntrustedWriterTrusted;
    core::PartitionedApp app(apps::paldb::build_paldb_app(scheme, workload));
    app.run_main();
    out.seconds = app.now_seconds();
    out.cycles = app.env().clock.now();
    out.ocalls = app.bridge().stats().ocalls;
  }
  return out;
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Figure 7", "time to read and write K/V pairs (PalDB)");

  constexpr const char* kModes[] = {"NoSGX", "NoPart", "Part(RTWU)",
                                    "Part(RUWT)"};
  constexpr const char* kMetricNames[] = {"nosgx", "nopart", "rtwu", "ruwt"};
  bench::JsonReport report("fig07_paldb");
  Table table({"# keys", "NoSGX", "NoPart", "Part(RTWU)", "Part(RUWT)"});
  double sum_rtwu_speedup = 0, sum_ruwt_speedup = 0;
  double sum_ocall_ratio = 0;
  int rows = 0;
  const std::uint64_t max_keys = opt.smoke ? 20'000 : 100'000;
  for (std::uint64_t n = 10'000; n <= max_keys; n += 10'000) {
    const std::string size = std::to_string(n / 1000) + "k";
    RunOutcome runs[4];
    std::vector<std::string> row = {size};
    for (int m = 0; m < 4; ++m) {
      runs[m] = run_paldb(kModes[m], n);
      row.push_back(bench::fmt_s(runs[m].seconds));
      const std::string key = std::string(kMetricNames[m]) + "_";
      report.add_metric(key + "cycles_" + size, runs[m].cycles);
      report.add_metric(key + "ocalls_" + size, runs[m].ocalls);
    }
    const RunOutcome& nopart = runs[1];
    const RunOutcome& rtwu = runs[2];
    const RunOutcome& ruwt = runs[3];
    table.add_row(row);
    sum_rtwu_speedup += nopart.seconds / rtwu.seconds;
    sum_ruwt_speedup += nopart.seconds / ruwt.seconds;
    sum_ocall_ratio +=
        static_cast<double>(ruwt.ocalls) / static_cast<double>(rtwu.ocalls);
    ++rows;
  }
  table.print();
  std::printf(
      "\nAverages: RTWU %.2fx faster than NoPart (paper: 2.5x); RUWT %.2fx "
      "(paper: 1.04x);\n"
      "          RUWT performs %.1fx more ocalls than RTWU (paper: ~23x)\n",
      sum_rtwu_speedup / rows, sum_ruwt_speedup / rows,
      sum_ocall_ratio / rows);
  if (!opt.json_path.empty()) {
    report.add_metric("avg_rtwu_speedup", sum_rtwu_speedup / rows);
    report.add_metric("avg_ruwt_speedup", sum_ruwt_speedup / rows);
    report.add_metric("avg_ocall_ratio", sum_ocall_ratio / rows);
    report.add_table("fig07", table);
    if (!report.write(opt.json_path)) return 1;
  }
  return 0;
}
