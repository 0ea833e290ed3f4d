// Repository benchmark program: runs one workload for a given host time and
// prints one JSON result line (see ../README.md for the metrics).
//
//   perfbench --workload <serve|rmi|gc|kv> --seed <n> --seconds <s>
//             --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
// traced reps alternately and prints the per-layer metrics, writing the
// first traced rep's host spans to <out-dir>.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.h"

namespace msv::perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "serve") return make_serve(o.seed);
  if (o.workload == "rmi") return make_rmi(o.seed);
  if (o.workload == "gc") return make_gc(o.seed);
  if (o.workload == "kv") return make_kv(o.seed);
  return nullptr;
}

// Every rep of a workload replays the same simulation.
void check_same_simulation(const RepResult& a, const RepResult& b) {
  check(a.sim == b.sim && a.total_cycles == b.total_cycles &&
            a.ops == b.ops && a.counts.attempted == b.counts.attempted &&
            a.counts.completed == b.counts.completed &&
            a.counts.failed == b.counts.failed &&
            a.counts.shed == b.counts.shed,
        "two reps of the same seed simulated differently");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, const OpCounts& counts, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                counts.attempted, counts.failed + counts.shed);
  out += buf;
  bool first = true;
  for (const auto& it : m.items()) {
    std::snprintf(buf, sizeof buf, "%.17g", it.value);
    out += (first ? "\"" : ", \"") + it.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + it.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0;
}

// The fewest reps a run takes, however long each is.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 1000;

// Host-speed reference for set-up: allocation-heavy work of the kind a build
// does (a few thousand small tree nodes and short strings), independent of
// the program under test. Its time is reported as kReferenceSeconds.
constexpr double kReferenceSeconds = 500e-6;
volatile std::size_t reference_sink;
double time_reference() {
  const double t0 = host_now();
  {
    std::map<int, std::string> m;
    for (int i = 0; i < 3000; ++i) {
      m.emplace(i * 7919 % 3001, std::string(40, 'x'));
    }
    reference_sink = m.size();
  }
  return host_now() - t0;
}

// Set-up is timed in bursts of back-to-back builds, one after every rep,
// so the samples span the whole run like the reps do. A build takes well
// under a millisecond, and host noise only ever adds time, so a burst's
// build time is its fastest build (after one discarded build, which pays
// for the memory state the rep left). On a shared VM the host's speed for
// allocation-heavy code can drift by 2x over minutes; the fastest of the
// reference runs interleaved with the builds drifts with it, so a burst's
// sample is the build time over the reference time, scaled to seconds of a
// host where the reference takes kReferenceSeconds.
struct SetupSamples {
  std::vector<double> scaled, build, reference;
};

void time_setup(Workload& w, SetupSamples& out) {
  constexpr int kPerBurst = 64;
  constexpr int kReferenceEvery = 4;
  w.setup_only();
  double build = w.setup_only();
  double reference = time_reference();
  for (int i = 1; i < kPerBurst; ++i) {
    build = std::min(build, w.setup_only());
    if (i % kReferenceEvery == 0) {
      reference = std::min(reference, time_reference());
    }
  }
  out.scaled.push_back(build / reference * kReferenceSeconds);
  out.build.push_back(build);
  out.reference.push_back(reference);
}

Metrics run_untraced(Workload& w, const Options& o, OpCounts& total) {
  SetupSamples setup;
  const double start = host_now();
  std::vector<RepResult> reps;
  double rss_mb = 0;
  while (reps.size() < kMinReps ||
         (host_now() - start < o.seconds && reps.size() < kMaxReps)) {
    HostTrace off(false);
    reps.push_back(w.run(off));
    check_same_simulation(reps.front(), reps.back());
    total.add(reps.back().counts);
    // The inputs and one rep. Later reps and set-up bursts repeat work
    // already done; how far the allocator's footprint then drifts depends
    // on how many fit in the run, not on the program.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    time_setup(w, setup);
  }
  std::string log;
  for (const RepResult& r : reps) log += " " + std::to_string(r.measured_s);
  std::fprintf(stderr, "perfbench: %s: %zu reps, measured host s:%s\n",
               o.workload.c_str(), reps.size(), log.c_str());
  std::fprintf(stderr,
               "perfbench: %s: set-up median build %.4g s, reference %.4g s\n",
               o.workload.c_str(), median(setup.build),
               median(setup.reference));

  const RepResult& r = reps.front();
  Metrics m;
  m.set("setup_s", median(setup.scaled), "s");
  m.set("peak_rss_mb", rss_mb, "MiB");
  m.add_all(r.sim);
  m.set("ok_ratio",
        static_cast<double>(r.counts.completed) /
            static_cast<double>(r.counts.attempted),
        "ratio");
  return m;
}

Metrics run_traced(Workload& w, const Options& o, OpCounts& total) {
  const double start = host_now();
  std::vector<double> untraced_s, traced_s;
  RepResult untraced, traced;
  HostTrace first_trace(true);
  while (traced_s.empty() || host_now() - start < o.seconds) {
    HostTrace off(false);
    RepResult u = w.run(off);
    untraced_s.push_back(u.measured_s);
    total.add(u.counts);

    HostTrace on(true);
    RepResult t = w.run(on);
    traced_s.push_back(t.measured_s);
    total.add(t.counts);
    if (traced_s.size() == 1) {
      untraced = std::move(u);
      traced = std::move(t);
      first_trace = std::move(on);
    } else {
      check_same_simulation(untraced, u);
      check_same_simulation(traced, t);
    }
  }
  // Tracing never advances the virtual clock: the traced rep must replay
  // the untraced simulation exactly.
  const double sim_delta = std::fabs(static_cast<double>(traced.total_cycles) -
                                     static_cast<double>(untraced.total_cycles));
  check(sim_delta == 0 && traced.sim == untraced.sim,
        "tracing changed the simulation");
  check(traced.spans.dropped == 0, "the span ring dropped spans");
  // Per-layer reconciliation: the categories' self cycles (the timeline
  // sweep) plus the cycles no span covers (the interval union) are exactly
  // the rep's simulated cycles.
  Cycles self_sum = 0;
  for (const Cycles c : traced.spans.self) self_sum += c;
  check(self_sum + traced.spans.untraced == traced.total_cycles,
        "span self cycles do not add up to the rep's simulated cycles");

  Metrics layers = layer_metrics(traced, first_trace, median(traced_s),
                                 median(untraced_s), sim_delta);
  const std::string base = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  if (!write_file(base + ".host_spans.json", first_trace.to_json())) {
    std::fprintf(stderr, "cannot write %s.host_spans.json\n", base.c_str());
  }
  return layers;
}

}  // namespace
}  // namespace msv::perfbench

int main(int argc, char** argv) {
  using namespace msv::perfbench;
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <serve|rmi|gc|kv> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  OpCounts total;
  try {
    std::unique_ptr<Workload> w = make(o);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
      return 2;
    }
    const Metrics m =
        o.trace ? run_traced(*w, o, total) : run_untraced(*w, o, total);
    print_result(true, total, m);
    return 0;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n", e.what());
    print_result(false, total, Metrics());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
