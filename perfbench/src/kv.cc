// kv: PalDB run as NoPart-NI (core::UnpartitionedApp, the store code inside
// the enclave). Puts n keys with 128-byte values through StoreWriter, then
// gets each back through StoreReader in seeded random order. Exists because
// it is the only workload that drives the shim and the vfs: writes are a
// flood of write ocalls, reads are mmap page fetches, and the store is
// larger than the usable EPC, so reads fault and evict.
#include <algorithm>
#include <cmath>

#include "apps/paldb/model.h"
#include "apps/paldb/store.h"
#include "baselines/jvm.h"
#include "bench.h"
#include "core/app.h"
#include "support/rng.h"

namespace msv::perfbench {
namespace {

constexpr std::uint64_t kKeys = 600'000;
constexpr std::uint32_t kValueBytes = 128;  // §6.5
constexpr char kStorePath[] = "kv.paldb";
// Classes OpenJDK loads for the PalDB application (as in fig10).
constexpr std::uint64_t kPaldbClassCount = 140;
constexpr double kPaldbJvmFactor = 1.75;
// Paper value behind paper_err_pct: Fig. 10's NoPart-NI gain over
// SCONE+JVM (DESIGN.md §4).
constexpr double kPaperGain = 2.6;

// Times every call the store makes into the shim (host spans "shim.*").
class TimedIo final : public shim::IoService {
 public:
  TimedIo(shim::IoService& inner, HostTrace& trace)
      : inner_(inner),
        trace_(trace),
        write_(trace.intern("shim.write")),
        read_(trace.intern("shim.read")),
        map_(trace.intern("shim.map")),
        other_(trace.intern("shim.other")) {}

  shim::FileId open(const std::string& path, vfs::OpenMode mode) override {
    HostTrace::Scope s(trace_, other_);
    return inner_.open(path, mode);
  }
  void write(shim::FileId f, const void* buf, std::uint64_t len) override {
    HostTrace::Scope s(trace_, write_);
    inner_.write(f, buf, len);
  }
  std::uint64_t read(shim::FileId f, void* buf, std::uint64_t len) override {
    HostTrace::Scope s(trace_, read_);
    return inner_.read(f, buf, len);
  }
  void seek(shim::FileId f, std::uint64_t pos) override {
    HostTrace::Scope s(trace_, other_);
    inner_.seek(f, pos);
  }
  void flush(shim::FileId f) override {
    HostTrace::Scope s(trace_, other_);
    inner_.flush(f);
  }
  void close(shim::FileId f) override {
    HostTrace::Scope s(trace_, other_);
    inner_.close(f);
  }
  bool exists(const std::string& path) override {
    HostTrace::Scope s(trace_, other_);
    return inner_.exists(path);
  }
  std::uint64_t file_size(const std::string& path) override {
    HostTrace::Scope s(trace_, other_);
    return inner_.file_size(path);
  }
  void remove(const std::string& path) override {
    HostTrace::Scope s(trace_, other_);
    inner_.remove(path);
  }
  std::vector<std::string> list(const std::string& prefix) override {
    HostTrace::Scope s(trace_, other_);
    return inner_.list(prefix);
  }
  std::shared_ptr<shim::MappedFile> map(const std::string& path) override {
    HostTrace::Scope s(trace_, map_);
    return inner_.map(path);
  }
  const shim::IoStats& stats() const override { return inner_.stats(); }

 private:
  shim::IoService& inner_;
  HostTrace& trace_;
  std::uint32_t write_, read_, map_, other_;
};

// Times every call the shim helper makes into the filesystem (host spans
// "vfs") and counts the bytes it moves.
class TimedFs final : public vfs::FileSystem {
 public:
  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
  };

  TimedFs(std::shared_ptr<vfs::FileSystem> inner, HostTrace& trace)
      : inner_(std::move(inner)), trace_(trace), span_(trace.intern("vfs")) {}

  std::unique_ptr<vfs::File> open(const std::string& path,
                                  vfs::OpenMode mode) override {
    HostTrace::Scope s(trace_, span_);
    ++counters_.calls;
    return std::make_unique<TimedFile>(inner_->open(path, mode), *this);
  }
  bool exists(const std::string& path) const override {
    HostTrace::Scope s(trace_, span_);
    ++counters_.calls;
    return inner_->exists(path);
  }
  std::uint64_t file_size(const std::string& path) const override {
    HostTrace::Scope s(trace_, span_);
    ++counters_.calls;
    return inner_->file_size(path);
  }
  void remove(const std::string& path) override {
    HostTrace::Scope s(trace_, span_);
    ++counters_.calls;
    inner_->remove(path);
  }
  std::vector<std::string> list(const std::string& prefix) const override {
    HostTrace::Scope s(trace_, span_);
    ++counters_.calls;
    return inner_->list(prefix);
  }
  std::shared_ptr<const std::vector<std::uint8_t>> map(
      const std::string& path) override {
    HostTrace::Scope s(trace_, span_);
    ++counters_.calls;
    auto data = inner_->map(path);
    counters_.bytes += data->size();
    return data;
  }
  const Counters& counters() const { return counters_; }

 private:
  class TimedFile final : public vfs::File {
   public:
    TimedFile(std::unique_ptr<vfs::File> inner, TimedFs& fs)
        : inner_(std::move(inner)), fs_(fs) {}
    std::size_t read(void* buf, std::size_t n) override {
      HostTrace::Scope s(fs_.trace_, fs_.span_);
      ++fs_.counters_.calls;
      const std::size_t got = inner_->read(buf, n);
      fs_.counters_.bytes += got;
      return got;
    }
    void write(const void* buf, std::size_t n) override {
      HostTrace::Scope s(fs_.trace_, fs_.span_);
      ++fs_.counters_.calls;
      fs_.counters_.bytes += n;
      inner_->write(buf, n);
    }
    void seek(std::uint64_t pos) override {
      HostTrace::Scope s(fs_.trace_, fs_.span_);
      ++fs_.counters_.calls;
      inner_->seek(pos);
    }
    std::uint64_t tell() const override { return inner_->tell(); }
    std::uint64_t size() const override { return inner_->size(); }
    void flush() override {
      HostTrace::Scope s(fs_.trace_, fs_.span_);
      ++fs_.counters_.calls;
      inner_->flush();
    }

   private:
    std::unique_ptr<vfs::File> inner_;
    TimedFs& fs_;
  };

  std::shared_ptr<vfs::FileSystem> inner_;
  HostTrace& trace_;
  std::uint32_t span_;
  mutable Counters counters_;
};

class KvWorkload final : public Workload {
 public:
  explicit KvWorkload(std::uint64_t seed) {
    // "The keys are string values of randomly generated integers, the
    // values are randomly generated strings of length 128" (§6.5); the
    // index suffix keeps keys distinct (the store is write-once).
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x4b56);
    keys_.reserve(kKeys);
    values_.reserve(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      keys_.push_back(std::to_string(rng.next_below(1ull << 31)) + "#" +
                      std::to_string(i));
      std::string v(kValueBytes, ' ');
      for (char& c : v) c = static_cast<char>('a' + rng.next_below(26));
      values_.push_back(std::move(v));
    }
    order_.resize(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) order_[i] = i;
    for (std::uint64_t i = kKeys - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng.next_below(i + 1)]);
    }
  }

  double setup_only() override {
    const double t0 = host_now();
    core::UnpartitionedApp app(model_);
    return host_now() - t0;
  }

  RepResult run(HostTrace& trace) override;

 private:
  model::AppModel model_ = apps::paldb::build_paldb_app(
      apps::paldb::Scheme::kUnpartitioned, apps::paldb::PaldbWorkload{});
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
  std::vector<std::uint64_t> order_;
};

RepResult KvWorkload::run(HostTrace& trace) {
  const std::uint32_t span_build = trace.intern("build.app");
  const std::uint32_t span_ecall = trace.intern("sgx.run_in_enclave");
  const std::uint32_t span_put = trace.intern("paldb.put");
  const std::uint32_t span_get = trace.intern("paldb.get");
  const std::uint32_t span_close = trace.intern("paldb.close");
  const std::uint32_t span_open = trace.intern("paldb.open");
  RepResult r;
  if (trace.enabled()) time_build_stages(model_, false, trace);

  core::AppConfig config;
  std::shared_ptr<TimedFs> timed_fs;
  if (trace.enabled()) {
    config.trace.mode = telemetry::TraceMode::kFull;
    config.trace.max_spans = 1u << 24;
    timed_fs = std::make_shared<TimedFs>(std::make_shared<vfs::MemFs>(), trace);
    config.fs = timed_fs;
  }
  std::unique_ptr<core::UnpartitionedApp> app_ptr;
  {
    HostTrace::Scope s(trace, span_build);
    app_ptr = std::make_unique<core::UnpartitionedApp>(model_, config);
  }
  core::UnpartitionedApp& app = *app_ptr;
  Env& env = app.env();
  const Cycles enclave_build = env.clock.now();

  auto snapshot = [&](Metrics& c, double sign) {
    add_sgx_counters(c, app.bridge(), app.enclave(), sign);
    add_heap_counters(c, app.context().isolate().heap().stats(), sign);
    add_exec_counters(c, app.context().stats(), sign);
    const shim::IoStats& io = app.enclave_shim().stats();
    const auto& per_call = app.bridge().stats().per_call;
    const auto fetch = per_call.find("ocall_mmap_fetch");
    const double fetches =
        fetch == per_call.end() ? 0 : static_cast<double>(fetch->second.calls);
    c.add("shim.write_calls", sign * static_cast<double>(io.writes), "count");
    c.add("shim.read_calls", sign * static_cast<double>(io.reads), "count");
    c.add("shim.map_calls", sign * static_cast<double>(io.maps), "count");
    c.add("shim.page_fetches", sign * fetches, "count");
    c.add("shim.bytes",
          sign * static_cast<double>(io.bytes_read + io.bytes_written),
          "bytes");
  };
  snapshot(r.counters, -1);

  std::vector<Cycles> lat;
  lat.reserve(2 * kKeys);
  std::uint64_t wrong = 0;
  apps::paldb::WriterStats wstats;
  apps::paldb::ReaderStats rstats;
  const Cycles t0 = env.clock.now();
  const double h0 = host_now();
  {
    HostTrace::Scope s(trace, span_ecall);
    app.run_in_enclave([&](interp::ExecContext& ctx) {
      std::unique_ptr<TimedIo> timed_io;
      shim::IoService* io = &ctx.io();
      if (trace.enabled()) {
        timed_io = std::make_unique<TimedIo>(ctx.io(), trace);
        io = timed_io.get();
      }
      {
        apps::paldb::StoreWriter writer(env, *io, kStorePath);
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          trace.set_op(i + 1);
          const Cycles c0 = env.clock.now();
          {
            HostTrace::Scope p(trace, span_put);
            writer.put(keys_[i], values_[i]);
          }
          lat.push_back(env.clock.now() - c0);
        }
        HostTrace::Scope c(trace, span_close);
        writer.close();
        wstats = writer.stats();
      }
      std::unique_ptr<apps::paldb::StoreReader> reader;
      {
        HostTrace::Scope o(trace, span_open);
        reader = std::make_unique<apps::paldb::StoreReader>(env, *io,
                                                            kStorePath);
      }
      for (std::uint64_t j = 0; j < kKeys; ++j) {
        const std::uint64_t k = order_[j];
        trace.set_op(kKeys + j + 1);
        const Cycles c0 = env.clock.now();
        std::optional<std::string> v;
        {
          HostTrace::Scope g(trace, span_get);
          v = reader->get(keys_[k]);
        }
        lat.push_back(env.clock.now() - c0);
        wrong += v.has_value() && *v == values_[k] ? 0 : 1;
      }
      rstats = reader->stats();
      return rt::Value();
    });
  }
  r.measured_s = host_now() - h0;
  const Cycles sim_cycles = env.clock.now() - t0;
  snapshot(r.counters, +1);

  check(wrong == 0, "kv: " + std::to_string(wrong) +
                        " gets did not return the value that was put");
  check(wstats.puts == kKeys && rstats.gets == kKeys,
        "kv: the store counted a different number of puts or gets");

  const double hz = env.clock.hz();
  const double sim_s = static_cast<double>(sim_cycles) / hz;
  r.ops = 2 * kKeys;
  r.counts.attempted = 2 * kKeys;
  r.counts.completed = 2 * kKeys - wrong;
  r.counts.failed = wrong;
  r.sim.set("sim_ops_per_s", static_cast<double>(r.ops) / sim_s, "1/s");
  set_latency_metrics(r.sim, lat, hz);
  r.sim.set("sim_p99_us.peak", r.sim.get("sim_p99_us"), "us");
  r.sim.set("sim_max_rps_at_slo",
            static_cast<double>(within_slo(lat, hz)) / sim_s, "1/s");
  // Fig. 10: SCONE+JVM over NoPart-NI, the JVM estimated from this run's
  // measured decomposition as fig10 does.
  const Cycles total = env.clock.now();
  const baselines::JvmEstimator jvm(env.cost);
  const double scone =
      jvm.estimate(kPaldbClassCount, total,
                   app.context().isolate().heap().stats().gc_cycles_total,
                   /*in_scone=*/true, kPaldbJvmFactor)
          .seconds(env.cost);
  const double gain = scone / env.clock.seconds();
  r.sim.set("paper_err_pct", 100.0 * std::fabs(gain - kPaperGain) / kPaperGain,
            "%");
  r.counters.set("paper.fig10_gain", gain, "ratio");
  r.counters.set("paldb.puts", static_cast<double>(wstats.puts), "count");
  r.counters.set("paldb.gets", static_cast<double>(rstats.gets), "count");
  r.counters.set("paldb.probes", static_cast<double>(rstats.probes), "count");
  if (timed_fs != nullptr) {
    r.counters.set("vfs.calls", static_cast<double>(timed_fs->counters().calls),
                   "count");
    r.counters.set("vfs.bytes", static_cast<double>(timed_fs->counters().bytes),
                   "bytes");
  }
  r.counters.set("sgx.enclave_build_cycles", static_cast<double>(enclave_build),
                 "cycles");
  r.total_cycles = total;
  if (trace.enabled()) {
    r.spans = attribute_spans(env.telemetry, r.total_cycles);
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_kv(std::uint64_t seed) {
  return std::make_unique<KvWorkload>(seed);
}

}  // namespace msv::perfbench
