// Montsalvat's application runners — the end of the workflow in Fig. 1.
//
// Three deployment modes cover every configuration the evaluation uses:
//
//   * PartitionedApp    — the full Montsalvat pipeline: annotate ->
//     bytecode transformation -> two native images -> EDL + Edger8r ->
//     measured enclave; trusted classes execute inside (in one isolate, or
//     one per tenant), untrusted outside, proxies and the GC helpers in
//     between. (Part / RTWU / RUWT series; the serving layer and fleet.)
//   * UnpartitionedApp  — §5.6: the whole application built into a single
//     native image linked into the enclave; main enters via one ecall and
//     all I/O relays through the shim. (NoPart-NI series.)
//   * NativeApp         — the same native image run without SGX.
//     (NoSGX-NI series.)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/optimize.h"
#include "interp/exec_context.h"
#include "model/app_model.h"
#include "rmi/proxy_runtime.h"
#include "sgx/bridge.h"
#include "sgx/edl.h"
#include "sgx/enclave.h"
#include "shim/enclave_shim.h"
#include "shim/host_io.h"
#include "sim/domain.h"
#include "sim/env.h"
#include "support/sha256.h"
#include "transform/image_builder.h"
#include "transform/transformer.h"

namespace msv::core {

struct AppConfig {
  CostModel cost = CostModel::paper();
  std::shared_ptr<vfs::FileSystem> fs;  // defaults to a fresh MemFs
  std::uint64_t trusted_heap_bytes = 512ull << 20;
  std::uint64_t untrusted_heap_bytes = 512ull << 20;
  std::uint64_t enclave_heap_max_bytes = 4ull << 30;  // §6.1
  std::uint64_t enclave_stack_bytes = 8ull << 20;     // §6.1
  rmi::HashScheme hash_scheme = rmi::HashScheme::kMd5;
  double gc_scan_period_seconds = 1.0;
  // TCS pool of the enclave (TCSNum + exhaustion policy; DESIGN.md §8).
  sgx::TcsConfig tcs;
  // Future work (§7): serve relay transitions switchlessly.
  bool switchless_relays = false;
  xform::ImageBuildConfig image;
  // Additional reachability roots, the analog of GraalVM's reflection
  // configuration (§2.2): methods the host process may invoke directly
  // even though no bytecode path reaches them. Each entry is applied to
  // every image that contains the class.
  std::vector<xform::MethodRef> extra_entry_points;
  // Agent mode: root every public method, disabling pruning — the open
  // world a JVM-based dry run would see. Use with ExecContext tracing to
  // generate the reflection configuration for the real (closed-world)
  // build.
  bool root_everything = false;
  // Static-analysis gates (DESIGN.md §9). verify_bytecode arms the
  // analysis::verify gate on every execution context: a kIr body that
  // fails verification raises TrapError at first dispatch instead of
  // executing. lint_partition runs the msvlint rule suite over the
  // annotated input model before any transformation and throws
  // ConfigError when a rule reports an error-severity finding.
  bool verify_bytecode = false;
  bool lint_partition = false;
  // Partition-optimizer plumbing (DESIGN.md §15): when set, the plan is
  // applied to the annotated input model (xform::apply_partition_plan)
  // before lint and transformation, so the partitioned build weaves the
  // re-partitioned images. Produced by `msvlint --propose-partition` /
  // analysis::optimize_partition.
  std::shared_ptr<const analysis::PartitionPlan> partition_plan;
  // Telemetry (DESIGN.md §10): off by default — the zero-overhead-when-off
  // contract means simulated cycle totals are identical either way.
  telemetry::TraceConfig trace;
};

// TCB accounting backing the paper's small-TCB argument (§1, §5.4).
struct TcbReport {
  std::uint64_t app_code_bytes = 0;      // compiled trusted application code
  std::uint64_t runtime_code_bytes = 0;  // embedded GC/thread/runtime
  std::uint64_t shim_bytes = 0;          // Montsalvat's libc shim
  std::uint64_t image_heap_bytes = 0;
  std::size_t trusted_classes = 0;
  std::size_t trusted_methods = 0;
  std::size_t edl_functions = 0;

  std::uint64_t total_bytes() const {
    return app_code_bytes + runtime_code_bytes + shim_bytes + image_heap_bytes;
  }
};

// MRENCLAVE, the one measurement rule (§5.4): the final SGX-module link
// makes the enclave blob from the trusted image, the shim and the
// generated trusted bridge routines (EdgeRoutines::trusted_source), and
// the blob's SHA-256 is MRENCLAVE.
Sha256::Digest measure_enclave_blob(const xform::NativeImage& trusted,
                                    const std::string& trusted_bridge_source);

class PartitionedApp {
 public:
  // Runs the whole build pipeline (transform, analyze, build images,
  // generate EDL/bridges, measure + initialize the enclave, wire the RMI
  // layer). Build-time work is not charged to the virtual clock — it
  // happens offline in the trusted build environment (§4); only enclave
  // creation/measurement at load time is charged.
  PartitionedApp(const model::AppModel& app, AppConfig config = {},
                 interp::IntrinsicTable intrinsics =
                     interp::IntrinsicTable::defaults());
  // The same with `trusted_isolates` (>= 1) trusted isolates in the one
  // enclave (future work §7): separate heaps running the trusted image,
  // independently garbage collected (§2.2). The untrusted runtime
  // addresses an isolate when creating proxies (construct_in), and each
  // proxy stays bound to the isolate that owns its mirror. Typical use:
  // one isolate per tenant of an enclave service.
  PartitionedApp(const model::AppModel& app, std::uint32_t trusted_isolates,
                 AppConfig config = {},
                 interp::IntrinsicTable intrinsics =
                     interp::IntrinsicTable::defaults());
  // Shared-environment variant for multi-enclave topologies (the fleet,
  // DESIGN.md §14): every enclave of the fleet lives on ONE machine — one
  // virtual clock, one cost model, one telemetry spine — so `env` is
  // borrowed, not owned. config.cost / config.fs / config.trace are
  // ignored; the caller configured the shared Env once. `name_suffix`
  // disambiguates the enclaves ("shard0-a", ...) in traces and errors.
  PartitionedApp(Env& env, const model::AppModel& app,
                 std::uint32_t trusted_isolates, AppConfig config = {},
                 const std::string& name_suffix = "",
                 interp::IntrinsicTable intrinsics =
                     interp::IntrinsicTable::defaults());
  ~PartitionedApp();

  PartitionedApp(const PartitionedApp&) = delete;
  PartitionedApp& operator=(const PartitionedApp&) = delete;

  rt::Value run_main(std::vector<rt::Value> args = {});

  Env& env() { return env_; }
  const AppConfig& config() const { return config_; }
  double now_seconds() const { return env_.clock.seconds(); }
  std::uint32_t isolate_count() const { return rmi_->isolate_count(); }

  interp::ExecContext& trusted_context(std::uint32_t index = 0);
  interp::ExecContext& untrusted_context() { return *untrusted_ctx_; }
  sgx::TransitionBridge& bridge() { return *bridge_; }
  sgx::Enclave& enclave() { return *enclave_; }
  rmi::ProxyRuntime& rmi() { return *rmi_; }
  shim::HostIo& host_io() { return *host_io_; }
  shim::EnclaveShim& enclave_shim() { return *enclave_shim_; }

  const xform::NativeImage& trusted_image() const { return trusted_image_; }
  const xform::NativeImage& untrusted_image() const { return untrusted_image_; }
  const sgx::EdlSpec& edl() const { return edl_; }
  // The Edger8r outputs, rendered on each call: a launch renders only the
  // trusted source, for the measurement.
  sgx::EdgeRoutines edge_routines() const {
    return sgx::edger8r_generate(edl_);
  }

  TcbReport tcb_report() const;

  // Creates a proxy whose mirror lives in trusted isolate `index`.
  rt::Value construct_in(std::uint32_t index, const std::string& cls,
                         std::vector<rt::Value> args) {
    return rmi_->construct_in(index, cls, std::move(args));
  }

  // Collects one trusted isolate's heap — the others keep running
  // untouched (the GraalVM isolate property the design builds on, §2.2).
  void collect_isolate(std::uint32_t index) {
    trusted_context(index).isolate().heap().collect();
  }

  // Recovery path for a lost enclave (DESIGN.md §12): re-create and
  // re-measure against the enclave blob (charging the full build cost),
  // then fence the RMI layer so stale proxies fault instead of routing to
  // dead mirrors. Callers rebuild session state afterwards — typically by
  // unsealing a checkpoint (server/server.h). Throws unless the enclave is
  // currently lost.
  void restart_enclave();

 private:
  // Common tail of the constructors: everything after the Env exists.
  void build(const model::AppModel& app, std::uint32_t trusted_isolates,
             const std::string& name_suffix,
             interp::IntrinsicTable intrinsics);

  std::unique_ptr<Env> owned_env_;  // null in the shared-Env variant
  Env& env_;
  AppConfig config_;
  xform::NativeImage trusted_image_;
  xform::NativeImage untrusted_image_;
  sgx::EdlSpec edl_;
  Sha256::Digest measurement_{};
  std::unique_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<UntrustedDomain> untrusted_domain_;
  std::unique_ptr<sgx::EnclaveDomain> trusted_domain_;
  std::vector<std::unique_ptr<rt::Isolate>> trusted_isos_;
  std::unique_ptr<rt::Isolate> untrusted_iso_;
  std::unique_ptr<sgx::TransitionBridge> bridge_;
  std::unique_ptr<shim::HostIo> host_io_;
  std::unique_ptr<shim::EnclaveShim> enclave_shim_;
  // The trusted image's lookup tables, shared by every trusted context.
  std::unique_ptr<const interp::ImageTables> trusted_tables_;
  std::vector<std::unique_ptr<interp::ExecContext>> trusted_ctxs_;
  std::unique_ptr<interp::ExecContext> untrusted_ctx_;
  std::unique_ptr<rmi::ProxyRuntime> rmi_;
};

class UnpartitionedApp {
 public:
  UnpartitionedApp(const model::AppModel& app, AppConfig config = {},
                   interp::IntrinsicTable intrinsics =
                       interp::IntrinsicTable::defaults());
  ~UnpartitionedApp();

  UnpartitionedApp(const UnpartitionedApp&) = delete;
  UnpartitionedApp& operator=(const UnpartitionedApp&) = delete;

  // Enters the enclave through the single ecall_main entry point.
  rt::Value run_main(std::vector<rt::Value> args = {});

  // Runs `fn` inside the enclave through a generic ecall (the way a host
  // process drives exported enclave entry points). Used by tests and
  // benchmark harnesses that exercise more than main.
  rt::Value run_in_enclave(
      const std::function<rt::Value(interp::ExecContext&)>& fn);

  Env& env() { return *env_; }
  double now_seconds() const { return env_->clock.seconds(); }
  interp::ExecContext& context() { return *ctx_; }
  sgx::TransitionBridge& bridge() { return *bridge_; }
  sgx::Enclave& enclave() { return *enclave_; }
  shim::EnclaveShim& enclave_shim() { return *enclave_shim_; }
  const xform::NativeImage& image() const { return image_; }

 private:
  std::unique_ptr<Env> env_;
  AppConfig config_;
  xform::NativeImage image_;
  sgx::EdlSpec edl_;
  std::unique_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<UntrustedDomain> untrusted_domain_;
  std::unique_ptr<sgx::EnclaveDomain> trusted_domain_;
  std::unique_ptr<rt::Isolate> iso_;
  std::unique_ptr<sgx::TransitionBridge> bridge_;
  std::unique_ptr<shim::HostIo> host_io_;
  std::unique_ptr<shim::EnclaveShim> enclave_shim_;
  std::unique_ptr<interp::ExecContext> ctx_;
  sgx::CallId ecall_main_id_ = sgx::kNoCallId;
  sgx::CallId ecall_invoke_id_ = sgx::kNoCallId;
  const std::function<rt::Value(interp::ExecContext&)>* pending_invoke_ =
      nullptr;
  rt::Value pending_result_;
};

class NativeApp {
 public:
  NativeApp(const model::AppModel& app, AppConfig config = {},
            interp::IntrinsicTable intrinsics =
                interp::IntrinsicTable::defaults());
  ~NativeApp();

  NativeApp(const NativeApp&) = delete;
  NativeApp& operator=(const NativeApp&) = delete;

  rt::Value run_main(std::vector<rt::Value> args = {});

  Env& env() { return *env_; }
  double now_seconds() const { return env_->clock.seconds(); }
  interp::ExecContext& context() { return *ctx_; }
  shim::HostIo& host_io() { return *host_io_; }
  const xform::NativeImage& image() const { return image_; }

 private:
  std::unique_ptr<Env> env_;
  AppConfig config_;
  xform::NativeImage image_;
  std::unique_ptr<UntrustedDomain> domain_;
  std::unique_ptr<rt::Isolate> iso_;
  std::unique_ptr<shim::HostIo> host_io_;
  std::unique_ptr<interp::ExecContext> ctx_;
};

}  // namespace msv::core
