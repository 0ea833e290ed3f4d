#include "core/app.h"

#include "analysis/lint.h"
#include "support/error.h"

namespace msv::core {

namespace {

Env* make_env(AppConfig& config) {
  Env* env = new Env(config.cost, config.fs);
  env->telemetry.configure(config.trace);
  return env;
}

// AppConfig::lint_partition: run the msvlint rule suite over the annotated
// input model (pre-weave — the rules reason about the annotations, not the
// woven proxies) and refuse to build on error-severity findings.
void lint_or_throw(const model::AppModel& app) {
  const analysis::Report report = analysis::lint(app);
  if (report.errors() > 0) {
    throw ConfigError("partition lint failed (" +
                      std::to_string(report.errors()) + " error(s)):\n" +
                      report.to_text());
  }
}

// Agent mode: every public method of every class is a root.
std::vector<xform::MethodRef> all_public_methods(const model::AppModel& set) {
  std::vector<xform::MethodRef> eps;
  for (const auto& cls : set.classes()) {
    for (const auto& m : cls.methods()) {
      if (m.is_public()) eps.push_back({cls.name(), m.name()});
    }
  }
  return eps;
}

// Appends the configured extra roots whose class/method exist in `set`.
// Proxies qualify too: rooting a proxy keeps the remote class callable
// from host-driven code even when no bytecode path reaches it.
std::vector<xform::MethodRef> with_extra_roots(
    std::vector<xform::MethodRef> eps, const model::AppModel& set,
    const std::vector<xform::MethodRef>& extras) {
  for (const auto& [cls, method] : extras) {
    const model::ClassDecl* c = set.find_class(cls);
    if (c != nullptr && c->find_method(method) != nullptr) {
      eps.push_back({cls, method});
    }
  }
  return eps;
}

// Entry points for one image: the §5.3 rule plus the extra roots.
std::vector<xform::MethodRef> image_entry_points(
    const model::AppModel& set, bool is_trusted,
    const std::vector<xform::MethodRef>& extras) {
  return with_extra_roots(is_trusted
                              ? xform::trusted_image_entry_points(set)
                              : xform::untrusted_image_entry_points(set),
                          set, extras);
}

}  // namespace

Sha256::Digest measure_enclave_blob(const xform::NativeImage& trusted,
                                    const std::string& trusted_bridge_source) {
  Sha256 h;
  const ByteBuffer image_bytes = trusted.serialize();
  h.update(image_bytes.data(), image_bytes.size());
  h.update("montsalvat-shim-v1");
  h.update(trusted_bridge_source);
  return h.finish();
}

PartitionedApp::PartitionedApp(const model::AppModel& app, AppConfig config,
                               interp::IntrinsicTable intrinsics)
    : PartitionedApp(app, 1, std::move(config), std::move(intrinsics)) {}

PartitionedApp::PartitionedApp(const model::AppModel& app,
                               std::uint32_t trusted_isolates,
                               AppConfig config,
                               interp::IntrinsicTable intrinsics)
    : owned_env_(make_env(config)),
      env_(*owned_env_),
      config_(std::move(config)) {
  build(app, trusted_isolates, "", std::move(intrinsics));
}

PartitionedApp::PartitionedApp(Env& env, const model::AppModel& app,
                               std::uint32_t trusted_isolates,
                               AppConfig config,
                               const std::string& name_suffix,
                               interp::IntrinsicTable intrinsics)
    : env_(env), config_(std::move(config)) {
  // The shared Env's cost model, filesystem and telemetry configuration
  // belong to the caller; this app only charges cycles into them.
  build(app, trusted_isolates, name_suffix, std::move(intrinsics));
}

void PartitionedApp::build(const model::AppModel& app,
                           std::uint32_t trusted_isolates,
                           const std::string& name_suffix,
                           interp::IntrinsicTable intrinsics) {
  MSV_CHECK_MSG(trusted_isolates >= 1, "need at least one trusted isolate");

  // 0. Optional re-partitioning (DESIGN.md §15): apply the optimizer's
  // plan before anything looks at the annotations, so lint, transform and
  // image generation all see the re-partitioned model.
  model::AppModel replanned;
  const model::AppModel* input = &app;
  if (config_.partition_plan != nullptr) {
    replanned = xform::apply_partition_plan(app, *config_.partition_plan);
    input = &replanned;
  }

  // 0b. Optional partition lint over the annotated input (DESIGN.md §9).
  if (config_.lint_partition) lint_or_throw(*input);

  // 1. Bytecode transformation (§5.2).
  xform::BytecodeTransformer transformer;
  xform::TransformResult transformed = transformer.transform(*input);

  // 2. Native image generation with reachability pruning (§5.3). The
  // transformed sets are not needed afterwards: the images take what they
  // keep from them.
  xform::ImageBuilder builder(config_.image);
  std::vector<xform::MethodRef> trusted_roots = image_entry_points(
      transformed.trusted, true, config_.extra_entry_points);
  trusted_image_ = builder.build(std::move(transformed.trusted),
                                 /*is_trusted=*/true, std::move(trusted_roots));
  std::vector<xform::MethodRef> untrusted_roots = image_entry_points(
      transformed.untrusted, false, config_.extra_entry_points);
  untrusted_image_ =
      builder.build(std::move(transformed.untrusted), /*is_trusted=*/false,
                    std::move(untrusted_roots));

  // 3. EDL + Edger8r bridge generation (§5.3, §5.4): the relay
  // transitions, then the shim's libc relays and the GC-helper calls,
  // linked from their one definition. The trusted bridge source is the
  // one Edger8r output the measurement needs.
  edl_ = std::move(transformed.edl);
  shim::EnclaveShim::add_edl_entries(edl_);
  edl_.link(rmi::ProxyRuntime::gc_edl_interface());
  edl_.switchless = config_.switchless_relays;

  // 4. SGX application creation (§5.4): measured load + EINIT.
  measurement_ = measure_enclave_blob(trusted_image_,
                                      sgx::edger8r_trusted_source(edl_));
  enclave_ = std::make_unique<sgx::Enclave>(
      env_,
      name_suffix.empty() ? "montsalvat_enclave"
                          : "montsalvat_enclave_" + name_suffix,
      measurement_,
      trusted_image_.total_bytes() + shim::EnclaveShim::shim_code_bytes(),
      config_.enclave_heap_max_bytes, config_.enclave_stack_bytes,
      config_.tcs);
  enclave_->init(measurement_);
  // The launch pages in each trusted isolate's image heap and its heap's
  // first page: the EPC frame store is sized for them once.
  const std::uint64_t image_heap_pages =
      (trusted_image_.image_heap_bytes + env_.cost.page_bytes - 1) /
      env_.cost.page_bytes;
  enclave_->epc().reserve_frames(trusted_isolates * (image_heap_pages + 1));

  // 5. Runtimes: one isolate per image (§2.2), the trusted ones backed by
  // EPC memory. All trusted isolates share the enclave (and hence the
  // EPC), but each has its own heap and GC.
  untrusted_domain_ = std::make_unique<UntrustedDomain>(env_);
  trusted_domain_ = std::make_unique<sgx::EnclaveDomain>(env_, *enclave_);
  untrusted_iso_ = std::make_unique<rt::Isolate>(
      env_, *untrusted_domain_,
      rt::Isolate::Config{"untrusted-isolate", config_.untrusted_heap_bytes,
                          untrusted_image_.image_heap_bytes});
  for (std::uint32_t k = 0; k < trusted_isolates; ++k) {
    // The name seeds the heap's identity hashes and the proxy hasher.
    trusted_isos_.push_back(std::make_unique<rt::Isolate>(
        env_, *trusted_domain_,
        rt::Isolate::Config{trusted_isolates == 1
                                ? std::string("trusted-isolate")
                                : "trusted-isolate-" + std::to_string(k),
                            config_.trusted_heap_bytes,
                            trusted_image_.image_heap_bytes}));
  }

  // 6. Bridge, shim and the execution contexts.
  bridge_ = std::make_unique<sgx::TransitionBridge>(env_, *enclave_);
  host_io_ = std::make_unique<shim::HostIo>(env_, *untrusted_domain_);
  enclave_shim_ = std::make_unique<shim::EnclaveShim>(
      env_, *bridge_, *host_io_, *trusted_domain_);
  enclave_shim_->register_ocalls();
  // Every trusted isolate runs the one trusted image: its contexts share
  // the image's lookup tables.
  trusted_tables_ =
      std::make_unique<const interp::ImageTables>(trusted_image_.classes);
  std::vector<interp::ExecContext*> trusted_ptrs;
  for (auto& iso : trusted_isos_) {
    trusted_ctxs_.push_back(std::make_unique<interp::ExecContext>(
        env_, *iso, *trusted_tables_, *enclave_shim_, intrinsics));
    trusted_ctxs_.back()->set_verify_bytecode(config_.verify_bytecode);
    trusted_ptrs.push_back(trusted_ctxs_.back().get());
  }
  untrusted_ctx_ = std::make_unique<interp::ExecContext>(
      env_, *untrusted_iso_, untrusted_image_.classes, *host_io_,
      std::move(intrinsics));
  untrusted_ctx_->set_verify_bytecode(config_.verify_bytecode);

  // 7. RMI machinery and GC helpers (§5.2, §5.5).
  rmi_ = std::make_unique<rmi::ProxyRuntime>(
      env_, *bridge_, trusted_ptrs, *untrusted_ctx_,
      rmi::ProxyRuntime::Config{config_.hash_scheme,
                                config_.gc_scan_period_seconds});
  rmi_->register_handlers();
  for (auto& ctx : trusted_ctxs_) ctx->set_remote(rmi_.get());
  untrusted_ctx_->set_remote(rmi_.get());

  if (config_.switchless_relays) {
    // The EDL's own functions are the relay transitions; the linked shim
    // and GC-helper calls keep their hardware transitions.
    for (const auto* side : {&edl_.trusted, &edl_.untrusted}) {
      for (const auto& fn : *side) bridge_->set_switchless(fn.name, true);
    }
  }
}

PartitionedApp::~PartitionedApp() = default;

rt::Value PartitionedApp::run_main(std::vector<rt::Value> args) {
  // SGX applications begin in the untrusted runtime (§5.3).
  return untrusted_ctx_->run_main(std::move(args));
}

interp::ExecContext& PartitionedApp::trusted_context(std::uint32_t index) {
  MSV_CHECK_MSG(index < trusted_ctxs_.size(), "no such trusted isolate");
  return *trusted_ctxs_[index];
}

void PartitionedApp::restart_enclave() {
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kFault,
                            env_.telemetry.names().enclave_restart);
  enclave_->restart(measurement_);
  rmi_->on_enclave_restart();
}

TcbReport PartitionedApp::tcb_report() const {
  TcbReport r;
  r.app_code_bytes = trusted_image_.code_bytes;
  r.runtime_code_bytes = trusted_image_.runtime_code_bytes;
  r.shim_bytes = shim::EnclaveShim::shim_code_bytes();
  r.image_heap_bytes = trusted_image_.image_heap_bytes;
  r.trusted_classes = trusted_image_.class_count();
  r.trusted_methods = trusted_image_.method_count();
  r.edl_functions = edl_.function_count();
  return r;
}

UnpartitionedApp::UnpartitionedApp(const model::AppModel& app,
                                   AppConfig config,
                                   interp::IntrinsicTable intrinsics)
    : env_(make_env(config)), config_(std::move(config)) {
  app.validate();
  MSV_CHECK_MSG(!app.main_class().empty(),
                "unpartitioned app needs a main class");
  if (config_.lint_partition) lint_or_throw(app);

  // One image, rooted at main, linked entirely into the enclave (§5.6).
  xform::ImageBuilder builder(config_.image);
  image_ = builder.build(app, /*is_trusted=*/true,
                         with_extra_roots({{app.main_class(), "main"}}, app,
                                          config_.extra_entry_points));

  sgx::EdlFunction main_fn;
  main_fn.name = "ecall_main";
  edl_.enclave_name = "montsalvat_enclave";
  edl_.add_ecall(std::move(main_fn));
  shim::EnclaveShim::add_edl_entries(edl_);

  const Sha256::Digest measurement =
      measure_enclave_blob(image_, sgx::edger8r_trusted_source(edl_));

  enclave_ = std::make_unique<sgx::Enclave>(
      *env_, "montsalvat_enclave", measurement,
      image_.total_bytes() + shim::EnclaveShim::shim_code_bytes(),
      config_.enclave_heap_max_bytes, config_.enclave_stack_bytes,
      config_.tcs);
  enclave_->init(measurement);

  untrusted_domain_ = std::make_unique<UntrustedDomain>(*env_);
  trusted_domain_ = std::make_unique<sgx::EnclaveDomain>(*env_, *enclave_);
  iso_ = std::make_unique<rt::Isolate>(
      *env_, *trusted_domain_,
      rt::Isolate::Config{"enclave-isolate", config_.trusted_heap_bytes,
                          image_.image_heap_bytes});
  bridge_ = std::make_unique<sgx::TransitionBridge>(*env_, *enclave_);
  host_io_ = std::make_unique<shim::HostIo>(*env_, *untrusted_domain_);
  enclave_shim_ = std::make_unique<shim::EnclaveShim>(
      *env_, *bridge_, *host_io_, *trusted_domain_);
  enclave_shim_->register_ocalls();
  ctx_ = std::make_unique<interp::ExecContext>(
      *env_, *iso_, image_.classes, *enclave_shim_, std::move(intrinsics));
  ctx_->set_verify_bytecode(config_.verify_bytecode);

  ecall_main_id_ = bridge_->register_ecall_raw(
      "ecall_main", [this](ByteReader&, ByteBuffer&) {
        env_->clock.advance(env_->cost.isolate_attach_cycles(/*trusted=*/true));
        ctx_->run_main();
      });
  ecall_invoke_id_ = bridge_->register_ecall_raw(
      "ecall_invoke", [this](ByteReader&, ByteBuffer&) {
        env_->clock.advance(env_->cost.isolate_attach_cycles(/*trusted=*/true));
        MSV_CHECK_MSG(pending_invoke_ != nullptr,
                      "no pending enclave function");
        pending_result_ = (*pending_invoke_)(*ctx_);
      });
}

UnpartitionedApp::~UnpartitionedApp() = default;

rt::Value UnpartitionedApp::run_main(std::vector<rt::Value> args) {
  MSV_CHECK_MSG(args.empty(),
                "ecall_main takes no arguments in the unpartitioned mode");
  ByteBuffer empty, response;
  bridge_->ecall(ecall_main_id_, empty, response);
  return rt::Value();
}

rt::Value UnpartitionedApp::run_in_enclave(
    const std::function<rt::Value(interp::ExecContext&)>& fn) {
  pending_invoke_ = &fn;
  ByteBuffer empty, response;
  bridge_->ecall(ecall_invoke_id_, empty, response);
  pending_invoke_ = nullptr;
  rt::Value result = std::move(pending_result_);
  pending_result_ = rt::Value();
  return result;
}

NativeApp::NativeApp(const model::AppModel& app, AppConfig config,
                     interp::IntrinsicTable intrinsics)
    : env_(make_env(config)), config_(std::move(config)) {
  app.validate();
  MSV_CHECK_MSG(!app.main_class().empty(), "native app needs a main class");
  if (config_.lint_partition) lint_or_throw(app);
  xform::ImageBuilder builder(config_.image);
  image_ = builder.build(
      app, /*is_trusted=*/false,
      config_.root_everything
          ? all_public_methods(app)
          : with_extra_roots({{app.main_class(), "main"}}, app,
                             config_.extra_entry_points));
  domain_ = std::make_unique<UntrustedDomain>(*env_);
  iso_ = std::make_unique<rt::Isolate>(
      *env_, *domain_,
      rt::Isolate::Config{"native-isolate", config_.untrusted_heap_bytes,
                          image_.image_heap_bytes});
  host_io_ = std::make_unique<shim::HostIo>(*env_, *domain_);
  ctx_ = std::make_unique<interp::ExecContext>(
      *env_, *iso_, image_.classes, *host_io_, std::move(intrinsics));
  ctx_->set_verify_bytecode(config_.verify_bytecode);
}

NativeApp::~NativeApp() = default;

rt::Value NativeApp::run_main(std::vector<rt::Value> args) {
  return ctx_->run_main(std::move(args));
}

}  // namespace msv::core
