#include "apps/synthetic/generator.h"

#include "interp/exec_context.h"
#include "model/ir.h"
#include "support/error.h"
#include "support/rng.h"

namespace msv::apps::synthetic {

using model::Annotation;
using model::IrBuilder;
using rt::Value;

model::AppModel generate(const SyntheticSpec& spec) {
  MSV_CHECK_MSG(spec.untrusted_fraction >= 0.0 &&
                    spec.untrusted_fraction <= 1.0,
                "untrusted_fraction must be in [0, 1]");
  model::AppModel app;

  // Choose which classes are untrusted: a deterministic shuffle so a 40%
  // run is not simply a prefix of a 50% run.
  const auto n_untrusted = static_cast<std::uint32_t>(
      spec.untrusted_fraction * spec.n_classes + 0.5);
  std::vector<std::uint32_t> order(spec.n_classes);
  for (std::uint32_t i = 0; i < spec.n_classes; ++i) order[i] = i;
  Rng rng(spec.seed);
  for (std::uint32_t i = spec.n_classes; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<bool> untrusted(spec.n_classes, false);
  for (std::uint32_t i = 0; i < n_untrusted; ++i) untrusted[order[i]] = true;

  // Which trusted classes hold genuine secrets: a deterministic pick from
  // a separate Rng stream so enabling secret_fraction never perturbs the
  // annotation shuffle above.
  MSV_CHECK_MSG(spec.secret_fraction >= 0.0 && spec.secret_fraction <= 1.0,
                "secret_fraction must be in [0, 1]");
  std::vector<bool> secret(spec.n_classes, false);
  if (spec.secret_fraction > 0.0) {
    std::vector<std::uint32_t> trusted_ids;
    for (std::uint32_t i = 0; i < spec.n_classes; ++i) {
      if (!untrusted[i]) trusted_ids.push_back(i);
    }
    const auto n_secret = static_cast<std::uint32_t>(
        spec.secret_fraction * trusted_ids.size() + 0.5);
    Rng secret_rng(spec.seed ^ 0x5ec2e7);
    for (std::uint32_t i = static_cast<std::uint32_t>(trusted_ids.size());
         i > 1; --i) {
      std::swap(trusted_ids[i - 1], trusted_ids[secret_rng.next_below(i)]);
    }
    for (std::uint32_t i = 0; i < n_secret && i < trusted_ids.size(); ++i) {
      secret[trusted_ids[i]] = true;
    }
  }

  IrBuilder main_ir;
  for (std::uint32_t i = 0; i < spec.n_classes; ++i) {
    const std::string name = "C" + std::to_string(i);
    auto& cls = app.add_class(
        name, untrusted[i] ? Annotation::kUntrusted : Annotation::kTrusted);
    cls.add_field("state");
    IrBuilder ctor;
    ctor.locals(1).load_local(0);
    if (secret[i]) {
      // state = enclave_secret(i): enclave-confined key material the
      // trust analysis must keep inside (kSecret, never demotable).
      ctor.const_val(Value(static_cast<std::int64_t>(i)))
          .intrinsic("enclave_secret", 1);
    } else {
      ctor.const_val(Value(std::int32_t{0}));
    }
    ctor.put_field(0).ret_void();
    cls.add_constructor(0).body(ctor.build());
    IrBuilder work;
    work.locals(1);
    if (spec.work == WorkKind::kCpu) {
      work.const_val(Value(static_cast<std::int64_t>(spec.fft_mb)))
          .intrinsic("compute_fft", 1)
          .pop();
    } else {
      work.const_val(Value("out_" + name + ".dat"))
          .const_val(Value(static_cast<std::int64_t>(spec.io_bytes)))
          .intrinsic("io_write", 2)
          .pop();
    }
    work.ret_void();
    cls.add_method("work", 0).body(work.build());

    main_ir.new_object(name, 0);
    for (std::uint32_t k = 0; k < spec.extra_work_calls; ++k) {
      main_ir.dup().call("work", 0).pop();
    }
    main_ir.call("work", 0).pop();
  }
  main_ir.ret_void();

  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0).body(main_ir.build());
  app.set_main_class("Main");
  app.validate();
  return app;
}

model::AppModel build_micro_app() {
  model::AppModel app;
  for (const auto& [name, annotation] :
       {std::pair<const char*, Annotation>{"Worker", Annotation::kTrusted},
        std::pair<const char*, Annotation>{"Sink",
                                           Annotation::kUntrusted}}) {
    auto& cls = app.add_class(name, annotation);
    cls.add_field("value");
    cls.add_field("items");
    cls.add_constructor(0).body(IrBuilder()
                                    .locals(1)
                                    .load_local(0)
                                    .const_val(Value(std::int32_t{0}))
                                    .put_field(0)
                                    .ret_void()
                                    .build());
    // void set(int v) { this.value = v; } — the paper's micro-benchmark
    // methods are "setter methods updating an object field" (§6.3). The
    // declared signature is all-primitive, so its relay qualifies for the
    // fixed-layout wire path.
    // batch_async: a pure receiver-field write commutes with any batch it
    // can appear in (MSV009 checks the claim).
    cls.add_method("set", 1)
        .primitive_signature()
        .batch_async()
        .body(IrBuilder()
                  .locals(2)
                  .load_local(0)
                  .load_local(1)
                  .put_field(0)
                  .ret_void()
                  .build());
    // void set_list(List values) { this.items = values; }
    cls.add_method("set_list", 1).body(IrBuilder()
                                           .locals(2)
                                           .load_local(0)
                                           .load_local(1)
                                           .put_field(1)
                                           .ret_void()
                                           .build());
    cls.add_method("get", 0).primitive_signature().batch_async().body(
        IrBuilder().locals(1).load_local(0).get_field(0).ret().build());
  }
  // Trusted Driver: runs creation/invocation loops *inside* the enclave so
  // the micro-benchmarks can measure the concrete-in, proxy-in->out and
  // proxy-in->out+s scenarios of Figs. 3-4 with a single entering ecall.
  auto& driver = app.add_class("Driver", Annotation::kTrusted);
  driver.add_field("unused");
  driver.add_constructor(0).body_native(
      [](model::NativeCall&) { return Value(); });
  driver.add_method("make_workers", 1)
      .body_native([](model::NativeCall& call) {
        const std::int64_t n = call.args[0].as_i64();
        for (std::int64_t i = 0; i < n; ++i) call.ctx.construct("Worker", {});
        return Value(n);
      })
      .calls("Worker", model::kConstructorName);
  driver.add_method("call_worker", 1)
      .body_native([](model::NativeCall& call) {
        const std::int64_t n = call.args[0].as_i64();
        const rt::GcRef w = call.ctx.construct("Worker", {}).as_ref();
        for (std::int64_t i = 0; i < n; ++i) {
          call.ctx.invoke(w, "set", {Value(static_cast<std::int32_t>(i))});
        }
        return Value(n);
      })
      .calls("Worker", model::kConstructorName)
      .calls("Worker", "set");
  driver.add_method("make_sinks", 1)
      .body_native([](model::NativeCall& call) {
        const std::int64_t n = call.args[0].as_i64();
        for (std::int64_t i = 0; i < n; ++i) call.ctx.construct("Sink", {});
        return Value(n);
      })
      .calls("Sink", model::kConstructorName);
  driver.add_method("call_sink", 1)
      .body_native([](model::NativeCall& call) {
        const std::int64_t n = call.args[0].as_i64();
        const rt::GcRef s = call.ctx.construct("Sink", {}).as_ref();
        for (std::int64_t i = 0; i < n; ++i) {
          call.ctx.invoke(s, "set", {Value(static_cast<std::int32_t>(i))});
        }
        return Value(n);
      })
      .calls("Sink", model::kConstructorName)
      .calls("Sink", "set");
  driver.add_method("call_sink_list", 2)
      .body_native([](model::NativeCall& call) {
        const std::int64_t n = call.args[0].as_i64();
        const rt::GcRef s = call.ctx.construct("Sink", {}).as_ref();
        for (std::int64_t i = 0; i < n; ++i) {
          call.ctx.invoke(s, "set_list", {call.args[1]});
        }
        return Value(n);
      })
      .calls("Sink", model::kConstructorName)
      .calls("Sink", "set_list");

  // main exercises both classes so the §5.3 reachability keeps them (and
  // their proxies) in both images.
  auto& main_cls = app.add_class("Main", Annotation::kUntrusted);
  main_cls.add_static_method("main", 0)
      .body(IrBuilder()
                .locals(1)
                .new_object("Worker", 0)
                .store_local(0)
                .load_local(0)
                .const_val(Value(std::int32_t{1}))
                .call("set", 1)
                .pop()
                .load_local(0)
                .call("get", 0)
                .pop()
                .new_object("Sink", 0)
                .store_local(0)
                .load_local(0)
                .const_val(Value(std::int32_t{1}))
                .call("set", 1)
                .pop()
                .new_object("Driver", 0)
                .store_local(0)
                .load_local(0)
                .const_val(Value(std::int64_t{1}))
                .call("call_sink", 1)
                .pop()
                .ret_void()
                .build());
  app.set_main_class("Main");
  app.validate();
  return app;
}

}  // namespace msv::apps::synthetic
