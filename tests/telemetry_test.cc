// Tests for the unified telemetry layer (DESIGN.md §10): histogram
// quantile math, registry/adapter round-trips, span stacks and trace
// context, bounded-buffer drop accounting, RMI span nesting through a
// partitioned app, and the byte-identical-trace determinism contract.
#include <gtest/gtest.h>

#include <string>

#include "apps/illustrative/bank.h"
#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"
#include "sched/scheduler.h"
#include "server/server.h"
#include "sgx/bridge.h"
#include "sgx/epc.h"
#include "sim/env.h"
#include "telemetry/adapters.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace msv {
namespace {

using telemetry::Category;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::TraceConfig;
using telemetry::TraceMode;
using telemetry::Tracer;

// ---- Histogram -------------------------------------------------------------

TEST(TelemetryHistogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_upper_bound(Histogram::bucket_index(v)), v);
  }
}

TEST(TelemetryHistogram, BucketBoundsAreMonotonic) {
  std::uint64_t prev = 0;
  for (std::size_t i = 1; i < 200; ++i) {
    const std::uint64_t bound = Histogram::bucket_upper_bound(i);
    EXPECT_GT(bound, prev) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(bound), i)
        << "upper bound must map back to its own bucket";
    prev = bound;
  }
}

TEST(TelemetryHistogram, QuantilesWithinLogBucketError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-bucketed with 8 sub-buckets per octave: relative error <= 12.5%.
  for (const auto& [q, exact] : {std::pair<double, double>{0.5, 500.0},
                                {0.9, 900.0},
                                {0.99, 990.0}}) {
    const auto est = static_cast<double>(h.quantile(q));
    EXPECT_GE(est, exact * 0.999) << "q=" << q;
    EXPECT_LE(est, exact * 1.125 + 1) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(1.0), 1000u) << "clamped to recorded max";
}

TEST(TelemetryHistogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

// ---- Registry --------------------------------------------------------------

TEST(TelemetryRegistry, HandlesAreStableAndKeyed) {
  MetricsRegistry m;
  telemetry::Counter& a = m.counter("hits", {{"side", "t"}});
  telemetry::Counter& b = m.counter("hits", {{"side", "u"}});
  a.add(3);
  b.add(5);
  EXPECT_EQ(m.counter("hits", {{"side", "t"}}).value, 3u)
      << "same name+labels resolves the same handle";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find("hits", {{"side", "u"}})->counter.value, 5u);
  EXPECT_EQ(m.find("miss"), nullptr);
}

TEST(TelemetryRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry m;
  m.counter("x", {{"b", "2"}, {"a", "1"}}).add(7);
  EXPECT_EQ(m.counter("x", {{"a", "1"}, {"b", "2"}}).value, 7u);
  EXPECT_EQ(telemetry::render_metric_key("x", {{"b", "2"}, {"a", "1"}}),
            "x{a=\"1\",b=\"2\"}");
}

// ---- Adapters --------------------------------------------------------------

TEST(TelemetryAdapters, BridgeStatsRoundTrip) {
  sgx::BridgeStats s;
  s.ecalls = 11;
  s.ocalls = 4;
  s.switchless_calls = 2;
  s.bytes_in = 100;
  s.bytes_out = 50;
  sgx::CallStats call;
  call.calls = 11;
  call.bytes_in = 90;
  call.bytes_out = 45;
  call.transition_cycles = 150'700;
  s.per_call["ecall_relay_Worker_set"] = call;

  MetricsRegistry m;
  telemetry::publish_bridge(m, s);
  EXPECT_EQ(m.find("msv_bridge_ecalls")->counter.value, 11u);
  EXPECT_EQ(m.find("msv_bridge_ocalls")->counter.value, 4u);
  const telemetry::LabelSet labels = {{"call", "ecall_relay_Worker_set"}};
  EXPECT_EQ(m.find("msv_bridge_call_count", labels)->counter.value, 11u);
  EXPECT_EQ(m.find("msv_bridge_call_transition_cycles", labels)->counter.value,
            150'700u);

  const std::string text = telemetry::prometheus_text(m);
  EXPECT_NE(text.find("# TYPE msv_bridge_ecalls counter"), std::string::npos);
  EXPECT_NE(text.find("msv_bridge_call_count{call=\"ecall_relay_Worker_set\"}"
                      " 11"),
            std::string::npos);
}

TEST(TelemetryAdapters, EpcStatsRoundTrip) {
  sgx::EpcStats s;
  s.accesses = 3;
  s.faults = 2;
  s.evictions = 1;
  MetricsRegistry m;
  telemetry::publish_epc(m, s);
  EXPECT_EQ(m.find("msv_epc_accesses")->counter.value, 3u);
  EXPECT_EQ(m.find("msv_epc_faults")->counter.value, 2u);
  EXPECT_EQ(m.find("msv_epc_evictions")->counter.value, 1u);
}

TEST(TelemetryAdapters, ServerTotalsRoundTrip) {
  server::TenantStats s;
  s.accepted = 20;
  s.shed = 3;
  s.completed = 17;
  MetricsRegistry m;
  telemetry::publish_server(m, s);
  EXPECT_EQ(m.find("msv_server_accepted")->counter.value, 20u);
  EXPECT_EQ(m.find("msv_server_shed")->counter.value, 3u);
  EXPECT_EQ(m.find("msv_server_completed")->counter.value, 17u);

  server::TenantStats t;
  t.completed = 9;
  telemetry::publish_tenant(m, t, 4);
  EXPECT_EQ(
      m.find("msv_server_tenant_completed", {{"tenant", "4"}})->counter.value,
      9u);
}

// ---- Tracer ----------------------------------------------------------------

// The fixed span taxonomy costs an Env no interning: every tracer names
// the WellKnown ids, interning one of those names returns its fixed id,
// and the first name interned at run time follows them.
TEST(TelemetryTracer, WellKnownNamesHaveFixedIds) {
  VirtualClock clock;
  telemetry::Telemetry tel(clock);
  Tracer& tracer = tel.tracer();
  const telemetry::Telemetry::WellKnown& n = tel.names();
  const std::pair<std::uint32_t, const char*> fixed[] = {
      {n.tcs_wait, "tcs.wait"},
      {n.swl_ring, "swl.ring"},
      {n.swl_serve, "swl.serve"},
      {n.fiber_sleep, "fiber.sleep"},
      {n.epc_page_in, "epc.page_in"},
      {n.epc_page_out, "epc.page_out"},
      {n.gc_collect, "gc.collect"},
      {n.gc_roots, "gc.roots"},
      {n.gc_copy, "gc.copy"},
      {n.gc_weak, "gc.weak"},
      {n.gc_pause, "gc.pause"},
      {n.rmi_dispatch, "rmi.dispatch"},
      {n.rmi_batch, "rmi.batch"},
      {n.request, "request"},
      {n.server_handle, "server.handle"},
      {n.fault_inject, "fault.inject"},
      {n.enclave_restart, "enclave.restart"},
      {n.rmi_retry, "rmi.retry"},
      {n.fleet_request, "fleet.request"},
      {n.fleet_failover, "fleet.failover"},
      {n.fleet_promote, "fleet.promote"},
      {n.fleet_restore, "fleet.restore"},
      {n.fleet_migrate, "fleet.migrate"},
  };
  ASSERT_EQ(std::size(fixed), telemetry::kWellKnownNames);
  for (std::uint32_t i = 0; i < telemetry::kWellKnownNames; ++i) {
    EXPECT_EQ(fixed[i].first, i) << fixed[i].second;
    EXPECT_EQ(tracer.name(fixed[i].first), fixed[i].second);
    EXPECT_EQ(tracer.intern(fixed[i].second), fixed[i].first);
  }
  const std::uint32_t dynamic = tracer.intern("task:worker");
  EXPECT_EQ(dynamic, telemetry::kWellKnownNames);
  EXPECT_EQ(tracer.intern("task:worker"), dynamic);
  EXPECT_EQ(tracer.name(dynamic), "task:worker");
}

TEST(TelemetryTracer, SpansNestAndCarryTraceContext) {
  VirtualClock clock;
  Tracer tracer(clock);
  tracer.configure(TraceMode::kFull, telemetry::kAllCategories, 1024);
  const std::uint32_t outer = tracer.intern("outer");
  const std::uint32_t inner = tracer.intern("inner");

  tracer.begin_span(Category::kRmi, outer);
  const telemetry::TraceContext root_ctx = tracer.current_context();
  tracer.begin_span(Category::kBridge, inner);
  const telemetry::TraceContext inner_ctx = tracer.current_context();
  tracer.end_span();
  tracer.end_span();

  ASSERT_EQ(tracer.spans().size(), 2u);
  const telemetry::SpanRecord& o = tracer.spans()[0];
  const telemetry::SpanRecord& i = tracer.spans()[1];
  EXPECT_EQ(o.parent_id, 0u) << "root span";
  EXPECT_EQ(o.trace_id, o.span_id) << "root span starts its own trace";
  EXPECT_EQ(i.parent_id, o.span_id);
  EXPECT_EQ(i.trace_id, o.trace_id);
  EXPECT_EQ(root_ctx.span_id, o.span_id);
  EXPECT_EQ(inner_ctx.span_id, i.span_id);
  EXPECT_FALSE(o.open);
  EXPECT_FALSE(i.open);
}

TEST(TelemetryTracer, AdoptedAndDetachedSpansLinkAcrossStacks) {
  VirtualClock clock;
  Tracer tracer(clock);
  tracer.configure(TraceMode::kFull, telemetry::kAllCategories, 1024);
  const std::uint32_t req = tracer.intern("request");
  const std::uint32_t handle = tracer.intern("handle");

  // A submitter opens a detached request span; a worker later adopts it.
  const Tracer::DetachedSpan d =
      tracer.begin_detached(Category::kServer, req, /*tenant=*/3);
  ASSERT_TRUE(d.valid());
  {
    telemetry::AdoptedSpanScope scope(tracer, d.ctx, Category::kServer,
                                      handle, 3);
  }
  tracer.end_detached(d);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const telemetry::SpanRecord& r = tracer.spans()[0];
  const telemetry::SpanRecord& h = tracer.spans()[1];
  EXPECT_EQ(h.parent_id, r.span_id);
  EXPECT_EQ(h.trace_id, r.trace_id);
  EXPECT_EQ(r.tenant, 3);
  EXPECT_FALSE(r.open) << "end_detached closed the record";
}

TEST(TelemetryTracer, DisabledCategoryRecordsNothing) {
  VirtualClock clock;
  Tracer tracer(clock);
  tracer.configure(TraceMode::kFull, telemetry::mask_of(Category::kGc), 1024);
  EXPECT_FALSE(tracer.enabled(Category::kEpc));
  {
    telemetry::SpanScope scope(tracer, Category::kEpc, tracer.intern("x"));
  }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.started(), 0u);
}

TEST(TelemetryTracer, BoundedBufferCountsDropsAndKeepsStacksBalanced) {
  VirtualClock clock;
  Tracer tracer(clock);
  tracer.configure(TraceMode::kFull, telemetry::kAllCategories,
                   /*max_spans=*/4);
  const std::uint32_t name = tracer.intern("n");
  for (int i = 0; i < 10; ++i) {
    tracer.begin_span(Category::kSched, name);
    tracer.end_span();
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.started(), 10u);

  // Dropped records still allocate span ids, so nested context survives a
  // full buffer: a child opened over a dropped parent keeps the trace id.
  tracer.begin_span(Category::kSched, name);  // dropped (buffer full)
  const telemetry::TraceContext parent_ctx = tracer.current_context();
  EXPECT_NE(parent_ctx.span_id, 0u);
  tracer.begin_span(Category::kSched, name);  // dropped too
  EXPECT_EQ(tracer.current_context().trace_id, parent_ctx.trace_id);
  tracer.end_span();
  tracer.end_span();
  EXPECT_EQ(tracer.current_context().span_id, 0u) << "stack drained";

  // The drop counters surface in the tracer's own metrics.
  MetricsRegistry m;
  telemetry::publish_tracer_self(m, tracer);
  EXPECT_EQ(m.find("msv_telemetry_spans_dropped")->counter.value, 8u);
  EXPECT_EQ(m.find("msv_telemetry_spans_recorded")->counter.value, 4u);
}

// ---- RMI span nesting through a partitioned app ----------------------------

TEST(TelemetryRmi, InvocationRendersAsOneCausalTree) {
  core::AppConfig cfg;
  cfg.trace.mode = TraceMode::kFull;
  core::PartitionedApp app(apps::synthetic::build_micro_app(), cfg);
  auto& u = app.untrusted_context();
  const rt::Value w = u.construct("Worker", {});
  u.invoke(w.as_ref(), "set", {rt::Value(std::int32_t{42})});

  const Tracer& tracer = app.env().telemetry.tracer();
  const auto find = [&](const std::string& name, std::uint64_t trace)
      -> const telemetry::SpanRecord* {
    for (const auto& s : tracer.spans()) {
      if (s.open || tracer.name(s.name) != name) continue;
      if (trace != 0 && s.trace_id != trace) continue;
      return &s;
    }
    return nullptr;
  };
  const auto* invoke = find("rmi.invoke ecall_relay_Worker_set", 0);
  ASSERT_NE(invoke, nullptr) << "caller-side invoke span";
  const auto* transition = find("ecall_relay_Worker_set", invoke->trace_id);
  const auto* dispatch = find("rmi.dispatch", invoke->trace_id);
  ASSERT_NE(transition, nullptr) << "bridge transition span";
  ASSERT_NE(dispatch, nullptr) << "callee-side dispatch span";
  EXPECT_EQ(transition->parent_id, invoke->span_id);
  EXPECT_EQ(dispatch->parent_id, transition->span_id);
  EXPECT_EQ(invoke->trace_id, dispatch->trace_id)
      << "one trace across caller, bridge and callee";
  EXPECT_EQ(transition->category, Category::kRmi)
      << "relay transitions classify as rmi via the call-prefix registry";
}

// ---- Determinism: byte-identical traces over a serving run -----------------

std::string traced_server_run(std::string* ascii_out) {
  core::AppConfig cfg;
  cfg.trace.mode = TraceMode::kFull;
  core::PartitionedApp app(apps::build_bank_app(), /*trusted_isolates=*/2,
                           cfg);
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, {});
  srv.start();
  sched.spawn("client", [&] {
    for (int i = 0; i < 3; ++i) {
      srv.submit_and_wait(0, {});
      srv.submit_and_wait(1, {});
    }
    srv.collect_tenant_async(0);
    srv.submit_and_wait(0, {});
  });
  sched.run();
  srv.stop();
  telemetry::Telemetry& tel = app.env().telemetry;
  if (ascii_out != nullptr) {
    // Render one request's causal tree, not the whole run (which would
    // truncate at max_lines before the serving phase even starts).
    const Tracer& tr = tel.tracer();
    std::uint64_t request_trace = 0;
    for (const auto& s : tr.spans()) {
      if (!s.open && tr.name(s.name) == "request") {
        request_trace = s.trace_id;
        break;
      }
    }
    *ascii_out =
        telemetry::ascii_trace(tr, app.env().clock.hz(), request_trace);
  }
  return telemetry::chrome_trace_json(tel.tracer(), app.env().clock.hz());
}

TEST(TelemetryDeterminism, TwoSeededRunsEmitByteIdenticalTraceJson) {
  std::string ascii_a;
  const std::string a = traced_server_run(&ascii_a);
  const std::string b = traced_server_run(nullptr);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "simulated-clock traces must be byte-identical";

  // The acceptance categories all appear, linked by trace context.
  for (const char* needle :
       {"\"cat\":\"server\"", "\"cat\":\"rmi\"", "\"cat\":\"gc\"",
        "\"cat\":\"epc\"", "\"cat\":\"sched\"", "\"name\":\"request\"",
        "\"name\":\"server.handle\"", "\"name\":\"rmi.dispatch\"",
        "\"name\":\"gc.collect\"", "ecall_relay_Account_"}) {
    EXPECT_NE(a.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(ascii_a.find("request"), std::string::npos);
  EXPECT_NE(ascii_a.find("tenant"), std::string::npos);
}

TEST(TelemetryDeterminism, TelemetryOffRecordsNothing) {
  core::PartitionedApp app(apps::build_bank_app(), 1);
  sched::Scheduler sched(app.env());
  server::RequestServer srv(sched, app, {});
  srv.start();
  sched.spawn("client", [&] { srv.submit_and_wait(0, {}); });
  sched.run();
  srv.stop();
  EXPECT_EQ(app.env().telemetry.tracer().started(), 0u);
  EXPECT_EQ(app.env().telemetry.metrics().size(), 0u);
}

// ---- Prometheus exposition conformance (DESIGN.md §16) ---------------------

TEST(TelemetryExposition, EscapesLabelValuesAndEmitsHelpTypeLines) {
  MetricsRegistry m;
  // Label values exercising all three escapes the exposition format
  // defines: backslash, double quote, newline.
  m.counter("msv_test_total", {{"path", "a\\b"},
                               {"quote", "\"q\""},
                               {"nl", "x\ny"}})
      .add(3);
  const std::string text = telemetry::prometheus_text(m);
  // Golden line: labels sorted by key, values escaped, raw newline gone.
  EXPECT_NE(
      text.find(
          "msv_test_total{nl=\"x\\ny\",path=\"a\\\\b\",quote=\"\\\"q\\\"\"} 3\n"),
      std::string::npos)
      << text;
  // Every family carries # HELP then # TYPE, in that order, before its
  // first sample.
  const std::size_t help = text.find("# HELP msv_test_total ");
  const std::size_t type = text.find("# TYPE msv_test_total counter\n");
  const std::size_t sample = text.find("msv_test_total{");
  ASSERT_NE(help, std::string::npos);
  ASSERT_NE(type, std::string::npos);
  ASSERT_NE(sample, std::string::npos);
  EXPECT_LT(help, type);
  EXPECT_LT(type, sample);
}

TEST(TelemetryExposition, HistogramsRenderSummaryWithSumAndCount) {
  MetricsRegistry m;
  Histogram& h = m.histogram("msv_test_latency");
  for (const std::uint64_t v : {1, 2, 3, 100}) h.record(v);
  const std::string text = telemetry::prometheus_text(m);
  EXPECT_NE(text.find("# TYPE msv_test_latency summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("msv_test_latency{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("msv_test_latency{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("msv_test_latency_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("msv_test_latency_sum 106\n"), std::string::npos);
}

TEST(TelemetryExposition, TraceDropsAreExportedPerCategory) {
  Env env;
  TraceConfig tc;
  tc.mode = TraceMode::kFull;
  tc.max_spans = 2;
  env.telemetry.configure(tc);
  Tracer& tracer = env.telemetry.tracer();
  const std::uint32_t name = tracer.intern("s");
  for (int i = 0; i < 5; ++i) {
    tracer.begin_span(Category::kServer, name);
    tracer.end_span();
  }
  ASSERT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(tracer.dropped_in(Category::kServer), 3u);

  MetricsRegistry m;
  telemetry::publish_tracer_self(m, tracer);
  // Every category is present — zeros included, so "nothing dropped" is
  // distinguishable from "counter missing" — and the breakdown sums to
  // the total (tools/check_trace.py asserts the same on the trace side).
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < telemetry::kCategoryCount; ++c) {
    const char* cat =
        telemetry::category_name(static_cast<Category>(c));
    const auto* e = m.find("msv_trace_dropped", {{"category", cat}});
    ASSERT_NE(e, nullptr) << "missing category " << cat;
    sum += e->counter.value;
  }
  EXPECT_EQ(sum, tracer.dropped());
  const auto* server = m.find("msv_trace_dropped", {{"category", "server"}});
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->counter.value, 3u);
  const std::string text = telemetry::prometheus_text(m);
  EXPECT_NE(
      text.find("# HELP msv_trace_dropped Spans dropped by trace-ring "
                "wrap, by span category\n"),
      std::string::npos);
  EXPECT_NE(text.find("msv_trace_dropped{category=\"server\"} 3\n"),
            std::string::npos);
}

}  // namespace
}  // namespace msv
