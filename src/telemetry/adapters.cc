#include "telemetry/adapters.h"

#include "fleet/router.h"
#include "runtime/heap.h"
#include "sched/scheduler.h"
#include "server/server.h"
#include "sgx/bridge.h"
#include "sgx/epc.h"
#include "sgx/tcs.h"

namespace msv::telemetry {

namespace {

void set(MetricsRegistry& m, const std::string& name, std::uint64_t value,
         const LabelSet& labels = {}) {
  m.counter(name, labels).value = value;
}

}  // namespace

void publish_bridge(MetricsRegistry& m, const sgx::BridgeStats& s) {
  set(m, "msv_bridge_ecalls", s.ecalls);
  set(m, "msv_bridge_ocalls", s.ocalls);
  set(m, "msv_bridge_switchless_calls", s.switchless_calls);
  set(m, "msv_bridge_bytes_in", s.bytes_in);
  set(m, "msv_bridge_bytes_out", s.bytes_out);
  set(m, "msv_bridge_tcs_waits", s.tcs_waits);
  set(m, "msv_bridge_tcs_wait_cycles", s.tcs_wait_cycles);
  set(m, "msv_bridge_out_of_tcs_errors", s.out_of_tcs_errors);
  set(m, "msv_bridge_switchless_enqueued", s.switchless_enqueued);
  set(m, "msv_bridge_switchless_queue_wait_cycles",
      s.switchless_queue_wait_cycles);
  set(m, "msv_bridge_switchless_worker_wakeups", s.switchless_worker_wakeups);
  set(m, "msv_bridge_switchless_idle_spin_cycles",
      s.switchless_idle_spin_cycles);
  set(m, "msv_bridge_switchless_wake_charge_cycles",
      s.switchless_wake_charge_cycles);
  for (const auto& [name, call] : s.per_call) {
    const LabelSet labels = {{"call", name}};
    set(m, "msv_bridge_call_count", call.calls, labels);
    set(m, "msv_bridge_call_bytes_in", call.bytes_in, labels);
    set(m, "msv_bridge_call_bytes_out", call.bytes_out, labels);
    set(m, "msv_bridge_call_transition_cycles", call.transition_cycles,
        labels);
  }
}

void publish_epc(MetricsRegistry& m, const sgx::EpcStats& s) {
  set(m, "msv_epc_accesses", s.accesses);
  set(m, "msv_epc_faults", s.faults);
  set(m, "msv_epc_evictions", s.evictions);
}

void publish_tcs(MetricsRegistry& m, const sgx::TcsStats& s) {
  set(m, "msv_tcs_acquisitions", s.acquisitions);
  set(m, "msv_tcs_waits", s.waits);
  set(m, "msv_tcs_wait_cycles", s.wait_cycles);
  set(m, "msv_tcs_out_of_tcs_failures", s.out_of_tcs_failures);
  set(m, "msv_tcs_max_in_use", s.max_in_use);
  set(m, "msv_tcs_max_waiters", s.max_waiters);
}

void publish_scheduler(MetricsRegistry& m, const sched::SchedulerStats& s) {
  set(m, "msv_sched_spawned", s.spawned);
  set(m, "msv_sched_completed", s.completed);
  set(m, "msv_sched_context_switches", s.context_switches);
  set(m, "msv_sched_sleeps", s.sleeps);
  set(m, "msv_sched_wakes", s.wakes);
  set(m, "msv_sched_idle_advanced_cycles", s.idle_advanced_cycles);
}

void publish_heap(MetricsRegistry& m, const rt::HeapStats& s,
                  const std::string& heap_label) {
  const LabelSet labels = {{"heap", heap_label}};
  set(m, "msv_heap_allocations", s.allocations, labels);
  set(m, "msv_heap_allocated_bytes", s.allocated_bytes, labels);
  set(m, "msv_heap_gc_count", s.gc_count, labels);
  set(m, "msv_heap_copied_bytes_total", s.copied_bytes_total, labels);
  set(m, "msv_heap_gc_cycles_total", s.gc_cycles_total, labels);
  set(m, "msv_heap_last_live_bytes", s.last_live_bytes, labels);
}

void publish_server(MetricsRegistry& m, const server::TenantStats& s) {
  set(m, "msv_server_accepted", s.accepted);
  set(m, "msv_server_shed", s.shed);
  set(m, "msv_server_completed", s.completed);
}

void publish_tenant(MetricsRegistry& m, const server::TenantStats& s,
                    std::uint32_t tenant) {
  const LabelSet labels = {{"tenant", std::to_string(tenant)}};
  set(m, "msv_server_tenant_accepted", s.accepted, labels);
  set(m, "msv_server_tenant_shed", s.shed, labels);
  set(m, "msv_server_tenant_completed", s.completed, labels);
  set(m, "msv_server_tenant_gc_runs", s.gc_runs, labels);
  set(m, "msv_server_tenant_gc_pause_cycles", s.gc_pause_cycles, labels);
  set(m, "msv_server_tenant_gc_gate_wait_cycles", s.gc_gate_wait_cycles,
      labels);
  set(m, "msv_server_tenant_max_queue_depth", s.max_queue_depth, labels);
}

void publish_fleet(MetricsRegistry& m, const fleet::FleetStats& s) {
  set(m, "msv_fleet_accepted", s.accepted);
  set(m, "msv_fleet_shed", s.shed);
  set(m, "msv_fleet_shed_admission", s.shed_admission);
  set(m, "msv_fleet_shed_slo", s.shed_slo);
  set(m, "msv_fleet_shed_recovery", s.shed_recovery);
  set(m, "msv_fleet_shed_migrating", s.shed_migrating);
  set(m, "msv_fleet_completed", s.completed);
  set(m, "msv_fleet_failed", s.failed);
  set(m, "msv_fleet_retries", s.retries);
  set(m, "msv_fleet_checkpoints", s.checkpoints);
  set(m, "msv_fleet_replicated_blobs", s.replicated_blobs);
  set(m, "msv_fleet_replicated_bytes", s.replicated_bytes);
  set(m, "msv_fleet_restored", s.restored);
  set(m, "msv_fleet_promotions", s.promotions);
  set(m, "msv_fleet_restarts", s.restarts);
  set(m, "msv_fleet_standby_rebuilds", s.standby_rebuilds);
  set(m, "msv_fleet_migrations", s.migrations);
  set(m, "msv_fleet_recovery_cycles", s.recovery_cycles);
}

void publish_fleet_shard(MetricsRegistry& m, const server::TenantStats& t,
                         const server::RecoveryStats& s, std::uint32_t shard) {
  const LabelSet labels = {{"shard", std::to_string(shard)}};
  set(m, "msv_fleet_shard_accepted", t.accepted, labels);
  set(m, "msv_fleet_shard_shed", t.shed, labels);
  set(m, "msv_fleet_shard_completed", t.completed, labels);
  set(m, "msv_fleet_shard_failed", t.failed, labels);
  set(m, "msv_fleet_shard_retries", t.retries, labels);
  set(m, "msv_fleet_shard_checkpoints", t.checkpoints, labels);
  set(m, "msv_fleet_shard_replicated_bytes", s.replicated_bytes, labels);
  set(m, "msv_fleet_shard_restored", t.restored, labels);
  set(m, "msv_fleet_shard_promotions", s.promotions, labels);
  set(m, "msv_fleet_shard_restarts", s.restarts, labels);
  set(m, "msv_fleet_shard_recovery_cycles", s.recovery_cycles, labels);
  set(m, "msv_fleet_shard_max_queue_depth", t.max_queue_depth, labels);
}

void publish_tracer_self(MetricsRegistry& m, const Tracer& tracer) {
  set(m, "msv_telemetry_spans_recorded", tracer.spans().size());
  set(m, "msv_telemetry_spans_started", tracer.started());
  set(m, "msv_telemetry_spans_dropped", tracer.dropped());
  // Ring-wrap accounting per subsystem: every category is exported (zeros
  // included) so a scrape can always tell "nothing dropped" from "metric
  // missing", and check_trace.py can assert the sum matches.
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    const auto cat = static_cast<Category>(c);
    set(m, "msv_trace_dropped", tracer.dropped_in(cat),
        {{"category", category_name(cat)}});
  }
}

}  // namespace msv::telemetry
