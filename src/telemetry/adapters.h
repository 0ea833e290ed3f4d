// Adapters from the repo's per-subsystem *Stats structs into the
// telemetry metrics registry (DESIGN.md §10).
//
// The stats structs stay the steady-state collection mechanism — plain
// field increments on hot paths, exactly as the seed had them. These
// publishers absorb a snapshot into the shared registry at export time,
// so every subsystem lands in one tree (and one Prometheus dump) without
// adding a single instruction to the paths being measured.
//
// Metric names follow msv_<subsystem>_<what>[_cycles|_bytes]; labels
// carry the dimension ({call=...}, {tenant=...}, {heap=...}).
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/telemetry.h"

namespace msv::sgx {
struct BridgeStats;
struct EpcStats;
struct TcsStats;
}  // namespace msv::sgx
namespace msv::sched {
struct SchedulerStats;
}
namespace msv::rt {
struct HeapStats;
}
namespace msv::server {
struct RecoveryStats;
struct TenantStats;
}  // namespace msv::server
namespace msv::fleet {
struct FleetStats;
}  // namespace msv::fleet

namespace msv::telemetry {

// Bridge totals plus the per-call table: msv_bridge_call_count /
// _bytes_in / _bytes_out / _transition_cycles{call="..."} — the measured
// per-call series sgx/profiler builds its recommendations from.
void publish_bridge(MetricsRegistry& metrics, const sgx::BridgeStats& stats);

void publish_epc(MetricsRegistry& metrics, const sgx::EpcStats& stats);
void publish_tcs(MetricsRegistry& metrics, const sgx::TcsStats& stats);
void publish_scheduler(MetricsRegistry& metrics,
                       const sched::SchedulerStats& stats);
void publish_heap(MetricsRegistry& metrics, const rt::HeapStats& stats,
                  const std::string& heap_label);
// Server totals (msv_server_*): `totals` is RequestServer::totals().
void publish_server(MetricsRegistry& metrics,
                    const server::TenantStats& totals);
void publish_tenant(MetricsRegistry& metrics, const server::TenantStats& stats,
                    std::uint32_t tenant);

// Fleet aggregates (msv_fleet_*) and the per-shard table
// (msv_fleet_shard_*{shard="k"}): request counters, failover/promotion
// counts, the replication stream's byte totals, and recovery-stall
// cycles. The router pairs these with its own ring-rebalance gauge.
void publish_fleet(MetricsRegistry& metrics, const fleet::FleetStats& stats);
void publish_fleet_shard(MetricsRegistry& metrics,
                         const server::TenantStats& totals,
                         const server::RecoveryStats& stats,
                         std::uint32_t shard);

// The tracer's own accounting (spans recorded/started/dropped), so drop
// counters are visible in the same dump the drops would bias.
void publish_tracer_self(MetricsRegistry& metrics, const Tracer& tracer);

}  // namespace msv::telemetry
