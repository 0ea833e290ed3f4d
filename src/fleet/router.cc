#include "fleet/router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "support/error.h"
#include "telemetry/adapters.h"

namespace msv::fleet {

namespace {

// Isolate slots per shard enclave, at least.
constexpr std::uint32_t kMinSlots = 8;

}  // namespace

FleetRouter::FleetRouter(Env& env, sched::Scheduler& sched,
                         const model::AppModel& app_model, FleetConfig config)
    : env_(env),
      sched_(sched),
      app_model_(app_model),
      config_(config),
      ring_(config.ring_seed, config.vnodes) {
  MSV_CHECK_MSG(config_.shards > 0, "fleet needs at least one shard");
  MSV_CHECK_MSG(config_.tenants > 0, "fleet needs at least one tenant");
  for (std::uint32_t k = 0; k < config_.shards; ++k) ring_.add_node(k);
  // Seed the route table from the ring before sizing shards: each shard
  // needs one isolate slot per resident, and the ring's spread decides
  // residency. kMinSlots is a floor; a shard that the ring loads heavier
  // gets exactly what it needs.
  std::vector<std::uint32_t> residents(config_.shards, 0);
  for (std::uint32_t t = 0; t < config_.tenants; ++t) {
    const std::uint32_t owner = ring_.owner_of(t);
    route_[t] = owner;
    ++residents[owner];
  }
  for (std::uint32_t k = 0; k < config_.shards; ++k) {
    // Headroom above the ring's current spread lets migrations land
    // without rebuilding the shard.
    const std::uint32_t slots = std::max(kMinSlots, residents[k] + 2);
    shards_.push_back(std::make_unique<server::RequestServer>(
        env_, sched_, app_model_, k, slots, config_.shard, config_.app));
  }
  injectors_.resize(config_.shards);
  accepted_by_tenant_.assign(config_.tenants, 0);
}

FleetRouter::~FleetRouter() {
  try {
    stop();
  } catch (...) {
    // Destructors stay noexcept; stop() failures surface on explicit calls.
  }
}

void FleetRouter::start() {
  if (started_) return;
  for (auto& shard : shards_) shard->start();
  for (const auto& [tenant, k] : route_) shards_[k]->bind_tenant(tenant);
  if (config_.slo_enabled) {
    slo_ = std::make_unique<telemetry::SloMonitor>(env_.clock, config_.slo,
                                                   "shard");
    for (auto& shard : shards_) shard->attach_slo(slo_.get());
  }
  if (env_.telemetry.metrics_enabled()) {
    for (std::uint32_t k = 0; k < shards_.size(); ++k) {
      shards_[k]->set_latency_histogram(&env_.telemetry.metrics().histogram(
          "msv_fleet_request_latency_cycles",
          {{"shard", std::to_string(k)}}));
    }
  }
  started_ = true;
}

void FleetRouter::stop() {
  if (!started_ || stopped_) return;
  for (auto& shard : shards_) shard->begin_stop();
  sched_.run();
  stopped_ = true;
}

std::uint32_t FleetRouter::shard_of(std::uint32_t tenant) const {
  const auto it = route_.find(tenant);
  MSV_CHECK_MSG(it != route_.end(),
                "tenant " + std::to_string(tenant) + " is not routed");
  return it->second;
}

std::uint32_t FleetRouter::tenants_off_ring() const {
  std::uint32_t n = 0;
  for (const auto& [tenant, k] : route_) {
    if (ring_.owner_of(tenant) != k) ++n;
  }
  return n;
}

bool FleetRouter::submit(std::uint32_t tenant, server::Request r) {
  const std::uint32_t k = shard_of(tenant);
  server::RequestServer& shard = *shards_[k];
  // SLO enforcement: a shard the monitor holds critical stops taking new
  // work at the router — the backlog it has is the backlog it drains.
  // Router-level sheds are *not* recorded back into the monitor (that
  // feedback loop would hold a critical shard critical forever on its own
  // rejections); the shard's organic sheds/errors alone drive recovery.
  if (config_.slo_enforce && slo_ != nullptr &&
      slo_->health(k) == telemetry::HealthState::kCritical) {
    ++shed_slo_;
    return false;
  }
  if (shard.pending() >= config_.max_shard_pending) {
    ++shed_admission_;
    return false;
  }
  const bool accepted = shard.submit(tenant, r);
  if (accepted) ++accepted_by_tenant_[tenant];
  return accepted;
}

std::int64_t FleetRouter::submit_and_wait(std::uint32_t tenant,
                                          server::Request r) {
  server::RequestServer& shard = *shards_[shard_of(tenant)];
  const std::int64_t result = shard.submit_and_wait(tenant, r);
  ++accepted_by_tenant_[tenant];
  return result;
}

std::size_t FleetRouter::pending() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->pending();
  return n;
}

void FleetRouter::migrate_tenant(std::uint32_t tenant,
                                 std::uint32_t to_shard) {
  MSV_CHECK_MSG(to_shard < shards_.size(), "migration target out of range");
  const std::uint32_t from_shard = shard_of(tenant);
  MSV_CHECK_MSG(from_shard != to_shard,
                "tenant already lives on the target shard");
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kFleet,
                            env_.telemetry.names().fleet_migrate,
                            static_cast<std::int32_t>(tenant));
  server::RequestServer& src = *shards_[from_shard];
  server::RequestServer& dst = *shards_[to_shard];
  // Drain behind the coalescing fence, then move the *sealed* state: the
  // blob is safe in untrusted hands, and the target enclave's identical
  // measurement derives the same unsealing key (§11).
  src.quiesce_tenant(tenant);
  std::vector<std::uint8_t> blob = src.seal_tenant(tenant);
  src.unbind_tenant(tenant);
  dst.adopt_checkpoint(tenant, std::move(blob));
  route_[tenant] = to_shard;
  ++migrations_;
}

std::uint64_t FleetRouter::tenant_accepted(std::uint32_t tenant) const {
  return accepted_by_tenant_[tenant];
}

std::uint32_t FleetRouter::hottest_tenant() const {
  std::uint32_t best = 0;
  for (std::uint32_t t = 1; t < accepted_by_tenant_.size(); ++t) {
    if (accepted_by_tenant_[t] > accepted_by_tenant_[best]) best = t;
  }
  return best;
}

void FleetRouter::attach_fault_plan(const faults::FaultPlan& plan) {
  for (std::uint32_t k = 0; k < shards_.size(); ++k) {
    faults::FaultPlan mine = plan.for_target(k);
    if (mine.empty()) continue;
    MSV_CHECK_MSG(injectors_[k] == nullptr,
                  "shard already has a fault plan attached");
    injectors_[k] =
        std::make_unique<faults::FaultInjector>(env_, std::move(mine));
    injectors_[k]->arm(shards_[k]->app().enclave());
    shards_[k]->app().bridge().attach_fault_injector(injectors_[k].get());
    shards_[k]->attach_fault_injector(*injectors_[k]);
  }
}

std::optional<FleetRouter::MigrationHint> FleetRouter::migration_hint() {
  if (slo_ == nullptr || shards_.size() < 2) return std::nullopt;
  // Sickest shard: worst health state, ties broken by deepest backlog.
  std::uint32_t worst = 0;
  auto worst_h = telemetry::HealthState::kHealthy;
  for (std::uint32_t k = 0; k < shards_.size(); ++k) {
    const auto h = slo_->health(k);
    if (k == 0 || h > worst_h ||
        (h == worst_h && shards_[k]->pending() > shards_[worst]->pending())) {
      worst = k;
      worst_h = h;
    }
  }
  if (worst_h == telemetry::HealthState::kHealthy) return std::nullopt;
  // Healthiest other shard, ties broken by shallowest backlog.
  std::uint32_t best = worst == 0 ? 1 : 0;
  auto best_h = slo_->health(best);
  for (std::uint32_t k = 0; k < shards_.size(); ++k) {
    if (k == worst || k == best) continue;
    const auto h = slo_->health(k);
    if (h < best_h ||
        (h == best_h && shards_[k]->pending() < shards_[best]->pending())) {
      best = k;
      best_h = h;
    }
  }
  if (best_h >= worst_h) return std::nullopt;
  // Hottest tenant resident on the sick shard (the route table is the
  // residency map).
  std::uint32_t tenant = 0;
  std::uint64_t hottest = 0;
  bool found = false;
  for (const auto& [t, k] : route_) {
    if (k != worst) continue;
    if (!found || accepted_by_tenant_[t] > hottest) {
      tenant = t;
      hottest = accepted_by_tenant_[t];
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return MigrationHint{tenant, worst, best};
}

FleetStats FleetRouter::stats() const {
  FleetStats out;
  out.shed_admission = shed_admission_;
  out.shed_slo = shed_slo_;
  out.shed = shed_admission_ + shed_slo_;
  out.migrations = migrations_;
  for (const auto& shard : shards_) {
    const server::TenantStats t = shard->totals();
    out.accepted += t.accepted;
    out.shed += t.shed;
    out.shed_recovery += t.shed_recovery;
    out.shed_migrating += t.shed_migrating;
    out.completed += t.completed;
    out.failed += t.failed;
    out.retries += t.retries;
    out.checkpoints += t.checkpoints;
    out.restored += t.restored;
    out.checkpoint_corrupt += t.checkpoint_corrupt;
    const server::RecoveryStats& s = shard->stats();
    out.replicated_blobs += s.replicated_blobs;
    out.replicated_bytes += s.replicated_bytes;
    out.promotions += s.promotions;
    out.restarts += s.restarts;
    out.standby_rebuilds += s.standby_rebuilds;
    out.recovery_cycles += s.recovery_cycles;
  }
  return out;
}

void FleetRouter::publish_metrics() {
  if (!env_.telemetry.metrics_enabled()) return;
  telemetry::MetricsRegistry& m = env_.telemetry.metrics();
  telemetry::publish_fleet(m, stats());
  m.gauge("msv_fleet_shards").set(static_cast<double>(shards_.size()));
  m.gauge("msv_fleet_tenants_off_ring")
      .set(static_cast<double>(tenants_off_ring()));
  for (std::uint32_t k = 0; k < shards_.size(); ++k) {
    telemetry::publish_fleet_shard(m, shards_[k]->totals(),
                                   shards_[k]->stats(), k);
  }
  if (slo_ != nullptr) slo_->publish(m);
}

}  // namespace msv::fleet
