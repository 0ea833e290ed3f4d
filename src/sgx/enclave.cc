#include "sgx/enclave.h"

#include "support/error.h"
#include "telemetry/flight.h"

namespace msv::sgx {

Enclave::Enclave(Env& env, std::string name, Sha256::Digest measurement,
                 std::uint64_t image_bytes, std::uint64_t heap_max_bytes,
                 std::uint64_t stack_bytes, TcsConfig tcs)
    : env_(env),
      name_(std::move(name)),
      measurement_(measurement),
      image_bytes_(image_bytes),
      heap_max_bytes_(heap_max_bytes),
      stack_bytes_(stack_bytes),
      epc_(env),
      tcs_(env, tcs) {
  // ECREATE + EADD/EEXTEND of every image page: the loader hashes the whole
  // blob into MRENCLAVE before EINIT.
  env_.clock.advance(env_.cost.enclave_create_base_cycles);
  env_.clock.advance(static_cast<Cycles>(
      static_cast<double>(image_bytes) *
      env_.cost.enclave_measure_cycles_per_byte));
}

void Enclave::init(const Sha256::Digest& expected) {
  MSV_CHECK_MSG(state_ == EnclaveState::kCreated,
                "enclave already initialized or destroyed");
  if (expected != measurement_) {
    throw SecurityFault("EINIT: measurement mismatch for enclave " + name_);
  }
  state_ = EnclaveState::kInitialized;
}

void Enclave::destroy() {
  MSV_CHECK_MSG(state_ != EnclaveState::kDestroyed, "enclave destroyed twice");
  state_ = EnclaveState::kDestroyed;
}

void Enclave::mark_lost() {
  MSV_CHECK_MSG(state_ == EnclaveState::kInitialized ||
                    state_ == EnclaveState::kLost,
                "only a running enclave can be lost");
  const bool first = state_ != EnclaveState::kLost;
  if (first) ++lost_count_;
  state_ = EnclaveState::kLost;
  // Freeze the flight ring the instant the enclave dies — by the time the
  // recovery ladder runs, the ring would already be full of recovery
  // traffic. One pointer test when no bus is armed.
  if (telemetry::FlightBus* bus = env_.telemetry.flight();
      bus != nullptr && first) {
    bus->recorder(name_).record(telemetry::FlightEventKind::kLifecycle,
                                "enclave.lost",
                                static_cast<std::int64_t>(epoch_),
                                static_cast<std::int64_t>(lost_count_));
    bus->snapshot(name_, "enclave_lost",
                  {{"epoch", std::to_string(epoch_)},
                   {"lost_count", std::to_string(lost_count_)}});
  }
}

void Enclave::restart(const Sha256::Digest& expected) {
  MSV_CHECK_MSG(state_ == EnclaveState::kLost,
                "restart is only legal on a lost enclave");
  // The old incarnation's EPC frames are gone with the enclave.
  epc_.invalidate_all();
  // The loader rebuilds from scratch: ECREATE, then EADD/EEXTEND of every
  // image page — the same measurement cost the constructor charged.
  env_.clock.advance(env_.cost.enclave_create_base_cycles);
  env_.clock.advance(static_cast<Cycles>(
      static_cast<double>(image_bytes_) *
      env_.cost.enclave_measure_cycles_per_byte));
  if (expected != measurement_) {
    throw SecurityFault("EINIT: measurement mismatch for enclave " + name_);
  }
  state_ = EnclaveState::kInitialized;
  ++epoch_;
  if (telemetry::FlightBus* bus = env_.telemetry.flight()) {
    bus->recorder(name_).record(telemetry::FlightEventKind::kLifecycle,
                                "enclave.restart",
                                static_cast<std::int64_t>(epoch_),
                                static_cast<std::int64_t>(lost_count_));
    bus->snapshot(name_, "restart",
                  {{"epoch", std::to_string(epoch_)},
                   {"lost_count", std::to_string(lost_count_)}});
  }
}

void EnclaveDomain::charge_traffic(std::uint64_t bytes) {
  // Same DRAM-level cost as outside, multiplied by the MEE factor: every
  // cache line crossing the CPU boundary is encrypted/decrypted.
  env_.clock.advance(static_cast<Cycles>(static_cast<double>(bytes) *
                                         env_.cost.dram_cycles_per_byte *
                                         env_.cost.mee_traffic_factor));
}

void EnclaveDomain::touch_pages(std::uint64_t region, std::uint64_t first_page,
                                std::uint64_t n_pages) {
  enclave_.epc().access(region, first_page, n_pages);
}

}  // namespace msv::sgx
