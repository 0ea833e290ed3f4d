// The simulated SGX enclave.
//
// An Enclave is created from a measured blob (the linked trusted image plus
// shim, see sgx/sgx_module.h), owns the EPC model for its protected memory,
// and exposes an EnclaveDomain that the trusted isolate's heap uses for
// memory-cost accounting (MEE traffic factor + EPC paging).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sgx/epc.h"
#include "sgx/tcs.h"
#include "sim/domain.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/sha256.h"

namespace msv::sgx {

// The SGX_ERROR_ENCLAVE_LOST analog: the enclave was destroyed out from
// under a caller (power transition, AEX the runtime could not resume). The
// CPU-held state is gone; the host must rebuild the enclave and restore
// state from sealed storage. Transient — the call can be retried once the
// enclave has been restarted.
class EnclaveLostError : public RuntimeFault {
 public:
  explicit EnclaveLostError(const std::string& what) : RuntimeFault(what) {}
};

// A transiently failed transition (EENTER/EEXIT interrupted before the
// handler ran): no enclave state was touched, retrying is always safe.
class TransitionError : public RuntimeFault {
 public:
  explicit TransitionError(const std::string& what) : RuntimeFault(what) {}
};

// kLost: the hardware dropped the enclave (SGX_ERROR_ENCLAVE_LOST). All
// in-enclave state is gone; only restart() leads back to kInitialized.
enum class EnclaveState { kCreated, kInitialized, kLost, kDestroyed };

class Enclave {
 public:
  // `measurement` is MRENCLAVE: the SHA-256 accumulated over the pages
  // EADDed by the loader. `heap_max_bytes`/`stack_bytes`/`tcs` mirror the
  // enclave configuration XML of the SDK (the paper uses 4 GB / 8 MB).
  Enclave(Env& env, std::string name, Sha256::Digest measurement,
          std::uint64_t image_bytes,
          std::uint64_t heap_max_bytes = 4ull << 30,
          std::uint64_t stack_bytes = 8ull << 20, TcsConfig tcs = {});

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  // EINIT: verifies the launch measurement and makes the enclave callable.
  // Throws SecurityFault when `expected` does not match MRENCLAVE —
  // modelling the load-time verification of the signed enclave (§2.1).
  void init(const Sha256::Digest& expected);

  void destroy();

  // Models the platform dropping the enclave (power event / unrecoverable
  // AEX): every page of enclave memory and every TCS binding is void. The
  // next ecall observes EnclaveLostError until restart() completes.
  void mark_lost();

  // Rebuilds a lost enclave: ECREATE + EADD/EEXTEND over the same image
  // (the full measurement cost is paid again) and EINIT against
  // `expected`. EPC residency is cleared — the old frames died with the
  // enclave — and the epoch advances, invalidating references minted
  // against the previous incarnation.
  void restart(const Sha256::Digest& expected);

  // Incarnation counter: 1 for the initial build, +1 per restart().
  // Cross-isolate proxies record the epoch they were minted under so a
  // stale reference faults cleanly instead of dispatching into state that
  // no longer exists.
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t lost_count() const { return lost_count_; }

  const std::string& name() const { return name_; }
  const Sha256::Digest& measurement() const { return measurement_; }
  EnclaveState state() const { return state_; }
  std::uint64_t heap_max_bytes() const { return heap_max_bytes_; }
  std::uint64_t stack_bytes() const { return stack_bytes_; }
  std::uint64_t image_bytes() const { return image_bytes_; }

  EpcModel& epc() { return epc_; }
  const EpcModel& epc() const { return epc_; }
  TcsPool& tcs() { return tcs_; }
  const TcsPool& tcs() const { return tcs_; }
  Env& env() { return env_; }

 private:
  Env& env_;
  std::string name_;
  Sha256::Digest measurement_;
  std::uint64_t image_bytes_;
  std::uint64_t heap_max_bytes_;
  std::uint64_t stack_bytes_;
  EpcModel epc_;
  TcsPool tcs_;
  EnclaveState state_ = EnclaveState::kCreated;
  std::uint64_t epoch_ = 1;
  std::uint64_t lost_count_ = 0;
};

// MemoryDomain implementation backed by an enclave: memory traffic pays the
// MEE factor and page touches go through the EPC model.
class EnclaveDomain final : public MemoryDomain {
 public:
  EnclaveDomain(Env& env, Enclave& enclave)
      : MemoryDomain(env), enclave_(enclave) {}

  bool trusted() const override { return true; }

  std::uint64_t register_region() override { return next_region_++; }

  void charge_traffic(std::uint64_t bytes) override;

  void touch_pages(std::uint64_t region, std::uint64_t first_page,
                   std::uint64_t n_pages) override;

  Enclave& enclave() { return enclave_; }

 private:
  Enclave& enclave_;
  std::uint64_t next_region_ = 1;
};

}  // namespace msv::sgx
