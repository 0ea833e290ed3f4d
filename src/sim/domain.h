// Memory domains.
//
// An isolate's heap lives either in normal DRAM (untrusted) or in EPC
// memory (trusted). The domain abstraction lets the managed runtime charge
// memory costs without knowing about SGX: the enclave-backed implementation
// (sgx::EnclaveDomain) applies the MEE traffic factor and simulates EPC
// paging, while the plain implementation charges DRAM costs only.
#pragma once

#include <cstdint>

#include "sim/env.h"

namespace msv {

class MemoryDomain {
 public:
  explicit MemoryDomain(Env& env) : env_(env) {}
  virtual ~MemoryDomain() = default;

  MemoryDomain(const MemoryDomain&) = delete;
  MemoryDomain& operator=(const MemoryDomain&) = delete;

  virtual bool trusted() const = 0;

  // Registers a contiguous region (a heap semispace, a mapped file, ...).
  // Returns a region id used by touch_pages.
  virtual std::uint64_t register_region() = 0;

  // Charges DRAM-level memory traffic of `bytes` (reads+writes that miss
  // the cache). Trusted domains multiply by the MEE factor.
  virtual void charge_traffic(std::uint64_t bytes) = 0;

  // Notes that pages [first_page, first_page+n_pages) of `region` are being
  // accessed. Trusted domains may charge EPC page-in/out costs.
  virtual void touch_pages(std::uint64_t region, std::uint64_t first_page,
                           std::uint64_t n_pages) = 0;

  Env& env() { return env_; }
  const Env& env() const { return env_; }

 protected:
  Env& env_;
};

// Normal (untrusted) DRAM: traffic at face value, no paging beyond the
// host's page cache (charged by the shim, not here).
class UntrustedDomain final : public MemoryDomain {
 public:
  explicit UntrustedDomain(Env& env) : MemoryDomain(env) {}

  bool trusted() const override { return false; }

  std::uint64_t register_region() override { return next_region_++; }

  void charge_traffic(std::uint64_t bytes) override {
    env_.clock.advance(static_cast<Cycles>(static_cast<double>(bytes) *
                                           env_.cost.dram_cycles_per_byte));
  }

  void touch_pages(std::uint64_t, std::uint64_t, std::uint64_t) override {}

 private:
  std::uint64_t next_region_ = 1;
};

}  // namespace msv
