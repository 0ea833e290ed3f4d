// Per-tenant session + sealed-checkpoint state (DESIGN.md §12/§14).
//
// One per RequestServer slot, so the single-enclave server, the fleet's
// shards and the replica streams between them speak exactly one
// checkpoint format. A fleet promotion unseals on a *different* enclave
// than the one that sealed (legal because both enclaves run the same
// measured image, so the sealing KDF derives the same key —
// sgx/sealing.h).
//
// Payload (plaintext inside the sealed blob), little-endian:
//   u32     tenant id   (splice detection: unseal checks it back)
//   varint  checkpoint sequence number (monotonic per tenant)
//   i32     account balance
// IV seed: (seq << 8) | tenant — unique per (tenant, seq) pair as long as
// a sequence number is never sealed twice.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "interp/exec_context.h"
#include "sgx/sealing.h"

namespace msv::server {

struct TenantState {
  // Untrusted-side proxy of the tenant's session object ("Account").
  rt::Value session;
  // Latest sealed checkpoint exactly as it sits in untrusted storage (and
  // so exactly what a corruption fault flips bits in). Empty = none.
  std::vector<std::uint8_t> checkpoint;
  std::uint64_t checkpoint_seq = 0;
  std::uint32_t since_checkpoint = 0;

  bool has_checkpoint() const { return !checkpoint.empty(); }

  // Seals `balance` as this tenant's next checkpoint against `enclave`'s
  // identity, stores the serialized blob and bumps checkpoint_seq. The
  // returned reference is the stored untrusted-storage bytes — what a
  // replication stream forwards verbatim. No-throw on the happy path;
  // nothing is mutated if sealing throws.
  const std::vector<std::uint8_t>& seal_checkpoint(
      const sgx::SealingPlatform& sealer, const sgx::Enclave& enclave,
      std::uint32_t tenant, std::int32_t balance);

  // Unseals the stored checkpoint against `enclave` and returns the
  // balance, updating checkpoint_seq. Empty optional when no checkpoint
  // is stored. Throws SecurityFault on a tampered or spliced blob — the
  // caller decides the fallback (count it, clear, fresh session).
  std::optional<std::int32_t> unseal_checkpoint(
      const sgx::SealingPlatform& sealer, const sgx::Enclave& enclave,
      std::uint32_t tenant);

  // The plaintext payload codec, exposed for byte-format regression tests.
  static std::vector<std::uint8_t> encode_payload(std::uint32_t tenant,
                                                  std::uint64_t seq,
                                                  std::int32_t balance);
  struct Payload {
    std::uint64_t seq = 0;
    std::int32_t balance = 0;
  };
  static Payload decode_payload(const std::vector<std::uint8_t>& plain,
                                std::uint32_t expect_tenant);
};

}  // namespace msv::server
