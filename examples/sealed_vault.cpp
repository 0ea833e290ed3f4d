// Sealed storage + attestation: persisting enclave state across restarts.
//
// The §6.7 secure key-value store only matters if the vault's contents
// survive the process. This example runs the lifecycle:
//
//   1. first "boot": a remote party attests the enclave, provisions a
//      secret, and the enclave seals its state to untrusted disk;
//   2. restart: the *same* enclave (same measurement) unseals the state;
//   3. attack: a tampered image gets a different MRENCLAVE — EINIT-time
//      verification fails, and even a correctly-initialized different
//      enclave cannot unseal the blob.
//
//   ./examples/example_sealed_vault
#include <cstdio>

#include "core/montsalvat.h"
#include "sgx/sealing.h"
#include "support/stats.h"

namespace {

using namespace msv;

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

}  // namespace

int main() {
  std::puts("== Sealed vault lifecycle ==\n");

  Env env;
  const sgx::SealingPlatform platform("cpu-fuse-key");
  const sgx::QuotingEnclave qe("attestation-key");
  const Sha256::Digest good_image = Sha256::hash("vault-enclave-v1");

  // --- Boot 1: attest, provision, seal -----------------------------------
  std::vector<std::uint8_t> sealed_state;
  {
    sgx::Enclave vault(env, "vault", good_image, 1 << 20);
    vault.init(good_image);

    const auto quote =
        qe.quote(sgx::QuotingEnclave::create_report(vault, "session-pk"));
    const bool attested =
        sgx::QuotingEnclave::verify(quote, "attestation-key", good_image);
    std::printf("boot 1: attestation %s — provisioning the master key\n",
                attested ? "OK" : "FAILED");

    const auto blob =
        platform.seal(vault, bytes("master-key=0xdeadbeef; entries=42"), 7);
    sealed_state = blob.serialize();
    std::printf("boot 1: state sealed to untrusted disk (%s, MRENCLAVE %.*s…)\n",
                format_bytes(static_cast<double>(sealed_state.size())).c_str(),
                12, Sha256::hex(blob.mr_enclave).c_str());
  }

  // --- Boot 2: same enclave unseals ---------------------------------------
  {
    sgx::Enclave vault(env, "vault", good_image, 1 << 20);
    vault.init(good_image);
    const auto blob = sgx::SealedBlob::deserialize(sealed_state);
    const auto state = platform.unseal(vault, blob);
    std::printf("boot 2: unsealed %zu bytes: \"%s\"\n", state.size(),
                std::string(state.begin(), state.end()).c_str());
  }

  // --- Attacks -------------------------------------------------------------
  {
    // A tampered image never comes up: EINIT verifies the measurement.
    const Sha256::Digest evil_image = Sha256::hash("vault-enclave-v1+backdoor");
    sgx::Enclave tampered(env, "vault", evil_image, 1 << 20);
    try {
      tampered.init(good_image);
      std::puts("attack 1: tampered enclave initialized — BUG");
      return 1;
    } catch (const SecurityFault&) {
      std::puts("attack 1: tampered image rejected at EINIT (measurement "
                "mismatch)");
    }

    // A different (correctly built) enclave cannot unseal either.
    sgx::Enclave other(env, "other", evil_image, 1 << 20);
    other.init(evil_image);
    try {
      platform.unseal(other, sgx::SealedBlob::deserialize(sealed_state));
      std::puts("attack 2: foreign enclave unsealed the vault — BUG");
      return 1;
    } catch (const SecurityFault&) {
      std::puts("attack 2: foreign enclave cannot unseal (sealing policy "
                "binds to MRENCLAVE)");
    }

    // Bit-flipping the blob on untrusted disk is detected.
    auto corrupted = sealed_state;
    corrupted[corrupted.size() / 2] ^= 0x40;
    sgx::Enclave vault(env, "vault", good_image, 1 << 20);
    vault.init(good_image);
    try {
      platform.unseal(vault, sgx::SealedBlob::deserialize(corrupted));
      std::puts("attack 3: corrupted blob accepted — BUG");
      return 1;
    } catch (const SecurityFault&) {
      std::puts("attack 3: corrupted blob fails authentication");
    }
  }

  std::printf("\nSimulated time: %s\n", format_seconds(env.clock.seconds()).c_str());
  return 0;
}
