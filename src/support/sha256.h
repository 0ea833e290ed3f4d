// SHA-256 (FIPS 180-4). Used by the SGX substrate for enclave measurement:
// the image builder EADD/EEXTENDs every page of the trusted image into a
// measurement that load-time verification checks (§2.1: "cryptographically
// hashed for verification at runtime").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace msv {

class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;
  using State = std::array<std::uint32_t, 8>;
  // A block compression: folds `blocks` consecutive 64-byte blocks of
  // `data` into `state`.
  using Compress = void (*)(State& state, const std::uint8_t* data,
                            std::size_t blocks);

  // The portable compression runs on every CPU and is the reference the
  // tests hold the hardware one to. hardware() is the x86 SHA-extensions
  // (SHA-NI) compression, or nullptr when this CPU lacks them.
  static Compress portable();
  static Compress hardware();

  // Hashes with the hardware compression when the CPU has it, else with
  // the portable one; both give the same digest.
  Sha256();
  explicit Sha256(Compress compress);

  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }
  Digest finish();

  static Digest hash(std::string_view s);
  static std::string hex(const Digest& d);

 private:
  Compress compress_;
  State state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  bool finished_ = false;
};

}  // namespace msv
