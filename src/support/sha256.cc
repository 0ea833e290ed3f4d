#include "support/sha256.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace msv {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, std::uint32_t n) {
  return (x >> n) | (x << (32 - n));
}

void process_block(Sha256::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void compress_portable(Sha256::State& state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i) process_block(state, data + 64 * i);
}

#if defined(__x86_64__)
#define MSV_SHA_NI __attribute__((target("sha,sse4.1")))

// SHA256RNDS2 runs two rounds on the state split as (A,B,E,F) and
// (C,D,G,H); four rounds take the message words W[4g..4g+3] plus K.
MSV_SHA_NI inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                               int g) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// The next four schedule words from the previous twelve: `w4` holds
// W[t-16..t-13] already passed through SHA256MSG1, `w8` W[t-8..t-5] and
// `w12` W[t-4..t-1].
MSV_SHA_NI inline __m128i schedule(__m128i w4, __m128i w8, __m128i w12) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(w4, _mm_alignr_epi8(w12, w8, 4)), w12);
}

// Four big-endian message words.
MSV_SHA_NI inline __m128i load_words(const std::uint8_t* p) {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll));
}

MSV_SHA_NI void compress_sha_ni(Sha256::State& state,
                                const std::uint8_t* data, std::size_t blocks) {
  // Lane names run from the high lane to the low one.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)),
      0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m0 = load_words(data);
    __m128i m1 = load_words(data + 16);
    __m128i m2 = load_words(data + 32);
    __m128i m3 = load_words(data + 48);
    rounds4(abef, cdgh, m0, 0);
    rounds4(abef, cdgh, m1, 1);
    m0 = _mm_sha256msg1_epu32(m0, m1);
    rounds4(abef, cdgh, m2, 2);
    m1 = _mm_sha256msg1_epu32(m1, m2);
    rounds4(abef, cdgh, m3, 3);
    m0 = schedule(m0, m2, m3);
    m2 = _mm_sha256msg1_epu32(m2, m3);
    // Rounds 16-63. The last group computes a few schedule words no round
    // reads; that is cheaper than a separate tail.
    for (int g = 4; g < 16; g += 4) {
      rounds4(abef, cdgh, m0, g);
      m1 = schedule(m1, m3, m0);
      m3 = _mm_sha256msg1_epu32(m3, m0);
      rounds4(abef, cdgh, m1, g + 1);
      m2 = schedule(m2, m0, m1);
      m0 = _mm_sha256msg1_epu32(m0, m1);
      rounds4(abef, cdgh, m2, g + 2);
      m3 = schedule(m3, m1, m2);
      m1 = _mm_sha256msg1_epu32(m1, m2);
      rounds4(abef, cdgh, m3, g + 3);
      m0 = schedule(m0, m2, m3);
      m2 = _mm_sha256msg1_epu32(m2, m3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  // CPUID leaf 1: ECX bit 9 is SSSE3 and bit 19 SSE4.1; leaf 7 (subleaf
  // 0): EBX bit 29 is the SHA extensions.
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool sse = (c & (1u << 9)) != 0 && (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return sse && (b & (1u << 29)) != 0;
}
#endif

}  // namespace

Sha256::Compress Sha256::portable() { return compress_portable; }

Sha256::Compress Sha256::hardware() {
#if defined(__x86_64__)
  static const bool available = cpu_has_sha_ni();
  return available ? compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

Sha256::Sha256()
    : Sha256(hardware() != nullptr ? hardware() : portable()) {}

Sha256::Sha256(Compress compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {
  MSV_CHECK_MSG(compress_ != nullptr, "Sha256 needs a compression");
}

void Sha256::update(const void* data, std::size_t len) {
  MSV_CHECK_MSG(!finished_, "Sha256::update after finish");
  if (len == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress_(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the input.
  const std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    compress_(state_, p, blocks);
    p += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Sha256::Digest Sha256::finish() {
  MSV_CHECK_MSG(!finished_, "Sha256::finish called twice");
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to 56 bytes mod 64, the 64-bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + buffer_len_, buffer_.end(), 0);
    compress_(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + buffer_len_, buffer_.begin() + 56, 0);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_, buffer_.data(), 1);
  finished_ = true;

  Digest d;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      d[i * 4 + j] = static_cast<std::uint8_t>(state_[i] >> (8 * (3 - j)));
  return d;
}

Sha256::Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

std::string Sha256::hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace msv
