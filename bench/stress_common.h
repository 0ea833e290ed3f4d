// Shared pieces of the stress_* benchmark family (DESIGN.md §17).
//
// The stress binaries are adversarial workload generators: each one drives
// a subsystem past the regime the fig_*/abl_* benches measure — working
// sets past the EPC, allocation storms, pathological object graphs, TCS
// pool exhaustion, fault storms under overload — and gates the behavior at
// the cliff. Every scenario runs a *disarmed* baseline (the same harness
// with the adversarial knob off) next to the *armed* run, so the emitted
// metrics always carry their own reference point and tools/bench_diff.py
// gates both sides.
//
// Everything here is deterministic: fixed-seed xorshift, precomputed
// Zipf CDFs, no host time, no host randomness. Two runs of any stress
// binary must emit byte-identical JSON (stress_storm asserts this for the
// full fleet stack; the others inherit it from the virtual clock).
#pragma once

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "support/error.h"

namespace msv::bench::stress {

// Deterministic xorshift64*; good enough spread for workload shaping and
// replayable from the seed alone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dull;
  }

  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }

  // Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  std::uint64_t s_;
};

// Zipf(s) over {0..n-1} via a precomputed CDF and binary search. Rank 0 is
// the hottest item — the head that keeps a hot subset resident while the
// tail sweeps the rest of the range past it.
class Zipf {
 public:
  Zipf(std::uint64_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / pow_s(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint64_t sample(Rng& rng) const {
    const double u = rng.uniform();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  // std::pow is not guaranteed bit-identical across libms; an explicit
  // exp/log via repeated squaring would be overkill when s is small and
  // fixed, so approximate x^-s as exp2(-s*log2(x)) built from integer
  // halvings — deterministic on every IEEE host.
  static double pow_s(double x, double s) {
    // log2(x) by normalization + a short polynomial on [1,2).
    int e = 0;
    while (x >= 2.0) {
      x *= 0.5;
      ++e;
    }
    const double m = x - 1.0;  // [0,1)
    const double log2x =
        e + m * (1.4426950408889634 +
                 m * (-0.7213475204444817 + m * 0.4808983469629878));
    double y = -s * log2x;
    // exp2(y) = 2^int * 2^frac, frac in [0,1), cubic fit.
    int yi = static_cast<int>(y);
    if (y < yi) --yi;
    const double f = y - yi;
    double p = 1.0 + f * (0.6931471805599453 +
                          f * (0.2401596780981364 + f * 0.0558016241619485));
    while (yi > 0) {
      p *= 2.0;
      --yi;
    }
    while (yi < 0) {
      p *= 0.5;
      ++yi;
    }
    return 1.0 / p;
  }

  std::vector<double> cdf_;
};

// A hard stress gate: the stress binaries are also acceptance tests, so a
// violated expectation aborts the bench (tier1 treats a non-zero exit as
// a failure) instead of printing a row that nobody reads.
inline void gate(bool ok, const std::string& what) {
  MSV_CHECK_MSG(ok, "stress gate failed: " + what);
}

}  // namespace msv::bench::stress
