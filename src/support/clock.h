// Deterministic virtual time.
//
// All latencies reported by benchmarks in this repository are *simulated*:
// a VirtualClock counts CPU cycles charged by the cost model (see
// cost_model.h) and converts them to seconds at the frequency of the paper's
// evaluation machine (3.8 GHz Xeon E3-1270). Nothing runs on the clock's
// behalf: periodic activities (the GC helper scans of §5.5) are polled by
// their owners against now(), so advancing time is a plain add and every
// test and benchmark is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>

namespace msv {

using Cycles = std::uint64_t;

class VirtualClock {
 public:
  explicit VirtualClock(double hz = 3.8e9) : hz_(hz) {}

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  Cycles now() const { return now_; }
  double seconds() const { return static_cast<double>(now_) / hz_; }
  double hz() const { return hz_; }

  Cycles seconds_to_cycles(double s) const {
    return static_cast<Cycles>(s * hz_);
  }

  // Advances time by `c` cycles. Charges are additive: n advances of c
  // leave the clock where one advance of n * c does.
  void advance(Cycles c) {
    if (detached_depth_ > 0) {
      detached_total_ += c;
    } else {
      now_ += c;
    }
  }

  // Runs `fn` with the clock detached: every advance() it performs is
  // accumulated and returned instead of moving now(). This measures the
  // exact cycle cost of an activity that executes on a core of its own —
  // the GC helper threads of §5.5 — so the serving layer can realize the
  // cost as a sleep of the owning isolate rather than a stall of the
  // shared timeline. Nesting is allowed; the inner call returns only its
  // own charges.
  Cycles measure_detached(const std::function<void()>& fn);

 private:
  double hz_;
  Cycles now_ = 0;
  std::uint32_t detached_depth_ = 0;
  Cycles detached_total_ = 0;
};

}  // namespace msv
