#include "support/clock.h"

namespace msv {

Cycles VirtualClock::measure_detached(const std::function<void()>& fn) {
  ++detached_depth_;
  const Cycles before = detached_total_;
  try {
    fn();
  } catch (...) {
    --detached_depth_;
    if (detached_depth_ == 0) detached_total_ = 0;
    throw;
  }
  --detached_depth_;
  const Cycles charged = detached_total_ - before;
  if (detached_depth_ == 0) detached_total_ = 0;
  return charged;
}

}  // namespace msv
