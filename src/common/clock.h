// The two clocks behind the schedulers: protocol code never reads wall time
// directly, only its scheduler's now(), so the same objects run under the
// virtual-time simulator and the real-time loop.
#pragma once

#include "common/types.h"

namespace raincore {

/// Wall clock backed by std::chrono::steady_clock (the real-time loop).
class RealClock {
 public:
  Time now() const;
};

/// Manually advanced clock (owned by the simulation event loop).
class ManualClock {
 public:
  Time now() const { return now_; }
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }
  void advance_by(Time d) { now_ += d; }

 private:
  Time now_ = 0;
};

}  // namespace raincore
