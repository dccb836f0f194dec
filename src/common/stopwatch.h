// Monotonic wall-clock stopwatch used to measure real CPU cost of message
// handlers (the SimTransport charges this cost to virtual node clocks) and
// to time benchmark harness phases.
#pragma once

#include <chrono>

namespace mendel {

// Seconds on the monotonic clock since its fixed, arbitrary origin: the
// wall time actors see outside the simulator.
inline double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  // Elapsed time since construction or the last restart(), in seconds.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mendel
