// Wall-clock stopwatch used by the experiment harness and benches.

#ifndef NEUTRAJ_COMMON_STOPWATCH_H_
#define NEUTRAJ_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace neutraj {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const;

  /// Milliseconds elapsed since construction or the last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Microseconds elapsed since construction or the last Restart().
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Blocking sleep for backoff loops (e.g. the client's connect retries) —
/// the sanctioned wrapper that keeps raw std::chrono durations out of the
/// serving layer (tools/lint.sh rule 5).
inline void SleepForMillis(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace neutraj

#endif  // NEUTRAJ_COMMON_STOPWATCH_H_
