//===- support/Timer.h - Monotonic timing helpers ---------------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monotonic stopwatch used by the solver's resource budget, the
/// degradation-ladder attempt accounting, and the benchmark harnesses.
///
/// The clock is required to be std::chrono::steady_clock — never the wall
/// clock — so that elapsed readings cannot jump backwards (or forwards)
/// under NTP adjustment, manual clock changes, or DST.  TimeBudget
/// enforcement and rung timing depend on this: a wall-clock step while a
/// solve runs must not spuriously trip (or extend) MaxSeconds.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TIMER_H
#define SUPPORT_TIMER_H

#include <chrono>

namespace intro {

/// A stopwatch that starts on construction.
class Timer {
public:
  /// The time source.  Publicly named so tests can assert properties of
  /// the exact clock backing seconds()/millis().
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "Timer must be backed by a monotonic clock: budget "
                "enforcement breaks if elapsed time can go backwards");

  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// \returns elapsed seconds since construction or the last reset().
  /// Non-negative and non-decreasing across successive calls.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// \returns elapsed milliseconds since construction or the last reset().
  double millis() const { return seconds() * 1000.0; }

private:
  Clock::time_point Start;
};

} // namespace intro

#endif // SUPPORT_TIMER_H
