// Wall-clock timing and cooperative deadlines.
//
// The paper reports total CPU time per (benchmark, encoding, symmetry) cell;
// our benches report wall-clock via Stopwatch. Deadline is the cooperative
// timeout handed to the SAT solver so unroutable instances under a bad
// encoding terminate in bounded time (the paper let them run for up to 10^6
// seconds; we cap and report ">= limit").
#pragma once

#include <chrono>
#include <cstdint>

namespace satfr {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A point in time after which cooperative loops should give up.
/// A default-constructed Deadline never expires.
class Deadline {
 public:
  Deadline() = default;

  /// Deadline `seconds` from now; non-positive values expire immediately.
  static Deadline After(double seconds) {
    Deadline d;
    d.has_deadline_ = true;
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    return d;
  }

  /// Never-expiring deadline (same as default construction).
  static Deadline Infinite() { return Deadline(); }

  /// The options' timeout convention: `seconds` from now, or never when
  /// `seconds` <= 0.
  static Deadline FromTimeout(double seconds) {
    return seconds > 0.0 ? After(seconds) : Infinite();
  }

  bool Expired() const {
    return has_deadline_ && Clock::now() >= when_;
  }

  /// Seconds remaining; +inf when infinite, 0 when already expired.
  double RemainingSeconds() const;

  bool IsInfinite() const { return !has_deadline_; }

 private:
  using Clock = std::chrono::steady_clock;
  bool has_deadline_ = false;
  Clock::time_point when_{};
};

}  // namespace satfr
