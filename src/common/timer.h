#ifndef WQE_COMMON_TIMER_H_
#define WQE_COMMON_TIMER_H_

#include <chrono>
#include <cstddef>
#include <stdexcept>

namespace wqe {

/// Thrown from deadline-aware inner loops (star-table materialization,
/// candidate verification) when the armed wall-clock budget runs out
/// mid-pass. Solvers catch it, keep the best answer found so far, and report
/// TerminationReason::kDeadline — it never escapes Execute().
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("wall-clock deadline exceeded") {}
};

/// How many inner-loop work items (candidate verifications, star-table
/// center sweeps) may pass between deadline checks. Bounds the overshoot
/// past time_limit_seconds to a few dozen center sweeps / match checks
/// instead of a whole materialization or verification pass; small enough
/// that the steady_clock reads stay invisible next to the BFS work they gate.
inline constexpr size_t kDeadlineCheckStride = 32;

/// Monotonic stopwatch for measuring algorithm phases.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Wall-clock budget for anytime algorithms. A default-constructed Deadline
/// never expires.
class Deadline {
 public:
  Deadline() : has_limit_(false) {}

  static Deadline After(double seconds) {
    Deadline d;
    d.has_limit_ = true;
    d.expiry_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    return d;
  }

  /// Whether a limit was ever armed (a default-constructed Deadline is
  /// inert). The serving layer uses this to tell "no deadline requested"
  /// apart from "deadline armed but not yet expired".
  bool armed() const { return has_limit_; }

  bool Expired() const {
    return has_limit_ && std::chrono::steady_clock::now() >= expiry_;
  }

  /// Periodic in-loop check: throws DeadlineExceeded once the budget is
  /// spent. Call every kDeadlineCheckStride work items.
  void ThrowIfExpired() const {
    if (Expired()) throw DeadlineExceeded();
  }

 private:
  bool has_limit_;
  std::chrono::steady_clock::time_point expiry_;
};

/// Stateless strided check for index-based inner loops (including parallel
/// ones, where each ParallelFor lane sees its own disjoint index range):
/// consults the clock only when `index` lands on the stride, throwing
/// DeadlineExceeded past an armed deadline. A null deadline is a no-op.
inline void MaybeThrowIfExpired(const Deadline* deadline, size_t index) {
  if (deadline != nullptr && index % kDeadlineCheckStride == 0) {
    deadline->ThrowIfExpired();
  }
}

/// Stateful strided deadline poller for chase-loop heads (the one deadline
/// check the Q-Chase engine performs per iteration).
///
/// Guarantees:
///  - the clock is read on the FIRST call, so an already-expired deadline is
///    detected before any work is attempted;
///  - thereafter the clock is read once every `stride` calls, and the result
///    latches (a Deadline never un-expires).
///
/// Overshoot bound: at most `stride - 1` loop iterations run between polls.
/// Each iteration's expensive part — star-view materialization and match
/// verification — checks the *same* deadline every kDeadlineCheckStride work
/// items via MaybeThrowIfExpired, so the unchecked window is stride-1 cheap
/// bookkeeping steps plus one strided evaluation, never a whole pass.
/// Solvers whose evaluation path is not deadline-armed (e.g. the plain
/// Matcher used by the mining baseline) must pass stride = 1.
class DeadlineGovernor {
 public:
  explicit DeadlineGovernor(const Deadline& deadline,
                            size_t stride = kDeadlineCheckStride)
      : deadline_(deadline), stride_(stride == 0 ? 1 : stride) {}

  bool Expired() {
    if (!expired_ && calls_++ % stride_ == 0) expired_ = deadline_.Expired();
    return expired_;
  }

 private:
  const Deadline& deadline_;
  size_t stride_;
  size_t calls_ = 0;
  bool expired_ = false;
};

}  // namespace wqe

#endif  // WQE_COMMON_TIMER_H_
