#ifndef WQE_COMMON_THREAD_POOL_H_
#define WQE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wqe {

/// Upper bound on an explicit thread request. Far above any real machine;
/// exists so a typo ("--threads=1000000") is rejected instead of spawning
/// until the OS falls over.
inline constexpr size_t kMaxThreads = 512;

/// Parses a user-supplied thread count ("--threads" / WQE_THREADS). Accepts
/// "auto" (or "hw") for "use the hardware concurrency" and integers in
/// [1, kMaxThreads]. Zero, negative, non-numeric, and absurd values are
/// rejected with a descriptive Status — the string "0" is NOT the public
/// spelling of auto-detection (that convention is internal to ResolveThreads,
/// and accepting it here would make typos like "-j 0" silently change
/// meaning). Returns 0 for "auto" so the result feeds ResolveThreads /
/// ChaseOptions::num_threads directly.
Result<size_t> ParseThreadCount(std::string_view text);

/// Fixed-size worker pool behind ParallelFor. One process-wide instance is
/// shared by every parallel call site (ThreadPool::Shared()); callers bound
/// their own parallelism per call, so a single pool never oversubscribes the
/// machine no matter how many contexts are alive.
///
/// The pool itself is deliberately dumb: workers pull opaque closures from
/// one mutex-guarded queue. All determinism guarantees live in ParallelFor's
/// contract (index-addressed outputs + ordered reductions in the callers),
/// never in scheduling order.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is allowed: Submit then runs inline).
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t workers() const;

  /// Tasks enqueued but not yet claimed by a worker. A sampling-rate
  /// telemetry read (one mutex acquisition), not a synchronization
  /// primitive — the value is stale the instant it returns.
  size_t QueueDepth() const;

  /// Enqueues `task` for execution on some worker. Tasks must not throw —
  /// ParallelFor wraps user code and captures exceptions itself.
  void Submit(std::function<void()> task);

  /// The process-wide pool, created on first use. Sized so that at least
  /// four execution slots (caller + workers) exist even on small machines —
  /// num_threads settings above the hardware concurrency still exercise the
  /// real cross-thread merge paths (which the determinism tests rely on).
  static ThreadPool& Shared();

  /// std::thread::hardware_concurrency(), never 0.
  static size_t HardwareThreads();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Resolves a ChaseOptions-style thread request: 0 means "use the hardware
/// concurrency", anything else is taken literally.
size_t ResolveThreads(size_t requested);

/// Runs fn(index, slot) for every index in [begin, end), distributing blocks
/// of `grain` indices over at most `num_threads` execution slots.
///
/// Contract (the repo's thread-safety/determinism rules, see DESIGN.md):
///  - slot 0 is always the calling thread; slots are in [0, num_threads).
///  - num_threads <= 1 (after ResolveThreads) or a range of at most `grain`
///    indices runs entirely inline on slot 0 with no pool machinery touched.
///    This is the serial path: callers keep no serial copy of their loop.
///  - blocks are claimed dynamically, so which slot sees which index is
///    unspecified; callers MUST write results into index-addressed slots (or
///    per-slot accumulators merged by a commutative reduction) to stay
///    deterministic.
///  - the first exception thrown by fn is captured, remaining blocks are
///    abandoned, and the exception is rethrown on the calling thread after
///    all participants finish.
void ParallelFor(size_t num_threads, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t index, size_t slot)>& fn);

/// Per-slot scratch holder for ParallelFor callers: one lazily-constructed T
/// per execution slot. Construction happens on first access from the owning
/// slot only, so T needs no synchronization of its own (the BFS scratch and
/// accumulators this holds are mutable and thread-hostile by design).
template <typename T>
class PerThread {
 public:
  /// `make` produces a fresh T; called at most once per slot.
  PerThread(size_t slots, std::function<std::unique_ptr<T>()> make)
      : slots_(slots), make_(std::move(make)) {}

  size_t size() const { return slots_.size(); }

  T& at(size_t slot) {
    auto& p = slots_[slot];
    if (p == nullptr) p = make_();
    return *p;
  }

  /// The slot's T if it was ever constructed, else nullptr (merge loops use
  /// this to fold only the slots that did work, in slot order).
  T* created(size_t slot) { return slots_[slot].get(); }

 private:
  std::vector<std::unique_ptr<T>> slots_;
  std::function<std::unique_ptr<T>()> make_;
};

}  // namespace wqe

#endif  // WQE_COMMON_THREAD_POOL_H_
