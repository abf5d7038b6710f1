#ifndef WQE_OBS_FLIGHT_RECORDER_H_
#define WQE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace wqe::obs {

/// Fixed-size digest of one completed serving request — everything "which
/// request was slow and why" needs, with no heap pointers so a digest can
/// live in a preallocated ring slot and be copied with relaxed atomic word
/// stores. Strings are truncated into fixed char arrays (NUL-padded).
struct RequestDigest {
  static constexpr size_t kAlgoChars = 12;
  static constexpr size_t kPhaseChars = 24;
  /// Top phases by self time carried per digest; the long tail of a solve's
  /// breakdown folds into the server-wide MergedPhases, not the recorder.
  static constexpr size_t kPhases = 4;

  struct Phase {
    char name[kPhaseChars] = {};
    uint64_t self_ns = 0;
  };

  uint64_t id = 0;               // Request::id (caller correlation)
  uint64_t sequence = 0;         // recorder-assigned completion order
  uint64_t question_fp = 0;      // ChaseReport::QuestionFingerprint
  uint64_t queue_ns = 0;         // admission -> execution start
  uint64_t solve_ns = 0;         // the solver run itself
  uint64_t total_ns = 0;         // admission -> completion
  uint64_t answer_bytes = 0;     // canonical best-rewrite text + match ids
  uint32_t status_code = 0;      // Status::Code of the response
  uint32_t termination = 0;      // TerminationReason of the result
  char algorithm[kAlgoChars] = {};
  Phase phases[kPhases] = {};

  void set_algorithm(const char* name) {
    std::strncpy(algorithm, name, kAlgoChars - 1);
    algorithm[kAlgoChars - 1] = '\0';
  }

  /// One JSON object (strict obs JSON rules — the /requestz document embeds
  /// these verbatim).
  std::string ToJson() const;
};

static_assert(std::is_trivially_copyable_v<RequestDigest>,
              "digests are copied through atomic word arrays");

/// Flight recorder: a fixed-memory, lock-light ring of the last `capacity`
/// completed request digests, plus an always-retained tier for requests
/// slower than `slow_threshold_ns` (so a burst of fast traffic cannot flush
/// the interesting outliers before anyone looks). The write path is one
/// atomic slot claim plus a seqlock-guarded word-wise copy — no mutex, no
/// allocation — so the serving hot path pays a constant few-hundred-byte
/// write per request. Readers (the /requestz handler, the SIGUSR1 dump)
/// validate each slot's sequence before and after copying it out and simply
/// skip slots caught mid-write; a torn read is discarded, never surfaced.
class FlightRecorder {
 public:
  struct Options {
    size_t capacity = 256;       // recent-request ring slots
    size_t slow_capacity = 64;   // slow-tier ring slots
    /// Requests at or above this admission-to-completion latency are also
    /// recorded in the slow tier. 0 disables the tier.
    uint64_t slow_threshold_ns = 250'000'000;  // 250ms
  };

  FlightRecorder();  // default Options
  explicit FlightRecorder(Options opts);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Hot path: assigns the digest's sequence number and writes it into the
  /// recent ring (and the slow tier when past the threshold).
  void Record(RequestDigest digest);

  /// Consistent copies, newest first. Slots mid-write are skipped.
  std::vector<RequestDigest> Recent() const;
  std::vector<RequestDigest> Slow() const;

  uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }
  uint64_t slow_recorded() const {
    return slow_next_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return opts_; }

  /// The /requestz document: {"recorded":N,"slow_recorded":N,
  /// "slow_threshold_ms":T,"recent":[digest...],"slow":[digest...]}.
  std::string ToJson() const;

 private:
  /// One seqlock-guarded slot. An even sequence is stable; a writer moves it
  /// from even to odd by compare-and-swap, stores the digest as relaxed
  /// words, and moves it to the next even value. Writers lapping onto one
  /// slot therefore write it in turn (the loser spins until the slot is
  /// even again) — with capacity >> concurrency that wait is vanishingly
  /// rare — and a reader never accepts words from two writers.
  struct Slot {
    static constexpr size_t kWords =
        (sizeof(RequestDigest) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWords] = {};

    void Write(const RequestDigest& d);
    bool Read(RequestDigest* out) const;  // false when torn / never written
  };

  static std::vector<RequestDigest> Drain(const std::vector<Slot>& ring,
                                          uint64_t next);

  Options opts_;
  std::vector<Slot> ring_;
  std::vector<Slot> slow_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> slow_next_{0};
};

/// Installs a SIGUSR1 handler that latches a process-wide dump request (the
/// handler only stores to a lock-free atomic — async-signal-safe). The
/// telemetry listener polls ConsumeFlightDumpRequest between connections and
/// performs the actual dump outside signal context. Idempotent.
void InstallFlightDumpHandler();

/// True exactly once per SIGUSR1 received since the last call.
bool ConsumeFlightDumpRequest();

}  // namespace wqe::obs

#endif  // WQE_OBS_FLIGHT_RECORDER_H_
