#include "obs/flight_recorder.h"

#include <csignal>
#include <cstring>
#include <sstream>
#include <thread>

#include "obs/json.h"

namespace wqe::obs {

std::string RequestDigest::ToJson() const {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"seq\":" << sequence << ",\"algorithm\":"
      << JsonString(algorithm);
  char fp[24];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(question_fp));
  out << ",\"question_fp\":" << JsonString(fp) << ",\"queue_ms\":"
      << JsonNumber(static_cast<double>(queue_ns) / 1e6) << ",\"solve_ms\":"
      << JsonNumber(static_cast<double>(solve_ns) / 1e6) << ",\"total_ms\":"
      << JsonNumber(static_cast<double>(total_ns) / 1e6)
      << ",\"answer_bytes\":" << answer_bytes << ",\"status\":" << status_code
      << ",\"termination\":" << termination << ",\"phases\":[";
  bool first = true;
  for (const Phase& p : phases) {
    if (p.name[0] == '\0') continue;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":" << JsonString(p.name) << ",\"self_ms\":"
        << JsonNumber(static_cast<double>(p.self_ns) / 1e6) << '}';
  }
  out << "]}";
  return out.str();
}

void FlightRecorder::Slot::Write(const RequestDigest& d) {
  uint64_t staged[kWords] = {};
  std::memcpy(staged, &d, sizeof(d));
  // Writers whose ring positions collide take the slot in turn: only the
  // one that moves seq from even to odd writes. (Two bare increments let a
  // second writer turn seq even again while the first was mid-write, and a
  // reader then accepted the mixed words.)
  uint64_t s = seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((s & 1) == 0 &&
        seq.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
      break;  // odd: write in progress
    }
    if ((s & 1) != 0) {
      std::this_thread::yield();
      s = seq.load(std::memory_order_relaxed);
    }
  }
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t w = 0; w < kWords; ++w) {
    words[w].store(staged[w], std::memory_order_relaxed);
  }
  seq.store(s + 2, std::memory_order_release);  // even: stable
}

bool FlightRecorder::Slot::Read(RequestDigest* out) const {
  const uint64_t before = seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1) != 0) return false;
  uint64_t staged[kWords];
  for (size_t w = 0; w < kWords; ++w) {
    staged[w] = words[w].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (seq.load(std::memory_order_acquire) != before) return false;
  std::memcpy(out, staged, sizeof(*out));
  return true;
}

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options opts)
    : opts_(opts),
      ring_(opts.capacity == 0 ? 1 : opts.capacity),
      slow_(opts.slow_capacity == 0 ? 1 : opts.slow_capacity) {}

void FlightRecorder::Record(RequestDigest digest) {
  const uint64_t n = next_.fetch_add(1, std::memory_order_relaxed);
  digest.sequence = n;
  ring_[n % ring_.size()].Write(digest);
  if (opts_.slow_threshold_ns != 0 &&
      digest.total_ns >= opts_.slow_threshold_ns) {
    const uint64_t s = slow_next_.fetch_add(1, std::memory_order_relaxed);
    slow_[s % slow_.size()].Write(digest);
  }
}

std::vector<RequestDigest> FlightRecorder::Drain(const std::vector<Slot>& ring,
                                                 uint64_t next) {
  std::vector<RequestDigest> out;
  const size_t live = next < ring.size() ? static_cast<size_t>(next)
                                         : ring.size();
  out.reserve(live);
  // Walk backwards from the most recently claimed slot so the copy comes out
  // newest first.
  for (size_t k = 0; k < live; ++k) {
    const uint64_t idx = next - 1 - k;
    RequestDigest d;
    if (ring[idx % ring.size()].Read(&d)) out.push_back(d);
  }
  return out;
}

std::vector<RequestDigest> FlightRecorder::Recent() const {
  return Drain(ring_, next_.load(std::memory_order_acquire));
}

std::vector<RequestDigest> FlightRecorder::Slow() const {
  return Drain(slow_, slow_next_.load(std::memory_order_acquire));
}

std::string FlightRecorder::ToJson() const {
  std::ostringstream out;
  out << "{\"recorded\":" << recorded()
      << ",\"slow_recorded\":" << slow_recorded() << ",\"slow_threshold_ms\":"
      << JsonNumber(static_cast<double>(opts_.slow_threshold_ns) / 1e6)
      << ",\"recent\":[";
  bool first = true;
  for (const RequestDigest& d : Recent()) {
    if (!first) out << ',';
    first = false;
    out << d.ToJson();
  }
  out << "],\"slow\":[";
  first = true;
  for (const RequestDigest& d : Slow()) {
    if (!first) out << ',';
    first = false;
    out << d.ToJson();
  }
  out << "]}";
  return out.str();
}

namespace {

std::atomic<bool> g_flight_dump_requested{false};

void FlightDumpSignalHandler(int) {
  g_flight_dump_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

void InstallFlightDumpHandler() {
  struct sigaction sa = {};
  sa.sa_handler = &FlightDumpSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
}

bool ConsumeFlightDumpRequest() {
  return g_flight_dump_requested.exchange(false, std::memory_order_relaxed);
}

}  // namespace wqe::obs
