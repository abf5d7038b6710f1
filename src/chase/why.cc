#include "chase/why.h"

#include <cstdio>

#include "common/thread_pool.h"
#include "store/format.h"

namespace wqe {

Status ChaseOptions::Validate() const {
  if (num_threads > kMaxThreads) {
    return Status::OutOfRange("num_threads " + std::to_string(num_threads) +
                              " exceeds the maximum of " +
                              std::to_string(kMaxThreads) +
                              " (0 = hardware concurrency)");
  }
  if (top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1 (0 rewrites requested)");
  }
  if (beam == 0) {
    return Status::InvalidArgument("beam must be >= 1");
  }
  if (max_bound == 0) {
    return Status::InvalidArgument(
        "max_bound must be >= 1 (edge bounds of 0 match nothing)");
  }
  if (budget < 0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  if (time_limit_seconds < 0) {
    return Status::InvalidArgument("time_limit_seconds must be non-negative");
  }
  if (closeness.theta < 0 || closeness.theta > 1) {
    return Status::OutOfRange("closeness.theta must lie in [0, 1]");
  }
  if (closeness.lambda < 0 || closeness.lambda > 1) {
    return Status::OutOfRange("closeness.lambda must lie in [0, 1]");
  }
  if (max_steps == 0) {
    return Status::InvalidArgument("max_steps must be >= 1");
  }
  return Status::OK();
}

uint64_t ChaseOptions::Fingerprint() const {
  // Field-order-stable textual encoding hashed with FNV-1a. Text (not raw
  // struct bytes) keeps the hash independent of padding and float layout.
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "b=%.9g|mb=%u|th=%.9g|la=%.9g|c=%d|m=%d|p=%d|d=%d|beam=%zu|"
                "r=%d|seed=%llu|k=%zu|w=%zu|dn=%zu|ms=%zu|mp=%d",
                budget, max_bound, closeness.theta, closeness.lambda,
                use_cache ? 1 : 0, use_memo ? 1 : 0, use_pruning ? 1 : 0,
                dedup_rewrites ? 1 : 0, beam, random_ops ? 1 : 0,
                static_cast<unsigned long long>(seed), top_k, max_witnesses,
                max_diagnosed_nodes, max_steps, use_match_pipeline ? 1 : 0);
  return store::Fnv1a(buf);
}

}  // namespace wqe
