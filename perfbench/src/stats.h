// Statistics the benchmark reports: medians, the tail percentile rule,
// open-loop latency and failure accounting. Header-only so the self-test
// (stats_selftest.cpp) checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least p% of the samples at or below it.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Median (mean of the two middle values for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Samples strictly above the nearest-rank p-th percentile.
inline std::size_t samples_above(const std::vector<double>& sorted, double p) {
  const double cut = percentile_sorted(sorted, p);
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), cut));
}

/// The tail rung ladder, highest first. A fixed ladder keeps the reported
/// percentile the same from run to run while the sample count only drifts.
inline const std::vector<double>& tail_ladder() {
  static const std::vector<double> ladder = {99.9, 99.0, 95.0, 90.0, 75.0,
                                             50.0};
  return ladder;
}

struct Tail {
  double percentile = 0.0;  ///< the rung chosen; 0 when no rung qualifies
  double value = 0.0;
  std::size_t samples = 0;        ///< total samples
  std::size_t samples_above = 0;  ///< samples beyond the chosen rung
};

/// The highest ladder percentile that still has at least `min_above`
/// samples above it. With too few samples for any rung, the maximum is
/// reported with percentile 100 and the honest count above it (0).
inline Tail tail_latency(std::vector<double> values,
                         std::size_t min_above = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (const double p : tail_ladder()) {
    const std::size_t above = samples_above(values, p);
    if (above >= min_above) {
      tail.percentile = p;
      tail.value = percentile_sorted(values, p);
      tail.samples_above = above;
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = values.back();
  tail.samples_above = 0;
  return tail;
}

/// Open-loop latency of one request: from when it was due to be sent (not
/// when the sender got round to sending it) to when its reply arrived, so
/// a stall also charges the requests queued behind it.
inline double open_loop_latency_ms(double due_ms, double done_ms) {
  return done_ms - due_ms;
}

/// How late the sender ran for one request (never negative).
inline double sender_late_ms(double due_ms, double sent_ms) {
  return std::max(0.0, sent_ms - due_ms);
}

/// Why an operation counts as failed. Each attempted operation lands in
/// exactly one bucket; only kOk counts as completed.
enum class Outcome : std::uint8_t {
  kOk,
  kErrorReply,      ///< the program answered with an error
  kBusy,            ///< the daemon refused with server_busy
  kTransport,       ///< connect/send/receive failed
  kWrongOutput,     ///< answered, but the correctness check failed
};

struct FailureCounts {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t error_reply = 0;
  std::size_t busy = 0;
  std::size_t transport = 0;
  std::size_t wrong_output = 0;

  void add(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kErrorReply: ++error_reply; break;
      case Outcome::kBusy: ++busy; break;
      case Outcome::kTransport: ++transport; break;
      case Outcome::kWrongOutput: ++wrong_output; break;
    }
  }
  std::size_t failed() const { return attempted - ok; }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  double ok_frac() const {
    return attempted == 0 ? 0.0 : 1.0 - failed_frac();
  }
};

}  // namespace perfbench
