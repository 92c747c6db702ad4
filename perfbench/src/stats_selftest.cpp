// Self-test of the benchmark's own statistics (stats.h): the tail
// percentile rule, open-loop latency from the due time, and failure
// counting. Exits non-zero on the first failed check; run.py runs it
// before every measurement and ctest runs it as `perfbench_selftest`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Median and nearest-rank percentiles.
  check(near(median({3, 1, 2}), 2), "median of odd count");
  check(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  check(near(percentile_sorted({1, 2, 3, 4}, 50), 2), "nearest-rank p50");
  check(near(percentile_sorted({1, 2, 3, 4}, 100), 4), "nearest-rank p100");

  // Tail rule: the highest ladder rung with at least 10 samples above it.
  {
    const Tail tail = tail_latency(one_to(1000));
    check(near(tail.percentile, 99.0), "1000 samples -> p99");
    check(tail.samples_above == 10, "p99 of 1000 has exactly 10 above");
    check(near(tail.value, 990), "p99 value of 1..1000");
  }
  {
    const Tail tail = tail_latency(one_to(999));
    check(near(tail.percentile, 95.0), "999 samples fall back to p95");
    check(tail.samples_above >= 10, "chosen rung keeps 10 samples above");
  }
  {
    const Tail tail = tail_latency(one_to(150));
    check(near(tail.percentile, 90.0), "150 samples -> p90");
    check(tail.samples_above == 15, "p90 of 150 has 15 above");
  }
  {
    const Tail tail = tail_latency(one_to(20));
    check(near(tail.percentile, 50.0), "20 samples -> p50");
    check(tail.samples_above == 10, "p50 of 20 has 10 above");
  }
  {
    const Tail tail = tail_latency(one_to(12));
    check(near(tail.percentile, 100.0), "too few samples -> the maximum");
    check(tail.samples_above == 0 && near(tail.value, 12),
          "maximum reported with 0 above");
  }
  {
    // Ties at the cut do not count as "above".
    std::vector<double> values(40, 5.0);
    for (int i = 0; i < 9; ++i) values.push_back(9.0);
    const Tail tail = tail_latency(values);
    check(near(tail.percentile, 100.0) && tail.samples_above == 0,
          "9 samples above a tied cut never qualify a rung");
  }
  check(tail_latency({}).samples == 0, "empty sample");

  // Open loop: latency counts from the due time, lateness never negative.
  check(near(open_loop_latency_ms(100, 130), 30),
        "latency is done - due, including the sender's delay");
  check(near(sender_late_ms(100, 125), 25), "late by sent - due");
  check(near(sender_late_ms(100, 90), 0), "early sends are not late");

  // Failure counting: every outcome but kOk is a failure.
  {
    FailureCounts counts;
    check(near(counts.failed_frac(), 0), "nothing attempted -> 0");
    counts.add(Outcome::kOk);
    counts.add(Outcome::kOk);
    counts.add(Outcome::kBusy);
    counts.add(Outcome::kTransport);
    counts.add(Outcome::kErrorReply);
    counts.add(Outcome::kWrongOutput);
    counts.add(Outcome::kOk);
    counts.add(Outcome::kOk);
    check(counts.attempted == 8, "attempted counts every outcome");
    check(counts.failed() == 4, "busy, transport, error and wrong fail");
    check(near(counts.failed_frac(), 0.5), "failed_frac = failed/attempted");
    check(near(counts.ok_frac(), 0.5), "ok_frac is its complement");
  }

  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
