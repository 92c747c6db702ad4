// In-memory span log for the traced run. Spans are recorded from the
// benchmark around its calls into each layer's public functions (name,
// start, end, parent, operation id) and written once at exit as Chrome
// trace-event JSON, which Perfetto and chrome://tracing load directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1;  ///< -1: a root span
    std::int64_t op = -1;      ///< operation the span belongs to
    std::size_t thread = 0;
  };

  explicit SpanLog(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Microseconds since the log was created.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Open a span; returns its id (-1 when disabled). Close it with close().
  std::int64_t open(const std::string& name, std::int64_t op,
                    std::int64_t parent = -1) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.start_us = now_us();
    span.parent = parent;
    span.op = op;
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    const double end = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_us = end;
  }

  /// Run `fn` inside a span and return its wall time in milliseconds. The
  /// time is measured whether or not spans are kept.
  template <typename Fn>
  double timed(const std::string& name, std::int64_t op, std::int64_t parent,
               Fn&& fn) {
    const std::int64_t id = open(name, op, parent);
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    close(id);
    return std::chrono::duration<double, std::milli>(stop - start).count();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Write every span as a Chrome "X" (complete) event. Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> thread_ids;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::size_t tid = 0;
      while (tid < thread_ids.size() && thread_ids[tid] != span.thread) ++tid;
      if (tid == thread_ids.size()) thread_ids.push_back(span.thread);
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"op\":%lld}}",
                   i == 0 ? "" : ",\n", span.name.c_str(), tid + 1,
                   span.start_us, span.end_us - span.start_us,
                   static_cast<long long>(span.id),
                   static_cast<long long>(span.parent),
                   static_cast<long long>(span.op));
    }
    std::fputs("]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
