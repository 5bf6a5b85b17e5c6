// Span recording for the benchmark's traced run.
//
// The benchmark wraps its own calls into each layer in ScopedSpans; spans
// are kept in memory and written out as JSON lines when the run ends. A
// null Tracer makes every ScopedSpan a no-op, which is how the untraced
// run measures end-to-end metrics.
#ifndef XARCH_PERFBENCH_TRACER_H_
#define XARCH_PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// One finished span. `name` points at a string literal.
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;   ///< 0 for a root span
    uint64_t request;  ///< shared by every span of one request
    int64_t start_ns;  ///< since the tracer was created
    int64_t end_ns;
  };

  /// Summed self time (duration minus the time covered by child spans).
  struct SelfTime {
    double total_ms = 0;
    uint64_t count = 0;
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Self time per span name.
  std::map<std::string, SelfTime> SelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans_) {
      auto it = child_ns.find(s.id);
      const int64_t covered = it == child_ns.end() ? 0 : it->second;
      SelfTime& t = out[s.name];
      t.total_ms += (s.end_ns - s.start_ns - covered) / 1e6;
      ++t.count;
    }
    return out;
  }

  /// Writes one JSON object per span: name, id, parent, request, start_us,
  /// end_us. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   s.start_ns / 1e3, s.end_ns / 1e3);
    }
    return std::fclose(f) == 0;
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span for its lifetime. The span's parent is the innermost
/// ScopedSpan open on the same thread; a request id of 0 inherits the
/// parent's request.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NextId();
    span_.parent = current_id_;
    span_.request = request != 0 ? request : current_request_;
    saved_request_ = current_request_;
    current_id_ = span_.id;
    current_request_ = span_.request;
    span_.start_ns = tracer_->NowNs();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->NowNs();
    current_id_ = span_.parent;
    current_request_ = saved_request_;
    tracer_->Record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static inline thread_local uint64_t current_id_ = 0;
  static inline thread_local uint64_t current_request_ = 0;

  Tracer* tracer_;
  Tracer::Span span_{};
  uint64_t saved_request_ = 0;
};

}  // namespace perfbench

#endif  // XARCH_PERFBENCH_TRACER_H_
