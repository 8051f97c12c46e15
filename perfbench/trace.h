// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (nothing inside the library is instrumented).
// A span has a name, a start, an end, the span that caused it, and — for
// online requests — the request id its spans share. Spans stay in memory
// and are written out once, at exit, in the Chrome trace-event format.
// A disabled tracer records nothing, so the untraced run pays one branch
// per span site. A layer's self time is its span minus the part its child
// spans cover; the layer spans the benchmark reports have no children, so
// their self time is their duration.
// Not thread-safe: spans are recorded from the benchmark's main thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< relative to the tracer's origin
  int64_t end_ns = 0;
  int parent = -1;       ///< index of the causing span, -1 for a root
  int64_t request = -1;  ///< online request id, -1 when not per-request
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Opens a span now; returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1, int64_t request = -1) {
    if (!enabled_) return -1;
    const int64_t now = ToNs(Clock::now());
    return Add(name, now, now, parent, request);
  }

  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = ToNs(Clock::now());
  }

  /// Records a span whose bounds were measured elsewhere (serving spans
  /// are rebuilt from QueryResponse::{queue_us,search_us}).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  double DurationUs(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Durations (us) of every span called `name`, in recording order.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); i++) {
      if (spans_[i].name == name) out.push_back(DurationUs(static_cast<int>(i)));
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "complete" event (ph X),
  /// with the parent and request ids as args. Returns false on an I/O
  /// error.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%lld}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<long long>(s.request < 0 ? 0 : 1 + s.request % 64),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
