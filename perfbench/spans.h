// Host-time spans recorded by the benchmark around its calls into the
// library (set-up calls, replications, layer probes), kept in memory and
// written once as Chrome trace-event JSON that tools/flamegraph.py folds.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  // A disabled log records nothing and costs one branch per span.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // RAII span: opens on construction under the innermost open span,
  // closes on destruction.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, const char* category);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  // Host seconds spent inside the log's own bookkeeping.
  double overhead_seconds() const { return overhead_s_; }

  // Writes {"traceEvents": [B/E pairs...], "otherData": {...}}; each B
  // event carries args {"span": id, "parent": id} (0 = root).
  // `other_data_json` must be a JSON object. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data_json) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    const char* category;
    std::uint64_t id;
    std::uint64_t parent;
    Clock::time_point begin;
    Clock::time_point end;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
  Clock::time_point origin_ = Clock::now();
  double overhead_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
