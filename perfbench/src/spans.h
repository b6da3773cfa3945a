// Spans recorded by the benchmark around its calls into the program's
// public entry points, kept in memory and written out at exit as Chrome
// trace_event JSON (the shape scripts/trace_schema.json describes).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide benchmark epoch.
int64_t NowNs();

struct Span {
  std::string name;  // the public call, e.g. "Session::Prepare"
  std::string cat;   // the layer, e.g. "query"
  uint64_t trace_id = 0;  // one per request
  int parent = -1;        // index into the same log; -1 for a root
  uint32_t lane = 0;      // trace "tid": 0 for the session loop, or a client
  Interval time;

  double micros() const { return (time.end - time.start) / 1e3; }
};

/// One thread's spans. Threads record into their own log; Merge() joins
/// them after the threads are done.
class SpanLog {
 public:
  /// Opens a span and returns its index.
  int Begin(std::string name, std::string cat, uint64_t trace_id, int parent,
            uint32_t lane);
  /// Closes span `index` and returns its duration in microseconds.
  double End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void Merge(const SpanLog& other);

  /// Writes the spans as {"displayTimeUnit": "ms", "traceEvents": [...]}
  /// with one complete ("X") event per span; trace id and parent span go in
  /// args. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
