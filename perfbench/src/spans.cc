#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

int SpanLog::Begin(std::string name, std::string cat, uint64_t trace_id,
                   int parent, uint32_t lane) {
  Span s;
  s.name = std::move(name);
  s.cat = std::move(cat);
  s.trace_id = trace_id;
  s.parent = parent;
  s.lane = lane;
  s.time.start = NowNs();
  s.time.end = s.time.start;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::End(int index) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.time.end = NowNs();
  return s.micros();
}

void SpanLog::Merge(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"trace_id\": %llu, \"span\": %zu, "
                 "\"parent\": %d}}%s\n",
                 s.name.c_str(), s.cat.c_str(), s.time.start / 1e3,
                 s.micros(), s.lane,
                 static_cast<unsigned long long>(s.trace_id), i, s.parent,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
