#include "stats.h"

#include <algorithm>
#include <set>

namespace perfbench {

namespace {

/// Rank (1-based) of the nearest-rank percentile: ceil(n * permille / 1000),
/// in integers so that p99 of 1000 samples is rank 990 exactly.
size_t NearestRank(size_t n, int permille) {
  const size_t rank = (n * static_cast<size_t>(permille) + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

}  // namespace

size_t SamplesBeyond(size_t n, int permille) {
  if (n == 0) return 0;
  return n - NearestRank(n, permille);
}

std::optional<double> Percentile(const std::vector<double>& sorted,
                                 int permille) {
  if (sorted.empty()) return std::nullopt;
  if (permille > 500 && SamplesBeyond(sorted.size(), permille) < 10) {
    return std::nullopt;
  }
  return sorted[NearestRank(sorted.size(), permille) - 1];
}

std::optional<double> Median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t AnswerDigest(const std::vector<rodin::Row>& rows) {
  std::set<std::string> distinct;
  for (const rodin::Row& row : rows) {
    std::string key;
    for (const rodin::Value& v : row) {
      key += v.ToString();
      key += '\x1f';
    }
    distinct.insert(std::move(key));
  }
  uint64_t h = 1469598103934665603ull;
  for (const std::string& key : distinct) {
    for (unsigned char c : key) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= '\x1e';
    h *= 1099511628211ull;
  }
  return h;
}

int64_t SelfTime(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = parent.start;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.start) - covered;
}

std::map<std::string, double> SelfMicrosByKind(
    const rodin::PTNode& root,
    const std::map<const rodin::PTNode*, rodin::OpStats>& stats) {
  std::map<std::string, double> out;
  std::vector<const rodin::PTNode*> stack = {&root};
  while (!stack.empty()) {
    const rodin::PTNode* node = stack.back();
    stack.pop_back();
    double children_micros = 0;
    for (const auto& child : node->children) {
      stack.push_back(child.get());
      auto it = stats.find(child.get());
      if (it != stats.end()) children_micros += it->second.micros;
    }
    auto it = stats.find(node);
    if (it == stats.end()) continue;
    out[rodin::PTKindName(node->kind)] +=
        std::max(0.0, it->second.micros - children_micros);
  }
  return out;
}

}  // namespace perfbench
