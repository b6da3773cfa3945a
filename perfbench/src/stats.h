// Sample statistics, answer digests and self-time arithmetic for the
// benchmark. Everything here is pure so tests/logic_test.cc can pin it.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/row.h"
#include "plan/pt.h"
#include "storage/value.h"

namespace perfbench {

/// Samples that lie strictly beyond the nearest-rank percentile `permille`
/// (500 = median, 900 = p90, 990 = p99) of `n` samples.
size_t SamplesBeyond(size_t n, int permille);

/// Nearest-rank percentile of `sorted` (ascending). Returns nullopt unless at
/// least 10 samples lie beyond it, so a p90 needs 100 samples and a p99
/// needs 1000. The median is exempt from the rule (it needs one sample).
std::optional<double> Percentile(const std::vector<double>& sorted,
                                 int permille);

/// Median of an unsorted sample (nullopt when empty).
std::optional<double> Median(std::vector<double> values);

/// Order-independent digest of an answer: the FNV-1a hash of its distinct
/// rows, rendered with Value::ToString and sorted. Set semantics, because
/// two correct plans may emit duplicates differently.
uint64_t AnswerDigest(const std::vector<rodin::Row>& rows);

/// A closed interval of one span, in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it that child spans
/// cover. Overlapping children (parallel work) count once; the parts of a
/// child outside the parent are ignored.
int64_t SelfTime(const Interval& parent, std::vector<Interval> children);

/// Per-operator self time of one executed plan, summed by PTKindName
/// ("EJ", "Fix", ...): each node's inclusive OpStats::micros minus its
/// evaluated children's. Nodes the run never evaluated contribute nothing.
std::map<std::string, double> SelfMicrosByKind(
    const rodin::PTNode& root,
    const std::map<const rodin::PTNode*, rodin::OpStats>& stats);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
