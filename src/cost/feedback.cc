#include "cost/feedback.h"

#include <algorithm>

#include "obs/metrics.h"
#include "plan/pt_printer.h"

namespace rodin {

namespace {

obs::Counter* FeedbackCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

/// The identity of a Sel node's input, for scoping its selectivity error:
/// selectivity against an extent scan and against a fixpoint's closure are
/// different quantities even under the same predicate.
std::string SourceTag(const PTNode& n) {
  switch (n.kind) {
    case PTKind::kEntity:
      return n.entity.ToString();
    case PTKind::kDelta:
      return "delta:" + n.fix_name;
    case PTKind::kFix:
      return "fix:" + n.fix_name;
    default:
      return PTKindName(n.kind);
  }
}

void FlattenRec(const PTNode& node,
                const std::map<const PTNode*, OpStats>& op_stats, int parent,
                std::vector<PlanNodeStats>* out) {
  PlanNodeStats row;
  row.op = PTNodeLabel(node);
  row.scope = FeedbackScopeKey(node);
  row.parent = parent;
  row.est_rows = node.est_rows;
  row.est_cost = node.est_cost;
  auto it = op_stats.find(&node);
  if (it != op_stats.end()) {
    row.executed = true;
    row.measured_rows = it->second.rows;
    row.measured_pages = it->second.pages;
    row.measured_micros = it->second.micros;
    row.invocations = it->second.invocations;
  }
  const int index = static_cast<int>(out->size());
  out->push_back(std::move(row));
  for (const auto& c : node.children) {
    FlattenRec(*c, op_stats, index, out);
  }
}

/// Measured output rows per invocation, falling back to the estimate for
/// nodes the run never profiled (Sel-over-entity fuses the scan, so the
/// entity child has no profile of its own — its estimate is the exact
/// instance count and stands in). Returns -1 when there is no usable figure.
double RowsPerInvocation(const PlanNodeStats& n) {
  if (n.executed && n.invocations > 0) {
    return static_cast<double>(n.measured_rows) /
           static_cast<double>(n.invocations);
  }
  return n.est_rows >= 0 ? n.est_rows : -1;
}

}  // namespace

std::string FeedbackScopeKey(const PTNode& node) {
  switch (node.kind) {
    case PTKind::kEntity:
      return "extent:" + node.entity.ToString();
    case PTKind::kSel: {
      if (node.children.empty() || node.pred == nullptr) return "";
      return "sel:" + SourceTag(*node.children[0]) + ":" +
             node.pred->ToString();
    }
    case PTKind::kEJ: {
      if (node.pred == nullptr) return "";
      return "join:" + node.pred->ToString();
    }
    case PTKind::kIJ: {
      if (node.children.empty()) return "";
      int col = -1;
      std::vector<std::string> rest;
      if (node.children[0]->ResolveVarPath(node.src_var, {node.attr}, &col,
                                           &rest) &&
          !rest.empty() && node.children[0]->cols[col].cls != nullptr) {
        return "path:" + node.children[0]->cols[col].cls->name() + "." +
               node.attr;
      }
      // Dotted-column form: the traversal happened upstream and the IJ only
      // binds the reached object — keyed by the target class instead.
      if (node.target != nullptr) {
        return "path:" + node.target->name() + "." + node.attr;
      }
      return "";
    }
    case PTKind::kPIJ: {
      if (node.path_index == nullptr) return "";
      std::string key = "path:" + node.path_index->root_class();
      for (const std::string& step : node.path) key += "." + step;
      return key;
    }
    case PTKind::kFix:
      return "fix:" + node.fix_name;
    case PTKind::kProj: {
      // A deduplicating projection changes cardinality in a way no derived
      // statistic captures (the survival rate of duplicate elimination);
      // scope it by its output expressions so the learned rate carries to
      // every plan producing the same columns. Plain projections pass rows
      // through 1:1 — nothing to correct.
      if (!node.dedup || node.proj.empty()) return "";
      std::string key = "dedup:";
      for (size_t i = 0; i < node.proj.size(); ++i) {
        if (i > 0) key += ",";
        key += node.proj[i].expr != nullptr ? node.proj[i].expr->ToString()
                                            : node.proj[i].name;
      }
      return key;
    }
    default:
      // Plain projections, unions and deltas: output cardinality is
      // determined by the inputs; there is no local estimate to correct.
      return "";
  }
}

std::vector<PlanNodeStats> FlattenPlanStats(
    const PTNode& plan, const std::map<const PTNode*, OpStats>& op_stats) {
  std::vector<PlanNodeStats> out;
  FlattenRec(plan, op_stats, -1, &out);
  return out;
}

size_t FeedbackRegistry::Harvest(const std::vector<PlanNodeStats>& nodes,
                                 uint64_t stats_version, double alpha) {
  static obs::Counter* observations =
      FeedbackCounter("rodin.feedback.observations");
  static obs::Counter* corrections =
      FeedbackCounter("rodin.feedback.corrections");
  alpha = std::clamp(alpha, 0.0, 1.0);

  // Children of row i are the rows with parent == i; the input of a
  // single-input operator is its first child (a Fix's base arm).
  std::vector<int> first_child(nodes.size(), -1);
  std::vector<int> second_child(nodes.size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int p = nodes[i].parent;
    if (p < 0) continue;
    if (first_child[p] < 0) {
      first_child[p] = static_cast<int>(i);
    } else if (second_child[p] < 0) {
      second_child[p] = static_cast<int>(i);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (stats_version < stats_version_) {
    // A commit retired the statistics this run was estimated under.
    stats_.stale_dropped++;
    return 0;
  }
  if (stats_version > stats_version_) {
    // First harvest under fresh statistics: everything learned under the
    // old ones is void.
    factors_.clear();
    demotions_.clear();
    stats_version_ = stats_version;
  }

  size_t accepted = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNodeStats& n = nodes[i];
    if (n.scope.empty() || !n.executed || n.invocations == 0) continue;
    if (n.est_rows < 0) continue;
    const double m_out = static_cast<double>(n.measured_rows) /
                         static_cast<double>(n.invocations);

    // The *local* ratio: divide out the input's own error so a mis-estimated
    // child does not re-charge every ancestor's factor.
    double ratio = -1;
    if (n.scope.rfind("extent:", 0) == 0) {
      if (n.est_rows > 0) ratio = m_out / n.est_rows;
    } else if (n.scope.rfind("join:", 0) == 0) {
      const int l = first_child[i];
      const int r = second_child[i];
      if (l >= 0 && r >= 0) {
        const double m_l = RowsPerInvocation(nodes[l]);
        const double m_r = RowsPerInvocation(nodes[r]);
        const double e_l = nodes[l].est_rows;
        const double e_r = nodes[r].est_rows;
        if (m_l > 0 && m_r > 0 && e_l > 0 && e_r > 0 && n.est_rows > 0) {
          const double meas_sel = m_out / (m_l * m_r);
          const double est_sel = n.est_rows / (e_l * e_r);
          if (est_sel > 0) ratio = meas_sel / est_sel;
        }
      }
    } else {
      // sel: / path: / fix: — one designated input.
      const int c = first_child[i];
      if (c >= 0) {
        const double m_in = RowsPerInvocation(nodes[c]);
        const double e_in = nodes[c].est_rows;
        if (m_in > 0 && e_in > 0 && n.est_rows > 0) {
          ratio = (m_out / m_in) / (n.est_rows / e_in);
        }
      }
    }
    if (ratio < 0) continue;
    ratio = std::clamp(ratio, kMinObservedRatio, kMaxObservedRatio);

    auto it = factors_.find(n.scope);
    if (it == factors_.end()) {
      if (factors_.size() >= kMaxScopes) continue;  // bounded state
      it = factors_.emplace(n.scope, 1.0).first;
    }
    const double updated = std::clamp(
        it->second * (alpha * ratio + (1.0 - alpha)), kMinFactor, kMaxFactor);
    if (updated != it->second) {
      it->second = updated;
      stats_.corrections++;
      corrections->Increment();
    }
    stats_.observations++;
    observations->Increment();
    accepted++;
  }
  return accepted;
}

FeedbackCorrections FeedbackRegistry::Snapshot(uint64_t stats_version) const {
  FeedbackCorrections out;
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_version != stats_version_) return out;  // stale either way
  out.factors_ = factors_;
  return out;
}

void FeedbackRegistry::NoteDemotion(const std::string& fingerprint,
                                    double drift) {
  static obs::Counter* demotions = FeedbackCounter("rodin.feedback.demotions");
  std::lock_guard<std::mutex> lock(mu_);
  if (demotions_.size() >= kMaxDemotionNotes &&
      demotions_.find(fingerprint) == demotions_.end()) {
    return;
  }
  demotions_[fingerprint] = drift;
  stats_.demotions++;
  demotions->Increment();
}

double FeedbackRegistry::TakeDemotionNote(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = demotions_.find(fingerprint);
  if (it == demotions_.end()) return 0;
  const double drift = it->second;
  demotions_.erase(it);
  return drift;
}

FeedbackStats FeedbackRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t FeedbackRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return factors_.size();
}

void FeedbackRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  factors_.clear();
  demotions_.clear();
}

}  // namespace rodin
