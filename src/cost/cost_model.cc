#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rodin {

namespace {

// Startup cost each operator pays per parallel worker under the estimate-only
// parallel bracket (see CostParams::parallel_degree).
constexpr double kParallelOverhead = 0.5;
// Page writes plus read-backs the spill machinery makes per over-budget
// temp page, in units of `pr`.
constexpr double kSpillReadWrite = 2.0;

// Estimated pages of a materialized intermediate of `rows` rows with
// `ncols` columns (16 bytes per column).
double TempPages(double rows, size_t ncols) {
  const double row_bytes = 16.0 * std::max<size_t>(1, ncols);
  return std::ceil(std::max(0.0, rows) * row_bytes / kPageSizeBytes);
}

// Spill penalty for a materialized working set: over the configured memory
// budget, every page is written out and read back by the spill machinery
// (kSpillReadWrite * pr per page). Zero without a budget, so estimates are
// unchanged for unbudgeted queries.
double SpillPenalty(const CostParams& p, double temp_pages) {
  if (p.memory_budget_pages == 0 ||
      temp_pages <= static_cast<double>(p.memory_budget_pages)) {
    return 0;
  }
  return temp_pages * kSpillReadWrite * p.pr;
}

}  // namespace

CostModel::CostModel(const Database* db, const Stats* stats, CostParams params,
                     const FeedbackCorrections* feedback)
    : db_(db), stats_(stats), params_(params), feedback_(feedback) {
  RODIN_CHECK(db != nullptr && stats != nullptr, "null cost model inputs");
  if (feedback_ != nullptr && feedback_->empty()) feedback_ = nullptr;
}

double CostModel::RandomFetchIO(double fetches, double pages) const {
  if (fetches <= 0 || pages <= 0) return 0;
  const double buffer = static_cast<double>(stats_->buffer_pages());
  if (pages <= buffer) {
    // Extent fits: each page faults at most once.
    return std::min(fetches, pages);
  }
  // Steady-state LRU hit ratio ~ buffer/pages for random probes.
  const double miss = (pages - buffer) / pages;
  return fetches * miss;
}

double CostModel::RescanIO(double scans, double pages) const {
  if (scans <= 0 || pages <= 0) return 0;
  const double buffer = static_cast<double>(stats_->buffer_pages());
  if (pages <= buffer) return pages;  // later scans are buffer hits
  return scans * pages;               // sequential flooding: all misses
}

CostModel::PathEval CostModel::EvalPath(
    const ClassDef* start, const std::vector<std::string>& path) const {
  PathEval out;
  if (start == nullptr) return out;
  const Schema& schema = db_->schema();
  const ClassDef* cur = start;
  out.valid = true;
  out.terminal_cls = cur;
  out.terminal_extent = cur->name();
  for (size_t i = 0; i < path.size(); ++i) {
    const Attribute* a = cur->FindAttribute(path[i]);
    if (a == nullptr) {
      out.valid = false;
      return out;
    }
    if (a->computed) {
      // Method call: CPU only, must be terminal.
      out.cpu_per_row += out.fanout * a->method_cost * params_.method_weight;
      out.terminal_cls = nullptr;
      out.terminal_extent = cur->name();
      out.terminal_attr = a->name;
      out.valid = (i + 1 == path.size());
      return out;
    }
    const Type* t = a->type;
    double step_fanout = 1;
    if (t->IsCollection()) {
      t = t->elem();
      step_fanout = stats_->Attr(cur->name(), a->name).fanout;
    }
    if (t->kind() == TypeKind::kObject) {
      const AttrStats& as = stats_->Attr(cur->name(), a->name);
      const ClassDef* next = schema.FindClass(t->class_name());
      if (next == nullptr) {
        out.valid = false;
        return out;
      }
      const EntityRef target_ref{next->name(), 0, 0};
      // Dereference: one random fetch per reached object, discounted by
      // clustering co-location; the buffer discount is applied when the
      // total fetch count is known (PathIOCost).
      PathEval::Deref deref;
      deref.per_row = out.fanout * step_fanout * (1.0 - as.null_frac);
      deref.target_pages = static_cast<double>(stats_->Entity(target_ref).pages);
      deref.uncluster = 1.0 - as.colocated_frac;
      deref.seq = as.seq_frac;
      out.derefs.push_back(deref);
      out.fanout *= step_fanout * (1.0 - as.null_frac);
      cur = next;
      out.terminal_cls = cur;
      out.terminal_extent = cur->name();
      continue;
    }
    // Atomic endpoint: free (carried with the already-fetched record), but
    // it must be the last step.
    out.valid = (i + 1 == path.size());
    out.terminal_cls = nullptr;
    out.terminal_extent = cur->name();
    out.terminal_attr = a->name;
    return out;
  }
  return out;
}

const AttrStats* CostModel::TerminalAttrStats(
    const PTNode& input, const std::string& var,
    const std::vector<std::string>& path, const ClassDef** terminal_cls) const {
  int col = -1;
  std::vector<std::string> rest;
  if (!input.ResolveVarPath(var, path, &col, &rest)) return nullptr;
  const ClassDef* cls = input.cols[col].cls;
  if (rest.empty()) {
    if (terminal_cls != nullptr) *terminal_cls = cls;
    return nullptr;  // column itself; no attribute stats
  }
  if (cls == nullptr) return nullptr;  // atomic column with residual path
  const PathEval pe = EvalPath(cls, rest);
  if (!pe.valid) return nullptr;
  if (terminal_cls != nullptr) *terminal_cls = pe.terminal_cls;
  if (pe.terminal_attr.empty()) return nullptr;  // ends on an object
  return &stats_->Attr(pe.terminal_extent, pe.terminal_attr);
}

double CostModel::CompareSelectivity(const PTNode& input,
                                     const Expr& cmp) const {
  const ExprPtr& lhs = cmp.children()[0];
  const ExprPtr& rhs = cmp.children()[1];

  const bool l_path = lhs->kind() == ExprKind::kVarPath;
  const bool r_path = rhs->kind() == ExprKind::kVarPath;
  const bool l_lit = lhs->kind() == ExprKind::kLiteral;
  const bool r_lit = rhs->kind() == ExprKind::kLiteral;

  // path <op> literal (either order).
  if ((l_path && r_lit) || (r_path && l_lit)) {
    const ExprPtr& p = l_path ? lhs : rhs;
    const ExprPtr& lit = l_path ? rhs : lhs;
    const ClassDef* terminal = nullptr;
    const AttrStats* as =
        TerminalAttrStats(input, p->var(), p->path(), &terminal);
    switch (cmp.compare_op()) {
      case CompareOp::kEq:
        if (as != nullptr) return 1.0 / std::max(1.0, as->distinct);
        return 0.05;
      case CompareOp::kNe:
        if (as != nullptr) return 1.0 - 1.0 / std::max(1.0, as->distinct);
        return 0.95;
      default: {
        // Range predicate: histogram-based fraction when numeric stats
        // exist (uniform interpolation is the in-histogram fallback).
        if (as != nullptr && as->numeric && !lit->literal().is_null() &&
            (lit->literal().is_int() || lit->literal().is_real()) &&
            as->max_val > as->min_val) {
          const double x = lit->literal().AsNumber();
          const double frac = std::clamp(as->FractionBelow(x), 0.0, 1.0);
          const bool lt_like = (l_path && (cmp.compare_op() == CompareOp::kLt ||
                                           cmp.compare_op() == CompareOp::kLe)) ||
                               (r_path && (cmp.compare_op() == CompareOp::kGt ||
                                           cmp.compare_op() == CompareOp::kGe));
          return std::clamp(lt_like ? frac : 1.0 - frac, 0.001, 1.0);
        }
        return 0.33;
      }
    }
  }

  // path <op> path: a join-style predicate.
  if (l_path && r_path) {
    const ClassDef* lcls = nullptr;
    const ClassDef* rcls = nullptr;
    const AttrStats* las =
        TerminalAttrStats(input, lhs->var(), lhs->path(), &lcls);
    const AttrStats* ras =
        TerminalAttrStats(input, rhs->var(), rhs->path(), &rcls);
    if (cmp.compare_op() == CompareOp::kEq) {
      // Object identity join: 1 / ||class||.
      if (lcls != nullptr && rcls != nullptr) {
        const EntityRef ref{lcls->name(), 0, 0};
        const double n = static_cast<double>(stats_->Entity(ref).instances);
        return 1.0 / std::max(1.0, n);
      }
      double d = 1;
      if (las != nullptr) d = std::max(d, las->distinct);
      if (ras != nullptr) d = std::max(d, ras->distinct);
      return 1.0 / std::max(1.0, d);
    }
    return 0.33;
  }

  return 0.33;
}

double CostModel::Selectivity(const PTNode& input, const ExprPtr& pred) const {
  if (pred == nullptr) return 1.0;
  switch (pred->kind()) {
    case ExprKind::kAnd: {
      double s = 1;
      for (const ExprPtr& c : pred->children()) s *= Selectivity(input, c);
      return s;
    }
    case ExprKind::kOr: {
      double s = 1;
      for (const ExprPtr& c : pred->children()) {
        s *= 1.0 - Selectivity(input, c);
      }
      return 1.0 - s;
    }
    case ExprKind::kNot:
      return 1.0 - Selectivity(input, pred->children()[0]);
    case ExprKind::kCompare:
      return CompareSelectivity(input, *pred);
    default:
      return 1.0;
  }
}

double CostModel::PathIOCost(const PathEval& path, double rows) const {
  double cost = 0;
  for (const PathEval::Deref& d : path.derefs) {
    const double fetches = rows * d.per_row * d.uncluster;
    // Creation-order correlation makes a fraction of the fetches behave
    // like a sequential scan of the target: each touched page faults once.
    const double seq_io = std::min(fetches * d.seq, d.target_pages);
    const double rand_io = RandomFetchIO(fetches * (1.0 - d.seq), d.target_pages);
    cost += (seq_io + rand_io) * params_.pr;
  }
  return cost;
}

double CostModel::ExprEvalCost(const PTNode& input, const ExprPtr& e,
                               double rows) const {
  if (e == nullptr) return 0;
  double cost = 0;
  if (e->kind() == ExprKind::kVarPath) {
    int col = -1;
    std::vector<std::string> rest;
    if (input.ResolveVarPath(e->var(), e->path(), &col, &rest) &&
        !rest.empty() && input.cols[col].cls != nullptr) {
      const PathEval pe = EvalPath(input.cols[col].cls, rest);
      if (pe.valid) {
        // Single-step atomic access is free (record is at hand); deeper
        // paths and method calls pay.
        cost += PathIOCost(pe, rows) + pe.cpu_per_row * rows;
      }
    }
  }
  for (const ExprPtr& c : e->children()) {
    cost += ExprEvalCost(input, c, rows);
  }
  return cost;
}

double CostModel::CostEntity(PTNode* node) const {
  const EntityStats& es = stats_->Entity(node->entity);
  node->est_rows = static_cast<double>(es.instances) * FeedbackFactor(*node);
  node->est_pages = static_cast<double>(es.pages);
  // Cost of one sequential scan; re-scans are priced by consumers (EJ).
  node->est_cost = static_cast<double>(es.pages) * params_.pr;
  return node->est_cost;
}

double CostModel::CostDelta(PTNode* node) const {
  // est_rows is preset by the enclosing Fix costing; default conservative.
  if (node->est_rows < 0) node->est_rows = 1;
  node->est_pages = TempPages(node->est_rows, node->cols.size());
  node->est_cost = node->est_pages * params_.pr;
  return node->est_cost;
}

double CostModel::CostSel(PTNode* node, FixMemo* memo) const {
  PTNode* child = node->children[0].get();
  // Measured-cardinality correction: scale the estimated selectivity by the
  // scope's learned factor (a selectivity can never exceed 1).
  const double sel =
      std::min(1.0, Selectivity(*child, node->pred) * FeedbackFactor(*node));

  if (node->sel_access != SelAccess::kSeqScan) {
    // Index access replaces the child's scan entirely (child must be an
    // entity leaf; enforced by the plan builder).
    RODIN_CHECK(child->kind == PTKind::kEntity, "index access needs entity");
    RODIN_CHECK(node->sel_index != nullptr, "index access without index");
    AnnotateRec(child, memo);  // annotate for printing, but do not charge its scan
    const double idx_sel = Selectivity(*child, node->sel_index_pred);
    const double matches = child->est_rows * idx_sel;
    const double leaves =
        std::max(1.0, idx_sel * static_cast<double>(node->sel_index->nbleaves()));
    double cost = (static_cast<double>(node->sel_index->nblevels()) + leaves) *
                  params_.pr;
    // Fetch the matching records: random I/O into the extent.
    cost += RandomFetchIO(matches, child->est_pages) * params_.pr;
    // Residual conjuncts evaluated on the matches.
    cost += matches * params_.ev_tuple +
            ExprEvalCost(*child, node->pred, matches);
    node->est_rows = child->est_rows * sel;
    node->est_pages = std::min(child->est_pages, std::max(1.0, node->est_rows));
    node->est_cost = cost;
    return cost;
  }

  const double child_cost = AnnotateRec(child, memo);
  double cost = child_cost;
  cost += child->est_rows * params_.ev_tuple +
          ExprEvalCost(*child, node->pred, child->est_rows);
  node->est_rows = child->est_rows * sel;
  node->est_pages = std::max(1.0, child->est_pages * sel);
  node->est_cost = cost;
  return cost;
}

double CostModel::CostProj(PTNode* node, FixMemo* memo) const {
  PTNode* child = node->children[0].get();
  const double child_cost = AnnotateRec(child, memo);
  double expr_cost = 0;
  for (const OutCol& c : node->proj) {
    expr_cost += ExprEvalCost(*child, c.expr, child->est_rows);
  }
  double cost = child_cost + expr_cost +
                child->est_rows * params_.ev_tuple * 0.1;
  if (node->dedup) {
    cost += child->est_rows * params_.ev_tuple;  // hash/dedup CPU
  }
  // Statically, dedup passes cardinality through (the statistics carry no
  // duplicate-survival figure); the feedback loop learns the survival rate
  // per output signature and corrects it here.
  node->est_rows = child->est_rows *
                   (node->dedup ? FeedbackFactor(*node) : 1.0);
  node->est_pages = TempPages(node->est_rows, node->cols.size());
  node->est_cost = cost;
  return cost;
}

double CostModel::CostEJ(PTNode* node, FixMemo* memo) const {
  PTNode* left = node->children[0].get();
  PTNode* right = node->children[1].get();
  const double left_cost = AnnotateRec(left, memo);
  const double join_sel =
      std::min(1.0, Selectivity(*node, node->pred) * FeedbackFactor(*node));

  double cost = left_cost;
  if (node->algo == JoinAlgo::kIndexJoin) {
    RODIN_CHECK(right->kind == PTKind::kEntity, "index join needs entity inner");
    RODIN_CHECK(node->join_index != nullptr, "index join without index");
    AnnotateRec(right, memo);  // no scan charge
    const double matches_per_probe =
        right->est_rows /
        std::max(1.0, static_cast<double>(node->join_index->num_distinct_keys()));
    const double idx_pages =
        static_cast<double>(node->join_index->nblevels()) +
        std::max(1.0, matches_per_probe /
                          std::max(1.0, right->est_rows /
                                            std::max<double>(
                                                1.0, node->join_index->nbleaves())));
    const double probes = left->est_rows;
    // Index pages are hot across probes; the record fetches are random.
    cost += RandomFetchIO(probes * idx_pages,
                          static_cast<double>(node->join_index->nbleaves()) +
                              node->join_index->nblevels()) *
            params_.pr;
    cost += RandomFetchIO(probes * matches_per_probe, right->est_pages) *
            params_.pr;
    cost += probes * matches_per_probe * params_.ev_tuple;
    node->est_rows = left->est_rows * right->est_rows * join_sel;
  } else {
    // Nested loop: inner evaluated once per outer row. Entity inners re-scan
    // with buffer discount; non-leaf inners are materialized once and the
    // temp is re-scanned.
    const double right_cost = AnnotateRec(right, memo);
    const double outer_rows = std::max(1.0, left->est_rows);
    if (right->kind == PTKind::kEntity || right->kind == PTKind::kDelta) {
      cost += RescanIO(outer_rows, right->est_pages) * params_.pr;
    } else {
      const double temp_pages = TempPages(right->est_rows, right->cols.size());
      cost += right_cost;  // produce once
      cost += RescanIO(outer_rows, temp_pages) * params_.pr;
      // Over-budget join builds spill their payload to disk.
      cost += SpillPenalty(params_, temp_pages);
    }
    const double pairs = left->est_rows * right->est_rows;
    cost += pairs * params_.ev_tuple + ExprEvalCost(*node, node->pred, pairs);
    node->est_rows = left->est_rows * right->est_rows * join_sel;
  }
  node->est_pages = TempPages(node->est_rows, node->cols.size());
  node->est_cost = cost;
  return cost;
}

double CostModel::CostIJ(PTNode* node, FixMemo* memo) const {
  PTNode* child = node->children[0].get();
  const double child_cost = AnnotateRec(child, memo);
  int col = -1;
  std::vector<std::string> rest;
  RODIN_CHECK(child->ResolveVarPath(node->src_var, {node->attr}, &col, &rest),
              "IJ source unresolvable");
  const ClassDef* src_cls = child->cols[col].cls;
  double cost = child_cost;
  double fanout = FeedbackFactor(*node);  // correction scales the fan-out
  if (src_cls != nullptr && !rest.empty()) {
    // The dereference profile covers Figure 5's access_cost(Ci, Cj): one
    // (clustering- and locality-discounted) fetch per reached object.
    const PathEval pe = EvalPath(src_cls, {node->attr});
    cost += PathIOCost(pe, child->est_rows) + pe.cpu_per_row * child->est_rows;
    fanout *= pe.fanout;
  } else {
    // The column already materializes var.attr (dotted column): the IJ only
    // binds it, fetching the target object's page per row.
    const EntityRef target_ref{node->target->name(), 0, 0};
    const double pages = static_cast<double>(stats_->Entity(target_ref).pages);
    cost += RandomFetchIO(child->est_rows, pages) * params_.pr;
  }
  node->est_rows = std::max(0.0, child->est_rows * fanout);
  node->est_pages = TempPages(node->est_rows, node->cols.size());
  node->est_cost = cost;
  return cost;
}

double CostModel::CostPIJ(PTNode* node, FixMemo* memo) const {
  PTNode* child = node->children[0].get();
  const double child_cost = AnnotateRec(child, memo);
  const PathIndex* idx = node->path_index;
  const EntityRef root_ref{idx->root_class(), 0, 0};
  const double root_instances =
      std::max(1.0, static_cast<double>(stats_->Entity(root_ref).instances));
  // Figure 5: ||C|| * (nblevels + nbleaves / ||C1||).
  const double per_probe =
      static_cast<double>(idx->nblevels()) +
      static_cast<double>(idx->nbleaves()) / root_instances;
  const double idx_total_pages =
      static_cast<double>(idx->nblevels() + idx->nbleaves());
  // Probes arrive roughly in key (oid) order after scans, so the total leaf
  // I/O is bounded by one pass over the index.
  const double probe_io = std::min(
      RandomFetchIO(child->est_rows * per_probe, idx_total_pages),
      idx_total_pages);
  double cost = child_cost + probe_io * params_.pr;
  const double fanout = static_cast<double>(idx->num_entries()) /
                        root_instances * FeedbackFactor(*node);
  node->est_rows = child->est_rows * fanout;
  node->est_pages = TempPages(node->est_rows, node->cols.size());
  node->est_cost = cost;
  return cost;
}

double CostModel::CostUnion(PTNode* node, FixMemo* memo) const {
  double cost = 0;
  double rows = 0;
  for (auto& c : node->children) {
    cost += AnnotateRec(c.get(), memo);
    rows += c->est_rows;
  }
  cost += rows * params_.ev_tuple;  // dedup CPU
  node->est_rows = rows;
  node->est_pages = TempPages(rows, node->cols.size());
  node->est_cost = cost;
  return cost;
}

namespace {

void SetDeltaRows(PTNode* node, const std::string& fix_name, double rows) {
  if (node->kind == PTKind::kDelta && node->fix_name == fix_name) {
    node->est_rows = rows;
  }
  for (auto& c : node->children) SetDeltaRows(c.get(), fix_name, rows);
}

}  // namespace

namespace {

// True when `tree` contains a delta leaf of a fixpoint other than `own`
// (such subtrees depend on the enclosing fixpoint's state: not memoizable).
bool HasForeignDeltaCost(const PTNode& tree, const std::string& own) {
  if (tree.kind == PTKind::kDelta && tree.fix_name != own) return true;
  for (const auto& c : tree.children) {
    if (HasForeignDeltaCost(*c, own)) return true;
  }
  return false;
}

}  // namespace

double CostModel::CostFix(PTNode* node, FixMemo* memo) const {
  // Shared-view memo: a second occurrence of the same fixpoint plan within
  // one Annotate() call costs one scan of its materialization.
  const bool cacheable = !HasForeignDeltaCost(*node, node->fix_name);
  std::string key;
  if (cacheable) {
    key = node->Fingerprint();
    auto it = memo->find(key);
    if (it != memo->end()) {
      node->est_rows = it->second.second;
      node->est_pages = TempPages(node->est_rows, node->cols.size());
      node->est_cost = it->second.first;
      // Children keep whatever estimates a prior annotation left; annotate
      // them for printability without charging.
      for (auto& c : node->children) AnnotateRec(c.get(), memo);
      node->est_cost = it->second.first;
      return node->est_cost;
    }
  }
  PTNode* base = node->children[0].get();
  PTNode* rec = node->children[1].get();
  const double base_cost = AnnotateRec(base, memo);

  const double iters =
      node->est_iters > 0 ? node->est_iters : kDefaultFixIterations;
  // Chain-shaped recursions accumulate ~base * (iters+1)/2 tuples total;
  // the average delta per iteration is closure/iters. The feedback factor
  // corrects the closure size against what runs actually produced.
  const double closure_rows =
      base->est_rows * (iters + 1.0) / 2.0 * FeedbackFactor(*node);
  // Naive evaluation feeds the whole accumulated result back each round
  // (~3/4 of the closure on average) instead of the semi-naive delta.
  const double avg_delta = node->naive_fix
                               ? closure_rows * 0.75
                               : closure_rows / std::max(1.0, iters);

  SetDeltaRows(rec, node->fix_name, avg_delta);
  const double rec_cost_per_iter = AnnotateRec(rec, memo);

  // Figure 5: Fix(T, P) = sum over iterations of cost(Exp(T_i)).
  double cost = base_cost + iters * rec_cost_per_iter;
  // Accumulator dedup (semi-naive new-tuple check) per produced tuple.
  cost += (base->est_rows + iters * std::max(0.0, rec->est_rows)) *
          params_.ev_tuple;
  // Over-budget per-iteration deltas spill their payload to disk.
  cost += iters *
          SpillPenalty(params_, TempPages(avg_delta, node->cols.size()));
  node->est_iters = iters;
  node->est_rows = closure_rows;
  node->est_pages = TempPages(closure_rows, node->cols.size());
  node->est_cost = cost;
  if (cacheable) {
    (*memo)[key] = {node->est_pages * params_.pr, closure_rows};
  }
  return cost;
}

double CostModel::AnnotateRec(PTNode* node, FixMemo* memo) const {
  const double cost = NodeCostRec(node, memo);
  if (params_.parallel_degree <= 1) return cost;
  // Parallel bracket: children are already adjusted (recursion), so divide
  // only this node's marginal work, and charge the startup overhead.
  // Leaves with no children divide fully.
  double children_cost = 0;
  for (const auto& c : node->children) {
    children_cost += std::max(0.0, c->est_cost);
  }
  const double marginal = std::max(0.0, cost - children_cost);
  double adjusted;
  if (node->kind == PTKind::kFix) {
    // Iterations are sequential barriers: the per-iteration work inside the
    // recursive arm is already parallel-adjusted; the loop itself does not
    // divide, and each iteration pays a synchronization overhead.
    const double iters = std::max(1.0, node->est_iters);
    adjusted = cost + kParallelOverhead * params_.parallel_degree * iters;
  } else {
    adjusted = children_cost + marginal / params_.parallel_degree +
               kParallelOverhead * params_.parallel_degree;
  }
  node->est_cost = adjusted;
  return adjusted;
}

double CostModel::NodeCostRec(PTNode* node, FixMemo* memo) const {
  switch (node->kind) {
    case PTKind::kEntity:
      return CostEntity(node);
    case PTKind::kDelta:
      return CostDelta(node);
    case PTKind::kSel:
      return CostSel(node, memo);
    case PTKind::kProj:
      return CostProj(node, memo);
    case PTKind::kEJ:
      return CostEJ(node, memo);
    case PTKind::kIJ:
      return CostIJ(node, memo);
    case PTKind::kPIJ:
      return CostPIJ(node, memo);
    case PTKind::kUnion:
      return CostUnion(node, memo);
    case PTKind::kFix:
      return CostFix(node, memo);
  }
  return 0;
}

double CostModel::Annotate(PTNode* node) const {
  RODIN_CHECK(node != nullptr, "null plan");
  FixMemo memo;  // per-call: a const CostModel is shareable across threads
  return AnnotateRec(node, &memo);
}

}  // namespace rodin
