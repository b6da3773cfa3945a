#include "txn/materialized_fix.h"

#include <deque>

#include "common/check.h"
#include "storage/database.h"

namespace rodin {

namespace {

/// Counts saturate here instead of overflowing; saturation permanently
/// degrades the view to membership mode (counts stop being trustworthy for
/// exact deletes, membership stays correct).
constexpr uint64_t kCountCap = 1ULL << 62;

}  // namespace

void MaterializedFix::AddPair(Oid s, Oid t, uint64_t c) {
  auto& cell = fwd_[s][t];
  if (cell == 0) ++num_pairs_;
  if (cell > kCountCap - c) {
    cell = kCountCap;
    exact_ = false;
  } else {
    cell += c;
  }
  rev_[t][s] = cell;
}

void MaterializedFix::SubPair(Oid s, Oid t, uint64_t c) {
  auto fit = fwd_.find(s);
  RODIN_CHECK(fit != fwd_.end(), "closure pair missing on delete");
  auto cit = fit->second.find(t);
  RODIN_CHECK(cit != fit->second.end(), "closure pair missing on delete");
  RODIN_CHECK(cit->second >= c, "closure count underflow");
  cit->second -= c;
  if (cit->second == 0) {
    fit->second.erase(cit);
    rev_[t].erase(s);
    --num_pairs_;
  } else {
    rev_[t][s] = cit->second;
  }
}

bool MaterializedFix::Contains(Oid s, Oid t) const {
  auto fit = fwd_.find(s);
  if (fit == fwd_.end()) return false;
  return fit->second.count(t) > 0;
}

std::vector<std::pair<Oid, Oid>> MaterializedFix::Pairs() const {
  std::vector<std::pair<Oid, Oid>> out;
  out.reserve(num_pairs_);
  for (const auto& [s, row] : fwd_) {
    for (const auto& [t, c] : row) {
      (void)c;
      out.emplace_back(s, t);
    }
  }
  return out;
}

void MaterializedFix::InsertEdgeExact(Oid a, Oid b) {
  // New paths s => a -> b => t: C(s,a) * C(b,t) of them per (s, t), with
  // C(x,x) := 1 for the endpoints themselves. The graph is acyclic and
  // (b, a) is not in the closure, so b never appears among the sources nor
  // a among the targets — the snapshots are stable while we add.
  std::vector<std::pair<Oid, uint64_t>> sources{{a, 1}};
  if (auto it = rev_.find(a); it != rev_.end()) {
    for (const auto& [s, c] : it->second) sources.emplace_back(s, c);
  }
  std::vector<std::pair<Oid, uint64_t>> targets{{b, 1}};
  if (auto it = fwd_.find(b); it != fwd_.end()) {
    for (const auto& [t, c] : it->second) targets.emplace_back(t, c);
  }
  for (const auto& [s, cs] : sources) {
    for (const auto& [t, ct] : targets) {
      uint64_t c;
      if (ct != 0 && cs > kCountCap / ct) {
        c = kCountCap;
        exact_ = false;
      } else {
        c = cs * ct;
      }
      AddPair(s, t, c);
    }
  }
}

void MaterializedFix::DeleteEdgeExact(Oid a, Oid b) {
  // Mirror of InsertEdgeExact with pre-removal counts: in a DAG no s => a
  // or b => t segment can itself use the edge (a, b) (it would revisit a or
  // b), so the segment counts are already net of it.
  std::vector<std::pair<Oid, uint64_t>> sources{{a, 1}};
  if (auto it = rev_.find(a); it != rev_.end()) {
    for (const auto& [s, c] : it->second) sources.emplace_back(s, c);
  }
  std::vector<std::pair<Oid, uint64_t>> targets{{b, 1}};
  if (auto it = fwd_.find(b); it != fwd_.end()) {
    for (const auto& [t, c] : it->second) targets.emplace_back(t, c);
  }
  for (const auto& [s, cs] : sources) {
    for (const auto& [t, ct] : targets) {
      SubPair(s, t, cs * ct);
    }
  }
}

void MaterializedFix::InsertEdgeSemiNaive(Oid a, Oid b) {
  // Membership mode: seed with all s => a -> b => t combinations, then
  // propagate through the edge set until no new pair appears (cycles make
  // the single-step combination insufficient, hence the worklist).
  std::deque<std::pair<Oid, Oid>> work;
  auto candidate = [&](Oid x, Oid y) {
    if (!Contains(x, y)) {
      AddPair(x, y, 1);
      work.emplace_back(x, y);
    }
  };
  std::vector<Oid> srcs{a};
  if (auto it = rev_.find(a); it != rev_.end()) {
    for (const auto& [s, c] : it->second) {
      (void)c;
      srcs.push_back(s);
    }
  }
  std::vector<Oid> tgts{b};
  if (auto it = fwd_.find(b); it != fwd_.end()) {
    for (const auto& [t, c] : it->second) {
      (void)c;
      tgts.push_back(t);
    }
  }
  for (Oid s : srcs) {
    for (Oid t : tgts) candidate(s, t);
  }
  while (!work.empty()) {
    const auto [x, y] = work.front();
    work.pop_front();
    if (auto it = radj_.find(x); it != radj_.end()) {
      for (const auto& [u, c] : it->second) {
        (void)c;
        candidate(u, y);
      }
    }
    if (auto it = adj_.find(y); it != adj_.end()) {
      for (const auto& [w, c] : it->second) {
        (void)c;
        candidate(x, w);
      }
    }
  }
}

void MaterializedFix::DeleteEdgesDRed(
    const std::vector<std::pair<Oid, Oid>>& gone) {
  // Over-delete: every pair that *could* depend on a removed edge (a, b) —
  // s reaches a and b reaches t in the pre-delete closure.
  std::set<std::pair<Oid, Oid>> overdeleted;
  for (const auto& [a, b] : gone) {
    std::vector<Oid> srcs{a};
    if (auto it = rev_.find(a); it != rev_.end()) {
      for (const auto& [s, c] : it->second) {
        (void)c;
        srcs.push_back(s);
      }
    }
    std::vector<Oid> tgts{b};
    if (auto it = fwd_.find(b); it != fwd_.end()) {
      for (const auto& [t, c] : it->second) {
        (void)c;
        tgts.push_back(t);
      }
    }
    for (Oid s : srcs) {
      for (Oid t : tgts) {
        if (Contains(s, t)) overdeleted.insert({s, t});
      }
    }
  }
  for (const auto& [s, t] : overdeleted) {
    fwd_[s].erase(t);
    rev_[t].erase(s);
    --num_pairs_;
  }
  // Rederive to fixpoint: a deleted pair (s, t) comes back if some edge
  // s -> w still proves it (w == t, or (w, t) currently holds — including
  // pairs restored by an earlier round).
  std::set<std::pair<Oid, Oid>> restored;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& p : overdeleted) {
      if (restored.count(p) > 0) continue;
      const auto [s, t] = p;
      auto it = adj_.find(s);
      if (it == adj_.end()) continue;
      for (const auto& [w, c] : it->second) {
        (void)c;
        if (w == t || Contains(w, t)) {
          AddPair(s, t, 1);
          restored.insert(p);
          changed = true;
          break;
        }
      }
    }
  }
}

void MaterializedFix::RecomputeFromGraph() {
  fwd_.clear();
  rev_.clear();
  num_pairs_ = 0;

  std::set<Oid> nodes;
  for (const auto& [u, row] : adj_) {
    if (row.empty()) continue;
    nodes.insert(u);
    for (const auto& [w, c] : row) {
      (void)c;
      nodes.insert(w);
    }
  }

  // Kahn's algorithm decides the mode: a topological order exists => exact
  // counting DP; otherwise membership BFS per node.
  std::map<Oid, uint32_t> indeg;
  for (Oid u : nodes) indeg[u] = 0;
  for (const auto& [u, row] : adj_) {
    (void)u;
    for (const auto& [w, c] : row) {
      (void)c;
      ++indeg[w];
    }
  }
  std::vector<Oid> order;
  std::deque<Oid> ready;
  for (const auto& [u, d] : indeg) {
    if (d == 0) ready.push_back(u);
  }
  while (!ready.empty()) {
    const Oid u = ready.front();
    ready.pop_front();
    order.push_back(u);
    if (auto it = adj_.find(u); it != adj_.end()) {
      for (const auto& [w, c] : it->second) {
        (void)c;
        if (--indeg[w] == 0) ready.push_back(w);
      }
    }
  }

  if (order.size() == nodes.size()) {
    exact_ = true;
    // Reverse topological order: C(u, t) = sum over edges u -> w of
    // [w == t] + C(w, t).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Oid u = *it;
      auto ait = adj_.find(u);
      if (ait == adj_.end()) continue;
      std::map<Oid, uint64_t> acc;
      for (const auto& [w, c] : ait->second) {
        (void)c;
        acc[w] += 1;
        if (auto fit = fwd_.find(w); fit != fwd_.end()) {
          for (const auto& [t, ct] : fit->second) {
            uint64_t& cell = acc[t];
            cell = cell > kCountCap - ct ? kCountCap : cell + ct;
          }
        }
      }
      for (const auto& [t, c] : acc) AddPair(u, t, c);
    }
  } else {
    exact_ = false;
    for (Oid u : nodes) {
      // BFS over >= 1 edge, so (u, u) appears exactly when u is on a cycle.
      std::set<Oid> seen;
      std::deque<Oid> q;
      if (auto it = adj_.find(u); it != adj_.end()) {
        for (const auto& [w, c] : it->second) {
          (void)c;
          if (seen.insert(w).second) q.push_back(w);
        }
      }
      while (!q.empty()) {
        const Oid x = q.front();
        q.pop_front();
        if (auto it = adj_.find(x); it != adj_.end()) {
          for (const auto& [w, c] : it->second) {
            (void)c;
            if (seen.insert(w).second) q.push_back(w);
          }
        }
      }
      for (Oid t : seen) AddPair(u, t, 1);
    }
  }
}

void MaterializedFix::EdgesOfRecord(
    const Database& db, Oid oid, const std::vector<Value>& rec,
    std::vector<std::pair<Oid, Oid>>* out) const {
  if (!spec_.src_attr.empty()) {
    const int fs = db.FieldIndex(spec_.extent, spec_.src_attr);
    const int fd = db.FieldIndex(spec_.extent, spec_.dst_attr);
    RODIN_CHECK(fs >= 0 && fd >= 0, "materialized fix attrs vanished");
    const Value& vs = rec[fs];
    const Value& vd = rec[fd];
    if (vs.is_ref() && vd.is_ref()) out->emplace_back(vs.AsRef(), vd.AsRef());
    return;
  }
  const int fd = db.FieldIndex(spec_.extent, spec_.dst_attr);
  RODIN_CHECK(fd >= 0, "materialized fix attr vanished");
  const Value& v = rec[fd];
  if (v.is_ref()) {
    out->emplace_back(oid, v.AsRef());
  } else if (v.is_collection()) {
    for (const Value& ev : v.AsCollection().elems) {
      if (ev.is_ref()) out->emplace_back(oid, ev.AsRef());
    }
  }
}

void MaterializedFix::ExtractEdges(
    const Database& db, std::vector<std::pair<Oid, Oid>>* edges) const {
  const Extent* e = db.FindExtent(spec_.extent);
  RODIN_CHECK(e != nullptr, "materialized fix extent vanished");
  for (uint32_t s = 0; s < e->size(); ++s) {
    if (!e->alive(s)) continue;
    const Oid oid = db.PayloadToOid(spec_.extent, s);
    EdgesOfRecord(db, oid, e->Record(s), edges);
  }
}

FixMaintenance MaterializedFix::Recompute(const Database& db) {
  std::vector<std::pair<Oid, Oid>> edges;
  ExtractEdges(db, &edges);
  adj_.clear();
  radj_.clear();
  for (const auto& [a, b] : edges) {
    ++adj_[a][b];
    ++radj_[b][a];
  }
  RecomputeFromGraph();
  FixMaintenance rep;
  rep.incremental = false;
  return rep;
}

FixMaintenance MaterializedFix::ApplyDelta(
    const std::vector<std::pair<Oid, Oid>>& removed,
    const std::vector<std::pair<Oid, Oid>>& added) {
  FixMaintenance rep;
  const uint64_t before = num_pairs_;

  // Removals first: decrement edge support; only support hitting zero
  // touches the closure.
  std::vector<std::pair<Oid, Oid>> zeroed;
  for (const auto& [a, b] : removed) {
    auto ait = adj_.find(a);
    RODIN_CHECK(ait != adj_.end() && ait->second.count(b) > 0,
                "delta removes unknown edge");
    if (--ait->second[b] == 0) {
      ait->second.erase(b);
      radj_[b].erase(a);
      zeroed.push_back({a, b});
    } else {
      --radj_[b][a];
    }
  }
  if (!zeroed.empty()) {
    if (exact_) {
      for (const auto& [a, b] : zeroed) DeleteEdgeExact(a, b);
    } else {
      DeleteEdgesDRed(zeroed);
      rep.dred = true;
    }
  }

  for (const auto& [a, b] : added) {
    uint32_t& cnt = adj_[a][b];
    ++cnt;
    ++radj_[b][a];
    if (cnt != 1) continue;  // edge already present, closure unchanged
    if (exact_) {
      if (a == b || Contains(b, a)) {
        // This edge closes a cycle: counts stop being meaningful, degrade
        // (permanently) to membership mode — still incremental.
        exact_ = false;
        InsertEdgeSemiNaive(a, b);
      } else {
        InsertEdgeExact(a, b);
      }
    } else {
      InsertEdgeSemiNaive(a, b);
    }
  }

  rep.pairs_added = num_pairs_ > before ? num_pairs_ - before : 0;
  rep.pairs_removed = before > num_pairs_ ? before - num_pairs_ : 0;
  return rep;
}

Status MaterializedFixRegistry::Register(const MaterializedFixSpec& spec,
                                         const Database& db) {
  auto invalid = [](std::string msg) {
    return Status::Error(Status::Code::kInvalidArgument, std::move(msg));
  };
  if (spec.name.empty()) return invalid("materialized fix needs a name");
  if (Find(spec.name) != nullptr) {
    return invalid("materialized fix '" + spec.name + "' already exists");
  }
  if (db.FindExtent(spec.extent) == nullptr) {
    return invalid("materialized fix over unknown extent '" + spec.extent +
                   "'");
  }
  if (!spec.src_attr.empty() &&
      db.FieldIndex(spec.extent, spec.src_attr) < 0) {
    return invalid("materialized fix src attribute '" + spec.src_attr +
                   "' unknown on '" + spec.extent + "'");
  }
  if (db.FieldIndex(spec.extent, spec.dst_attr) < 0) {
    return invalid("materialized fix dst attribute '" + spec.dst_attr +
                   "' unknown on '" + spec.extent + "'");
  }
  auto view = std::make_unique<MaterializedFix>(spec);
  view->Recompute(db);
  views_.push_back(std::move(view));
  return Status::Ok();
}

Status MaterializedFixRegistry::Drop(const std::string& name) {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if ((*it)->name() == name) {
      views_.erase(it);
      return Status::Ok();
    }
  }
  return Status::Error(Status::Code::kInvalidArgument,
                       "no materialized fix named '" + name + "'");
}

const MaterializedFix* MaterializedFixRegistry::Find(
    const std::string& name) const {
  for (const auto& v : views_) {
    if (v->name() == name) return v.get();
  }
  return nullptr;
}

std::vector<std::string> MaterializedFixRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& v : views_) out.push_back(v->name());
  return out;
}

std::vector<MaterializedFixRegistry::ViewDeltas>
MaterializedFixRegistry::PrepareDeltas(const Database& db,
                                       const MutationBatch& batch) const {
  std::vector<ViewDeltas> out(views_.size());
  for (size_t i = 0; i < views_.size(); ++i) {
    const MaterializedFix& view = *views_[i];
    // Apply permits several update ops on one record (distinct fields), so
    // dedupe by target oid: each record's pre-image contributes its edges
    // exactly once or the delta would double-remove them.
    std::set<Oid> affected;
    for (const MutationOp& op : batch.ops) {
      if (op.extent != view.spec().extent) continue;
      if (op.kind == MutationOpKind::kInsert) continue;
      // The batch has not been validated yet (Database::Apply does that
      // under the commit gate); skip unresolvable targets — Apply will
      // reject the batch and these deltas will be discarded.
      const Extent* e = db.FindExtent(op.extent);
      if (e == nullptr || !e->alive(op.target.slot)) continue;
      if (db.PayloadToOid(op.extent, op.target.slot).class_id !=
          op.target.class_id) {
        continue;
      }
      if (op.kind == MutationOpKind::kUpdate) {
        bool relevant = false;
        for (const auto& [attr, v] : op.values) {
          (void)v;
          if (view.AttrRelevant(attr)) relevant = true;
        }
        if (!relevant) continue;
      }
      affected.insert(op.target);
    }
    if (affected.empty()) continue;
    const Extent* e = db.FindExtent(view.spec().extent);
    for (const Oid& oid : affected) {
      view.EdgesOfRecord(db, oid, e->Record(oid.slot), &out[i].removed);
    }
  }
  return out;
}

uint64_t MaterializedFixRegistry::Maintain(const Database& db,
                                           const MutationBatch& batch,
                                           const std::vector<Oid>& new_oids,
                                           std::vector<ViewDeltas> deltas,
                                           bool* used_incremental) {
  RODIN_CHECK(deltas.size() == views_.size(), "delta/view mismatch");
  // Phase B: edges created by inserts and (post-image) updates. Like
  // PrepareDeltas, dedupe by oid per view — several update ops may hit one
  // record, whose (single) post-image must contribute its edges once.
  std::vector<std::set<Oid>> affected(views_.size());
  size_t insert_idx = 0;
  for (const MutationOp& op : batch.ops) {
    Oid oid = op.target;
    if (op.kind == MutationOpKind::kInsert) {
      RODIN_CHECK(insert_idx < new_oids.size(), "insert oid list too short");
      oid = new_oids[insert_idx++];
    } else if (op.kind == MutationOpKind::kDelete) {
      continue;
    }
    for (size_t i = 0; i < views_.size(); ++i) {
      const MaterializedFix& view = *views_[i];
      if (op.extent != view.spec().extent) continue;
      if (op.kind == MutationOpKind::kUpdate) {
        bool relevant = false;
        for (const auto& [attr, v] : op.values) {
          (void)v;
          if (view.AttrRelevant(attr)) relevant = true;
        }
        if (!relevant) continue;
      }
      affected[i].insert(oid);
    }
  }
  for (size_t i = 0; i < views_.size(); ++i) {
    if (affected[i].empty()) continue;
    const Extent* e = db.FindExtent(views_[i]->spec().extent);
    for (const Oid& oid : affected[i]) {
      views_[i]->EdgesOfRecord(db, oid, e->Record(oid.slot),
                               &deltas[i].added);
    }
  }

  // An update that leaves the edge set alone would otherwise ping-pong the
  // closure (delete then re-derive the same pairs): cancel matching
  // removed/added edges first.
  auto cancel = [](std::vector<std::pair<Oid, Oid>>* removed,
                   std::vector<std::pair<Oid, Oid>>* added) {
    std::multiset<std::pair<Oid, Oid>> adds(added->begin(), added->end());
    std::vector<std::pair<Oid, Oid>> keep;
    for (const auto& e : *removed) {
      auto it = adds.find(e);
      if (it != adds.end()) {
        adds.erase(it);
      } else {
        keep.push_back(e);
      }
    }
    *removed = std::move(keep);
    added->assign(adds.begin(), adds.end());
  };

  uint64_t maintained = 0;
  for (size_t i = 0; i < views_.size(); ++i) {
    cancel(&deltas[i].removed, &deltas[i].added);
    if (deltas[i].removed.empty() && deltas[i].added.empty()) continue;
    ++maintained;
    if (policy_ == FixMaintenancePolicy::kRecompute) {
      views_[i]->Recompute(db);
      if (used_incremental != nullptr) *used_incremental = false;
    } else {
      views_[i]->ApplyDelta(deltas[i].removed, deltas[i].added);
    }
  }
  return maintained;
}

}  // namespace rodin
