#include "api/plan_cache.h"

#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "optimizer/transform.h"

namespace rodin {

namespace {

obs::Counter* CacheCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

void BumpHits() { CacheCounter("rodin.plan_cache.hits")->Increment(); }
void BumpMisses() { CacheCounter("rodin.plan_cache.misses")->Increment(); }
void BumpInserts() { CacheCounter("rodin.plan_cache.inserts")->Increment(); }
void BumpEvictions(uint64_t n) {
  CacheCounter("rodin.plan_cache.evictions")->Add(n);
}
void BumpInvalidations(uint64_t n) {
  CacheCounter("rodin.plan_cache.invalidations")->Add(n);
}

}  // namespace

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {}

PlanCacheEntry PlanCache::CopyEntry(const PlanCacheEntry& e) {
  PlanCacheEntry out;
  out.plan = e.plan != nullptr ? e.plan->Clone() : nullptr;
  out.cost = e.cost;
  out.plans_explored = e.plans_explored;
  out.stages = e.stages;
  out.decisions = e.decisions;
  out.pushed_sel = e.pushed_sel;
  out.pushed_join = e.pushed_join;
  out.pushed_proj = e.pushed_proj;
  out.pushed_variant_cost = e.pushed_variant_cost;
  out.unpushed_variant_cost = e.unpushed_variant_cost;
  out.stats_version = e.stats_version;
  return out;
}

bool PlanCache::Lookup(const std::string& key, uint64_t stats_version,
                       PlanCacheEntry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    BumpMisses();
    return false;
  }
  if (it->second.first.stats_version != stats_version) {
    // Written under other statistics: the plan may no longer be the one the
    // optimizer would choose. Drop it; the caller re-optimizes.
    lru_.erase(it->second.second);
    entries_.erase(it);
    ++stats_.invalidations;
    BumpInvalidations(1);
    ++stats_.misses;
    BumpMisses();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.second);  // move to front
  *out = CopyEntry(it->second.first);
  ++stats_.hits;
  BumpHits();
  return true;
}

void PlanCache::Insert(const std::string& key, PlanCacheEntry entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.second);
    it->second.first = std::move(entry);
  } else {
    lru_.push_front(key);
    entries_.emplace(key, std::make_pair(std::move(entry), lru_.begin()));
    while (entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
      BumpEvictions(1);
    }
  }
  ++stats_.inserts;
  BumpInserts();
}

bool PlanCache::Erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  lru_.erase(it->second.second);
  entries_.erase(it);
  ++stats_.demotions;
  CacheCounter("rodin.plan_cache.demotions")->Increment();
  return true;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t dropped = entries_.size();
  entries_.clear();
  lru_.clear();
  stats_.invalidations += dropped;
  BumpInvalidations(dropped);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string GraphDigest(const QueryGraph& graph) {
  // The canonical rendering covers every semantic component of the graph:
  // per-node inputs, path variables, predicate, projection and output name.
  // It is conservative — alpha-equivalent graphs with different variable
  // names digest differently (a false miss, never a false hit).
  return graph.ToString() + "\nanswer=" + graph.answer;
}

std::string PhysicalIdentity(const Database& db) {
  std::string out = "physical{";
  const PhysicalConfig& cfg = db.config();
  out += StrFormat("buffer=%zu;", cfg.buffer_pages);
  for (const auto& [name, bytes] : cfg.record_bytes_override) {
    out += StrFormat("rec(%s)=%llu;", name.c_str(),
                     static_cast<unsigned long long>(bytes));
  }
  for (const ClusterSpec& c : cfg.clustering) {
    out += "cluster(" + c.owner_class + "." + c.attr + ");";
  }
  for (const VerticalSpec& v : cfg.vertical) {
    out += "vertical(" + v.class_name + ":";
    for (const auto& group : v.groups) out += "[" + Join(group, ",") + "]";
    out += ");";
  }
  for (const HorizontalSpec& h : cfg.horizontal) {
    out += StrFormat("horizontal(%s.%s:%u);", h.extent_name.c_str(),
                     h.attr.c_str(), h.num_fragments);
  }
  for (const SelIndexSpec& s : cfg.sel_indexes) {
    out += "selindex(" + s.extent_name + "." + s.attr + ");";
  }
  for (const PathIndexSpec& p : cfg.path_indexes) {
    out += "pathindex(" + p.root_class + "." + p.PathString() + ");";
  }
  // Per-extent population: the optimizer's statistics derive from the data,
  // so two databases that differ in content must not share entries. Page
  // and instance counts are a cheap, layout-sensitive content summary.
  const Schema& schema = db.schema();
  auto add_extent = [&](const std::string& name) {
    const Extent* e = db.FindExtent(name);
    if (e == nullptr) return;
    out += StrFormat("extent(%s:%u recs,%llu pages,%uv,%uh);", name.c_str(),
                     e->size(),
                     static_cast<unsigned long long>(
                         db.EntityPages(EntityRef{name, 0, 0})),
                     e->num_vfrags(), e->num_hfrags());
  };
  for (const auto& c : schema.classes()) add_extent(c->name());
  for (const auto& r : schema.relations()) add_extent(r->name());
  out += "}";
  return out;
}

std::string PlanFingerprint(const QueryGraph& graph, const Database& db,
                            const CostParams& cost_params,
                            const OptimizerOptions& options,
                            const std::string* graph_digest) {
  return ComposeFingerprint(
      graph_digest != nullptr ? *graph_digest : GraphDigest(graph),
      PhysicalIdentity(db), cost_params, options);
}

std::string ComposeFingerprint(const std::string& graph_digest,
                               const std::string& physical_identity,
                               const CostParams& cost_params,
                               const OptimizerOptions& options) {
  std::string key = graph_digest;
  key += "\n";
  key += physical_identity;
  key += StrFormat(
      "\ncost{pr=%.17g;ev=%.17g;mw=%.17g;pd=%u;mbp=%llu}", cost_params.pr,
      cost_params.ev_tuple, cost_params.method_weight,
      cost_params.parallel_degree,
      static_cast<unsigned long long>(cost_params.memory_budget_pages));
  const TransformOptions& t = options.transform;
  key += StrFormat(
      "\nopt{gen=%s;seed=%llu;fold=%d;naive=%d;always=%d;never=%d;rand=%s;"
      "moves=%zu;stop=%zu;restarts=%zu}",
      GenStrategyName(options.gen_strategy),
      static_cast<unsigned long long>(options.seed),
      options.fold_views ? 1 : 0, options.naive_fixpoint ? 1 : 0,
      t.always_push ? 1 : 0, t.never_push ? 1 : 0, RandStrategyName(t.rand),
      t.rand_moves, t.rand_local_stop, t.rand_restarts);
  return key;
}

}  // namespace rodin
