#ifndef RODIN_API_ENGINE_H_
#define RODIN_API_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/plan_cache.h"
#include "api/session.h"
#include "common/status.h"
#include "cost/params.h"
#include "datagen/generated_db.h"
#include "optimizer/optimizer.h"
#include "storage/database.h"

namespace rodin {

/// Everything needed to stand up one engine instance: which synthetic
/// dataset to generate, how big, which optimizer baseline, and how the
/// sessions spawned from it are configured. This is the *single*
/// construction path of the embedding API — rodin_cli, rodin_serve, the
/// load driver and the tests all build their engine through
/// EngineHandle::Create, so "what does a server/CLI/test engine look like"
/// has exactly one answer.
struct EngineOptions {
  /// Synthetic dataset: "music", "parts" or "graph" (see src/datagen/).
  std::string dataset = "music";
  /// Scale knob: composers (music), parts-per-level/5 (parts), nodes
  /// (graph) — the same mapping rodin_cli always used.
  uint32_t size = 200;
  /// Data-generation seed.
  uint64_t seed = 42;
  /// Optimizer baseline: "cost", "deductive", "naive", "exhaustive" or
  /// "annealing" (see optimizer/baseline.h). The optimizer seed defaults to
  /// the data seed, matching rodin_cli.
  std::string optimizer = "cost";
  /// transformPT search parallelism for sessions (OptimizerOptions).
  size_t search_threads = 1;
  /// Cost-model parallel degree (CostParams::parallel_degree).
  unsigned parallel_degree = 1;
  /// Capacity of the shared plan cache all sessions draw from.
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
};

/// One constructed engine: the generated database plus the session-shared
/// state (plan cache, optimizer/cost configuration). Sessions created via
/// NewSession() share the database, its buffer pool and one plan cache —
/// the multiplexing unit the server builds on. Thread-safety: the handle
/// itself is immutable after Create; Sessions are single-threaded but many
/// may run concurrently over the shared database (the buffer pool and plan
/// cache are internally synchronized).
class EngineHandle {
 public:
  /// Validates `options`, generates the dataset and assembles the shared
  /// state. Returns null (and fills *status) on an unknown dataset or
  /// optimizer name — kInvalidArgument, never an abort, so servers can
  /// refuse bad configuration gracefully.
  static std::unique_ptr<EngineHandle> Create(const EngineOptions& options,
                                              Status* status);

  Database* db() { return generated_.db.get(); }
  const Schema& schema() const { return *generated_.schema; }
  const EngineOptions& options() const { return options_; }
  const OptimizerOptions& optimizer_options() const { return opt_options_; }
  const CostParams& cost_params() const { return cost_params_; }
  const std::shared_ptr<PlanCache>& plan_cache() const { return plan_cache_; }
  /// The adaptive-feedback registry every session from this handle shares —
  /// the same sharing unit as the plan cache, so one tenant's measured
  /// cardinalities correct every tenant's estimates (see cost/feedback.h).
  const std::shared_ptr<FeedbackRegistry>& feedback_registry() const {
    return feedback_;
  }

  /// A new session over the shared database and plan cache. The handle must
  /// outlive every session (and every cursor) it hands out.
  std::unique_ptr<Session> NewSession();

  /// Engine-wide statistics refresh: bumps the database's TxnManager stats
  /// version, so *every* session over this engine lazily re-derives its
  /// statistics on next use and the shared plan cache drops entries
  /// fingerprinted under the old version. Commits do this automatically;
  /// this is the explicit hook.
  void RefreshStats();

 private:
  EngineHandle(EngineOptions options, GeneratedDb generated,
               OptimizerOptions opt_options, CostParams cost_params);

  EngineOptions options_;
  GeneratedDb generated_;
  OptimizerOptions opt_options_;
  CostParams cost_params_;
  std::shared_ptr<PlanCache> plan_cache_;
  std::shared_ptr<FeedbackRegistry> feedback_;
};

}  // namespace rodin

#endif  // RODIN_API_ENGINE_H_
