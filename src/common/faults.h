#ifndef RODIN_COMMON_FAULTS_H_
#define RODIN_COMMON_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace rodin {

/// Fault-injection configuration. Off by default; enabled by the
/// RODIN_FAULTS environment variable or programmatically (tests).
///
/// RODIN_FAULTS grammar:
///   unset, "" or "0"      — disabled
///   "1"                   — enabled with the defaults below
///   "k=v,k=v,..."         — enabled with overrides (every item must be a
///                           known key whose value parses completely as
///                           the key's type; see ParseEnvValue), e.g.
///                           "page_fetch=0.01,alloc=0.005,seed=7,max=3,
///                            stage=3,fix_iter=2"
/// Keys: page_fetch (probability a page fetch fails with kFault),
/// alloc (probability a temp-file allocation fails with kFault),
/// seed (RNG seed), max (cap on total injected faults, 0 = unlimited),
/// stage (force kDeadlineExceeded when optimizer stage N starts, 1-based,
/// -1 = off), fix_iter (force kDeadlineExceeded when semi-naive iteration N
/// starts, 1-based, -1 = off).
struct FaultConfig {
  bool enabled = false;
  double page_fetch_fail = 0.01;
  double alloc_fail = 0.005;
  uint64_t seed = 0x5eedfau;
  /// Stop injecting after this many faults (0 = unlimited). Lets tests
  /// force exactly one fault and then observe a clean retry.
  uint64_t max_faults = 0;
  int force_deadline_stage = -1;     // 1-based optimizer stage, -1 = off
  int force_deadline_fix_iter = -1;  // 1-based fixpoint iteration, -1 = off
};

/// Process-global fault injector. Probabilistic decisions draw from one
/// atomic splitmix64 stream, so they are thread-safe; the *sequence* of
/// faults is deterministic for a fixed seed only under single-threaded
/// execution, which is why the injection sites all live on the coordinator
/// thread (page-fetch faults fire at batch boundaries, alloc faults at
/// temp-file allocation — never inside worker morsels).
///
/// The injector is consulted only where ExecOptions::inject_faults /
/// OptimizerOptions wiring turned it on — Session's non-streaming paths.
/// Raw Executor use (differential tests, benches) and streaming cursors
/// never inject, so RODIN_FAULTS=1 leaves their behaviour untouched.
class FaultInjector {
 public:
  /// The singleton, configured from RODIN_FAULTS on first use.
  static FaultInjector& Global();

  /// Replaces the configuration and resets the RNG and fault counter.
  void Configure(const FaultConfig& config);

  /// Re-reads RODIN_FAULTS (test hook; also used by Global() once). A value
  /// ParseEnvValue rejects stops the process with its message.
  void ConfigureFromEnv();

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// True if this page fetch should fail with kFault.
  bool InjectPageFetchFault();

  /// True if this temp-file allocation should fail with kFault.
  bool InjectAllocFault();

  /// True if a forced deadline fires at the start of optimizer stage
  /// `stage` (1-based).
  bool ForceDeadlineAtStage(int stage) const;

  /// True if a forced deadline fires at the start of semi-naive iteration
  /// `iter` (1-based).
  bool ForceDeadlineAtFixIter(int iter) const;

  /// Total faults injected since the last Configure().
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }

  /// Parses a RODIN_FAULTS value into *out. An item that is not
  /// "known_key=number" (unknown key, missing '=', a number with trailing
  /// characters, a negative seed/max, an out-of-range value) is
  /// kInvalidArgument naming the item, and *out is left untouched. Exposed
  /// for tests.
  static Status ParseEnvValue(const std::string& value, FaultConfig* out);

 private:
  FaultInjector();

  /// Draws a uniform double in [0,1) and charges one fault against
  /// max_faults if it is below `probability`.
  bool Draw(double probability);

  FaultConfig config_;
  std::atomic<uint64_t> rng_state_{0};
  std::atomic<uint64_t> faults_{0};
};

}  // namespace rodin

#endif  // RODIN_COMMON_FAULTS_H_
