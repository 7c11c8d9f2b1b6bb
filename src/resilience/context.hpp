#pragma once
/// \file context.hpp
/// \brief ResilienceContext and run_iterations() — the one resilient
///        iteration loop every iterative driver runs.
///
/// A driver supplies its sweep and a few hooks; run_iterations() owns the
/// rest:
///
///   resume (newest checkpoint, if --resume)
///   while (it < max_iterations && !stopped) {
///     sweep → inject faults → loss → health inspect
///     unhealthy: consume a retry (throws when exhausted), resume from the
///                last healthy snapshot, perturb, fix up, repeat
///     healthy:   accept, snapshot, checkpoint when due
///   }
///   finish (copy counters out)
///
/// The "last healthy" snapshot is a Checkpoint filled by the driver's own
/// save hook, so rollback, --resume and on-disk checkpoints share one
/// serialization per driver: a rollback *is* a resume from the snapshot,
/// except that the recovery RNG keeps running (rewinding it would repeat
/// the same perturbation on every retry).
///
/// The retry budget is per incident: consecutive failed recoveries count
/// against --max-retries, and one healthy iteration resets the streak.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "resilience/health.hpp"
#include "resilience/resilience.hpp"

namespace sptd {

class ResilienceContext;

/// What run_iterations() needs from a driver. Every member must be set.
struct IterationHooks {
  /// The model state the fault injector corrupts, the health scan checks
  /// and rollback perturbs (lambda may be empty).
  std::vector<la::Matrix>* factors = nullptr;
  const std::vector<val_t>* lambda = nullptr;
  /// Runs iteration \p it (0-based), updating the model in place.
  std::function<void(int it)> sweep;
  /// Lower-is-better score of the swept model (HealthMonitor::kNoLoss when
  /// the run computes none). \p corrupted: the injector changed factors.
  std::function<double(int it, bool corrupted)> loss;
  /// Records healthy iteration \p it; true stops the run (tolerance).
  std::function<bool(int it)> accept;
  /// Writes the driver's state into \p ck (iteration is already set).
  /// Must copy-assign so a long-lived snapshot reuses its storage.
  std::function<void(Checkpoint& ck)> save;
  /// Validates shapes, installs \p ck's state and rebuilds derived state.
  std::function<void(const Checkpoint& ck)> restore;
  /// Lowest loss in the installed history (+inf when empty); seeds the
  /// health trend after a restore.
  std::function<double()> best_loss;
  /// Restores invariants the jitter broke (f32 rounding,
  /// orthonormality, Grams, solver state).
  std::function<void()> after_perturb;
};

/// Runs iterations until \p max_iterations complete or accept() stops the
/// run, and copies the counters into \p out. \p start, when given, is the
/// state to begin from instead of --resume (the distributed rejoin path).
/// Returns the number of completed iterations. Throws ResilienceError when
/// the retry budget is exhausted.
int run_iterations(ResilienceContext& ctx, const IterationHooks& hooks,
                   int max_iterations, ResilienceCounters& out,
                   const Checkpoint* start = nullptr);

class ResilienceContext {
 public:
  /// \p kind names the driver ("cpals", "tucker", "completion", "dist") and
  /// keys checkpoint filenames; \p seed derives the recovery-jitter RNG.
  ResilienceContext(const ResilienceOptions& opts, const char* kind,
                    std::uint64_t seed);

  FaultInjector* injector() {
    return injector_ ? &*injector_ : nullptr;
  }
  Rng& recovery_rng() { return recovery_rng_; }
  ResilienceCounters& counters() { return counters_; }

 private:
  friend int run_iterations(ResilienceContext&, const IterationHooks&, int,
                            ResilienceCounters&, const Checkpoint*);

  /// Loads the newest valid checkpoint when --resume is set; records
  /// counters.resumed_from and restores the recovery RNG. Returns nullopt
  /// on a fresh start (resume with an empty dir is a fresh start, not an
  /// error, so "always pass --resume" is a safe operational habit).
  std::optional<Checkpoint> try_resume();

  [[nodiscard]] bool checkpoint_due(int completed) const {
    return manager_.due(completed);
  }

  /// Stamps kind + RNG state into \p ck and writes it (failures counted,
  /// non-fatal).
  void save_checkpoint(Checkpoint& ck);

  /// Handles a detected health issue: consumes one retry and returns when
  /// the caller should roll back; throws ResilienceError once the
  /// consecutive-retry budget is exhausted. \p iteration is the 0-based
  /// iteration that failed.
  void fail_or_retry(HealthIssue issue, int iteration);

  /// Marks an iteration that passed inspection; resets the retry streak.
  void note_healthy() { consecutive_retries_ = 0; }

  /// Samples the Tikhonov bump delta and copies counters into \p out.
  void finish(ResilienceCounters& out);

  ResilienceOptions opts_;
  std::string kind_;
  CheckpointManager manager_;
  HealthMonitor health_;
  std::optional<FaultInjector> injector_;
  Rng recovery_rng_;
  ResilienceCounters counters_;
  int consecutive_retries_ = 0;
  std::uint64_t bumps_at_start_ = 0;
};

}  // namespace sptd
