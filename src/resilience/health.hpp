#pragma once
/// \file health.hpp
/// \brief Cheap per-iteration numeric-health checks with a rollback trend.
///
/// The monitor answers one question after each solver iteration: is this
/// state worth keeping? It scans factors/lambda for non-finite entries
/// (O(sum of factor entries), the same order as the normalize pass the
/// solvers already run), rejects non-finite fit/RMSE, and tracks a
/// loss trend: an iteration that regresses clearly past the best loss seen
/// counts against a patience budget, and exhausting it flags divergence.
/// ALS-family sweeps are monotone in exact arithmetic, so the "clearly"
/// margin (50% worse residual than the best) never fires on a healthy run —
/// guards are on by default and must not perturb bit-identical f64 output.

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "resilience/resilience.hpp"

namespace sptd {

class HealthMonitor {
 public:
  HealthMonitor() = default;
  HealthMonitor(bool enabled, int patience)
      : enabled_(enabled), patience_(patience) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Inspects one completed iteration. \p loss is a lower-is-better score
  /// (1 - fit for decompositions, train RMSE for completion); pass NaN-free
  /// +inf semantics by simply not calling observe_loss — use kNoLoss when
  /// the run computes no fit. Returns the first issue found.
  HealthIssue inspect(const std::vector<la::Matrix>& factors,
                      const std::vector<val_t>& lambda, double loss);

  /// Sentinel loss for runs that skip fit computation.
  static constexpr double kNoLoss = -1.0;

  /// Seeds the loss trend from a restored history of losses (resume path),
  /// so divergence patience carries over a restart.
  void seed_trend(double best_loss);

  /// Forgets the regression streak after a rollback (the restored state
  /// predates the bad steps), keeping the best loss seen.
  void reset_streak();

  /// Forgets everything (best loss and streak). run_iterations() calls
  /// this on every restore and reseeds the trend from the restored
  /// history, so after a distributed rejoin survivors (with stale
  /// pre-crash trend state) and a freshly respawned rank make identical
  /// health decisions during replay — a divergent decision would
  /// desynchronize the collectives.
  void reset() {
    best_loss_ = std::numeric_limits<double>::infinity();
    bad_streak_ = 0;
  }

 private:
  bool enabled_ = true;
  int patience_ = 3;
  double best_loss_ = std::numeric_limits<double>::infinity();
  int bad_streak_ = 0;
};

/// Lowest loss (1 - fit) over a fit history; +inf when empty.
double best_fit_loss(const std::vector<double>& fit_history);

/// Multiplicatively jitters every factor entry by up to \p scale, drawing
/// from \p rng — the "perturb" half of rollback-and-perturb, nudging a
/// restored iterate off the trajectory that just failed.
void perturb_factors(std::vector<la::Matrix>& factors, Rng& rng,
                     double scale = 1e-3);

}  // namespace sptd
