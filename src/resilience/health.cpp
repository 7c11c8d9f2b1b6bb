#include "resilience/health.hpp"

#include <algorithm>
#include <cmath>

namespace sptd {

namespace {

bool all_finite(const la::Matrix& m) {
  for (idx_t i = 0; i < m.rows(); ++i) {
    const val_t* row = m.row_ptr(i);
    for (idx_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(row[j])) return false;
    }
  }
  return true;
}

}  // namespace

HealthIssue HealthMonitor::inspect(const std::vector<la::Matrix>& factors,
                                   const std::vector<val_t>& lambda,
                                   double loss) {
  if (!enabled_) return HealthIssue::kNone;

  for (const val_t l : lambda) {
    if (!std::isfinite(l)) return HealthIssue::kNonFiniteFactor;
  }
  for (const la::Matrix& f : factors) {
    if (!all_finite(f)) return HealthIssue::kNonFiniteFactor;
  }

  if (loss == kNoLoss) return HealthIssue::kNone;
  if (!std::isfinite(loss)) return HealthIssue::kNonFiniteLoss;

  if (loss < best_loss_) {
    best_loss_ = loss;
    bad_streak_ = 0;
    return HealthIssue::kNone;
  }
  // "Clearly regressing": 50% worse than the best loss seen, plus an
  // absolute slack so a loss hovering at machine-epsilon scale never trips.
  const double threshold = best_loss_ * 1.5 + 1e-6;
  if (loss > threshold) {
    if (++bad_streak_ >= patience_) return HealthIssue::kDivergence;
  } else {
    bad_streak_ = 0;
  }
  return HealthIssue::kNone;
}

void HealthMonitor::seed_trend(double best_loss) {
  if (std::isfinite(best_loss) && best_loss < best_loss_) {
    best_loss_ = best_loss;
  }
  bad_streak_ = 0;
}

void HealthMonitor::reset_streak() { bad_streak_ = 0; }

double best_fit_loss(const std::vector<double>& fit_history) {
  double best = std::numeric_limits<double>::infinity();
  for (const double f : fit_history) best = std::min(best, 1.0 - f);
  return best;
}

void perturb_factors(std::vector<la::Matrix>& factors, Rng& rng,
                     double scale) {
  for (la::Matrix& f : factors) {
    for (idx_t i = 0; i < f.rows(); ++i) {
      val_t* row = f.row_ptr(i);
      for (idx_t j = 0; j < f.cols(); ++j) {
        row[j] *= static_cast<val_t>(
            1.0 + scale * (2.0 * rng.next_double() - 1.0));
      }
    }
  }
}

}  // namespace sptd
