#pragma once
/// \file solver.hpp
/// \brief The pluggable completion-solver interface.
///
/// `complete_tensor` owns the epoch loop (RMSE tracking, early stopping,
/// best-model restore); a `CompletionSolver` owns one training pass. The
/// three shipped solvers — ALS, stratified SGD, CCD++ — live in
/// solver_als.cpp / solver_sgd.cpp / solver_ccd.cpp and share a
/// `CompletionWorkspace`. Future optimizers (streaming, distributed
/// completion) plug in here: implement run_epoch() over the workspace's
/// slice views and register in make_completion_solver().

#include <memory>
#include <vector>

#include "completion/completion.hpp"
#include "completion/workspace.hpp"
#include "cpd/kruskal.hpp"

namespace sptd {

/// One completion optimizer: stateless between runs except what it keeps
/// in the shared workspace.
class CompletionSolver {
 public:
  virtual ~CompletionSolver() = default;

  /// Flag/log name ("als" / "sgd" / "ccd").
  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once with the initialized model before the first epoch
  /// (CCD++ computes its residual here).
  virtual void begin(const KruskalModel& model) { (void)model; }

  /// One pass over the training data, updating \p model in place.
  /// \p epoch counts from 0 (SGD derives its decayed step size and its
  /// per-epoch shuffle seeds from it).
  virtual void run_epoch(KruskalModel& model, int epoch) = 0;

  /// Writes the solver-private state that must ride a checkpoint (and the
  /// rollback snapshot) for bitwise resume into \p out, reusing its
  /// storage. ALS is stateless between epochs; SGD carries its stratum
  /// permutation; CCD++ its incrementally maintained residual, which a
  /// recompute would only match to rounding error. Default: none.
  virtual void serialize_state(std::vector<double>& out) const {
    out.clear();
  }

  /// Restores state captured by serialize_state(). Called after begin().
  virtual void restore_state(const std::vector<double>& state) {
    (void)state;
  }
};

/// Instantiates the solver options.algorithm names over \p workspace.
/// The workspace (and the training tensor it references) must outlive the
/// returned solver.
std::unique_ptr<CompletionSolver> make_completion_solver(
    CompletionWorkspace& workspace);

namespace detail {

/// The solver registry: one factory per solver_*.cpp translation unit.
std::unique_ptr<CompletionSolver> make_als_solver(CompletionWorkspace& ws);
std::unique_ptr<CompletionSolver> make_sgd_solver(CompletionWorkspace& ws);
std::unique_ptr<CompletionSolver> make_ccd_solver(CompletionWorkspace& ws);

}  // namespace detail

}  // namespace sptd
