/// \file solver_ccd.cpp
/// \brief CCD++ (cyclic coordinate descent) for tensor completion.
///
/// CCD++ (Yu et al., scaled from matrix to tensor completion as in
/// SPLATT) sweeps the model one rank-one component at a time: for each
/// column r, each mode m in turn updates every row's scalar coordinate
/// in closed form,
///   a_ir ← (Σ_{x ∈ slice i} (res_x + a_ir·h_x) · h_x) / (λ + Σ h_x²),
/// where h_x is the product of the *other* modes' r-column entries and
/// res is the full residual X_x - model(x), maintained incrementally: a
/// row update folds its own delta into the residuals of its slice, whose
/// entries no other row of the pass touches — so the per-mode passes run
/// over the cached `SliceSchedule`s with no locks and residuals never
/// need a separate synchronization sweep. The residual lives in ONE
/// canonical-order array; each mode view reaches it through its `canon`
/// permutation.
///
/// The per-rank inner loops are scalar by nature (stride-R column
/// gathers); the O(nnz·R) residual initialization is where the rank-wide
/// work lives, and it runs through the `RowOps<W>` primitives.

#include <algorithm>

#include "completion/solver.hpp"
#include "la/kernels.hpp"
#include "parallel/team.hpp"

namespace sptd {
namespace {

namespace kern = la::kern;

class CcdSolver final : public CompletionSolver {
 public:
  explicit CcdSolver(CompletionWorkspace& ws) : ws_(ws) {
    // All-ones scratch row (row 2): reduces a Hadamard product row to its
    // lane sum through the same dot primitive the other solvers use.
    const idx_t rank = ws.options().rank;
    for (int t = 0; t < ws.nthreads(); ++t) {
      std::fill_n(ws.scratch(t).row_ptr(2), rank, val_t{1});
    }
  }

  [[nodiscard]] const char* name() const override { return "ccd"; }

  /// The incrementally maintained residual IS the solver state: a resumed
  /// run must see the exact array the interrupted run carried, not a
  /// recompute (which differs in the low bits and would break bitwise
  /// resume).
  void serialize_state(std::vector<double>& out) const override {
    const aligned_vector<val_t>& res = ws_.residual();
    out.assign(res.begin(), res.end());
  }

  void restore_state(const std::vector<double>& state) override {
    aligned_vector<val_t>& res = ws_.residual();
    SPTD_CHECK(state.size() == res.size(),
               "ccd restore_state: residual length mismatch");
    for (std::size_t i = 0; i < state.size(); ++i) {
      res[i] = static_cast<val_t>(state[i]);
    }
  }

  /// res_x = X_x - model(x) over the canonical nonzero order, distributed
  /// by the workspace's whole-nonzero schedule. Under f32/mixed precision
  /// the observed values come from the workspace's fp32 canonical copy
  /// (widened at the read); the residual itself is always fp64.
  void begin(const KruskalModel& model) override {
    const SparseTensor& t = ws_.train();
    const idx_t rank = ws_.options().rank;
    const int order = ws_.order();
    aligned_vector<val_t>& res = ws_.residual();
    const SliceSchedule& schedule = ws_.nnz_schedule();
    schedule.reset();
    const auto init_pass = [&](const auto* SPTD_RESTRICT vals) {
      parallel_region(ws_.nthreads(), [&](int tid, int) {
        la::Matrix& scratch = ws_.scratch(tid);
        val_t* SPTD_RESTRICT h = scratch.row_ptr(0);
        const val_t* ones = scratch.row_ptr(2);
        kern::dispatch_width(ws_.kernel_width(), [&](auto wc) {
          using Ops = kern::RowOps<decltype(wc)::value>;
          schedule.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
            for (nnz_t x = begin; x < end; ++x) {
              Ops::copy(h, model.factors[0].row_ptr(t.ind(0)[x]), rank);
              for (int m = 1; m < order; ++m) {
                Ops::hadamard(
                    h,
                    model.factors[static_cast<std::size_t>(m)].row_ptr(
                        t.ind(m)[x]),
                    rank);
              }
              res[x] =
                  static_cast<val_t>(vals[x]) - Ops::dot(h, ones, rank);
            }
          });
        });
      });
    };
    if (ws_.options().precision != Precision::kF64) {
      init_pass(ws_.train_vals_f32().data());
    } else {
      init_pass(t.vals().data());
    }
  }

  void run_epoch(KruskalModel& model, int /*epoch*/) override {
    const idx_t rank = ws_.options().rank;
    for (idx_t r = 0; r < rank; ++r) {
      for (int m = 0; m < ws_.order(); ++m) {
        column_pass(model, m, r);
      }
    }
  }

 private:
  /// One closed-form update of column \p r of mode \p m, rows distributed
  /// by the cached schedule; folds the deltas into the shared residual.
  void column_pass(KruskalModel& model, int mode, idx_t r) {
    const ModeSlices& ms = ws_.mode_slices(mode);
    const SparseTensor& t = ms.grouped;
    const int order = ws_.order();
    const auto reg = static_cast<val_t>(ws_.options().regularization);
    la::Matrix& target = model.factors[static_cast<std::size_t>(mode)];
    aligned_vector<val_t>& res = ws_.residual();

    ms.schedule.reset();
    parallel_region(ws_.nthreads(), [&](int tid, int) {
      aligned_vector<val_t>& buf = ws_.slice_buffer(tid);
      ms.schedule.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t i = begin; i < end; ++i) {
          const nnz_t lo = ms.slice_ptr[i];
          const nnz_t hi = ms.slice_ptr[static_cast<std::size_t>(i) + 1];
          if (lo == hi) {
            continue;  // unobserved row keeps its current value
          }
          if (buf.size() < hi - lo) {
            buf.resize(hi - lo);
          }
          const val_t a = target.row_ptr(static_cast<idx_t>(i))[r];
          val_t num = 0;  // Σ res·h (h cached for the writeback pass)
          val_t den = 0;  // Σ h²
          for (nnz_t x = lo; x < hi; ++x) {
            val_t h = 1;
            for (int m = 0; m < order; ++m) {
              if (m == mode) continue;
              h *= model.factors[static_cast<std::size_t>(m)].row_ptr(
                  t.ind(m)[x])[r];
            }
            buf[x - lo] = h;
            num += res[ms.canon[x]] * h;
            den += h * h;
          }
          const val_t full_den = reg + den;
          if (!(full_den > 0)) {
            continue;  // λ = 0 and no signal: keep the current value
          }
          const val_t a_new = (num + a * den) / full_den;
          const val_t delta = a_new - a;
          target.row_ptr(static_cast<idx_t>(i))[r] = a_new;
          for (nnz_t x = lo; x < hi; ++x) {
            res[ms.canon[x]] -= delta * buf[x - lo];
          }
        }
      });
    });
  }

  CompletionWorkspace& ws_;
};

}  // namespace

namespace detail {

std::unique_ptr<CompletionSolver> make_ccd_solver(CompletionWorkspace& ws) {
  return std::make_unique<CcdSolver>(ws);
}

}  // namespace detail
}  // namespace sptd
