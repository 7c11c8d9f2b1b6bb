/// \file solver_sgd.cpp
/// \brief Stratified stochastic gradient descent for tensor completion.
///
/// Per observed entry x with error e = X_x - Σ_r Π_m A(m)(x_m, r), every
/// touched factor row steps along its gradient:
///   a_m ← a_m + lr · (e · h_m - λ a_m),   h_m = ⊙_{m'≠m} a_{m'}
/// with lr decayed per epoch as learn_rate / (1 + decay · epoch).
///
/// Parallelism is stratified (no hogwild races, bitwise deterministic at
/// a fixed thread count): the workspace cuts every mode into S blocks
/// with the weighted nnz partition and buckets nonzeros by the resulting
/// cell. A sub-epoch hands thread t cell (t, t+s_1, ..., t+s_{N-1}) mod
/// S — distinct blocks in EVERY mode across threads, so no factor row is
/// ever shared — and the S^(N-1) sub-epochs of an epoch cover all cells
/// exactly once. Each cell's entries are reshuffled once per epoch by a
/// generator seeded from (seed, epoch, cell), so trajectories are
/// reproducible from the seed alone.

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "completion/solver.hpp"
#include "la/kernels.hpp"
#include "parallel/team.hpp"

namespace sptd {
namespace {

namespace kern = la::kern;

/// Scratch-row layout inside the per-thread workspace matrix
/// (3 * order + 3 rows, see CompletionWorkspace):
///   [0, order)          copies of the touched rows (the gradient point)
///   [order, 2*order)    h_m — products of the *other* modes' rows
///   [2*order, 3*order)  suffix products
///   3*order, 3*order+1  prefix ping-pong
///   3*order + 2         the all-ones row (padding lanes zero)
/// \p vals is the canonical-order value stream (\p x indexes original
/// nnz ids) — fp64 under f64 precision, the workspace's fp32 copy under
/// f32/mixed; the error term widens at the read and stays fp64.
template <idx_t W, typename StoreT>
void sgd_update(const SparseTensor& t, const StoreT* SPTD_RESTRICT vals,
                nnz_t x, std::vector<la::Matrix>& factors,
                la::Matrix& scratch, idx_t rank, int order, val_t lr,
                val_t reg) {
  using Ops = kern::RowOps<W>;
  const auto old_row = [&](int m) {
    return scratch.row_ptr(static_cast<idx_t>(m));
  };
  const auto other_row = [&](int m) {
    return scratch.row_ptr(static_cast<idx_t>(order + m));
  };
  const auto suffix_row = [&](int m) {
    return scratch.row_ptr(static_cast<idx_t>(2 * order + m));
  };
  const val_t* ones = scratch.row_ptr(static_cast<idx_t>(3 * order + 2));

  for (int m = 0; m < order; ++m) {
    Ops::copy(old_row(m),
              factors[static_cast<std::size_t>(m)].row_ptr(t.ind(m)[x]),
              rank);
  }
  // Suffix products: suf[m] = old[m+1] ⊙ ... ⊙ old[order-1].
  const val_t* suf[kMaxOrder];
  suf[order - 1] = ones;
  for (int m = order - 2; m >= 0; --m) {
    Ops::mul(suffix_row(m), old_row(m + 1), suf[m + 1], rank);
    suf[m] = suffix_row(m);
  }
  // Prefix sweep: h_m = pre ⊙ suf[m], pre accumulating old rows through a
  // ping-pong pair (the RowOps primitives never alias in with out).
  const val_t* pre = ones;
  val_t* ping = scratch.row_ptr(static_cast<idx_t>(3 * order));
  val_t* pong = scratch.row_ptr(static_cast<idx_t>(3 * order + 1));
  for (int m = 0; m < order; ++m) {
    Ops::mul(other_row(m), pre, suf[m], rank);
    if (m + 1 < order) {
      Ops::mul(ping, pre, old_row(m), rank);
      pre = ping;
      std::swap(ping, pong);
    }
  }

  const val_t e =
      static_cast<val_t>(vals[x]) - Ops::dot(other_row(0), old_row(0), rank);
  for (int m = 0; m < order; ++m) {
    val_t* row = factors[static_cast<std::size_t>(m)].row_ptr(t.ind(m)[x]);
    Ops::axpy(row, other_row(m), lr * e, rank);
    Ops::axpy(row, old_row(m), -lr * reg, rank);
  }
}

class SgdSolver final : public CompletionSolver {
 public:
  explicit SgdSolver(CompletionWorkspace& ws) : ws_(ws) {
    // Seed every thread's all-ones scratch row once (logical lanes only;
    // the padding stays zero so fixed-width products stay exact).
    const idx_t rank = ws.options().rank;
    const auto ones_row = static_cast<idx_t>(3 * ws.order() + 2);
    for (int t = 0; t < ws.nthreads(); ++t) {
      std::fill_n(ws.scratch(t).row_ptr(ones_row), rank, val_t{1});
    }
  }

  [[nodiscard]] const char* name() const override { return "sgd"; }

  /// The per-epoch Fisher-Yates shuffles below permute cell_ids in place,
  /// so every epoch's visit order depends on all earlier epochs' shuffles.
  /// That permutation is therefore solver state: a resume must restore it,
  /// or the first recomputed epoch shuffles from the canonical bucketed
  /// order and the trajectory silently diverges from the unkilled run.
  void serialize_state(std::vector<double>& out) const override {
    const std::vector<nnz_t>& ids = ws_.strata().cell_ids;
    out.assign(ids.begin(), ids.end());
  }

  void restore_state(const std::vector<double>& state) override {
    std::vector<nnz_t>& ids = ws_.strata().cell_ids;
    SPTD_CHECK(state.size() == ids.size(),
               "sgd restore_state: permutation length mismatch");
    for (std::size_t i = 0; i < state.size(); ++i) {
      ids[i] = static_cast<nnz_t>(state[i]);
    }
  }

  void run_epoch(KruskalModel& model, int epoch) override {
    const CompletionOptions& opts = ws_.options();
    const SparseTensor& t = ws_.train();
    StratumGrid& grid = ws_.strata();
    const int order = ws_.order();
    const idx_t rank = opts.rank;
    const auto side = static_cast<nnz_t>(grid.side);
    const auto lr = static_cast<val_t>(
        opts.learn_rate /
        (1.0 + opts.decay * static_cast<double>(epoch)));
    const auto reg = static_cast<val_t>(opts.regularization);

    nnz_t sub_epochs = 1;
    for (int m = 1; m < order; ++m) {
      sub_epochs *= side;
    }
    for (nnz_t s = 0; s < sub_epochs; ++s) {
      parallel_region(ws_.nthreads(), [&](int tid, int) {
        if (static_cast<nnz_t>(tid) >= side) {
          return;  // threads beyond the stratum side idle this pass
        }
        // Cell for this (thread, sub-epoch): block_0 = tid and
        // block_m = (tid + digit_m(s)) mod S, folded mode-major exactly
        // as the grid encoded it.
        nnz_t cell = static_cast<nnz_t>(tid);
        nnz_t rem = s;
        for (int m = 1; m < order; ++m) {
          const nnz_t offset = rem % side;
          rem /= side;
          cell = cell * side + (static_cast<nnz_t>(tid) + offset) % side;
        }
        const nnz_t lo = grid.cell_ptr[static_cast<std::size_t>(cell)];
        const nnz_t hi = grid.cell_ptr[static_cast<std::size_t>(cell) + 1];
        if (lo == hi) {
          return;
        }
        // Every cell is visited exactly once per epoch, so shuffling at
        // visit time is the per-epoch shuffle — seeded per (seed, epoch,
        // cell), independent of which thread runs it.
        Rng shuffle(opts.seed +
                    0x9E3779B97F4A7C15ULL *
                        (static_cast<std::uint64_t>(epoch) + 1) +
                    cell);
        nnz_t* ids = grid.cell_ids.data() + lo;
        const nnz_t n = hi - lo;
        for (nnz_t i = n - 1; i > 0; --i) {
          std::swap(ids[i], ids[shuffle.next_below(i + 1)]);
        }
        la::Matrix& scratch = ws_.scratch(tid);
        const bool narrow = opts.precision != Precision::kF64;
        kern::dispatch_width(ws_.kernel_width(), [&](auto wc) {
          const auto run = [&](const auto* SPTD_RESTRICT vals) {
            for (nnz_t i = 0; i < n; ++i) {
              sgd_update<decltype(wc)::value>(t, vals, ids[i],
                                              model.factors, scratch, rank,
                                              order, lr, reg);
            }
          };
          if (narrow) {
            run(ws_.train_vals_f32().data());
          } else {
            run(t.vals().data());
          }
        });
      });
    }
  }

 private:
  CompletionWorkspace& ws_;
};

}  // namespace

namespace detail {

std::unique_ptr<CompletionSolver> make_sgd_solver(CompletionWorkspace& ws) {
  return std::make_unique<SgdSolver>(ws);
}

}  // namespace detail
}  // namespace sptd
