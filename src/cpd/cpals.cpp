#include "cpd/cpals.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/kernels.hpp"
#include "la/norms.hpp"
#include "mttkrp/plan.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "resilience/context.hpp"

namespace sptd {

const std::vector<ImplVariant>& impl_variants() {
  static const std::vector<ImplVariant> variants = {
      // The reference C/OpenMP SPLATT code paths.
      {"c", RowAccess::kPointer, LockKind::kOmp, SortVariant::kAllOpts},
      // The port before any optimization: slices, sync vars, naive sort.
      {"chapel-initial", RowAccess::kSlice, LockKind::kSync,
       SortVariant::kInitial},
      // The port after the paper's optimization campaign.
      {"chapel-optimize", RowAccess::kPointer, LockKind::kAtomic,
       SortVariant::kAllOpts},
  };
  return variants;
}

const ImplVariant& find_impl_variant(const std::string& name) {
  for (const auto& v : impl_variants()) {
    if (v.name == name) {
      return v;
    }
  }
  throw Error("unknown implementation variant '" + name +
              "' (expected c|chapel-initial|chapel-optimize)");
}

void apply_impl_variant(const ImplVariant& variant, CpalsOptions& opts) {
  opts.row_access = variant.row_access;
  opts.lock_kind = variant.lock_kind;
  opts.sort_variant = variant.sort_variant;
}

namespace detail {

/// <X, Z> via the MTTKRP identity: Σ_r λ_r Σ_i M(i,r)·A(i,r), where M is
/// the final mode's MTTKRP output (computed against the other updated
/// factors) and A the updated, normalized final factor.
val_t fit_inner_product(const la::Matrix& mttkrp_out, const la::Matrix& a,
                        std::span<const val_t> lambda, int nthreads,
                        PrivateBuffers& partials) {
  const idx_t rank = a.cols();
  SPTD_CHECK(partials.nthreads() >= nthreads &&
                 partials.length() >= static_cast<nnz_t>(rank),
             "fit_inner_product: scratch too small");
  // Column-wise Frobenius products, parallel over rows; the per-thread
  // partial rows live in caller-owned scratch reused across iterations.
  partials.clear(nthreads);
  parallel_region(nthreads, [&](int tid, int nt) {
    val_t* part = partials.buffer(tid).data();
    const Range rows = block_partition(a.rows(), nt, tid);
    for (nnz_t i = rows.begin; i < rows.end; ++i) {
      const val_t* mrow = mttkrp_out.row_ptr(static_cast<idx_t>(i));
      const val_t* arow = a.row_ptr(static_cast<idx_t>(i));
      la::kern::hadamard_accum(part, mrow, arow, rank);
    }
  });
  std::vector<val_t> col_sums(rank, val_t{0});
  for (int t = 0; t < nthreads; ++t) {
    const val_t* part = partials.buffer(t).data();
    for (idx_t r = 0; r < rank; ++r) {
      col_sums[r] += part[r];
    }
  }
  val_t inner = 0;
  for (idx_t r = 0; r < rank; ++r) {
    inner += lambda[r] * col_sums[r];
  }
  return inner;
}

/// λ^T (⊙ grams) λ.
val_t model_norm_sq(const std::vector<la::Matrix>& grams,
                    std::span<const val_t> lambda) {
  const idx_t rank = grams.front().rows();
  la::Matrix had(rank, rank);
  la::gram_hadamard(grams, /*skip=*/-1, had);
  val_t acc = 0;
  for (idx_t i = 0; i < rank; ++i) {
    for (idx_t j = 0; j < rank; ++j) {
      acc += lambda[i] * lambda[j] * had(i, j);
    }
  }
  return acc < val_t{0} ? val_t{0} : acc;
}

}  // namespace detail

CpalsResult cp_als_csf(const CsfSet& csf_set, val_t tensor_norm_sq,
                       const CpalsOptions& options) {
  SPTD_CHECK(options.rank >= 1, "cp_als: rank must be >= 1");
  SPTD_CHECK(options.max_iterations >= 1, "cp_als: need >= 1 iteration");
  SPTD_CHECK(options.nthreads >= 1, "cp_als: nthreads must be >= 1");
  set_parallel_backend(options.backend);
  init_parallel_runtime();

  const CsfTensor& first = csf_set.csfs().front();
  const dims_t& dims = first.dims();
  const int order = first.order();
  const idx_t rank = options.rank;
  const int nthreads = options.nthreads;

  CpalsResult result;
  result.csf_bytes = csf_set.memory_bytes();
  result.value_bytes = csf_set.value_bytes(options.precision);
  RoutineTimers& timers = result.timers;

  // Factor initialization: uniform [0,1), deterministic in the seed.
  Rng rng(options.seed);
  KruskalModel& model = result.model;
  model.lambda.assign(rank, val_t{1});
  model.factors.reserve(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    model.factors.push_back(
        la::Matrix::random(dims[static_cast<std::size_t>(m)], rank, rng));
  }

  // Gram matrices A^T A for every mode. A restore recomputes them from the
  // installed factors — la::ata is deterministic, so they match the
  // uninterrupted run's Grams bitwise.
  std::vector<la::Matrix> grams;
  grams.reserve(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    grams.emplace_back(rank, rank);
  }
  const auto refresh_grams = [&] {
    timers.start(Routine::kMatAtA);
    for (int m = 0; m < order; ++m) {
      la::ata(model.factors[static_cast<std::size_t>(m)],
              grams[static_cast<std::size_t>(m)], nthreads);
    }
    timers.stop(Routine::kMatAtA);
  };
  refresh_grams();

  MttkrpOptions mopts;
  mopts.nthreads = nthreads;
  mopts.row_access = options.row_access;
  mopts.lock_kind = options.lock_kind;
  mopts.schedule = options.schedule;
  mopts.chunk_target = options.chunk_target;
  mopts.privatization_threshold = options.privatization_threshold;
  mopts.force_locks = options.force_locks;
  mopts.allow_privatization = options.allow_privatization;
  mopts.use_fixed_kernels = options.use_fixed_kernels;
  mopts.csf_layout = options.csf_layout;
  mopts.precision = options.precision;
  mopts.backend = options.backend;
  // All scheduling decisions — representation/level per mode, sync
  // strategy, slice bounds, tile boundaries, reduction buffers — are
  // frozen here; the iteration loop below is pure execution.
  MttkrpPlan plan(csf_set, rank, mopts);

  la::Matrix v(rank, rank);
  la::Matrix fit_m;  // last mode's MTTKRP output, kept for the fit
  // Per-thread fit scratch, allocated once for the whole run (the fit is
  // computed every iteration; its reduction buffers must not be).
  PrivateBuffers fit_partials(nthreads, static_cast<nnz_t>(rank));
  double fit = 0.0;
  double prev_fit = 0.0;

  IterationHooks hooks;
  hooks.factors = &model.factors;
  hooks.lambda = &model.lambda;
  hooks.sweep = [&](int it) {
    for (int m = 0; m < order; ++m) {
      la::Matrix& factor = model.factors[static_cast<std::size_t>(m)];
      const idx_t m_dim = dims[static_cast<std::size_t>(m)];

      // M = X_(m) (A_{N-1} ⊙ ... ⊙ A_{m+1} ⊙ A_{m-1} ⊙ ... ) — MTTKRP.
      la::Matrix out_view(m_dim, rank);
      timers.start(Routine::kMttkrp);
      plan.execute(model.factors, m, out_view);
      timers.stop(Routine::kMttkrp);

      // The fit consumes the final mode's MTTKRP result; keep a copy
      // before the in-place solve overwrites it (M never involves the
      // mode's own factor, so the post-update fit identity still holds).
      if (m == order - 1 && options.compute_fit) {
        timers.start(Routine::kFit);
        fit_m = out_view;
        timers.stop(Routine::kFit);
      }

      // V = ⊙_{n != m} grams[n]  (lines 4/7/10).
      timers.start(Routine::kMatAtA);
      la::gram_hadamard(grams, m, v);
      timers.stop(Routine::kMatAtA);

      // A(m) = M V^{-1}  (Moore–Penrose via Cholesky; lines 5/8/11).
      timers.start(Routine::kInverse);
      la::solve_normal_equations(v, out_view, nthreads);
      timers.stop(Routine::kInverse);

      if (options.nonnegative) {
        // Projected ALS: clamp to the non-negative orthant.
        parallel_region(nthreads, [&](int tid, int nt) {
          const Range rows = block_partition(out_view.size(), nt, tid);
          val_t* data = out_view.data();
          for (nnz_t i = rows.begin; i < rows.end; ++i) {
            if (data[i] < val_t{0}) {
              data[i] = val_t{0};
            }
          }
        });
      }
      factor = std::move(out_view);

      // Column normalization (lines 6/9/12): 2-norm first iteration,
      // max-norm afterwards (SPLATT's scheme).
      timers.start(Routine::kMatNorm);
      la::normalize_columns(factor, model.lambda,
                            it == 0 ? la::MatNorm::kTwo : la::MatNorm::kMax,
                            nthreads);
      timers.stop(Routine::kMatNorm);

      // Pure-f32 mode: the factor master itself carries only fp32
      // information (the ablation endpoint the mixed mode is judged
      // against). Rounding after normalization keeps λ and the Grams
      // consistent with what the next MTTKRP streams.
      if (options.precision == Precision::kF32) {
        la::round_through_f32(factor);
      }

      // Refresh this mode's Gram matrix.
      timers.start(Routine::kMatAtA);
      la::ata(factor, grams[static_cast<std::size_t>(m)], nthreads);
      timers.stop(Routine::kMatAtA);
    }
  };
  hooks.loss = [&](int, bool) {
    if (!options.compute_fit) return HealthMonitor::kNoLoss;
    // Fit (line 13): 1 - ||X - Z||_F / ||X||_F via the sparse identity.
    timers.start(Routine::kFit);
    const val_t inner = detail::fit_inner_product(
        fit_m, model.factors[static_cast<std::size_t>(order - 1)],
        model.lambda, nthreads, fit_partials);
    const val_t norm_z = detail::model_norm_sq(grams, model.lambda);
    val_t residual_sq = tensor_norm_sq + norm_z - 2 * inner;
    if (residual_sq < val_t{0}) residual_sq = 0;
    fit = (tensor_norm_sq > val_t{0})
              ? 1.0 - std::sqrt(static_cast<double>(residual_sq)) /
                          std::sqrt(static_cast<double>(tensor_norm_sq))
              : 0.0;
    timers.stop(Routine::kFit);
    return 1.0 - fit;
  };
  hooks.accept = [&](int it) {
    if (!options.compute_fit) return false;
    result.fit_history.push_back(fit);
    const bool converged = options.tolerance > 0.0 && it > 0 &&
                           std::abs(fit - prev_fit) < options.tolerance;
    prev_fit = fit;
    return converged;
  };
  hooks.save = [&](Checkpoint& ck) {
    ck.factors = model.factors;
    ck.set_series("lambda", model.lambda);
    ck.set_series("fit_history", result.fit_history);
    ck.set_scalar("prev_fit", prev_fit);
  };
  hooks.restore = [&](const Checkpoint& ck) {
    ck.check_factor_shapes(dims, dims_t(order, rank), "cpals");
    const std::vector<double>* lam = ck.find_series("lambda");
    SPTD_CHECK(lam != nullptr && lam->size() == rank,
               "cpals restore: checkpoint lambda mismatch");
    model.factors = ck.factors;
    model.lambda = *lam;
    const std::vector<double>* fh = ck.find_series("fit_history");
    result.fit_history = fh ? *fh : std::vector<double>{};
    prev_fit = ck.scalar("prev_fit", 0.0);
    refresh_grams();
  };
  hooks.best_loss = [&] { return best_fit_loss(result.fit_history); };
  hooks.after_perturb = [&] {
    if (options.precision == Precision::kF32) {
      for (la::Matrix& f : model.factors) {
        la::round_through_f32(f);
      }
    }
    refresh_grams();
  };

  ResilienceContext rctx(options.resilience, "cpals", options.seed);
  result.iterations = run_iterations(rctx, hooks, options.max_iterations,
                                     result.resilience);
  return result;
}

CpalsResult cp_als(SparseTensor& tensor, const CpalsOptions& options) {
  SPTD_CHECK(tensor.nnz() > 0, "cp_als: empty tensor");
  // Backend first: CSF sorting below already runs parallel regions.
  set_parallel_backend(options.backend);
  init_parallel_runtime();
  const val_t norm_sq = tensor.norm_sq();

  // Sort + CSF construction. Sorting is the paper's "Sort" routine and is
  // charged to the result's timer table.
  double sort_seconds = 0.0;
  CsfSet csf_set(tensor, options.csf_policy, options.nthreads,
                 &sort_seconds, options.sort_variant, options.csf_layout);

  CpalsResult result = cp_als_csf(csf_set, norm_sq, options);
  result.timers.add_seconds(Routine::kSort, sort_seconds);
  return result;
}

}  // namespace sptd
