#include "completion/completion.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "completion/solver.hpp"
#include "completion/workspace.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "resilience/context.hpp"

namespace sptd {

namespace kern = la::kern;

CompletionAlgorithm parse_completion_algorithm(const std::string& name) {
  if (name == "als") return CompletionAlgorithm::kAls;
  if (name == "sgd") return CompletionAlgorithm::kSgd;
  if (name == "ccd" || name == "ccd++") return CompletionAlgorithm::kCcd;
  throw Error("unknown completion algorithm '" + name +
              "' (expected als|sgd|ccd)");
}

const char* completion_algorithm_name(CompletionAlgorithm alg) {
  switch (alg) {
    case CompletionAlgorithm::kAls: return "als";
    case CompletionAlgorithm::kSgd: return "sgd";
    case CompletionAlgorithm::kCcd: return "ccd";
  }
  return "?";
}

std::unique_ptr<CompletionSolver> make_completion_solver(
    CompletionWorkspace& workspace) {
  switch (workspace.options().algorithm) {
    case CompletionAlgorithm::kAls: return detail::make_als_solver(workspace);
    case CompletionAlgorithm::kSgd: return detail::make_sgd_solver(workspace);
    case CompletionAlgorithm::kCcd: return detail::make_ccd_solver(workspace);
  }
  throw Error("complete_tensor: unknown algorithm");
}

double rmse(const SparseTensor& observed, const KruskalModel& model,
            int nthreads, bool use_fixed_kernels) {
  SPTD_CHECK(observed.order() == model.order(), "rmse: order mismatch");
  if (observed.nnz() == 0) {
    return 0.0;
  }
  const int order = observed.order();
  const idx_t rank = model.rank();
  const idx_t width = use_fixed_kernels ? kern::fixed_width_for(rank) : 0;
  std::vector<double> partials(static_cast<std::size_t>(nthreads), 0.0);
  parallel_region(nthreads, [&](int tid, int nt) {
    const Range range = block_partition(observed.nnz(), nt, tid);
    la::Matrix scratch(1, rank);
    val_t* SPTD_RESTRICT h = scratch.row_ptr(0);
    double acc = 0.0;
    kern::dispatch_width(width, [&](auto wc) {
      using Ops = kern::RowOps<decltype(wc)::value>;
      for (nnz_t x = range.begin; x < range.end; ++x) {
        Ops::copy(h, model.factors[0].row_ptr(observed.ind(0)[x]), rank);
        for (int m = 1; m < order; ++m) {
          Ops::hadamard(h,
                        model.factors[static_cast<std::size_t>(m)].row_ptr(
                            observed.ind(m)[x]),
                        rank);
        }
        // λ is a plain vector (no alignment guarantee) — the generic dot
        // closes the prediction.
        const val_t pred = kern::dot(h, model.lambda.data(), rank);
        const double err = static_cast<double>(observed.vals()[x] - pred);
        acc += err * err;
      }
    });
    partials[static_cast<std::size_t>(tid)] = acc;
  });
  double total = 0.0;
  for (const double p : partials) total += p;
  return std::sqrt(total / static_cast<double>(observed.nnz()));
}

CompletionResult complete_tensor(const SparseTensor& train,
                                 const SparseTensor* validation,
                                 const CompletionOptions& options) {
  SPTD_CHECK(train.nnz() > 0, "complete_tensor: empty training set");
  SPTD_CHECK(train.order() >= 2, "complete_tensor: order must be >= 2");
  SPTD_CHECK(options.rank >= 1, "complete_tensor: rank must be >= 1");
  SPTD_CHECK(options.max_iterations >= 1,
             "complete_tensor: need >= 1 iteration");
  SPTD_CHECK(options.nthreads >= 1,
             "complete_tensor: nthreads must be >= 1");
  if (options.algorithm == CompletionAlgorithm::kSgd) {
    SPTD_CHECK(options.learn_rate > 0.0,
               "complete_tensor: SGD needs --lr > 0");
    SPTD_CHECK(options.decay >= 0.0,
               "complete_tensor: --decay must be >= 0");
  }
  if (validation != nullptr) {
    SPTD_CHECK(validation->order() == train.order(),
               "complete_tensor: validation order mismatch");
  }
  set_parallel_backend(options.backend);
  init_parallel_runtime();

  const int order = train.order();
  const int nthreads = options.nthreads;

  // Per-mode slice views + schedules + solver state, built once (the
  // memory trade — one grouped copy per mode — is the same one SPLATT's
  // completion code makes).
  CompletionWorkspace workspace(train, options);

  CompletionResult result;
  KruskalModel& model = result.model;
  model.lambda.assign(options.rank, val_t{1});
  Rng rng(options.seed);
  for (int m = 0; m < order; ++m) {
    // Small random init keeps early predictions near zero, which is the
    // right prior for sparse ratings-style data (and a stable starting
    // step for SGD). Identical across solvers so runs are comparable.
    model.factors.push_back(
        la::Matrix::random(train.dim(m), options.rank, rng));
    for (val_t& v : model.factors.back().values()) {
      v *= val_t{0.5};
    }
  }

  const std::unique_ptr<CompletionSolver> solver =
      make_completion_solver(workspace);
  solver->begin(model);

  double train_err = 0.0;
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<la::Matrix> best_factors;

  IterationHooks hooks;
  hooks.factors = &model.factors;
  hooks.lambda = &model.lambda;
  hooks.sweep = [&](int it) {
    solver->run_epoch(model, it);
    if (options.precision == Precision::kF32) {
      // Pure-f32 ablation endpoint: the factors carry only fp32
      // information between epochs (RMSE bookkeeping stays fp64). The
      // rounding moves the model under CCD++'s incrementally maintained
      // residual, so that solver's residual is rebuilt from the rounded
      // factors before the next epoch.
      for (la::Matrix& factor : model.factors) {
        la::round_through_f32(factor);
      }
      if (options.algorithm == CompletionAlgorithm::kCcd) {
        solver->begin(model);
      }
    }
  };
  hooks.loss = [&](int, bool corrupted) {
    if (corrupted && options.algorithm == CompletionAlgorithm::kCcd) {
      // Keep the residual consistent with the (now corrupt) model, as a
      // real soft error would: the health scan must still catch it.
      solver->begin(model);
    }
    train_err = rmse(train, model, nthreads, options.use_fixed_kernels);
    return train_err;
  };
  hooks.accept = [&](int it) {
    result.train_rmse.push_back(train_err);
    if (validation == nullptr || validation->nnz() == 0) return false;
    const double v =
        rmse(*validation, model, nthreads, options.use_fixed_kernels);
    result.val_rmse.push_back(v);
    const double prev_best = best_val;
    if (v < best_val) {
      // Track the best-validation model (SPLATT's ws->best_model): the
      // returned factors must come from the argmin iteration, not from
      // whatever iteration the stopping rule happens to exit on.
      best_val = v;
      result.best_iteration = it + 1;
      best_factors = model.factors;
    }
    // Stop once the validation error stops improving.
    return options.tolerance > 0.0 && it > 0 &&
           v > prev_best - options.tolerance;
  };
  hooks.save = [&](Checkpoint& ck) {
    ck.factors = model.factors;
    ck.aux_factors = best_factors;
    ck.set_series("train_rmse", result.train_rmse);
    ck.set_series("val_rmse", result.val_rmse);
    ck.set_scalar("best_val", best_val);
    ck.set_scalar("best_iteration", result.best_iteration);
    solver->serialize_state(ck.series_ref("solver_state"));
  };
  hooks.restore = [&](const Checkpoint& ck) {
    ck.check_factor_shapes(train.dims(), dims_t(order, options.rank),
                           "completion");
    model.factors = ck.factors;
    best_factors = ck.aux_factors;
    const std::vector<double>* tr = ck.find_series("train_rmse");
    result.train_rmse = tr ? *tr : std::vector<double>{};
    const std::vector<double>* vr = ck.find_series("val_rmse");
    result.val_rmse = vr ? *vr : std::vector<double>{};
    best_val =
        ck.scalar("best_val", std::numeric_limits<double>::infinity());
    result.best_iteration = static_cast<int>(ck.scalar("best_iteration", 0));
    solver->begin(model);
    if (const std::vector<double>* st = ck.find_series("solver_state")) {
      solver->restore_state(*st);
    }
  };
  hooks.best_loss = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (const double r : result.train_rmse) best = std::min(best, r);
    return best;
  };
  hooks.after_perturb = [&] {
    if (options.precision == Precision::kF32) {
      for (la::Matrix& factor : model.factors) {
        la::round_through_f32(factor);
      }
    }
    // Rebuild CCD++'s residual from the jittered model.
    solver->begin(model);
  };

  ResilienceContext rctx(options.resilience, "completion", options.seed);
  result.iterations = run_iterations(rctx, hooks, options.max_iterations,
                                     result.resilience);
  if (!best_factors.empty()) {
    model.factors = std::move(best_factors);
  } else {
    result.best_iteration = result.iterations;
  }
  return result;
}

std::pair<SparseTensor, SparseTensor> split_train_test(
    const SparseTensor& t, double holdout_fraction, std::uint64_t seed) {
  SPTD_CHECK(holdout_fraction > 0.0 && holdout_fraction < 1.0,
             "split_train_test: fraction must be in (0,1)");
  Rng rng(seed);
  const nnz_t nnz = t.nnz();
  std::vector<char> holdout(nnz);
  for (nnz_t x = 0; x < nnz; ++x) {
    holdout[x] = rng.next_double() < holdout_fraction ? 1 : 0;
  }
  // Slice-aware repair: a slice whose every observation went to the
  // holdout side would leave its factor row determined purely by
  // regularization. For each mode, return the first held-out entry of any
  // fully-held-out slice to the train side. Modes are repaired in order;
  // repairs only ever ADD train entries, so earlier modes stay covered.
  for (int m = 0; m < t.order(); ++m) {
    const auto ids = t.ind(m);
    std::vector<nnz_t> train_in_slice(t.dim(m), 0);
    for (nnz_t x = 0; x < nnz; ++x) {
      if (!holdout[x]) {
        ++train_in_slice[ids[x]];
      }
    }
    for (nnz_t x = 0; x < nnz; ++x) {
      if (holdout[x] && train_in_slice[ids[x]] == 0) {
        holdout[x] = 0;
        ++train_in_slice[ids[x]];
      }
    }
  }
  SparseTensor train(t.dims());
  SparseTensor test(t.dims());
  const auto order = static_cast<std::size_t>(t.order());
  std::array<idx_t, kMaxOrder> c{};
  for (nnz_t x = 0; x < nnz; ++x) {
    for (std::size_t m = 0; m < order; ++m) {
      c[m] = t.ind(static_cast<int>(m))[x];
    }
    auto& dst = holdout[x] ? test : train;
    dst.push_back({c.data(), order}, t.vals()[x]);
  }
  return {std::move(train), std::move(test)};
}

}  // namespace sptd
