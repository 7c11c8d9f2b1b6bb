/// \file dist_cpals.cpp
/// \brief Distributed CP-ALS driver: tensor partitioning, the replicated
///        ALS loop over a DistTransport, and the transport dispatch.
///
/// The fork launcher lives in launcher.cpp, the shared-memory transport in
/// transport_shm.cpp, rollback selection in recovery.cpp, and the MPI
/// transport (configure-gated) in transport_mpi.cpp; internal.hpp is the
/// seam between them.

#include "dist/dist_cpals.hpp"

#include <array>
#include <cmath>
#include <csignal>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "cpd/cpals.hpp"
#include "csf/csf.hpp"
#include "dist/internal.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/norms.hpp"
#include "mttkrp/plan.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "resilience/context.hpp"

namespace sptd {

CommVolume predict_comm_volume(const dims_t& dims, const dims_t& grid,
                               idx_t rank) {
  const std::size_t order = dims.size();
  SPTD_CHECK(grid.size() == order,
             "predict_comm_volume: grid order mismatch");
  std::uint64_t locales = 1;
  for (const idx_t g : grid) {
    SPTD_CHECK(g >= 1, "predict_comm_volume: grid extents must be >= 1");
    locales *= g;
  }
  CommVolume cv;
  cv.reduce_bytes.assign(order, 0);
  cv.broadcast_bytes.assign(order, 0);
  for (std::size_t m = 0; m < order; ++m) {
    const std::uint64_t layer = locales / grid[m];
    if (layer <= 1) {
      continue;  // the layer is one locale: its rows never leave it
    }
    const std::uint64_t bytes = (layer - 1) *
                                static_cast<std::uint64_t>(dims[m]) *
                                static_cast<std::uint64_t>(rank) *
                                sizeof(val_t);
    cv.reduce_bytes[m] = bytes;
    cv.broadcast_bytes[m] = bytes;
  }
  return cv;
}

namespace {

/// Block boundaries of one mode's index space over grid[mode] locales:
/// grid[m]+1 monotone row indices, either equal ranges or balanced by
/// slice nonzero count.
std::vector<idx_t> block_boundaries(const SparseTensor& x, int mode,
                                    idx_t parts, bool weighted) {
  const idx_t dim = x.dim(mode);
  std::vector<idx_t> bounds(static_cast<std::size_t>(parts) + 1);
  if (!weighted) {
    for (idx_t p = 0; p < parts; ++p) {
      bounds[p] = static_cast<idx_t>(
          block_partition(dim, static_cast<int>(parts),
                          static_cast<int>(p)).begin);
    }
    bounds[parts] = dim;
    return bounds;
  }
  const std::vector<nnz_t> wb = weighted_partition(
      slice_nnz_prefix(x.ind(mode), dim), static_cast<int>(parts));
  for (std::size_t p = 0; p < wb.size(); ++p) {
    bounds[p] = static_cast<idx_t>(wb[p]);
  }
  return bounds;
}

}  // namespace

namespace dist {

std::string dist_rank_kind(std::size_t rank) {
  return "dist-rank" + std::to_string(rank);
}

DistPartition partition_tensor(const SparseTensor& x,
                               const DistOptions& options) {
  const int order = x.order();
  DistPartition part;
  part.nlocales = 1;
  for (const idx_t g : options.grid) {
    part.nlocales *= g;
  }

  // Locale of a nonzero: mixed-radix over per-mode block ids (mode 0
  // slowest). The per-mode row -> block maps make assignment O(order).
  std::vector<std::vector<idx_t>> block_of(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    const idx_t parts = options.grid[static_cast<std::size_t>(m)];
    const std::vector<idx_t> bounds =
        block_boundaries(x, m, parts, options.weighted_blocks);
    auto& map = block_of[static_cast<std::size_t>(m)];
    map.assign(x.dim(m), 0);
    for (idx_t p = 0; p < parts; ++p) {
      for (idx_t i = bounds[p]; i < bounds[static_cast<std::size_t>(p) + 1];
           ++i) {
        map[i] = p;
      }
    }
  }

  part.blocks.reserve(part.nlocales);
  for (std::size_t l = 0; l < part.nlocales; ++l) {
    part.blocks.emplace_back(x.dims());
  }
  std::array<idx_t, kMaxOrder> coord{};
  for (nnz_t n = 0; n < x.nnz(); ++n) {
    std::size_t locale = 0;
    for (int m = 0; m < order; ++m) {
      const idx_t i = x.ind(m)[n];
      coord[static_cast<std::size_t>(m)] = i;
      locale = locale * options.grid[static_cast<std::size_t>(m)] +
               block_of[static_cast<std::size_t>(m)][i];
    }
    part.blocks[locale].push_back(
        {coord.data(), static_cast<std::size_t>(order)}, x.vals()[n]);
  }

  part.locale_nnz.reserve(part.nlocales);
  for (const SparseTensor& b : part.blocks) {
    part.locale_nnz.push_back(b.nnz());
  }
  return part;
}

DistResult run_dist_loop(const LoopConfig& cfg, DistTransport& tr) {
  const DistOptions& options = *cfg.options;
  const dims_t& dims = *cfg.dims;
  DistPartition& part = *cfg.part;
  const int order = static_cast<int>(dims.size());
  const idx_t rank = options.rank;
  const std::size_t nlocales = part.nlocales;

  // Each locale is serial (locale-level parallelism is the process/locale
  // grid itself, not intra-locale threading; dist_cp_als holds nthreads
  // at 1), with its own CSF set and execution plan.
  const MttkrpOptions mopts{options, SyncConfig{}};
  std::vector<std::unique_ptr<CsfSet>> sets(nlocales);
  std::vector<std::unique_ptr<MttkrpPlan>> plans(nlocales);
  auto build_plan = [&](std::size_t l) {
    sets[l] = std::make_unique<CsfSet>(part.blocks[l], CsfPolicy::kTwoMode,
                                       1, nullptr, SortVariant::kAllOpts,
                                       options.csf_layout);
    plans[l] = std::make_unique<MttkrpPlan>(*sets[l], rank, mopts);
  };
  for (const std::size_t l : cfg.owned) {
    if (part.blocks[l].nnz() == 0) {
      continue;  // empty locale: contributes nothing, moves nothing real
    }
    build_plan(l);
    tr.beat();
  }

  DistResult result;
  result.locale_nnz = part.locale_nnz;
  KruskalModel& model = result.model;
  const CommVolume per_iteration =
      predict_comm_volume(dims, options.grid, rank);

  // Factor initialization and ALS updates mirror cp_als_csf with one
  // thread exactly; only the MTTKRP is assembled from locale partials.
  Rng rng(options.seed);
  model.lambda.assign(rank, val_t{1});
  for (int m = 0; m < order; ++m) {
    model.factors.push_back(
        la::Matrix::random(dims[static_cast<std::size_t>(m)], rank, rng));
  }
  result.comm.reduce_bytes.assign(static_cast<std::size_t>(order), 0);
  result.comm.broadcast_bytes.assign(static_cast<std::size_t>(order), 0);

  // Grams are recomputed (deterministic serial la::ata), not serialized:
  // a restored run rebuilds bitwise-identical grams from the factors.
  std::vector<la::Matrix> grams;
  grams.reserve(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    grams.emplace_back(rank, rank);
  }
  const auto refresh_grams = [&] {
    for (int m = 0; m < order; ++m) {
      la::ata(model.factors[static_cast<std::size_t>(m)],
              grams[static_cast<std::size_t>(m)], 1);
    }
  };
  refresh_grams();

  ResilienceContext rctx(options.resilience, cfg.checkpoint_kind.c_str(),
                         options.seed);
  la::Matrix v(rank, rank);
  la::Matrix fit_m;  // last mode's assembled MTTKRP, kept for the fit
  PrivateBuffers fit_partials(1, static_cast<nnz_t>(rank));
  double fit = 0.0;

  IterationHooks hooks;
  hooks.factors = &model.factors;
  hooks.lambda = &model.lambda;
  hooks.sweep = [&](int it) {
    tr.beat();
    if (FaultInjector* inj = rctx.injector()) {
      if (tr.kind() == TransportKind::kShm) {
        // Real rank death: SIGKILL ourselves mid-iteration. The
        // shared-memory token claim is one-shot across respawns, so the
        // victim replaying this iteration after recovery lives.
        for (const std::size_t l : cfg.owned) {
          if (inj->rank_kill_due(l, nlocales, it, options.max_iterations) &&
              tr.claim_kill_token()) {
            log_warn("fault: rank-kill of rank " + std::to_string(l) +
                     " at iteration " + std::to_string(it));
            std::raise(SIGKILL);
          }
        }
      } else {
        // A killed locale loses its in-memory CSF set and execution
        // plan — the analogue of a node dropping out of the grid.
        for (const std::size_t l : cfg.owned) {
          if (inj->kill_locale(l, nlocales, it, options.max_iterations)) {
            sets[l].reset();
            plans[l].reset();
          }
        }
      }
    }
    // Failure detection + restart: a locale that owns nonzeros but has no
    // plan is down. Its block is still resident (the simulated analogue of
    // re-reading the locale's partition from durable storage), so the CSF
    // set and plan rebuild deterministically and the recovered run
    // matches the clean run bitwise.
    for (const std::size_t l : cfg.owned) {
      if (!plans[l] && part.blocks[l].nnz() > 0) {
        build_plan(l);
        ++rctx.counters().locale_restarts;
        log_warn("[resilience] dist: restarted locale " + std::to_string(l) +
                 " at iteration " + std::to_string(it));
      }
    }

    for (int m = 0; m < order; ++m) {
      const idx_t m_dim = dims[static_cast<std::size_t>(m)];
      la::Matrix out_view(m_dim, rank);

      // Layer-wise all-reduce of partial MTTKRPs, summed in locale order
      // by the transport (one locale executes straight into the output —
      // nothing moves on any transport).
      if (nlocales == 1) {
        plans[0]->execute(model.factors, m, out_view);
      } else {
        std::vector<la::Matrix> partial_store;
        partial_store.reserve(cfg.owned.size());
        std::vector<const la::Matrix*> partials(nlocales, nullptr);
        for (const std::size_t l : cfg.owned) {
          if (!plans[l]) continue;
          partial_store.emplace_back(m_dim, rank);
          plans[l]->execute(model.factors, m, partial_store.back());
          // Same shape implies the same padded stride; padding lanes are
          // zero, so summing physical buffers is the logical sum.
          partials[l] = &partial_store.back();
        }
        tr.allreduce(static_cast<std::uint64_t>(it) *
                             static_cast<std::uint64_t>(order) +
                         static_cast<std::uint64_t>(m),
                     m, partials, out_view);
      }
      result.comm.reduce_bytes[static_cast<std::size_t>(m)] +=
          per_iteration.reduce_bytes[static_cast<std::size_t>(m)];
      result.comm.broadcast_bytes[static_cast<std::size_t>(m)] +=
          per_iteration.broadcast_bytes[static_cast<std::size_t>(m)];

      if (m == order - 1) {
        fit_m = out_view;
      }
      la::gram_hadamard(grams, m, v);
      la::solve_normal_equations(v, out_view, 1);
      la::Matrix& factor = model.factors[static_cast<std::size_t>(m)];
      factor = std::move(out_view);
      la::normalize_columns(factor, model.lambda,
                            it == 0 ? la::MatNorm::kTwo : la::MatNorm::kMax,
                            1);
      la::ata(factor, grams[static_cast<std::size_t>(m)], 1);
      tr.beat();
    }
  };
  hooks.loss = [&](int, bool) {
    const val_t inner = detail::fit_inner_product(
        fit_m, model.factors[static_cast<std::size_t>(order - 1)],
        model.lambda, 1, fit_partials);
    const val_t norm_z = detail::model_norm_sq(grams, model.lambda);
    val_t residual_sq = cfg.tensor_norm_sq + norm_z - 2 * inner;
    if (residual_sq < val_t{0}) residual_sq = 0;
    fit = (cfg.tensor_norm_sq > val_t{0})
              ? 1.0 - std::sqrt(static_cast<double>(residual_sq)) /
                          std::sqrt(static_cast<double>(cfg.tensor_norm_sq))
              : 0.0;
    return 1.0 - fit;
  };
  hooks.accept = [&](int) {
    result.fit_history.push_back(fit);
    return false;
  };
  hooks.save = [&](Checkpoint& ck) {
    ck.factors = model.factors;
    ck.set_series("lambda", model.lambda);
    ck.set_series("fit_history", result.fit_history);
  };
  hooks.restore = [&](const Checkpoint& ck) {
    ck.check_factor_shapes(dims, dims_t(order, rank), "dist");
    const std::vector<double>* lam = ck.find_series("lambda");
    SPTD_CHECK(lam != nullptr &&
                   lam->size() == static_cast<std::size_t>(rank),
               "dist restore: checkpoint lambda missing or wrong rank");
    model.factors = ck.factors;
    model.lambda = *lam;
    const std::vector<double>* fh = ck.find_series("fit_history");
    result.fit_history = fh ? *fh : std::vector<double>{};
    // The comm counters are an invariant of the iteration count (every
    // iteration moves the same predicted volume), so restored totals are
    // reconstructed rather than serialized.
    for (std::size_t m = 0; m < static_cast<std::size_t>(order); ++m) {
      const auto done = static_cast<std::uint64_t>(ck.iteration);
      result.comm.reduce_bytes[m] = per_iteration.reduce_bytes[m] * done;
      result.comm.broadcast_bytes[m] =
          per_iteration.broadcast_bytes[m] * done;
    }
    refresh_grams();
  };
  hooks.best_loss = [&] { return best_fit_loss(result.fit_history); };
  hooks.after_perturb = refresh_grams;

  // The seeded initial state: a rejoin with no snapshot replays from it.
  Checkpoint initial;
  hooks.save(initial);

  // Where a rejoin restarts: the launcher's rollback snapshot (restoring
  // the recovery RNG it carried), or the initial state at iteration 0.
  const auto rejoin_state = [&](const RejoinPoint& rp) -> Checkpoint {
    if (!rp.checkpoint_path.empty()) {
      try {
        if (std::optional<Checkpoint> ck =
                load_checkpoint_file(rp.checkpoint_path)) {
          SPTD_CHECK(ck->iteration == rp.iteration,
                     "dist rejoin: rollback iteration mismatch");
          rctx.recovery_rng().set_state(ck->rng_state);
          rctx.counters().resumed_from = ck->iteration;
          log_info("resilience: " + cfg.checkpoint_kind +
                   " rejoined from iteration " +
                   std::to_string(ck->iteration));
          return std::move(*ck);
        }
      } catch (const Error& e) {
        log_warn("dist rejoin: rollback checkpoint unusable: " +
                 std::string(e.what()));
      }
    } else if (rp.iteration == 0) {
      return initial;
    }
    // The launcher validated the file before publishing it; losing it
    // here means this rank's view diverged from its peers' — replaying
    // from scratch would desynchronize the collectives, so fail loudly.
    throw Error("dist rejoin: rollback checkpoint " + rp.checkpoint_path +
                " disappeared or failed validation");
  };

  // Adopt the current epoch. shm: returns the launcher's rollback preset
  // after a recovery (and for --resume, preset pre-fork); sim/mpi: none,
  // so the skeleton honors --resume itself.
  std::optional<Checkpoint> start;
  if (std::optional<RejoinPoint> rp = tr.rejoin()) start = rejoin_state(*rp);
  for (;;) {
    try {
      result.iterations =
          run_iterations(rctx, hooks, options.max_iterations,
                         result.resilience, start ? &*start : nullptr);
      if (cfg.on_complete) cfg.on_complete(result);
      tr.finalize();
      return result;
    } catch (const RecoveryInterrupt&) {
      // A peer died; the launcher bumped the epoch and published a
      // rollback point. Adopt it, quiesce with the other survivors and
      // the respawned rank, restore, and replay. Every rank restarts its
      // health trend from the restored history, so survivors and the
      // respawned rank make identical rollback decisions.
      std::optional<RejoinPoint> rp = tr.rejoin();
      start = rp ? rejoin_state(*rp) : initial;
    }
  }
}

}  // namespace dist

DistResult dist_cp_als(const SparseTensor& x, const DistOptions& options) {
  const int order = x.order();
  SPTD_CHECK(x.nnz() > 0, "dist_cp_als: empty tensor");
  SPTD_CHECK(static_cast<int>(options.grid.size()) == order,
             "dist_cp_als: grid must have one extent per mode");
  for (int m = 0; m < order; ++m) {
    const idx_t g = options.grid[static_cast<std::size_t>(m)];
    SPTD_CHECK(g >= 1 && g <= x.dim(m),
               "dist_cp_als: grid extent out of [1, dims[m]]");
  }
  SPTD_CHECK(options.rank >= 1, "dist_cp_als: rank must be >= 1");
  SPTD_CHECK(options.max_iterations >= 1,
             "dist_cp_als: need >= 1 iteration");
  if (options.transport == TransportKind::kMpi) {
    SPTD_CHECK(mpi_transport_available(),
               "dist_cp_als: this build has no MPI transport (configure "
               "with MPI available)");
  }
  validate_exec(options, "dist_cp_als", kExecThreads);
  if (options.transport != TransportKind::kShm) {
    // The shm launcher forks; a live thread pool does not survive fork,
    // and every locale is single-threaded anyway, so the runtime is only
    // initialized for the in-process transports.
    init_parallel_runtime();
  }

  dist::DistPartition part = dist::partition_tensor(x, options);

  switch (options.transport) {
    case TransportKind::kShm:
      return dist::run_shm_dist(x, options, part);
    case TransportKind::kMpi:
#ifdef SPTD_HAVE_MPI
      return dist::run_mpi_dist(x, options, part);
#else
      throw Error("dist_cp_als: MPI transport not built");  // unreachable
#endif
    case TransportKind::kSim:
      break;
  }

  dist::SimTransport tr(part.nlocales);
  dist::LoopConfig cfg;
  cfg.options = &options;
  cfg.dims = &x.dims();
  cfg.tensor_norm_sq = x.norm_sq();
  cfg.part = &part;
  cfg.owned.resize(part.nlocales);
  for (std::size_t l = 0; l < part.nlocales; ++l) {
    cfg.owned[l] = l;
  }
  return dist::run_dist_loop(cfg, tr);
}

}  // namespace sptd
