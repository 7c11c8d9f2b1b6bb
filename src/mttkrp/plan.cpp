#include "mttkrp/plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sptd {

MttkrpPlan::MttkrpPlan(const CsfSet& set, idx_t rank,
                       const MttkrpOptions& opts)
    : set_(&set),
      ws_(opts, rank, set.order()),
      kernel_width_(selected_kernel_width(rank, opts)) {
  const int order = set.order();
  modes_.resize(static_cast<std::size_t>(order));
  idx_t max_privatized_rows = 0;
  for (int m = 0; m < order; ++m) {
    ModePlan& mp = modes_[static_cast<std::size_t>(m)];
    int level = 0;
    mp.csf = &set.csf_for_mode(m, level);
    mp.level = level;
    mp.strategy = choose_sync_strategy(*mp.csf, m, opts);
    mp.slices = SliceSchedule(opts.schedule, mp.csf->nfibers(0),
                              mp.csf->root_nnz_prefix(), opts.nthreads,
                              static_cast<nnz_t>(opts.chunk_target));
    if (mp.strategy == SyncStrategy::kTile) {
      mp.tile_bounds = leaf_tile_bounds(*mp.csf, opts.nthreads);
    }
    if (mp.strategy == SyncStrategy::kPrivatize) {
      max_privatized_rows = std::max(
          max_privatized_rows,
          mp.csf->dims()[static_cast<std::size_t>(m)]);
    }
  }
  // Pre-size the privatized reduction bank so execute() never allocates.
  if (max_privatized_rows > 0) {
    ws_.privatized(max_privatized_rows);
  }
}

void MttkrpPlan::execute(const std::vector<la::Matrix>& factors, int mode,
                         la::Matrix& out) {
  SPTD_CHECK(mode >= 0 && mode < order(), "MttkrpPlan: mode out of range");
  const ModePlan& mp = modes_[static_cast<std::size_t>(mode)];
  mttkrp_csf_exec(*mp.csf, factors, mode, mp.level, mp.strategy, mp.slices,
                  mp.tile_bounds, kernel_width_, out, ws_);
}

}  // namespace sptd
