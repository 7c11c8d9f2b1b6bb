#pragma once
/// \file mttkrp.hpp
/// \brief MTTKRP — the matricized tensor times Khatri-Rao product, the
///        critical kernel of CP-ALS (lines 5/8/11 of Algorithm 1).
///
/// Given a tensor X and factor matrices A(0..N-1), the mode-m MTTKRP is
///   M(i, r) = sum over nonzeros X(c) with c[m] == i of
///             X(c) * prod_{n != m} A(n)(c[n], r).
///
/// SPLATT evaluates it over CSF trees with three kernels selected by the
/// output mode's tree level:
///   * root     — each tree writes a distinct output row: no synchronization
///   * internal — conflicting writes: mutex pool or privatized buffers
///   * leaf     — conflicting writes at the deepest level: same choice
///
/// The privatize-or-lock decision weighs, for mode m at level l of the
/// CSF being walked (choose_sync_strategy),
///   R = nthreads * dims[m]   replica rows privatization zeroes and
///                            reduces, against
///   W = csf.nfibers(l)       row writes the locked kernel makes (one
///                            lock each; nnz at the leaf),
/// and privatizes iff R <= privatization_threshold * W. Neither count
/// depends on the index layout. SPLATT's published constant (privatize
/// iff R <= 0.02 * nnz, which makes the paper's YELP runs lock beyond 2
/// threads, Section V-D2) lives in the figure benches that reproduce it,
/// not here.

#include <memory>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/exec_config.hpp"
#include "common/types.hpp"
#include "csf/csf.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "mttkrp/row_access.hpp"
#include "parallel/locks.hpp"
#include "parallel/reduce.hpp"
#include "parallel/schedule.hpp"

namespace sptd {

/// How a kernel synchronizes conflicting output-row writes.
enum class SyncStrategy : int {
  kNone = 0,    ///< no conflicts possible (root kernel or 1 thread)
  kLock,        ///< mutex pool keyed by output row
  kPrivatize,   ///< per-thread output copies + reduction
  kTile,        ///< leaf-mode tiling: threads own disjoint output tiles
};

/// Name for logs/benches: "none" / "lock" / "privatize" / "tile".
const char* sync_strategy_name(SyncStrategy s);

/// The synchronization and row-access knobs (the paper's studied sync
/// axes), declared once: MttkrpOptions and CpalsOptions both inherit
/// them, so a CP-ALS run hands them to its MTTKRP plan whole.
struct SyncConfig {
  RowAccess row_access = RowAccess::kPointer;
  LockKind lock_kind = LockKind::kOmp;
  /// The scale t of the privatize-or-lock rule: privatize mode m iff
  /// nthreads * dims[m] <= t * W (see the file comment). 0 always locks;
  /// a huge value (1e18) always privatizes. 0.5 is the measured
  /// crossover: on sparse 3-mode tensors (rank 35, 2 and 4 threads of a
  /// 4-vCPU Xeon) locks won most shapes above R/W = 0.5 and privatization
  /// most below it.
  double privatization_threshold = 0.5;
  /// Force lock use even where privatization would be chosen (Figure 4
  /// sweeps lock kinds and needs the locked path exercised).
  bool force_locks = false;
  /// Disable privatization AND locks is invalid; disabling privatization
  /// alone falls back to locks.
  bool allow_privatization = true;
};

/// MTTKRP tuning knobs: the shared execution knobs
/// (common/exec_config.hpp), the sync knobs, and tiling. Under f32/mixed
/// the pointer row-access kernels stream fp32 factor-row shadows and
/// values (the slice/2d ablation policies always run f64); the output
/// matrix is fp64 under every precision. csf_layout matters to whoever
/// builds the CsfSet and is recorded in bench JSON; the kernels read the
/// widths off each CsfTensor.
struct MttkrpOptions : ExecConfig, SyncConfig {
  /// SPLATT's tiling alternative (the feature the paper's port omitted):
  /// for *leaf* kernels, partition the output mode into per-thread tiles;
  /// each thread re-walks the whole forest but deposits only leaves in
  /// its tile — lock-free and reduction-free at the cost of replicated
  /// upper-level work. Takes precedence over locks/privatization where
  /// applicable (leaf level, >1 thread).
  bool use_tiling = false;
};

/// The compile-time kernel width an MTTKRP plan will select for \p rank
/// under \p opts: la::kern::fixed_width_for(rank) — the rank itself when
/// an instantiation exists (4, 8, 16, 32, 40, 64), the rank's padded row
/// stride when *that* width is instantiated (rank 35, the paper's
/// default, runs the R=40 kernels over its zero-filled padding lanes) —
/// provided the row access is pointer and specialization is not disabled;
/// else 0 (generic runtime-rank loops).
idx_t selected_kernel_width(idx_t rank, const MttkrpOptions& opts);

/// Decides how an MTTKRP writing \p out_mode at tree level \p level
/// synchronizes: none at the root or on one thread; else forced locks,
/// leaf tiling, or privatize iff nthreads * dims[out_mode] <=
/// privatization_threshold * \p row_writes (the walked CSF's
/// nfibers(level)), else lock.
SyncStrategy choose_sync_strategy(const dims_t& dims, int out_mode, int level,
                                  nnz_t row_writes, const MttkrpOptions& opts);

/// The same decision with the level and W read off \p csf, the
/// representation the mode is walked in: what MttkrpPlan and the planless
/// mttkrp_csf both call, so the two always agree.
SyncStrategy choose_sync_strategy(const CsfTensor& csf, int out_mode,
                                  const MttkrpOptions& opts);

/// Process-wide count of choose_sync_strategy() calls (monotonic). Like
/// weighted_partition_calls(): strategy choice is plan-construction work,
/// and tests assert the ALS hot loop performs none of it.
std::uint64_t choose_sync_strategy_calls();

/// Output-row tile boundaries for the tiled leaf kernel: a leaf-occurrence
/// weighted partition of the leaf mode's index space (nthreads+1 bounds).
/// Plan-construction work; cached by MttkrpPlan for the kTile strategy.
std::vector<nnz_t> leaf_tile_bounds(const CsfTensor& csf, int nthreads);

/// Reusable scratch for MTTKRP calls: per-thread accumulators, the mutex
/// pool, and (lazily) privatized output buffers. Thread-count and rank are
/// fixed at construction; privatized buffers grow to the largest mode used.
class MttkrpWorkspace {
 public:
  MttkrpWorkspace(const MttkrpOptions& opts, idx_t rank, int order);

  [[nodiscard]] const MttkrpOptions& options() const { return opts_; }
  [[nodiscard]] idx_t rank() const { return rank_; }

  /// Stride (in values) of every length-rank scratch row and of the
  /// privatized buffers: rank rounded up to a cache line, matching
  /// la::Matrix::ld() for a rank-column matrix.
  [[nodiscard]] idx_t rank_stride() const {
    return static_cast<idx_t>(slot_stride_);
  }

  /// Per-thread scratch row (length rank). Slots 0..order-1 hold path
  /// products, order..2*order-1 children sums, and two extra scratch rows
  /// follow; kernels address them through the slot helpers in mttkrp.cpp.
  [[nodiscard]] val_t* accum(int tid, int slot);

  /// The same scratch row reinterpreted at the kernel's accumulator type:
  /// slot bases are 64-byte aligned and rank_stride() doubles hold at
  /// least rank_stride() lanes of any narrower type, so the fp32 kernels
  /// address the identical storage as float rows.
  template <typename A>
  [[nodiscard]] A* accum_as(int tid, int slot) {
    return reinterpret_cast<A*>(accum(tid, slot));
  }

  /// fp32 shadows of the factor matrices for the f32/mixed kernels, one
  /// per mode, refreshed (converted from the fp64 masters) at each launch
  /// by mttkrp_csf_exec for every mode the kernel reads. Entry \p mode
  /// may be stale for the launch's output mode — kernels never read the
  /// output mode's factor.
  std::vector<la::MatrixT<float>>& factor_shadows() { return shadows_; }

  /// The lock pool (constructed with options().lock_kind).
  [[nodiscard]] AnyMutexPool& pool() { return pool_; }

  /// Privatized output buffers sized for >= rows*rank values per thread;
  /// reallocated only when a larger mode is requested. Buffers are zeroed
  /// on each call.
  PrivateBuffers& privatized(idx_t rows);

  /// The strategy chosen by the most recent mttkrp() call (bench
  /// introspection).
  SyncStrategy last_strategy = SyncStrategy::kNone;

 private:
  MttkrpOptions opts_;
  idx_t rank_;
  int order_;
  std::size_t slot_stride_ = 0;       ///< rank rounded up to a cache line
  std::size_t slots_per_thread_ = 0;  ///< 2*order + 2
  aligned_vector<val_t> accum_storage_;
  std::vector<la::MatrixT<float>> shadows_;  ///< f32/mixed factor copies
  AnyMutexPool pool_;
  std::unique_ptr<PrivateBuffers> priv_;
  nnz_t priv_capacity_ = 0;
};

/// Computes the mode-\p mode MTTKRP over a CSF set into \p out
/// (dims[mode] x rank). Selects representation and kernel level exactly
/// as SPLATT does and the sync strategy by choose_sync_strategy; applies
/// the workspace's row-access policy inside the kernels. \p out is zeroed
/// first.
void mttkrp(const CsfSet& csf_set, const std::vector<la::Matrix>& factors,
            int mode, la::Matrix& out, MttkrpWorkspace& ws);

/// Single-representation entry point used by tests/benches that want to
/// exercise a specific kernel level: computes the MTTKRP for \p mode which
/// must live at some level of \p csf. Re-derives level, sync strategy, and
/// slice schedule on every call — the planless path; hot loops build an
/// MttkrpPlan (mttkrp/plan.hpp) instead.
void mttkrp_csf(const CsfTensor& csf, const std::vector<la::Matrix>& factors,
                int mode, la::Matrix& out, MttkrpWorkspace& ws);

/// Pure-execution entry point: every decision (kernel level, sync
/// strategy, slice schedule, tile boundaries, kernel width) is precomputed
/// by the caller. This is what MttkrpPlan::execute dispatches to;
/// \p tile_bounds is consulted only by the kTile strategy, and
/// \p kernel_width must be 0 (generic loops) or the value
/// selected_kernel_width() returns for the workspace's rank and options.
void mttkrp_csf_exec(const CsfTensor& csf,
                     const std::vector<la::Matrix>& factors, int mode,
                     int level, SyncStrategy strategy,
                     const SliceSchedule& slices,
                     std::span<const nnz_t> tile_bounds, idx_t kernel_width,
                     la::Matrix& out, MttkrpWorkspace& ws);

/// Reference COO MTTKRP (no CSF), parallelized over nonzero blocks with a
/// mutex pool. The correctness oracle for mid-size inputs and the
/// "no data structure" baseline.
void mttkrp_coo(const SparseTensor& coo,
                const std::vector<la::Matrix>& factors, int mode,
                la::Matrix& out, const MttkrpOptions& opts);

}  // namespace sptd
