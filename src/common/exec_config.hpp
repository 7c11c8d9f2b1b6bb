#pragma once
/// \file exec_config.hpp
/// \brief The execution knobs every driver shares, declared once.
///
/// The paper's study varies how one CP-ALS runs — team size, tasking
/// (schedule and chunking), inner-loop shape, stream formats — not what
/// it computes. ExecConfig holds exactly those seven knobs; the options
/// structs of MTTKRP, CP-ALS, Tucker, completion and the dist driver
/// inherit it, so `o.nthreads`, `o.schedule`, ... mean the same thing
/// everywhere and one flag pair (add_exec_flags / exec_from_flags) parses
/// them for the CLI and every bench.
///
/// The parallel backend is a process property, chosen once at startup
/// (`--backend`, SPTD_BACKEND, or a harness or test selecting it through
/// parallel/backend.hpp). ExecConfig::backend only stamps which backend a
/// run expects; validate_exec() rejects a config whose stamp differs from
/// the process backend instead of switching it under concurrent runs.

#include "common/precision.hpp"
#include "csf/csf.hpp"
#include "parallel/backend.hpp"
#include "parallel/schedule.hpp"

namespace sptd {

class Options;  // common/options.hpp

/// The seven execution knobs (defaults = SPLATT's code paths).
struct ExecConfig {
  /// Team size of every parallel region the run launches.
  int nthreads = 1;
  /// How slice loops are distributed over the team (the tasking axis):
  /// static | weighted (SPLATT's nnz-balanced blocking) | dynamic |
  /// workstealing (per-thread deques over the weighted seed).
  SchedulePolicy schedule = SchedulePolicy::kWeighted;
  /// Dynamic/workstealing claims-per-thread target: dynamic sizes chunks
  /// total / (nthreads * chunk_target); workstealing splits each seeded
  /// block into up to chunk_target chunks (the steal granularity).
  int chunk_target = static_cast<int>(SliceSchedule::kDefaultChunkTarget);
  /// Rank-specialized SIMD inner loops (la/kernels.hpp) where the rank
  /// has an instantiation; false forces the generic runtime-rank loops.
  bool use_fixed_kernels = true;
  /// CSF index-stream widths (compressed = narrowest per level; wide =
  /// the fixed u32/u64 ablation baseline).
  CsfLayout csf_layout = CsfLayout::kCompressed;
  /// Value-stream precision (common/precision.hpp): f64 is the exact
  /// pre-precision pipeline; f32/mixed stream fp32 copies.
  Precision precision = Precision::kF64;
  /// The backend this run expects (omp | pool): the process backend at
  /// construction. Recorded by benches; never switches the process.
  ParallelBackendKind backend = parallel_backend();
};

/// ExecConfig fields a driver has no use for; validate_exec() requires
/// them to keep their defaults so no driver silently ignores a setting.
enum ExecField : unsigned {
  kExecThreads = 1u << 0,
  kExecChunk = 1u << 1,
  kExecKernels = 1u << 2,
  kExecLayout = 1u << 3,
};

/// Throws sptd::Error, prefixed with \p who, unless nthreads and
/// chunk_target are >= 1, backend is the process backend, and every
/// field named in the \p unused mask (ExecField bits) holds its default.
void validate_exec(const ExecConfig& cfg, const char* who,
                   unsigned unused = 0);

/// Registers the execution flags on \p opts: --schedule, --chunk,
/// --kernels, --csf-layout, --precision, --backend and, when
/// \p with_threads, --threads (benches sweep --threads-list instead).
void add_exec_flags(Options& opts, bool with_threads = true);

/// Parses the flags add_exec_flags registered; throws sptd::Error on a
/// value no knob accepts. --threads 0 (the default) or below means
/// hardware_threads(). Does not validate or touch the process backend:
/// callers fix the backend from the result, then drivers validate.
ExecConfig exec_from_flags(const Options& opts);

}  // namespace sptd
