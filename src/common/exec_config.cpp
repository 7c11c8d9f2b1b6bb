#include "common/exec_config.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/options.hpp"

namespace sptd {

void validate_exec(const ExecConfig& cfg, const char* who, unsigned unused) {
  const std::string w = who;
  SPTD_CHECK(cfg.nthreads >= 1, w + ": nthreads must be >= 1");
  SPTD_CHECK(cfg.chunk_target >= 1,
             w + ": chunk target must be >= 1 (claims per thread)");
  SPTD_CHECK(cfg.backend == parallel_backend(),
             w + ": options name the " + parallel_backend_name(cfg.backend) +
                 " backend but this process runs " +
                 parallel_backend_name(parallel_backend()) +
                 " (the backend is fixed at startup by --backend or "
                 "SPTD_BACKEND)");
  const ExecConfig d;
  const auto keep_default = [&](ExecField f, bool is_default,
                                const char* name) {
    SPTD_CHECK(!(unused & f) || is_default,
               w + ": " + name + " is not used by this driver; leave it "
                   "at its default");
  };
  keep_default(kExecThreads, cfg.nthreads == d.nthreads,
               "nthreads (--threads)");
  keep_default(kExecChunk, cfg.chunk_target == d.chunk_target,
               "chunk_target (--chunk)");
  keep_default(kExecKernels, cfg.use_fixed_kernels == d.use_fixed_kernels,
               "use_fixed_kernels (--kernels)");
  keep_default(kExecLayout, cfg.csf_layout == d.csf_layout,
               "csf_layout (--csf-layout)");
}

void add_exec_flags(Options& opts, bool with_threads) {
  if (with_threads) {
    opts.add("threads", "0", "threads (0 = all)");
  }
  opts.add("schedule", "weighted",
           "slice scheduling policy static|weighted|dynamic|workstealing");
  opts.add("chunk", "16",
           "dynamic/workstealing chunk target (claims per thread)");
  opts.add("kernels", "fixed",
           "inner-loop variant: fixed (rank-specialized SIMD) | generic");
  opts.add("csf-layout", "compressed",
           "CSF index widths: compressed (narrowest per level) | wide");
  opts.add("precision", "f64",
           "value-stream precision: f64 | f32 | mixed (fp32 streams, "
           "fp64 accumulation)");
  opts.add("backend", parallel_backend_name(parallel_backend()),
           "parallel backend: omp | pool (persistent worker threads that "
           "compose across concurrent runs in one process)");
}

ExecConfig exec_from_flags(const Options& opts) {
  ExecConfig cfg;
  if (opts.has("threads")) {
    cfg.nthreads = static_cast<int>(opts.get_int("threads"));
    if (cfg.nthreads <= 0) cfg.nthreads = hardware_threads();
  }
  cfg.schedule = parse_schedule_policy(opts.get_string("schedule"));
  // Clamped, not cast: a negative or huge value must not wrap into a
  // valid-looking target (validate_exec rejects the 0 a negative gives).
  cfg.chunk_target = static_cast<int>(std::clamp<std::int64_t>(
      opts.get_int("chunk"), 0, std::numeric_limits<int>::max()));
  const std::string kernels = opts.get_string("kernels");
  SPTD_CHECK(kernels == "fixed" || kernels == "generic",
             "unknown --kernels value '" + kernels +
                 "' (expected fixed|generic)");
  cfg.use_fixed_kernels = kernels == "fixed";
  cfg.csf_layout = parse_csf_layout(opts.get_string("csf-layout"));
  cfg.precision = parse_precision(opts.get_string("precision"));
  cfg.backend = parse_parallel_backend(opts.get_string("backend"));
  return cfg;
}

}  // namespace sptd
