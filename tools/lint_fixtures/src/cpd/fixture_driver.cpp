// Seeded violation: a driver switching the process-wide parallel backend
// from its options — what cp_als and MttkrpPlan once did, flipping the
// backend under any concurrent run. Never compiled.

void run_driver(const Options& opts) {
  set_parallel_backend(opts.backend);  // VIOLATION backend-mutation
  validate_exec(opts, "driver");
}

void run_waived(const Options& opts) {
  // sptd-lint: allow(backend-mutation) fixture for the allow marker
  set_parallel_backend(opts.backend);
}
