#include "parallel/team.hpp"

#include <omp.h>

#include "common/error.hpp"
#include "parallel/backend.hpp"

namespace sptd {

int hardware_threads() {
  // Routed through the active backend. Both backends answer with
  // omp_get_max_threads() (so OMP_NUM_THREADS means the same thing
  // everywhere) after init_parallel_runtime().
  return active_parallel_backend().max_threads();
}

void init_parallel_runtime() {
  // Idle OpenMP workers spin-wait by default (libgomp spins ~300k
  // iterations before sleeping). On oversubscribed machines the spinning
  // workers of a finished phase steal cycles from the next one — exactly
  // the Qthreads/OpenMP interference the paper diagnoses in Section V-E
  // and mitigates with QT_SPINCOUNT=300. The OpenMP counterpart is
  // OMP_WAIT_POLICY=passive, and it cannot be set from here: libgomp
  // reads its environment in a load-time constructor, before main, so a
  // setenv in the process changes nothing. Whatever launches the process
  // sets it (the ctest registrations in CMakeLists.txt do); the pool
  // backend parks idle workers on its own.
  static const bool once = [] {
    omp_set_dynamic(0);
    // Nested parallelism is never used by the kernels; benches sweep team
    // sizes explicitly. Keeping nesting off avoids accidental explosion
    // when a parallel_region is entered from a parallel caller. The pool
    // backend mirrors this: nested regions run serialized as body(0, 1).
    omp_set_max_active_levels(1);
    return true;
  }();
  (void)once;
}

void parallel_region(
    int nthreads,
    // sptd-lint: allow(std-function-hot-path) cold-path overload by design
    const std::function<void(int, int)>& body) {
  detail::parallel_region_ref(nthreads, detail::TeamBodyRef(body));
}

namespace detail {

void parallel_region_ref(int nthreads, TeamBodyRef body) {
  SPTD_CHECK(nthreads >= 1, "parallel_region requires nthreads >= 1");
  if (nthreads == 1) {
    // Inline shortcut shared by every backend: a team of one is not a
    // region (matches OpenMP, where num_threads(1) still forks a team
    // but our pre-backend code already inlined it; keeping the inline
    // here keeps both backends bitwise-identical to that behavior).
    body(0, 1);
    return;
  }
  active_parallel_backend().run_team(nthreads, body);
}

}  // namespace detail

int current_thread_id() { return active_parallel_backend().team_rank(); }

}  // namespace sptd
