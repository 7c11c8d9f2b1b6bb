#include "resilience/context.hpp"

#include "common/log.hpp"
#include "la/cholesky.hpp"

namespace sptd {

namespace {

// Decorrelates the recovery-jitter stream from the factor-init stream that
// shares the user's seed (arbitrary odd constant, xor-mixed).
constexpr std::uint64_t kRecoverySalt = 0x9e3779b97f4a7c15ULL;

}  // namespace

ResilienceContext::ResilienceContext(const ResilienceOptions& opts,
                                     const char* kind, std::uint64_t seed)
    : opts_(opts),
      kind_(kind),
      manager_(opts.checkpoint_dir, kind, opts.checkpoint_every),
      health_(opts.health_checks, opts.divergence_patience),
      recovery_rng_(seed ^ kRecoverySalt),
      bumps_at_start_(la::tikhonov_bump_count()) {
  if (!opts.inject.empty()) {
    const FaultPlan plan = FaultPlan::parse(opts.inject);
    if (!plan.empty()) {
      injector_.emplace(plan, opts.inject_seed);
    }
  }
}

std::optional<Checkpoint> ResilienceContext::try_resume() {
  if (!opts_.resume) return std::nullopt;
  SPTD_CHECK(!opts_.checkpoint_dir.empty(),
             "--resume requires --checkpoint-dir");
  std::optional<Checkpoint> ck =
      CheckpointManager::load_latest(opts_.checkpoint_dir, kind_);
  if (!ck) {
    log_info("resilience: no valid " + kind_ + " checkpoint in " +
             opts_.checkpoint_dir + ", starting fresh");
    return std::nullopt;
  }
  counters_.resumed_from = ck->iteration;
  recovery_rng_.set_state(ck->rng_state);
  log_info("resilience: resuming " + kind_ + " from iteration " +
           std::to_string(ck->iteration));
  return ck;
}

void ResilienceContext::save_checkpoint(Checkpoint& ck) {
  ck.kind = kind_;
  ck.rng_state = recovery_rng_.state();
  manager_.save(ck, injector(), counters_);
}

void ResilienceContext::fail_or_retry(HealthIssue issue, int iteration) {
  if (consecutive_retries_ >= opts_.max_retries) {
    throw ResilienceError(kind_, iteration, issue, consecutive_retries_);
  }
  ++consecutive_retries_;
  ++counters_.retries;
  ++counters_.rollbacks;
  health_.reset_streak();
  log_warn("resilience: " + kind_ + " detected " +
           health_issue_name(issue) + " at iteration " +
           std::to_string(iteration) + "; rolling back (attempt " +
           std::to_string(consecutive_retries_) + "/" +
           std::to_string(opts_.max_retries) + ")");
}

void ResilienceContext::finish(ResilienceCounters& out) {
  if (injector_) {
    counters_.faults_injected = injector_->faults_injected();
  }
  counters_.gram_bumps = la::tikhonov_bump_count() - bumps_at_start_;
  out = counters_;
}

int run_iterations(ResilienceContext& ctx, const IterationHooks& hooks,
                   int max_iterations, ResilienceCounters& out,
                   const Checkpoint* start) {
  int it = 0;
  // Resume, rejoin and rollback all land here. The trend restarts from
  // the restored history, which equals what an uninterrupted monitor
  // holds: only healthy iterations ever lower the best loss.
  const auto resume_from = [&](const Checkpoint& ck) {
    hooks.restore(ck);
    ctx.health_.reset();
    ctx.health_.seed_trend(hooks.best_loss());
    it = ck.iteration;
  };
  if (start != nullptr) {
    resume_from(*start);
  } else if (std::optional<Checkpoint> ck = ctx.try_resume()) {
    resume_from(*ck);
  }

  // Last state that passed the health scan. Only kept while guards are
  // on: one model copy per iteration, O(sum dims · R), noise next to the
  // sweep. Copy-assigned in place, so its storage is reused.
  const bool guard = ctx.health_.enabled();
  Checkpoint snapshot;
  snapshot.iteration = it;
  if (guard) hooks.save(snapshot);

  bool stopped = false;
  while (it < max_iterations && !stopped) {
    hooks.sweep(it);
    // Fault injection lands between the sweep and the health scan,
    // exactly where a soft error would corrupt an iterate.
    bool corrupted = false;
    if (FaultInjector* inj = ctx.injector()) {
      corrupted = inj->corrupt_factors(*hooks.factors, it) > 0;
    }
    const double loss = hooks.loss(it, corrupted);

    if (guard) {
      const HealthIssue issue =
          ctx.health_.inspect(*hooks.factors, *hooks.lambda, loss);
      if (issue != HealthIssue::kNone) {
        ctx.fail_or_retry(issue, it);  // throws when retries are exhausted
        // Rollback-and-perturb: jitter the last healthy state off the
        // failing trajectory.
        resume_from(snapshot);
        perturb_factors(*hooks.factors, ctx.recovery_rng_);
        hooks.after_perturb();
        continue;
      }
      ctx.note_healthy();
    }

    stopped = hooks.accept(it);
    ++it;
    // Mid-run snapshots only: a run that is about to return rebuilds
    // nothing on resume, and the final model is the caller's to persist.
    const bool due =
        !stopped && it < max_iterations && ctx.checkpoint_due(it);
    if (guard || due) {
      snapshot.iteration = it;
      hooks.save(snapshot);
    }
    if (due) ctx.save_checkpoint(snapshot);
  }
  ctx.finish(out);
  return it;
}

}  // namespace sptd
