// Tests for src/resilience: checksums, atomic writes, checkpoint
// round-trips and rotation, the run_iterations() skeleton against a
// scripted driver, bitwise kill-and-resume equivalence for every
// iterative driver, health-monitor semantics, and the rank-deficient
// Tikhonov-retry path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/rng.hpp"
#include "completion/completion.hpp"
#include "cpd/cpals.hpp"
#include "dist/dist_cpals.hpp"
#include "la/cholesky.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/context.hpp"
#include "resilience/health.hpp"
#include "tensor/synthetic.hpp"
#include "tucker/tucker.hpp"

namespace sptd {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("sptd_resilience_") + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SparseTensor test_tensor(std::uint64_t seed = 900) {
  return generate_synthetic({.dims = {18, 22, 14}, .nnz = 1500,
                             .seed = seed, .zipf_exponent = 0.5});
}

// ---------------------------------------------------------------- checksum

TEST(Checksum, Fnv1a64KnownVectors) {
  // Published FNV-1a 64 vectors: empty input is the offset basis, and "a".
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  // Sensitivity: one flipped bit changes the digest.
  EXPECT_NE(fnv1a64("ab", 2), fnv1a64("ac", 2));
}

// ----------------------------------------------------------------- file IO

TEST(FileIo, AtomicWriteRoundTrips) {
  ScratchDir dir("fileio");
  const std::string path = dir.path() + "/out.txt";
  atomic_write_file(path, "hello\nworld\n");
  const auto back = read_file_to_string(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "hello\nworld\n");
  // No temp file left behind.
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

TEST(FileIo, AtomicWriteToMissingDirectoryThrows) {
  EXPECT_THROW(atomic_write_file("/nonexistent_sptd_dir/x", "y"), Error);
}

TEST(FileIo, ReadMissingFileReturnsNullopt) {
  EXPECT_FALSE(read_file_to_string("/nonexistent_sptd_file").has_value());
}

// -------------------------------------------------------------- checkpoint

Checkpoint sample_checkpoint() {
  Rng rng(11);
  Checkpoint ck;
  ck.kind = "cpals";
  ck.iteration = 7;
  ck.rng_state = {1, 2, 3, 0xffffffffffffffffULL};
  ck.set_scalar("prev_fit", 0.123456789012345678);
  ck.set_scalar("best_val", std::numeric_limits<double>::infinity());
  ck.set_series("fit_history", {0.1, 0.2, 0.30000000000000004});
  ck.factors.push_back(la::Matrix::random(5, 3, rng));
  ck.factors.push_back(la::Matrix::random(4, 3, rng));
  ck.aux_factors.push_back(la::Matrix::random(5, 3, rng));
  return ck;
}

TEST(Checkpoint, SerializeRoundTripsBitwise) {
  const Checkpoint ck = sample_checkpoint();
  const Checkpoint back = Checkpoint::deserialize(ck.serialize());
  EXPECT_EQ(back.kind, ck.kind);
  EXPECT_EQ(back.iteration, ck.iteration);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  EXPECT_EQ(back.scalar("prev_fit", 0.0), ck.scalar("prev_fit", 1.0));
  EXPECT_TRUE(std::isinf(back.scalar("best_val", 0.0)));
  const std::vector<double>* fh = back.find_series("fit_history");
  ASSERT_NE(fh, nullptr);
  EXPECT_EQ((*fh)[2], 0.30000000000000004);  // exact, not approximate
  ASSERT_EQ(back.factors.size(), 2u);
  EXPECT_EQ(back.factors[0].max_abs_diff(ck.factors[0]), 0.0);
  EXPECT_EQ(back.factors[1].max_abs_diff(ck.factors[1]), 0.0);
  ASSERT_EQ(back.aux_factors.size(), 1u);
  EXPECT_EQ(back.aux_factors[0].max_abs_diff(ck.aux_factors[0]), 0.0);
}

TEST(Checkpoint, DeserializeRejectsCorruptPayload) {
  std::string text = sample_checkpoint().serialize();
  const std::size_t pos = text.find("iteration");
  ASSERT_NE(pos, std::string::npos);
  text[pos + std::string("iteration ").size()] = '9';
  EXPECT_THROW(Checkpoint::deserialize(text), Error);
}

TEST(Checkpoint, DeserializeRejectsTruncation) {
  std::string text = sample_checkpoint().serialize();
  text.resize(text.size() / 2);
  EXPECT_THROW(Checkpoint::deserialize(text), Error);
}

TEST(CheckpointManager, RotatesAndLoadsNewest) {
  ScratchDir dir("rotate");
  CheckpointManager mgr(dir.path(), "cpals", 1, /*keep=*/2);
  ResilienceCounters counters;
  for (int it = 1; it <= 5; ++it) {
    Checkpoint ck = sample_checkpoint();
    ck.iteration = it;
    EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  }
  EXPECT_EQ(counters.checkpoints, 5);
  // Only the last `keep` files survive rotation.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 2);
  const auto latest = CheckpointManager::load_latest(dir.path(), "cpals");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 5);
}

TEST(CheckpointManager, SkipsCorruptNewestFallsBackToOlder) {
  ScratchDir dir("fallback");
  CheckpointManager mgr(dir.path(), "cpals", 1, /*keep=*/3);
  ResilienceCounters counters;
  for (int it = 1; it <= 2; ++it) {
    Checkpoint ck = sample_checkpoint();
    ck.iteration = it;
    EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  }
  // Tear the newest file in half — a simulated mid-write crash without the
  // atomic rename. load_latest must reject it by checksum and fall back.
  const std::string newest = dir.path() + "/cpals-00000002.ckpt";
  const auto full = read_file_to_string(newest);
  ASSERT_TRUE(full.has_value());
  atomic_write_file(newest, full->substr(0, full->size() / 2));
  const auto latest = CheckpointManager::load_latest(dir.path(), "cpals");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 1);
}

TEST(CheckpointManager, AllSnapshotsCorruptIsAStructuredError) {
  // When every rotation snapshot fails validation the caller must get a
  // loud CheckpointCorruptError — saved state exists but is unrecoverable,
  // which is not the same thing as a fresh start.
  ScratchDir dir("allbad");
  CheckpointManager mgr(dir.path(), "cpals", 1, /*keep=*/2);
  ResilienceCounters counters;
  for (int it = 1; it <= 2; ++it) {
    Checkpoint ck = sample_checkpoint();
    ck.iteration = it;
    EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  }
  for (const auto& e : fs::directory_iterator(dir.path())) {
    const auto full = read_file_to_string(e.path().string());
    ASSERT_TRUE(full.has_value());
    atomic_write_file(e.path().string(), full->substr(0, full->size() / 2));
  }
  try {
    (void)CheckpointManager::load_latest(dir.path(), "cpals");
    FAIL() << "expected CheckpointCorruptError";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.files_rejected(), 2);
  }
}

TEST(CheckpointManager, LoadCheckpointFileByPath) {
  ScratchDir dir("bypath");
  Checkpoint ck = sample_checkpoint();
  ck.iteration = 7;
  const std::string path = dir.path() + "/one.ckpt";
  atomic_write_file(path, ck.serialize());
  const auto loaded = load_checkpoint_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->iteration, 7);
  // Missing file: nullopt. Corrupt file: throws.
  EXPECT_FALSE(load_checkpoint_file(dir.path() + "/nope.ckpt").has_value());
  atomic_write_file(path, ck.serialize().substr(0, 40));
  EXPECT_THROW((void)load_checkpoint_file(path), Error);
}

TEST(CheckpointManager, IgnoresOtherKinds) {
  ScratchDir dir("kinds");
  CheckpointManager mgr(dir.path(), "tucker", 1);
  ResilienceCounters counters;
  Checkpoint ck = sample_checkpoint();
  ck.kind = "tucker";
  ck.iteration = 3;
  EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  EXPECT_FALSE(
      CheckpointManager::load_latest(dir.path(), "cpals").has_value());
  EXPECT_TRUE(
      CheckpointManager::load_latest(dir.path(), "tucker").has_value());
}

// ---------------------------------------------------------- health monitor

la::Matrix small_matrix(double fill) {
  la::Matrix m(2, 2);
  m.fill(static_cast<val_t>(fill));
  return m;
}

TEST(HealthMonitor, FlagsNonFiniteFactor) {
  HealthMonitor hm(true, 3);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  factors[0](1, 1) = std::numeric_limits<val_t>::quiet_NaN();
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.5),
            HealthIssue::kNonFiniteFactor);
}

TEST(HealthMonitor, FlagsNonFiniteLambdaAndLoss) {
  HealthMonitor hm(true, 3);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  std::vector<val_t> lambda = {1.0,
                               std::numeric_limits<val_t>::infinity()};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.5),
            HealthIssue::kNonFiniteFactor);
  lambda[1] = 1.0;
  EXPECT_EQ(hm.inspect(factors, lambda,
                       std::numeric_limits<double>::quiet_NaN()),
            HealthIssue::kNonFiniteLoss);
}

TEST(HealthMonitor, DivergenceNeedsPatienceConsecutiveRegressions) {
  HealthMonitor hm(true, 2);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.10), HealthIssue::kNone);
  // Clearly regressing (> best * 1.5): first strike.
  EXPECT_EQ(hm.inspect(factors, lambda, 0.40), HealthIssue::kNone);
  // A healthy iteration resets the streak.
  EXPECT_EQ(hm.inspect(factors, lambda, 0.11), HealthIssue::kNone);
  EXPECT_EQ(hm.inspect(factors, lambda, 0.40), HealthIssue::kNone);
  // Second consecutive strike trips the patience=2 budget.
  EXPECT_EQ(hm.inspect(factors, lambda, 0.41), HealthIssue::kDivergence);
}

TEST(HealthMonitor, MildRegressionNeverFlags) {
  // ALS fit wobble within the 1.5x margin must never trip the guard —
  // that is the contract that keeps guards on by default without touching
  // bit-identical f64 runs.
  HealthMonitor hm(true, 1);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.10), HealthIssue::kNone);
  EXPECT_EQ(hm.inspect(factors, lambda, 0.149), HealthIssue::kNone);
  EXPECT_EQ(hm.inspect(factors, lambda, 0.12), HealthIssue::kNone);
}

TEST(HealthMonitor, DisabledMonitorSeesNothing) {
  HealthMonitor hm(false, 1);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(
      std::numeric_limits<double>::quiet_NaN()));
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.5), HealthIssue::kNone);
}

TEST(HealthMonitor, PerturbFactorsIsSmallAndFinite) {
  Rng rng(5);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(2.0));
  perturb_factors(factors, rng, 1e-3);
  for (idx_t i = 0; i < 2; ++i) {
    for (idx_t j = 0; j < 2; ++j) {
      const double v = factors[0](i, j);
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_NEAR(v, 2.0, 2.0 * 1e-3);
      EXPECT_NE(v, 2.0);  // jitter actually moved the entry
    }
  }
}

// ------------------------------------------------ run_iterations skeleton

/// A scripted driver for run_iterations(): one 1x1 factor holding the
/// number of sweeps its state has seen, a loss per (iteration, attempt)
/// from a script, and a record of every hook call the skeleton makes.
struct FakeDriver {
  std::vector<la::Matrix> factors{la::Matrix(1, 1)};
  std::vector<val_t> lambda;
  std::vector<double> history;  ///< loss of each accepted iteration
  /// Loss of attempt `attempt` (1-based) at iteration `it`.
  std::function<double(int it, int attempt)> script = [](int, int) {
    return 0.5;
  };
  int stop_after = -1;  ///< accept() stops the run at this iteration

  std::vector<int> sweeps;               ///< iteration of every sweep
  std::vector<int> restored;             ///< iteration of every restore
  std::vector<std::size_t> restored_history;  ///< history length then
  std::vector<double> perturbed;         ///< factor value after jitter
  std::map<int, int> attempts;
  double last_loss = 0.0;

  IterationHooks hooks() {
    IterationHooks h;
    h.factors = &factors;
    h.lambda = &lambda;
    h.sweep = [this](int it) {
      sweeps.push_back(it);
      factors[0](0, 0) += 1.0;
      ++attempts[it];
    };
    h.loss = [this](int it, bool) {
      last_loss = script(it, attempts[it]);
      return last_loss;
    };
    h.accept = [this](int it) {
      history.push_back(last_loss);
      return it == stop_after;
    };
    h.save = [this](Checkpoint& ck) {
      ck.factors = factors;
      ck.set_series("loss", history);
    };
    h.restore = [this](const Checkpoint& ck) {
      factors = ck.factors;
      history = *ck.find_series("loss");
      restored.push_back(ck.iteration);
      restored_history.push_back(history.size());
    };
    h.best_loss = [this] {
      double best = std::numeric_limits<double>::infinity();
      for (const double l : history) best = std::min(best, l);
      return best;
    };
    h.after_perturb = [this] { perturbed.push_back(factors[0](0, 0)); };
    return h;
  }
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(RunIterations, RollbackRestoresLastHealthyIterationAndHistory) {
  FakeDriver d;
  d.script = [](int it, int attempt) {
    return it == 2 && attempt == 1 ? kNaN : 0.5;
  };
  ResilienceContext ctx({}, "fake", 1);
  ResilienceCounters out;
  EXPECT_EQ(run_iterations(ctx, d.hooks(), 4, out), 4);
  EXPECT_EQ(d.sweeps, (std::vector<int>{0, 1, 2, 2, 3}));
  ASSERT_EQ(d.restored, std::vector<int>{2});
  EXPECT_EQ(d.restored_history, std::vector<std::size_t>{2});
  // The failed sweep's effect was discarded: the state had seen 2 sweeps
  // when it was jittered (by at most 1e-3 relative).
  ASSERT_EQ(d.perturbed.size(), 1u);
  EXPECT_NEAR(d.perturbed[0], 2.0, 2.0 * 1e-3);
  EXPECT_EQ(d.history.size(), 4u);
  EXPECT_EQ(out.retries, 1);
  EXPECT_EQ(out.rollbacks, 1);
}

TEST(RunIterations, HealthyIterationResetsRetryStreak) {
  // Two separate incidents with one healthy iteration between them: each
  // fits a budget of one retry because the streak resets.
  FakeDriver d;
  d.script = [](int it, int attempt) {
    return (it == 1 || it == 3) && attempt == 1 ? kNaN : 0.5;
  };
  ResilienceOptions opts;
  opts.max_retries = 1;
  ResilienceContext ctx(opts, "fake", 1);
  ResilienceCounters out;
  EXPECT_EQ(run_iterations(ctx, d.hooks(), 5, out), 5);
  EXPECT_EQ(out.retries, 2);
  EXPECT_EQ(d.restored, (std::vector<int>{1, 3}));
}

TEST(RunIterations, ExhaustedRetriesThrowWithFailingIteration) {
  FakeDriver d;
  d.script = [](int it, int) { return it == 2 ? kNaN : 0.5; };
  ResilienceOptions opts;
  opts.max_retries = 2;
  ResilienceContext ctx(opts, "fake", 1);
  ResilienceCounters out;
  try {
    run_iterations(ctx, d.hooks(), 5, out);
    FAIL() << "expected ResilienceError";
  } catch (const ResilienceError& e) {
    EXPECT_EQ(e.iteration(), 2);
    EXPECT_EQ(e.retries(), 2);
    EXPECT_EQ(e.issue(), HealthIssue::kNonFiniteLoss);
  }
  EXPECT_EQ(d.attempts[2], 3);
}

TEST(RunIterations, NoCheckpointAtFinalIterationOrAfterToleranceStop) {
  ScratchDir dir("skeleton_cadence");
  ResilienceOptions opts;
  opts.checkpoint_dir = dir.path();
  opts.checkpoint_every = 1;
  {
    FakeDriver d;
    ResilienceContext ctx(opts, "fake", 1);
    ResilienceCounters out;
    EXPECT_EQ(run_iterations(ctx, d.hooks(), 3, out), 3);
    EXPECT_EQ(out.checkpoints, 2);  // after 1 and 2, not after 3
    EXPECT_EQ(CheckpointManager::load_latest(dir.path(), "fake")->iteration,
              2);
  }
  fs::remove_all(dir.path());
  fs::create_directories(dir.path());
  {
    FakeDriver d;
    d.stop_after = 1;  // accept() converges at iteration 1
    ResilienceContext ctx(opts, "fake", 1);
    ResilienceCounters out;
    EXPECT_EQ(run_iterations(ctx, d.hooks(), 5, out), 2);
    EXPECT_EQ(out.checkpoints, 1);  // after 1 only
    EXPECT_EQ(CheckpointManager::load_latest(dir.path(), "fake")->iteration,
              1);
  }
}

TEST(RunIterations, ResumeSeedsHealthTrendFromRestoredHistory) {
  ScratchDir dir("skeleton_resume");
  ResilienceOptions opts;
  opts.checkpoint_dir = dir.path();
  opts.checkpoint_every = 2;
  opts.divergence_patience = 1;
  opts.max_retries = 0;
  {
    FakeDriver d;
    d.script = [](int, int) { return 0.1; };
    ResilienceContext ctx(opts, "fake", 1);
    ResilienceCounters out;
    run_iterations(ctx, d.hooks(), 3, out);  // snapshot after 2
  }
  // 0.5 is clearly worse than the restored best of 0.1: a fresh trend
  // would accept it as its first loss, a seeded one flags divergence.
  opts.resume = true;
  FakeDriver d;
  d.script = [](int, int) { return 0.5; };
  ResilienceContext ctx(opts, "fake", 1);
  ResilienceCounters out;
  try {
    run_iterations(ctx, d.hooks(), 4, out);
    FAIL() << "expected ResilienceError";
  } catch (const ResilienceError& e) {
    EXPECT_EQ(e.issue(), HealthIssue::kDivergence);
    EXPECT_EQ(e.iteration(), 2);
  }
  EXPECT_EQ(d.restored, std::vector<int>{2});
  EXPECT_EQ(d.restored_history, std::vector<std::size_t>{2});
}

TEST(RunIterations, RollbackDoesNotRewindRecoveryRng) {
  // Two failed attempts roll back to the same snapshot, which carries the
  // RNG state stamped by its on-disk write. A rewind would jitter both
  // retries identically.
  ScratchDir dir("skeleton_rng");
  ResilienceOptions opts;
  opts.checkpoint_dir = dir.path();
  opts.checkpoint_every = 1;
  opts.max_retries = 3;
  FakeDriver d;
  d.script = [](int it, int attempt) {
    return it == 1 && attempt <= 2 ? kNaN : 0.5;
  };
  ResilienceContext ctx(opts, "fake", 1);
  ResilienceCounters out;
  run_iterations(ctx, d.hooks(), 3, out);
  EXPECT_EQ(d.restored, (std::vector<int>{1, 1}));
  ASSERT_EQ(d.perturbed.size(), 2u);
  EXPECT_NE(d.perturbed[0], d.perturbed[1]);
}

// -------------------------------------------------- bitwise resume: cpals

CpalsOptions cpals_base() {
  CpalsOptions o;
  o.rank = 5;
  o.max_iterations = 8;
  o.tolerance = 0.0;
  o.seed = 23;
  o.nthreads = 1;
  return o;
}

TEST(Resume, CpalsKillAndResumeIsBitwise) {
  ScratchDir dir("cpals");
  // Reference: uninterrupted run.
  SparseTensor x1 = test_tensor();
  const CpalsResult ref = cp_als(x1, cpals_base());

  // "Killed" run: stop after 5 iterations with a checkpoint at 4...
  SparseTensor x2 = test_tensor();
  CpalsOptions part = cpals_base();
  part.max_iterations = 5;
  part.resilience.checkpoint_dir = dir.path();
  part.resilience.checkpoint_every = 4;
  (void)cp_als(x2, part);

  // ...then resume to completion from iteration 4.
  SparseTensor x3 = test_tensor();
  CpalsOptions rest = cpals_base();
  rest.resilience.checkpoint_dir = dir.path();
  rest.resilience.resume = true;
  const CpalsResult res = cp_als(x3, rest);

  EXPECT_EQ(res.resilience.resumed_from, 4);
  ASSERT_EQ(res.iterations, ref.iterations);
  ASSERT_EQ(res.fit_history.size(), ref.fit_history.size());
  for (std::size_t i = 0; i < ref.fit_history.size(); ++i) {
    EXPECT_EQ(res.fit_history[i], ref.fit_history[i]) << "iteration " << i;
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  ref.model.factors[static_cast<std::size_t>(m)]),
              0.0)
        << "mode " << m;
  }
  for (idx_t r = 0; r < 5; ++r) {
    EXPECT_EQ(res.model.lambda[r], ref.model.lambda[r]);
  }
}

TEST(Resume, EmptyDirIsFreshStartNotError) {
  ScratchDir dir("fresh");
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.resume = true;
  const CpalsResult r = cp_als(x, o);
  EXPECT_EQ(r.resilience.resumed_from, -1);
  EXPECT_EQ(r.iterations, 8);
}

TEST(Resume, ResumeWithoutDirThrows) {
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.resume = true;  // no checkpoint_dir
  EXPECT_THROW(cp_als(x, o), Error);
}

TEST(Resume, ShapeMismatchIsRejected) {
  ScratchDir dir("shape");
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.checkpoint_every = 4;
  (void)cp_als(x, o);

  SparseTensor x2 = test_tensor();
  CpalsOptions wrong = cpals_base();
  wrong.rank = 6;  // checkpoint factors carry rank 5
  wrong.resilience.checkpoint_dir = dir.path();
  wrong.resilience.resume = true;
  EXPECT_THROW(cp_als(x2, wrong), Error);
}

// -------------------------------------------------- bitwise resume: tucker

TEST(Resume, TuckerKillAndResumeIsBitwise) {
  ScratchDir dir("tucker");
  TuckerOptions base;
  base.core_dims = {3, 3, 3};
  base.max_iterations = 6;
  base.tolerance = 0.0;
  base.seed = 17;
  base.nthreads = 1;

  SparseTensor x1 = test_tensor();
  const TuckerResult ref = tucker_hooi(x1, base);

  SparseTensor x2 = test_tensor();
  TuckerOptions part = base;
  part.max_iterations = 4;
  part.resilience.checkpoint_dir = dir.path();
  part.resilience.checkpoint_every = 3;
  (void)tucker_hooi(x2, part);

  SparseTensor x3 = test_tensor();
  TuckerOptions rest = base;
  rest.resilience.checkpoint_dir = dir.path();
  rest.resilience.resume = true;
  const TuckerResult res = tucker_hooi(x3, rest);

  EXPECT_EQ(res.resilience.resumed_from, 3);
  ASSERT_EQ(res.fit_history.size(), ref.fit_history.size());
  for (std::size_t i = 0; i < ref.fit_history.size(); ++i) {
    EXPECT_EQ(res.fit_history[i], ref.fit_history[i]) << "iteration " << i;
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  ref.model.factors[static_cast<std::size_t>(m)]),
              0.0)
        << "mode " << m;
  }
  ASSERT_EQ(res.model.core.size(), ref.model.core.size());
  for (std::size_t i = 0; i < ref.model.core.size(); ++i) {
    EXPECT_EQ(res.model.core[i], ref.model.core[i]) << "core entry " << i;
  }
}

// ---------------------------------------------- bitwise resume: completion

class CompletionResumeTest
    : public ::testing::TestWithParam<CompletionAlgorithm> {};

TEST_P(CompletionResumeTest, KillAndResumeIsBitwise) {
  ScratchDir dir("completion");
  SparseTensor t = test_tensor(901);
  const auto [train, val] = split_train_test(t, 0.2, 7);

  CompletionOptions base;
  base.algorithm = GetParam();
  base.rank = 4;
  base.max_iterations = 8;
  base.tolerance = 0.0;  // fixed-length runs keep the comparison simple
  base.nthreads = 1;
  base.seed = 31;

  const CompletionResult ref = complete_tensor(train, &val, base);

  CompletionOptions part = base;
  part.max_iterations = 5;
  part.resilience.checkpoint_dir = dir.path();
  part.resilience.checkpoint_every = 4;
  (void)complete_tensor(train, &val, part);

  CompletionOptions rest = base;
  rest.resilience.checkpoint_dir = dir.path();
  rest.resilience.resume = true;
  const CompletionResult res = complete_tensor(train, &val, rest);

  EXPECT_EQ(res.resilience.resumed_from, 4);
  ASSERT_EQ(res.train_rmse.size(), ref.train_rmse.size());
  for (std::size_t i = 0; i < ref.train_rmse.size(); ++i) {
    EXPECT_EQ(res.train_rmse[i], ref.train_rmse[i]) << "epoch " << i;
  }
  ASSERT_EQ(res.val_rmse.size(), ref.val_rmse.size());
  for (std::size_t i = 0; i < ref.val_rmse.size(); ++i) {
    EXPECT_EQ(res.val_rmse[i], ref.val_rmse[i]) << "epoch " << i;
  }
  EXPECT_EQ(res.best_iteration, ref.best_iteration);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  ref.model.factors[static_cast<std::size_t>(m)]),
              0.0)
        << "mode " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, CompletionResumeTest,
                         ::testing::Values(CompletionAlgorithm::kAls,
                                           CompletionAlgorithm::kSgd,
                                           CompletionAlgorithm::kCcd),
                         [](const auto& info) {
                           return std::string(
                               completion_algorithm_name(info.param));
                         });

// ---------------------------------------------------- bitwise resume: dist

TEST(Resume, DistKillAndResumeIsBitwise) {
  ScratchDir dir("dist");
  DistOptions base;
  base.grid = {2, 2, 1};
  base.rank = 4;
  base.max_iterations = 6;
  base.seed = 23;

  SparseTensor x1 = test_tensor();
  const DistResult ref = dist_cp_als(x1, base);

  SparseTensor x2 = test_tensor();
  DistOptions part = base;
  part.max_iterations = 4;
  part.resilience.checkpoint_dir = dir.path();
  part.resilience.checkpoint_every = 3;
  (void)dist_cp_als(x2, part);

  SparseTensor x3 = test_tensor();
  DistOptions rest = base;
  rest.resilience.checkpoint_dir = dir.path();
  rest.resilience.resume = true;
  const DistResult res = dist_cp_als(x3, rest);

  EXPECT_EQ(res.resilience.resumed_from, 3);
  ASSERT_EQ(res.fit_history.size(), ref.fit_history.size());
  for (std::size_t i = 0; i < ref.fit_history.size(); ++i) {
    EXPECT_EQ(res.fit_history[i], ref.fit_history[i]) << "iteration " << i;
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  ref.model.factors[static_cast<std::size_t>(m)]),
              0.0)
        << "mode " << m;
  }
  // Comm accounting is an invariant of the iteration count, so the
  // resumed totals equal the clean run's.
  EXPECT_EQ(res.comm.total(), ref.comm.total());
}

// ------------------------------------------- rank-deficient Tikhonov path

TEST(RankDeficient, SingularGramConvergesViaTikhonovBump) {
  // Two modes of extent 1 make those factors single rows a and b, so the
  // mode-2 normal equations use (a a^T) ∘ (b b^T) = (a∘b)(a∘b)^T — rank
  // one, singular for any rank >= 2. The solve must detect the failed
  // Cholesky and retry with a Tikhonov bump, and the run must still
  // produce finite factors.
  SparseTensor x = generate_synthetic({.dims = {1, 1, 20}, .nnz = 8,
                                       .seed = 42, .zipf_exponent = 0.3});
  CpalsOptions o;
  o.rank = 3;
  o.max_iterations = 5;
  o.tolerance = 0.0;
  o.seed = 23;
  o.nthreads = 1;
  const std::uint64_t bumps_before = la::tikhonov_bump_count();
  const CpalsResult r = cp_als(x, o);
  EXPECT_GT(la::tikhonov_bump_count(), bumps_before)
      << "singular Gram never triggered the Tikhonov retry";
  EXPECT_GT(r.resilience.gram_bumps, 0u);
  for (const double f : r.fit_history) {
    EXPECT_TRUE(std::isfinite(f));
  }
  for (const auto& factor : r.model.factors) {
    for (idx_t i = 0; i < factor.rows(); ++i) {
      for (idx_t j = 0; j < factor.cols(); ++j) {
        EXPECT_TRUE(std::isfinite(static_cast<double>(factor(i, j))));
      }
    }
  }
}

TEST(RankDeficient, PotrfReportsFailureOnSingularMatrix) {
  // Direct unit check of the detection layer under the solver: a singular
  // SPD candidate must make potrf report failure rather than emit NaNs.
  la::Matrix v(3, 3);
  v.fill(val_t{1});  // rank-one: 3x3 of all ones
  la::Matrix chol = v;
  EXPECT_FALSE(la::potrf(chol));
}

// ---------------------------------------- checkpoint overhead sanity check

TEST(CheckpointOverhead, CountersTrackBytesAndTime) {
  ScratchDir dir("overhead");
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.checkpoint_every = 2;
  const CpalsResult r = cp_als(x, o);
  // 8 iterations, every 2, mid-run only: snapshots at 2, 4, 6.
  EXPECT_EQ(r.resilience.checkpoints, 3);
  EXPECT_GT(r.resilience.checkpoint_bytes, 0u);
  EXPECT_GE(r.resilience.checkpoint_seconds, 0.0);
}

}  // namespace
}  // namespace sptd
