/// \file bench_ablation_privatization.cpp
/// \brief Ablation: the lock-vs-privatize decision. Sweeps the two
///        extremes (always-lock, always-privatize), the library default
///        (choose_sync_strategy's cost rule) and SPLATT's published
///        0.02 * nnz rule (locks on the YELP shape beyond 2 threads,
///        privatizes on NELL-2) across thread counts. The default should
///        track the better extreme on each dataset; the bench checks that
///        and prints the verdict per thread count.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_privatization",
              "lock vs privatize vs the default and SPLATT's rule");
  add_common_flags(cli, "yelp", "0.01", "5", "1,2,4,8");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const ExecConfig exec = start_exec(cli);
  init_parallel_runtime();

  std::printf("== Ablation: synchronization strategy for non-root MTTKRP "
              "==\n");
  SparseTensor x = make_dataset(cli.get_string("preset"),
                                cli.get_double("scale"),
                                static_cast<std::uint64_t>(
                                    cli.get_int("seed")));
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const auto factors = make_factors(x, rank, 7);
  const CsfSet set(x, CsfPolicy::kOneMode, hardware_threads(), nullptr,
                   SortVariant::kAllOpts, exec.csf_layout);
  const auto threads = cli.get_int_list("threads-list");

  enum class Rule { kLock, kPrivatize, kDefault, kSplatt };
  struct Config {
    const char* name;
    Rule rule;
  };
  const Config configs[] = {
      {"always-lock", Rule::kLock},
      {"always-privatize", Rule::kPrivatize},
      {"default", Rule::kDefault},
      {"splatt-0.02", Rule::kSplatt},
  };
  constexpr std::size_t kNumConfigs = std::size(configs);

  const auto options_for = [&](Rule rule, int t) {
    MttkrpOptions mo{exec};
    mo.nthreads = t;
    switch (rule) {
      case Rule::kLock:
        mo.force_locks = true;
        break;
      case Rule::kPrivatize:
        mo.privatization_threshold = 1e18;
        break;
      case Rule::kDefault:
        break;
      case Rule::kSplatt:
        apply_splatt_sync_rule(set, mo);
        break;
    }
    return mo;
  };

  // Min over --trials samples; the configurations take turns within each
  // trial, so drift in the box's load hits them alike.
  const int trials = static_cast<int>(cli.get_int("trials"));
  std::vector<double> seconds[kNumConfigs];
  std::vector<std::string> strategies[kNumConfigs];
  for (const int t : threads) {
    for (int trial = 0; trial < trials; ++trial) {
      for (std::size_t c = 0; c < kNumConfigs; ++c) {
        std::string strat;
        const double secs =
            time_mttkrp_sweeps(set, factors, rank,
                               options_for(configs[c].rule, t), iters,
                               &strat);
        if (trial == 0) {
          seconds[c].push_back(secs);
          strategies[c].push_back(strat);
        } else {
          seconds[c].back() = std::min(seconds[c].back(), secs);
        }
      }
    }
  }

  // The splatt-0.02 row holds one choice for both non-root modes; where
  // SPLATT's rule splits them it is marked, as it then locks both.
  std::vector<bool> splatt_exact;
  for (const int t : threads) {
    MttkrpOptions probe{exec};
    probe.nthreads = t;
    splatt_exact.push_back(apply_splatt_sync_rule(set, probe));
  }

  std::printf("# seconds for %d MTTKRP sweeps, min of %d (OneMode CSF: two "
              "non-root modes); per-mode strategies in brackets\n",
              iters, trials);
  print_series_header(threads);
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    std::printf("%-24s", configs[c].name);
    for (const double s : seconds[c]) {
      std::printf(" %10.4f", s);
    }
    std::string strat;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      strat += (i == 0 ? "t" : " | t") + std::to_string(threads[i]) +
               ": " + strategies[c][i];
      if (configs[c].rule == Rule::kSplatt && !splatt_exact[i]) {
        strat += "*";
      }
    }
    std::printf("  [%s]\n", strat.c_str());
  }
  if (std::find(splatt_exact.begin(), splatt_exact.end(), false) !=
      splatt_exact.end()) {
    std::printf("# * SPLATT's rule locks one non-root mode and privatizes "
                "the other here; the splatt-0.02 row locks both\n");
  }

  // The criterion: at every thread count the default runs the faster
  // extreme's strategies, or runs within 10% of it (wall-clock, so a
  // loaded box can miss; the verdict is reported, not enforced).
  constexpr double kTrackSlack = 1.10;
  int tracked = 0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const std::size_t best = seconds[0][i] <= seconds[1][i] ? 0 : 1;
    const double ratio = seconds[2][i] / seconds[best][i];
    const bool ok = strategies[2][i] == strategies[best][i] ||
                    ratio <= kTrackSlack;
    tracked += ok ? 1 : 0;
    std::printf("# %2d threads: default / %s = %.2fx (splatt-0.02 %.2fx) "
                "%s\n",
                threads[i], configs[best].name, ratio,
                seconds[3][i] / seconds[best][i],
                ok ? "tracks" : "MISSES");
  }
  std::printf("# default tracks the better extreme at %d of %zu thread "
              "counts\n", tracked, threads.size());
  return 0;
}
