// perfbench: the sptd end-to-end benchmark harness.
//
//   perfbench gen --preset P --scale S --seed N --out FILE
//       writes the preset's synthetic tensor for seed N as a .tns file.
//   perfbench run --kind cpd|tucker --tensor FILE --threads T
//                 --seconds S --trace 0|1 [--iters I] [--seed N]
//                 [--trace-out FILE]
//       runs the workload as a closed loop (one job at a time) for S
//       seconds, and for at least kMinJobs jobs after one warm-up job, and
//       prints its metrics; the last stdout line is one JSON object
//       {"correct", "attempted", "failed", "metrics"}.
//
// An untraced run (--trace 0) times whole jobs through the library's
// drivers (cp_als_csf, tucker_hooi) and reports the
// end-to-end metrics. A traced run (--trace 1) replays each driver's step
// order through the same public calls, with a span around every call into
// a layer, and reports per-layer metrics. Spans live in memory and are
// written to --trace-out when the run ends.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "sptd.hpp"
#include "parallel/partition.hpp"

namespace {

using namespace sptd;
using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

// Returns freed heap to the kernel and restarts its peak-RSS tracking, so
// VmHWM covers one job and not what earlier jobs left in the allocator.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// Peak resident set of this process (VmHWM) since the last reset, in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

// ---------------------------------------------------------------- tracing

// In-memory span recorder. A span has a name, start, end and parent; every
// span of one run carries the run id. Counters are attached to the root
// span open when they are recorded.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
    int root = -1;
    int iteration = -1;  // enclosing "iteration" span, if any
  };
  struct Count {
    std::string name;
    int root = -1;
    double value = 0;
  };

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  template <typename F>
  decltype(auto) span(const std::string& name, F&& f) {
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, open(name)};
    return f();
  }

  void count(const std::string& name, double value) {
    counts_.push_back({name, stack_.empty() ? -1 : stack_.front(), value});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"run\": \"%s\", \"spans\": [", run_id_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\": %zu, \"run\": \"%s\", \"name\": \"%s\", "
                   "\"start\": %.9f, \"end\": %.9f, \"parent\": %d}",
                   i ? "," : "", i, run_id_.c_str(), s.name.c_str(), s.start,
                   s.end, s.parent);
    }
    std::fprintf(f, "],\n\"counts\": [");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      std::fprintf(f, "%s\n{\"name\": \"%s\", \"root\": %d, \"value\": %.17g}",
                   i ? "," : "", counts_[i].name.c_str(), counts_[i].root,
                   counts_[i].value);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  int open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.root = s.parent < 0 ? id : spans_[static_cast<std::size_t>(s.parent)].root;
    s.iteration =
        name == "iteration"
            ? id
            : (s.parent < 0 ? -1
                            : spans_[static_cast<std::size_t>(s.parent)].iteration);
    s.start = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int> stack_;
};

// Spans that only group others; every other span is a call into a layer.
bool is_container(const std::string& name) {
  return name == "job" || name == "probe" || name == "setup" ||
         name == "solve" || name == "iteration";
}

// ------------------------------------------------------------- parameters

// Every untraced run times at least this many jobs, and every traced run at
// least this many rounds of one reference job and one traced job, so that
// each reported median has at least three samples.
constexpr int kMinJobs = 3;

// Model sizes, the same in a workload's jobs and in the probes: CP rank,
// Tucker core per mode, and completion rank and holdout share.
constexpr idx_t kCpRank = 35;
constexpr idx_t kTuckerCore = 8;
constexpr idx_t kCompletionRank = 10;
constexpr double kHoldout = 0.2;

struct Params {
  std::string kind;
  std::string tensor;
  int iterations = 10;
  std::uint64_t seed = 1;
  int threads = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

CpalsOptions cpd_options(const Params& p, int threads) {
  CpalsOptions o;
  o.rank = kCpRank;
  o.max_iterations = p.iterations;
  o.tolerance = 0.0;
  o.nthreads = threads;
  o.backend = ParallelBackendKind::kOmp;
  return o;
}

// The MttkrpOptions cp_als_csf derives from its CpalsOptions.
MttkrpOptions mttkrp_options(const CpalsOptions& o) {
  MttkrpOptions m;
  m.nthreads = o.nthreads;
  m.row_access = o.row_access;
  m.lock_kind = o.lock_kind;
  m.schedule = o.schedule;
  m.chunk_target = o.chunk_target;
  m.privatization_threshold = o.privatization_threshold;
  m.force_locks = o.force_locks;
  m.allow_privatization = o.allow_privatization;
  m.use_fixed_kernels = o.use_fixed_kernels;
  m.csf_layout = o.csf_layout;
  m.precision = o.precision;
  m.backend = o.backend;
  return m;
}

TuckerOptions tucker_options(const Params& p, int order, int threads) {
  TuckerOptions o;
  o.core_dims.assign(static_cast<std::size_t>(order), kTuckerCore);
  o.max_iterations = p.iterations;
  o.tolerance = 0.0;
  o.nthreads = threads;
  o.backend = ParallelBackendKind::kOmp;
  return o;
}

CompletionOptions complete_options(const Params& p, int threads) {
  CompletionOptions o;
  o.rank = kCompletionRank;
  o.max_iterations = p.iterations;
  o.tolerance = 0.0;
  o.nthreads = threads;
  o.backend = ParallelBackendKind::kOmp;
  return o;
}

// ------------------------------------------------ direct output checks

// Fit 1 - ||X - M|| / ||X|| of a Kruskal model, from the nonzeros and the
// factors, without the library's fit identity or BLAS.
double direct_cp_fit(const SparseTensor& x, const KruskalModel& model,
                     int threads) {
  const int order = x.order();
  const idx_t rank = model.rank();
  std::vector<double> part(static_cast<std::size_t>(threads), 0.0);
  parallel_region(threads, [&](int tid, int nt) {
    const Range r = block_partition(x.nnz(), nt, tid);
    double acc = 0;
    for (nnz_t n = r.begin; n < r.end; ++n) {
      double pred = 0;
      for (idx_t k = 0; k < rank; ++k) {
        double prod = model.lambda[k];
        for (int m = 0; m < order; ++m) {
          prod *= model.factors[static_cast<std::size_t>(m)](x.ind(m)[n], k);
        }
        pred += prod;
      }
      acc += x.vals()[n] * pred;
    }
    part[static_cast<std::size_t>(tid)] = acc;
  });
  double inner = 0;
  for (const double v : part) inner += v;

  // ||M||^2 = sum_{r,s} l_r l_s prod_m (A_m^T A_m)(r, s).
  std::vector<double> had(static_cast<std::size_t>(rank) * rank, 1.0);
  for (const la::Matrix& a : model.factors) {
    for (idx_t r = 0; r < rank; ++r) {
      for (idx_t s = 0; s < rank; ++s) {
        double g = 0;
        for (idx_t i = 0; i < a.rows(); ++i) g += a(i, r) * a(i, s);
        had[static_cast<std::size_t>(r) * rank + s] *= g;
      }
    }
  }
  double norm_m = 0;
  for (idx_t r = 0; r < rank; ++r) {
    for (idx_t s = 0; s < rank; ++s) {
      norm_m += model.lambda[r] * model.lambda[s] *
                had[static_cast<std::size_t>(r) * rank + s];
    }
  }
  double norm_x = 0;
  for (const val_t v : x.vals()) norm_x += v * v;
  const double resid = std::max(0.0, norm_x + norm_m - 2 * inner);
  return 1.0 - std::sqrt(resid) / std::sqrt(norm_x);
}

// Model value at \p coords: the dense core (last mode fastest) contracted
// with each mode's factor row, sum_j G(j) prod_m U_m(coords[m], j_m).
// \p scratch holds prod(core_dims) values.
double contract_core(const TuckerModel& model, const idx_t* coords,
                     std::vector<double>& scratch) {
  const int order = model.order();
  std::size_t len = model.core.size();
  std::copy(model.core.begin(), model.core.end(), scratch.begin());
  for (int m = order - 1; m >= 0; --m) {
    const idx_t r = model.core_dims[static_cast<std::size_t>(m)];
    const val_t* u = model.factors[static_cast<std::size_t>(m)].row_ptr(coords[m]);
    len /= r;
    for (std::size_t o = 0; o < len; ++o) {
      double acc = 0;
      for (idx_t j = 0; j < r; ++j) acc += scratch[o * r + j] * u[j];
      scratch[o] = acc;
    }
  }
  return scratch[0];
}

// Tucker fit from the nonzeros and the model: ||X||^2 - 2<X, Xhat> +
// ||Xhat||^2, with ||Xhat||^2 = <G, G x_m (U_m^T U_m)> (no orthonormality
// assumed).
double direct_tucker_fit(const SparseTensor& x, const TuckerModel& model,
                         int threads) {
  const int order = x.order();
  std::vector<double> part(static_cast<std::size_t>(threads), 0.0);
  parallel_region(threads, [&](int tid, int nt) {
    const Range r = block_partition(x.nnz(), nt, tid);
    std::vector<double> scratch(model.core.size());
    idx_t c[kMaxOrder] = {};
    double acc = 0;
    for (nnz_t n = r.begin; n < r.end; ++n) {
      for (int m = 0; m < order; ++m) c[m] = x.ind(m)[n];
      acc += x.vals()[n] * contract_core(model, c, scratch);
    }
    part[static_cast<std::size_t>(tid)] = acc;
  });
  double inner = 0;
  for (const double v : part) inner += v;

  std::vector<double> h(model.core.begin(), model.core.end());
  std::size_t inner_stride = 1;
  for (int m = order - 1; m >= 0; --m) {
    const la::Matrix& u = model.factors[static_cast<std::size_t>(m)];
    const idx_t r = model.core_dims[static_cast<std::size_t>(m)];
    std::vector<double> gram(static_cast<std::size_t>(r) * r, 0.0);
    for (idx_t a = 0; a < r; ++a) {
      for (idx_t b = 0; b < r; ++b) {
        double g = 0;
        for (idx_t i = 0; i < u.rows(); ++i) g += u(i, a) * u(i, b);
        gram[static_cast<std::size_t>(a) * r + b] = g;
      }
    }
    std::vector<double> next(h.size(), 0.0);
    const std::size_t outer = h.size() / (inner_stride * r);
    for (std::size_t o = 0; o < outer; ++o) {
      for (idx_t a = 0; a < r; ++a) {
        for (idx_t b = 0; b < r; ++b) {
          const double g = gram[static_cast<std::size_t>(a) * r + b];
          for (std::size_t i = 0; i < inner_stride; ++i) {
            next[(o * r + a) * inner_stride + i] +=
                g * h[(o * r + b) * inner_stride + i];
          }
        }
      }
    }
    h = std::move(next);
    inner_stride *= r;
  }
  double norm_hat = 0;
  for (std::size_t i = 0; i < h.size(); ++i) norm_hat += model.core[i] * h[i];
  double norm_x = 0;
  for (const val_t v : x.vals()) norm_x += v * v;
  const double resid = std::max(0.0, norm_x + norm_hat - 2 * inner);
  return 1.0 - std::sqrt(resid) / std::sqrt(norm_x);
}

// --------------------------------------------------------- untraced jobs

struct JobResult {
  double setup_s = 0, solve_s = 0, peak_rss_mb = 0;
  double fit = 0;  // the driver's final fit
  std::vector<std::string> failures;
};

void expect(JobResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

JobResult cpd_job(const Params& p, int threads) {
  JobResult r;
  const double t0 = now_s();
  SparseTensor x = read_tns_file(p.tensor);
  const val_t norm = x.norm_sq();
  const CpalsOptions o = cpd_options(p, threads);
  CsfSet set(x, o.csf_policy, o.nthreads, nullptr, o.sort_variant,
             o.csf_layout);
  // cp_als is exactly this CsfSet + cp_als_csf. The MTTKRP plan is built
  // inside cp_als_csf, so it is timed in solve_s.
  const double t1 = now_s();
  const CpalsResult res = cp_als_csf(set, norm, o);
  const double t2 = now_s();
  r.setup_s = t1 - t0;
  r.solve_s = t2 - t1;
  r.fit = res.fit_history.empty() ? 0.0 : res.fit_history.back();
  expect(r, res.iterations == p.iterations, "cpd: iteration count");
  const double direct = direct_cp_fit(x, res.model, threads);
  expect(r, std::abs(direct - r.fit) <= 1e-8,
         "cpd: driver fit " + std::to_string(r.fit) +
             " != direct residual fit " + std::to_string(direct));
  return r;
}

JobResult tucker_job(const Params& p, int threads) {
  JobResult r;
  const double t0 = now_s();
  const SparseTensor x = read_tns_file(p.tensor);
  const double t1 = now_s();
  const TuckerResult res =
      tucker_hooi(x, tucker_options(p, x.order(), threads));
  const double t2 = now_s();
  r.setup_s = t1 - t0;
  r.solve_s = t2 - t1;
  r.fit = res.fit_history.empty() ? 0.0 : res.fit_history.back();
  expect(r, res.iterations == p.iterations, "tucker: iteration count");
  const double direct = direct_tucker_fit(x, res.model, threads);
  expect(r, std::abs(direct - r.fit) <= 1e-8,
         "tucker: driver fit " + std::to_string(r.fit) +
             " != direct residual fit " + std::to_string(direct));
  return r;
}

JobResult run_job(const Params& p, int threads) {
  reset_peak_rss();
  JobResult r = p.kind == "cpd" ? cpd_job(p, threads) : tucker_job(p, threads);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// ------------------------------------------------------------ replays
//
// Each replay walks its driver's step order through the same public calls
// and wraps each call in a span. Small steps the drivers keep private
// (Tucker's factor update) are re-implemented here verbatim, so the replay
// reproduces the driver's result.

// MTTKRP traffic of one launch, computed from the CSF widths and fiber
// counts: index streams + values + one factor-row gather per fiber of each
// input level + output-row traffic (written once at the root level,
// read-modify-written below it). Flops: one multiply-add per rank per
// fiber below the root.
struct Traffic {
  double bytes = 0, flops = 0;
};

Traffic mttkrp_traffic(const MttkrpPlan& plan, int mode) {
  const MttkrpPlan::ModePlan& mp = plan.mode_plan(mode);
  const CsfTensor& csf = *mp.csf;
  const double row = static_cast<double>(plan.rank()) * sizeof(val_t);
  Traffic t;
  for (int l = 0; l < csf.order(); ++l) {
    const auto nf = static_cast<double>(csf.nfibers(l));
    t.bytes += nf * csf.fid_width(l);
    if (l < csf.order() - 1) t.bytes += (nf + 1) * csf.ptr_width(l);
    t.bytes += l == mp.level ? nf * row * (l == 0 ? 1 : 2) : nf * row;
    if (l > 0) t.flops += 2.0 * nf * static_cast<double>(plan.rank());
  }
  t.bytes += static_cast<double>(csf.nnz()) * sizeof(val_t);
  return t;
}

std::string mode_span(int m) { return "mttkrp.mode" + std::to_string(m); }

struct CpdState {
  KruskalModel model;
  double fit = 0;
};

// cp_als_csf's step order (no resilience bookkeeping), including the
// MTTKRP plan it builds after the initial Grams.
CpdState cpd_replay(const CsfSet& set, val_t norm_sq, const CpalsOptions& o,
                    int iterations, Tracer& tr) {
  const dims_t& dims = set.csfs().front().dims();
  const int order = set.order();
  const idx_t rank = o.rank;
  const int nt = o.nthreads;
  CpdState st;
  KruskalModel& model = st.model;
  tr.span("cpd.init", [&] {
    Rng rng(o.seed);
    model.lambda.assign(rank, val_t{1});
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(
          la::Matrix::random(dims[static_cast<std::size_t>(m)], rank, rng));
    }
  });
  std::vector<la::Matrix> grams;
  tr.span("la.gram", [&] {
    for (int m = 0; m < order; ++m) {
      grams.emplace_back(rank, rank);
      la::ata(model.factors[static_cast<std::size_t>(m)],
              grams[static_cast<std::size_t>(m)], nt);
    }
  });
  std::unique_ptr<MttkrpPlan> plan_ptr;
  tr.span("mttkrp.plan", [&] {
    plan_ptr = std::make_unique<MttkrpPlan>(set, rank, mttkrp_options(o));
  });
  MttkrpPlan& plan = *plan_ptr;
  int locks = 0;
  for (int m = 0; m < order; ++m) {
    locks += plan.mode_plan(m).strategy == SyncStrategy::kLock ? 1 : 0;
  }
  tr.count("mttkrp.lock_modes", locks);
  la::Matrix v(rank, rank);
  la::Matrix fit_m;
  PrivateBuffers partials(nt, static_cast<nnz_t>(rank));
  for (int m = 0; m < order; ++m) {
    const Traffic t = mttkrp_traffic(plan, m);
    tr.count("mttkrp.bytes_computed", t.bytes);
    tr.count("mttkrp.flops_computed", t.flops);
  }
  const std::uint64_t bumps0 = la::tikhonov_bump_count();
  const std::uint64_t steals0 = plan.steals();
  for (int it = 0; it < iterations; ++it) {
    tr.span("iteration", [&] {
      for (int m = 0; m < order; ++m) {
        la::Matrix out(dims[static_cast<std::size_t>(m)], rank);
        tr.span(mode_span(m), [&] { plan.execute(model.factors, m, out); });
        if (m == order - 1) tr.span("cpd.fit", [&] { fit_m = out; });
        tr.span("la.gram", [&] { la::gram_hadamard(grams, m, v); });
        tr.span("la.inverse",
                [&] { la::solve_normal_equations(v, out, nt); });
        la::Matrix& factor = model.factors[static_cast<std::size_t>(m)];
        factor = std::move(out);
        tr.span("la.normalize", [&] {
          la::normalize_columns(factor, model.lambda,
                                it == 0 ? la::MatNorm::kTwo : la::MatNorm::kMax,
                                nt);
        });
        tr.span("la.gram", [&] {
          la::ata(factor, grams[static_cast<std::size_t>(m)], nt);
        });
      }
      tr.span("cpd.fit", [&] {
        const val_t inner = detail::fit_inner_product(
            fit_m, model.factors.back(), model.lambda, nt, partials);
        const val_t norm_z = detail::model_norm_sq(grams, model.lambda);
        val_t resid = norm_sq + norm_z - 2 * inner;
        if (resid < val_t{0}) resid = 0;
        st.fit = 1.0 - std::sqrt(static_cast<double>(resid)) /
                           std::sqrt(static_cast<double>(norm_sq));
      });
    });
  }
  tr.count("cpd.iterations", iterations);
  tr.count("la.tikhonov_bumps",
           static_cast<double>(la::tikhonov_bump_count() - bumps0));
  tr.count("mttkrp.steals", static_cast<double>(plan.steals() - steals0));
  return st;
}

// Sorts \p x and builds a CSF set under a "csf.build" span, recording the
// sort time, the sort fast-path hits and the set's footprint.
std::unique_ptr<CsfSet> build_csf(SparseTensor& x, CsfPolicy policy,
                                  int nthreads, CsfLayout layout, Tracer& tr) {
  std::unique_ptr<CsfSet> set;
  double sort_s = 0;
  const std::uint64_t hits0 = sort_fastpath_hits();
  tr.span("csf.build", [&] {
    set = std::make_unique<CsfSet>(x, policy, nthreads, &sort_s,
                                   SortVariant::kAllOpts, layout);
  });
  tr.count("sort.s", sort_s);
  tr.count("sort.fastpath_hits",
           static_cast<double>(sort_fastpath_hits() - hits0));
  double index_bytes = 0;
  for (const CsfTensor& c : set->csfs()) index_bytes += c.index_bytes();
  tr.count("csf.bytes", static_cast<double>(set->memory_bytes()));
  tr.count("csf.index_bytes", index_bytes);
  return set;
}

// Median time of one full MTTKRP sweep (every mode) over \p reps sweeps.
double mttkrp_sweep_s(MttkrpPlan& plan, const std::vector<la::Matrix>& factors,
                      int reps) {
  std::vector<la::Matrix> outs;
  for (int m = 0; m < plan.order(); ++m) {
    outs.emplace_back(factors[static_cast<std::size_t>(m)].rows(),
                      plan.rank());
  }
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int m = 0; m < plan.order(); ++m) {
      plan.execute(factors, m, outs[static_cast<std::size_t>(m)]);
    }
    times.push_back(now_s() - t0);
  }
  return median(times);
}

// 1-thread vs T-thread MTTKRP sweep on the same CSF set and plan options.
double mttkrp_speedup(const CsfSet& set, const CpalsOptions& o,
                      const std::vector<la::Matrix>& factors) {
  CpalsOptions o1 = o;
  o1.nthreads = 1;
  MttkrpPlan plan1(set, o.rank, mttkrp_options(o1));
  MttkrpPlan plan_t(set, o.rank, mttkrp_options(o));
  const double t1 = mttkrp_sweep_s(plan1, factors, 3);
  const double tt = mttkrp_sweep_s(plan_t, factors, 3);
  return t1 / tt;
}

// tucker.cpp keeps these two helpers private; they are reproduced here
// loop for loop so the replay's factors match the driver's.
void orthonormalize_columns(la::Matrix& a) {
  const idx_t rows = a.rows();
  const idx_t cols = a.cols();
  for (idx_t j = 0; j < cols; ++j) {
    for (idx_t p = 0; p < j; ++p) {
      val_t dot = 0;
      for (idx_t i = 0; i < rows; ++i) dot += a(i, j) * a(i, p);
      for (idx_t i = 0; i < rows; ++i) a(i, j) -= dot * a(i, p);
    }
    val_t norm = 0;
    for (idx_t i = 0; i < rows; ++i) norm += a(i, j) * a(i, j);
    norm = std::sqrt(norm);
    if (norm < val_t{1e-12}) {
      for (idx_t i = 0; i < rows; ++i) {
        a(i, j) = (i == j % rows) ? val_t{1} : val_t{0};
      }
    } else {
      const val_t inv = val_t{1} / norm;
      for (idx_t i = 0; i < rows; ++i) a(i, j) *= inv;
    }
  }
}

void matmul_rows_parallel(const la::Matrix& a, const la::Matrix& b,
                          la::Matrix& c, int nthreads) {
  parallel_region(nthreads, [&](int tid, int nt) {
    const Range rows = block_partition(a.rows(), nt, tid);
    for (nnz_t i = rows.begin; i < rows.end; ++i) {
      const val_t* arow = a.row_ptr(static_cast<idx_t>(i));
      val_t* crow = c.row_ptr(static_cast<idx_t>(i));
      for (idx_t j = 0; j < b.cols(); ++j) crow[j] = 0;
      for (idx_t p = 0; p < a.cols(); ++p) {
        const val_t aip = arow[p];
        const val_t* brow = b.row_ptr(p);
        for (idx_t j = 0; j < b.cols(); ++j) crow[j] += aip * brow[j];
      }
    }
  });
}

// tucker_hooi's step order (no resilience bookkeeping). Returns the fit.
double tucker_replay(const SparseTensor& x, const TuckerOptions& o,
                     int iterations, Tracer& tr) {
  const int order = x.order();
  const int nt = o.nthreads;
  const val_t norm_x = tr.span("tensor.norm_sq", [&] { return x.norm_sq(); });
  std::unique_ptr<CsfSet> set;
  std::vector<SliceSchedule> schedules(static_cast<std::size_t>(order));
  tr.span("tucker.csf_build", [&] {
    SparseTensor sorted = tr.span("tensor.copy", [&] { return x; });
    set = build_csf(sorted, CsfPolicy::kAllMode, nt, o.csf_layout, tr);
    for (int m = 0; m < order; ++m) {
      int level = 0;
      const CsfTensor& rep = set->csf_for_mode(m, level);
      schedules[static_cast<std::size_t>(m)] = SliceSchedule(
          o.schedule, rep.nfibers(0), rep.root_nnz_prefix(), nt);
    }
  });
  TuckerModel model;
  tr.span("tucker.init", [&] {
    model.core_dims = o.core_dims;
    Rng rng(o.seed);
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(la::Matrix::random(
          x.dim(m), o.core_dims[static_cast<std::size_t>(m)], rng));
      orthonormalize_columns(model.factors.back());
    }
  });
  double fit = 0;
  for (int it = 0; it < iterations; ++it) {
    tr.span("iteration", [&] {
      val_t core_norm_sq = 0;
      for (int m = 0; m < order; ++m) {
        const idx_t rm = o.core_dims[static_cast<std::size_t>(m)];
        std::size_t k = 1;
        for (int n = 0; n < order; ++n) {
          if (n != m) k *= o.core_dims[static_cast<std::size_t>(n)];
        }
        const auto kk = static_cast<idx_t>(k);
        la::Matrix w = tr.span("tucker.ttmc", [&] {
          la::Matrix out(x.dim(m), kk);
          int level = 0;
          ttmc_csf(set->csf_for_mode(m, level), model.factors, out, nt,
                   &schedules[static_cast<std::size_t>(m)], o.precision);
          return out;
        });
        la::Matrix gram(kk, kk);
        tr.span("la.gram", [&] { la::ata(w, gram, nt); });
        std::vector<val_t> evals(k);
        la::Matrix evecs(kk, kk);
        tr.span("tucker.eigen",
                [&] { la::symmetric_eigen(gram, evals, evecs); });
        tr.span("tucker.factor", [&] {
          la::Matrix v_top(kk, rm);
          core_norm_sq = 0;
          for (idx_t j = 0; j < rm; ++j) {
            const val_t ev = std::max(evals[j], val_t{0});
            core_norm_sq += ev;
            const val_t inv_sigma =
                ev > val_t{1e-24} ? val_t{1} / std::sqrt(ev) : val_t{0};
            for (idx_t i = 0; i < kk; ++i) v_top(i, j) = evecs(i, j) * inv_sigma;
          }
          la::Matrix& factor = model.factors[static_cast<std::size_t>(m)];
          matmul_rows_parallel(w, v_top, factor, nt);
          orthonormalize_columns(factor);
        });
      }
      val_t resid = norm_x - core_norm_sq;
      if (resid < val_t{0}) resid = 0;
      fit = 1.0 - std::sqrt(static_cast<double>(resid)) /
                      std::sqrt(static_cast<double>(norm_x));
    });
  }
  return fit;
}

// complete_tensor's step order (no resilience bookkeeping).
void complete_replay(const SparseTensor& train, const SparseTensor& val,
                     const CompletionOptions& o, int iterations, Tracer& tr) {
  const int order = train.order();
  std::unique_ptr<CompletionWorkspace> ws;
  tr.span("completion.workspace",
          [&] { ws = std::make_unique<CompletionWorkspace>(train, o); });
  KruskalModel model;
  double best_val = std::numeric_limits<double>::infinity();
  std::unique_ptr<CompletionSolver> solver;
  tr.span("completion.init", [&] {
    model.lambda.assign(o.rank, val_t{1});
    Rng rng(o.seed);
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(la::Matrix::random(train.dim(m), o.rank, rng));
      for (val_t& v : model.factors.back().values()) v *= val_t{0.5};
    }
    solver = make_completion_solver(*ws);
    solver->begin(model);
  });
  std::vector<la::Matrix> best;
  for (int it = 0; it < iterations; ++it) {
    tr.span("iteration", [&] {
      tr.span("completion.epoch", [&] { solver->run_epoch(model, it); });
      const double v = tr.span("completion.rmse", [&] {
        (void)rmse(train, model, o.nthreads, o.use_fixed_kernels);
        return rmse(val, model, o.nthreads, o.use_fixed_kernels);
      });
      if (v < best_val) {
        best_val = v;
        tr.span("completion.best", [&] { best = model.factors; });
      }
    });
  }
}

// ------------------------------------------------------------ probes

struct StreamResult {
  double gbps = 0;
  double array_bytes = 0;
  double llc_bytes = 0;
  std::string llc_source;
};

double llc_bytes(std::string& source) {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) {
    source = "sysconf";
    return static_cast<double>(v);
  }
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lvl(dir + "level"), sz(dir + "size");
    int level = 0;
    std::string size;
    if (lvl >> level && sz >> size && level == 3 && !size.empty()) {
      double bytes = std::atof(size.c_str());
      if (size.back() == 'K') bytes *= 1024;
      if (size.back() == 'M') bytes *= 1024 * 1024;
      source = "sysfs";
      return bytes;
    }
  }
  source = "default";
  return 32.0 * 1024 * 1024;
}

// STREAM-style copy b = a over arrays of at least 4x the LLC, first-touched
// and copied by the same team partition; best of several copies, counting
// the read and the write of each element.
StreamResult stream_copy(int threads) {
  StreamResult r;
  r.llc_bytes = llc_bytes(r.llc_source);
  const auto n = static_cast<std::size_t>(4 * r.llc_bytes / sizeof(double)) + 1;
  r.array_bytes = static_cast<double>(n * sizeof(double));
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  parallel_region(threads, [&](int tid, int nt) {
    const Range rg = block_partition(n, nt, tid);
    for (nnz_t i = rg.begin; i < rg.end; ++i) {
      a[i] = static_cast<double>(i);
      b[i] = 0.0;
    }
  });
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 6; ++rep) {
    const double t0 = now_s();
    parallel_region(threads, [&](int tid, int nt) {
      const Range rg = block_partition(n, nt, tid);
      std::memcpy(b.get() + rg.begin, a.get() + rg.begin,
                  rg.size() * sizeof(double));
    });
    best = std::min(best, now_s() - t0);
  }
  if (b[n - 1] != a[n - 1]) throw std::runtime_error("stream copy mismatch");
  r.gbps = 2.0 * r.array_bytes / best / 1e9;
  return r;
}

// Round trip of an empty parallel_region at T threads, in microseconds.
double region_us(int threads) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const int calls = 2000;
    const double t0 = now_s();
    for (int i = 0; i < calls; ++i) parallel_region(threads, [](int, int) {});
    batches.push_back((now_s() - t0) / calls * 1e6);
  }
  return median(batches);
}

// ------------------------------------------------------- traced run

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

// Per-layer aggregation over the spans of a set of roots.
class LayerView {
 public:
  LayerView(const Tracer& tr, const std::set<int>& roots)
      : tr_(tr), roots_(roots) {}

  [[nodiscard]] bool has(const std::string& name) const {
    for (const auto& s : tr_.spans()) {
      if (s.name == name && roots_.count(s.root)) return true;
    }
    for (const auto& c : tr_.counts()) {
      if (c.name == name && roots_.count(c.root)) return true;
    }
    return false;
  }
  // Median over roots of the summed span durations (or counter values).
  [[nodiscard]] double per_root(const std::string& name) const {
    std::map<int, double> sums;
    for (const auto& s : tr_.spans()) {
      if (s.name == name && roots_.count(s.root)) sums[s.root] += s.end - s.start;
    }
    for (const auto& c : tr_.counts()) {
      if (c.name == name && roots_.count(c.root)) sums[c.root] += c.value;
    }
    return median_of(sums);
  }
  // Median over iterations of the summed durations inside each iteration.
  [[nodiscard]] double per_iteration(const std::string& prefix) const {
    std::map<int, double> sums;
    for (const auto& s : tr_.spans()) {
      if (s.iteration >= 0 && roots_.count(s.root) &&
          s.name.compare(0, prefix.size(), prefix) == 0) {
        sums[s.iteration] += s.end - s.start;
      }
    }
    return median_of(sums);
  }
  // Median duration of one span.
  [[nodiscard]] double per_launch(const std::string& name) const {
    std::vector<double> d;
    for (const auto& s : tr_.spans()) {
      if (s.name == name && roots_.count(s.root)) d.push_back(s.end - s.start);
    }
    return median(d);
  }

 private:
  static double median_of(const std::map<int, double>& m) {
    std::vector<double> v;
    for (const auto& [k, x] : m) v.push_back(x);
    return median(v);
  }
  const Tracer& tr_;
  std::set<int> roots_;
};

// Self time of each span: its duration minus its children's.
std::vector<double> self_times(const Tracer& tr) {
  const auto& spans = tr.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

// Share of root \p root's wall covered by layer-span self time, and the
// summed layer self time inside its "solve" span.
std::pair<double, double> coverage(const Tracer& tr, int root) {
  const auto& spans = tr.spans();
  const std::vector<double> self = self_times(tr);
  double covered = 0, solve_layers = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.root != root || is_container(s.name)) continue;
    covered += self[i];
    for (int p = s.parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
      if (spans[static_cast<std::size_t>(p)].name == "solve") {
        solve_layers += self[i];
        break;
      }
    }
  }
  const auto& r = spans[static_cast<std::size_t>(root)];
  return {covered / (r.end - r.start), solve_layers};
}

struct TracedJob {
  double fit = 0;
  std::vector<la::Matrix> factors;  // cpd: final factors, for the speedup
};

// One traced job of the workload's own kind: setup and solve under spans.
TracedJob traced_job(const Params& p, Tracer& tr) {
  TracedJob out;
  tr.span("job", [&] {
    SparseTensor x;
    tr.span("setup", [&] {
      x = tr.span("tensor.parse", [&] { return read_tns_file(p.tensor); });
    });
    if (p.kind == "cpd") {
      const CpalsOptions o = cpd_options(p, p.threads);
      std::unique_ptr<CsfSet> set;
      val_t norm = 0;
      tr.span("setup", [&] {
        norm = tr.span("tensor.norm_sq", [&] { return x.norm_sq(); });
        set = build_csf(x, o.csf_policy, o.nthreads, o.csf_layout, tr);
      });
      CpdState st = tr.span(
          "solve", [&] { return cpd_replay(*set, norm, o, p.iterations, tr); });
      out.fit = st.fit;
      out.factors = std::move(st.model.factors);
    } else {
      const TuckerOptions o = tucker_options(p, x.order(), p.threads);
      out.fit = tr.span("solve",
                        [&] { return tucker_replay(x, o, p.iterations, tr); });
    }
  });
  return out;
}

// One-iteration runs of the layers the workload's own job does not call,
// on the same tensor, so every per-layer metric is measured on every
// workload. Returns the probe's MTTKRP speedup when it ran the cpd layers.
double probes(const Params& p, Tracer& tr) {
  double speedup = 0;
  const SparseTensor x = read_tns_file(p.tensor);
  if (p.kind != "cpd") {
    tr.span("probe", [&] {
      const CpalsOptions o = cpd_options(p, p.threads);
      SparseTensor copy = x;
      const val_t norm = copy.norm_sq();
      const std::unique_ptr<CsfSet> set =
          build_csf(copy, o.csf_policy, o.nthreads, o.csf_layout, tr);
      const CpdState st = cpd_replay(*set, norm, o, 1, tr);
      speedup = mttkrp_speedup(*set, o, st.model.factors);
    });
  }
  if (p.kind != "tucker") {
    tr.span("probe", [&] {
      tucker_replay(x, tucker_options(p, x.order(), p.threads), 1, tr);
    });
  }
  tr.span("probe", [&] {
    auto [train, val] = split_train_test(x, kHoldout, p.seed);
    complete_replay(train, val, complete_options(p, p.threads), 1, tr);
  });
  return speedup;
}

struct RunOutcome {
  int attempted = 0;
  int failed = 0;
  Metrics metrics;
};

// Counts one attempt. \p body appends the checks it fails; a throw fails
// the attempt too. Returns whether the attempt passed.
template <typename F>
bool attempt(RunOutcome& out, const std::string& what, F&& body) {
  std::vector<std::string> failures;
  try {
    body(failures);
  } catch (const std::exception& e) {
    failures.push_back(std::string("threw: ") + e.what());
  }
  ++out.attempted;
  for (const auto& f : failures) {
    std::printf("FAIL %s: %s\n", what.c_str(), f.c_str());
  }
  if (!failures.empty()) ++out.failed;
  return failures.empty();
}

RunOutcome untraced_run(const Params& p) {
  RunOutcome out;
  std::vector<double> setup, solve, total, rss, fit;
  const double t0 = now_s();
  // The first job warms the page cache, the heap and the thread team. Its
  // output is checked like any other job's, but its times are left out.
  attempt(out, "warm-up job",
          [&](auto& f) { f = run_job(p, p.threads).failures; });
  while (out.attempted <= kMinJobs || now_s() - t0 < p.seconds) {
    JobResult r;
    if (!attempt(out, "job " + std::to_string(out.attempted), [&](auto& f) {
          r = run_job(p, p.threads);
          f = r.failures;
        })) {
      continue;
    }
    setup.push_back(r.setup_s);
    solve.push_back(r.solve_s);
    total.push_back(r.setup_s + r.solve_s);
    rss.push_back(r.peak_rss_mb);
    fit.push_back(r.fit);
    std::printf("job %d: setup_s=%.4f solve_s=%.4f peak_rss_mb=%.1f "
                "fit=%.10g\n",
                out.attempted - 1, r.setup_s, r.solve_s, r.peak_rss_mb, r.fit);
    std::fflush(stdout);
  }
  std::printf("jobs=%zu (closed loop, 1 client, %d threads)\n", setup.size(),
              p.threads);
  out.metrics = {
      {"setup_s", {median(setup), "s"}},
      {"solve_s", {median(solve), "s"}},
      {"total_s", {median(total), "s"}},
      {"peak_rss_mb", {median(rss), "MB"}},
      {"fit", {median(fit), "ratio"}},
  };
  return out;
}

RunOutcome traced_run(const Params& p) {
  RunOutcome out;
  Tracer tr(p.kind + "-" + std::to_string(p.seed) + "-" +
            std::to_string(static_cast<long>(getpid())));

  const StreamResult stream = stream_copy(p.threads);
  std::printf("mem.stream: array_bytes=%.0f (x2 arrays) llc_bytes=%.0f "
              "(from %s) gbps=%.3f\n",
              stream.array_bytes, stream.llc_bytes, stream.llc_source.c_str(),
              stream.gbps);
  const double region = region_us(p.threads);

  // Untraced reference jobs alternate with the traced jobs, so that both
  // sample the same stretch of time on the host. Their medians give the
  // trace overhead and the driver overhead, and each one's result checks the
  // replay that follows it.
  std::vector<double> ref_solve, ref_total, ref_fits;
  std::vector<int> job_roots;
  std::vector<double> covers, solve_layers, traced_total;
  std::vector<la::Matrix> factors;
  const double t0 = now_s();
  for (int n = 0; n < kMinJobs || now_s() - t0 < p.seconds; ++n) {
    JobResult ref;
    if (!attempt(out, "reference job", [&](auto& f) {
          ref = run_job(p, p.threads);
          f = ref.failures;
        })) {
      continue;
    }
    ref_solve.push_back(ref.solve_s);
    ref_total.push_back(ref.setup_s + ref.solve_s);
    ref_fits.push_back(ref.fit);
    attempt(out, "traced job", [&](auto& f) {
      // Same start as run_job gives the reference job: freed heap returned
      // to the kernel, so both pay the same page faults.
      reset_peak_rss();
      const auto root = static_cast<int>(tr.spans().size());
      TracedJob j = traced_job(p, tr);
      if (!close_rel(j.fit, ref.fit, 1e-9)) {
        f.push_back("replay fit " + std::to_string(j.fit) +
                    " != driver fit " + std::to_string(ref.fit));
      }
      factors = std::move(j.factors);
      const auto [cov, layers] = coverage(tr, root);
      if (cov < 0.95) {
        f.push_back("span coverage " + std::to_string(cov) + " < 0.95");
      }
      covers.push_back(cov);
      solve_layers.push_back(layers);
      const auto& r = tr.spans()[static_cast<std::size_t>(root)];
      traced_total.push_back(r.end - r.start);
      job_roots.push_back(root);
    });
  }
  const double ref_fit = median(ref_fits);
  // The driver and trace overheads are differences of medians of jobs that
  // vary from one to the next; a difference inside this range is noise.
  if (!ref_solve.empty()) {
    std::printf("reference jobs: %zu, solve_s from %.4f to %.4f; "
                "cpd.driver_overhead_s and trace.overhead below that spread "
                "are noise\n",
                ref_solve.size(),
                *std::min_element(ref_solve.begin(), ref_solve.end()),
                *std::max_element(ref_solve.begin(), ref_solve.end()));
  }

  // The T-thread result must match the 1-thread result.
  double speedup = 0;
  attempt(out, "1-thread job", [&](auto& f) {
    const JobResult one = run_job(p, 1);
    f = one.failures;
    if (!close_rel(one.fit, ref_fit, 1e-9)) {
      f.push_back("1-thread fit " + std::to_string(one.fit) + " != " +
                  std::to_string(p.threads) + "-thread fit " +
                  std::to_string(ref_fit));
    }
    if (p.kind == "cpd" && !factors.empty()) {
      SparseTensor x = read_tns_file(p.tensor);
      const CpalsOptions o = cpd_options(p, p.threads);
      const CsfSet set(x, o.csf_policy, o.nthreads, nullptr, o.sort_variant,
                       o.csf_layout);
      speedup = mttkrp_speedup(set, o, factors);
    }
  });

  const auto first_probe = tr.spans().size();
  attempt(out, "probes", [&](auto&) {
    const double s = probes(p, tr);
    if (p.kind != "cpd") speedup = s;
  });
  std::set<int> probe_roots;
  for (std::size_t i = first_probe; i < tr.spans().size(); ++i) {
    if (tr.spans()[i].parent < 0) probe_roots.insert(static_cast<int>(i));
  }

  if (!p.trace_out.empty()) tr.write(p.trace_out);

  // A layer's metrics come from the workload's own jobs when they call it,
  // else from the probes.
  const LayerView job(tr, std::set<int>(job_roots.begin(), job_roots.end()));
  const LayerView probe(tr, probe_roots);
  auto pick = [&](const std::string& name) -> const LayerView& {
    return job.has(name) ? job : probe;
  };
  auto root_metric = [&](const std::string& n) { return pick(n).per_root(n); };
  auto iter_metric = [&](const std::string& n) {
    return pick(n).per_iteration(n);
  };
  const LayerView& mk = pick("mttkrp.mode0");
  const double iter_s = mk.per_iteration("mttkrp.mode");
  const double bytes = mk.per_root("mttkrp.bytes_computed");
  const double flops = mk.per_root("mttkrp.flops_computed");
  const double gbps = iter_s > 0 ? bytes / iter_s / 1e9 : 0.0;
  const double parse_s = root_metric("tensor.parse");
  const auto parse_bytes =
      static_cast<double>(std::filesystem::file_size(p.tensor));
  const double sort_s = root_metric("sort.s");

  out.metrics = {
      {"tensor.parse_s", {parse_s, "s"}},
      {"tensor.parse_mbps", {parse_bytes / parse_s / 1e6, "MB/s"}},
      {"sort.s", {sort_s, "s"}},
      {"sort.fastpath_hits", {root_metric("sort.fastpath_hits"), "count"}},
      {"csf.build_s", {root_metric("csf.build") - sort_s, "s"}},
      {"csf.bytes", {root_metric("csf.bytes"), "B"}},
      {"csf.index_bytes", {root_metric("csf.index_bytes"), "B"}},
      {"mttkrp.plan_s", {root_metric("mttkrp.plan"), "s"}},
      {"mttkrp.mode0_s", {mk.per_launch("mttkrp.mode0"), "s"}},
      {"mttkrp.mode1_s", {mk.per_launch("mttkrp.mode1"), "s"}},
      {"mttkrp.mode2_s", {mk.per_launch("mttkrp.mode2"), "s"}},
      {"mttkrp.iter_s", {iter_s, "s"}},
      {"mttkrp.bytes_computed", {bytes, "B"}},
      {"mttkrp.gbps_computed", {gbps, "GB/s"}},
      {"mttkrp.flops_per_byte", {bytes > 0 ? flops / bytes : 0.0, "flop/B"}},
      {"mttkrp.roofline_frac", {gbps / stream.gbps, "ratio"}},
      {"mttkrp.lock_modes", {root_metric("mttkrp.lock_modes"), "count"}},
      {"mttkrp.steals", {root_metric("mttkrp.steals"), "count"}},
      {"parallel.mttkrp_speedup", {speedup, "x"}},
      {"parallel.mttkrp_eff", {speedup / p.threads, "ratio"}},
      {"parallel.region_us", {region, "us"}},
      {"la.inverse_s", {iter_metric("la.inverse"), "s"}},
      {"la.gram_s", {iter_metric("la.gram"), "s"}},
      {"la.normalize_s", {iter_metric("la.normalize"), "s"}},
      {"la.tikhonov_bumps", {root_metric("la.tikhonov_bumps"), "count"}},
      {"cpd.fit_s", {iter_metric("cpd.fit"), "s"}},
      {"cpd.iterations", {root_metric("cpd.iterations"), "count"}},
      {"cpd.driver_overhead_s",
       {median(ref_solve) - median(solve_layers), "s"}},
      {"tucker.csf_build_s", {root_metric("tucker.csf_build"), "s"}},
      {"tucker.ttmc_s", {iter_metric("tucker.ttmc"), "s"}},
      {"tucker.eigen_s", {iter_metric("tucker.eigen"), "s"}},
      {"completion.workspace_s", {root_metric("completion.workspace"), "s"}},
      {"completion.epoch_s", {iter_metric("completion.epoch"), "s"}},
      {"completion.rmse_s", {iter_metric("completion.rmse"), "s"}},
      {"mem.stream_gbps", {stream.gbps, "GB/s"}},
      {"trace.coverage", {median(covers), "ratio"}},
      {"trace.overhead",
       {median(traced_total) / median(ref_total), "ratio"}},
  };
  return out;
}

// ------------------------------------------------------------------ main

void print_result(const RunOutcome& out) {
  std::printf("fail_frac=%.6g (%d of %d runs failed)\n",
              out.attempted ? static_cast<double>(out.failed) / out.attempted
                            : 1.0,
              out.failed, out.attempted);
  bool finite = true;
  for (const auto& [name, m] : out.metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("%-26s %.10g %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              out.failed == 0 && finite ? "true" : "false", out.attempted,
              out.failed);
  const char* sep = "";
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument '" + key + "'");
    }
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f,
                 const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

int cmd_gen(const std::map<std::string, std::string>& f) {
  const SyntheticConfig cfg = find_preset(need(f, "preset"))
                                  .scaled(std::stod(need(f, "scale")),
                                          std::stoull(need(f, "seed")));
  const SparseTensor t = generate_synthetic(cfg);
  const std::string out = need(f, "out");
  write_tns_file(t, out + ".tmp");
  std::filesystem::rename(out + ".tmp", out);
  std::printf("generated %s: nnz=%llu dims=", out.c_str(),
              static_cast<unsigned long long>(t.nnz()));
  for (int m = 0; m < t.order(); ++m) {
    std::printf("%s%u", m ? "x" : "", static_cast<unsigned>(t.dim(m)));
  }
  std::printf("\n");
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& f) {
  Params p;
  p.kind = need(f, "kind");
  if (p.kind != "cpd" && p.kind != "tucker") {
    throw std::runtime_error("unknown --kind " + p.kind);
  }
  p.tensor = need(f, "tensor");
  p.threads = std::stoi(need(f, "threads"));
  p.seconds = std::stod(need(f, "seconds"));
  p.trace = need(f, "trace") == "1";
  if (f.count("iters")) p.iterations = std::stoi(f.at("iters"));
  if (f.count("seed")) p.seed = std::stoull(f.at("seed"));
  if (f.count("trace-out")) p.trace_out = f.at("trace-out");
  if (p.threads < 1 || p.iterations < 1) {
    throw std::runtime_error("--threads and --iters must be >= 1");
  }
  set_parallel_backend(ParallelBackendKind::kOmp);
  print_result(p.trace ? traced_run(p) : untraced_run(p));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sptd::init_parallel_runtime();
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "run") return cmd_run(flags);
    std::fprintf(stderr, "usage: perfbench gen|run --flag value ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
