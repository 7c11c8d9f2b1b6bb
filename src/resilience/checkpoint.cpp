#include "resilience/checkpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "resilience/fault.hpp"

namespace sptd {

namespace {

namespace fs = std::filesystem;

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// Bulk doubles are stored as raw bytes ("bin <nbytes>\n<bytes>\n"), not
/// text: %.17g formatting costs ~0.5 us per value, which made a snapshot
/// of a real factor set cost tens of milliseconds — far past the <= 5%
/// overhead contract the ci.sh fig5 gate enforces. Raw doubles are
/// bitwise-exact by construction and checkpoints are machine-local
/// restart artifacts, so native endianness is fine.
void append_raw(std::string& out, const double* data, std::size_t n) {
  out += "bin ";
  append_u64(out, n * sizeof(double));
  out += '\n';
  out.append(reinterpret_cast<const char*>(data), n * sizeof(double));
  out += '\n';
}

void append_matrix(std::string& out, const la::Matrix& m) {
  append_u64(out, m.rows());
  out += ' ';
  append_u64(out, m.cols());
  out += '\n';
  // One raw block per matrix: logical lanes only (cols, not the padded
  // leading dimension), row-major.
  out += "bin ";
  append_u64(out, static_cast<std::uint64_t>(m.rows()) * m.cols() *
                      sizeof(double));
  out += '\n';
  for (idx_t i = 0; i < m.rows(); ++i) {
    out.append(reinterpret_cast<const char*>(m.row_ptr(i)),
               static_cast<std::size_t>(m.cols()) * sizeof(double));
  }
  out += '\n';
}

/// Whitespace tokenizer over the payload; strtod/strtoull based so inf and
/// nan parse, unlike iostream extraction.
class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  std::string next_token() {
    while (pos_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    SPTD_CHECK(pos_ < text_.size(), "checkpoint: truncated payload");
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  void expect(const char* keyword) {
    const std::string tok = next_token();
    SPTD_CHECK(tok == keyword, "checkpoint: expected '" +
                                   std::string(keyword) + "', got '" + tok +
                                   "'");
  }

  double next_double() {
    const std::string tok = next_token();
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    SPTD_CHECK(end == tok.c_str() + tok.size(),
               "checkpoint: bad number '" + tok + "'");
    return v;
  }

  std::uint64_t next_u64() {
    const std::string tok = next_token();
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(tok.c_str(), &end, 10);
    SPTD_CHECK(end == tok.c_str() + tok.size() && tok[0] != '-',
               "checkpoint: bad integer '" + tok + "'");
    return v;
  }

  /// Reads a "bin <nbytes>" block into \p n doubles. The byte count is
  /// followed by exactly one '\n', then the raw bytes, then '\n' — raw
  /// bytes are never tokenized, so whitespace-valued bytes are safe.
  void read_raw(double* dst, std::size_t n) {
    expect("bin");
    const std::uint64_t nbytes = next_u64();
    SPTD_CHECK(nbytes == n * sizeof(double),
               "checkpoint: raw block length mismatch");
    SPTD_CHECK(pos_ < text_.size() && text_[pos_] == '\n',
               "checkpoint: malformed raw block");
    ++pos_;
    SPTD_CHECK(text_.size() - pos_ >= nbytes,
               "checkpoint: truncated raw block");
    std::memcpy(dst, text_.data() + pos_, nbytes);
    pos_ += nbytes;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

la::Matrix read_matrix(Tokenizer& tok) {
  const auto rows = static_cast<idx_t>(tok.next_u64());
  const auto cols = static_cast<idx_t>(tok.next_u64());
  SPTD_CHECK(rows >= 1 && cols >= 1, "checkpoint: bad matrix shape");
  la::Matrix m(rows, cols);
  std::vector<double> flat(static_cast<std::size_t>(rows) * cols);
  tok.read_raw(flat.data(), flat.size());
  for (idx_t i = 0; i < rows; ++i) {
    std::memcpy(m.row_ptr(i),
                flat.data() + static_cast<std::size_t>(i) * cols,
                static_cast<std::size_t>(cols) * sizeof(double));
  }
  return m;
}

void append_factor_section(std::string& out, const char* keyword,
                           const std::vector<la::Matrix>& factors) {
  out += keyword;
  out += ' ';
  append_u64(out, factors.size());
  out += '\n';
  for (const la::Matrix& f : factors) {
    append_matrix(out, f);
  }
}

std::vector<la::Matrix> read_factor_section(Tokenizer& tok,
                                            const char* keyword) {
  tok.expect(keyword);
  const std::uint64_t count = tok.next_u64();
  SPTD_CHECK(count <= static_cast<std::uint64_t>(kMaxOrder),
             "checkpoint: implausible factor count");
  std::vector<la::Matrix> factors;
  factors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    factors.push_back(read_matrix(tok));
  }
  return factors;
}

std::string checkpoint_filename(const std::string& kind, int iteration) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%08d.ckpt", iteration);
  return kind + buf;
}

}  // namespace

void Checkpoint::set_scalar(const std::string& name, double value) {
  for (auto& [n, v] : scalars) {
    if (n == name) {
      v = value;
      return;
    }
  }
  scalars.emplace_back(name, value);
}

double Checkpoint::scalar(const std::string& name, double fallback) const {
  for (const auto& [n, v] : scalars) {
    if (n == name) return v;
  }
  return fallback;
}

bool Checkpoint::has_scalar(const std::string& name) const {
  for (const auto& [n, v] : scalars) {
    if (n == name) return true;
  }
  return false;
}

void Checkpoint::set_series(const std::string& name,
                            const std::vector<double>& values) {
  series_ref(name) = values;
}

std::vector<double>& Checkpoint::series_ref(const std::string& name) {
  for (auto& [n, v] : series) {
    if (n == name) return v;
  }
  return series.emplace_back(name, std::vector<double>{}).second;
}

const std::vector<double>* Checkpoint::find_series(
    const std::string& name) const {
  for (const auto& [n, v] : series) {
    if (n == name) return &v;
  }
  return nullptr;
}

void Checkpoint::check_factor_shapes(const dims_t& rows, const dims_t& cols,
                                     const std::string& who) const {
  SPTD_CHECK(factors.size() == rows.size(),
             who + " restore: checkpoint order mismatch");
  for (std::size_t m = 0; m < rows.size(); ++m) {
    SPTD_CHECK(factors[m].rows() == rows[m] && factors[m].cols() == cols[m],
               who + " restore: checkpoint factor shape mismatch");
  }
}

std::string Checkpoint::serialize() const {
  std::string body;
  body += "iteration ";
  append_u64(body, static_cast<std::uint64_t>(iteration));
  body += "\nrng";
  for (const std::uint64_t s : rng_state) {
    body += ' ';
    append_u64(body, s);
  }
  body += "\nscalars ";
  append_u64(body, scalars.size());
  body += '\n';
  for (const auto& [name, value] : scalars) {
    body += name;
    body += ' ';
    append_double(body, value);
    body += '\n';
  }
  body += "series ";
  append_u64(body, series.size());
  body += '\n';
  for (const auto& [name, values] : series) {
    body += name;
    body += ' ';
    append_u64(body, values.size());
    body += '\n';
    append_raw(body, values.data(), values.size());
  }
  append_factor_section(body, "factors", factors);
  append_factor_section(body, "aux_factors", aux_factors);

  std::string out = "sptd-checkpoint 2 " + kind + "\nchecksum ";
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, fnv1a64(body));
  out += hex;
  out += '\n';
  out += body;
  return out;
}

Checkpoint Checkpoint::deserialize(const std::string& text) {
  // Header and checksum occupy the first two lines; the payload is the
  // remaining raw bytes, checksummed verbatim.
  const std::size_t first_nl = text.find('\n');
  SPTD_CHECK(first_nl != std::string::npos, "checkpoint: missing header");
  const std::size_t second_nl = text.find('\n', first_nl + 1);
  SPTD_CHECK(second_nl != std::string::npos, "checkpoint: missing checksum");

  Checkpoint ck;
  {
    Tokenizer head(text);
    head.expect("sptd-checkpoint");
    const std::uint64_t version = head.next_u64();
    SPTD_CHECK(version == 2, "checkpoint: unsupported version " +
                                 std::to_string(version));
    ck.kind = head.next_token();
    head.expect("checksum");
    const std::string hex = head.next_token();
    SPTD_CHECK(hex.size() == 16, "checkpoint: malformed checksum");
    char* end = nullptr;
    const std::uint64_t expected = std::strtoull(hex.c_str(), &end, 16);
    SPTD_CHECK(end == hex.c_str() + hex.size(),
               "checkpoint: malformed checksum");
    const std::string_view payload(text.data() + second_nl + 1,
                                   text.size() - second_nl - 1);
    SPTD_CHECK(fnv1a64(payload) == expected,
               "checkpoint: checksum mismatch (file corrupt or truncated)");
  }

  const std::string payload = text.substr(second_nl + 1);
  Tokenizer tok(payload);
  tok.expect("iteration");
  ck.iteration = static_cast<int>(tok.next_u64());
  tok.expect("rng");
  for (std::uint64_t& s : ck.rng_state) {
    s = tok.next_u64();
  }
  tok.expect("scalars");
  const std::uint64_t nscalars = tok.next_u64();
  for (std::uint64_t i = 0; i < nscalars; ++i) {
    const std::string name = tok.next_token();
    ck.scalars.emplace_back(name, tok.next_double());
  }
  tok.expect("series");
  const std::uint64_t nseries = tok.next_u64();
  for (std::uint64_t i = 0; i < nseries; ++i) {
    const std::string name = tok.next_token();
    const std::uint64_t len = tok.next_u64();
    std::vector<double> values(len);
    tok.read_raw(values.data(), values.size());
    ck.series.emplace_back(name, std::move(values));
  }
  ck.factors = read_factor_section(tok, "factors");
  ck.aux_factors = read_factor_section(tok, "aux_factors");
  return ck;
}

CheckpointManager::CheckpointManager(std::string dir, std::string kind,
                                     int every, int keep)
    : dir_(std::move(dir)), kind_(std::move(kind)), every_(every),
      keep_(keep) {}

bool CheckpointManager::save(const Checkpoint& ck, FaultInjector* injector,
                             ResilienceCounters& counters) {
  if (!enabled()) return false;
  WallTimer timer;
  timer.start();
  const std::string text = ck.serialize();
  const std::string path =
      (fs::path(dir_) / checkpoint_filename(kind_, ck.iteration)).string();
  if (injector != nullptr && injector->fail_checkpoint_write()) {
    // Simulate a torn write: a truncated file lands at the target path
    // non-atomically. load_latest must reject it by checksum and fall back
    // to the previous snapshot — exactly what a real torn write looks like
    // to a reader without the atomic-rename discipline.
    std::error_code ec;
    fs::create_directories(dir_, ec);
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn << text.substr(0, text.size() / 2);
    ++counters.checkpoint_failures;
    timer.stop();
    counters.checkpoint_seconds += timer.seconds();
    log_warn("checkpoint: injected IO failure writing " + path);
    return false;
  }
  try {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    // kRelaxed: a crash that loses the rename just resumes from the
    // previous snapshot, so the directory fsync buys nothing here.
    atomic_write_file(path, text, RenameDurability::kRelaxed);
  } catch (const Error& e) {
    ++counters.checkpoint_failures;
    timer.stop();
    counters.checkpoint_seconds += timer.seconds();
    log_warn(std::string("checkpoint: write failed: ") + e.what());
    return false;
  }
  timer.stop();
  ++counters.checkpoints;
  counters.checkpoint_bytes += text.size();
  counters.checkpoint_seconds += timer.seconds();

  written_.emplace_back(ck.iteration, path);
  std::sort(written_.begin(), written_.end());
  while (written_.size() > static_cast<std::size_t>(keep_)) {
    std::error_code ec;
    fs::remove(written_.front().second, ec);
    written_.erase(written_.begin());
  }
  return true;
}

std::optional<Checkpoint> CheckpointManager::load_latest(
    const std::string& dir, const std::string& kind) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return std::nullopt;

  const std::string prefix = kind + "-";
  std::vector<std::pair<int, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + 5 || name.rfind(prefix, 0) != 0 ||
        name.substr(name.size() - 5) != ".ckpt") {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - 5);
    char* end = nullptr;
    const long iter = std::strtol(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size()) continue;
    candidates.emplace_back(static_cast<int>(iter), entry.path().string());
  }
  std::sort(candidates.rbegin(), candidates.rend());

  int rejected = 0;
  for (const auto& [iter, path] : candidates) {
    const std::optional<std::string> text = read_file_to_string(path);
    if (!text) {
      ++rejected;
      continue;
    }
    try {
      Checkpoint ck = Checkpoint::deserialize(*text);
      SPTD_CHECK(ck.kind == kind, "checkpoint: kind mismatch");
      SPTD_CHECK(ck.iteration == iter, "checkpoint: iteration mismatch");
      return ck;
    } catch (const Error& e) {
      ++rejected;
      log_warn("checkpoint: skipping invalid " + path + ": " + e.what());
    }
  }
  if (rejected > 0) {
    // Snapshots were written and every one is now unreadable — both
    // keep-N rotation files failed checksum. Starting fresh here would
    // silently discard converged work, so refuse with structure.
    throw CheckpointCorruptError(dir, kind, rejected);
  }
  return std::nullopt;
}

std::optional<Checkpoint> load_checkpoint_file(const std::string& path) {
  const std::optional<std::string> text = read_file_to_string(path);
  if (!text) return std::nullopt;
  return Checkpoint::deserialize(*text);
}

}  // namespace sptd
