#pragma once
/// \file checkpoint.hpp
/// \brief Atomic, checksummed snapshots of iterative-solver state.
///
/// A Checkpoint is a driver-agnostic bag of state: an iteration counter, a
/// recovery-RNG state, named scalars, named double series (fit history,
/// lambda, the CCD++ residual, ...), the primary factor matrices, and an
/// optional auxiliary factor set (completion's best-validation model).
/// Values serialize as text with max_digits10, so doubles round-trip
/// exactly — restoring a checkpoint and continuing reproduces the
/// uninterrupted f64 run bitwise.
///
/// File layout (text):
///   sptd-checkpoint 1 <kind>
///   checksum <16 hex digits>        (FNV-1a 64 over the payload below)
///   iteration <n>
///   rng <s0> <s1> <s2> <s3>
///   scalars <count>                 then `<name> <value>` lines
///   series <count>                  then `<name> <len>` + values
///   factors <count>                 then `<rows> <cols>` + row values
///   aux_factors <count>             same encoding as factors
///
/// Scalar and series values are parsed with strtod, so inf/nan round-trip
/// (completion's best-validation RMSE starts at +inf).

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "resilience/resilience.hpp"

namespace sptd {

class FaultInjector;  // resilience/fault.hpp

/// Thrown by CheckpointManager::load_latest when snapshots of the
/// requested kind exist but *every* one of them fails validation (torn
/// write, checksum mismatch, malformed payload). Distinct from the
/// fresh-start nullopt: state was saved and is now unrecoverable, which a
/// caller must surface rather than silently restart from scratch.
class CheckpointCorruptError : public Error {
 public:
  CheckpointCorruptError(const std::string& dir, const std::string& kind,
                         int files_rejected)
      : Error("checkpoint: all " + std::to_string(files_rejected) + " '" +
              kind + "' snapshots in " + dir +
              " failed validation (corrupt or truncated); refusing to "
              "silently start fresh"),
        files_rejected_(files_rejected) {}

  [[nodiscard]] int files_rejected() const { return files_rejected_; }

 private:
  int files_rejected_;
};

/// Snapshot of one driver's restartable state.
struct Checkpoint {
  /// "cpals" | "tucker" | "completion" | "dist" | "dist-rank<r>"
  std::string kind;
  int iteration = 0;  ///< completed iterations at snapshot time
  std::array<std::uint64_t, 4> rng_state{};  ///< recovery RNG words

  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<la::Matrix> factors;
  std::vector<la::Matrix> aux_factors;

  void set_scalar(const std::string& name, double value);
  /// Returns the named scalar or \p fallback when absent.
  double scalar(const std::string& name, double fallback) const;
  /// True if the named scalar is present.
  bool has_scalar(const std::string& name) const;

  /// Copy-assigns into the named series, so a long-lived snapshot that is
  /// refilled every iteration reuses its storage.
  void set_series(const std::string& name, const std::vector<double>& values);
  /// The named series, created empty when absent (fill in place).
  std::vector<double>& series_ref(const std::string& name);
  /// Returns the named series, or nullptr when absent.
  const std::vector<double>* find_series(const std::string& name) const;

  /// Throws sptd::Error unless factor m is rows[m] x cols[m] for every
  /// mode; \p who prefixes the message.
  void check_factor_shapes(const dims_t& rows, const dims_t& cols,
                           const std::string& who) const;

  /// Serializes to the on-disk text format (header + checksum + payload).
  std::string serialize() const;
  /// Parses a serialized checkpoint; verifies the checksum. Throws
  /// sptd::Error on malformed or corrupt input.
  static Checkpoint deserialize(const std::string& text);
};

/// Writes, rotates, and locates checkpoint files inside one directory.
/// Files are named `<kind>-<iteration>.ckpt`; writes are atomic
/// (tmp + fsync + rename) and the last \p keep snapshots are retained.
class CheckpointManager {
 public:
  /// Disabled manager: due() is always false, save() refuses.
  CheckpointManager() = default;

  CheckpointManager(std::string dir, std::string kind, int every,
                    int keep = 2);

  [[nodiscard]] bool enabled() const {
    return every_ > 0 && !dir_.empty();
  }

  /// True when a snapshot is owed after \p completed iterations.
  [[nodiscard]] bool due(int completed) const {
    return enabled() && completed > 0 && completed % every_ == 0;
  }

  /// Serializes and writes \p ck. Returns false (after updating
  /// \p counters.checkpoint_failures) when the write fails — injected via
  /// \p injector's io-fail budget or a real IO error. Checkpoint failures
  /// are non-fatal by design: the run continues and retries at the next
  /// interval, it just has an older restart point.
  bool save(const Checkpoint& ck, FaultInjector* injector,
            ResilienceCounters& counters);

  /// Newest checkpoint of \p kind in \p dir that parses and passes its
  /// checksum; corrupt or torn files are skipped with a warning and the
  /// loader falls back to the next-older snapshot. Returns nullopt when no
  /// files of the kind exist (fresh start); throws CheckpointCorruptError
  /// when files exist but all of them fail validation.
  static std::optional<Checkpoint> load_latest(const std::string& dir,
                                               const std::string& kind);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string kind_;
  int every_ = 0;
  int keep_ = 2;
  std::vector<std::pair<int, std::string>> written_;
};

/// Loads one explicit checkpoint file (the distributed rejoin path, where
/// the launcher already selected the rollback snapshot by name). Returns
/// nullopt when the file is missing or unreadable; throws sptd::Error when
/// it exists but fails validation.
std::optional<Checkpoint> load_checkpoint_file(const std::string& path);

}  // namespace sptd
