// Scaling-series helper: collects (x, measured, predicted) points for one
// experiment sweep, fits log-log growth exponents, and renders the table
// every bench prints (the "figure data" of the reproduction).
//
// This header also hosts SweepRunner, the resilient Monte-Carlo driver that
// layers crash-safe checkpointing (harness/checkpoint.hpp), per-trial
// watchdog deadlines with retry/backoff/quarantine (harness/watchdog.hpp),
// and cooperative SIGINT/SIGTERM shutdown (harness/interrupt.hpp) on top of
// the plain run_trials fan-out, and SweepLedger, the bookkeeping it shares
// with the fabric coordinator (harness/fabric.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "core/table.hpp"
#include "harness/checkpoint.hpp"
#include "harness/watchdog.hpp"
#include "sim/fault_cli.hpp"  // ResilienceOptions (shared CLI surface)
#include "sim/runner.hpp"

namespace mtm {

struct SeriesPoint {
  double x = 0.0;          ///< sweep variable (n, Δ, τ, ...)
  Summary measured;        ///< rounds-to-stabilize across trials
  double predicted = 0.0;  ///< paper bound (constants dropped)
  std::string label;       ///< optional row annotation
};

class ScalingSeries {
 public:
  /// `name` heads the printed table; `x_label` names the sweep column.
  ScalingSeries(std::string name, std::string x_label);

  void add(SeriesPoint point);

  const std::vector<SeriesPoint>& points() const noexcept { return points_; }
  bool empty() const noexcept { return points_.empty(); }

  /// Log-log fit of measured mean vs x (requires >= 2 points, positive).
  LinearFit measured_exponent() const;
  /// Log-log fit of the predicted column vs x.
  LinearFit predicted_exponent() const;

  /// Mean of measured/predicted across points — if the paper bound captures
  /// the shape, this ratio is roughly constant and the per-point deviation
  /// (max/min ratio spread) is small.
  double mean_ratio() const;
  /// max ratio / min ratio across points (1.0 = perfectly proportional).
  double ratio_spread() const;

  /// Renders the series with measured stats, prediction, and ratio columns.
  Table to_table() const;

  /// Prints to stdout and mirrors to CSV (see Table::maybe_write_csv) under
  /// a sanitized version of the series name.
  void report() const;

  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::string x_label_;
  std::vector<SeriesPoint> points_;
};

// ---------------------------------------------------------------------------
// SweepRunner: resumable, watchdog-guarded Monte-Carlo sweeps.
// ---------------------------------------------------------------------------

/// One unit of sweep work: `trials` Monte-Carlo trials of `body`, each fed
/// the fully derived trial seed trial_seed(master_seed, t). Points are the
/// checkpoint granularity (see SweepLedger).
struct SweepPoint {
  std::string label;             ///< annotation for reports/logs
  std::size_t trials = 0;        ///< >= 1
  std::uint64_t master_seed = 0; ///< per-point master; trial t derives its own
  /// The trial body; must poll `cancel` between rounds (pass it through to
  /// run_until_stabilized / run_leader_trial / run_rumor_trial).
  std::function<RunResult(std::uint64_t seed, const TrialCancel* cancel)> body;
};

/// A quarantined trial: deadline-killed on every attempt; its (censored)
/// result still participates in the point's results so trial counts stay
/// honest, and the seed is surfaced for offline reproduction.
struct QuarantinedTrial {
  std::uint64_t point = 0;
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  std::uint32_t attempts = 0;
};

struct SweepReport {
  /// results[p][t] is point p's trial t. Only FULLY completed points appear;
  /// an interrupted sweep truncates here (its finished trials are in the
  /// journal, ready for --resume).
  std::vector<std::vector<RunResult>> points;
  /// Labels of the completed points, parallel to `points`.
  std::vector<std::string> labels;
  /// Trials satisfied from the resumed journal instead of being re-run.
  std::size_t resumed_trials = 0;
  /// Trials actually executed by this process (includes quarantined ones).
  std::size_t executed_trials = 0;
  /// Trials that needed more than one attempt.
  std::size_t retried_trials = 0;
  /// Deadline-killed trials out of retries, sorted by (point, trial).
  std::vector<QuarantinedTrial> quarantined;
  /// True when SIGINT/SIGTERM stopped the sweep early; `points` then holds
  /// only the fully completed prefix and the caller should mark its bench
  /// report "partial": true and exit with kInterruptExitCode.
  bool interrupted = false;
  /// Journal manifest fingerprint ("" when journaling is disabled).
  std::string journal_fingerprint;

  std::vector<std::uint64_t> quarantined_seeds() const;
};

/// One trial of `point` under the full watchdog/retry/backoff/quarantine
/// policy — the inner attempt loop shared by SweepRunner (in-process sweeps)
/// and the fabric worker (harness/fabric.hpp), so a trial executed by a
/// remote worker can never diverge from one executed locally. The returned
/// record carries the derived trial seed, the attempt count, and the
/// quarantine flag. When the process interrupt fires mid-trial the record is
/// meaningless; `*interrupted` is set instead and the caller must not
/// journal or report it.
JournalRecord execute_sweep_trial(const SweepPoint& point,
                                  std::uint64_t point_index,
                                  std::uint64_t trial, TrialWatchdog& watchdog,
                                  const ResilienceOptions& options,
                                  bool* interrupted);

/// The bookkeeping both sweep drivers share, SweepRunner's pool threads and
/// FabricCoordinator's leases: the journal, opened or created from
/// ResilienceOptions; the (point, trial) result slots, filled first-wins
/// from the journal by start() and then by accept(); and the report. The
/// journal is checkpointed when a point's last missing trial lands, and by
/// finish() only if something was appended since. A journal line carries
/// `quarantined` but not `cancelled`, and a journaled trial was cancelled
/// exactly when it was quarantined, so a slot's `cancelled` is set from the
/// record's quarantine flag whichever path the record took. Not
/// thread-safe: each driver uses its ledger from one thread.
class SweepLedger {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  ///< (point, trial)

  /// Throws JournalError on an unusable or mismatched journal.
  SweepLedger(const obs::RunManifest& manifest,
              const ResilienceOptions& options);

  /// Starts a sweep over `points`; returns its missing trials in canonical
  /// (point-major, trial-minor) order.
  std::vector<Key> start(const std::vector<SweepPoint>& points);
  bool filled(const Key& key) const {
    return filled_[key.first][key.second] != 0;
  }
  std::size_t unfilled() const noexcept { return unfilled_; }
  /// Lands an executed trial; false, recording nothing, when its slot is
  /// already filled.
  bool accept(const JournalRecord& record);
  /// The report, cut to the longest prefix of completed points; a missing
  /// trial marks it interrupted, as does `interrupted`.
  SweepReport finish(bool interrupted);

 private:
  void fill(const JournalRecord& record);

  std::optional<TrialJournal> journal_;
  SweepReport report_;  ///< every point's slots and labels, counters
  std::vector<std::vector<std::uint8_t>> filled_;
  std::vector<std::size_t> point_missing_;
  std::size_t unfilled_ = 0;
  bool appended_ = false;  ///< since the last checkpoint
};

/// Drives a sequence of SweepPoints with durability and liveness guarantees:
///
///   * every finished trial is appended to the journal (when configured)
///     the moment it completes, with SweepLedger's checkpoint rule;
///   * resumed journal records satisfy trials first-wins per (point, trial)
///     — the body is only invoked for missing trials;
///   * each attempt runs under a watchdog lease; deadline-killed attempts
///     retry with exponential backoff and quarantine on exhaustion;
///   * the process interrupt token stops the sweep between rounds/trials;
///     interrupted (incomplete) trials are never journaled.
///
/// `threads` workers claim the missing trials of all points in canonical
/// order, across point boundaries, and stop once a trial is interrupted or
/// throws; the calling thread lands their records in the ledger. Results
/// are deterministic in (master_seed, trial index) regardless of thread
/// count, retries, or how many times the sweep was interrupted and resumed.
class SweepRunner {
 public:
  /// `manifest` keys the journal; see ResilienceOptions for the rest.
  /// Throws JournalError on an unusable or mismatched journal.
  SweepRunner(const obs::RunManifest& manifest, ResilienceOptions options);

  /// Runs the sweep. Reentrant only sequentially (one run at a time).
  SweepReport run(const std::vector<SweepPoint>& points,
                  std::size_t threads = 1);

 private:
  ResilienceOptions options_;
  SweepLedger ledger_;
};

}  // namespace mtm
