// Trial runner: executes an engine until the protocol stabilizes.
//
// The paper measures the round by which the system has stabilized with high
// probability (Section IV). All protocols in this library are monotone, so
// Protocol::stabilized() flipping to true is permanent and the first true
// round is the stabilization round.
#pragma once

#include <functional>
#include <vector>

#include "core/cancel.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace mtm {

/// The two cancellation sources a trial observes, combined into one view:
/// a per-trial watchdog deadline (harness/watchdog.hpp) and the process-wide
/// SIGINT/SIGTERM flag (harness/interrupt.hpp). Either token may be absent.
struct TrialCancel {
  const CancelToken* deadline = nullptr;   ///< watchdog deadline, optional
  const CancelToken* interrupt = nullptr;  ///< process interrupt, optional

  bool cancelled() const noexcept {
    return (deadline != nullptr && deadline->cancelled()) ||
           (interrupt != nullptr && interrupt->cancelled());
  }
  bool interrupted() const noexcept {
    return interrupt != nullptr && interrupt->cancelled();
  }
};

struct RunResult {
  /// First round at the end of which the protocol reported stabilized().
  /// Equal to `rounds_executed` when converged.
  Round rounds = 0;
  bool converged = false;
  /// Rounds counted from the last activation (== rounds under synchronized
  /// starts). This is the Section VIII measurement convention.
  Round rounds_after_last_activation = 0;
  /// Communication cost up to stabilization: established connections and
  /// sent proposals (from the engine's telemetry). Time (rounds) and
  /// messages (connections) are different costs — e.g. bit convergence
  /// spends fewer rounds than blind gossip on bottleneck graphs but makes
  /// fewer productive connections per round.
  std::uint64_t connections = 0;
  std::uint64_t proposals = 0;
  /// Invariant-monitor summary (sim/invariants.hpp), filled only when the
  /// experiment attached a monitor (LeaderExperiment::check_invariants):
  /// hard safety violations and rounds spent with >= 2 leadership claimants.
  std::uint64_t invariant_violations = 0;
  std::uint64_t split_brain_rounds = 0;
  /// True when the run exited early because a cancel token fired (watchdog
  /// deadline or process interrupt) — checked between rounds, so the last
  /// executed round is always complete. A cancelled run never converged.
  bool cancelled = false;
};

/// Steps `engine` until stabilized() or `max_rounds` round windows have
/// run. Works against any Scheduler implementation (the sync round loop or
/// the event scheduler; stabilization is polled at window boundaries).
/// `per_round` (optional) observes the scheduler after EVERY executed round
/// — including the stabilization round's final state and the round in which
/// `max_rounds` is exhausted — in every code path. (The trivial
/// already-stable case executes zero rounds, so the observer never fires.)
/// `cancel` (optional) is polled between rounds: once it reports cancelled
/// the loop stops cleanly and the result carries cancelled = true.
RunResult run_until_stabilized(
    Scheduler& engine, Round max_rounds,
    const std::function<void(const Scheduler&)>& per_round = {},
    const TrialCancel* cancel = nullptr);

/// The seed of trial `trial` under master seed `master` — the single
/// derivation shared by run_trials and the resumable SweepRunner
/// (harness/sweep.hpp), so a journaled trial and a freshly run one can never
/// disagree about which execution index `trial` names.
std::uint64_t trial_seed(std::uint64_t master, std::uint64_t trial);

/// The trial-control knobs shared by every Monte-Carlo entry point
/// (TrialSpec, LeaderExperiment, RumorExperiment). One struct, one set of
/// defaults — the per-experiment copies used to drift silently.
struct TrialControls {
  Round max_rounds = 0;       ///< per-trial round cap (required, >= 1)
  std::size_t trials = 32;    ///< independent Monte-Carlo trials
  std::uint64_t seed = 1;     ///< master seed; trial t derives its own
  std::size_t threads = 1;    ///< trial-level parallelism
  /// Execution selection for each trial's engine (scheduler kind, engine
  /// threads, event-mode latency/drift), forwarded verbatim into
  /// EngineConfig::scheduler by the experiment runners. scheduler.threads
  /// is the intra-trial parallelism (0 = one shard per hardware thread;
  /// results are bit-identical at any value); it composes with `threads`,
  /// so keep the product within the machine.
  SchedulerSpec scheduler;
  /// Failure injection passthrough (see EngineConfig).
  double connection_failure_prob = 0.0;
  /// Fault plan passthrough (see sim/faults.hpp). The per-trial plan seed
  /// is derived from the trial seed, so trials stay independent. With churn
  /// or crash oracles enabled, trials may legitimately censor — aggregate
  /// with summarize_convergence(), not rounds_of().
  FaultPlanConfig faults;
};

/// Convenience for Monte-Carlo experiments: builds topology + protocol via
/// the factory pair per trial, runs to stabilization, and returns one
/// RunResult per trial. Trials are independent and deterministic in
/// (seed, trial index); they run in parallel on `threads` threads.
///
/// run_trials itself consumes trials/seed/threads; the engine-level knobs
/// (max_rounds, connection_failure_prob, faults) are for the body's
/// benefit — the experiment runners forward them into EngineConfig.
struct TrialSpec {
  TrialControls controls;
  /// Optional per-trial wall-time metrics (zero-perturbation: recording
  /// never feeds back into trial execution). When set, run_trials records
  /// the "trial_wall_ms" histogram and the "trials_run" counter.
  obs::MetricRegistry* metrics = nullptr;
};

using TrialBody = std::function<RunResult(std::uint64_t trial_seed)>;

std::vector<RunResult> run_trials(const TrialSpec& spec, const TrialBody& body);

/// Extracts the rounds of converged trials as doubles; throws if any trial
/// failed to converge (callers size max_rounds generously instead of
/// silently dropping censored samples). Experiments whose trials may
/// legitimately censor — fault plans can keep a protocol from ever
/// stabilizing — must use summarize_convergence instead.
std::vector<double> rounds_of(const std::vector<RunResult>& results);

///// Censoring-aware aggregation: splits trials into converged and censored
/// instead of throwing, so fault-plan experiments can report a convergence
/// rate alongside the rounds of the trials that did stabilize.
struct ConvergenceSummary {
  std::size_t converged = 0;
  std::size_t censored = 0;
  /// Stabilization rounds of the converged trials only, in trial order.
  std::vector<double> rounds;

  double convergence_rate() const noexcept {
    const std::size_t total = converged + censored;
    return total == 0 ? 0.0
                      : static_cast<double>(converged) /
                            static_cast<double>(total);
  }
};

ConvergenceSummary summarize_convergence(const std::vector<RunResult>& results);

}  // namespace mtm
