// mtm_soak — long-horizon chaos soak for the self-healing election stack.
//
// Runs stable-leader for many segments, each segment rotating (or pinning)
// a chaos profile composed from the existing fault/adversary surface: node
// churn, burst link loss, periodic partitions, Byzantine spoofing. Every
// trial runs under the record-only InvariantMonitor; any hard safety
// violation fails the soak (exit 2). The sweep is driven by SweepRunner, so
// the soak inherits the whole resilience stack:
//
//   * --journal=PATH appends every finished trial (durable at the latest
//     when its segment ends); kill -9 the process and --resume=PATH
//     continues exactly where it stopped, with aggregates byte-identical
//     to an uninterrupted run;
//   * --trial-deadline-ms / --retries / --backoff-ms evict wedged trials
//     cooperatively and quarantine seeds that never finish;
//   * SIGINT/SIGTERM flush the journal and emit a valid partial mtm-bench/1
//     report ("partial": true), exit 130.
//
// Examples:
//   mtm_soak --segments=6 --trials=8 --n=32 --journal=soak.journal
//   mtm_soak --resume=soak.journal --segments=6 --trials=8 --n=32
//   mtm_soak --profile=partition --segments=4 --out=BENCH_soak.json
//   mtm_soak --help
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/fabric.hpp"
#include "harness/interrupt.hpp"
#include "harness/storage.hpp"
#include "harness/sweep.hpp"
#include "obs/bench_report.hpp"
#include "sim/fault_cli.hpp"

namespace mtm {
namespace {

constexpr const char* kUsageHead = R"(mtm_soak: long-horizon chaos soak runner

options:
  --segments=S      chaos segments (checkpoint granularity)      [default 8]
  --trials=T        Monte-Carlo trials per segment               [default 8]
  --n=N             clique size                                  [default 32]
  --max-rounds=M    per-trial round cap                          [default 8192]
  --seed=S          master seed                                  [default 1]
  --threads=K       trial-level parallelism            [default hw threads]
  --profile=NAME    chaos profile per segment:
                    mixed (rotate) | churn | burst | partition |
                    byzantine                                    [default mixed]
  --epoch-timeout=T stable-leader re-election timeout            [default 24]
  --fail-on-violation=B  exit 2 on any hard invariant violation  [default true]
  --out=PATH        write the mtm-bench/1 report JSON
  --help            this text

resilience (shared flags; see docs/TESTING.md "Harness resilience"):
)";

constexpr const char* kUsageFabric = R"(
distributed fabric (shared flags; see docs/TESTING.md "Distributed fabric"):
)";

constexpr const char* kUsageStorage = R"(
storage chaos (shared flags; see docs/TESTING.md "Storage faults"):
)";

constexpr const char* kUsageTail = R"(
Exit status: 0 clean, 1 usage/config error, 2 invariant violation,
3 simulated storage power loss (--storage-chaos-crash-after fired; the
journal was rolled back to its durable prefix — --resume to continue),
130 interrupted by SIGINT/SIGTERM (partial artifacts were written).
)";

std::string usage() {
  return std::string(kUsageHead) + resilience_flags_help() + kUsageFabric +
         fabric_flags_help() + kUsageStorage + storage_chaos_flags_help() +
         kUsageTail;
}

/// The chaos profile a segment runs under. kMixed is resolved per segment
/// by rotation before reaching here.
enum class Profile { kChurn, kBurst, kPartition, kByzantine };

const char* profile_name(Profile p) {
  switch (p) {
    case Profile::kChurn: return "churn";
    case Profile::kBurst: return "burst";
    case Profile::kPartition: return "partition";
    case Profile::kByzantine: return "byzantine";
  }
  return "?";
}

/// Segment profiles are pinned presets, not flags: the soak's value is that
/// every run of a given (seed, profile) schedule is reproducible, and that
/// a resumed run cannot drift from the original's chaos plan.
FaultPlanConfig profile_faults(Profile p, NodeId n) {
  FaultPlanConfig faults;
  switch (p) {
    case Profile::kChurn:
      // Hold the *network-wide* churn rate constant (~0.64 crashes/round,
      // the n=32 calibration) instead of the per-node rate: at a flat 2%
      // per node, n=256 kills the leader every ~50 rounds — the same
      // timescale as a re-election contest — so elections never settle
      // and the agreement monitor fires on a protocol behaving correctly.
      faults.crash_prob = std::min(0.02, 0.64 / static_cast<double>(n));
      faults.recovery_prob = 0.3;
      faults.min_alive = std::max<NodeId>(n / 2, 1);
      break;
    case Profile::kBurst:
      faults.burst = burst_preset(2);  // harsh flapping channel
      break;
    case Profile::kPartition:
      faults.partition.mode = PartitionMode::kPeriodic;
      faults.partition.parts = 2;
      faults.partition.start = 8;
      faults.partition.duration = 8;
      faults.partition.period = 32;
      break;
    case Profile::kByzantine:
      break;  // chaos comes from the Byzantine plan instead
  }
  return faults;
}

ByzantinePlanConfig profile_byzantine(Profile p) {
  ByzantinePlanConfig byz;
  if (p == Profile::kByzantine) {
    byz.fraction = 0.1;
    byz.behavior = ByzBehavior::kMix;
  }
  return byz;
}

struct SoakConfig {
  std::size_t segments = 8;
  std::size_t trials = 8;
  NodeId n = 32;
  Round max_rounds = 8192;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string profile = "mixed";
  Round epoch_timeout = 24;
};

/// Segment s's resolved profile under the configured rotation.
Profile segment_profile(const SoakConfig& cfg, std::size_t segment) {
  if (cfg.profile == "churn") return Profile::kChurn;
  if (cfg.profile == "burst") return Profile::kBurst;
  if (cfg.profile == "partition") return Profile::kPartition;
  if (cfg.profile == "byzantine") return Profile::kByzantine;
  if (cfg.profile == "mixed") {
    constexpr Profile kRotation[] = {Profile::kChurn, Profile::kBurst,
                                     Profile::kPartition, Profile::kByzantine};
    return kRotation[segment % 4];
  }
  throw std::invalid_argument("unknown --profile=" + cfg.profile);
}

/// Manifest config echo: exactly the knobs that define the experiment, so
/// the journal fingerprint accepts a resume iff the science would be
/// identical. Resilience flags (deadline, retries, journal path) are
/// deliberately NOT part of the fingerprint — they shape how the sweep
/// runs, never what it computes.
obs::RunManifest soak_manifest(const SoakConfig& cfg) {
  obs::RunManifest manifest =
      obs::make_run_manifest("mtm_soak", cfg.seed, cfg.threads);
  obs::JsonValue config = obs::JsonValue::object();
  config.set("segments", obs::JsonValue::unsigned_number(cfg.segments));
  config.set("trials", obs::JsonValue::unsigned_number(cfg.trials));
  config.set("n", obs::JsonValue::unsigned_number(cfg.n));
  config.set("max_rounds", obs::JsonValue::unsigned_number(cfg.max_rounds));
  config.set("profile", obs::JsonValue::string(cfg.profile));
  config.set("epoch_timeout",
             obs::JsonValue::unsigned_number(cfg.epoch_timeout));
  config.set("algo", obs::JsonValue::string("stable-leader"));
  config.set("topology", obs::JsonValue::string("clique"));
  manifest.config = std::move(config);
  return manifest;
}

// Stream-id tag for per-segment master seeds (fixed forever; resumed runs
// must derive the identical schedule).
constexpr std::uint64_t kSegmentSeedTag = 0x7365676dULL;  // "segm"

int run(const CliArgs& args) {
  SoakConfig cfg;
  cfg.segments = args.get_u64("segments", 8);
  cfg.trials = args.get_u64("trials", 8);
  cfg.n = args.get_u32("n", 32);
  cfg.max_rounds = args.get_u64("max-rounds", 8192);
  cfg.seed = args.get_u64("seed", 1);
  cfg.threads = args.get_u64("threads", ThreadPool::default_thread_count());
  cfg.profile = args.get_string("profile", "mixed");
  cfg.epoch_timeout = args.get_u64("epoch-timeout", 24);
  const bool fail_on_violation = args.get_bool("fail-on-violation", true);
  const std::string out_path = args.get_string("out", "");
  ResilienceOptions resilience = parse_resilience_flags(args);
  FabricOptions fabric = parse_fabric_flags(args, resilience);
  const bool fabric_role =
      fabric.workers > 0 || !fabric.listen.empty() || !fabric.connect.empty();
  const StorageFaultConfig storage_chaos =
      parse_storage_chaos_flags(args, resilience, fabric_role);
  args.check_unused();
  if (cfg.segments == 0 || cfg.trials == 0) {
    throw std::invalid_argument("--segments and --trials must be >= 1");
  }
  segment_profile(cfg, 0);  // validate --profile before any work

  install_interrupt_handler();
  resilience.interrupt = &interrupt_token();

  obs::MetricRegistry metrics;

  // Journal storage backend: a metrics-counting PosixStorage when
  // journaling, wrapped in the seeded FaultyStorage decorator when any
  // --storage-chaos-* fault is engaged. The chaos decorator sits over the
  // plain default backend (metrics live at the chaos layer, so torn/ENOSPC
  // counts and the op clock are what the journal actually experienced).
  PosixStorage metered_storage(&metrics);
  std::optional<FaultyStorage> faulty;
  if (!resilience.journal_path.empty()) {
    if (storage_chaos.any()) {
      faulty.emplace(default_storage(), storage_chaos, &metrics);
      resilience.storage = &*faulty;
    } else {
      resilience.storage = &metered_storage;
    }
  }

  // One sweep point per segment. Each point's body is a full stable-leader
  // trial under the segment's chaos profile, with the record-only invariant
  // monitor attached; the cancel token reaches run_until_stabilized so
  // deadlines and SIGINT evict between rounds.
  std::vector<SweepPoint> points;
  points.reserve(cfg.segments);
  for (std::size_t s = 0; s < cfg.segments; ++s) {
    const Profile profile = segment_profile(cfg, s);
    LeaderExperiment spec;
    spec.algo = LeaderAlgo::kStableLeader;
    spec.topology = static_topology(make_clique(cfg.n));
    spec.node_count = cfg.n;
    spec.controls.max_rounds = cfg.max_rounds;
    spec.controls.trials = cfg.trials;
    spec.controls.faults = profile_faults(profile, cfg.n);
    spec.byzantine = profile_byzantine(profile);
    spec.epoch_timeout = cfg.epoch_timeout;
    spec.check_invariants = true;
    SweepPoint point;
    point.label = profile_name(profile);
    point.trials = cfg.trials;
    point.master_seed = derive_seed(cfg.seed, {kSegmentSeedTag, s});
    point.body = [spec = std::move(spec)](std::uint64_t seed,
                                          const TrialCancel* cancel) {
      return run_leader_trial(spec, seed, cancel);
    };
    points.push_back(std::move(point));
  }

  const obs::RunManifest manifest = soak_manifest(cfg);

  if (!fabric.connect.empty()) {
    // Network-worker mode: dial the coordinator, execute leased trials, and
    // exit. There is no report to write — the coordinator owns the merged
    // aggregates; this process only contributes results over the wire.
    fabric.resilience = resilience;
    fabric.metrics = &metrics;
    const int rc = run_fabric_net_worker(points, manifest, fabric);
    std::cout << "net worker: done (exit " << rc << "), "
              << metrics.counter("fabric.reconnects").value()
              << " reconnect(s)";
    if (fabric.net_chaos.any()) {
      std::cout << ", wire chaos on (seed " << fabric.net_chaos.seed << ")";
    }
    std::cout << "\n";
    return rc;
  }

  SweepReport sweep;
  FabricStats fabric_stats;
  if (fabric.workers > 0 || !fabric.listen.empty()) {
    // Coordinator/worker mode: fork the workers (before any thread-pool
    // threads exist) or, with --listen, accept remote ones over TCP; the
    // coordinator merges either way. Aggregates are byte-identical to the
    // SweepRunner path below — same seeds, same (point, trial) slots, same
    // manifest.
    fabric.resilience = resilience;
    fabric.metrics = &metrics;
    FabricRunner runner(manifest, fabric);
    if (!fabric.listen.empty()) {
      // Printed (and flushed) before run() blocks so workers can scrape the
      // port from the coordinator's output even under an ephemeral :0 bind.
      std::cout << "fabric: listening on port " << runner.bound_port()
                << std::endl;
    }
    sweep = runner.run(points);
    fabric_stats = runner.stats();
    if (!fabric.listen.empty()) {
      std::cout << "fabric: network coordinator, ";
    } else {
      std::cout << "fabric: " << fabric.workers << " worker(s), ";
    }
    std::cout << fabric_stats.leases_granted << " lease(s) granted, "
              << fabric_stats.leases_expired << " expired, "
              << fabric_stats.trials_requeued << " trial(s) requeued, "
              << fabric_stats.worker_deaths << " worker death(s)";
    if (fabric_stats.chaos_kills > 0) {
      std::cout << " (" << fabric_stats.chaos_kills << " chaos kill(s))";
    }
    if (fabric_stats.reconnects > 0) {
      std::cout << ", " << fabric_stats.reconnects << " reconnect(s)";
    }
    if (fabric_stats.liveness_deaths > 0) {
      std::cout << ", " << fabric_stats.liveness_deaths
                << " liveness death(s)";
    }
    std::cout << "\n";
  } else {
    try {
      SweepRunner runner(manifest, resilience);
      sweep = runner.run(points, cfg.threads);
    } catch (const StorageCrash& crash) {
      // Simulated power loss fired (--storage-chaos-crash-after). Rewrite
      // the real files down to exactly what had reached stable storage, so
      // a follow-up --resume sees what a rebooted machine would see.
      if (faulty.has_value()) faulty->materialize_crash();
      std::cerr << "storage: simulated power loss after storage op "
                << crash.op_index()
                << "; journal rolled back to its durable prefix — resume "
                   "with --resume="
                << resilience.journal_path << "\n";
      return 3;
    }
  }
  if (faulty.has_value()) {
    // The op count is the crash-point enumeration bound: CI probes it with
    // a never-firing --storage-chaos-crash-after, then replays every N.
    std::cout << "storage ops: " << faulty->op_count() << "\n";
  }

  // Per-segment accounting table + bench series.
  ScalingSeries series("soak convergence", "segment");
  Table table({"segment", "profile", "converged", "censored", "violations",
               "split-brain", "mean-rounds"});
  std::uint64_t total_violations = 0;
  obs::JsonValue segments_json = obs::JsonValue::array();
  for (std::size_t s = 0; s < sweep.points.size(); ++s) {
    const std::vector<RunResult>& results = sweep.points[s];
    const ConvergenceSummary convergence = summarize_convergence(results);
    std::uint64_t violations = 0;
    std::uint64_t split_brain = 0;
    for (const RunResult& r : results) {
      violations += r.invariant_violations;
      split_brain += r.split_brain_rounds;
    }
    total_violations += violations;
    const Summary summary = summarize(convergence.rounds.empty()
                                          ? std::vector<double>{0.0}
                                          : convergence.rounds);
    table.row()
        .cell(static_cast<std::uint64_t>(s))
        .cell(sweep.labels[s])
        .cell(static_cast<std::uint64_t>(convergence.converged))
        .cell(static_cast<std::uint64_t>(convergence.censored))
        .cell(violations)
        .cell(split_brain)
        .cell(summary.mean, 1);
    if (convergence.converged > 0) {
      SeriesPoint point;
      point.x = static_cast<double>(s + 1);
      point.measured = summarize(convergence.rounds);
      point.predicted = std::log2(static_cast<double>(cfg.n)) + 1.0;
      point.label = sweep.labels[s];
      series.add(point);
    }
    obs::JsonValue seg = obs::JsonValue::object();
    seg.set("segment", obs::JsonValue::unsigned_number(s));
    seg.set("profile", obs::JsonValue::string(sweep.labels[s]));
    seg.set("converged",
            obs::JsonValue::unsigned_number(convergence.converged));
    seg.set("censored", obs::JsonValue::unsigned_number(convergence.censored));
    seg.set("violations", obs::JsonValue::unsigned_number(violations));
    seg.set("split_brain_rounds",
            obs::JsonValue::unsigned_number(split_brain));
    segments_json.push_back(std::move(seg));
  }
  table.print(std::cout, "soak segments");
  if (sweep.interrupted) {
    std::cout << "interrupted: " << sweep.points.size() << "/" << cfg.segments
              << " segment(s) completed; journal holds every finished trial\n";
  }
  if (sweep.resumed_trials > 0) {
    std::cout << "resumed " << sweep.resumed_trials
              << " trial(s) from the journal\n";
  }
  if (!sweep.quarantined.empty()) {
    std::cout << "quarantined " << sweep.quarantined.size() << " seed(s):";
    for (const QuarantinedTrial& q : sweep.quarantined) {
      std::cout << " " << q.seed << " (segment " << q.point << ", trial "
                << q.trial << ", " << q.attempts << " attempts)";
    }
    std::cout << "\n";
  }

  if (!out_path.empty()) {
    obs::BenchReport report;
    report.name = "soak";
    report.manifest = manifest;
    report.series.push_back(&series);
    // fabric.* counters land in the metrics section, which --same-aggregates
    // deliberately excludes: lease/requeue/death counts legitimately differ
    // between a fabric run and its single-process control.
    if (!metrics.empty()) report.metrics = &metrics;
    report.resilience.enabled = true;
    report.resilience.partial = sweep.interrupted;
    report.resilience.resumed_trials = sweep.resumed_trials;
    report.resilience.trials_recorded =
        sweep.resumed_trials + sweep.executed_trials;
    report.resilience.quarantined_seeds = sweep.quarantined_seeds();
    report.resilience.journal_fingerprint = sweep.journal_fingerprint;
    obs::JsonValue extra = obs::JsonValue::object();
    extra.set("segments", std::move(segments_json));
    report.extra = std::move(extra);
    if (!obs::write_json_atomic(out_path, report.to_json())) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (sweep.interrupted) return kInterruptExitCode;
  if (total_violations > 0) {
    std::cerr << "error: " << total_violations
              << " hard invariant violation(s) during the soak\n";
    if (fail_on_violation) return 2;
  }
  return 0;
}

}  // namespace
}  // namespace mtm

int main(int argc, char** argv) {
  try {
    mtm::CliArgs args(argc, argv);
    if (args.has("help")) {
      std::cout << mtm::usage();
      return 0;
    }
    return mtm::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n\n" << mtm::usage();
    return 1;
  }
}
