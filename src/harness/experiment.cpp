#include "harness/experiment.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "sim/invariants.hpp"
#include "protocols/async_bit_convergence.hpp"
#include "protocols/bit_convergence.hpp"
#include "protocols/blind_gossip.hpp"
#include "protocols/classical.hpp"
#include "protocols/ppush.hpp"
#include "protocols/productive_push_pull.hpp"
#include "protocols/push_pull.hpp"
#include "protocols/stable_leader.hpp"

namespace mtm {

namespace {

// Stream-id tags for the per-trial fault and Byzantine plan seeds (fixed
// forever).
constexpr std::uint64_t kTrialFaultSeedTag = 0x7472666c74ULL;  // "trflt"
constexpr std::uint64_t kTrialByzSeedTag = 0x747262797aULL;    // "trbyz"

/// Per-trial fault plan: same dimensions, trial-specific streams.
FaultPlanConfig trial_faults(const FaultPlanConfig& base,
                             std::uint64_t trial_seed) {
  FaultPlanConfig faults = base;
  faults.seed = derive_seed(trial_seed, {kTrialFaultSeedTag});
  return faults;
}

/// Per-trial Byzantine plan: same dimensions, trial-specific selection.
ByzantinePlanConfig trial_byzantine(const ByzantinePlanConfig& base,
                                    std::uint64_t trial_seed) {
  ByzantinePlanConfig byz = base;
  byz.seed = derive_seed(trial_seed, {kTrialByzSeedTag});
  return byz;
}

}  // namespace

const char* leader_algo_name(LeaderAlgo algo) {
  switch (algo) {
    case LeaderAlgo::kBlindGossip:
      return "blind-gossip";
    case LeaderAlgo::kBitConvergence:
      return "bit-convergence";
    case LeaderAlgo::kAsyncBitConvergence:
      return "async-bit-convergence";
    case LeaderAlgo::kClassicalGossip:
      return "classical-gossip";
    case LeaderAlgo::kStableLeader:
      return "stable-leader";
  }
  return "?";
}

const char* rumor_algo_name(RumorAlgo algo) {
  switch (algo) {
    case RumorAlgo::kPushPull:
      return "push-pull(b=0)";
    case RumorAlgo::kPpush:
      return "ppush(b=1)";
    case RumorAlgo::kClassicalPushPull:
      return "classical-push-pull";
    case RumorAlgo::kProductivePushPull:
      return "productive-push-pull(b=1)";
  }
  return "?";
}

namespace {

struct LeaderProtocolBundle {
  std::unique_ptr<LeaderElectionProtocol> protocol;
  int tag_bits = 0;
  bool classical = false;
  /// The injected UID universe (the invariant monitor's validity oracle).
  std::vector<Uid> uids;
};

LeaderProtocolBundle make_leader_protocol(const LeaderExperiment& spec,
                                          std::uint64_t trial_seed) {
  const NodeId n = spec.node_count;
  const std::uint64_t size_bound =
      spec.network_size_bound != 0 ? spec.network_size_bound : n;
  const NodeId degree_bound =
      spec.max_degree_bound != 0 ? spec.max_degree_bound
                                 : std::max<NodeId>(n - 1, 1);
  auto uids = BlindGossip::shuffled_uids(n, trial_seed);

  LeaderProtocolBundle bundle;
  bundle.uids = uids;  // copy before the moves below consume it
  switch (spec.algo) {
    case LeaderAlgo::kBlindGossip:
      bundle.protocol = std::make_unique<BlindGossip>(std::move(uids));
      bundle.tag_bits = 0;
      break;
    case LeaderAlgo::kBitConvergence: {
      MTM_REQUIRE_MSG(spec.activation_rounds.empty(),
                      "bit convergence assumes synchronized starts; use "
                      "kAsyncBitConvergence for staggered activations");
      BitConvergenceConfig cfg;
      cfg.network_size_bound = size_bound;
      cfg.max_degree_bound = degree_bound;
      bundle.protocol =
          std::make_unique<BitConvergence>(std::move(uids), cfg);
      bundle.tag_bits = 1;
      break;
    }
    case LeaderAlgo::kAsyncBitConvergence: {
      AsyncBitConvergenceConfig cfg;
      cfg.network_size_bound = size_bound;
      cfg.max_degree_bound = degree_bound;
      auto proto =
          std::make_unique<AsyncBitConvergence>(std::move(uids), cfg);
      bundle.tag_bits = proto->required_advertisement_bits();
      bundle.protocol = std::move(proto);
      break;
    }
    case LeaderAlgo::kClassicalGossip:
      bundle.protocol = std::make_unique<ClassicalGossip>(std::move(uids));
      bundle.tag_bits = 0;
      bundle.classical = true;
      break;
    case LeaderAlgo::kStableLeader:
      bundle.protocol =
          std::make_unique<StableLeader>(std::move(uids), spec.epoch_timeout);
      bundle.tag_bits = 1;
      break;
  }
  return bundle;
}

}  // namespace

RunResult run_leader_trial(const LeaderExperiment& spec, std::uint64_t seed,
                           const TrialCancel* cancel) {
  MTM_REQUIRE(spec.topology != nullptr);
  MTM_REQUIRE(spec.node_count >= 1);
  MTM_REQUIRE(spec.controls.max_rounds >= 1);
  auto topology = spec.topology(seed);
  MTM_ENSURE(topology->node_count() == spec.node_count);
  LeaderProtocolBundle bundle = make_leader_protocol(spec, seed);
  EngineConfig cfg;
  cfg.tag_bits = bundle.tag_bits;
  cfg.classical_mode = bundle.classical;
  cfg.seed = seed;
  cfg.activation_rounds = spec.activation_rounds;
  cfg.connection_failure_prob = spec.controls.connection_failure_prob;
  cfg.scheduler = spec.controls.scheduler;
  if (spec.controls.faults.enabled())
    cfg.faults = trial_faults(spec.controls.faults, seed);
  if (spec.byzantine.enabled())
    cfg.byzantine = trial_byzantine(spec.byzantine, seed);
  std::unique_ptr<Scheduler> engine =
      make_scheduler(*topology, *bundle.protocol, cfg);
  InvariantMonitor monitor(InvariantConfig{
      false, spec.settle_rounds > 0
                 ? spec.settle_rounds
                 : std::max<Round>(64, 8 * spec.node_count)});
  if (spec.check_invariants) {
    monitor.set_expected_uids(bundle.uids);
    engine->set_invariant_monitor(&monitor);
  }
  RunResult result =
      run_until_stabilized(*engine, spec.controls.max_rounds, {}, cancel);
  if (spec.check_invariants) {
    result.invariant_violations = monitor.report().violations();
    result.split_brain_rounds = monitor.report().split_brain_rounds;
  }
  return result;
}

std::vector<RunResult> run_leader_experiment(const LeaderExperiment& spec) {
  MTM_REQUIRE(spec.topology != nullptr);
  MTM_REQUIRE(spec.node_count >= 1);
  MTM_REQUIRE(spec.controls.max_rounds >= 1);

  TrialSpec trial_spec;
  trial_spec.controls = spec.controls;
  trial_spec.metrics = spec.metrics;

  return run_trials(trial_spec, [&spec](std::uint64_t trial_seed) {
    return run_leader_trial(spec, trial_seed);
  });
}

RunResult run_rumor_trial(const RumorExperiment& spec, std::uint64_t seed,
                          const TrialCancel* cancel) {
  MTM_REQUIRE(spec.topology != nullptr);
  MTM_REQUIRE(spec.node_count >= 1);
  MTM_REQUIRE(spec.controls.max_rounds >= 1);
  MTM_REQUIRE(!spec.sources.empty());
  auto topology = spec.topology(seed);
  MTM_ENSURE(topology->node_count() == spec.node_count);
  std::unique_ptr<RumorProtocol> protocol;
  int tag_bits = 0;
  bool classical = false;
  switch (spec.algo) {
    case RumorAlgo::kPushPull:
      protocol = std::make_unique<PushPull>(spec.sources);
      break;
    case RumorAlgo::kPpush:
      protocol = std::make_unique<Ppush>(spec.sources);
      tag_bits = 1;
      break;
    case RumorAlgo::kClassicalPushPull:
      protocol = std::make_unique<ClassicalPushPull>(spec.sources);
      classical = true;
      break;
    case RumorAlgo::kProductivePushPull:
      protocol = std::make_unique<ProductivePushPull>(spec.sources);
      tag_bits = 1;
      break;
  }
  EngineConfig cfg;
  cfg.tag_bits = tag_bits;
  cfg.classical_mode = classical;
  cfg.seed = seed;
  cfg.connection_failure_prob = spec.controls.connection_failure_prob;
  cfg.scheduler = spec.controls.scheduler;
  if (spec.controls.faults.enabled())
    cfg.faults = trial_faults(spec.controls.faults, seed);
  std::unique_ptr<Scheduler> engine = make_scheduler(*topology, *protocol, cfg);
  return run_until_stabilized(*engine, spec.controls.max_rounds, {}, cancel);
}

std::vector<RunResult> run_rumor_experiment(const RumorExperiment& spec) {
  MTM_REQUIRE(spec.topology != nullptr);
  MTM_REQUIRE(spec.node_count >= 1);
  MTM_REQUIRE(spec.controls.max_rounds >= 1);
  MTM_REQUIRE(!spec.sources.empty());

  TrialSpec trial_spec;
  trial_spec.controls = spec.controls;
  trial_spec.metrics = spec.metrics;

  return run_trials(trial_spec, [&spec](std::uint64_t trial_seed) {
    return run_rumor_trial(spec, trial_seed);
  });
}

Summary measure_leader(const LeaderExperiment& spec) {
  const auto results = run_leader_experiment(spec);
  const auto rounds = rounds_of(results);
  return summarize(rounds);
}

Summary measure_rumor(const RumorExperiment& spec) {
  const auto results = run_rumor_experiment(spec);
  const auto rounds = rounds_of(results);
  return summarize(rounds);
}

TopologyFactory static_topology(Graph g) {
  auto shared = std::make_shared<Graph>(std::move(g));
  return [shared](std::uint64_t /*seed*/) {
    return std::make_unique<StaticGraphProvider>(*shared);
  };
}

TopologyFactory relabeling_topology(Graph base, Round tau) {
  auto shared = std::make_shared<Graph>(std::move(base));
  return [shared, tau](std::uint64_t seed) {
    return std::make_unique<RelabelingGraphProvider>(*shared, tau, seed);
  };
}

TopologyFactory regenerating_topology(
    std::function<Graph(Rng&)> graph_factory, Round tau) {
  return [graph_factory = std::move(graph_factory),
          tau](std::uint64_t seed) {
    return std::make_unique<RegeneratingGraphProvider>(graph_factory, tau,
                                                       seed);
  };
}

}  // namespace mtm
