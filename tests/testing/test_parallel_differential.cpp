// Parallel differential parity: the sharded engine vs the ReferenceEngine.
//
// The engine's intra-round sharding (EngineConfig::scheduler.threads)
// promises results bit-identical to the sequential execution at every
// thread count, because per-node RNG streams ARE the shard streams and
// everything order-sensitive runs in the sequential cross-shard reduction.
// This suite drives the sharded engine in lockstep against the
// ReferenceEngine oracle across thread counts x protocols x fault
// dimensions and asserts byte-identical telemetry after every round.
//
// run_differential's RecordingProtocol is deliberately order-sensitive
// (it records the exact callback sequence) and therefore keeps
// parallel_phases_safe() = false; wrapping would silently force the
// sequential path. The lockstep here compares the order-free observables
// instead — the full telemetry counter set and the external protocol
// state hash — which is exactly what "byte-identical telemetry" pins.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "protocols/bit_convergence.hpp"
#include "protocols/blind_gossip.hpp"
#include "protocols/classical.hpp"
#include "protocols/stable_leader.hpp"
#include "sim/dynamic_graph.hpp"
#include "sim/engine.hpp"
#include "testing/differential.hpp"
#include "testing/reference_engine.hpp"

namespace mtm::testing {
namespace {

constexpr NodeId kNodes = 48;
constexpr Round kRounds = 64;

struct ParityCase {
  std::string name;
  std::function<std::unique_ptr<Protocol>()> make_protocol;
  EngineConfig config;  // scheduler.threads is overridden per run
};

Graph shared_topology() {
  Rng rng(0x70b0);
  return make_random_regular(kNodes, 6, rng);
}

// The fault dimensions layered over every protocol. Each returns a config
// with protocol-independent knobs only.
std::vector<std::pair<std::string, EngineConfig>> fault_dimensions() {
  std::vector<std::pair<std::string, EngineConfig>> dims;

  EngineConfig none;
  dims.emplace_back("plain", none);

  EngineConfig churn;
  churn.faults.crash_prob = 0.02;
  churn.faults.recovery_prob = 0.25;
  churn.faults.seed = 0xfa17;
  dims.emplace_back("churn", churn);

  EngineConfig partition;
  partition.faults.partition.mode = PartitionMode::kFlapping;
  partition.faults.partition.parts = 2;
  partition.faults.partition.start = 5;
  partition.faults.partition.duration = 6;
  partition.faults.seed = 0xfa18;
  dims.emplace_back("partition", partition);

  EngineConfig sink;  // every fault dimension at once, plus flaky links
  sink.connection_failure_prob = 0.1;
  sink.faults.crash_prob = 0.01;
  sink.faults.recovery_prob = 0.3;
  sink.faults.burst.good_to_bad = 0.05;
  sink.faults.burst.bad_to_good = 0.5;
  sink.faults.burst.loss_good = 0.05;
  sink.faults.edge_degradation = 0.2;
  sink.faults.partition.mode = PartitionMode::kPeriodic;
  sink.faults.partition.parts = 3;
  sink.faults.partition.start = 3;
  sink.faults.partition.duration = 4;
  sink.faults.partition.period = 12;
  sink.faults.seed = 0xfa19;
  dims.emplace_back("churn+links+partition", sink);

  return dims;
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const auto& [dim_name, dim_config] : fault_dimensions()) {
    {
      ParityCase c;
      c.name = "classical-gossip/" + dim_name;
      c.make_protocol = [] {
        return std::make_unique<ClassicalGossip>(
            BlindGossip::shuffled_uids(kNodes, 0xc1a5));
      };
      c.config = dim_config;
      c.config.classical_mode = true;
      c.config.seed = 0x9a11;
      cases.push_back(std::move(c));
    }
    {
      ParityCase c;
      c.name = "stable-leader/" + dim_name;
      c.make_protocol = [] {
        return std::make_unique<StableLeader>(
            BlindGossip::shuffled_uids(kNodes, 0x57ab), /*epoch_timeout=*/16);
      };
      c.config = dim_config;
      c.config.tag_bits = 1;
      c.config.seed = 0x9a12;
      cases.push_back(std::move(c));
    }
    {
      ParityCase c;
      c.name = "bit-convergence/" + dim_name;
      c.make_protocol = [] {
        BitConvergenceConfig bc;
        bc.network_size_bound = 64;
        bc.max_degree_bound = 6;
        return std::make_unique<BitConvergence>(
            BlindGossip::shuffled_uids(kNodes, 0xb17c), bc);
      };
      c.config = dim_config;
      c.config.tag_bits = 1;
      c.config.seed = 0x9a13;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

// Steps both executions in lockstep and asserts every telemetry counter
// and the protocol state hash match after every round.
void expect_lockstep_parity(const ParityCase& parity_case,
                            std::size_t threads, const Graph& topology) {
  auto ref_protocol = parity_case.make_protocol();
  auto opt_protocol = parity_case.make_protocol();
  StaticGraphProvider ref_topology(topology);
  StaticGraphProvider opt_topology(topology);

  EngineConfig opt_config = parity_case.config;
  opt_config.scheduler.threads = threads;
  ReferenceEngine reference(ref_topology, *ref_protocol, parity_case.config);
  Engine engine(opt_topology, *opt_protocol, opt_config);
  if (threads > 1) {
    // All three protocols opt into parallel phases; if sharding silently
    // fell back to sequential this suite would prove nothing.
    ASSERT_EQ(engine.shard_count(), threads) << parity_case.name;
  }

  for (Round r = 1; r <= kRounds; ++r) {
    reference.step();
    engine.step();
    const Telemetry& want = reference.telemetry();
    const Telemetry& got = engine.telemetry();
    const std::string where =
        parity_case.name + " threads=" + std::to_string(threads) +
        " round=" + std::to_string(r);
    ASSERT_EQ(got.proposals(), want.proposals()) << where;
    ASSERT_EQ(got.connections(), want.connections()) << where;
    ASSERT_EQ(got.failed_connections(), want.failed_connections()) << where;
    ASSERT_EQ(got.fault_dropped(), want.fault_dropped()) << where;
    ASSERT_EQ(got.crashes(), want.crashes()) << where;
    ASSERT_EQ(got.recoveries(), want.recoveries()) << where;
    ASSERT_EQ(got.wasted_rounds(), want.wasted_rounds()) << where;
    ASSERT_EQ(got.payload_uids(), want.payload_uids()) << where;
    ASSERT_EQ(protocol_state_hash(*opt_protocol, kNodes),
              protocol_state_hash(*ref_protocol, kNodes))
        << where;
  }
}

TEST(ParallelDifferential, ShardedEngineMatchesReferenceAcrossThreadCounts) {
  const Graph topology = shared_topology();
  for (const ParityCase& parity_case : parity_cases()) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      expect_lockstep_parity(parity_case, threads, topology);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ParallelDifferential, AutoThreadCountIsStillBitIdentical) {
  // scheduler.threads = 0 picks one shard per hardware thread — whatever
  // that is on the host, results must not move.
  const Graph topology = shared_topology();
  ParityCase parity_case = parity_cases().front();
  expect_lockstep_parity(parity_case, 0, topology);
}

TEST(ParallelDifferential, OrderSensitiveDecoratorForcesSequentialFallback) {
  // RecordingProtocol does not declare parallel_phases_safe, so a sharding
  // request must silently degrade to the sequential path (shard_count 1) —
  // the recorded event stream stays canonical.
  BlindGossip inner(BlindGossip::shuffled_uids(kNodes, 0xdead));
  RecordingProtocol recorder(inner);
  StaticGraphProvider topology(shared_topology());
  EngineConfig config;
  config.scheduler.threads = 8;
  Engine engine(topology, recorder, config);
  EXPECT_EQ(engine.shard_count(), 1u);
  engine.run_rounds(4);
  EXPECT_FALSE(recorder.events().empty());
}

TEST(ParallelDifferential, ExistingLockstepHarnessStillDetectsMutations) {
  // The event-stream harness (sequential engine vs mutated reference) must
  // keep its teeth after the hot-path refactor: a reference seeded with
  // kDropOneConnectionBound has to diverge.
  Scenario scenario;
  scenario.description = "mutation-teeth";
  scenario.make_protocol = [] {
    return std::make_unique<BlindGossip>(
        BlindGossip::shuffled_uids(kNodes, 0x7ee7));
  };
  scenario.make_topology = [] {
    return std::make_unique<StaticGraphProvider>(shared_topology());
  };
  scenario.rounds = 32;
  DifferentialOptions options;
  options.mutation = ReferenceMutation::kDropOneConnectionBound;
  EXPECT_TRUE(run_differential(scenario, options).has_value());
}

}  // namespace
}  // namespace mtm::testing
