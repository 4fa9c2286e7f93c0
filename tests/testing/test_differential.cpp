// Differential correctness harness: Engine vs ReferenceEngine in lockstep.
//
// The key properties pinned here:
//   * over a broad fuzzed span of model configurations (classical mode,
//     async activation, every acceptance policy, τ ∈ {static, 1, 2, log Δ},
//     failure injection, nine topology families) the optimized engine and
//     the transparent reference implementation are observably identical,
//     round by round — events, telemetry, and protocol state;
//   * the harness has teeth: every intentionally-seeded reference mutation
//     (dropping the one-connection bound, deterministic acceptance,
//     skipping the payload snapshot) is detected;
//   * wrapping a protocol in the RecordingProtocol decorator does not
//     change an execution.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "graph/generators.hpp"
#include "protocols/blind_gossip.hpp"
#include "protocols/pairwise_averaging.hpp"
#include "sim/runner.hpp"
#include "testing/fuzz.hpp"

// gtest printers for the two enum test parameters. gtest_discover_tests names
// a parameterized test after its printed parameter, and an enum without a
// printer prints as a byte dump such as "4-byte object <01-00 00-00>". The
// printers spell each value as the fuzzer's case tuples do.
namespace mtm {
void PrintTo(AcceptancePolicy policy, std::ostream* os) {
  switch (policy) {
    case AcceptancePolicy::kUniformRandom:
      *os << "uniform";
      return;
    case AcceptancePolicy::kSmallestId:
      *os << "smallest-id";
      return;
    case AcceptancePolicy::kLargestId:
      *os << "largest-id";
      return;
  }
  *os << "unknown";
}
}  // namespace mtm

namespace mtm::testing {
void PrintTo(ReferenceMutation mutation, std::ostream* os) {
  *os << to_string(mutation);
}

namespace {

Scenario star_blind_gossip_scenario(NodeId n, Round rounds,
                                    std::uint64_t seed) {
  FuzzCase fuzz_case;
  fuzz_case.protocol = FuzzProtocol::kBlindGossip;
  fuzz_case.generator = "star";
  fuzz_case.n = n;
  fuzz_case.seed = seed;
  fuzz_case.rounds = rounds;
  return make_scenario(fuzz_case);
}

TEST(Differential, LockstepFuzzSpansModelDimensionsWithZeroDivergence) {
  // The acceptance gate for every later refactor: >= 200 fuzzed
  // configurations, zero divergences, every model dimension exercised.
  constexpr std::size_t kCases = 240;
  std::size_t classical = 0, async = 0, failures_injected = 0;
  std::map<AcceptancePolicy, std::size_t> policies;
  std::map<std::string, std::size_t> generators;
  std::size_t tau_static = 0, tau_one = 0, tau_two = 0, tau_log = 0;

  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng(derive_seed(0xd1ff, {i}));
    const FuzzCase fuzz_case = random_fuzz_case(rng);
    classical += fuzz_case.protocol == FuzzProtocol::kClassicalGossip;
    async += fuzz_case.async_activation;
    failures_injected += fuzz_case.failure_prob > 0.0;
    ++policies[fuzz_case.acceptance];
    ++generators[fuzz_case.generator];
    tau_static += fuzz_case.tau == 0;
    tau_one += fuzz_case.tau == 1;
    tau_two += fuzz_case.tau == 2;
    tau_log += fuzz_case.tau > 2;

    const auto divergence = run_differential(make_scenario(fuzz_case));
    EXPECT_FALSE(divergence.has_value())
        << to_string(fuzz_case) << "\n  " << to_string(*divergence);
  }

  // Span assertions: the sample must actually cover each dimension.
  EXPECT_GT(classical, 0u);
  EXPECT_GT(async, 0u);
  EXPECT_GT(failures_injected, 0u);
  EXPECT_EQ(policies.size(), 3u);
  EXPECT_GT(tau_static, 0u);
  EXPECT_GT(tau_one, 0u);
  EXPECT_GT(tau_two, 0u);
  EXPECT_GT(tau_log, 0u);
  EXPECT_GE(generators.size(), 7u);
}

TEST(Differential, RunFuzzEntryPointIsClean) {
  FuzzOptions options;
  options.cases = 40;
  options.seed = 0xabc1;
  std::size_t seen = 0;
  options.on_case = [&seen](std::size_t, const FuzzCase&) { ++seen; };
  EXPECT_TRUE(run_fuzz(options).empty());
  EXPECT_EQ(seen, 40u);
}

TEST(Differential, ResultIsDeterministic) {
  const Scenario scenario = star_blind_gossip_scenario(8, 24, 17);
  EXPECT_FALSE(run_differential(scenario).has_value());
  EXPECT_FALSE(run_differential(scenario).has_value());
}

class MutationDetection
    : public ::testing::TestWithParam<ReferenceMutation> {};

TEST_P(MutationDetection, SeededEngineMutationIsCaught) {
  // A star forces multi-proposal inboxes at the center, so every mutation
  // of the resolution/exchange semantics becomes observable quickly.
  DifferentialOptions options;
  options.mutation = GetParam();
  const auto divergence =
      run_differential(star_blind_gossip_scenario(6, 32, 3), options);
  ASSERT_TRUE(divergence.has_value())
      << "mutation " << to_string(GetParam()) << " was not detected";
  EXPECT_GE(divergence->round, 1u);
  EXPECT_FALSE(divergence->field.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, MutationDetection,
    ::testing::Values(ReferenceMutation::kDropOneConnectionBound,
                      ReferenceMutation::kAcceptFirstProposal,
                      ReferenceMutation::kSkipPayloadSnapshot));

TEST(Differential, PayloadSnapshotMutationNeedsStateDependentPayloads) {
  // Control for the kSkipPayloadSnapshot mutant: same scenario without the
  // mutation is clean, proving the detection above is the mutant's doing.
  EXPECT_FALSE(
      run_differential(star_blind_gossip_scenario(6, 32, 3)).has_value());
}

class FailureInjectionParity
    : public ::testing::TestWithParam<AcceptancePolicy> {};

TEST_P(FailureInjectionParity, EveryAcceptancePolicyMatchesUnderDrops) {
  // connection_failure_prob parity: the engines must agree on which
  // established connections the i.i.d. injector kills under every
  // acceptance policy (the drop draw rides on the acceptor's stream, so a
  // policy change reshuffles the whole schedule).
  FuzzCase fuzz_case;
  fuzz_case.protocol = FuzzProtocol::kBlindGossip;
  fuzz_case.generator = "star-line";
  fuzz_case.n = 12;
  fuzz_case.seed = 47;
  fuzz_case.acceptance = GetParam();
  fuzz_case.failure_prob = 0.3;
  fuzz_case.rounds = 48;
  const auto divergence = run_differential(make_scenario(fuzz_case));
  EXPECT_FALSE(divergence.has_value())
      << to_string(fuzz_case) << "\n  " << to_string(*divergence);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FailureInjectionParity,
    ::testing::Values(AcceptancePolicy::kUniformRandom,
                      AcceptancePolicy::kSmallestId,
                      AcceptancePolicy::kLargestId));

TEST(FailureInjectionParity, ClassicalModeMatchesUnderDrops) {
  // Classical mode takes the unbounded-accepts branch in both engines; the
  // failure draw ordering there is a separate code path worth pinning.
  FuzzCase fuzz_case;
  fuzz_case.protocol = FuzzProtocol::kClassicalGossip;
  fuzz_case.generator = "star-line";
  fuzz_case.n = 12;
  fuzz_case.seed = 48;
  fuzz_case.failure_prob = 0.3;
  fuzz_case.rounds = 48;
  const auto divergence = run_differential(make_scenario(fuzz_case));
  EXPECT_FALSE(divergence.has_value())
      << to_string(fuzz_case) << "\n  " << to_string(*divergence);
}

TEST(DifferentialFaults, FaultPlansProduceZeroDivergence) {
  // Explicit fault-dimension scenarios (beyond the random sweep): churn,
  // burst loss, degradation, and each oracle, alone and combined, on both
  // the mobile and classical paths.
  struct Dimension {
    const char* label;
    std::function<void(FuzzCase&)> apply;
  };
  const std::vector<Dimension> dimensions = {
      {"churn",
       [](FuzzCase& c) {
         c.crash_prob = 0.1;
         c.recovery_prob = 0.5;
       }},
      {"burst-mild", [](FuzzCase& c) { c.burst = 1; }},
      {"burst-harsh", [](FuzzCase& c) { c.burst = 2; }},
      {"degradation", [](FuzzCase& c) { c.edge_degradation = 0.5; }},
      {"oracle-random",
       [](FuzzCase& c) {
         c.targeting = CrashTargeting::kRandomAlive;
         c.target_every = 6;
       }},
      {"oracle-min-holder",
       [](FuzzCase& c) {
         c.targeting = CrashTargeting::kMinUidHolder;
         c.target_every = 6;
       }},
      {"oracle-leader",
       [](FuzzCase& c) {
         c.targeting = CrashTargeting::kLeaderNode;
         c.target_every = 6;
         c.recovery_prob = 0.3;
       }},
      {"everything",
       [](FuzzCase& c) {
         c.crash_prob = 0.05;
         c.recovery_prob = 0.5;
         c.burst = 2;
         c.edge_degradation = 0.25;
         c.targeting = CrashTargeting::kRandomAlive;
         c.target_every = 8;
       }},
  };
  for (const auto protocol :
       {FuzzProtocol::kBlindGossip, FuzzProtocol::kStableLeader,
        FuzzProtocol::kClassicalGossip}) {
    for (const Dimension& dim : dimensions) {
      FuzzCase fuzz_case;
      fuzz_case.protocol = protocol;
      fuzz_case.generator = "star-line";
      fuzz_case.n = 12;
      fuzz_case.seed = 53;
      fuzz_case.rounds = 64;
      dim.apply(fuzz_case);
      const auto divergence = run_differential(make_scenario(fuzz_case));
      EXPECT_FALSE(divergence.has_value())
          << dim.label << ": " << to_string(fuzz_case) << "\n  "
          << to_string(*divergence);
    }
  }
}

TEST(DifferentialFaults, CrashAndRestartEventsAreObserved) {
  // The recorded event streams must include the fault callbacks — that is
  // what makes recovery semantics diffable between the engines at all.
  FuzzCase fuzz_case;
  fuzz_case.protocol = FuzzProtocol::kBlindGossip;
  fuzz_case.generator = "clique";
  fuzz_case.n = 8;
  fuzz_case.seed = 5;
  fuzz_case.rounds = 60;
  fuzz_case.crash_prob = 0.1;
  fuzz_case.recovery_prob = 0.5;
  const Scenario scenario = make_scenario(fuzz_case);

  auto protocol = scenario.make_protocol();
  auto topology = scenario.make_topology();
  RecordingProtocol recorder(*protocol);
  Engine engine(*topology, recorder, scenario.config);
  engine.run_rounds(scenario.rounds);
  std::size_t crashes = 0, restarts = 0;
  for (const ProtocolEvent& e : recorder.events()) {
    crashes += e.kind == ProtocolEvent::Kind::kCrash;
    restarts += e.kind == ProtocolEvent::Kind::kRestart;
  }
  EXPECT_EQ(crashes, engine.telemetry().crashes());
  EXPECT_EQ(restarts, engine.telemetry().recoveries());
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(restarts, 0u);
}

TEST(DifferentialFaults, SkipRestartResetMutationIsCaught) {
  // The fault-path mutation: a reference engine that revives nodes without
  // resetting their activation round (local-round clock) or protocol state
  // must diverge from the real engine as soon as a recovery happens.
  FuzzCase fuzz_case;
  fuzz_case.protocol = FuzzProtocol::kBlindGossip;
  fuzz_case.generator = "clique";
  fuzz_case.n = 8;
  fuzz_case.seed = 5;
  fuzz_case.rounds = 60;
  fuzz_case.crash_prob = 0.1;
  fuzz_case.recovery_prob = 0.5;

  // Control: without the mutation the scenario is clean.
  ASSERT_FALSE(run_differential(make_scenario(fuzz_case)).has_value());

  DifferentialOptions options;
  options.mutation = ReferenceMutation::kSkipRestartReset;
  const auto divergence =
      run_differential(make_scenario(fuzz_case), options);
  ASSERT_TRUE(divergence.has_value())
      << "skip-restart-reset mutation was not detected";
  EXPECT_GE(divergence->round, 1u);
}

TEST(RecordingProtocol, WrappingDoesNotChangeTheExecution) {
  const Graph g = make_star_line(3, 4);
  const auto run_rounds = [&g](bool wrapped) {
    StaticGraphProvider topo(g);
    BlindGossip proto(BlindGossip::shuffled_uids(g.node_count(), 9));
    EngineConfig cfg;
    cfg.seed = 21;
    if (wrapped) {
      RecordingProtocol recorder(proto);
      Engine engine(topo, recorder, cfg);
      return run_until_stabilized(engine, 1u << 20).rounds;
    }
    Engine engine(topo, proto, cfg);
    return run_until_stabilized(engine, 1u << 20).rounds;
  };
  EXPECT_EQ(run_rounds(false), run_rounds(true));
}

TEST(RecordingProtocol, CapturesTheFullEventStream) {
  StaticGraphProvider topo(make_clique(4));
  BlindGossip proto(BlindGossip::shuffled_uids(4, 2));
  RecordingProtocol recorder(proto);
  EngineConfig cfg;
  cfg.seed = 5;
  Engine engine(topo, recorder, cfg);
  engine.step();

  // Round one of a 4-clique: 4 advertises, 4 decides, 4 finishes, plus one
  // make/receive pair per endpoint of each established connection.
  std::size_t advertises = 0, decides = 0, finishes = 0, makes = 0,
              receives = 0;
  for (const ProtocolEvent& e : recorder.events()) {
    advertises += e.kind == ProtocolEvent::Kind::kAdvertise;
    decides += e.kind == ProtocolEvent::Kind::kDecide;
    finishes += e.kind == ProtocolEvent::Kind::kFinishRound;
    makes += e.kind == ProtocolEvent::Kind::kMakePayload;
    receives += e.kind == ProtocolEvent::Kind::kReceivePayload;
  }
  EXPECT_EQ(advertises, 4u);
  EXPECT_EQ(decides, 4u);
  EXPECT_EQ(finishes, 4u);
  EXPECT_EQ(makes, receives);
  EXPECT_EQ(makes, 2 * engine.telemetry().connections());
  EXPECT_NE(recorder.event_hash(), 0u);
}

TEST(ReferenceEngine, MatchesEngineOnStateDependentPayloads) {
  // Pairwise averaging's payload is its mutable running value — the
  // protocol most sensitive to exchange-order semantics.
  Scenario scenario;
  scenario.description = "pairwise-averaging clique";
  scenario.rounds = 40;
  scenario.config.seed = 13;
  scenario.make_protocol = []() -> std::unique_ptr<Protocol> {
    std::vector<double> values(8);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<double>(i);
    }
    return std::make_unique<PairwiseAveraging>(values, 1e-9);
  };
  scenario.make_topology = []() -> std::unique_ptr<DynamicGraphProvider> {
    return std::make_unique<StaticGraphProvider>(make_clique(8));
  };
  EXPECT_FALSE(run_differential(scenario).has_value());
}

TEST(ReferenceEngine, ProducesIdenticalStabilizationRounds) {
  // Beyond lockstep equality of observables: the reference engine, run
  // standalone, stabilizes the same protocol in the same round.
  const Graph g = make_star_line(2, 5);
  const auto stabilize = [&g](auto&& make_engine) {
    BlindGossip proto(BlindGossip::shuffled_uids(g.node_count(), 4));
    StaticGraphProvider topo(g);
    EngineConfig cfg;
    cfg.seed = 31;
    auto engine = make_engine(topo, proto, cfg);
    Round r = 0;
    while (!proto.stabilized() && r < (1u << 20)) {
      engine.step();
      ++r;
    }
    return r;
  };
  const Round real = stabilize([](auto& t, auto& p, auto c) {
    return Engine(t, p, c);
  });
  const Round reference = stabilize([](auto& t, auto& p, auto c) {
    return ReferenceEngine(t, p, c);
  });
  EXPECT_EQ(real, reference);
  EXPECT_GT(real, 0u);
}

}  // namespace
}  // namespace mtm::testing
