// Parameterized convergence property suite: every leader-election algorithm
// must stabilize to the global minimum on every topology family, static or
// changing, and every rumor algorithm must inform everyone. These are the
// probability-1 correctness guarantees of paper Section IV, swept across
// (algorithm × family × seed).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "sim/mobility.hpp"
#include "sim/runner.hpp"

namespace mtm {
namespace {

Graph build_topology(const std::string& name) {
  if (name == "clique") return make_clique(12);
  if (name == "cycle") return make_cycle(12);
  if (name == "star") return make_star(12);
  if (name == "star-line") return make_star_line(3, 3);
  if (name == "grid") return make_grid(3, 4);
  if (name == "binary-tree") return make_binary_tree(12);
  if (name == "barbell") return make_barbell(5, 2);
  if (name == "random-regular") {
    Rng rng(55);
    return make_random_regular(12, 4, rng);
  }
  ADD_FAILURE() << "unknown topology " << name;
  return make_clique(2);
}

// The topology axis is a std::string, not a const char*: gtest prints a
// string parameter by value but a pointer by address, and ctest names the
// tests after the printed parameters, so a pointer would rename them on
// every build.
class LeaderConvergence
    : public ::testing::TestWithParam<std::tuple<int, std::string, Round>> {};

TEST_P(LeaderConvergence, StabilizesToGlobalMinimum) {
  const auto [algo_index, topo_name, tau] = GetParam();
  const auto algo = static_cast<LeaderAlgo>(algo_index);
  Graph g = build_topology(topo_name);
  const NodeId n = g.node_count();

  LeaderExperiment spec;
  spec.algo = algo;
  spec.node_count = n;
  spec.max_degree_bound = g.max_degree();
  spec.network_size_bound = n;
  spec.topology = tau == 0 ? static_topology(std::move(g))
                           : relabeling_topology(std::move(g), tau);
  spec.controls.max_rounds = 3000000;
  spec.controls.trials = 4;
  spec.controls.seed = 0xc0ffee;
  spec.controls.threads = 4;
  const auto results = run_leader_experiment(spec);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.converged) << leader_algo_name(algo) << " on " << topo_name
                             << " tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StaticTopologies, LeaderConvergence,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(LeaderAlgo::kBlindGossip),
                          static_cast<int>(LeaderAlgo::kBitConvergence),
                          static_cast<int>(LeaderAlgo::kAsyncBitConvergence),
                          static_cast<int>(LeaderAlgo::kClassicalGossip)),
        ::testing::Values("clique", "cycle", "star", "star-line", "grid",
                          "binary-tree", "barbell", "random-regular"),
        ::testing::Values(Round{0})));

INSTANTIATE_TEST_SUITE_P(
    ChangingTopologies, LeaderConvergence,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(LeaderAlgo::kBlindGossip),
                          static_cast<int>(LeaderAlgo::kBitConvergence),
                          static_cast<int>(LeaderAlgo::kAsyncBitConvergence)),
        ::testing::Values("clique", "star-line", "random-regular"),
        ::testing::Values(Round{1}, Round{4})));

class RumorConvergence
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(RumorConvergence, InformsEveryone) {
  const auto [algo_index, topo_name] = GetParam();
  const auto algo = static_cast<RumorAlgo>(algo_index);
  Graph g = build_topology(topo_name);
  RumorExperiment spec;
  spec.algo = algo;
  spec.node_count = g.node_count();
  spec.topology = static_topology(std::move(g));
  spec.controls.max_rounds = 2000000;
  spec.controls.trials = 4;
  spec.controls.seed = 0xfeed;
  spec.controls.threads = 4;
  const auto results = run_rumor_experiment(spec);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.converged) << rumor_algo_name(algo) << " on " << topo_name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, RumorConvergence,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(RumorAlgo::kPushPull),
                          static_cast<int>(RumorAlgo::kPpush),
                          static_cast<int>(RumorAlgo::kClassicalPushPull)),
        ::testing::Values("clique", "cycle", "star", "star-line", "grid",
                          "random-regular")));

TEST(ConvergenceEdgeCases, TwoNodePath) {
  for (int algo_index = 0; algo_index < 4; ++algo_index) {
    LeaderExperiment spec;
    spec.algo = static_cast<LeaderAlgo>(algo_index);
    spec.node_count = 2;
    spec.topology = static_topology(make_path(2));
    spec.controls.max_rounds = 100000;
    spec.controls.trials = 3;
    spec.controls.seed = 3;
    const auto results = run_leader_experiment(spec);
    for (const RunResult& r : results) {
      EXPECT_TRUE(r.converged)
          << leader_algo_name(static_cast<LeaderAlgo>(algo_index));
    }
  }
}

TEST(ConvergenceEdgeCases, MobilityTopology) {
  // Leader election over the random-waypoint mobility substrate.
  LeaderExperiment spec;
  spec.algo = LeaderAlgo::kBlindGossip;
  spec.node_count = 24;
  spec.topology = [](std::uint64_t seed) {
    MobilityConfig cfg;
    cfg.node_count = 24;
    cfg.radius = 0.3;
    cfg.speed = 0.05;
    cfg.tau = 2;
    cfg.seed = seed;
    return std::make_unique<MobilityGraphProvider>(cfg);
  };
  spec.controls.max_rounds = 1000000;
  spec.controls.trials = 3;
  spec.controls.seed = 5;
  const auto results = run_leader_experiment(spec);
  for (const RunResult& r : results) EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace mtm
