// Fixtures shared by the sweep-driver tests (SweepRunner, the fabric
// coordinator, crash-point enumeration): a synthetic manifest, trial and
// point list whose results are pure functions of the trial seed, so a
// resumed, a worker-executed and a fresh trial are trivially comparable,
// and a field-by-field comparison of two reports.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "obs/manifest.hpp"

namespace mtm::fixtures {

inline std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

inline obs::RunManifest sweep_manifest(std::uint64_t seed = 11) {
  obs::RunManifest manifest = obs::make_run_manifest("sweep_test", seed, 1);
  obs::JsonValue config = obs::JsonValue::object();
  config.set("kind", obs::JsonValue::string("synthetic"));
  manifest.config = std::move(config);
  return manifest;
}

inline RunResult synthetic_result(std::uint64_t seed) {
  RunResult r;
  r.rounds = seed % 97 + 1;
  r.converged = true;
  r.rounds_after_last_activation = r.rounds;
  r.connections = seed % 31;
  r.proposals = seed % 17;
  return r;
}

inline std::vector<SweepPoint> synthetic_points(std::size_t points,
                                                std::size_t trials,
                                                std::uint64_t master) {
  std::vector<SweepPoint> out;
  for (std::size_t p = 0; p < points; ++p) {
    SweepPoint point;
    point.label = "p" + std::to_string(p);
    point.trials = trials;
    point.master_seed = master + p;
    point.body = [](std::uint64_t seed, const TrialCancel*) {
      return synthetic_result(seed);
    };
    out.push_back(std::move(point));
  }
  return out;
}

/// Every RunResult field of every reported trial is equal.
inline void expect_same_results(const SweepReport& a, const SweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    ASSERT_EQ(a.points[p].size(), b.points[p].size());
    for (std::size_t t = 0; t < a.points[p].size(); ++t) {
      const RunResult& x = a.points[p][t];
      const RunResult& y = b.points[p][t];
      SCOPED_TRACE("point " + std::to_string(p) + " trial " +
                   std::to_string(t));
      EXPECT_EQ(x.rounds, y.rounds);
      EXPECT_EQ(x.converged, y.converged);
      EXPECT_EQ(x.rounds_after_last_activation,
                y.rounds_after_last_activation);
      EXPECT_EQ(x.connections, y.connections);
      EXPECT_EQ(x.proposals, y.proposals);
      EXPECT_EQ(x.invariant_violations, y.invariant_violations);
      EXPECT_EQ(x.split_brain_rounds, y.split_brain_rounds);
      EXPECT_EQ(x.cancelled, y.cancelled);
    }
  }
}

}  // namespace mtm::fixtures
