// E9 / Table 4 — simulator ablation: engine throughput and Monte-Carlo
// scaling. Not a paper result; this pins the cost model behind every other
// bench (rounds/second by topology size, and trial-level parallel speedup),
// so regressions in the substrate are visible.
//
// These are genuine wall-clock benchmarks (multiple timed iterations), in
// contrast to the Iterations(1) measurement harnesses of E1–E8.
//
// With --out=BENCH_engine_throughput.json the binary also emits the unified
// bench JSON (obs/bench_report.hpp) including the per-phase timing
// breakdown collected by BM_EnginePhaseBreakdown (E17).
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "protocols/blind_gossip.hpp"
#include "protocols/ppush.hpp"
#include "sim/runner.hpp"

namespace mtm {
namespace {

const std::uint64_t kSeed = bench::bench_seed(0xe17);

void BM_EngineRoundsBlindGossipClique(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Round rounds_per_iter = 256;
  StaticGraphProvider topo(make_clique(n));
  for (auto _ : state) {
    state.PauseTiming();
    BlindGossip proto(BlindGossip::shuffled_uids(n, 1));
    EngineConfig cfg;
    cfg.seed = 1;
    Engine engine(topo, proto, cfg);
    state.ResumeTiming();
    engine.run_rounds(rounds_per_iter);
    benchmark::DoNotOptimize(engine.telemetry().connections());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rounds_per_iter));
  state.counters["node_rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rounds_per_iter * n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRoundsBlindGossipClique)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_EngineRoundsPpushStarLine(benchmark::State& state) {
  const auto stars = static_cast<NodeId>(state.range(0));
  const Round rounds_per_iter = 256;
  StaticGraphProvider topo(make_star_line(stars, stars));
  const NodeId n = topo.node_count();
  for (auto _ : state) {
    state.PauseTiming();
    Ppush proto({0});
    EngineConfig cfg;
    cfg.tag_bits = 1;
    cfg.seed = 2;
    Engine engine(topo, proto, cfg);
    state.ResumeTiming();
    engine.run_rounds(rounds_per_iter);
    benchmark::DoNotOptimize(engine.telemetry().connections());
  }
  state.counters["node_rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rounds_per_iter * n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRoundsPpushStarLine)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_DynamicTopologyOverhead(benchmark::State& state) {
  // Relabeling every round (τ = 1) vs static: the per-round cost of
  // regenerating a topology.
  const NodeId n = 256;
  const auto tau = static_cast<Round>(state.range(0));
  const Round rounds_per_iter = 64;
  Rng rng(3);
  const Graph base = make_random_regular(n, 8, rng);
  for (auto _ : state) {
    state.PauseTiming();
    BlindGossip proto(BlindGossip::shuffled_uids(n, 3));
    EngineConfig cfg;
    cfg.seed = 3;
    state.ResumeTiming();
    if (tau == 0) {
      StaticGraphProvider topo(base);
      Engine engine(topo, proto, cfg);
      engine.run_rounds(rounds_per_iter);
      benchmark::DoNotOptimize(engine.telemetry().connections());
    } else {
      RelabelingGraphProvider topo(base, tau, 3);
      Engine engine(topo, proto, cfg);
      engine.run_rounds(rounds_per_iter);
      benchmark::DoNotOptimize(engine.telemetry().connections());
    }
  }
  state.SetLabel(tau == 0 ? "static" : "relabel tau=" + std::to_string(tau));
}
BENCHMARK(BM_DynamicTopologyOverhead)
    ->Arg(0)
    ->Arg(8)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloThreadScaling(benchmark::State& state) {
  // Trial-level parallel speedup of the experiment harness. Per-trial wall
  // times land in the "trial_wall_ms" histogram of the bench JSON.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const NodeId n = 64;
  for (auto _ : state) {
    LeaderExperiment spec;
    spec.algo = LeaderAlgo::kBlindGossip;
    spec.node_count = n;
    spec.topology = static_topology(make_clique(n));
    spec.controls.max_rounds = 1u << 20;
    spec.controls.trials = 32;
    spec.controls.seed = 4;
    spec.controls.threads = threads;
    spec.metrics = &bench::bench_metrics();
    benchmark::DoNotOptimize(measure_leader(spec).mean);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_MonteCarloThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EnginePhaseBreakdown(benchmark::State& state) {
  // E17 — where does a round go? Runs blind gossip on a random-regular
  // graph with the phase profile attached; per-phase totals and fractions
  // land in the "phases" section of the bench JSON, and the zero-
  // perturbation contract (engine.hpp) guarantees the attachment changes
  // no simulated result.
  const auto n = static_cast<NodeId>(state.range(0));
  const Round rounds_per_iter = 256;
  Rng rng(derive_seed(kSeed, {0xb4ea3dULL}));
  StaticGraphProvider topo(make_random_regular(n, 8, rng));
  obs::PhaseProfile& profile = bench::bench_phase_profile();
  for (auto _ : state) {
    state.PauseTiming();
    BlindGossip proto(BlindGossip::shuffled_uids(n, kSeed));
    EngineConfig cfg;
    cfg.seed = kSeed;
    Engine engine(topo, proto, cfg);
    engine.set_phase_profile(&profile);
    state.ResumeTiming();
    engine.run_rounds(rounds_per_iter);
    benchmark::DoNotOptimize(engine.telemetry().connections());
  }
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto phase = static_cast<obs::Phase>(i);
    state.counters[std::string("frac_") + obs::phase_name(phase)] =
        profile.fraction(phase);
  }
}
BENCHMARK(BM_EnginePhaseBreakdown)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// E20 — the pinned perf trajectory (BENCH_engine.json).
//
// BM_EngineScaling measures raw round-engine throughput (blind gossip on a
// random-regular graph, degree 8) at n = 10^4 / 10^5 / 10^6 — and 10^7 when
// $MTM_BENCH_HUGE is set, the point being too slow to build for every run —
// with scheduler.threads = 1 and = max. Each point lands in the bench
// JSON twice: as a series point whose `predicted` column is the seed
// engine's throughput at the same n (so the measured/predicted ratio IS the
// speedup vs seed), and as a row of extra["engine_scaling"] carrying
// rounds/s, node-rounds/s and the process peak RSS. The CI perf-smoke job
// regenerates the small points and fails on a >25% node-rounds/s drop
// against the committed BENCH_engine.json.

using obs::JsonValue;

/// Peak resident set (VmHWM) of this process in kB; 0 if unreadable. The
/// counter is monotone, so with points run in ascending n it reads "peak
/// RSS up to and including this point".
std::uint64_t read_vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Seed-engine throughput (node-rounds/s, threads = 1) on this workload,
/// measured at the growth seed commit on the reference 1-core container.
/// 0 = no recorded baseline for that n.
double seed_baseline_node_rounds(std::int64_t n) {
  switch (n) {
    case 10000: return 7.132e6;
    case 100000: return 4.011e6;
    case 1000000: return 2.180e6;
    default: return 0.0;
  }
}

JsonValue& engine_scaling_rows() {
  static JsonValue rows = JsonValue::array();
  return rows;
}

void BM_EngineScaling(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const Round warmup = 2;
  const Round timed =
      std::max<Round>(4, static_cast<Round>(8'000'000 / std::max<NodeId>(n, 1)));

  Rng rng(derive_seed(kSeed, {0xe20ULL, n}));
  StaticGraphProvider topo(make_random_regular(n, 8, rng));

  double node_rounds_per_s = 0.0;
  double rounds_per_s = 0.0;
  std::size_t shards = 1;
  for (auto _ : state) {
    BlindGossip proto(BlindGossip::shuffled_uids(n, kSeed));
    EngineConfig cfg;
    cfg.seed = kSeed;
    cfg.scheduler.threads = threads;
    Engine engine(topo, proto, cfg);
    shards = engine.shard_count();
    engine.run_rounds(warmup);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_rounds(timed);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.telemetry().connections());
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    rounds_per_s = static_cast<double>(timed) / secs;
    node_rounds_per_s = rounds_per_s * static_cast<double>(n);
  }

  const std::uint64_t rss_kb = read_vm_hwm_kb();
  const double baseline = seed_baseline_node_rounds(state.range(0));
  const std::string thread_key = threads == 1 ? "1" : "max";

  state.counters["node_rounds/s"] = node_rounds_per_s;
  state.counters["rounds/s"] = rounds_per_s;
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["rss_hwm_kb"] = static_cast<double>(rss_kb);
  if (baseline > 0.0) {
    state.counters["speedup_vs_seed"] = node_rounds_per_s / baseline;
  }

  const double sample[] = {node_rounds_per_s};
  bench::record_point(
      "engine-scaling/threads=" + thread_key, "n",
      {static_cast<double>(n), summarize(sample), baseline,
       "rss_hwm_kb=" + std::to_string(rss_kb) +
           (baseline > 0.0 ? "" : " (no seed baseline)")});

  JsonValue row = JsonValue::object();
  row.set("n", JsonValue::unsigned_number(n));
  row.set("threads", JsonValue::string(thread_key));
  row.set("shards", JsonValue::unsigned_number(shards));
  row.set("rounds_timed", JsonValue::unsigned_number(timed));
  row.set("rounds_per_s", JsonValue::number(rounds_per_s));
  row.set("node_rounds_per_s", JsonValue::number(node_rounds_per_s));
  row.set("rss_hwm_kb", JsonValue::unsigned_number(rss_kb));
  row.set("seed_baseline_node_rounds_per_s", JsonValue::number(baseline));
  row.set("speedup_vs_seed",
          JsonValue::number(baseline > 0.0 ? node_rounds_per_s / baseline
                                           : 0.0));
  engine_scaling_rows().push_back(std::move(row));
  bench::set_extra_section("engine_scaling", engine_scaling_rows());
}

// Manual registration: the 10^7 point exists only under $MTM_BENCH_HUGE
// (its graph alone takes minutes to generate), which a BENCHMARK macro
// cannot express.
const int kEngineScalingRegistered = [] {
  auto* b = benchmark::RegisterBenchmark("BM_EngineScaling", BM_EngineScaling);
  b->Unit(benchmark::kMillisecond)->Iterations(1);
  const bool huge = std::getenv("MTM_BENCH_HUGE") != nullptr;
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{0}}) {
    b->Args({10000, threads});
    b->Args({100000, threads});
    b->Args({1000000, threads});
    if (huge) b->Args({10000000, threads});
  }
  // threads=max rows are only comparable between hosts of the same width:
  // record this host's core count (and whether the $MTM_BENCH_HUGE point
  // ran) so the CI gate can tell a perf regression from a narrower runner.
  const unsigned cores = std::thread::hardware_concurrency();
  JsonValue host = JsonValue::object();
  host.set("cores", JsonValue::unsigned_number(cores == 0 ? 1 : cores));
  host.set("huge", JsonValue::boolean(huge));
  bench::set_extra_section("bench_host", std::move(host));
  return 0;
}();

}  // namespace
}  // namespace mtm

MTM_BENCH_MAIN();
