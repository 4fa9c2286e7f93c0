// SweepRunner: resume merges journaled trials byte-identically, watchdog
// deadlines retry then quarantine without stalling sibling trials, the
// interrupt token stops the sweep without journaling incomplete work, and
// journal seeds match the run_trials derivation. Threads claim trials across
// point boundaries. Through both sweep drivers, SweepRunner and the fabric
// coordinator: the quarantine list is sorted, resuming a complete journal
// writes nothing, and a quarantined trial reads cancelled on every path.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/fabric.hpp"
#include "harness/storage.hpp"
#include "sweep_fixtures.hpp"

namespace mtm {
namespace {

using namespace fixtures;

TEST(SweepRunner, RunsWithoutJournalAndMatchesTrialSeedDerivation) {
  SweepRunner runner(sweep_manifest(), ResilienceOptions{});
  std::vector<SweepPoint> points = synthetic_points(2, 4, 50);
  const SweepReport report = runner.run(points, 2);
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.executed_trials, 8u);
  EXPECT_EQ(report.resumed_trials, 0u);
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t t = 0; t < 4; ++t) {
      // The exact derivation run_trials uses — a journaled trial and a
      // freshly run one can never disagree about what trial t means.
      EXPECT_EQ(report.points[p][t].rounds,
                synthetic_result(trial_seed(50 + p, t)).rounds);
    }
  }
}

TEST(SweepRunner, InterruptStopsEarlyAndResumeIsByteIdentical) {
  const std::string journal = temp_path("sweep_resume.jsonl");
  const obs::RunManifest manifest = sweep_manifest();

  // Control: one uninterrupted run, no journal.
  SweepRunner control(manifest, ResilienceOptions{});
  const SweepReport full = control.run(synthetic_points(3, 4, 100), 1);
  ASSERT_EQ(full.points.size(), 3u);

  // Interrupted run: the "user" hits Ctrl-C inside point 1, trial 2.
  CancelToken interrupt;
  std::atomic<std::size_t> executed{0};
  std::vector<SweepPoint> points = synthetic_points(3, 4, 100);
  for (SweepPoint& point : points) {
    point.body = [&](std::uint64_t seed, const TrialCancel* cancel) {
      if (executed.fetch_add(1) == 5) interrupt.cancel();
      if (cancel != nullptr && cancel->cancelled()) {
        RunResult r;
        r.cancelled = true;
        return r;
      }
      return synthetic_result(seed);
    };
  }
  ResilienceOptions interrupted_options;
  interrupted_options.journal_path = journal;
  interrupted_options.interrupt = &interrupt;
  SweepRunner interrupted(manifest, interrupted_options);
  const SweepReport partial = interrupted.run(points, 1);
  EXPECT_TRUE(partial.interrupted);
  ASSERT_LT(partial.points.size(), 3u);  // only fully completed points
  // The journal holds every COMPLETED trial and nothing half-done.
  const TrialJournal::Contents contents = TrialJournal::load(journal);
  EXPECT_GE(contents.records.size(), 4u);
  EXPECT_LT(contents.records.size(), 12u);

  // Resume: merged aggregates must be identical to the uninterrupted run.
  ResilienceOptions resume_options;
  resume_options.journal_path = journal;
  resume_options.resume = true;
  SweepRunner resumed(manifest, resume_options);
  const SweepReport rest = resumed.run(synthetic_points(3, 4, 100), 1);
  EXPECT_FALSE(rest.interrupted);
  EXPECT_EQ(rest.resumed_trials, contents.records.size());
  EXPECT_EQ(rest.resumed_trials + rest.executed_trials, 12u);
  expect_same_results(full, rest);
  std::remove(journal.c_str());
}

TEST(SweepRunner, DeadlineRetriesThenQuarantinesWithoutStallingSiblings) {
  const obs::RunManifest manifest = sweep_manifest();
  ResilienceOptions options;
  options.trial_deadline_ms = 25;
  options.retries = 2;
  options.backoff_ms = 1;
  SweepRunner runner(manifest, options);

  const std::uint64_t master = 77;
  const std::uint64_t stuck_seed = trial_seed(master, 1);
  SweepPoint point;
  point.label = "quarantine";
  point.trials = 3;
  point.master_seed = master;
  point.body = [&](std::uint64_t seed, const TrialCancel* cancel) {
    if (seed == stuck_seed) {
      // A wedged trial: spins until the watchdog evicts it, every attempt.
      while (cancel == nullptr || !cancel->cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      RunResult r;
      r.cancelled = true;
      return r;
    }
    return synthetic_result(seed);
  };
  const SweepReport report = runner.run({point}, 2);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_FALSE(report.interrupted);
  // Siblings completed normally around the stuck trial.
  EXPECT_TRUE(report.points[0][0].converged);
  EXPECT_TRUE(report.points[0][2].converged);
  // The stuck trial is censored, retried to exhaustion, and quarantined.
  EXPECT_FALSE(report.points[0][1].converged);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].seed, stuck_seed);
  EXPECT_EQ(report.quarantined[0].attempts, 3u);  // 1 initial + 2 retries
  EXPECT_EQ(report.retried_trials, 1u);
  EXPECT_EQ(report.quarantined_seeds(), std::vector<std::uint64_t>{stuck_seed});
}

TEST(SweepRunner, ResumedQuarantineIsNotReexecuted) {
  const std::string journal = temp_path("sweep_quarantine.jsonl");
  const obs::RunManifest manifest = sweep_manifest();
  {
    TrialJournal j = TrialJournal::create(journal, manifest);
    JournalRecord rec;
    rec.point = 0;
    rec.trial = 0;
    rec.seed = trial_seed(5, 0);
    rec.result.converged = false;
    rec.attempts = 3;
    rec.quarantined = true;
    j.append(rec);
  }
  ResilienceOptions options;
  options.journal_path = journal;
  options.resume = true;
  SweepRunner runner(manifest, options);
  std::atomic<std::size_t> executed{0};
  SweepPoint point;
  point.trials = 2;
  point.master_seed = 5;
  point.body = [&](std::uint64_t seed, const TrialCancel*) {
    ++executed;
    return synthetic_result(seed);
  };
  const SweepReport report = runner.run({point}, 1);
  EXPECT_EQ(executed.load(), 1u);  // only the missing trial ran
  EXPECT_EQ(report.resumed_trials, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].attempts, 3u);
  std::remove(journal.c_str());
}

TEST(SweepRunner, NextPointStartsWhileThePreviousPointsLastTrialRuns) {
  // Two single-trial points on two threads: point 0's trial waits for point
  // 1's to start. A barrier after each point would leave it waiting alone
  // until the bound runs out.
  std::mutex mutex;
  std::condition_variable started;
  bool second_started = false;
  bool overlapped = false;
  std::vector<SweepPoint> points = synthetic_points(2, 1, 60);
  points[0].body = [&](std::uint64_t seed, const TrialCancel*) {
    std::unique_lock<std::mutex> lock(mutex);
    overlapped = started.wait_for(lock, std::chrono::seconds(5),
                                  [&] { return second_started; });
    return synthetic_result(seed);
  };
  points[1].body = [&](std::uint64_t seed, const TrialCancel*) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      second_started = true;
    }
    started.notify_all();
    return synthetic_result(seed);
  };
  const SweepReport report =
      SweepRunner(sweep_manifest(), ResilienceOptions{}).run(points, 2);
  EXPECT_TRUE(overlapped) << "point 1 did not start while point 0 ran";
  EXPECT_FALSE(report.interrupted);
  expect_same_results(report,
                      SweepRunner(sweep_manifest(), ResilienceOptions{})
                          .run(synthetic_points(2, 1, 60), 1));
}

/// Runs `points` on `coordinator` with one in-process worker on a loopback
/// transport, under the same options.
SweepReport run_with_loopback_worker(FabricCoordinator& coordinator,
                                     const std::vector<SweepPoint>& points,
                                     const FabricOptions& options) {
  auto [coord_side, worker_side] = make_loopback_transport();
  std::vector<WorkerEndpoint> endpoints;
  endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
  int exit_code = -1;
  std::thread worker([&, transport = std::move(worker_side)]() mutable {
    FabricWorkerSession session;
    session.id = 1;
    exit_code = run_fabric_worker(std::move(transport), points,
                                  sweep_manifest(), options, session);
  });
  SweepReport report = coordinator.run(points, std::move(endpoints));
  worker.join();
  EXPECT_EQ(exit_code, 0);
  return report;
}

/// One point of `trials` synthetic trials whose trial `wedged` spins until
/// the watchdog cancels it, on every attempt.
SweepPoint point_with_wedged_trial(std::size_t trials, std::uint64_t master,
                                   std::uint64_t wedged) {
  SweepPoint point = synthetic_points(1, trials, master).front();
  const std::uint64_t wedged_seed = trial_seed(master, wedged);
  point.body = [wedged_seed](std::uint64_t seed, const TrialCancel* cancel) {
    if (seed != wedged_seed) return synthetic_result(seed);
    while (cancel == nullptr || !cancel->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    RunResult r;
    r.cancelled = true;
    return r;
  };
  return point;
}

using Key = std::pair<std::uint64_t, std::uint64_t>;  // (point, trial)

std::vector<Key> quarantined_keys(const SweepReport& report) {
  std::vector<Key> keys;
  for (const QuarantinedTrial& q : report.quarantined) {
    keys.emplace_back(q.point, q.trial);
  }
  return keys;
}

TEST(SweepLedger, BothDriversListResumedAndNewQuarantineInPointTrialOrder) {
  // The journal holds a quarantined (0,1); this run quarantines (0,0). Both
  // drivers list them by (point, trial), not resumed-first.
  const std::uint64_t master = 70;
  const std::vector<SweepPoint> points = {
      point_with_wedged_trial(2, master, /*wedged=*/0)};
  const auto seed_journal = [&](const std::string& path) {
    TrialJournal journal = TrialJournal::create(path, sweep_manifest());
    JournalRecord rec;
    rec.point = 0;
    rec.trial = 1;
    rec.seed = trial_seed(master, 1);
    rec.attempts = 2;
    rec.quarantined = true;
    journal.append(rec);
  };
  ResilienceOptions options;
  options.resume = true;
  options.trial_deadline_ms = 25;

  const std::string local = temp_path("ledger_quarantine_local.jsonl");
  seed_journal(local);
  options.journal_path = local;
  const SweepReport report = SweepRunner(sweep_manifest(), options).run(points);

  const std::string fabric = temp_path("ledger_quarantine_fabric.jsonl");
  seed_journal(fabric);
  options.journal_path = fabric;
  FabricOptions fabric_options;
  fabric_options.lease_ms = 60000;
  fabric_options.resilience = options;
  FabricCoordinator coordinator(sweep_manifest(), fabric_options);
  const SweepReport fabric_report =
      run_with_loopback_worker(coordinator, points, fabric_options);

  const std::vector<Key> sorted = {{0, 0}, {0, 1}};
  EXPECT_EQ(quarantined_keys(report), sorted);
  EXPECT_EQ(quarantined_keys(fabric_report), sorted);
  EXPECT_EQ(report.resumed_trials, 1u);
  EXPECT_EQ(report.executed_trials, 1u);
  expect_same_results(report, fabric_report);
  std::remove(local.c_str());
  std::remove(fabric.c_str());
}

TEST(SweepLedger, BothDriversResumeACompleteJournalWithoutStorageOps) {
  // Nothing is appended, so nothing needs a checkpoint: after the open, a
  // resume of a complete 4-point journal touches storage not at all.
  const std::vector<SweepPoint> points = synthetic_points(4, 2, 80);
  const std::string journal = temp_path("ledger_complete.jsonl");
  ResilienceOptions write;
  write.journal_path = journal;
  const SweepReport written = SweepRunner(sweep_manifest(), write).run(points);

  FaultyStorage storage(default_storage(), StorageFaultConfig{});
  ResilienceOptions resume = write;
  resume.resume = true;
  resume.storage = &storage;

  SweepRunner runner(sweep_manifest(), resume);
  std::uint64_t after_open = storage.op_count();
  const SweepReport local = runner.run(points, 2);
  EXPECT_EQ(storage.op_count(), after_open) << "SweepRunner";
  EXPECT_EQ(local.resumed_trials, 8u);
  EXPECT_EQ(local.executed_trials, 0u);
  expect_same_results(written, local);

  FabricOptions fabric_options;
  fabric_options.lease_ms = 60000;
  fabric_options.resilience = resume;
  FabricCoordinator coordinator(sweep_manifest(), fabric_options);
  after_open = storage.op_count();
  const SweepReport fabric =
      run_with_loopback_worker(coordinator, points, fabric_options);
  EXPECT_EQ(storage.op_count(), after_open) << "FabricCoordinator";
  EXPECT_EQ(fabric.resumed_trials, 8u);
  expect_same_results(written, fabric);
  std::remove(journal.c_str());
}

TEST(SweepLedger, QuarantinedTrialReadsCancelledOnEveryPath) {
  // The journal line has no cancelled field. A quarantined trial must still
  // read cancelled whether it ran in-process, was resumed, or was
  // delivered by a fabric worker.
  const std::vector<SweepPoint> points = {
      point_with_wedged_trial(2, 90, /*wedged=*/1)};
  const std::string journal = temp_path("ledger_cancelled.jsonl");
  ResilienceOptions options;
  options.journal_path = journal;
  options.trial_deadline_ms = 25;

  const SweepReport local = SweepRunner(sweep_manifest(), options).run(points);
  ASSERT_EQ(local.points.size(), 1u);
  EXPECT_TRUE(local.points[0][1].cancelled) << "in-process";

  options.resume = true;
  const SweepReport resumed =
      SweepRunner(sweep_manifest(), options).run(points);
  ASSERT_EQ(resumed.points.size(), 1u);
  EXPECT_TRUE(resumed.points[0][1].cancelled) << "resumed";

  FabricOptions fabric_options;
  fabric_options.lease_ms = 60000;
  fabric_options.resilience = options;
  fabric_options.resilience.journal_path.clear();
  fabric_options.resilience.resume = false;
  FabricCoordinator coordinator(sweep_manifest(), fabric_options);
  const SweepReport delivered =
      run_with_loopback_worker(coordinator, points, fabric_options);
  ASSERT_EQ(delivered.points.size(), 1u);
  EXPECT_TRUE(delivered.points[0][1].cancelled) << "worker-delivered";

  expect_same_results(local, resumed);
  expect_same_results(local, delivered);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace mtm
