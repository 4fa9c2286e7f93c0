// Crash-point enumeration: a journaled sweep is run through FaultyStorage
// and "power-lossed" after every single storage op N; the materialized
// durable state is then resumed (or diagnosably rejected and re-run) and
// the merged aggregates must be byte-identical to an uninterrupted control.
// There is no crash point — not even inside the atomic header rewrite or
// the rename-before-dir-fsync window — where the journal silently corrupts.
//
// Also holds the satellite regressions: ENOSPC/EIO during append must
// surface as JournalError naming the path (the old code dropped the record
// on the floor and kept going).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/checkpoint.hpp"
#include "harness/storage.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "sweep_fixtures.hpp"

namespace mtm {
namespace {

using namespace fixtures;

constexpr std::size_t kPoints = 2;
constexpr std::size_t kTrials = 4;
constexpr std::uint64_t kMaster = 400;

TEST(StorageCrashEnumeration, EveryCrashPointResumesByteIdentically) {
  // Control: the same sweep, uninterrupted, no journal.
  SweepRunner control_runner(sweep_manifest(), ResilienceOptions{});
  const SweepReport control =
      control_runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);

  // Probe: one fault-free pass through the op-counting decorator to learn
  // the total op count M of the full journaled run.
  std::uint64_t total_ops = 0;
  {
    const std::string journal = temp_path("crash_enum_probe.jsonl");
    FaultyStorage probe(default_storage(), StorageFaultConfig{});
    ResilienceOptions options;
    options.journal_path = journal;
    options.storage = &probe;
    SweepRunner runner(sweep_manifest(), options);
    const SweepReport probed =
        runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
    expect_same_results(control, probed);
    total_ops = probe.op_count();
  }
  ASSERT_GE(total_ops, 10u) << "suspiciously few storage ops to enumerate";

  // Enumerate: crash after every op prefix, materialize the durable state,
  // then resume. A journal the crash left unusable must announce itself as
  // JournalError (then a fresh run replaces it) — silence is the only
  // forbidden outcome.
  for (std::uint64_t n = 1; n <= total_ops; ++n) {
    const std::string journal =
        temp_path("crash_enum_" + std::to_string(n) + ".jsonl");
    StorageFaultConfig config;
    config.crash_after = n;
    FaultyStorage faulty(default_storage(), config);
    bool crashed = false;
    try {
      ResilienceOptions options;
      options.journal_path = journal;
      options.storage = &faulty;
      SweepRunner runner(sweep_manifest(), options);
      const SweepReport report =
          runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
      // n == total_ops: the run finishes before the crash point arms.
      expect_same_results(control, report);
    } catch (const StorageCrash&) {
      crashed = true;
    }
    if (!crashed) continue;
    faulty.materialize_crash();

    SweepReport resumed;
    try {
      ResilienceOptions options;
      options.journal_path = journal;
      options.resume = true;
      SweepRunner runner(sweep_manifest(), options);
      resumed = runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
    } catch (const JournalError&) {
      // The crash landed before the journal header became durable; the
      // leftover is diagnosably unusable, never silently wrong. Start over.
      ResilienceOptions options;
      options.journal_path = journal;
      SweepRunner runner(sweep_manifest(), options);
      resumed = runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
    }
    expect_same_results(control, resumed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "aggregates diverged after crash point " << n << " of "
             << total_ops;
    }
  }
}

std::string policy_journal(const char* policy, std::size_t points,
                           std::size_t trials) {
  return temp_path(std::string("policy_") + policy + "_" +
                   std::to_string(points) + "x" + std::to_string(trials) +
                   ".jsonl");
}

/// Runs `points` x `trials` through a fresh journaled sweep on one thread
/// under `policy`, journaling to policy_journal(...), and returns the
/// resulting storage metric `counter`.
std::uint64_t counter_after_sweep(const char* policy, std::size_t points,
                                  std::size_t trials, const char* counter) {
  const std::string journal = policy_journal(policy, points, trials);
  obs::MetricRegistry metrics;
  FaultyStorage storage(default_storage(), StorageFaultConfig{}, &metrics);
  ResilienceOptions options;
  options.journal_path = journal;
  options.storage = &storage;
  options.journal_fsync = parse_journal_fsync_policy(policy);
  SweepRunner runner(sweep_manifest(), options);
  runner.run(synthetic_points(points, trials, kMaster), 1);
  return metrics.counter(counter).value();
}

TEST(StorageCrashEnumeration, FsyncPolicyControlsAppendDurabilityCost) {
  // record fsyncs every append, batch:4 every 4th, none never; a point's
  // checkpoint fsyncs only what is still unsynced, and the header's atomic
  // write is one more fsync. The storage.fsyncs counter must reflect
  // exactly that — it is how an operator verifies the --journal-fsync knob
  // actually reached the disk.
  const auto fsyncs = [](const char* policy, std::size_t points,
                         std::size_t trials) {
    return counter_after_sweep(policy, points, trials, "storage.fsyncs");
  };
  // 2 points x 4 trials: record 1 + 8; batch:4 1 + 2, each point's 4th
  // append, which leaves its checkpoint nothing to sync; none 1 + 2, one
  // per checkpoint.
  EXPECT_EQ(fsyncs("record", kPoints, kTrials), 9u);
  EXPECT_EQ(fsyncs("batch:4", kPoints, kTrials), 3u);
  EXPECT_EQ(fsyncs("none", kPoints, kTrials), 3u);
  // 1 point x 8 trials: record 1 + 8 > batch:4 1 + 2 > none 1 + 1.
  const std::uint64_t record = fsyncs("record", 1, 8);
  const std::uint64_t batch = fsyncs("batch:4", 1, 8);
  const std::uint64_t none = fsyncs("none", 1, 8);
  EXPECT_GT(record, batch);
  EXPECT_GT(batch, none);
}

TEST(JournalDurability, FreshSweepWritesEachJournalByteOnce) {
  // A checkpoint is an fsync of the append handle, not a rewrite, so a
  // fresh sweep's storage writes are exactly the journal's final bytes: the
  // header once, then every record once.
  const std::uint64_t written =
      counter_after_sweep("batch:8", 4, 8, "storage.append_bytes");
  EXPECT_EQ(written,
            default_storage().file_size(policy_journal("batch:8", 4, 8)));
}

TEST(JournalDurability, EnospcAppendThrowsJournalErrorNamingThePath) {
  // Regression (the old TrialJournal::append dropped the record silently on
  // a full disk): appends past the byte budget must throw JournalError and
  // the message must name the journal so the operator knows which file to
  // make room for.
  const std::string journal = temp_path("enospc_regression.jsonl");
  StorageFaultConfig config;
  config.enospc_after = 4000;  // room for the header + a few records
  FaultyStorage faulty(default_storage(), config);

  TrialJournal trial_journal = TrialJournal::create(
      journal, sweep_manifest(), &faulty, parse_journal_fsync_policy("none"));
  bool threw = false;
  for (std::uint64_t t = 0; t < 1000 && !threw; ++t) {
    JournalRecord record;
    record.point = 0;
    record.trial = t;
    record.seed = trial_seed(kMaster, t);
    record.result = synthetic_result(record.seed);
    record.attempts = 1;
    try {
      trial_journal.append(record);
    } catch (const JournalError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find(journal), std::string::npos)
          << "JournalError must name the journal path: " << e.what();
    }
  }
  EXPECT_TRUE(threw) << "appends past the ENOSPC budget never failed";
}

TEST(JournalDurability, EioAppendThrowsJournalErrorNamingThePath) {
  const std::string journal = temp_path("eio_regression.jsonl");
  StorageFaultConfig config;
  config.eio = 0.999999999999;
  FaultyStorage faulty(default_storage(), config);
  // The header write goes through write_text_atomic, which reports injected
  // I/O failure as a clean create error — also loud, also named.
  try {
    TrialJournal::create(journal, sweep_manifest(), &faulty);
    FAIL() << "expected JournalError from the failed header write";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find(journal), std::string::npos);
  }
}

TEST(JournalDurability, FailedAppendPoisonsTheJournal) {
  // A torn append leaves its bytes in the file; one more record after them
  // would turn them into interior corruption, which open() refuses. So
  // after the failure the journal takes no write at all: append() and
  // checkpoint() throw JournalError naming the path without a storage op,
  // and the file still loads every record appended before the failure.
  const std::string journal = temp_path("enospc_poison.jsonl");
  StorageFaultConfig config;
  config.enospc_after = 4000;  // as in EnospcAppendThrowsJournalErrorNamingThePath
  FaultyStorage faulty(default_storage(), config);
  TrialJournal trial_journal = TrialJournal::create(
      journal, sweep_manifest(), &faulty, parse_journal_fsync_policy("none"));
  std::vector<JournalRecord> landed;
  for (std::uint64_t t = 0; t < 1000; ++t) {
    JournalRecord record;
    record.trial = t;
    record.seed = trial_seed(kMaster, t);
    record.result = synthetic_result(record.seed);
    try {
      trial_journal.append(record);
    } catch (const JournalError&) {
      break;
    }
    landed.push_back(record);
  }
  ASSERT_LT(landed.size(), 1000u) << "appends past the ENOSPC budget never failed";
  ASSERT_GT(landed.size(), 0u);

  const std::uint64_t ops = faulty.op_count();
  const auto expect_poisoned = [&](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "a poisoned journal accepted a write";
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find(journal), std::string::npos)
          << e.what();
    }
  };
  expect_poisoned([&] { trial_journal.checkpoint(); });
  expect_poisoned([&] { trial_journal.append(landed.front()); });
  EXPECT_EQ(faulty.op_count(), ops);

  const TrialJournal::Contents contents = TrialJournal::load(journal);
  ASSERT_EQ(contents.records.size(), landed.size());
  for (std::size_t i = 0; i < landed.size(); ++i) {
    EXPECT_EQ(contents.records[i].trial, landed[i].trial);
    EXPECT_EQ(contents.records[i].seed, landed[i].seed);
  }
}

/// Crash-point enumeration as in EveryCrashPointResumesByteIdentically,
/// under `policy`: a fault-free probe must make exactly `expected_ops`
/// storage ops, and a crash after each of them must resume (or, where the
/// header never became durable, restart) to the control's aggregates.
void resume_every_crash_point(const char* policy, std::uint64_t expected_ops) {
  SweepRunner control_runner(sweep_manifest(), ResilienceOptions{});
  const SweepReport control =
      control_runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
  const auto run = [&](const std::string& journal, Storage* storage,
                       bool resume) {
    ResilienceOptions options;
    options.journal_path = journal;
    options.storage = storage;
    options.resume = resume;
    options.journal_fsync = parse_journal_fsync_policy(policy);
    SweepRunner runner(sweep_manifest(), options);
    return runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
  };

  FaultyStorage probe(default_storage(), StorageFaultConfig{});
  expect_same_results(control,
                      run(temp_path(std::string("crash_probe_") + policy),
                          &probe, false));
  ASSERT_EQ(probe.op_count(), expected_ops);

  for (std::uint64_t n = 1; n < expected_ops; ++n) {
    SCOPED_TRACE("crash after op " + std::to_string(n));
    const std::string journal =
        temp_path(std::string("crash_") + policy + "_" + std::to_string(n));
    StorageFaultConfig config;
    config.crash_after = n;
    FaultyStorage faulty(default_storage(), config);
    EXPECT_THROW(run(journal, &faulty, false), StorageCrash);
    faulty.materialize_crash();
    SweepReport resumed;
    try {
      resumed = run(journal, nullptr, true);
    } catch (const JournalError&) {
      resumed = run(journal, nullptr, false);
    }
    expect_same_results(control, resumed);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(StorageCrashEnumeration, EveryCrashPointResumesUnderRecordFsync) {
  // create: temp open, write, fsync, rename, dir sync, append open (6);
  // then an append and its fsync per trial (16); checkpoints sync nothing.
  resume_every_crash_point("record", 22);
}

TEST(StorageCrashEnumeration, EveryCrashPointResumesUnderNoFsync) {
  // create (6); 4 appends and one checkpoint fsync per point (10).
  resume_every_crash_point("none", 16);
}

}  // namespace
}  // namespace mtm
