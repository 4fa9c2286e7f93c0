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

TEST(StorageCrashEnumeration, FsyncPolicyControlsAppendDurabilityCost) {
  // record fsyncs every append, batch:4 every 4th, none never (only the
  // atomic header/checkpoint rewrites fsync). The storage.fsyncs counter
  // must reflect exactly that ordering — it is how an operator verifies the
  // --journal-fsync knob actually reached the disk.
  const auto fsyncs_with = [](const char* policy, const char* name) {
    obs::MetricRegistry metrics;
    FaultyStorage storage(default_storage(), StorageFaultConfig{}, &metrics);
    ResilienceOptions options;
    options.journal_path = temp_path(name);
    options.storage = &storage;
    options.journal_fsync = parse_journal_fsync_policy(policy);
    SweepRunner runner(sweep_manifest(), options);
    runner.run(synthetic_points(kPoints, kTrials, kMaster), 1);
    return metrics.counter("storage.fsyncs").value();
  };
  const std::uint64_t record = fsyncs_with("record", "policy_record.jsonl");
  const std::uint64_t batch = fsyncs_with("batch:4", "policy_batch.jsonl");
  const std::uint64_t none = fsyncs_with("none", "policy_none.jsonl");
  EXPECT_GT(record, batch);
  EXPECT_GT(batch, none);
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

}  // namespace
}  // namespace mtm
