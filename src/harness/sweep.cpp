#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "core/assert.hpp"
#include "core/thread_pool.hpp"

namespace mtm {

ScalingSeries::ScalingSeries(std::string name, std::string x_label)
    : name_(std::move(name)), x_label_(std::move(x_label)) {}

void ScalingSeries::add(SeriesPoint point) {
  MTM_REQUIRE(point.x > 0.0);
  MTM_REQUIRE(point.measured.count >= 1);
  points_.push_back(std::move(point));
}

namespace {
std::vector<double> xs_of(const std::vector<SeriesPoint>& pts) {
  std::vector<double> xs;
  xs.reserve(pts.size());
  for (const auto& p : pts) xs.push_back(p.x);
  return xs;
}
}  // namespace

LinearFit ScalingSeries::measured_exponent() const {
  std::vector<double> ys;
  ys.reserve(points_.size());
  for (const auto& p : points_) ys.push_back(p.measured.mean);
  return log_log_fit(xs_of(points_), ys);
}

LinearFit ScalingSeries::predicted_exponent() const {
  std::vector<double> ys;
  ys.reserve(points_.size());
  for (const auto& p : points_) ys.push_back(p.predicted);
  return log_log_fit(xs_of(points_), ys);
}

double ScalingSeries::mean_ratio() const {
  MTM_REQUIRE(!points_.empty());
  double sum = 0.0;
  for (const auto& p : points_) {
    MTM_REQUIRE(p.predicted > 0.0);
    sum += p.measured.mean / p.predicted;
  }
  return sum / static_cast<double>(points_.size());
}

double ScalingSeries::ratio_spread() const {
  MTM_REQUIRE(!points_.empty());
  double lo = points_.front().measured.mean / points_.front().predicted;
  double hi = lo;
  for (const auto& p : points_) {
    const double r = p.measured.mean / p.predicted;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  return hi / lo;
}

Table ScalingSeries::to_table() const {
  Table table({x_label_, "label", "trials", "mean", "median", "p95", "max",
               "paper-bound", "measured/bound"});
  for (const auto& p : points_) {
    table.row()
        .cell(p.x, p.x == static_cast<double>(static_cast<std::int64_t>(p.x))
                       ? 0
                       : 3)
        .cell(p.label.empty() ? "-" : p.label)
        .cell(p.measured.count)
        .cell(p.measured.mean, 1)
        .cell(p.measured.median, 1)
        .cell(p.measured.p95, 1)
        .cell(p.measured.max, 1)
        .cell(p.predicted, 1)
        .cell(p.measured.mean / p.predicted, 4);
  }
  return table;
}

void ScalingSeries::report() const {
  Table table = to_table();
  table.print(std::cout, name_);
  if (points_.size() >= 2) {
    const LinearFit measured = measured_exponent();
    const LinearFit predicted = predicted_exponent();
    std::cout << "   log-log growth in " << x_label_
              << ": measured exponent = " << format_double(measured.slope, 3)
              << " (r^2 " << format_double(measured.r_squared, 3)
              << "), paper-bound exponent = "
              << format_double(predicted.slope, 3) << "\n";
  }
  std::string file_name = name_;
  for (char& c : file_name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0)) c = '_';
  }
  (void)table.maybe_write_csv(file_name);
}

// ---------------------------------------------------------------------------
// SweepLedger and SweepRunner
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> SweepReport::quarantined_seeds() const {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(quarantined.size());
  for (const QuarantinedTrial& q : quarantined) seeds.push_back(q.seed);
  return seeds;
}

SweepLedger::SweepLedger(const obs::RunManifest& manifest,
                         const ResilienceOptions& options) {
  MTM_REQUIRE_MSG(!options.resume || !options.journal_path.empty(),
                  "resume requires a journal path (ResilienceOptions)");
  if (options.journal_path.empty()) return;
  journal_ = options.resume
                 ? TrialJournal::open(options.journal_path, &manifest,
                                      options.storage, options.journal_fsync)
                 : TrialJournal::create(options.journal_path, manifest,
                                        options.storage, options.journal_fsync);
}

std::vector<SweepLedger::Key> SweepLedger::start(
    const std::vector<SweepPoint>& points) {
  report_ = SweepReport{};
  filled_.assign(points.size(), {});
  point_missing_.assign(points.size(), 0);
  unfilled_ = 0;
  appended_ = false;
  for (std::size_t p = 0; p < points.size(); ++p) {
    MTM_REQUIRE(points[p].trials >= 1);
    MTM_REQUIRE(points[p].body != nullptr);
    report_.points.emplace_back(points[p].trials);
    report_.labels.push_back(points[p].label);
    filled_[p].assign(points[p].trials, 0);
    point_missing_[p] = points[p].trials;
    unfilled_ += points[p].trials;
  }
  // First wins per (point, trial): a duplicate can only come from a crashed
  // retry wave or a re-granted lease, and the first record is the one the
  // original run would have produced.
  if (journal_.has_value()) {
    for (const JournalRecord& r : journal_->records()) {
      if (r.point < filled_.size() && r.trial < filled_[r.point].size() &&
          !filled({r.point, r.trial})) {
        fill(r);
        ++report_.resumed_trials;
      }
    }
  }
  std::vector<Key> pending;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t t = 0; t < points[p].trials; ++t) {
      if (!filled({p, t})) pending.emplace_back(p, t);
    }
  }
  return pending;
}

void SweepLedger::fill(const JournalRecord& record) {
  RunResult& slot = report_.points[record.point][record.trial];
  slot = record.result;
  slot.cancelled = record.quarantined;
  filled_[record.point][record.trial] = 1;
  --point_missing_[record.point];
  --unfilled_;
  if (record.quarantined) {
    report_.quarantined.push_back(QuarantinedTrial{
        record.point, record.trial, record.seed, record.attempts});
  }
}

bool SweepLedger::accept(const JournalRecord& record) {
  MTM_REQUIRE(record.point < filled_.size() &&
              record.trial < filled_[record.point].size());
  if (filled({record.point, record.trial})) return false;
  fill(record);
  ++report_.executed_trials;
  if (record.attempts > 1) ++report_.retried_trials;
  if (journal_.has_value()) {
    journal_->append(record);
    appended_ = true;
    if (point_missing_[record.point] == 0) {
      journal_->checkpoint();
      appended_ = false;
    }
  }
  return true;
}

SweepReport SweepLedger::finish(bool interrupted) {
  if (appended_) {
    journal_->checkpoint();
    appended_ = false;
  }
  SweepReport report = std::exchange(report_, SweepReport{});
  if (journal_.has_value()) report.journal_fingerprint = journal_->fingerprint();
  std::sort(report.quarantined.begin(), report.quarantined.end(),
            [](const QuarantinedTrial& a, const QuarantinedTrial& b) {
              return std::tie(a.point, a.trial) < std::tie(b.point, b.trial);
            });
  std::size_t completed = 0;
  while (completed < point_missing_.size() && point_missing_[completed] == 0) {
    ++completed;
  }
  report.points.resize(completed);
  report.labels.resize(completed);
  report.interrupted = interrupted || completed < point_missing_.size();
  return report;
}

SweepRunner::SweepRunner(const obs::RunManifest& manifest,
                         ResilienceOptions options)
    : options_(std::move(options)), ledger_(manifest, options_) {}

namespace {

/// Exponential backoff before retry attempt `attempt` (1-based): the first
/// retry sleeps base, the k-th base << (k-1), shift-capped so a large retry
/// budget can't overflow into a zero (or absurd) sleep.
void backoff_sleep(std::uint64_t base_ms, std::uint32_t attempt) {
  if (base_ms == 0) return;
  const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 10);
  std::this_thread::sleep_for(std::chrono::milliseconds(base_ms << shift));
}

}  // namespace

JournalRecord execute_sweep_trial(const SweepPoint& point,
                                  std::uint64_t point_index,
                                  std::uint64_t trial, TrialWatchdog& watchdog,
                                  const ResilienceOptions& options,
                                  bool* interrupted) {
  JournalRecord rec;
  rec.point = point_index;
  rec.trial = trial;
  rec.seed = trial_seed(point.master_seed, trial);
  std::uint32_t attempt = 1;
  for (;;) {
    TrialWatchdog::Lease lease = watchdog.arm();
    const TrialCancel cancel{lease.token(), options.interrupt};
    RunResult r = point.body(rec.seed, &cancel);
    if (cancel.interrupted()) {
      // Incomplete by the user's hand, not the trial's: never journal it —
      // a resumed run must re-execute it in full.
      if (interrupted != nullptr) *interrupted = true;
      return rec;
    }
    const bool deadline_killed = r.cancelled;
    const bool retryable =
        deadline_killed || (!r.converged && options.retry_censored);
    if (retryable && attempt <= options.retries) {
      backoff_sleep(options.backoff_ms, attempt);
      ++attempt;
      continue;
    }
    rec.attempts = attempt;
    rec.quarantined = deadline_killed;
    rec.result = r;
    return rec;
  }
}

SweepReport SweepRunner::run(const std::vector<SweepPoint>& points,
                             std::size_t threads) {
  MTM_REQUIRE(threads >= 1);
  const std::vector<SweepLedger::Key> pending = ledger_.start(points);
  TrialWatchdog watchdog(
      WatchdogOptions{options_.trial_deadline_ms, /*poll_ms=*/5});

  // Pool threads run the trials, claiming them in canonical order across
  // point boundaries, and hand each record to this thread, the ledger's
  // only user: a checkpoint's journal-sized buffer, made on each pool
  // thread in turn, would stay resident in every thread's malloc arena.
  // Once `stop` is set (a trial was interrupted or threw, or landing one
  // threw) no more trials are claimed.
  std::mutex mutex;
  std::condition_variable handed;
  std::vector<JournalRecord> finished;  // guarded by mutex
  bool done = false;                    // guarded by mutex
  std::atomic<bool> stop{false};
  std::exception_ptr error;
  std::jthread pool([&] {
    try {
      parallel_for(threads, pending.size(), [&](std::size_t i) {
        if (stop.load(std::memory_order_relaxed)) return;
        const auto [p, t] = pending[i];
        bool interrupted = false;
        JournalRecord rec;
        try {
          rec = execute_sweep_trial(points[p], p, t, watchdog, options_,
                                    &interrupted);
        } catch (...) {
          stop.store(true, std::memory_order_relaxed);
          throw;
        }
        if (interrupted) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        std::lock_guard<std::mutex> lock(mutex);
        finished.push_back(std::move(rec));
        handed.notify_one();
      });
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    handed.notify_one();
  });
  try {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      handed.wait(lock, [&] { return done || !finished.empty(); });
      if (finished.empty()) break;
      const std::vector<JournalRecord> batch = std::exchange(finished, {});
      lock.unlock();
      for (const JournalRecord& rec : batch) ledger_.accept(rec);
      lock.lock();
    }
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    throw;
  }
  pool.join();
  if (error) std::rethrow_exception(error);
  // Nothing threw, so a stopped sweep was interrupted.
  return ledger_.finish(stop.load(std::memory_order_relaxed));
}

}  // namespace mtm
