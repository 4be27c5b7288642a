// univariate_sharded: the Table 6 shape through the sharded engine.
//
// Set-up generates the univariate collection at the paper's full count
// (8,068 series), characterizes every series (CharacterizeBatch and
// catch22), and picks a seeded subset of about 100 series stratified by
// frequency and length. Each round runs subset x 10 statistical, ML and
// light-linear methods (~1,000 millisecond-scale tasks) through
// ShardCoordinator with 2 socketpair workers and a fresh journal.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "tfb/characterization/catch22.h"
#include "tfb/characterization/features.h"
#include "tfb/datagen/registry.h"
#include "tfb/obs/metrics.h"
#include "tfb/parallel/thread_pool.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/shard.h"
#include "tfb/pipeline/wire.h"
#include "tfb/stats/rng.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr std::size_t kSubsetSize = 100;
constexpr std::size_t kCatch22Sample = 64;
constexpr std::size_t kWorkers = 2;

/// Seven statistical methods (the closed-form four plus Theta, ETS and
/// ARIMA), one ML and two light-linear ones. KalmanFilter is left out: on
/// this subset it alone costs twice the other nine together, and a round
/// that long leaves too few rounds for best-of-rounds timing.
/// Listed from the most to the least costly on this subset.
const std::vector<std::string>& UnivariateMethods() {
  static const std::vector<std::string> methods = {
      "ARIMA", "DLinear", "NLinear", "ETS", "LinearRegression",
      "Theta", "SeasonalNaive", "Drift", "Mean", "Naive"};
  return methods;
}

std::size_t MethodRank(const std::string& method) {
  const auto& methods = UnivariateMethods();
  return static_cast<std::size_t>(
      std::find(methods.begin(), methods.end(), method) - methods.begin());
}

/// The rolling protocol of the subset: 7:1:2 split, z-score, MAE and MSE,
/// at most two windows. The fixed protocol of Table 6 (one window) cannot
/// run through the engine (the runner always rolls), so the subset rolls
/// as little as it can while still refitting once.
tfb::eval::RollingOptions SubsetRolling() {
  tfb::eval::RollingOptions options;
  options.split = tfb::ts::SplitRatio::Ratio712();
  options.metrics = {tfb::eval::Metric::kMae, tfb::eval::Metric::kMse};
  options.max_windows = 2;
  return options;
}

/// True when the rolling evaluator can score `entry`: its test region
/// holds at least one horizon.
bool Evaluable(const tfb::datagen::UnivariateEntry& entry,
               const tfb::eval::RollingOptions& options) {
  const std::size_t len = entry.series.length();
  const auto& r = options.split;
  const auto test_start = static_cast<std::size_t>(
      std::floor(len * (r.train + r.val) / (r.train + r.val + r.test)));
  return len > entry.horizon + 8 && test_start + entry.horizon <= len;
}

/// Per frequency, in Table 4 order: the evaluable series sorted by length,
/// cut into equal strata, one seeded pick per stratum. Counts follow the
/// Table 4 shares of kSubsetSize, so every seed draws the same make-up.
std::vector<std::size_t> SelectSubset(
    const std::vector<tfb::datagen::UnivariateEntry>& collection,
    const tfb::eval::RollingOptions& options, std::uint64_t seed) {
  tfb::stats::Rng rng(seed ^ 0x5eedc0deULL);
  std::size_t paper_total = 0;
  for (const auto& info : tfb::datagen::UnivariateFrequencyTable()) {
    paper_total += info.paper_count;
  }
  std::vector<std::size_t> picked;
  for (const auto& info : tfb::datagen::UnivariateFrequencyTable()) {
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < collection.size(); ++i) {
      if (collection[i].series.frequency() == info.frequency &&
          Evaluable(collection[i], options)) {
        pool.push_back(i);
      }
    }
    std::stable_sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
      return collection[a].series.length() < collection[b].series.length();
    });
    const std::size_t want = std::min<std::size_t>(
        pool.size(), static_cast<std::size_t>(std::llround(
                         static_cast<double>(kSubsetSize * info.paper_count) /
                         static_cast<double>(paper_total))));
    for (std::size_t s = 0; s < want; ++s) {
      const std::size_t lo = s * pool.size() / want;
      const std::size_t hi = (s + 1) * pool.size() / want;
      picked.push_back(pool[lo + rng.UniformInt(hi - lo)]);
    }
  }
  return picked;
}

std::uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                      : 0;
}

/// Checks every round of the grid. The first round's rows are checked
/// against the row properties and, for the closed-form baselines, against
/// RecomputeBaseline; every later round must reproduce the first round's
/// canonical rows byte for byte.
class GridRounds {
 public:
  GridRounds(const std::vector<tfb::pipeline::BenchmarkTask>& tasks,
             Report* report)
      : tasks_(tasks), report_(report) {}

  void Add(const std::vector<tfb::pipeline::ResultRow>& rows) {
    report_->attempted += tasks_.size();
    if (rows.size() != tasks_.size()) {
      report_->Fail("grid returned " + std::to_string(rows.size()) +
                    " rows for " + std::to_string(tasks_.size()) + " tasks");
      report_->failed += tasks_.size();
      return;
    }
    for (const auto& row : rows) {
      if (!row.ok) ++report_->failed;
    }
    if (!reference_.empty()) {
      report_->Expect(CheckRowsIdentical(reference_, rows, "repeated round"));
      return;
    }
    reference_ = CanonicalRows(rows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& task = tasks_[i];
      report_->Expect(CheckRowProperties(rows[i]));
      if (IsClosedForm(task.method)) {
        report_->Expect(CheckBaseline(rows[i], task.series, task.rolling,
                                      task.params.period));
      }
    }
  }

  /// CanonicalRows of the first round.
  const std::string& reference() const { return reference_; }

  /// Tasks per second of the SecondBest round.
  double OpsPerSecond(const std::vector<double>& round_seconds) const {
    return static_cast<double>(tasks_.size()) / SecondBest(round_seconds);
  }

 private:
  const std::vector<tfb::pipeline::BenchmarkTask>& tasks_;
  Report* report_;
  std::string reference_;
};

/// TimedTask of every task, all charging `times`.
std::vector<tfb::pipeline::BenchmarkTask> TimedTasks(
    const std::vector<tfb::pipeline::BenchmarkTask>& tasks, MethodTimes* times) {
  std::vector<tfb::pipeline::BenchmarkTask> timed;
  timed.reserve(tasks.size());
  for (const auto& task : tasks) timed.push_back(TimedTask(task, times));
  return timed;
}

/// The traced per-task passes: every task run once, in order, on the
/// calling thread. The first pass wraps each method in the timing
/// decorator and publishes task.s, runner.self.s and the method-layer
/// metrics. The second turns the library's obs counters on, whose
/// per-call bookkeeping would inflate the first pass's times, and
/// publishes the GEMM counters. Both passes' rows must equal `reference`.
void RunLayerPasses(const std::vector<tfb::pipeline::BenchmarkTask>& tasks,
                    const std::string& reference, Report* report) {
  const tfb::pipeline::BenchmarkRunner runner;
  MethodTimes times;
  std::vector<tfb::pipeline::ResultRow> rows;
  rows.reserve(tasks.size());
  double task_s = 0.0;
  for (const auto& task : TimedTasks(tasks, &times)) {
    const Clock::time_point start = Clock::now();
    rows.push_back(runner.RunOne(task));
    task_s += SecondsSince(start);
  }
  report->Expect(CheckRowsIdentical(reference, rows, "decorated pass"));
  report->Set("task.s", task_s, "s");
  report->Set("runner.self.s",
              task_s - times.FitSeconds() - times.ForecastSeconds(), "s");
  times.Publish(report);

  tfb::obs::SetEnabled(true);
  const double gemm_calls = ObsCounter("tfb_kernel_gemm_calls_total");
  const double gemm_flops = ObsCounter("tfb_kernel_gemm_flops_total");
  rows.clear();
  for (const auto& task : tasks) rows.push_back(runner.RunOne(task));
  report->Set("gemm.calls",
              ObsCounter("tfb_kernel_gemm_calls_total") - gemm_calls, "count");
  report->Set("gemm.flops",
              ObsCounter("tfb_kernel_gemm_flops_total") - gemm_flops, "flop");
  tfb::obs::SetEnabled(false);
  report->Expect(CheckRowsIdentical(reference, rows, "counted pass"));
}

}  // namespace

void RunUnivariateSharded(const Args& args, Clock::time_point process_start,
                          Report* report) {
  // --- datagen ---
  Clock::time_point start = Clock::now();
  tfb::datagen::UnivariateCollectionOptions gen;
  gen.scale = 1.0;
  gen.seed = args.seed;
  const std::vector<tfb::datagen::UnivariateEntry> collection =
      tfb::datagen::GenerateUnivariateCollection(gen);
  const double datagen_s = SecondsSince(start);
  std::vector<tfb::ts::TimeSeries> all;
  all.reserve(collection.size());
  double points = 0.0;
  for (const auto& entry : collection) {
    all.push_back(entry.series);
    points += static_cast<double>(entry.series.length());
  }

  // --- characterization ---
  start = Clock::now();
  const std::vector<tfb::characterization::Characteristics> profiles =
      tfb::characterization::CharacterizeBatch(all);
  const double characterize_s = SecondsSince(start);
  start = Clock::now();
  std::vector<Catch22Vector> catch22(all.size());
  tfb::parallel::ThreadPool::Default().ParallelFor(
      0, all.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          catch22[i] = tfb::characterization::Catch22(all[i].Column(0));
        }
      });
  const double catch22_s = SecondsSince(start);

  // --- the grid ---
  const tfb::eval::RollingOptions rolling = SubsetRolling();
  std::vector<tfb::pipeline::BenchmarkTask> tasks;
  for (const std::size_t i : SelectSubset(collection, rolling, args.seed)) {
    for (const std::string& method : UnivariateMethods()) {
      tfb::pipeline::BenchmarkTask task;
      task.dataset = collection[i].series.name();
      task.series = collection[i].series;
      task.method = method;
      task.horizon = collection[i].horizon;
      task.params.horizon = task.horizon;
      task.params.train_epochs = 5;
      task.rolling = rolling;
      tasks.push_back(std::move(task));
    }
  }
  // Heaviest first (the method order above is roughly by cost, longest
  // series first within a method): the last shards then hold the cheapest
  // tasks, so the round does not hinge on which worker draws a heavy one.
  std::stable_sort(tasks.begin(), tasks.end(), [](const auto& a, const auto& b) {
    return a.series.length() > b.series.length();
  });
  std::stable_sort(tasks.begin(), tasks.end(), [](const auto& a, const auto& b) {
    return MethodRank(a.method) < MethodRank(b.method);
  });
  const double setup_s = SecondsSince(process_start);

  // The set-up's outputs are checked outside its timed window.
  for (const auto& profile : profiles) {
    report->Expect(CheckCharacteristics(profile));
  }
  tfb::stats::Rng sample_rng(args.seed ^ 0xca7c22ULL);
  for (std::size_t k = 0; k < kCatch22Sample; ++k) {
    const std::size_t i = sample_rng.UniformInt(all.size());
    report->Expect(CheckCatch22Equal(
        catch22[i],
        tfb::characterization::Catch22Reference(all[i].Column(0))));
  }

  // Traced rounds carry the timing decorator (forked workers inherit it);
  // its readings there are discarded, only its cost shows.
  MethodTimes round_times;
  const std::vector<tfb::pipeline::BenchmarkTask> timed =
      args.trace ? TimedTasks(tasks, &round_times)
                 : std::vector<tfb::pipeline::BenchmarkTask>();
  const auto& round_tasks = args.trace ? timed : tasks;
  ScratchDir scratch;
  GridRounds grid(tasks, report);
  tfb::pipeline::ShardRunStats last_stats;
  const std::vector<double> round_s =
      TimeRounds(args.seconds, 3, [&](std::size_t round) {
        tfb::pipeline::RunnerOptions runner;
        runner.journal_path =
            scratch.path() + "/round" + std::to_string(round) + ".jsonl";
        tfb::pipeline::ShardOptions shard;
        shard.num_workers = kWorkers;
        tfb::pipeline::ShardCoordinator coordinator(runner, shard);
        grid.Add(coordinator.Run(round_tasks));
        last_stats = coordinator.stats();
        std::filesystem::remove(runner.journal_path);
      });
  if (!args.trace) {
    report->Set("setup_s", setup_s, "s");
    report->Set("ops_per_s", grid.OpsPerSecond(round_s), "ops/s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  report->Set("traced.ops_per_s", grid.OpsPerSecond(round_s), "ops/s");
  report->Set("datagen.s", datagen_s, "s");
  report->Set("datagen.points", points, "count");
  report->Set("characterize.s", characterize_s, "s");
  report->Set("catch22.s", catch22_s, "s");
  report->Set("characterize.series", static_cast<double>(all.size()), "count");
  report->Set("shard.dispatched",
              static_cast<double>(last_stats.shards_dispatched), "count");
  report->Set("shard.workers_spawned",
              static_cast<double>(last_stats.workers_spawned), "count");

  // The same tasks in-process at the same parallelism: the difference is
  // what sharding (fork, wire, journal, coordination) costs.
  tfb::pipeline::RunnerOptions in_process;
  in_process.num_threads = kWorkers;
  start = Clock::now();
  const std::vector<tfb::pipeline::ResultRow> rows =
      tfb::pipeline::BenchmarkRunner(in_process).Run(round_tasks);
  report->Set("shard.overhead.s", SecondBest(round_s) - SecondsSince(start), "s");
  report->Expect(
      CheckRowsIdentical(grid.reference(), rows, "in-process vs sharded"));

  double wire_bytes = 0.0;
  for (const auto& task : tasks) {
    wire_bytes += static_cast<double>(tfb::pipeline::SerializeTask(task).size());
  }
  report->Set("wire.task_bytes", wire_bytes, "bytes");

  const std::string journal = scratch.path() + "/append.jsonl";
  start = Clock::now();
  for (const auto& row : rows) {
    if (!tfb::pipeline::AppendJournal(journal, row)) {
      report->Fail("cannot append to " + journal);
      break;
    }
  }
  report->Set("journal.append.s", SecondsSince(start), "s");
  report->Set("journal.rows", static_cast<double>(rows.size()), "count");
  report->Set("journal.bytes", static_cast<double>(FileSize(journal)), "bytes");

  RunLayerPasses(tasks, grid.reference(), report);
}

}  // namespace e2e
