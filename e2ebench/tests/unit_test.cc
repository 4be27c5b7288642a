// Unit tests of the benchmark's independent pieces: the closed-form
// baseline recomputation, the percentile rule and the Server-Timing
// parser. Run with `python3 e2ebench/run.py --unit-tests` (or ctest in the
// benchmark's build directory).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "tfb/datagen/registry.h"
#include "tfb/pipeline/runner.h"

namespace {

int g_failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::printf("FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b)); }

/// x_t = t for t = 0..19 under the default 7:1:2 split: train ends at 14
/// (z-score mean 6.5, population variance 16.25) and, because 20 * (0.7 +
/// 0.1) is 15.999... in floating point, the test region starts at 15, so
/// horizon 2 gives origins 15 and 17. Every baseline's error is then a
/// closed-form multiple of 1/sd.
void TestBaselinesOnALine() {
  std::vector<double> line(20);
  for (std::size_t t = 0; t < line.size(); ++t) line[t] = static_cast<double>(t);
  const tfb::ts::TimeSeries series = tfb::ts::TimeSeries::Univariate(line);
  tfb::eval::RollingOptions options;
  const double var = 16.25;
  const double sd = std::sqrt(var);

  const e2e::BaselineScore naive =
      e2e::RecomputeBaseline("Naive", series, 2, options, 0);
  EXPECT(naive.windows == 2);
  EXPECT(Near(naive.mae, 1.5 / sd));
  EXPECT(Near(naive.mse, 2.5 / var));

  const e2e::BaselineScore drift =
      e2e::RecomputeBaseline("Drift", series, 2, options, 0);
  EXPECT(drift.windows == 2);
  EXPECT(drift.mae < 1e-12 && drift.mse < 1e-24);

  const e2e::BaselineScore mean =
      e2e::RecomputeBaseline("Mean", series, 2, options, 0);
  // Origin o forecasts the mean of z_0..z_{o-1}; errors ((o+1)/2 + h)/sd.
  EXPECT(Near(mean.mae, 9.0 / sd));
  EXPECT(Near(mean.mse, 81.5 / var));

  const e2e::BaselineScore seasonal =
      e2e::RecomputeBaseline("SeasonalNaive", series, 2, options, 4);
  EXPECT(Near(seasonal.mae, 4.0 / sd));
  EXPECT(Near(seasonal.mse, 16.0 / var));

  options.max_windows = 1;
  EXPECT(e2e::RecomputeBaseline("Naive", series, 2, options, 0).windows == 1);
  // Too short to roll (length <= horizon + 8) and unknown methods.
  EXPECT(e2e::RecomputeBaseline("Naive", series, 12, options, 0).windows == 0);
  EXPECT(e2e::RecomputeBaseline("ARIMA", series, 2, options, 0).windows == 0);
}

/// The recomputation agrees with the engine on a generated multivariate
/// dataset for all four baselines.
void TestBaselinesAgreeWithEngine() {
  auto profile = tfb::datagen::FindProfile("ILI");
  EXPECT(profile.has_value());
  if (!profile) return;
  const tfb::ts::TimeSeries series = tfb::datagen::GenerateDataset(*profile, 3);
  for (const char* method : {"Naive", "SeasonalNaive", "Mean", "Drift"}) {
    tfb::pipeline::BenchmarkTask task;
    task.dataset = "ILI";
    task.series = series;
    task.method = method;
    task.horizon = 12;
    task.rolling.split = profile->split;
    task.rolling.max_windows = 4;
    const auto row = tfb::pipeline::BenchmarkRunner().RunOne(task);
    EXPECT(e2e::CheckBaseline(row, series, task.rolling, 0).empty());
    EXPECT(e2e::CheckRowProperties(row).empty());
  }
}

void TestPercentile() {
  EXPECT(e2e::Percentile({}, 50.0) == 0.0);
  EXPECT(e2e::Percentile({7.0}, 1.0) == 7.0);
  EXPECT(e2e::Percentile({7.0}, 100.0) == 7.0);
  const std::vector<double> ten = {10, 3, 7, 1, 9, 2, 8, 4, 6, 5};
  EXPECT(e2e::Percentile(ten, 50.0) == 5.0);
  EXPECT(e2e::Percentile(ten, 10.0) == 1.0);
  EXPECT(e2e::Percentile(ten, 11.0) == 2.0);
  EXPECT(e2e::Percentile(ten, 99.0) == 10.0);
  EXPECT(e2e::Percentile(ten, 100.0) == 10.0);
  // p99 of 1,000 samples leaves exactly ten above it.
  std::vector<double> thousand(1000);
  for (std::size_t i = 0; i < thousand.size(); ++i) thousand[i] = static_cast<double>(i + 1);
  EXPECT(e2e::Percentile(thousand, 99.0) == 990.0);
}

void TestServerTiming() {
  e2e::ServerTiming timing;
  EXPECT(e2e::ParseServerTiming(
      "queue;dur=0.012, linger;dur=2.001, lease;dur=0.001, "
      "forecast;dur=0.050, total;dur=2.070",
      &timing));
  EXPECT(timing.queue == 0.012 && timing.linger == 2.001 &&
         timing.lease == 0.001 && timing.forecast == 0.050 &&
         timing.total == 2.070);
  // Any order, extra whitespace, unknown entries ignored.
  EXPECT(e2e::ParseServerTiming(
      "total;dur=3,forecast;dur=1 ,  db;dur=9, lease;dur=0, linger;dur=1, "
      "queue;dur=1",
      &timing));
  EXPECT(timing.total == 3.0 && timing.lease == 0.0);
  const e2e::ServerTiming before = timing;
  EXPECT(!e2e::ParseServerTiming("", &timing));
  EXPECT(!e2e::ParseServerTiming(
      "queue;dur=1, linger;dur=1, lease;dur=1, forecast;dur=1", &timing));
  EXPECT(!e2e::ParseServerTiming(
      "queue;dur=x, linger;dur=1, lease;dur=1, forecast;dur=1, total;dur=1",
      &timing));
  EXPECT(!e2e::ParseServerTiming(
      "queue;dur=-1, linger;dur=1, lease;dur=1, forecast;dur=1, total;dur=1",
      &timing));
  EXPECT(!e2e::ParseServerTiming(
      "queue;desc=a, linger;dur=1, lease;dur=1, forecast;dur=1, total;dur=1",
      &timing));
  EXPECT(timing.total == before.total);  // untouched on failure
}

}  // namespace

int main() {
  TestBaselinesOnALine();
  TestBaselinesAgreeWithEngine();
  TestPercentile();
  TestServerTiming();
  std::printf("e2ebench_test: %s (%d failure(s))\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
