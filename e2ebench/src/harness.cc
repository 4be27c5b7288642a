#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "tfb/obs/metrics.h"

namespace e2e {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Fail(const std::string& reason) {
  if (failures_ < 8) std::fprintf(stderr, "e2ebench: INCORRECT: %s\n", reason.c_str());
  ++failures_;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double CpuSeconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(self.ru_utime) + seconds(self.ru_stime) +
         seconds(children.ru_utime) + seconds(children.ru_stime);
}

std::vector<double> TimeRounds(double seconds, std::size_t min_rounds,
                               const std::function<void(std::size_t)>& round) {
  std::vector<double> times;
  const Clock::time_point begin = Clock::now();
  while (times.size() < min_rounds || SecondsSince(begin) < seconds) {
    const Clock::time_point start = Clock::now();
    const double cpu = CpuSeconds();
    round(times.size());
    times.push_back(SecondsSince(start));
    std::fprintf(stderr, "e2ebench: round %zu took %.4f s cpu %.4f s\n",
                 times.size(), times.back(), CpuSeconds() - cpu);
  }
  return times;
}

double SecondBest(std::vector<double> readings) {
  if (readings.empty()) return 0.0;
  std::sort(readings.begin(), readings.end());
  return readings[readings.size() > 1 ? 1 : 0];
}

ScratchDir::ScratchDir() {
  std::filesystem::create_directories(".bench_build/e2ebench-work");
  std::string pattern = ".bench_build/e2ebench-work/run-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create a scratch directory");
  }
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

double MethodTimes::FitSeconds() const {
  std::int64_t ns = 0;
  for (const auto& f : fit_ns) ns += f.load();
  return static_cast<double>(ns) * 1e-9;
}

double MethodTimes::ForecastSeconds() const {
  std::int64_t ns = 0;
  for (const auto& f : forecast_ns) ns += f.load();
  return static_cast<double>(ns) * 1e-9;
}

void MethodTimes::Publish(Report* report) const {
  for (std::size_t f = 0; f < kFamilies; ++f) {
    if (fit_ns[f].load() == 0 && forecast_ns[f].load() == 0) continue;
    const std::string family =
        tfb::pipeline::FamilyName(static_cast<tfb::pipeline::Family>(f));
    report->Set("fit." + family + ".s",
                static_cast<double>(fit_ns[f].load()) * 1e-9, "s");
    report->Set("forecast." + family + ".s",
                static_cast<double>(forecast_ns[f].load()) * 1e-9, "s");
  }
  report->Set("fit.calls", static_cast<double>(fit_calls.load()), "count");
  report->Set("forecast.calls", static_cast<double>(forecast_calls.load()),
              "count");
}

namespace {

std::int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Forwards to a registry forecaster, charging its Fit and Forecast time
/// to one family of a MethodTimes.
class TimingForecaster : public tfb::methods::Forecaster {
 public:
  TimingForecaster(std::unique_ptr<tfb::methods::Forecaster> inner,
                   std::size_t family, MethodTimes* times)
      : inner_(std::move(inner)), family_(family), times_(times) {}

  std::string name() const override { return inner_->name(); }
  void Fit(const tfb::ts::TimeSeries& train) override {
    const Clock::time_point start = Clock::now();
    inner_->Fit(train);
    times_->fit_ns[family_] += NanosSince(start);
    ++times_->fit_calls;
  }
  tfb::ts::TimeSeries Forecast(const tfb::ts::TimeSeries& history,
                               std::size_t horizon) override {
    const Clock::time_point start = Clock::now();
    tfb::ts::TimeSeries out = inner_->Forecast(history, horizon);
    times_->forecast_ns[family_] += NanosSince(start);
    ++times_->forecast_calls;
    return out;
  }
  bool RefitPerWindow() const override { return inner_->RefitPerWindow(); }
  std::size_t lookback() const override { return inner_->lookback(); }
  std::size_t fitted_channels() const override {
    return inner_->fitted_channels();
  }

 private:
  std::unique_ptr<tfb::methods::Forecaster> inner_;
  std::size_t family_;
  MethodTimes* times_;
};

}  // namespace

tfb::pipeline::BenchmarkTask TimedTask(const tfb::pipeline::BenchmarkTask& task,
                                       MethodTimes* times) {
  tfb::pipeline::MethodParams params = task.params;
  params.horizon = task.horizon;
  if (params.period == 0) params.period = task.series.seasonal_period();
  auto config = tfb::pipeline::MakeMethod(task.method, params);
  const auto family = tfb::pipeline::MethodFamily(task.method);
  if (!config || !family) {
    throw std::runtime_error("unknown method " + task.method);
  }
  const auto index = static_cast<std::size_t>(*family);
  tfb::pipeline::BenchmarkTask timed = task;
  timed.custom_candidates = {tfb::methods::MethodConfig{
      config->name, [factory = config->factory, index, times] {
        return std::make_unique<TimingForecaster>(factory(), index, times);
      }}};
  return timed;
}

double ObsCounter(const std::string& name) {
  return tfb::obs::DefaultRegistry().GetCounter(name).Value();
}

}  // namespace e2e
