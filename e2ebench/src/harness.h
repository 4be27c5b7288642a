#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Shared plumbing of the workloads: arguments, the result line, round
// timing, resource readings and the method-layer timing decorator.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tfb/pipeline/method_registry.h"
#include "tfb/pipeline/runner.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Command-line arguments; see main.cc for the grammar.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run prints as its last line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and logs the reason to stderr (first few).
  void Fail(const std::string& reason);
  /// Fail(reason) when `reason` is non-empty.
  void Expect(const std::string& reason) {
    if (!reason.empty()) Fail(reason);
  }
  bool correct() const { return failures_ == 0; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::size_t failures_ = 0;
};

/// Largest peak resident set of this process or any child it reaped, MB.
double PeakRssMb();

/// Runs `round(i)` for i = 0, 1, ... until at least `min_rounds` rounds
/// ran and `seconds` passed since the first began; returns each round's
/// wall time. Rounds are whole: the last one may end past `seconds`.
std::vector<double> TimeRounds(double seconds, std::size_t min_rounds,
                               const std::function<void(std::size_t)>& round);

/// The second-lowest of per-round readings of one quantity (the lowest
/// when there is only one). Interference only adds time, so low readings
/// are the clean ones; skipping the very lowest drops a single lucky
/// round, such as two closed-loop clients falling out of phase and
/// sharing one linger window.
double SecondBest(std::vector<double> readings);

/// A private scratch directory under the working directory, removed with
/// everything in it when the object goes out of scope.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Method-layer accounting: time inside Fit and Forecast per method
/// family, and call counts. Safe to update from several threads.
struct MethodTimes {
  static constexpr std::size_t kFamilies = 8;
  std::array<std::atomic<std::int64_t>, kFamilies> fit_ns{};
  std::array<std::atomic<std::int64_t>, kFamilies> forecast_ns{};
  std::atomic<std::uint64_t> fit_calls{0};
  std::atomic<std::uint64_t> forecast_calls{0};

  double FitSeconds() const;
  double ForecastSeconds() const;
  /// fit.<family>.s and forecast.<family>.s of every family that ran,
  /// fit.calls, forecast.calls.
  void Publish(Report* report) const;
};

/// `task` with its candidates replaced by the registry configuration of
/// `task.method` wrapped in a decorator that charges Fit/Forecast time to
/// `times`. The parameters are resolved exactly as the runner resolves
/// them for a registry lookup, so the rows do not change.
tfb::pipeline::BenchmarkTask TimedTask(const tfb::pipeline::BenchmarkTask& task,
                                       MethodTimes* times);

/// Counter value of the process-wide obs registry (0 when absent).
double ObsCounter(const std::string& name);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
