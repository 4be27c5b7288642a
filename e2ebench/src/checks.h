#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

// Correctness checks and the independent computations behind them. Every
// check returns an empty string when the output passes and a one-line
// reason when it does not, so the workloads, the self-test mode and the
// unit tests all drive the same functions.

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tfb/characterization/catch22.h"
#include "tfb/characterization/features.h"
#include "tfb/eval/strategy.h"
#include "tfb/pipeline/runner.h"
#include "tfb/ts/time_series.h"

namespace e2e {

/// The deterministic part of a result row, one line: identity, outcome,
/// window count, selection and every metric as %.17g. Timing and resource
/// fields are left out, so equal work gives equal bytes.
std::string CanonicalRow(const tfb::pipeline::ResultRow& row);

/// CanonicalRow of every row, newline-terminated, in order.
std::string CanonicalRows(const std::vector<tfb::pipeline::ResultRow>& rows);

/// Empty when `rows` renders to exactly `reference` (a CanonicalRows text);
/// otherwise names the first differing row.
std::string CheckRowsIdentical(const std::string& reference,
                               const std::vector<tfb::pipeline::ResultRow>& rows,
                               const char* what);

/// A row must be ok, carry only finite metrics >= 0, and obey
/// MAE <= sqrt(MSE) (the power-mean inequality, which survives averaging
/// over channels and windows by Jensen).
std::string CheckRowProperties(const tfb::pipeline::ResultRow& row);

/// True for the closed-form baselines RecomputeBaseline covers.
bool IsClosedForm(const std::string& method);

/// Window-averaged MAE and MSE of a closed-form baseline.
struct BaselineScore {
  double mae = 0.0;
  double mse = 0.0;
  std::size_t windows = 0;
};

/// Recomputes Naive, SeasonalNaive, Mean or Drift on `series` from first
/// principles: the chronological split of `options.split`, a z-score fit
/// on the training rows (population deviation), forecast origins every
/// `horizon` steps from the start of the test region (capped at
/// `options.max_windows`), and per-channel MAE/MSE averaged over channels,
/// then windows. `period` is the SeasonalNaive period (0 = the series'
/// own period, else its frequency's default). windows == 0 means the
/// series cannot be evaluated.
BaselineScore RecomputeBaseline(const std::string& method,
                                const tfb::ts::TimeSeries& series,
                                std::size_t horizon,
                                const tfb::eval::RollingOptions& options,
                                std::size_t period);

/// |a - b| <= tol * max(|a|, |b|), with exact equality also accepted.
bool RelClose(double a, double b, double tol);

/// Compares a closed-form row against RecomputeBaseline to 1e-9 relative.
std::string CheckBaseline(const tfb::pipeline::ResultRow& row,
                          const tfb::ts::TimeSeries& series,
                          const tfb::eval::RollingOptions& options,
                          std::size_t period);

/// STL trend and seasonality strengths and the shifting value lie in [0,1].
std::string CheckCharacteristics(
    const tfb::characterization::Characteristics& c);

using Catch22Vector =
    std::array<double, tfb::characterization::kNumCatch22Features>;

/// Bit-for-bit equality of two catch22 vectors; any NaN equals any NaN.
std::string CheckCatch22Equal(const Catch22Vector& fused,
                              const Catch22Vector& reference);

/// The JSON text of a forecast as the serving plane renders it:
/// [[v, ...], ...], one row per step, each double as %.17g.
std::string RenderForecast(const tfb::ts::TimeSeries& forecast);

/// A /forecast response must be a 200 whose "horizon" equals `horizon` and
/// whose "forecast" member is byte-identical to `expected_forecast` (a
/// RenderForecast text).
std::string CheckResponse(int code, const std::string& body,
                          std::size_t horizon,
                          const std::string& expected_forecast);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in (0, 100]). 0 for an empty input.
double Percentile(std::vector<double> samples, double p);

/// The stage durations of one Server-Timing header, in milliseconds.
struct ServerTiming {
  double queue = 0.0;
  double linger = 0.0;
  double lease = 0.0;
  double forecast = 0.0;
  double total = 0.0;
};

/// Parses "queue;dur=A, linger;dur=B, lease;dur=C, forecast;dur=D,
/// total;dur=E" (RFC 8673 entries, any order, unknown names ignored).
/// False unless all five stages are present with finite durations >= 0.
bool ParseServerTiming(std::string_view header, ServerTiming* out);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
