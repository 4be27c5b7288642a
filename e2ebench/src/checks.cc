#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace e2e {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Seasonal period of a frequency when the series carries none; the table
/// of Section 4 of the paper (monthly 12, hourly 24, ...).
std::size_t FrequencyPeriod(tfb::ts::Frequency f) {
  using tfb::ts::Frequency;
  switch (f) {
    case Frequency::kQuarterly: return 4;
    case Frequency::kMonthly: return 12;
    case Frequency::kWeekly: return 52;
    case Frequency::kDaily: return 7;
    case Frequency::kHourly: return 24;
    case Frequency::kMinutes30: return 48;
    case Frequency::kMinutes15: return 96;
    case Frequency::kMinutes10: return 144;
    case Frequency::kMinutes5: return 288;
    default: return 1;
  }
}

}  // namespace

std::string CanonicalRow(const tfb::pipeline::ResultRow& row) {
  std::ostringstream os;
  os << row.dataset << '|' << row.method << '|' << row.horizon << '|'
     << (row.ok ? "ok" : "failed") << '|' << row.error << '|'
     << row.num_windows << '|' << row.selected_config << '|' << row.note
     << '|' << (row.used_fallback ? "fallback" : "primary") << '|'
     << row.attempts;
  for (const auto& [metric, value] : row.metrics) {
    os << '|' << tfb::eval::MetricName(metric) << '=' << FormatDouble(value);
  }
  return os.str();
}

std::string CanonicalRows(const std::vector<tfb::pipeline::ResultRow>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += CanonicalRow(row);
    out += '\n';
  }
  return out;
}

std::string CheckRowsIdentical(const std::string& reference,
                               const std::vector<tfb::pipeline::ResultRow>& rows,
                               const char* what) {
  const std::string text = CanonicalRows(rows);
  if (text == reference) return {};
  std::istringstream want(reference);
  std::istringstream got(text);
  std::string a;
  std::string b;
  for (std::size_t i = 0;; ++i) {
    const bool has_a = static_cast<bool>(std::getline(want, a));
    const bool has_b = static_cast<bool>(std::getline(got, b));
    if (!has_a || !has_b || a != b) {
      return std::string(what) + ": row " + std::to_string(i) +
             " differs: expected [" + (has_a ? a : "<none>") + "] got [" +
             (has_b ? b : "<none>") + "]";
    }
  }
}

std::string CheckRowProperties(const tfb::pipeline::ResultRow& row) {
  const std::string id = row.dataset + "/" + row.method + "/h" +
                         std::to_string(row.horizon) + ": ";
  if (!row.ok) return id + "row failed: " + row.error;
  for (const auto& [metric, value] : row.metrics) {
    if (!std::isfinite(value) || value < 0.0) {
      return id + tfb::eval::MetricName(metric) + " = " + FormatDouble(value) +
             " is not a finite value >= 0";
    }
  }
  const auto mae = row.metrics.find(tfb::eval::Metric::kMae);
  const auto mse = row.metrics.find(tfb::eval::Metric::kMse);
  if (mae == row.metrics.end() || mse == row.metrics.end()) {
    return id + "row lacks mae or mse";
  }
  const double root = std::sqrt(mse->second);
  if (mae->second > root * (1.0 + 1e-12)) {
    return id + "mae " + FormatDouble(mae->second) + " > sqrt(mse) " +
           FormatDouble(root);
  }
  return {};
}

bool IsClosedForm(const std::string& method) {
  return method == "Naive" || method == "SeasonalNaive" || method == "Mean" ||
         method == "Drift";
}

BaselineScore RecomputeBaseline(const std::string& method,
                                const tfb::ts::TimeSeries& series,
                                std::size_t horizon,
                                const tfb::eval::RollingOptions& options,
                                std::size_t period) {
  BaselineScore score;
  const std::size_t len = series.length();
  const std::size_t channels = series.num_variables();
  if (horizon == 0 || channels == 0 || len <= horizon + 8) return score;
  const tfb::ts::SplitRatio& ratio = options.split;
  const double total = ratio.train + ratio.val + ratio.test;
  const auto train_end =
      static_cast<std::size_t>(std::floor(len * ratio.train / total));
  const auto test_start = static_cast<std::size_t>(
      std::floor(len * (ratio.train + ratio.val) / total));
  if (train_end == 0 || test_start + horizon > len) return score;

  // z-score fit on the training rows only.
  std::vector<double> x(len * channels);
  for (std::size_t v = 0; v < channels; ++v) {
    double sum = 0.0;
    for (std::size_t t = 0; t < train_end; ++t) sum += series.at(t, v);
    const double mean = sum / static_cast<double>(train_end);
    double ss = 0.0;
    for (std::size_t t = 0; t < train_end; ++t) {
      const double d = series.at(t, v) - mean;
      ss += d * d;
    }
    const double sd = std::sqrt(ss / static_cast<double>(train_end));
    const double scale = sd > 1e-12 ? sd : 1.0;
    for (std::size_t t = 0; t < len; ++t) {
      x[t * channels + v] = (series.at(t, v) - mean) / scale;
    }
  }

  std::size_t p = period;
  if (p == 0) p = series.seasonal_period();
  if (p == 0) p = FrequencyPeriod(series.frequency());

  double mae_sum = 0.0;
  double mse_sum = 0.0;
  std::vector<double> forecast(horizon);
  for (std::size_t origin = test_start; origin + horizon <= len;
       origin += horizon) {
    if (options.max_windows > 0 && score.windows == options.max_windows) break;
    double mae_window = 0.0;
    double mse_window = 0.0;
    for (std::size_t v = 0; v < channels; ++v) {
      const auto at = [&](std::size_t t) { return x[t * channels + v]; };
      const double last = at(origin - 1);
      if (method == "Naive") {
        std::fill(forecast.begin(), forecast.end(), last);
      } else if (method == "SeasonalNaive") {
        const std::size_t q = p <= origin ? p : 1;
        for (std::size_t h = 0; h < horizon; ++h) {
          forecast[h] = at(origin - q + h % q);
        }
      } else if (method == "Mean") {
        double sum = 0.0;
        for (std::size_t t = 0; t < origin; ++t) sum += at(t);
        std::fill(forecast.begin(), forecast.end(),
                  sum / static_cast<double>(origin));
      } else if (method == "Drift") {
        const double slope =
            origin > 1 ? (last - at(0)) / static_cast<double>(origin - 1) : 0.0;
        for (std::size_t h = 0; h < horizon; ++h) {
          forecast[h] = last + slope * static_cast<double>(h + 1);
        }
      } else {
        return BaselineScore{};
      }
      double abs_sum = 0.0;
      double sq_sum = 0.0;
      for (std::size_t h = 0; h < horizon; ++h) {
        const double d = forecast[h] - at(origin + h);
        abs_sum += std::fabs(d);
        sq_sum += d * d;
      }
      mae_window += abs_sum / static_cast<double>(horizon);
      mse_window += sq_sum / static_cast<double>(horizon);
    }
    mae_sum += mae_window / static_cast<double>(channels);
    mse_sum += mse_window / static_cast<double>(channels);
    ++score.windows;
  }
  if (score.windows > 0) {
    score.mae = mae_sum / static_cast<double>(score.windows);
    score.mse = mse_sum / static_cast<double>(score.windows);
  }
  return score;
}

bool RelClose(double a, double b, double tol) {
  if (a == b) return true;
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

std::string CheckBaseline(const tfb::pipeline::ResultRow& row,
                          const tfb::ts::TimeSeries& series,
                          const tfb::eval::RollingOptions& options,
                          std::size_t period) {
  const std::string id = row.dataset + "/" + row.method + "/h" +
                         std::to_string(row.horizon) + ": ";
  const BaselineScore want =
      RecomputeBaseline(row.method, series, row.horizon, options, period);
  if (want.windows == 0) return id + "baseline cannot be recomputed";
  if (row.num_windows != want.windows) {
    return id + "windows " + std::to_string(row.num_windows) + " != " +
           std::to_string(want.windows);
  }
  const auto mae = row.metrics.find(tfb::eval::Metric::kMae);
  const auto mse = row.metrics.find(tfb::eval::Metric::kMse);
  if (mae == row.metrics.end() || mse == row.metrics.end()) {
    return id + "row lacks mae or mse";
  }
  if (!RelClose(mae->second, want.mae, 1e-9)) {
    return id + "mae " + FormatDouble(mae->second) + " != recomputed " +
           FormatDouble(want.mae);
  }
  if (!RelClose(mse->second, want.mse, 1e-9)) {
    return id + "mse " + FormatDouble(mse->second) + " != recomputed " +
           FormatDouble(want.mse);
  }
  return {};
}

std::string CheckCharacteristics(
    const tfb::characterization::Characteristics& c) {
  const struct {
    const char* name;
    double value;
  } fields[] = {{"trend", c.trend},
                {"seasonality", c.seasonality},
                {"shifting", c.shifting}};
  for (const auto& f : fields) {
    if (!(f.value >= 0.0 && f.value <= 1.0)) {
      return std::string(f.name) + " = " + FormatDouble(f.value) +
             " lies outside [0, 1]";
    }
  }
  return {};
}

std::string CheckCatch22Equal(const Catch22Vector& fused,
                              const Catch22Vector& reference) {
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const bool nan_a = std::isnan(fused[i]);
    const bool nan_b = std::isnan(reference[i]);
    if (nan_a && nan_b) continue;
    if (nan_a != nan_b || std::bit_cast<std::uint64_t>(fused[i]) !=
                              std::bit_cast<std::uint64_t>(reference[i])) {
      return "catch22 feature " +
             tfb::characterization::Catch22FeatureNames()[i] + ": fused " +
             FormatDouble(fused[i]) + " != reference " +
             FormatDouble(reference[i]);
    }
  }
  return {};
}

std::string RenderForecast(const tfb::ts::TimeSeries& forecast) {
  std::string out = "[";
  for (std::size_t t = 0; t < forecast.length(); ++t) {
    if (t != 0) out += ',';
    out += '[';
    for (std::size_t v = 0; v < forecast.num_variables(); ++v) {
      if (v != 0) out += ',';
      out += FormatDouble(forecast.at(t, v));
    }
    out += ']';
  }
  out += ']';
  return out;
}

std::string CheckResponse(int code, const std::string& body,
                          std::size_t horizon,
                          const std::string& expected_forecast) {
  if (code != 200) {
    return "status " + std::to_string(code) + ": " + body.substr(0, 120);
  }
  const std::string horizon_key = "\"horizon\":";
  const std::size_t h = body.find(horizon_key);
  if (h == std::string::npos) return "response lacks \"horizon\"";
  char* end = nullptr;
  const unsigned long long got =
      std::strtoull(body.c_str() + h + horizon_key.size(), &end, 10);
  if (end == body.c_str() + h + horizon_key.size() || got != horizon) {
    return "response horizon " + std::to_string(got) + " != requested " +
           std::to_string(horizon);
  }
  const std::string forecast_key = "\"forecast\":";
  const std::size_t f = body.find(forecast_key);
  if (f == std::string::npos) return "response lacks \"forecast\"";
  const std::size_t begin = f + forecast_key.size();
  if (body.compare(begin, expected_forecast.size(), expected_forecast) != 0 ||
      body.compare(begin + expected_forecast.size(), std::string::npos,
                   "}\n") != 0) {
    return "forecast differs from the offline Forecast(): " +
           body.substr(begin, 80);
  }
  return {};
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

bool ParseServerTiming(std::string_view header, ServerTiming* out) {
  ServerTiming timing;
  unsigned seen = 0;
  while (!header.empty()) {
    const std::size_t comma = header.find(',');
    std::string_view entry = header.substr(0, comma);
    header = comma == std::string_view::npos ? std::string_view()
                                             : header.substr(comma + 1);
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    const std::size_t semi = entry.find(';');
    if (semi == std::string_view::npos) continue;
    const std::string_view name = entry.substr(0, semi);
    std::string_view param = entry.substr(semi + 1);
    while (!param.empty() && param.front() == ' ') param.remove_prefix(1);
    if (param.substr(0, 4) != "dur=") return false;
    const std::string number(param.substr(4));
    char* end = nullptr;
    const double value = std::strtod(number.c_str(), &end);
    if (number.empty() || end != number.c_str() + number.size() ||
        !std::isfinite(value) || value < 0.0) {
      return false;
    }
    const struct {
      const char* name;
      double* slot;
      unsigned bit;
    } stages[] = {{"queue", &timing.queue, 1},
                  {"linger", &timing.linger, 2},
                  {"lease", &timing.lease, 4},
                  {"forecast", &timing.forecast, 8},
                  {"total", &timing.total, 16}};
    for (const auto& stage : stages) {
      if (name == stage.name) {
        *stage.slot = value;
        seen |= stage.bit;
      }
    }
  }
  if (seen != 31) return false;
  *out = timing;
  return true;
}

}  // namespace e2e
