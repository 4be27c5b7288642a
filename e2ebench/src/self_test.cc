// --self-test: every correctness check the workloads use must accept a
// real output and flag the same output with one deliberate perturbation.

#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "tfb/characterization/catch22.h"
#include "tfb/characterization/features.h"
#include "tfb/datagen/registry.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/pipeline/runner.h"
#include "tfb/serve/model_store.h"
#include "tfb/serve/registry.h"
#include "tfb/serve/service.h"
#include "workloads.h"

namespace e2e {

namespace {

class SelfTest {
 public:
  /// `clean` must be empty (the check accepts the real output) and
  /// `perturbed` non-empty (it flags the perturbed one).
  void Case(const char* name, const std::string& clean,
            const std::string& perturbed) {
    const bool ok = clean.empty() && !perturbed.empty();
    std::printf("self-test %-36s %s\n", name, ok ? "ok" : "MISSED");
    if (!clean.empty()) std::printf("  clean output rejected: %s\n", clean.c_str());
    if (perturbed.empty()) std::printf("  perturbed output accepted\n");
    failures_ += ok ? 0 : 1;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

tfb::pipeline::ResultRow WithMetric(tfb::pipeline::ResultRow row,
                                    tfb::eval::Metric metric, double value) {
  row.metrics[metric] = value;
  return row;
}

}  // namespace

int RunSelfTest() {
  SelfTest t;
  tfb::datagen::UnivariateCollectionOptions gen;
  gen.scale = 0.01;
  const auto collection = tfb::datagen::GenerateUnivariateCollection(gen);
  const tfb::ts::TimeSeries& series = collection.back().series;

  // Grid rows.
  tfb::pipeline::BenchmarkTask task;
  task.dataset = series.name();
  task.series = series;
  task.method = "Drift";
  task.horizon = collection.back().horizon;
  task.rolling.max_windows = 4;
  const tfb::pipeline::ResultRow row = tfb::pipeline::BenchmarkRunner().RunOne(task);
  const double mae = row.metrics.count(tfb::eval::Metric::kMae)
                         ? row.metrics.at(tfb::eval::Metric::kMae)
                         : 0.0;
  const double mse = row.metrics.count(tfb::eval::Metric::kMse)
                         ? row.metrics.at(tfb::eval::Metric::kMse)
                         : 0.0;
  t.Case("row: mae <= sqrt(mse)", CheckRowProperties(row),
         CheckRowProperties(WithMetric(row, tfb::eval::Metric::kMae,
                                       std::sqrt(mse) * 1.001)));
  t.Case("row: finite metrics", CheckRowProperties(row),
         CheckRowProperties(WithMetric(
             row, tfb::eval::Metric::kMse,
             std::numeric_limits<double>::quiet_NaN())));
  t.Case("row: metrics >= 0", CheckRowProperties(row),
         CheckRowProperties(WithMetric(row, tfb::eval::Metric::kMae, -mae)));
  tfb::pipeline::ResultRow failed = row;
  failed.ok = false;
  failed.error = "INVALID_INPUT: perturbed";
  t.Case("row: ok", CheckRowProperties(row), CheckRowProperties(failed));
  t.Case("row: closed-form baseline",
         CheckBaseline(row, series, task.rolling, 0),
         CheckBaseline(WithMetric(row, tfb::eval::Metric::kMae, mae * (1 + 1e-8)),
                       series, task.rolling, 0));
  const std::string reference = CanonicalRows({row});
  t.Case("rows: byte-identical rounds",
         CheckRowsIdentical(reference, {row}, "round"),
         CheckRowsIdentical(
             reference,
             {WithMetric(row, tfb::eval::Metric::kMse,
                         std::nextafter(mse, 2 * mse + 1))},
             "round"));

  // Characterization vectors.
  const auto profile = tfb::characterization::Characterize(series);
  auto trend = profile;
  trend.trend = 1.25;
  t.Case("characterization: trend in [0,1]", CheckCharacteristics(profile),
         CheckCharacteristics(trend));
  auto shifting = profile;
  shifting.shifting = -0.01;
  t.Case("characterization: shifting in [0,1]", CheckCharacteristics(profile),
         CheckCharacteristics(shifting));
  const std::vector<double> column = series.Column(0);
  const Catch22Vector fused = tfb::characterization::Catch22(column);
  const Catch22Vector reference22 =
      tfb::characterization::Catch22Reference(column);
  Catch22Vector nudged = fused;
  nudged[7] = std::nextafter(nudged[7], 1e300);
  t.Case("catch22: fused == reference", CheckCatch22Equal(fused, reference22),
         CheckCatch22Equal(nudged, reference22));

  // Response bodies from a live service.
  tfb::pipeline::MethodParams params;
  params.horizon = 6;
  auto config = tfb::pipeline::MakeMethod("Theta", params);
  auto forecaster = config->factory();
  forecaster->Fit(series);
  std::vector<double> history = column;
  const std::string expected = RenderForecast(
      forecaster->Forecast(tfb::ts::TimeSeries::Univariate(history), 6));
  std::string bytes;
  tfb::serve::ModelArtifact artifact;
  if (!tfb::serve::SerializeModel(*forecaster, "Theta", params, &bytes).ok() ||
      !tfb::serve::DeserializeModel(bytes, &artifact).ok()) {
    std::printf("self-test: cannot round-trip the Theta model\n");
    return 1;
  }
  tfb::serve::ModelRegistry registry;
  if (!registry.AddModel("theta-self", std::move(artifact)).ok()) {
    std::printf("self-test: cannot register the Theta model\n");
    return 1;
  }
  tfb::serve::ForecastService service(&registry, {});
  service.Start();
  std::string body = "{\"model\":\"theta-self\",\"horizon\":6,\"history\":[";
  for (std::size_t i = 0; i < history.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", history[i]);
    body += buf;
  }
  body += "]}";
  std::promise<tfb::obs::HttpResponse> answer;
  service.Submit(body, [&answer](tfb::obs::HttpResponse r) {
    answer.set_value(std::move(r));
  });
  const tfb::obs::HttpResponse response = answer.get_future().get();
  service.Stop();
  const std::string clean = CheckResponse(response.code, response.body, 6, expected);
  t.Case("response: status 200", clean,
         CheckResponse(503, response.body, 6, expected));
  t.Case("response: requested horizon", clean,
         CheckResponse(response.code, response.body, 7, expected));
  std::string digit = response.body;
  const std::size_t at = digit.find("\"forecast\":[[");
  if (at != std::string::npos && at + 13 < digit.size()) {
    digit[at + 13] = digit[at + 13] == '1' ? '2' : '1';
  }
  t.Case("response: forecast == offline", clean,
         CheckResponse(response.code, digit, 6, expected));

  std::printf("self-test: %d check(s) missed a perturbation\n", t.failures());
  return t.failures() == 0 ? 0 : 1;
}

}  // namespace e2e
