// serve_mixed: the serving plane under closed-loop load.
//
// Set-up turns the library's metrics on, fits one Theta and one MLP model
// on the ETTh1 profile (as tfb_serve --demo does), registers both warm,
// and starts ForecastService plus HttpExporter on loopback with
// tfb_serve's defaults (2 ms linger, 2 dispatchers). Each round, 2 client
// threads send a fixed number of POST /forecast requests, closed loop,
// alternating the two models. No fitting happens while timed: the time
// goes to HTTP/epoll, JSON, the admission queue, linger, the registry
// lease, the metrics bookkeeping and the forecast.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "tfb/datagen/registry.h"
#include "tfb/obs/http_exporter.h"
#include "tfb/obs/metrics.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/serve/json.h"
#include "tfb/serve/model_store.h"
#include "tfb/serve/registry.h"
#include "tfb/serve/service.h"
#include "tfb/stats/rng.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kRequestsPerRound = 1000;
constexpr std::size_t kHistoriesPerModel = 32;
constexpr std::size_t kHistoryLength = 192;
constexpr std::size_t kHorizon = 24;

/// One distinct request and the forecast the service must answer with.
struct Request {
  std::size_t model = 0;  // index into Models()
  std::string body;
  std::string expected_forecast;
};

struct ModelSpec {
  const char* method;
  const char* key;
  const char* family;
};

const std::vector<ModelSpec>& Models() {
  static const std::vector<ModelSpec> models = {
      {"Theta", "theta-bench", "statistical"}, {"MLP", "mlp-bench", "mlp"}};
  return models;
}

/// What the client saw for one request.
struct Sample {
  std::size_t model = 0;
  double latency_ms = 0.0;
  bool ok = false;  // a 200 that passed CheckResponse
  ServerTiming timing;
  bool has_timing = false;
};

/// One HTTP/1.0-style exchange on a fresh loopback connection (the
/// exporter answers with Connection: close). Returns false on a transport
/// error; otherwise fills the status code, the Server-Timing header and
/// the body.
bool Post(std::uint16_t port, const std::string& body, int* code,
          std::string* server_timing, std::string* response_body) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval timeout{};
  timeout.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  const std::string request =
      "POST /forecast HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[16384];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return false;
    }
    reply.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  const std::size_t head_end = reply.find("\r\n\r\n");
  if (head_end == std::string::npos || reply.compare(0, 5, "HTTP/") != 0) {
    return false;
  }
  const std::size_t space = reply.find(' ');
  *code = std::atoi(reply.c_str() + space + 1);
  server_timing->clear();
  const std::string header = "\r\nServer-Timing: ";
  const std::size_t st = reply.find(header);
  if (st != std::string::npos && st < head_end) {
    const std::size_t from = st + header.size();
    *server_timing = reply.substr(from, reply.find("\r\n", from) - from);
  }
  *response_body = reply.substr(head_end + 4);
  return true;
}

std::string RenderBody(const std::string& key, const std::vector<double>& history) {
  std::string body = "{\"model\":\"" + key + "\",\"horizon\":" +
                     std::to_string(kHorizon) + ",\"history\":[";
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (i != 0) body += ',';
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", history[i]);
    body += buf;
  }
  body += "]}";
  return body;
}

std::vector<double> Column(const std::vector<Sample>& samples,
                           double (*get)(const Sample&),
                           bool (*keep)(const Sample&)) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (keep(s)) out.push_back(get(s));
  }
  return out;
}

}  // namespace

void RunServeMixed(const Args& args, Clock::time_point process_start,
                   Report* report) {
  // --- set-up: data, fitted models, live service ---
  // tfb_serve turns metrics collection on before it fits or serves, so the
  // per-request and per-GEMM accounting it always pays is paid here too.
  tfb::obs::SetEnabled(true);
  Clock::time_point start = Clock::now();
  const auto profile = tfb::datagen::FindProfile("ETTh1");
  if (!profile) throw std::runtime_error("ETTh1 profile missing");
  const tfb::ts::TimeSeries series =
      tfb::datagen::GenerateDataset(*profile, args.seed).Variable(0);
  const double datagen_s = SecondsSince(start);

  tfb::serve::ModelRegistry registry;
  std::vector<std::unique_ptr<tfb::methods::Forecaster>> offline;
  std::vector<double> fit_s;
  for (const ModelSpec& spec : Models()) {
    tfb::pipeline::MethodParams params;
    params.horizon = kHorizon;
    params.period = series.seasonal_period();
    params.train_epochs = 5;
    auto config = tfb::pipeline::MakeMethod(spec.method, params);
    if (!config) throw std::runtime_error(std::string("no method ") + spec.method);
    auto forecaster = config->factory();
    start = Clock::now();
    forecaster->Fit(series);
    fit_s.push_back(SecondsSince(start));
    // The served copy round-trips through the model store; the benchmark
    // keeps the original for its offline answers.
    std::string bytes;
    tfb::serve::ModelArtifact artifact;
    const tfb::base::Status saved =
        tfb::serve::SerializeModel(*forecaster, spec.method, params, &bytes);
    const tfb::base::Status loaded =
        saved.ok() ? tfb::serve::DeserializeModel(bytes, &artifact) : saved;
    const tfb::base::Status added =
        loaded.ok() ? registry.AddModel(spec.key, std::move(artifact)) : loaded;
    if (!added.ok()) throw std::runtime_error(added.message());
    offline.push_back(std::move(forecaster));
  }

  tfb::serve::ForecastService service(&registry, {});
  service.Start();
  tfb::obs::HttpExporterOptions exporter_options;
  exporter_options.run_id = "e2ebench";
  tfb::obs::HttpExporter exporter(exporter_options);
  service.InstallRoutes(&exporter);
  const tfb::base::Status started = exporter.Start();
  if (!started.ok()) throw std::runtime_error(started.message());
  const std::uint16_t port = exporter.port();
  const double setup_s = SecondsSince(process_start);

  // The requests and the answers they must get, outside the timed set-up.
  tfb::stats::Rng rng(args.seed ^ 0x5e7e5eedULL);
  std::vector<Request> requests;
  std::vector<double> offline_s(Models().size(), 0.0);
  for (std::size_t k = 0; k < kHistoriesPerModel; ++k) {
    for (std::size_t m = 0; m < Models().size(); ++m) {
      const std::size_t from =
          rng.UniformInt(series.length() - kHistoryLength + 1);
      std::vector<double> history(kHistoryLength);
      for (std::size_t t = 0; t < kHistoryLength; ++t) {
        history[t] = series.at(from + t, 0);
      }
      start = Clock::now();
      const tfb::ts::TimeSeries forecast = offline[m]->Forecast(
          tfb::ts::TimeSeries::Univariate(history), kHorizon);
      offline_s[m] += SecondsSince(start);
      requests.push_back(Request{m, RenderBody(Models()[m].key, history),
                                 RenderForecast(forecast)});
    }
  }

  // --- rounds ---
  std::vector<Sample> traced;  // every sample, traced mode only
  std::vector<double> p50s;
  std::vector<double> p99s;
  const std::vector<double> round_s = TimeRounds(
      args.seconds, 3, [&](std::size_t) {
        std::vector<Sample> samples(kRequestsPerRound);
        std::vector<std::string> errors(kClients);
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            std::string timing;
            std::string body;
            for (std::size_t i = 0; i < kRequestsPerRound / kClients; ++i) {
              // Each client alternates the models while walking the
              // histories, so the two clients together cover all of them.
              const std::size_t history = (i * kClients + c) % kHistoriesPerModel;
              const std::size_t model = (i + c) % Models().size();
              const Request& request = requests[history * Models().size() + model];
              Sample& sample = samples[i * kClients + c];
              sample.model = request.model;
              int code = 0;
              const Clock::time_point sent = Clock::now();
              const bool delivered = Post(port, request.body, &code, &timing, &body);
              sample.latency_ms = SecondsSince(sent) * 1e3;
              if (!delivered || code != 200) continue;
              const std::string wrong =
                  CheckResponse(code, body, kHorizon, request.expected_forecast);
              if (!wrong.empty()) {
                if (errors[c].empty()) errors[c] = wrong;
                continue;
              }
              sample.ok = true;
              if (args.trace) {
                sample.has_timing = ParseServerTiming(timing, &sample.timing);
              }
            }
          });
        }
        for (std::thread& t : clients) t.join();
        report->attempted += kRequestsPerRound;
        std::vector<double> latencies;
        for (const Sample& s : samples) {
          if (s.ok) latencies.push_back(s.latency_ms);
        }
        report->failed += kRequestsPerRound - latencies.size();
        for (const std::string& e : errors) report->Expect(e);
        p50s.push_back(Percentile(latencies, 50.0));
        p99s.push_back(Percentile(latencies, 99.0));
        if (args.trace) traced.insert(traced.end(), samples.begin(), samples.end());
      });
  const tfb::serve::ForecastServiceStats stats = service.Stats();
  service.Stop();
  exporter.Stop();

  const double best_s = SecondBest(round_s);
  const double ops_per_s = static_cast<double>(kRequestsPerRound) / best_s;
  if (!args.trace) {
    report->Set("setup_s", setup_s, "s");
    report->Set("ops_per_s", ops_per_s, "ops/s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  report->Set("traced.ops_per_s", ops_per_s, "ops/s");
  report->Set("req_p50_ms", SecondBest(p50s), "ms");
  report->Set("req_p99_ms", SecondBest(p99s), "ms");
  report->Set("datagen.s", datagen_s, "s");
  report->Set("datagen.points", static_cast<double>(series.length()), "count");
  for (std::size_t m = 0; m < Models().size(); ++m) {
    report->Set(std::string("fit.") + Models()[m].family + ".s", fit_s[m], "s");
    report->Set(std::string("forecast.") + Models()[m].family + ".s",
                offline_s[m], "s");
  }
  report->Set("fit.calls", static_cast<double>(Models().size()), "count");
  report->Set("forecast.calls", static_cast<double>(requests.size()), "count");

  for (const Sample& s : traced) {
    if (s.ok && !s.has_timing) {
      report->Fail("a 200 response lacks a parsable Server-Timing header");
      break;
    }
  }
  const auto timed = [](const Sample& s) { return s.ok && s.has_timing; };
  const auto p50 = [&](double (*get)(const Sample&), bool (*keep)(const Sample&)) {
    return Percentile(Column(traced, get, keep), 50.0);
  };
  report->Set("serve.queue.ms", p50([](const Sample& s) { return s.timing.queue; }, timed), "ms");
  report->Set("serve.linger.ms", p50([](const Sample& s) { return s.timing.linger; }, timed), "ms");
  report->Set("serve.lease.ms", p50([](const Sample& s) { return s.timing.lease; }, timed), "ms");
  report->Set("serve.forecast.ms", p50([](const Sample& s) { return s.timing.forecast; }, timed), "ms");
  report->Set("serve.forecast.statistical.ms",
              p50([](const Sample& s) { return s.timing.forecast; },
                  [](const Sample& s) { return s.ok && s.has_timing && s.model == 0; }),
              "ms");
  report->Set("serve.forecast.neural.ms",
              p50([](const Sample& s) { return s.timing.forecast; },
                  [](const Sample& s) { return s.ok && s.has_timing && s.model == 1; }),
              "ms");
  report->Set("http.wire.ms",
              p50([](const Sample& s) { return s.latency_ms - s.timing.total; }, timed),
              "ms");
  report->Set("serve.batch_mean",
              stats.batches > 0 ? static_cast<double>(stats.completed) /
                                      static_cast<double>(stats.batches)
                                : 0.0,
              "req/batch");

  // JSON parse cost of the request bodies, off the serving path.
  std::vector<double> parse_ms;
  for (int repeat = 0; repeat < 8; ++repeat) {
    for (const Request& request : requests) {
      tfb::serve::JsonValue doc;
      start = Clock::now();
      const tfb::base::Status parsed = tfb::serve::ParseJson(request.body, &doc);
      parse_ms.push_back(SecondsSince(start) * 1e3);
      if (!parsed.ok()) report->Fail("request body does not parse: " + parsed.message());
    }
  }
  report->Set("serve.json_parse.ms", Percentile(parse_ms, 50.0), "ms");
}

}  // namespace e2e
