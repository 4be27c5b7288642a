// Serving-plane tests: the JSON parser, the warm LRU model registry
// (versioned keys, eviction, warm exemption), and the end-to-end HTTP
// path — concurrent POST /forecast batching with byte-exact agreement
// against offline Forecast(), coalescing and queue-full shedding behind a
// held model lease, tfb_serve_* metrics in /metrics and /status,
// 429 + Retry-After shedding under a held coarse reservation, and the
// exporter's 404/405+Allow/431 error satellites.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tfb/obs/http_exporter.h"
#include "tfb/obs/metrics.h"
#include "tfb/parallel/thread_pool.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/serve/json.h"
#include "tfb/serve/model_store.h"
#include "tfb/serve/registry.h"
#include "tfb/serve/service.h"
#include "tfb/stats/rng.h"

namespace tfb::serve {
namespace {

// ---------------------------------------------------------------------------
// JSON parser.
// ---------------------------------------------------------------------------

TEST(ServeJsonTest, ParsesNestedDocument) {
  JsonValue doc;
  ASSERT_TRUE(ParseJson(
                  R"({"model":"theta@2","horizon":8,"nested":[[1,2],[3,4]],)"
                  R"("flag":true,"nothing":null,"neg":-1.5e-3})",
                  &doc)
                  .ok());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("model")->string, "theta@2");
  EXPECT_EQ(doc.Find("horizon")->number, 8.0);
  const JsonValue* nested = doc.Find("nested");
  ASSERT_TRUE(nested->is_array());
  ASSERT_EQ(nested->array.size(), 2u);
  EXPECT_EQ(nested->array[1].array[0].number, 3.0);
  EXPECT_TRUE(doc.Find("flag")->boolean);
  EXPECT_TRUE(doc.Find("nothing")->is_null());
  EXPECT_DOUBLE_EQ(doc.Find("neg")->number, -1.5e-3);
  EXPECT_EQ(doc.Find("absent"), nullptr);
}

TEST(ServeJsonTest, DecodesStringEscapes) {
  JsonValue doc;
  ASSERT_TRUE(ParseJson(R"(["a\"b\\c\n\t", "éA"])", &doc).ok());
  EXPECT_EQ(doc.array[0].string, "a\"b\\c\n\t");
  EXPECT_EQ(doc.array[1].string, "\xc3\xa9"
                                 "A");  // é as UTF-8.
  // \u escapes decode to UTF-8 bytes.
  JsonValue esc;
  ASSERT_TRUE(ParseJson("[\"\\u00e9A\"]", &esc).ok());
  EXPECT_EQ(esc.array[0].string, "\xc3\xa9"
                                 "A");
}

TEST(ServeJsonTest, RejectsMalformedInputWithOffset) {
  const char* bad[] = {"",      "{",        "[1,]",      "{\"a\":}",
                       "tru",   "1 2",      "\"unterm",  "{\"a\" 1}",
                       "[1e999]", "nan",    "'single'",  "{1:2}"};
  for (const char* text : bad) {
    JsonValue doc;
    const base::Status status = ParseJson(text, &doc);
    EXPECT_FALSE(status.ok()) << text;
    EXPECT_EQ(status.code(), base::StatusCode::kInvalidInput) << text;
  }
}

TEST(ServeJsonTest, BoundsRecursionDepth) {
  const std::string deep(2000, '[');
  JsonValue doc;
  EXPECT_FALSE(ParseJson(deep, &doc).ok());  // Must not overflow the stack.
}

TEST(ServeJsonTest, DoubleFormattingRoundTripsExactly) {
  const double values[] = {0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0,
                           123456.789012345678, -0.0};
  for (const double value : values) {
    std::string text;
    AppendJsonDouble(&text, value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  std::string non_finite;
  AppendJsonDouble(&non_finite, std::nan(""));
  EXPECT_EQ(non_finite, "null");
}

// ---------------------------------------------------------------------------
// Model registry: versioned keys + LRU.
// ---------------------------------------------------------------------------

ts::TimeSeries TinySeries(std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix m(120, 1);
  for (std::size_t t = 0; t < 120; ++t) {
    m(t, 0) = std::sin(2.0 * M_PI * t / 12.0) + rng.Gaussian(0.0, 0.1);
  }
  ts::TimeSeries s{std::move(m)};
  s.set_seasonal_period(12);
  return s;
}

ModelArtifact FitArtifact(const std::string& method, std::size_t horizon,
                          std::uint64_t seed) {
  pipeline::MethodParams params;
  params.horizon = horizon;
  auto config = pipeline::MakeMethod(method, params);
  EXPECT_TRUE(config.has_value()) << method;
  ModelArtifact artifact;
  artifact.method = method;
  artifact.params = params;
  artifact.forecaster = config->factory();
  artifact.forecaster->Fit(TinySeries(seed));
  return artifact;
}

std::string WriteModelFile(const std::string& name, const std::string& method,
                           std::size_t horizon, std::uint64_t seed) {
  ModelArtifact artifact = FitArtifact(method, horizon, seed);
  const std::string path = ::testing::TempDir() + "/" + name + ".tfbm";
  EXPECT_TRUE(
      SaveModelFile(*artifact.forecaster, method, artifact.params, path)
          .ok());
  return path;
}

TEST(ModelRegistryTest, BareNameResolvesHighestVersion) {
  ModelRegistry registry(4);
  ASSERT_TRUE(registry.AddModel("theta@1", FitArtifact("Theta", 4, 1)).ok());
  ASSERT_TRUE(registry.AddModel("theta@3", FitArtifact("Theta", 8, 2)).ok());
  ASSERT_TRUE(registry.AddModel("theta@2", FitArtifact("Theta", 6, 3)).ok());

  ModelRegistry::Lease lease;
  ASSERT_TRUE(registry.Acquire("theta", &lease).ok());
  EXPECT_EQ(lease.key(), "theta@3");
  EXPECT_EQ(lease.params().horizon, 8u);
  lease = ModelRegistry::Lease();

  ASSERT_TRUE(registry.Acquire("theta@2", &lease).ok());
  EXPECT_EQ(lease.key(), "theta@2");
  EXPECT_EQ(lease.params().horizon, 6u);
}

TEST(ModelRegistryTest, RejectsBadKeysAndDuplicates) {
  ModelRegistry registry(4);
  EXPECT_FALSE(registry.AddModel("m@0", FitArtifact("Naive", 4, 1)).ok());
  EXPECT_FALSE(registry.AddModel("m@x", FitArtifact("Naive", 4, 1)).ok());
  EXPECT_FALSE(registry.AddModel("@2", FitArtifact("Naive", 4, 1)).ok());
  ASSERT_TRUE(registry.AddModel("m", FitArtifact("Naive", 4, 1)).ok());
  // Bare "m" registered as m@1; registering m@1 again collides.
  EXPECT_FALSE(registry.AddModel("m@1", FitArtifact("Naive", 4, 1)).ok());
  ModelRegistry::Lease lease;
  EXPECT_FALSE(registry.Acquire("unknown", &lease).ok());
}

TEST(ModelRegistryTest, LruEvictsFileBackedIdleModels) {
  const std::string path_a = WriteModelFile("lru_a", "Naive", 4, 1);
  const std::string path_b = WriteModelFile("lru_b", "Naive", 4, 2);

  ModelRegistry registry(1);
  ASSERT_TRUE(registry.AddFile("a", path_a).ok());
  ASSERT_TRUE(registry.AddFile("b", path_b).ok());
  EXPECT_EQ(registry.loaded_count(), 0u);  // Cold until first Acquire.

  {
    ModelRegistry::Lease lease;
    ASSERT_TRUE(registry.Acquire("a", &lease).ok());
  }
  EXPECT_EQ(registry.loaded_count(), 1u);
  EXPECT_EQ(registry.loads(), 1u);

  {
    ModelRegistry::Lease lease;
    ASSERT_TRUE(registry.Acquire("b", &lease).ok());
  }
  // Loading b past capacity 1 unloaded idle a.
  EXPECT_EQ(registry.loaded_count(), 1u);
  EXPECT_EQ(registry.loads(), 2u);
  EXPECT_GE(registry.evictions(), 1u);

  // a reloads transparently from its file.
  {
    ModelRegistry::Lease lease;
    ASSERT_TRUE(registry.Acquire("a", &lease).ok());
    EXPECT_EQ(lease.method(), "Naive");
  }
  EXPECT_EQ(registry.loads(), 3u);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ModelRegistryTest, WarmModelsWithoutFilesAreNeverEvicted) {
  const std::string path = WriteModelFile("warm_vs_file", "Naive", 4, 3);
  ModelRegistry registry(1);
  ASSERT_TRUE(registry.AddModel("warm", FitArtifact("Theta", 4, 4)).ok());
  ASSERT_TRUE(registry.AddFile("cold", path).ok());
  {
    ModelRegistry::Lease lease;
    ASSERT_TRUE(registry.Acquire("cold", &lease).ok());
  }
  // The warm model has no backing file, so it stays despite capacity 1.
  ModelRegistry::Lease lease;
  ASSERT_TRUE(registry.Acquire("warm", &lease).ok());
  EXPECT_EQ(lease.method(), "Theta");
  EXPECT_EQ(registry.evictions(), 0u);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, AddFileFailsFastOnBadFiles) {
  ModelRegistry registry(2);
  EXPECT_FALSE(registry.AddFile("missing", "/no/such/file.tfbm").ok());

  const std::string junk_path = ::testing::TempDir() + "/junk.tfbm";
  std::FILE* f = std::fopen(junk_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a model", f);
  std::fclose(f);
  EXPECT_FALSE(registry.AddFile("junk", junk_path).ok());
  std::remove(junk_path.c_str());
}

TEST(ModelRegistryTest, DistinctModelsForecastConcurrently) {
  ModelRegistry registry(4);
  ASSERT_TRUE(registry.AddModel("a", FitArtifact("Naive", 4, 1)).ok());
  ASSERT_TRUE(registry.AddModel("b", FitArtifact("Theta", 4, 2)).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&registry, &failures, i] {
      ModelRegistry::Lease lease;
      if (!registry.Acquire(i % 2 == 0 ? "a" : "b", &lease).ok()) {
        failures.fetch_add(1);
        return;
      }
      const ts::TimeSeries f =
          lease.forecaster()->Forecast(TinySeries(9), 4);
      if (f.length() != 4) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end HTTP serving.
// ---------------------------------------------------------------------------

/// Raw HTTP exchange so tests can inspect the status line and headers the
/// sugar clients (HttpGet/HttpPost) do not expose.
std::string RawRequest(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// RAII toggle: serving tests need metrics on, but must not leak the flag
/// into other tests in the binary.
class ScopedMetrics {
 public:
  ScopedMetrics() : was_(obs::Enabled()) { obs::SetEnabled(true); }
  ~ScopedMetrics() { obs::SetEnabled(was_); }

 private:
  bool was_;
};

class ServeHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<ModelRegistry>(4);
    ASSERT_TRUE(
        registry_->AddModel("naive-demo", FitArtifact("Naive", 8, 21)).ok());
    ASSERT_TRUE(
        registry_->AddModel("theta-demo", FitArtifact("Theta", 8, 22)).ok());
  }

  void StartServing(ForecastServiceOptions options = {}) {
    service_ = std::make_unique<ForecastService>(registry_.get(), options);
    service_->Start();
    obs::HttpExporterOptions exporter_options;
    exporter_options.run_id = "serve-test";
    exporter_ = std::make_unique<obs::HttpExporter>(exporter_options);
    service_->InstallRoutes(exporter_.get());
    ASSERT_TRUE(exporter_->Start().ok());
    port_ = exporter_->port();
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
    if (exporter_ != nullptr) exporter_->Stop();
  }

  ScopedMetrics metrics_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<ForecastService> service_;
  std::unique_ptr<obs::HttpExporter> exporter_;
  std::uint16_t port_ = 0;
};

std::string HistoryJson(const ts::TimeSeries& series) {
  std::string out = "[";
  for (std::size_t t = 0; t < series.length(); ++t) {
    if (t != 0) out += ',';
    AppendJsonDouble(&out, series.at(t, 0));
  }
  out += ']';
  return out;
}

TEST_F(ServeHttpTest, ServedForecastIsByteIdenticalToOffline) {
  StartServing();
  const ts::TimeSeries history = TinySeries(21);

  // The offline truth: an identical model fitted the same way.
  ModelArtifact offline = FitArtifact("Theta", 8, 22);
  const ts::TimeSeries want = offline.forecaster->Forecast(history, 6);

  // Render the exact body the service must produce.
  std::string expected =
      "{\"model\":\"theta-demo@1\",\"method\":\"Theta\",\"horizon\":6,"
      "\"forecast\":[";
  for (std::size_t t = 0; t < want.length(); ++t) {
    if (t != 0) expected += ',';
    expected += '[';
    AppendJsonDouble(&expected, want.at(t, 0));
    expected += ']';
  }
  expected += "]}\n";

  const std::string request = "{\"model\":\"theta-demo\",\"horizon\":6,"
                              "\"history\":" +
                              HistoryJson(history) + "}";
  int code = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpPost(port_, "/forecast", request, &code, &body));
  EXPECT_EQ(code, 200);
  EXPECT_EQ(body, expected);
}

/// Polls `done` until it holds, failing after a generous deadline. Waits on
/// service state, never on a guessed sleep.
template <typename Predicate>
bool WaitUntil(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST_F(ServeHttpTest, ConcurrentPostsAllSucceedAndCoalesce) {
  // Dispatch never waits to fill a batch, so coalescing is shown by making
  // requests pile up: the test thread holds the model's exclusive lease,
  // the lone dispatcher takes the first request and parks in Acquire, and
  // every later POST queues behind it. Releasing the lease must then
  // dispatch all of them as one batch.
  ForecastServiceOptions options;
  options.max_batch = 16;
  options.dispatch_threads = 1;
  StartServing(options);

  const std::string request = "{\"model\":\"naive-demo\",\"horizon\":4,"
                              "\"history\":" +
                              HistoryJson(TinySeries(21)) + "}";
  constexpr int kClients = 12;
  std::atomic<int> ok{0};
  const auto post = [&] {
    int code = 0;
    std::string body;
    if (obs::HttpPost(port_, "/forecast", request, &code, &body) &&
        code == 200 && body.find("\"forecast\":[[") != std::string::npos) {
      ok.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  {
    ModelRegistry::Lease held;
    ASSERT_TRUE(registry_->Acquire("naive-demo", &held).ok());
    // EXPECT, not ASSERT: the clients must still be released and joined.
    clients.emplace_back(post);
    EXPECT_TRUE(WaitUntil([&] { return service_->Stats().batches == 1; }));
    for (int i = 1; i < kClients; ++i) clients.emplace_back(post);
    EXPECT_TRUE(WaitUntil([&] {
      return service_->Stats().queue_depth ==
             static_cast<std::size_t>(kClients - 1);
    }));
  }  // Lease released: the parked dispatcher finishes, then takes the rest.
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);

  const ForecastServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.admitted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.batches, 2u);
  EXPECT_GE(stats.max_batch_seen, static_cast<std::size_t>(kClients - 1));

  // The /metrics scrape shows the serve instruments with real samples.
  std::string metrics;
  ASSERT_TRUE(obs::HttpGet(port_, "/metrics", &metrics));
  EXPECT_NE(metrics.find("tfb_serve_batch_size_count"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("tfb_serve_latency_seconds_count"),
            std::string::npos);
  EXPECT_NE(metrics.find("tfb_serve_requests_total{code=\"200\"}"),
            std::string::npos);
  // The batch-size histogram holds at least one sample > 1 (sum > count
  // would also hold, but assert the count is nonzero and sum >= count).
  const std::size_t count_pos = metrics.find("tfb_serve_batch_size_count ");
  ASSERT_NE(count_pos, std::string::npos);
  const long count = std::strtol(
      metrics.c_str() + count_pos + std::strlen("tfb_serve_batch_size_count "),
      nullptr, 10);
  EXPECT_GT(count, 0);

  // /status carries the serve block.
  std::string status;
  ASSERT_TRUE(obs::HttpGet(port_, "/status", &status));
  EXPECT_NE(status.find("\"serve\":{"), std::string::npos) << status;
  EXPECT_NE(status.find("\"admitted\":12"), std::string::npos) << status;
  EXPECT_NE(status.find("\"models_registered\":2"), std::string::npos);
}

TEST_F(ServeHttpTest, ModelsRouteListsRegistry) {
  StartServing();
  std::string body;
  ASSERT_TRUE(obs::HttpGet(port_, "/models", &body));
  EXPECT_NE(body.find("\"naive-demo@1\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"theta-demo@1\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"capacity\":4"), std::string::npos) << body;
}

TEST_F(ServeHttpTest, BadRequestsGetClean400s) {
  StartServing();
  const struct {
    const char* body;
    const char* why;
  } cases[] = {
      {"{not json", "malformed"},
      {"{\"horizon\":4,\"history\":[1,2,3]}", "missing model"},
      {"{\"model\":\"naive-demo\",\"horizon\":0,\"history\":[1]}",
       "bad horizon"},
      {"{\"model\":\"naive-demo\",\"horizon\":1e9,\"history\":[1]}",
       "horizon over cap"},
      {"{\"model\":\"naive-demo\",\"history\":[]}", "empty history"},
      {"{\"model\":\"naive-demo\",\"history\":[[1,2],[3]]}", "ragged rows"},
  };
  for (const auto& c : cases) {
    int code = 0;
    std::string body;
    ASSERT_TRUE(obs::HttpPost(port_, "/forecast", c.body, &code, &body))
        << c.why;
    EXPECT_EQ(code, 400) << c.why << ": " << body;
    EXPECT_NE(body.find("\"error\""), std::string::npos) << c.why;
  }
}

TEST_F(ServeHttpTest, UnknownModelIs404) {
  StartServing();
  int code = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpPost(port_, "/forecast",
                            "{\"model\":\"nope\",\"history\":[1,2,3]}",
                            &code, &body));
  EXPECT_EQ(code, 404) << body;
}

TEST_F(ServeHttpTest, ReservationPressureShedsWith429RetryAfter) {
  ForecastServiceOptions options;
  options.max_reserved_workers = 1;  // Artificially tiny budget.
  options.retry_after_seconds = 3;
  StartServing(options);

  // While the machine's coarse budget is spoken for, POSTs shed...
  parallel::CoarseReservation busy(1);
  int code = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpPost(port_, "/forecast",
                            "{\"model\":\"naive-demo\",\"history\":[1,2,3]}",
                            &code, &body));
  EXPECT_EQ(code, 429) << body;
  EXPECT_GE(service_->Stats().shed, 1u);

  // ...with the Retry-After header (Submit exposes the full response).
  bool saw_retry_after = false;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  service_->Submit("{\"model\":\"naive-demo\",\"history\":[1,2,3]}",
                   [&](obs::HttpResponse resp) {
                     std::lock_guard<std::mutex> lock(mu);
                     for (const auto& [name, value] : resp.headers) {
                       if (name == "Retry-After" && value == "3") {
                         saw_retry_after = true;
                       }
                     }
                     EXPECT_EQ(resp.code, 429);
                     done = true;
                     cv.notify_one();
                   });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return done; }));
  }
  EXPECT_TRUE(saw_retry_after);

  std::string metrics;
  ASSERT_TRUE(obs::HttpGet(port_, "/metrics", &metrics));
  EXPECT_NE(metrics.find("tfb_serve_shed_total{reason=\"reservation\"}"),
            std::string::npos)
      << metrics;
}

TEST_F(ServeHttpTest, QueueOverflowShedsWith429) {
  // max_queue 1 with the model's lease held by the test thread: the lone
  // dispatcher takes at most one request and parks in Acquire, the queue
  // holds at most one more, and every further submit must shed.
  ForecastServiceOptions options;
  options.max_queue = 1;
  options.max_batch = 16;
  options.dispatch_threads = 1;
  ForecastService service(registry_.get(), options);
  service.Start();

  std::atomic<int> shed{0};
  std::atomic<int> done{0};
  constexpr int kBurst = 8;
  const std::string body = "{\"model\":\"naive-demo\",\"history\":" +
                           HistoryJson(TinySeries(21)) + "}";
  {
    ModelRegistry::Lease held;
    ASSERT_TRUE(registry_->Acquire("naive-demo", &held).ok());
    for (int i = 0; i < kBurst; ++i) {
      service.Submit(body, [&](obs::HttpResponse resp) {
        if (resp.code == 429) shed.fetch_add(1);
        done.fetch_add(1);
      });
    }
  }
  service.Stop();  // Drains the admitted requests.
  EXPECT_EQ(done.load(), kBurst);
  EXPECT_GE(shed.load(), kBurst - 2);
  EXPECT_EQ(service.Stats().shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(service.Stats().admitted + service.Stats().shed,
            static_cast<std::uint64_t>(kBurst));
}

TEST_F(ServeHttpTest, StoppedServiceAnswers503) {
  StartServing();
  service_->Stop();
  int code = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpPost(port_, "/forecast",
                            "{\"model\":\"naive-demo\",\"history\":[1,2]}",
                            &code, &body));
  EXPECT_EQ(code, 503) << body;
}

// ---------------------------------------------------------------------------
// Request-scoped introspection: request IDs, Server-Timing, access log.
// ---------------------------------------------------------------------------

std::string ForecastRequest(const std::string& body,
                            const std::string& request_id = std::string()) {
  std::string request = "POST /forecast HTTP/1.1\r\nHost: x\r\n";
  if (!request_id.empty()) {
    request += "X-Request-Id: " + request_id + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  return request + body;
}

/// Value of `name` in a raw response's header block, or "" when absent.
std::string HeaderValue(const std::string& response, const std::string& name) {
  const std::size_t pos = response.find("\r\n" + name + ": ");
  if (pos == std::string::npos) return std::string();
  const std::size_t begin = pos + name.size() + 4;
  return response.substr(begin, response.find("\r\n", begin) - begin);
}

TEST_F(ServeHttpTest, EveryResponseCarriesARequestId) {
  StartServing();
  const std::string body = "{\"model\":\"naive-demo\",\"horizon\":4,"
                           "\"history\":" +
                           HistoryJson(TinySeries(21)) + "}";
  // No caller id: the service generates one.
  const std::string generated =
      HeaderValue(RawRequest(port_, ForecastRequest(body)), "X-Request-Id");
  EXPECT_EQ(generated.rfind("req-", 0), 0u) << generated;
  // A caller-supplied id passes through verbatim.
  const std::string echoed = HeaderValue(
      RawRequest(port_, ForecastRequest(body, "trace-abc-7")), "X-Request-Id");
  EXPECT_EQ(echoed, "trace-abc-7");
  // Error paths are tagged too: a parse failure still echoes the id.
  const std::string on_error = RawRequest(
      port_, ForecastRequest("{not json", "bad-req-1"));
  EXPECT_NE(on_error.find(" 400 "), std::string::npos) << on_error;
  EXPECT_EQ(HeaderValue(on_error, "X-Request-Id"), "bad-req-1");
}

TEST_F(ServeHttpTest, ServerTimingStagesTileTheWallLatency) {
  StartServing();
  const std::string body = "{\"model\":\"theta-demo\",\"horizon\":6,"
                           "\"history\":" +
                           HistoryJson(TinySeries(21)) + "}";
  const std::string response = RawRequest(port_, ForecastRequest(body));
  EXPECT_NE(response.find(" 200 "), std::string::npos) << response;
  const std::string timing = HeaderValue(response, "Server-Timing");
  ASSERT_FALSE(timing.empty()) << response;
  double queue = -1.0, linger = -1.0, lease = -1.0, forecast = -1.0,
         total = -1.0;
  ASSERT_EQ(std::sscanf(timing.c_str(),
                        "queue;dur=%lf, linger;dur=%lf, lease;dur=%lf, "
                        "forecast;dur=%lf, total;dur=%lf",
                        &queue, &linger, &lease, &forecast, &total),
            5)
      << timing;
  EXPECT_GE(queue, 0.0);
  EXPECT_GE(linger, 0.0);
  EXPECT_GE(lease, 0.0);
  EXPECT_GE(forecast, 0.0);
  EXPECT_GT(total, 0.0);
  // The four stages tile the request's lifetime: their sum accounts for
  // the wall latency up to scheduling slop (ms units on both sides).
  const double sum = queue + linger + lease + forecast;
  EXPECT_LE(sum, total + 1.0) << timing;
  EXPECT_GE(sum, total * 0.5 - 5.0) << timing;

  // The same stages feed labeled histograms on /metrics.
  std::string metrics;
  ASSERT_TRUE(obs::HttpGet(port_, "/metrics", &metrics));
  for (const char* stage : {"queue", "linger", "lease", "forecast"}) {
    EXPECT_NE(metrics.find("tfb_serve_stage_seconds_count{stage=\"" +
                           std::string(stage) + "\"}"),
              std::string::npos)
        << stage;
  }
}

TEST_F(ServeHttpTest, AccessLogWritesOneWideEventPerRequest) {
  const std::string log_path = ::testing::TempDir() + "/serve_access.jsonl";
  std::remove(log_path.c_str());
  ForecastServiceOptions options;
  options.access_log_path = log_path;
  StartServing(options);

  const std::string body = "{\"model\":\"naive-demo\",\"horizon\":4,"
                           "\"history\":" +
                           HistoryJson(TinySeries(21)) + "}";
  RawRequest(port_, ForecastRequest(body, "log-me-1"));
  RawRequest(port_, ForecastRequest("{not json", "log-me-2"));

  std::FILE* f = std::fopen(log_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, f) != nullptr) {
    lines.emplace_back(buffer);
  }
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);

  // Every line is a self-contained JSON object with the full schema.
  JsonValue ok_event;
  ASSERT_TRUE(ParseJson(lines[0], &ok_event).ok()) << lines[0];
  EXPECT_EQ(ok_event.Find("request_id")->string, "log-me-1");
  EXPECT_EQ(ok_event.Find("model")->string, "naive-demo");
  EXPECT_EQ(ok_event.Find("code")->number, 200.0);
  EXPECT_GT(ok_event.Find("ts")->number, 0.0);
  EXPECT_GT(ok_event.Find("total_s")->number, 0.0);
  for (const char* field : {"queue_s", "linger_s", "lease_s", "forecast_s"}) {
    ASSERT_NE(ok_event.Find(field), nullptr) << field;
    EXPECT_GE(ok_event.Find(field)->number, 0.0) << field;
  }

  // Shed/parse-failure paths log too, with an empty model.
  JsonValue bad_event;
  ASSERT_TRUE(ParseJson(lines[1], &bad_event).ok()) << lines[1];
  EXPECT_EQ(bad_event.Find("request_id")->string, "log-me-2");
  EXPECT_EQ(bad_event.Find("model")->string, "");
  EXPECT_EQ(bad_event.Find("code")->number, 400.0);

  std::remove(log_path.c_str());
}

// ---------------------------------------------------------------------------
// Exporter error satellites, observed on the wire.
// ---------------------------------------------------------------------------

TEST_F(ServeHttpTest, WrongMethodGets405WithAllow) {
  StartServing();
  const std::string response = RawRequest(
      port_, "PUT /forecast HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(response.find(" 405 "), std::string::npos) << response;
  EXPECT_NE(response.find("Allow: POST"), std::string::npos) << response;
}

TEST_F(ServeHttpTest, UnknownPathGets404) {
  StartServing();
  const std::string response =
      RawRequest(port_, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find(" 404 "), std::string::npos) << response;
}

TEST(ServeHttpLimitsTest, OversizedHeadersGet431) {
  obs::HttpExporterOptions options;
  options.max_header_bytes = 256;
  obs::HttpExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  const std::string response = RawRequest(
      exporter.port(), "GET /healthz HTTP/1.1\r\nX-Big: " +
                           std::string(1024, 'a') + "\r\n\r\n");
  EXPECT_NE(response.find(" 431 "), std::string::npos) << response;
  exporter.Stop();
}

TEST(ServeHttpLimitsTest, OversizedBodyGets413) {
  obs::HttpExporterOptions options;
  options.max_body_bytes = 128;
  obs::HttpExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  const std::string response = RawRequest(
      exporter.port(),
      "POST /forecast HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n" +
          std::string(4096, 'b'));
  EXPECT_NE(response.find(" 413 "), std::string::npos) << response;
  exporter.Stop();
}

}  // namespace
}  // namespace tfb::serve
