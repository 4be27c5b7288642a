// tfb_serve: the forecast serving plane as a standalone server (the
// "Serving plane" section of DESIGN.md). Loads fitted TFBM model files
// into a warm LRU-bounded registry and serves forecasts over HTTP:
//
//   POST /forecast  {"model":"NAME[@V]","horizon":H,"history":[...]}
//   GET  /models    registered model keys + registry occupancy
//   GET  /metrics   Prometheus text (tfb_serve_* + tfb_http_*)
//   GET  /status    JSON with a "serve" object (queue depth, batches, shed)
//   GET  /healthz   liveness
//
// A small dispatcher crew forecasts each POST as soon as it is queued
// (POSTs that pile up behind busy dispatchers go out as one batch);
// admission is bounded (queue depth + the machine's coarse-reservation
// budget) and overload is shed with 429 + Retry-After.
//
// Usage:
//   ./build/examples/tfb_serve --port=8080 --models=./models
//   ./build/examples/tfb_serve --port=8080 --demo     # fit demo models
//   curl -s localhost:8080/models
//   curl -s localhost:8080/forecast -d '{"model":"theta-demo","history":[1,2,3,4,5,6,7,8]}'
//
// Flags:
//   --port=N            TCP port (default 8080; 0 = ephemeral, printed)
//   --bind=ADDR         bind address (default 127.0.0.1)
//   --models=DIR        load every *.tfbm file in DIR; the model key is the
//                       file name without extension ("etth1-dlinear@2.tfbm"
//                       registers "etth1-dlinear@2")
//   --demo              fit small demo models on a synthetic series and
//                       register them (default when --models is absent)
//   --demo-methods=A,B  comma list of registry methods for --demo
//                       (default Naive,Theta,DLinear)
//   --save=DIR          with --demo: also write the fitted models to DIR
//                       as .tfbm files (bootstrap a --models directory)
//   --horizon=H         demo fit horizon (default 24)
//   --capacity=K        max models kept fitted in memory (default 8)
//   --max-queue=N       admission bound before 429 (default 256)
//   --max-batch=N       most requests one dispatcher takes (default 16)
//   --dispatchers=N     dispatcher threads (default 2)
//   --max-reserved=N    shed when ReservedCoarseWorkers() >= N (default 0
//                       = gate off)
//   --access-log=FILE   append one wide-event JSONL line per answered
//                       request (request id, model, code, per-stage and
//                       total latency seconds)

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tfb/datagen/registry.h"
#include "tfb/obs/http_exporter.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/serve/model_store.h"
#include "tfb/serve/registry.h"
#include "tfb/serve/service.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

/// Registers every *.tfbm file under `dir`; key = file name minus extension.
bool LoadModelDir(const std::string& dir, tfb::serve::ModelRegistry* registry) {
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) {
    std::fprintf(stderr, "tfb_serve: cannot open --models dir %s\n",
                 dir.c_str());
    return false;
  }
  std::size_t registered = 0;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    const std::string suffix = ".tfbm";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string key = name.substr(0, name.size() - suffix.size());
    const tfb::base::Status status =
        registry->AddFile(key, dir + "/" + name);
    if (!status.ok()) {
      std::fprintf(stderr, "tfb_serve: skipping %s: %s\n", name.c_str(),
                   status.message().c_str());
      continue;
    }
    ++registered;
  }
  closedir(handle);
  std::fprintf(stderr, "tfb_serve: registered %zu model(s) from %s\n",
               registered, dir.c_str());
  return registered > 0;
}

/// Fits `methods` on a synthetic univariate series and registers them as
/// "<method, lowercased>-demo". With `save_dir`, also writes .tfbm files.
bool FitDemoModels(const std::vector<std::string>& methods,
                   std::size_t horizon, const std::string& save_dir,
                   tfb::serve::ModelRegistry* registry) {
  const auto profile = tfb::datagen::FindProfile("ETTh1");
  if (!profile.has_value()) {
    std::fprintf(stderr, "tfb_serve: demo profile missing\n");
    return false;
  }
  const tfb::ts::TimeSeries series =
      tfb::datagen::GenerateDataset(*profile).Variable(0);
  bool any = false;
  for (const std::string& method : methods) {
    tfb::pipeline::MethodParams params;
    params.horizon = horizon;
    params.period = series.seasonal_period();
    auto config = tfb::pipeline::MakeMethod(method, params);
    if (!config.has_value()) {
      std::fprintf(stderr, "tfb_serve: unknown demo method %s\n",
                   method.c_str());
      continue;
    }
    auto forecaster = config->factory();
    forecaster->Fit(series);
    std::string key;
    for (const char c : method) {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    key += "-demo";
    if (!save_dir.empty()) {
      const std::string path = save_dir + "/" + key + ".tfbm";
      const tfb::base::Status saved =
          tfb::serve::SaveModelFile(*forecaster, method, params, path);
      if (!saved.ok()) {
        std::fprintf(stderr, "tfb_serve: save %s: %s\n", path.c_str(),
                     saved.message().c_str());
      }
    }
    tfb::serve::ModelArtifact artifact;
    artifact.method = method;
    artifact.params = params;
    artifact.forecaster = std::move(forecaster);
    const tfb::base::Status added =
        registry->AddModel(key, std::move(artifact));
    if (!added.ok()) {
      std::fprintf(stderr, "tfb_serve: register %s: %s\n", key.c_str(),
                   added.message().c_str());
      continue;
    }
    std::fprintf(stderr, "tfb_serve: fitted demo model %s (%s, horizon %zu)\n",
                 key.c_str(), method.c_str(), horizon);
    any = true;
  }
  return any;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bind_address = "127.0.0.1";
  long port = 8080;
  std::string models_dir;
  std::string save_dir;
  bool demo = false;
  std::string demo_methods = "Naive,Theta,DLinear";
  long horizon = 24;
  long capacity = 8;
  tfb::serve::ForecastServiceOptions service_options;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--port", &value)) {
      port = std::atol(value.c_str());
    } else if (FlagValue(argv[i], "--bind", &value)) {
      bind_address = value;
    } else if (FlagValue(argv[i], "--models", &value)) {
      models_dir = value;
    } else if (FlagValue(argv[i], "--save", &value)) {
      save_dir = value;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (FlagValue(argv[i], "--demo-methods", &value)) {
      demo_methods = value;
    } else if (FlagValue(argv[i], "--horizon", &value)) {
      horizon = std::atol(value.c_str());
    } else if (FlagValue(argv[i], "--capacity", &value)) {
      capacity = std::atol(value.c_str());
    } else if (FlagValue(argv[i], "--max-queue", &value)) {
      service_options.max_queue = static_cast<std::size_t>(
          std::atol(value.c_str()));
    } else if (FlagValue(argv[i], "--max-batch", &value)) {
      service_options.max_batch = static_cast<std::size_t>(
          std::atol(value.c_str()));
    } else if (FlagValue(argv[i], "--dispatchers", &value)) {
      service_options.dispatch_threads = static_cast<std::size_t>(
          std::atol(value.c_str()));
    } else if (FlagValue(argv[i], "--max-reserved", &value)) {
      service_options.max_reserved_workers = static_cast<std::size_t>(
          std::atol(value.c_str()));
    } else if (FlagValue(argv[i], "--access-log", &value)) {
      service_options.access_log_path = value;
    } else {
      std::fprintf(stderr, "tfb_serve: unknown flag %s (see header comment)\n",
                   argv[i]);
      return 2;
    }
  }
  if (port < 0 || port > 65535 || horizon < 1 || capacity < 1) {
    std::fprintf(stderr, "tfb_serve: bad --port/--horizon/--capacity\n");
    return 2;
  }
  if (models_dir.empty()) demo = true;

  // A server exists to be observed: metrics collection is on by default.
  tfb::obs::SetEnabled(true);

  tfb::serve::ModelRegistry registry(static_cast<std::size_t>(capacity));
  bool have_models = false;
  if (!models_dir.empty()) {
    have_models = LoadModelDir(models_dir, &registry);
  }
  if (demo) {
    have_models |= FitDemoModels(SplitCsv(demo_methods),
                                 static_cast<std::size_t>(horizon), save_dir,
                                 &registry);
  }
  if (!have_models) {
    std::fprintf(stderr, "tfb_serve: no models registered; nothing to serve\n");
    return 1;
  }

  tfb::serve::ForecastService service(&registry, service_options);
  service.Start();

  tfb::obs::HttpExporterOptions exporter_options;
  exporter_options.bind_address = bind_address;
  exporter_options.port = static_cast<std::uint16_t>(port);
  exporter_options.run_id = "tfb_serve";
  tfb::obs::HttpExporter exporter(exporter_options);
  service.InstallRoutes(&exporter);
  const tfb::base::Status started = exporter.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tfb_serve: %s\n", started.message().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "tfb_serve: serving on %s:%u (POST /forecast, GET /models "
               "/metrics /status /healthz); SIGINT to drain and exit\n",
               bind_address.c_str(), exporter.port());

  struct sigaction action{};
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  while (!g_stop.load()) {
    usleep(100 * 1000);
  }

  std::fprintf(stderr, "tfb_serve: draining...\n");
  service.Stop();    // Finish queued forecasts first.
  exporter.Stop();   // Then close the listener.
  const tfb::serve::ForecastServiceStats stats = service.Stats();
  std::fprintf(stderr,
               "tfb_serve: done: %llu admitted, %llu completed, %llu shed, "
               "%llu batches (max %zu)\n",
               static_cast<unsigned long long>(stats.admitted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.batches),
               stats.max_batch_seen);
  return 0;
}
