#ifndef TFB_SERVE_SERVICE_H_
#define TFB_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tfb/obs/http_exporter.h"
#include "tfb/serve/registry.h"
#include "tfb/ts/time_series.h"

/// \file
/// The forecast request plane (the "Serving plane" section of DESIGN.md).
/// ForecastService owns a bounded admission queue and a small crew of
/// dispatcher threads. The HTTP event loop parses a POST /forecast body,
/// admits or sheds it, and returns immediately; a dispatcher that wakes takes
/// whatever is queued (up to `max_batch`) at once — requests coalesce only
/// when they pile up under load, never by waiting — executes the forecasts
/// through the compute-kernel layer, and completes each parked request via
/// its HttpResponder.
///
/// Backpressure is two-gated, shedding with 429 + Retry-After:
///  - queue depth >= max_queue (the service itself is saturated);
///  - parallel::ReservedCoarseWorkers() >= max_reserved_workers (the
///    machine's coarse-parallelism budget is spoken for — each dispatcher
///    holds a CoarseReservation(1) while a batch runs, and an in-process
///    benchmark grid's reservation counts too).
///
/// Request body:  {"model": "name[@version]", "horizon": H,
///                 "history": [v, ...] | [[v, ...], ...]}
/// Response body: {"model": "name@version", "method": "...", "horizon": H,
///                 "forecast": [[v, ...], ...]}   (one row per step,
///                 doubles as %.17g — byte-identical to offline Forecast).

namespace tfb::serve {

struct ForecastServiceOptions {
  std::size_t max_queue = 256;   ///< Admission bound; beyond it: 429.
  std::size_t max_batch = 16;    ///< Items per dispatched batch.
  std::size_t dispatch_threads = 2;
  /// Shed when ReservedCoarseWorkers() is at/over this before enqueue;
  /// 0 disables the gate.
  std::size_t max_reserved_workers = 0;
  std::size_t max_horizon = 4096;       ///< Per-request horizon cap.
  std::size_t max_history_points = 1u << 20;  ///< Rows x channels cap.
  int retry_after_seconds = 1;   ///< Advertised on 429 responses.
  /// When non-empty, every answered request appends one wide-event JSONL
  /// line here: request id, model, outcome code, per-stage seconds
  /// (queue / linger / lease / forecast), and total latency. Opened at
  /// Start(); append-only, flushed per line.
  std::string access_log_path;
};

/// Point-in-time counters for /status and tests.
struct ForecastServiceStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;    ///< Completed with a non-200 (parse/model).
  std::uint64_t shed = 0;      ///< 429s issued.
  std::uint64_t batches = 0;
  std::size_t max_batch_seen = 0;
  std::size_t queue_depth = 0;
};

class ForecastService {
 public:
  /// `registry` is borrowed and must outlive the service.
  ForecastService(ModelRegistry* registry, ForecastServiceOptions options);
  ~ForecastService();
  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Registers POST /forecast and GET /models on `exporter`. Call between
  /// Start() and the exporter's own Start().
  void InstallRoutes(obs::HttpExporter* exporter);

  /// Spawns the dispatcher crew. Idempotent.
  void Start();
  /// Drains: stops admission (503), lets dispatchers finish queued work,
  /// joins them. Idempotent; also run by the destructor.
  void Stop();

  ForecastServiceStats Stats() const;

  /// The admission + parse path, exposed for direct testing: behaves
  /// exactly like an HTTP arrival carrying `body`. `request_id` is the
  /// caller-supplied X-Request-Id; empty generates one. Every response —
  /// success, shed, or parse error — echoes it as an X-Request-Id header.
  void Submit(const std::string& body, obs::HttpResponder respond,
              std::string request_id = std::string());

 private:
  struct PendingRequest;
  struct StageTimes;

  void HandleForecast(const obs::HttpRequest& request,
                      obs::HttpResponder respond);
  void HandleModels(const obs::HttpRequest& request,
                    obs::HttpResponder respond);
  void DispatchLoop();
  void ExecuteBatch(std::vector<PendingRequest>* batch);
  void PublishStatsLocked();
  /// Appends one wide-event line to the access log (no-op when closed).
  void LogAccess(const std::string& request_id, const std::string& model,
                 int code, const StageTimes& stages, double total_seconds);

  ModelRegistry* const registry_;
  const ForecastServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> queue_;
  bool running_ = false;
  bool accepting_ = false;
  ForecastServiceStats stats_;
  std::vector<std::thread> dispatchers_;

  std::mutex access_log_mutex_;
  std::FILE* access_log_ = nullptr;  // Owned; open between Start and Stop.
};

}  // namespace tfb::serve

#endif  // TFB_SERVE_SERVICE_H_
