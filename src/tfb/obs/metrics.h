#ifndef TFB_OBS_METRICS_H_
#define TFB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

/// \file
/// Lock-sharded metrics registry (the "Observability" section of DESIGN.md):
/// counters, gauges, and fixed-bucket histograms, exportable as
/// Prometheus text or JSON. Instrument lookup takes one shard mutex; the
/// instruments themselves are lock-free (atomics), so parallel runner
/// workers, the sandbox supervisor, and the nn trainer can all record into
/// one registry without serializing on a global lock.
///
/// Naming convention: `tfb_<subsystem>_<what>[_total|_seconds|...]`, with
/// optional Prometheus-style labels embedded in the name
/// (`tfb_sandbox_fate_total{fate="timeout"}`) — the registry treats the
/// full string as the identity and the exporters emit it verbatim, which
/// keeps label support free of a label-set data model.

namespace tfb::obs {

/// Whether observability collection is on. Off by default: every
/// instrumentation site in the pipeline guards on this, so a run without
/// `--trace-out`/`--metrics-out` pays one relaxed atomic load per site
/// (the ≤2% overhead budget of DESIGN.md, measured by
/// bench_runner_throughput).
bool Enabled();

/// Turns collection on/off process-wide (also gates the default tracer's
/// spans). Not reset between runs; tests that flip it should restore it.
void SetEnabled(bool enabled);

/// Monotonically increasing value (task counts, retries, spawned children).
class Counter {
 public:
  void Increment(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins value (queue depth, in-flight tasks).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket bounds are chosen at creation and never
/// change, so Observe() is a binary search plus two relaxed atomic adds.
/// Quantiles are estimated by linear interpolation inside the bucket —
/// exact enough for the p50/p95 latency lines of BENCH_pipeline.json.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds of the finite buckets, strictly
  /// increasing; one implicit +inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Adds pre-counted observations bucket-by-bucket (fleet telemetry merge:
  /// a worker ships per-bucket deltas, the coordinator replays them here).
  /// `bucket_deltas` must have bounds().size() + 1 entries; mismatched
  /// shapes are ignored rather than corrupting the histogram.
  void MergeBuckets(const std::vector<std::uint64_t>& bucket_deltas,
                    double sum_delta);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// Estimated q-quantile (q in [0,1]); 0 when empty. The top (+inf)
  /// bucket reports its lower bound (no upper edge to interpolate to).
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; the last entry (for
  /// the +inf bucket) equals Count().
  std::vector<std::uint64_t> CumulativeCounts() const;
  /// Raw per-bucket counts (bounds().size() + 1 entries, not cumulative) —
  /// the shape telemetry snapshots diff and ship.
  std::vector<std::uint64_t> BucketCounts() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds: `first`, `first*factor`, ... (`count` bounds).
/// The default latency buckets of the pipeline: 1ms..~17min at factor 2.
std::vector<double> ExponentialBounds(double first = 1e-3, double factor = 2.0,
                                      std::size_t count = 20);

/// The lock-sharded instrument registry. Get* returns a reference that
/// stays valid for the registry's lifetime (instruments are never removed);
/// callers on hot paths may cache it. A name identifies exactly one
/// instrument; re-Get with a different kind returns a fresh instrument of
/// the requested kind without disturbing the first (names should not be
/// reused across kinds).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` are used only on first creation of `name`.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// Prometheus text exposition (sorted by name; histograms expand to
  /// *_bucket/_sum/_count lines with cumulative `le` labels).
  std::string ToPrometheusText() const;
  /// One JSON object keyed by instrument name; histograms carry
  /// count/sum/p50/p95/p99 plus their buckets (quantiles are `null` while
  /// the histogram is empty — 0 would read as a real measurement).
  std::string ToJson() const;

  /// A point-in-time copy of every instrument. Fleet telemetry uses two of
  /// these on the worker to compute deltas since the last ship, and the
  /// coordinator replays those deltas into its own registry.
  struct Snapshot {
    struct HistogramState {
      std::vector<double> bounds;
      std::vector<std::uint64_t> buckets;  // Raw per-bucket counts.
      double sum = 0.0;
    };
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramState> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Drops every instrument (for test isolation and repeated bench runs).
  /// Invalidates previously returned references.
  void Reset();
  /// Advanced by every Reset(). A hot path that caches instrument
  /// references re-resolves them when this moves.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
  };
  static constexpr std::size_t kShards = 8;
  Shard& ShardFor(const std::string& name);

  Shard shards_[kShards];
  std::atomic<std::uint64_t> generation_{0};
};

/// The process-wide registry every pipeline instrumentation site records
/// into and the `--metrics-out` exporter reads from.
Registry& DefaultRegistry();

/// Writes `registry` to `path`: Prometheus text exposition, or the JSON
/// export when the path ends in ".json". Returns false on I/O failure.
bool WriteMetricsFile(const Registry& registry, const std::string& path);

}  // namespace tfb::obs

#endif  // TFB_OBS_METRICS_H_
