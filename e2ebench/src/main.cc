// e2ebench: the repository benchmark. One workload per run:
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench --self-test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 runs the same workload with the layer timers on and
// prints the per-layer metrics. See README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload univariate_sharded|serve_mixed"
               " --seed N --seconds S --trace 0|1\n"
               "       e2ebench --self-test\n");
  return 2;
}

/// Every per-layer metric of BENCHMARK.json, so a traced run names each
/// one even where the workload bypasses its layer (which then reads 0).
/// The method families listed are those the workloads run.
void DeclarePerLayerMetrics(e2e::Report* report) {
  const char* seconds[] = {"datagen.s", "characterize.s", "catch22.s",
                           "task.s", "runner.self.s", "shard.overhead.s",
                           "journal.append.s"};
  for (const char* name : seconds) report->Set(name, 0.0, "s");
  const char* counts[] = {"datagen.points", "characterize.series",
                          "fit.calls", "forecast.calls", "gemm.calls",
                          "shard.dispatched", "shard.workers_spawned",
                          "journal.rows"};
  for (const char* name : counts) report->Set(name, 0.0, "count");
  report->Set("gemm.flops", 0.0, "flop");
  report->Set("wire.task_bytes", 0.0, "bytes");
  report->Set("journal.bytes", 0.0, "bytes");
  const char* millis[] = {"serve.queue.ms", "serve.linger.ms",
                          "serve.lease.ms", "serve.forecast.ms",
                          "serve.forecast.statistical.ms",
                          "serve.forecast.neural.ms", "serve.json_parse.ms",
                          "http.wire.ms"};
  for (const char* name : millis) report->Set(name, 0.0, "ms");
  report->Set("serve.batch_mean", 0.0, "req/batch");
  report->Set("traced.ops_per_s", 0.0, "ops/s");
  report->Set("req_p50_ms", 0.0, "ms");
  report->Set("req_p99_ms", 0.0, "ms");
  for (const char* family : {"statistical", "ml", "linear", "mlp"}) {
    report->Set(std::string("fit.") + family + ".s", 0.0, "s");
    report->Set(std::string("forecast.") + family + ".s", 0.0, "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Clock::time_point process_start = e2e::Clock::now();
  e2e::Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return e2e::RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();

  e2e::Report report;
  if (args.trace) DeclarePerLayerMetrics(&report);
  try {
    if (args.workload == "univariate_sharded") {
      e2e::RunUnivariateSharded(args, process_start, &report);
    } else if (args.workload == "serve_mixed") {
      e2e::RunServeMixed(args, process_start, &report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
