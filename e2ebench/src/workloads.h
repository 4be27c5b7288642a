#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "harness.h"

namespace e2e {

/// Table 6 shape through the sharded engine (univariate_sharded.cc).
void RunUnivariateSharded(const Args& args, Clock::time_point process_start,
                          Report* report);

/// The serving plane under closed-loop load (serve_mixed.cc).
void RunServeMixed(const Args& args, Clock::time_point process_start,
                   Report* report);

/// Feeds one perturbed output to every correctness check and reports
/// whether each one flagged it (self_test.cc). Returns the exit code.
int RunSelfTest();

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
