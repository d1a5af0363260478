// The three workloads and the report they produce.
#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
  bool higher_is_better = false;
};

struct Report {
  std::vector<std::string> gate_failures;  ///< Empty = every gate passed.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed with the report but not part of the result line: counts that
  /// are legitimately zero on some workloads (errors, sheds, rebuilds) and
  /// layers only one workload exercises.
  std::vector<Metric> extra;
  /// Run facts that are not metrics: landing rates, scale, self-time ranking.
  std::vector<std::pair<std::string, std::string>> facts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_notes;
};

/// Runs `options.workload` ("bulk_load", "live_tail" or "query_mix").
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H
