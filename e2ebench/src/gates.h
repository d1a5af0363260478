// Correctness gates. The oracle is the paper's batch algorithm,
// core::ColumnEngine::run, over tuples the benchmark extracts itself from the
// same MRT files it landed.
#ifndef E2EBENCH_GATES_H
#define E2EBENCH_GATES_H

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"

namespace e2e {

/// Extracts (sanitizes, deduplicates) the tuples of `files` with one
/// collector::DatasetBuilder, exactly as one feed poll over them would.
[[nodiscard]] core::Dataset extract(const World& world,
                                    const std::vector<const MrtFile*>& files);

/// Union of `batches`, deduplicated.
[[nodiscard]] core::Dataset union_of(const std::vector<const core::Dataset*>& batches);

/// ColumnEngine::run over `count` states, `state_of(i)` building state i.
/// Runs on up to `threads` threads, each holding one state at a time.
[[nodiscard]] std::vector<core::InferenceResult> oracle_runs(
    std::size_t count, const std::function<core::Dataset(std::size_t)>& state_of,
    const core::EngineConfig& config, std::size_t threads);

/// Checks that every subscription on `subscriber` received exactly its
/// filter applied to `published`, in order (non-empty batches only).
/// `drop_one` removes the first received event first (gate self-test).
[[nodiscard]] bool check_stream(const Subscriber& subscriber,
                                const std::vector<api::EpochDelta>& published, bool drop_one,
                                std::string& why);

/// Number of events `subscriber` should receive for `published`.
[[nodiscard]] std::size_t expected_events(const Subscriber& subscriber,
                                          const std::vector<api::EpochDelta>& published);

/// First differing AS between two counter maps, for failure messages; empty
/// when equal.
[[nodiscard]] std::string map_difference(const core::CounterMap& got,
                                         const core::CounterMap& want);

}  // namespace e2e

#endif  // E2EBENCH_GATES_H
