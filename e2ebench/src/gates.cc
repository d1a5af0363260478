#include "gates.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "collector/extract.h"

namespace e2e {

core::Dataset extract(const World& world, const std::vector<const MrtFile*>& files) {
  collector::DatasetBuilder builder(world.topo.registry);
  for (const auto* file : files) builder.add_dump(file->bytes);
  return builder.finish().dataset;
}

core::Dataset union_of(const std::vector<const core::Dataset*>& batches) {
  core::Dataset out;
  std::size_t total = 0;
  for (const auto* batch : batches) total += batch->size();
  out.reserve(total);
  for (const auto* batch : batches) out.insert(out.end(), batch->begin(), batch->end());
  core::deduplicate(out);
  return out;
}

std::vector<core::InferenceResult> oracle_runs(
    std::size_t count, const std::function<core::Dataset(std::size_t)>& state_of,
    const core::EngineConfig& config, std::size_t threads) {
  // Single-lane runs side by side; ColumnEngine output does not depend on
  // its lane count.
  auto single = config;
  single.threads = 1;
  const core::ColumnEngine engine(single);
  std::vector<std::optional<core::InferenceResult>> results(count);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        results[i].emplace(engine.run(state_of(i)));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  std::vector<core::InferenceResult> out;
  out.reserve(results.size());
  for (auto& r : results) out.push_back(std::move(*r));
  return out;
}

std::size_t expected_events(const Subscriber& subscriber,
                            const std::vector<api::EpochDelta>& published) {
  std::size_t n = 0;
  for (const auto& delta : published) {
    for (const auto& [id, filter] : subscriber.subscriptions) {
      if (!filter.apply(delta).empty()) ++n;
    }
  }
  return n;
}

bool check_stream(const Subscriber& subscriber, const std::vector<api::EpochDelta>& published,
                  bool drop_one, std::string& why) {
  auto received = subscriber.received();
  if (drop_one && !received.empty()) received.erase(received.begin());
  for (const auto& [id, filter] : subscriber.subscriptions) {
    std::vector<api::EpochDelta> want;
    for (const auto& delta : published) {
      auto changes = filter.apply(delta);
      if (!changes.empty()) want.push_back({delta.epoch, std::move(changes)});
    }
    std::vector<api::EpochDelta> got;
    for (const auto& r : received) {
      if (r.subscription == id) got.push_back({r.epoch, r.changes});
    }
    if (got != want) {
      why = "subscription " + std::to_string(id) + " received " + std::to_string(got.size()) +
            " event(s), its filter over the published deltas gives " +
            std::to_string(want.size());
      for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        if (!(got[i] == want[i])) {
          why += "; first difference at event " + std::to_string(i) + " (epoch " +
                 std::to_string(got[i].epoch) + " vs " + std::to_string(want[i].epoch) + ")";
          break;
        }
      }
      return false;
    }
  }
  return true;
}

std::string map_difference(const core::CounterMap& got, const core::CounterMap& want) {
  if (got == want) return {};
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " ASes vs " + std::to_string(want.size());
  }
  for (const auto& [asn, counters] : want) {
    const auto it = got.find(asn);
    if (it == got.end()) return "AS" + std::to_string(asn) + " missing";
    if (!(it->second == counters)) return "AS" + std::to_string(asn) + " counters differ";
  }
  return "maps differ";
}

}  // namespace e2e
