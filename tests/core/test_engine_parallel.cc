// The parallel sweep kernel's determinism contract, property-style: for any
// dataset and any lane count, sweep_columns must be bit-identical to the
// serial kernel (threads=1) — same counter map, same columns_swept — because
// lanes count into partial arrays merged by addition after each phase
// barrier. Covers early_stop on/off, max_columns caps, the IndexedDataset
// overload vs. the view-span overload, and degenerate inputs. The thread
// counts deliberately exceed the host's parallelism (lanes queue on the
// shared TaskPool), so the parallel path is exercised even on 1-core CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "topology/rng.h"
#include "util/task_pool.h"

namespace bgpcu::core {
namespace {

// Random (path, comm) dataset in the style of test_engine_property: ASNs
// 1..40 so ASes recur in different positions, random path lengths, random
// community subsets keyed on path members plus off-path admins.
Dataset random_dataset(std::uint64_t seed, std::size_t tuples) {
  topology::Rng rng(seed);
  Dataset d;
  for (std::size_t i = 0; i < tuples; ++i) {
    PathCommTuple t;
    const std::size_t len = 1 + rng.below(6);
    while (t.path.size() < len) {
      const bgp::Asn asn = 1 + static_cast<bgp::Asn>(rng.below(40));
      if (std::find(t.path.begin(), t.path.end(), asn) == t.path.end()) t.path.push_back(asn);
    }
    for (const auto asn : t.path) {
      if (rng.chance(0.3)) {
        t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(asn),
                                                       static_cast<std::uint16_t>(rng.below(4))));
      }
    }
    if (rng.chance(0.1)) {
      t.comms.push_back(bgp::CommunityValue::regular(
          static_cast<std::uint16_t>(100 + rng.below(20)), 1));
    }
    d.push_back(std::move(t));
  }
  deduplicate(d);
  return d;
}

std::vector<TupleView> prepare_views(const Dataset& d) {
  std::vector<TupleView> views;
  views.reserve(d.size());
  for (const auto& t : d) {
    if (auto view = TupleView::prepare(t)) views.push_back(*view);
  }
  return views;
}

void expect_identical(const InferenceResult& a, const InferenceResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.counter_map(), b.counter_map()) << label;
  EXPECT_EQ(a.columns_swept(), b.columns_swept()) << label;
}

class ParallelSweepEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSweepEquivalence, LaneCountNeverChangesOutput) {
  const auto d = random_dataset(GetParam(), 300 + (GetParam() % 7) * 40);
  const auto views = prepare_views(d);

  EngineConfig serial;
  serial.threads = 1;
  const auto reference = sweep_columns(views, serial);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    EngineConfig parallel = serial;
    parallel.threads = threads;
    expect_identical(sweep_columns(views, parallel), reference,
                     "threads=" + std::to_string(threads));
  }
}

TEST_P(ParallelSweepEquivalence, EarlyStopDisabledStillIdentical) {
  const auto d = random_dataset(GetParam() * 31 + 7, 250);
  const auto views = prepare_views(d);

  EngineConfig serial;
  serial.threads = 1;
  serial.early_stop = false;
  const auto reference = sweep_columns(views, serial);
  EXPECT_EQ(reference.columns_swept(), IndexedDataset(views).max_len());

  for (const std::size_t threads : {2u, 4u, 8u}) {
    EngineConfig parallel = serial;
    parallel.threads = threads;
    expect_identical(sweep_columns(views, parallel), reference,
                     "early_stop=off threads=" + std::to_string(threads));
  }
}

TEST_P(ParallelSweepEquivalence, MaxColumnsCapRespectedInEveryLaneCount) {
  const auto d = random_dataset(GetParam() * 101 + 3, 250);
  const auto views = prepare_views(d);

  for (const std::size_t cap : {1u, 2u, 3u}) {
    EngineConfig serial;
    serial.threads = 1;
    serial.max_columns = cap;
    const auto reference = sweep_columns(views, serial);
    EXPECT_LE(reference.columns_swept(), cap);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      EngineConfig parallel = serial;
      parallel.threads = threads;
      expect_identical(sweep_columns(views, parallel), reference,
                       "cap=" + std::to_string(cap) + " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweepEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(ParallelSweep, EmptyDatasetAllLaneCounts) {
  const std::vector<TupleView> none;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EngineConfig config;
    config.threads = threads;
    const auto result = sweep_columns(none, config);
    EXPECT_TRUE(result.counter_map().empty());
    EXPECT_EQ(result.columns_swept(), 0u);
  }
}

TEST(ParallelSweep, SingleTupleMoreLanesThanTuples) {
  Dataset d;
  PathCommTuple t;
  t.path = {1, 2, 3};
  t.comms = {bgp::CommunityValue::regular(1, 1)};
  d.push_back(t);
  const auto views = prepare_views(d);

  EngineConfig serial;
  serial.threads = 1;
  EngineConfig parallel;
  parallel.threads = 8;
  expect_identical(sweep_columns(views, parallel), sweep_columns(views, serial),
                   "1 tuple, 8 lanes");
}

TEST(ParallelSweep, IndexedOverloadMatchesViewOverload) {
  const auto d = random_dataset(99, 400);
  const auto views = prepare_views(d);
  const IndexedDataset indexed(views);
  EXPECT_EQ(indexed.tuple_count(), views.size());

  // Single-pass construction must agree with a direct max-length scan.
  std::size_t max_len = 0;
  for (const auto& v : views) max_len = std::max(max_len, v.path->size());
  EXPECT_EQ(indexed.max_len(), max_len);

  for (const std::size_t threads : {1u, 4u}) {
    EngineConfig config;
    config.threads = threads;
    expect_identical(sweep_columns(indexed, config), sweep_columns(views, config),
                     "indexed vs views, threads=" + std::to_string(threads));
  }
}

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  util::TaskPool pool(3);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskPool, ZeroWorkersDegradesToSerial) {
  util::TaskPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::size_t sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += i; });  // caller-thread only: no race
  EXPECT_EQ(sum, 45u);
}

TEST(TaskPool, PropagatesFirstException) {
  util::TaskPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i % 7 == 0) throw std::runtime_error("lane failure");
                        }),
      std::runtime_error);
  // The pool survives a throwing job and stays usable.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskPool, NestedParallelForThrowsInsteadOfDeadlocking) {
  // A task that fans out on its own pool would wait for workers that wait
  // for it; the pool refuses the call, and the outer job reports it.
  util::TaskPool pool(2);
  util::TaskPool other(1);
  std::atomic<int> inner{0};
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(2, [&](std::size_t) { inner.fetch_add(1); });
                                 }),
               std::logic_error);
  EXPECT_EQ(inner.load(), 0);
  // Another pool, and a single inline iteration, stay allowed from a task.
  pool.parallel_for(4, [&](std::size_t) {
    other.parallel_for(2, [&](std::size_t) { inner.fetch_add(1); });
    pool.parallel_for(1, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 12);
}

}  // namespace
}  // namespace bgpcu::core
