// DirectoryFeed's parallel extraction contract, checked property-style: one
// poll() over a directory of MRT dumps must return exactly what a single
// serial collector::DatasetBuilder returns over the same bytes in file-name
// order — the same batch element by element, the same extraction and
// sanitation counters, the same consumed files and read offsets — whichever
// pool extracts the files and however their tasks interleave.
//
// Scenario space per seed: 1..8 dumps (RIB images with a peer index table,
// BGP4MP update images), paths with AS_SETs, prepending, unallocated ASNs
// and prefixes, regular and large communities; most entries re-announce a
// route from a pool shared by the scenario's dumps, so tuples repeat within
// and across files and the merge must drop them; some dumps truncated mid-record,
// some byte-flipped (the MRT fuzzer's corruption), some with a partial
// trailing record. A second poll after appending to some files checks the
// incremental tail through the same merge. 24 seeds x {0-worker pool,
// 3-worker pool}.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "bgp/message.h"
#include "collector/extract.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v2.h"
#include "mrt/writer.h"
#include "stream/feed.h"
#include "topology/rng.h"
#include "util/task_pool.h"

namespace bgpcu::stream {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;

/// ASNs 1..60, of which 56..60 are unallocated in the test registry.
bgp::Asn random_asn(topology::Rng& rng) { return 1 + static_cast<bgp::Asn>(rng.below(60)); }

/// Peers 1..6, so RIB peer tables of different dumps share sessions.
bgp::Asn random_peer(topology::Rng& rng) { return 1 + static_cast<bgp::Asn>(rng.below(6)); }

/// A route as a collector peer announces it: path (from the peer on) plus
/// communities.
struct Route {
  bgp::AsPath path;
  bgp::CommunitySet regular;
  bgp::CommunitySet large;
};

Route random_route(topology::Rng& rng) {
  Route route;
  std::vector<bgp::Asn> seq{random_peer(rng)};
  const auto len = 1 + rng.below(5);
  for (std::uint64_t i = 0; i < len; ++i) {
    seq.push_back(random_asn(rng));
    if (rng.chance(0.1)) seq.push_back(seq.back());  // prepending
  }
  std::vector<bgp::AsPathSegment> segments{{bgp::SegmentType::kAsSequence, std::move(seq)}};
  if (rng.chance(0.1)) {
    segments.push_back({bgp::SegmentType::kAsSet, {random_asn(rng), random_asn(rng)}});
  }
  route.path = bgp::AsPath(std::move(segments));
  const auto n = rng.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    route.regular.push_back(bgp::CommunityValue::regular(
        static_cast<std::uint16_t>(random_asn(rng)), static_cast<std::uint16_t>(rng.below(3))));
  }
  if (rng.chance(0.2)) {
    route.large.push_back(
        bgp::CommunityValue::large(random_asn(rng), 1, static_cast<std::uint32_t>(rng.below(2))));
  }
  return route;
}

/// Routes shared by all dumps of one scenario: most entries re-announce one
/// of them, so the same tuple recurs within a dump and across dumps, as RIBs
/// and updates of one day overlap.
class RoutePool {
 public:
  explicit RoutePool(topology::Rng& rng) {
    for (int i = 0; i < 40; ++i) routes_.push_back(random_route(rng));
  }
  [[nodiscard]] Route draw(topology::Rng& rng) const {
    return rng.chance(0.7) ? routes_[rng.below(routes_.size())] : random_route(rng);
  }

 private:
  std::vector<Route> routes_;
};

void set_route(bgp::PathAttributes& attrs, Route route) {
  attrs.origin = bgp::Origin::kIgp;
  attrs.as_path = std::move(route.path);
  attrs.communities = std::move(route.regular);
  attrs.large_communities = std::move(route.large);
}

/// Prefixes in 11.0.0.0/8 are allocated, 12.0.0.0/8 are not.
bgp::Prefix random_prefix(topology::Rng& rng) {
  const std::uint32_t base = rng.chance(0.9) ? 0x0B000000 : 0x0C000000;
  return bgp::Prefix::ipv4(base + (static_cast<std::uint32_t>(rng.below(64)) << 8), 24);
}

Bytes rib_dump(topology::Rng& rng, const RoutePool& pool) {
  mrt::MrtWriter writer;
  mrt::PeerIndexTable table;
  table.collector_bgp_id = 1;
  table.view_name = "prop";
  for (std::uint32_t p = 0; p < 4; ++p) {
    table.peers.push_back(mrt::PeerEntry::ipv4_peer(p + 1, 0xC0A80001 + p, random_peer(rng)));
  }
  writer.write_peer_index(100, table);
  const auto records = 5 + rng.below(40);
  for (std::uint64_t r = 0; r < records; ++r) {
    mrt::RibRecord rib;
    rib.sequence = static_cast<std::uint32_t>(r);
    rib.prefix = random_prefix(rng);
    const auto entries = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < entries; ++e) {
      mrt::RibEntry entry;
      // An index past the table is a per-entry decode error.
      entry.peer_index = static_cast<std::uint16_t>(rng.below(rng.chance(0.05) ? 6 : 4));
      entry.originated_time = 100;
      set_route(entry.attributes, pool.draw(rng));
      rib.entries.push_back(std::move(entry));
    }
    writer.write_rib(100, rib);
  }
  return writer.take();
}

Bytes update_dump(topology::Rng& rng, const RoutePool& pool) {
  mrt::MrtWriter writer;
  const auto records = 5 + rng.below(40);
  for (std::uint64_t r = 0; r < records; ++r) {
    bgp::UpdateMessage update;
    set_route(update.attributes, pool.draw(rng));
    const bgp::Asn peer = update.attributes.as_path->segments().front().asns.front();
    const auto prefixes = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < prefixes; ++i) update.nlri.push_back(random_prefix(rng));
    if (rng.chance(0.2)) update.withdrawn.push_back(random_prefix(rng));
    writer.write_message(static_cast<std::uint32_t>(200 + r),
                         mrt::Bgp4mpMessage::ipv4_session(peer, 12654, 0xC0A80001, 0xC0A80002,
                                                          update.encode(true)));
  }
  return writer.take();
}

/// A dump of either kind, possibly damaged the way third-party archives are.
Bytes random_dump(topology::Rng& rng, const RoutePool& pool) {
  auto bytes = rng.chance(0.4) ? rib_dump(rng, pool) : update_dump(rng, pool);
  const auto damage = rng.below(4);
  if (damage == 1) {  // truncated anywhere: the tail is a partial record
    bytes.resize(1 + rng.below(bytes.size()));
  } else if (damage == 2) {  // byte flips
    const auto flips = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
  }
  return bytes;
}

/// The MRT framing rule, restated: the prefix covered by complete records.
std::size_t complete_prefix(const Bytes& data) {
  std::size_t pos = 0;
  while (data.size() - pos >= 12) {
    const std::size_t length = (std::size_t{data[pos + 8]} << 24) |
                               (std::size_t{data[pos + 9]} << 16) |
                               (std::size_t{data[pos + 10]} << 8) | data[pos + 11];
    if (data.size() - pos - 12 < length) break;
    pos += 12 + length;
  }
  return pos;
}

void write_file(const fs::path& path, const Bytes& bytes, std::ios::openmode mode) {
  std::ofstream out(path, std::ios::binary | mode);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void expect_same_extraction(const collector::ExtractionStats& a,
                            const collector::ExtractionStats& b) {
  EXPECT_EQ(a.entries_total, b.entries_total);
  EXPECT_EQ(a.rib_entries, b.rib_entries);
  EXPECT_EQ(a.update_messages, b.update_messages);
  EXPECT_EQ(a.withdrawals, b.withdrawals);
  EXPECT_EQ(a.decode_errors, b.decode_errors);
  EXPECT_EQ(a.communities_total, b.communities_total);
  EXPECT_EQ(a.large_communities_total, b.large_communities_total);
}

void expect_same_sanitation(const collector::SanitationStats& a,
                            const collector::SanitationStats& b) {
  EXPECT_EQ(a.input, b.input);
  EXPECT_EQ(a.dropped_unallocated_prefix, b.dropped_unallocated_prefix);
  EXPECT_EQ(a.dropped_unallocated_asn, b.dropped_unallocated_asn);
  EXPECT_EQ(a.as_sets_removed, b.as_sets_removed);
  EXPECT_EQ(a.peer_prepended, b.peer_prepended);
  EXPECT_EQ(a.prepending_collapsed, b.prepending_collapsed);
  EXPECT_EQ(a.dropped_empty_path, b.dropped_empty_path);
  EXPECT_EQ(a.output, b.output);
}

util::TaskPool& pool_with(std::size_t workers) {
  static util::TaskPool serial(0);
  static util::TaskPool parallel(3);
  return workers == 0 ? serial : parallel;
}

class FeedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
 protected:
  void SetUp() override {
    const auto [seed, workers] = GetParam();
    dir_ = fs::temp_directory_path() /
           ("bgpcu_feed_prop_" + std::to_string(seed) + "_" + std::to_string(workers));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    reg_.allocate_asn_range(1, 55);
    reg_.allocate_prefix(bgp::Prefix::ipv4(0x0B000000, 8));
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Checks `poll` against a serial builder over `pending` (each file's
  /// bytes the feed has not consumed yet, by name), then records what the
  /// poll consumed in `consumed` and drops it from `pending`.
  void expect_matches_serial(const FeedPoll& poll, std::map<std::string, Bytes>& pending,
                             std::map<std::string, std::uint64_t>& consumed) {
    collector::DatasetBuilder serial(reg_);
    std::vector<std::string> files;
    for (auto& [path, bytes] : pending) {
      const auto prefix = complete_prefix(bytes);
      serial.add_dump(std::span(bytes.data(), prefix));
      consumed[path] += prefix;
      if (prefix > 0) files.push_back(path);
      bytes.erase(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(prefix));
    }
    const auto expected = serial.finish();
    ASSERT_EQ(poll.batch.size(), expected.dataset.size());
    for (std::size_t i = 0; i < expected.dataset.size(); ++i) {
      ASSERT_EQ(poll.batch[i], expected.dataset[i]) << "tuple " << i;
    }
    expect_same_extraction(poll.extraction, expected.extraction);
    expect_same_sanitation(poll.sanitation, expected.sanitation);
    EXPECT_EQ(poll.files, files);
    EXPECT_TRUE(poll.failed.empty());
  }

  fs::path dir_;
  registry::AllocationRegistry reg_;
};

TEST_P(FeedEquivalence, ParallelPollEqualsSerialBuilderInNameOrder) {
  const auto [seed, workers] = GetParam();
  topology::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  DirectoryFeed feed(dir_.string(), reg_, {}, 0, pool_with(workers));
  const RoutePool routes(rng);

  std::map<std::string, Bytes> pending;  // path -> bytes not yet consumed
  std::map<std::string, std::uint64_t> consumed;
  const auto files = 1 + rng.below(8);
  for (std::uint64_t f = 0; f < files; ++f) {
    // Random names, so name order differs from creation order.
    const auto path = (dir_ / ("dump." + std::to_string(rng.below(1000000)) + ".mrt")).string();
    auto bytes = random_dump(rng, routes);
    write_file(path, bytes, std::ios::trunc);
    pending[path] = std::move(bytes);
  }
  const auto first = feed.poll();
  expect_matches_serial(first, pending, consumed);

  // Collectors append: some files gain records (completing any partial
  // tail they had), the next poll must read exactly the new bytes.
  for (auto& [path, rest] : pending) {
    if (!rng.chance(0.5)) continue;
    const auto more = update_dump(rng, routes);
    write_file(path, more, std::ios::app);
    rest.insert(rest.end(), more.begin(), more.end());
  }
  const auto second = feed.poll();
  expect_matches_serial(second, pending, consumed);

  const auto marks = feed.export_marks();
  ASSERT_EQ(marks.size(), consumed.size());
  auto mark = marks.begin();
  for (const auto& [path, offset] : consumed) {
    EXPECT_EQ(mark->path, path);
    EXPECT_EQ(mark->offset, offset) << path;
    ++mark;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedEquivalence,
                         ::testing::Combine(::testing::Range<std::uint64_t>(1, 25),
                                            ::testing::Values<std::size_t>(0, 3)));

}  // namespace
}  // namespace bgpcu::stream
