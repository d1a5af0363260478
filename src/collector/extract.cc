#include "collector/extract.h"

#include <algorithm>

#include "bgp/message.h"
#include "mrt/bgp4mp.h"
#include "mrt/reader.h"
#include "mrt/table_dump_v2.h"

namespace bgpcu::collector {

ExtractionStats& ExtractionStats::operator+=(const ExtractionStats& other) noexcept {
  entries_total += other.entries_total;
  rib_entries += other.rib_entries;
  update_messages += other.update_messages;
  withdrawals += other.withdrawals;
  decode_errors += other.decode_errors;
  communities_total += other.communities_total;
  large_communities_total += other.large_communities_total;
  return *this;
}

void DatasetBundle::merge(DatasetBundle&& other) {
  dataset.reserve(dataset.size() + other.dataset.size());
  dataset.insert(dataset.end(), std::make_move_iterator(other.dataset.begin()),
                 std::make_move_iterator(other.dataset.end()));
  core::deduplicate(dataset);
  extraction += other.extraction;
  sanitation += other.sanitation;
  raw_asns.merge(other.raw_asns);
  unique_comms.merge(other.unique_comms);
  session_peers.merge(other.session_peers);
}

template <class Census, class TupleSink>
void TupleExtractor::walk(std::span<const std::uint8_t> dump, Census&& census, TupleSink&& sink) {
  const auto emit = [&](const RawEntry& entry) {
    census(entry);
    ++extraction_.entries_total;
    if (entry.from_rib) ++extraction_.rib_entries;
    for (const auto& c : entry.comms) {
      ++extraction_.communities_total;
      if (c.kind == bgp::CommunityKind::kLarge) ++extraction_.large_communities_total;
    }
    if (auto tuple = sanitizer_.process(entry)) sink(std::move(*tuple));
  };
  mrt::MrtReader reader(dump);
  std::optional<mrt::PeerIndexTable> peer_table;

  while (auto rec = reader.next()) {
    try {
      switch (rec->mrt_type()) {
        case mrt::MrtType::kTableDumpV2: {
          const auto subtype = static_cast<mrt::TableDumpV2Subtype>(rec->subtype);
          if (subtype == mrt::TableDumpV2Subtype::kPeerIndexTable) {
            peer_table = mrt::PeerIndexTable::decode(rec->body);
            break;
          }
          auto rib = mrt::RibRecord::decode(rec->body, subtype);
          for (auto& entry : rib.entries) {
            if (!peer_table || entry.peer_index >= peer_table->peers.size()) {
              ++extraction_.decode_errors;
              continue;
            }
            RawEntry raw;
            raw.prefix = rib.prefix;
            raw.session_peer_asn = peer_table->peers[entry.peer_index].asn;
            // Each RIB entry is consumed exactly once: steal its path
            // instead of deep-copying the ASN vectors.
            if (entry.attributes.as_path) raw.as_path = std::move(*entry.attributes.as_path);
            raw.comms = entry.attributes.all_communities();
            raw.from_rib = true;
            emit(raw);
          }
          break;
        }
        case mrt::MrtType::kBgp4mp:
        case mrt::MrtType::kBgp4mpEt: {
          const auto subtype = static_cast<mrt::Bgp4mpSubtype>(rec->subtype);
          if (subtype != mrt::Bgp4mpSubtype::kMessage &&
              subtype != mrt::Bgp4mpSubtype::kMessageAs4) {
            break;  // state changes carry no routes
          }
          const auto msg = mrt::Bgp4mpMessage::decode(rec->body, subtype);
          const auto header = bgp::peek_header(msg.bgp_message);
          if (header.type != bgp::MessageType::kUpdate) break;
          ++extraction_.update_messages;
          auto update = bgp::UpdateMessage::decode(msg.bgp_message, msg.as4);
          extraction_.withdrawals += update.withdrawn.size();
          if (update.attributes.mp_unreach) {
            extraction_.withdrawals += update.attributes.mp_unreach->withdrawn.size();
          }
          // All announced prefixes share one attribute block: build the
          // entry once (moving the path and merged communities in) and only
          // swap the prefix per NLRI, instead of re-copying path +
          // communities for every prefix.
          RawEntry raw;
          raw.session_peer_asn = msg.peer_asn;
          raw.comms = update.attributes.all_communities();
          if (update.attributes.as_path) raw.as_path = std::move(*update.attributes.as_path);
          raw.from_rib = false;
          const auto ingest_prefix = [&](const bgp::Prefix& prefix) {
            raw.prefix = prefix;
            emit(raw);
          };
          for (const auto& prefix : update.nlri) ingest_prefix(prefix);
          if (update.attributes.mp_reach) {
            for (const auto& prefix : update.attributes.mp_reach->nlri) ingest_prefix(prefix);
          }
          break;
        }
        default:
          break;
      }
    } catch (const bgp::WireError&) {
      ++extraction_.decode_errors;
    }
  }
}

void TupleExtractor::add_dump(std::span<const std::uint8_t> dump, const Sink& sink) {
  walk(dump, [](const RawEntry&) {}, sink);
}

void DatasetBuilder::add_dump(std::span<const std::uint8_t> dump) {
  extractor_.walk(
      dump,
      [this](const RawEntry& entry) {
        bundle_.session_peers.insert(entry.session_peer_asn);
        for (const auto& segment : entry.as_path.segments()) {
          for (const bgp::Asn asn : segment.asns) bundle_.raw_asns.insert(asn);
        }
        for (const auto& c : entry.comms) bundle_.unique_comms.insert(c);
      },
      [this](core::PathCommTuple&& tuple) { bundle_.dataset.push_back(std::move(tuple)); });
}

DatasetBundle DatasetBuilder::finish() {
  bundle_.extraction = extractor_.extraction();
  bundle_.sanitation = extractor_.sanitation();
  core::deduplicate(bundle_.dataset);
  return std::move(bundle_);
}

DatasetStats compute_stats(const DatasetBundle& bundle, const registry::AllocationRegistry& reg) {
  DatasetStats s;
  s.entries_total = bundle.extraction.entries_total;
  s.rib_entries = bundle.extraction.rib_entries;
  s.unique_tuples = bundle.dataset.size();
  s.asns_raw = bundle.raw_asns.size();
  s.communities_total = bundle.extraction.communities_total;
  s.large_communities_total = bundle.extraction.large_communities_total;
  s.collector_peers = bundle.session_peers.size();

  // Post-cleaning AS statistics.
  const auto asns = core::distinct_asns(bundle.dataset);
  s.asns_clean = asns.size();
  s.asns_32bit = static_cast<std::uint64_t>(
      std::count_if(asns.begin(), asns.end(), [](bgp::Asn a) { return bgp::is_32bit_asn(a); }));

  std::unordered_set<bgp::Asn> transit;
  std::unordered_set<bgp::Asn> uppers_on_path;  // "w/o stray" survivors
  for (const auto& tuple : bundle.dataset) {
    for (std::size_t i = 0; i + 1 < tuple.path.size(); ++i) transit.insert(tuple.path[i]);
    for (const auto& c : tuple.comms) {
      if (std::find(tuple.path.begin(), tuple.path.end(), c.upper) != tuple.path.end()) {
        uppers_on_path.insert(c.upper);
      }
    }
  }
  std::uint64_t leafs = 0;
  for (const auto asn : asns) {
    if (!transit.contains(asn)) ++leafs;
  }
  s.leaf_ases = leafs;

  // Unique community / upper-field statistics over the raw value universe.
  std::unordered_set<bgp::Asn> uppers_regular, uppers_large, uppers_all, uppers_public;
  for (const auto& c : bundle.unique_comms) {
    if (c.kind == bgp::CommunityKind::kLarge) {
      ++s.unique_large_communities;
      uppers_large.insert(c.upper);
    } else {
      uppers_regular.insert(c.upper);
    }
    ++s.unique_communities;
    uppers_all.insert(c.upper);
    if (reg.is_public_allocated(c.upper)) uppers_public.insert(c.upper);
  }
  s.uniq_upper_regular = uppers_regular.size();
  s.uniq_upper_large = uppers_large.size();
  s.uniq_upper_both = uppers_all.size();
  s.uniq_upper_wo_private = uppers_public.size();
  s.uniq_upper_wo_stray = static_cast<std::uint64_t>(
      std::count_if(uppers_public.begin(), uppers_public.end(),
                    [&uppers_on_path](bgp::Asn a) { return uppers_on_path.contains(a); }));
  return s;
}

}  // namespace bgpcu::collector
