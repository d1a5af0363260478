// MRT extraction: walks dump buffers, decodes RIB and update records into
// raw route entries, pipes them through the sanitizer, and accumulates the
// dataset + the statistics behind the paper's Table 1.
#ifndef BGPCU_COLLECTOR_EXTRACT_H
#define BGPCU_COLLECTOR_EXTRACT_H

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "collector/sanitize.h"
#include "core/types.h"
#include "registry/registry.h"

namespace bgpcu::collector {

/// Raw-input counters (pre-sanitation).
struct ExtractionStats {
  std::uint64_t entries_total = 0;  ///< RIB entries + announced NLRI.
  std::uint64_t rib_entries = 0;
  std::uint64_t update_messages = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t decode_errors = 0;  ///< Records skipped due to body corruption.
  std::uint64_t communities_total = 0;       ///< Community occurrences.
  std::uint64_t large_communities_total = 0;

  ExtractionStats& operator+=(const ExtractionStats& other) noexcept;
};

/// A dataset with everything needed to print a Table-1 column.
struct DatasetBundle {
  core::Dataset dataset;  ///< Sanitized, deduplicated tuples.
  ExtractionStats extraction;
  SanitationStats sanitation;
  std::unordered_set<bgp::Asn> raw_asns;       ///< Distinct ASNs pre-cleaning.
  std::unordered_set<bgp::CommunityValue> unique_comms;
  std::unordered_set<bgp::Asn> session_peers;  ///< Distinct MRT peer ASNs.

  /// Merges another bundle (for the RIPE+RouteViews+Isolario aggregate).
  void merge(DatasetBundle&& other);
};

/// The extraction every consumer shares: walks MRT dump buffers, decodes RIB
/// and update records into raw entries, counts them (ExtractionStats) and
/// sanitizes them. Each surviving tuple goes to the caller's sink as it is
/// produced, so the caller decides how tuples are stored; nothing is kept
/// per tuple here, and no Table-1 census is taken.
class TupleExtractor {
 public:
  /// Receives each sanitized tuple (communities normalized) in dump order,
  /// duplicates included.
  using Sink = std::function<void(core::PathCommTuple&&)>;

  explicit TupleExtractor(const registry::AllocationRegistry& reg) : sanitizer_(reg) {}

  /// Extracts one dump (RIB or update file image). Decode errors are counted
  /// per record and do not abort the dump.
  void add_dump(std::span<const std::uint8_t> dump, const Sink& sink);

  [[nodiscard]] const ExtractionStats& extraction() const noexcept { return extraction_; }
  [[nodiscard]] const SanitationStats& sanitation() const noexcept { return sanitizer_.stats(); }

 private:
  friend class DatasetBuilder;

  /// The one MRT decode walk: every raw entry goes to `census` (before
  /// sanitation) and every sanitized tuple to `sink`.
  template <class Census, class TupleSink>
  void walk(std::span<const std::uint8_t> dump, Census&& census, TupleSink&& sink);

  Sanitizer sanitizer_;
  ExtractionStats extraction_;
};

/// Streaming builder: feed MRT dump buffers, then `finish()`. A
/// TupleExtractor that collects the tuples into a dataset and takes the
/// Table-1 census of raw ASNs, communities and session peers.
class DatasetBuilder {
 public:
  explicit DatasetBuilder(const registry::AllocationRegistry& reg) : extractor_(reg) {}

  /// Extracts one dump (RIB or update file image). Decode errors are counted
  /// per record and do not abort the dump.
  void add_dump(std::span<const std::uint8_t> dump);

  /// Deduplicates and returns the bundle; the builder is spent afterwards.
  [[nodiscard]] DatasetBundle finish();

 private:
  TupleExtractor extractor_;
  DatasetBundle bundle_;
};

/// The derived Table-1 row values for one dataset.
struct DatasetStats {
  std::uint64_t entries_total = 0;
  std::uint64_t rib_entries = 0;
  std::uint64_t unique_tuples = 0;
  std::uint64_t asns_raw = 0;
  std::uint64_t asns_clean = 0;
  std::uint64_t leaf_ases = 0;
  std::uint64_t asns_32bit = 0;
  std::uint64_t collector_peers = 0;
  std::uint64_t communities_total = 0;
  std::uint64_t large_communities_total = 0;
  std::uint64_t unique_communities = 0;
  std::uint64_t unique_large_communities = 0;
  std::uint64_t uniq_upper_regular = 0;
  std::uint64_t uniq_upper_large = 0;
  std::uint64_t uniq_upper_both = 0;
  std::uint64_t uniq_upper_wo_private = 0;
  std::uint64_t uniq_upper_wo_stray = 0;
};

/// Computes the Table-1 values from a bundle (unique uppers, leaf/32-bit AS
/// counts, stray/private reductions per §3.2/§4.2).
[[nodiscard]] DatasetStats compute_stats(const DatasetBundle& bundle,
                                         const registry::AllocationRegistry& reg);

}  // namespace bgpcu::collector

#endif  // BGPCU_COLLECTOR_EXTRACT_H
