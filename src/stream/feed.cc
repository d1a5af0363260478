#include "stream/feed.h"

#include <sys/mman.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <compare>
#include <filesystem>
#include <fstream>
#include <new>
#include <numeric>
#include <span>
#include <stdexcept>

#include "obs/trace.h"
#include "obs/wellknown.h"

namespace bgpcu::stream {

namespace fs = std::filesystem;

namespace {

/// Length of the prefix of `data` covered by complete MRT records (12-byte
/// common header + body). A trailing partial record is excluded, so a tail
/// read can stop at a clean frame boundary and resume when the writer
/// finishes the record.
std::size_t complete_record_prefix(std::span<const std::uint8_t> data) {
  constexpr std::size_t kHeaderSize = 12;
  std::size_t pos = 0;
  while (data.size() - pos >= kHeaderSize) {
    const std::uint32_t length = (static_cast<std::uint32_t>(data[pos + 8]) << 24) |
                                 (static_cast<std::uint32_t>(data[pos + 9]) << 16) |
                                 (static_cast<std::uint32_t>(data[pos + 10]) << 8) |
                                 static_cast<std::uint32_t>(data[pos + 11]);
    if (data.size() - pos - kHeaderSize < length) break;
    pos += kHeaderSize + length;
  }
  return pos;
}

/// The file's inode, or 0 when it cannot be stat'ed.
std::uint64_t inode_of(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino) : 0;
}

/// Takes blocks of 64 KiB and up straight from mmap. Extraction runs on
/// pool workers, and glibc gives each worker its own malloc arena; a worker
/// arena hands freed memory back only once its free top exceeds the trim
/// threshold, which grows with the process's largest freed buffers (up to
/// 64 MiB), and malloc_trim does not shrink it. A file's bytes and its run,
/// allocated there, stayed resident after the poll: peak RSS rose by the
/// largest file each worker had extracted. Mapped blocks are unmapped when
/// freed, and what the workers still take from their arenas is per-record
/// decode scratch.
template <class T>
struct MappedAllocator {
  using value_type = T;
  static constexpr std::size_t kMinMapped = std::size_t{64} << 10;

  MappedAllocator() = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}  // rebind

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMinMapped) return static_cast<T*>(::operator new(bytes));
    void* block =
        ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(block);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMinMapped) {
      ::operator delete(p);
    } else {
      ::munmap(p, bytes);
    }
  }
  friend bool operator==(const MappedAllocator&, const MappedAllocator&) noexcept { return true; }
};

template <class T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

/// Reads `path` from byte `offset` to EOF. Throws std::runtime_error when
/// the file cannot be opened or a hard read error occurs. A *short* read is
/// tolerated, not fatal: the size is sampled before the bytes are pulled, so
/// a writer truncating or rotating the file in between legitimately hands us
/// fewer bytes than the sample promised — the returned data is whatever was
/// actually read, and the next poll re-examines the file.
MappedVector<std::uint8_t> read_from_offset(const std::string& path, std::uint64_t offset) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open feed file: " + path);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size <= offset) return {};
  MappedVector<std::uint8_t> bytes(static_cast<std::size_t>(size - offset));
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  if (in.bad()) throw std::runtime_error("cannot read feed file: " + path);
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

/// core::deduplicate's order: path lexicographically, then the community set.
template <class PathA, class CommsA, class PathB, class CommsB>
std::strong_ordering tuple_order(const PathA& pa, const CommsA& ca, const PathB& pb,
                                 const CommsB& cb) {
  const auto by_path =
      std::lexicographical_compare_three_way(pa.begin(), pa.end(), pb.begin(), pb.end());
  if (by_path != 0) return by_path;
  return std::lexicographical_compare_three_way(ca.begin(), ca.end(), cb.begin(), cb.end());
}

/// One file's tuples laid out back to back, plus the order that lists them
/// sorted and without duplicates. An extraction task appends each tuple as
/// the extractor produces it and sorts the order; the polling thread merges
/// the runs and materialises the batch itself, so no per-tuple allocation
/// of a worker outlives the task.
class FlatRun {
 public:
  void append(const core::PathCommTuple& tuple) {
    asns_.insert(asns_.end(), tuple.path.begin(), tuple.path.end());
    comms_.insert(comms_.end(), tuple.comms.begin(), tuple.comms.end());
    ends_.emplace_back(asns_.size(), comms_.size());
  }

  /// Sorts the tuples into core::deduplicate's order and drops repeats.
  void sort_unique() {
    order_.resize(ends_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    const auto cmp = [this](std::size_t a, std::size_t b) {
      return tuple_order(path_at(a), comms_at(a), path_at(b), comms_at(b));
    };
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) { return cmp(a, b) < 0; });
    order_.erase(std::unique(order_.begin(), order_.end(),
                             [&](std::size_t a, std::size_t b) { return cmp(a, b) == 0; }),
                 order_.end());
  }

  /// Sorted, unique tuple count (after sort_unique).
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  /// The i-th tuple in sorted order.
  [[nodiscard]] std::span<const bgp::Asn> path(std::size_t i) const { return path_at(order_[i]); }
  [[nodiscard]] std::span<const bgp::CommunityValue> comms(std::size_t i) const {
    return comms_at(order_[i]);
  }

 private:
  [[nodiscard]] std::span<const bgp::Asn> path_at(std::size_t t) const {
    const std::size_t begin = t == 0 ? 0 : ends_[t - 1].first;
    return {asns_.data() + begin, ends_[t].first - begin};
  }
  [[nodiscard]] std::span<const bgp::CommunityValue> comms_at(std::size_t t) const {
    const std::size_t begin = t == 0 ? 0 : ends_[t - 1].second;
    return {comms_.data() + begin, ends_[t].second - begin};
  }

  MappedVector<bgp::Asn> asns_;
  MappedVector<bgp::CommunityValue> comms_;
  /// Per appended tuple: one past its last ASN and its last community;
  /// tuple t starts where tuple t - 1 ends.
  MappedVector<std::pair<std::size_t, std::size_t>> ends_;
  MappedVector<std::size_t> order_;
};

/// K-way merge of sorted, unique runs into one sorted, unique dataset —
/// exactly what core::deduplicate returns over their concatenation. Ties
/// between runs resolve in run order (equal tuples are identical anyway).
core::Dataset merge_runs(const std::vector<const FlatRun*>& runs) {
  struct Head {
    const FlatRun* run;
    std::size_t index;  ///< Next tuple of `run`.
    std::size_t order;  ///< Run position, the tie-break.
  };
  // std::push_heap builds a max-heap, so "after" puts the smallest on top.
  const auto after = [](const Head& a, const Head& b) {
    const auto cmp = tuple_order(a.run->path(a.index), a.run->comms(a.index),
                                 b.run->path(b.index), b.run->comms(b.index));
    return cmp != 0 ? cmp > 0 : a.order > b.order;
  };
  std::vector<Head> heap;
  std::size_t total = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    total += runs[i]->size();
    if (runs[i]->size() != 0) heap.push_back({runs[i], 0, i});
  }
  std::make_heap(heap.begin(), heap.end(), after);

  core::Dataset out;
  out.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    auto& head = heap.back();
    const auto path = head.run->path(head.index);
    const auto comms = head.run->comms(head.index);
    if (out.empty() || tuple_order(out.back().path, out.back().comms, path, comms) != 0) {
      auto& tuple = out.emplace_back();
      tuple.path.assign(path.begin(), path.end());
      tuple.comms.assign(comms.begin(), comms.end());
    }
    if (++head.index < head.run->size()) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return out;
}

}  // namespace

bool DirectoryFeed::head_changed(const std::string& path, const FileState& state) {
  if (state.head.empty()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string head(state.head.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (in.bad()) return false;
  head.resize(static_cast<std::size_t>(in.gcount()));
  return head != state.head;
}

DirectoryFeed::DirectoryFeed(std::string directory, const registry::AllocationRegistry& registry,
                             std::string extension, std::uint32_t settle_seconds,
                             util::TaskPool& pool)
    : directory_(std::move(directory)),
      registry_(&registry),
      extension_(std::move(extension)),
      settle_seconds_(settle_seconds),
      pool_(&pool) {}

struct DirectoryFeed::FileRead {
  bool failed = false;
  FileState state;            ///< The file's state after this read.
  std::size_t consumed = 0;   ///< Bytes of complete records extracted.
  FlatRun run;
  collector::ExtractionStats extraction;
  collector::SanitationStats sanitation;
};

DirectoryFeed::FileRead DirectoryFeed::read_file(const FreshFile& file) const {
  FileRead read;
  read.state = file.state;
  auto& state = read.state;
  try {
    if (before_read_hook_) before_read_hook_(file.path);
    state.inode = inode_of(file.path);
    // The scan-time stamp, deliberately: a write landing between the scan's
    // stat and this read moves the real mtime past the recorded one, so the
    // next poll re-examines the file rather than skipping it.
    state.mtime_seen = file.mtime_ticks;
    const bool from_start = state.offset == 0;
    const auto bytes = read_from_offset(file.path, state.offset);
    if (from_start && !bytes.empty()) {
      // Fingerprint the head while it is in hand: later polls compare these
      // bytes to detect in-place rewrites the size cannot show.
      state.head.assign(reinterpret_cast<const char*>(bytes.data()),
                        std::min<std::size_t>(kHeadFingerprint, bytes.size()));
    }
    read.consumed = complete_record_prefix(bytes);
    collector::TupleExtractor extractor(*registry_);
    extractor.add_dump(std::span(bytes.data(), read.consumed),
                       [&read](core::PathCommTuple&& tuple) { read.run.append(tuple); });
    read.run.sort_unique();
    read.extraction = extractor.extraction();
    read.sanitation = extractor.sanitation();
    state.offset += read.consumed;
    state.size_seen = state.offset + (bytes.size() - read.consumed);
  } catch (const std::exception&) {
    read = FileRead{};
    read.failed = true;
  }
  return read;
}

FeedPoll DirectoryFeed::poll() {
  auto& m = obs::metrics();
  m.feed_polls.add(1);
  obs::StageTimer poll_span(m.feed_poll_ns);
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) throw std::runtime_error("cannot scan feed directory " + directory_ + ": " + ec.message());

  // error_code overloads throughout the scan: a writer renaming or deleting
  // a file between the iterator yielding it and us stat-ing it is a normal
  // race for a tailed directory, not a reason to kill the service.
  std::vector<FreshFile> fresh;
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || ec) continue;
    const auto& path = it->path();
    if (!extension_.empty() && path.extension() != extension_) continue;
    const auto mtime = it->last_write_time(ec);
    // An unreadable mtime is recorded as 0 (never matches a real one), so
    // the next poll re-examines the file instead of trusting a stale stamp.
    const std::int64_t mtime_ticks =
        ec ? 0 : mtime.time_since_epoch().count();
    // Quiescence guard against collectors that write in place (no atomic
    // rename): leave a file alone until it stopped changing for the settle
    // window, so a half-written dump's tail is not permanently missed.
    if (settle_seconds_ != 0) {
      if (ec) continue;
      const auto age = std::chrono::duration_cast<std::chrono::seconds>(
          fs::file_time_type::clock::now() - mtime);
      if (age.count() < static_cast<std::int64_t>(settle_seconds_)) continue;
    }
    const auto size = it->file_size(ec);
    if (ec) continue;
    auto text = path.string();
    const auto state = files_.find(text);
    if (state != files_.end()) {
      // Rotation or rewrite reusing the name must start the file over,
      // whatever the replacement's size — tail-reading it from the stale
      // offset would misparse unrelated content. Three independent
      // detectors, because no single one covers every rewrite shape:
      // inode identity catches rename-rotation, the size check catches
      // shrinking in-place rewrites, and the first-bytes fingerprint
      // catches in-place rewrites that keep the inode *and* land on the
      // same or a larger size (O_TRUNC + rewrite on most filesystems).
      // The fingerprint read is gated on the mtime/size stamps, so a file
      // untouched since the last poll costs no open() to skip.
      const bool touched = mtime_ticks == 0 || mtime_ticks != state->second.mtime_seen ||
                           size != state->second.size_seen;
      const auto inode = inode_of(text);
      if ((state->second.inode != 0 && inode != 0 && inode != state->second.inode) ||
          size < state->second.size_seen ||
          (touched && head_changed(text, state->second))) {
        state->second = FileState{};
      } else if (size == state->second.size_seen) {
        // Touched but same size and same head (or untouched entirely):
        // nothing new to read. Remember the stamp so the fingerprint is
        // not re-verified every poll after a content-free touch.
        state->second.mtime_seen = mtime_ticks;
        continue;
      }
    }
    fresh.push_back({std::move(text), mtime_ticks,
                     state != files_.end() ? state->second : FileState{}});
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const FreshFile& a, const FreshFile& b) { return a.path < b.path; });

  FeedPoll result;
  if (fresh.empty()) return result;

  // One task per file, claimed from a shared cursor by at most
  // parallelism() - 1 lanes: the remaining core keeps the serving threads'
  // query sweeps responsive while a large poll is in flight. One lane runs
  // on this thread without touching the pool (TaskPool::parallel_for runs a
  // count of 1 inline), so single-file polls never wait for the pool.
  std::vector<FileRead> reads(fresh.size());
  std::atomic<std::size_t> next{0};
  const std::size_t lanes =
      std::clamp<std::size_t>(pool_->parallelism() - 1, 1, fresh.size());
  pool_->parallel_for(lanes, [&](std::size_t) {
    for (auto i = next.fetch_add(1); i < fresh.size(); i = next.fetch_add(1)) {
      reads[i] = read_file(fresh[i]);
    }
  });

  // Bookkeeping in name order. A file that vanished or is unreadable keeps
  // its recorded offset (retried next poll) and contributes nothing.
  std::vector<const FlatRun*> runs;
  runs.reserve(reads.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const auto& path = fresh[i].path;
    const auto& read = reads[i];
    if (read.failed) {
      result.failed.push_back(path);
      m.feed_read_failures.add(1);
      continue;
    }
    files_[path] = read.state;
    runs.push_back(&read.run);
    result.extraction += read.extraction;
    result.sanitation += read.sanitation;
    // A poll that found only a partial trailing record consumed nothing:
    // don't report the file, or a data-less poll would count as an
    // ingesting epoch upstream (burning --window retention on no input).
    // The updated size_seen still prevents re-reading the tail every poll.
    if (read.consumed > 0) {
      m.feed_bytes_read.add(read.consumed);
      result.files.push_back(path);
    }
  }
  result.batch = merge_runs(runs);
  if (!result.files.empty()) m.feed_files_parsed.add(result.files.size());
  if (result.extraction.decode_errors != 0) {
    m.feed_decode_errors.add(result.extraction.decode_errors);
  }
  if (!result.batch.empty()) m.feed_tuples_extracted.add(result.batch.size());
  return result;
}

FeedMarks DirectoryFeed::export_marks() const {
  FeedMarks marks;
  marks.reserve(files_.size());
  for (const auto& [path, state] : files_) marks.push_back({path, state.offset});
  std::sort(marks.begin(), marks.end(),
            [](const FeedMark& a, const FeedMark& b) { return a.path < b.path; });
  return marks;
}

void DirectoryFeed::restore_marks(const FeedMarks& marks) {
  for (const auto& mark : marks) {
    FileState state;
    state.offset = mark.offset;
    // size_seen == offset means "no unconsumed tail": a file that has not
    // grown past the mark is skipped with a single stat, one that has is
    // read from the mark, and one that shrank below it is restarted (the
    // size < size_seen rotation check). Inode and head stay unrecorded; the
    // first real read re-fingerprints the file.
    state.size_seen = mark.offset;
    files_[mark.path] = state;
  }
}

}  // namespace bgpcu::stream
