// Directory feed: turns a directory that collectors (or the repo's own MRT
// writer) drop update/RIB dumps into, into PathCommTuple batches for the
// stream engine. Each poll scans for files not yet processed, decodes them
// through the standard extraction + sanitation pipeline, and returns one
// batch. Files are processed in lexicographic name order — collector
// archives name dumps by timestamp (updates.20210519.0845), so name order is
// arrival order.
#ifndef BGPCU_STREAM_FEED_H
#define BGPCU_STREAM_FEED_H

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "collector/extract.h"
#include "core/types.h"
#include "registry/registry.h"
#include "util/task_pool.h"

namespace bgpcu::stream {

/// Result of one directory scan.
struct FeedPoll {
  core::Dataset batch;                  ///< Sanitized, deduplicated tuples.
  /// Paths whose newly read bytes contained at least one complete record,
  /// in order. A file with only a partial trailing record stays unlisted
  /// (and unconsumed) until the writer completes it.
  std::vector<std::string> files;
  std::vector<std::string> failed;      ///< Unreadable paths; retried next poll.
  collector::ExtractionStats extraction;
  collector::SanitationStats sanitation;

  [[nodiscard]] bool empty() const noexcept { return files.empty(); }
};

/// One file's durable read position: how many bytes of `path` have been
/// consumed into the engine. Recorded in the durable store's WAL so a
/// restarted feed resumes tailing without re-parsing consumed MRT bytes.
struct FeedMark {
  std::string path;
  std::uint64_t offset = 0;

  friend bool operator==(const FeedMark&, const FeedMark&) = default;
};

using FeedMarks = std::vector<FeedMark>;

/// Tails a directory of MRT dumps. Not thread-safe (one poller per feed).
class DirectoryFeed {
 public:
  /// `registry` must outlive the feed. Only files with `extension` (default:
  /// any) are considered; set e.g. ".mrt" to skip snapshots written next to
  /// the inputs. `settle_seconds` > 0 skips files modified within the last N
  /// seconds, protecting against collectors that write dumps in place
  /// instead of renaming them in (a partial file read once would otherwise
  /// be marked seen and its tail lost forever). A poll with several fresh
  /// files extracts them on `pool` (which must outlive the feed).
  DirectoryFeed(std::string directory, const registry::AllocationRegistry& registry,
                std::string extension = {}, std::uint32_t settle_seconds = 0,
                util::TaskPool& pool = util::TaskPool::shared());

  /// Scans for unseen files *and files that grew since the last poll* and
  /// extracts only their new bytes: the feed remembers a per-file read
  /// offset, so re-polling a growing MRT file parses just the appended
  /// records (incremental tailing). A record straddling the current end of
  /// file is left unconsumed and re-read once the writer completes it.
  /// Returns an empty poll when nothing new appeared. Throws
  /// std::runtime_error only when the directory itself cannot be scanned; an
  /// individual file that cannot be read (race with a writer, permissions)
  /// is reported in FeedPoll::failed, its offset untouched, and retried on
  /// the next poll. Decode errors inside a file are counted, not thrown.
  ///
  /// Each fresh file is extracted as its own task on the pool, by at most
  /// parallelism() - 1 lanes (one core stays with the serving threads; a
  /// single file, or a pool of one or two threads, runs on the calling
  /// thread). The tasks' sorted runs are merged in file-name order, so the
  /// batch equals one serial DatasetBuilder over the same bytes.
  [[nodiscard]] FeedPoll poll();

  /// Number of distinct paths the feed has read bytes from.
  [[nodiscard]] std::size_t files_seen() const noexcept { return files_.size(); }

  /// Consumed offset per known path, sorted by path (deterministic output
  /// for the durable store's WAL records).
  [[nodiscard]] FeedMarks export_marks() const;

  /// Primes the feed with recovered offsets: each marked path starts as if
  /// `offset` bytes were already consumed, so the next poll reads only what
  /// the file grew past the mark. Identity fingerprints (inode, head) are
  /// left unrecorded; a file rotated while the process was down is detected
  /// by the usual size-shrink check and re-read from the start.
  void restore_marks(const FeedMarks& marks);

  /// Test instrumentation: invoked with each fresh file's path right before
  /// its bytes are read, on whichever thread extracts it (a pool worker or
  /// the caller). Lets tests fail a read or hold a parallel poll in flight.
  /// Set before polling; not synchronized itself.
  void set_before_read_hook(std::function<void(const std::string&)> hook) {
    before_read_hook_ = std::move(hook);
  }

 private:
  /// Tail-reading bookkeeping for one path.
  struct FileState {
    std::uint64_t offset = 0;     ///< Bytes consumed (complete MRT records).
    std::uint64_t size_seen = 0;  ///< File size at the last read; a poll
                                  ///< re-reads only when the file outgrew it.
    std::uint64_t inode = 0;      ///< Identity at the last read: rotation
                                  ///< reusing the name (any new size) resets
                                  ///< the offset. 0 = not yet recorded.
    /// Modification time (file_time_type ticks) observed at the last scan.
    /// Gates the fingerprint comparison: a file whose size *and* mtime are
    /// unchanged since the last poll is skipped without opening it, so
    /// steady-state polls over fully consumed files stay stat-only.
    std::int64_t mtime_seen = 0;
    /// First bytes of the file as read at offset 0 (up to kHeadFingerprint).
    /// An in-place rewrite keeps the inode and may keep or grow the size —
    /// the only signal left is the content itself, so a head mismatch on a
    /// later poll restarts the file. Empty = not yet captured.
    std::string head;
  };

  /// How many leading bytes the rewrite fingerprint covers.
  static constexpr std::size_t kHeadFingerprint = 64;

  /// A file the scan found new bytes in, with its state before this poll.
  struct FreshFile {
    std::string path;
    std::int64_t mtime_ticks = 0;
    FileState state;
  };

  /// One fresh file's extraction (defined in feed.cc).
  struct FileRead;

  /// Reads and extracts one fresh file; runs on a pool thread. Touches no
  /// member state but the registry and the hook.
  [[nodiscard]] FileRead read_file(const FreshFile& file) const;

  /// True when `path`'s current first bytes no longer match `state.head`
  /// (the file was rewritten in place). Unreadable files report false — the
  /// read phase deals with them.
  [[nodiscard]] static bool head_changed(const std::string& path, const FileState& state);

  std::string directory_;
  const registry::AllocationRegistry* registry_;
  std::string extension_;
  std::uint32_t settle_seconds_ = 0;
  util::TaskPool* pool_;
  std::unordered_map<std::string, FileState> files_;
  std::function<void(const std::string&)> before_read_hook_;
};

}  // namespace bgpcu::stream

#endif  // BGPCU_STREAM_FEED_H
