// Shared pieces of the end-to-end benchmark: the synthetic world and its MRT
// archives, the in-process daemon (the epoch loop of tools/bgpcu_serve.cc
// plus a net::Server on TCP loopback), the load generators that talk to it
// through net::Client, span recording, and failure accounting.
//
// Everything the benchmark times is a call into a public function of the
// library; nothing inside src/ is instrumented for it.
#ifndef E2EBENCH_COMMON_H
#define E2EBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/service.h"
#include "collector/spec.h"
#include "core/types.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/http.h"
#include "sim/substrate.h"
#include "store/store.h"
#include "stream/feed.h"
#include "topology/generator.h"

namespace e2e {

using namespace bgpcu;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

[[nodiscard]] inline double ms_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: a small world and short phases, same code paths.
  bool tiny = false;
  /// Deliberate corruption applied before a gate, to show the gate fires:
  /// "drop_event" (one subscriber event) or "alter_counter" (one counter of
  /// the recovered map). Empty in every measured run.
  std::string mutate;
  std::string work_dir;    ///< Scratch directory inside the checkout.
  std::string spans_path;  ///< Where a traced run writes its spans (JSONL).
};

// --------------------------------------------------------------- world --

struct World {
  std::uint64_t seed = 1;
  topology::GeneratedTopology topo;
  std::vector<collector::ProjectSpec> projects;
  sim::PathSubstrate substrate;
  core::Dataset dataset;
  std::vector<bgp::Asn> popular_asns;  ///< Query targets, most popular first.
};

/// One MRT archive file as a collector would publish it.
struct MrtFile {
  std::string name;
  std::string project;
  bool rib = false;  ///< TABLE_DUMP_V2 RIB dump; false = BGP4MP updates.
  std::vector<std::uint8_t> bytes;
};

/// The synthetic Internet (fixed for every seed) with `seed` recorded for
/// the collectors' emission draws.
[[nodiscard]] World make_world(std::uint64_t seed, bool tiny);

/// One collector day: every collector's RIB and update dumps, through
/// collector::emit_project. The world's seed drives the emission draws
/// (which routes are re-announced, duplicated, withdrawn, prepended, bogus).
[[nodiscard]] std::vector<MrtFile> emit_day(const World& world);

/// Splits an update dump into `parts` files at MRT record boundaries, the
/// way collectors rotate update archives every few minutes.
[[nodiscard]] std::vector<MrtFile> split_records(const MrtFile& file, std::size_t parts);

/// Writes `file` under a temporary name and renames it into `dir`.
void land(const std::string& dir, const MrtFile& file);

// ------------------------------------------------------------- failures --

/// Operation accounting: every poll, store call, query and expected
/// delivery is an attempt; failed store returns, a degraded store, unreadable
/// feed files, client protocol/transport errors, busy answers and slow-peer
/// disconnects are failures.
class Ops {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> notes() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> notes_;  ///< First few failure descriptions.
};

// --------------------------------------------------------------- spans --

struct Span {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::string name;
  TimePoint start;
  TimePoint end;
};

/// In-memory span store, written out once at the end of a traced run.
class Tracer {
 public:
  [[nodiscard]] std::uint64_t next_id() { return next_.fetch_add(1); }
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] bool write_jsonl(const std::string& path, TimePoint origin) const;

 private:
  std::atomic<std::uint64_t> next_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- daemon --

struct DaemonConfig {
  api::ServiceConfig service;
  store::StoreConfig store;
  bool metrics_http = false;
};

/// bgpcu_serve's objects, wired as its main() wires them: a Service, its
/// durable Store, a DirectoryFeed on the watch directory, and a net::Server
/// on an ephemeral loopback port at the daemon's default server settings.
class Daemon {
 public:
  Daemon(const World& world, const std::string& watch_dir, DaemonConfig config);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener->port(); }
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics->port(); }

  api::Service service;
  store::Store store;
  stream::DirectoryFeed feed;
  std::shared_ptr<net::TcpListener> listener;
  std::optional<obs::MetricsHttpServer> metrics;
  net::Server server;
  std::uint64_t polls = 0;  ///< Ingesting polls so far.
};

/// What one pass of the epoch loop did, with a timestamp after each stage.
struct EpochRecord {
  stream::Epoch epoch = 0;
  TimePoint due;  ///< When its input was due (open loop) or asked for (closed).
  TimePoint start, polled, advanced, wal_batched, ingested, published, wal_delta_done, checkpointed;
  std::vector<std::string> files;
  std::uint64_t bytes = 0;
  std::uint64_t accepted = 0;
  std::uint64_t decode_errors = 0;
  bool wrote_checkpoint = false;
  bool traced = false;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  api::EpochDelta delta;
};

/// One pass of bgpcu_serve's epoch loop, in its order: DirectoryFeed::poll,
/// Service::advance_epoch, Store::append_epoch_batch, Service::ingest,
/// Service::publish, Store::append_epoch_delta, Store::maybe_checkpoint.
/// Unlike the daemon it counts every failed store return, a degraded store
/// and every unreadable file in `ops`. Returns false when nothing was new.
/// `sizes` maps landed file names to their byte counts.
bool run_epoch(Daemon& daemon, const std::map<std::string, std::uint64_t>& sizes, Ops& ops,
               EpochRecord& record);

// ---------------------------------------------------------- subscribers --

struct Received {
  std::uint64_t subscription = 0;
  stream::Epoch epoch = 0;
  TimePoint at;  ///< When next_event() returned the decoded frame.
  std::vector<stream::ClassChange> changes;
};

/// One subscriber connection holding several subscriptions, drained by its
/// own thread through net::Client::next_event.
class Subscriber {
 public:
  Subscriber(std::uint16_t port, const std::vector<api::SubscriptionFilter>& filters,
             Ops& ops);
  ~Subscriber();
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  /// Blocks until `count` events arrived or `timeout` passed.
  bool wait_for(std::size_t count, std::chrono::milliseconds timeout) const;
  /// Joins the drainer; call after the server closed the connection.
  void join();

  [[nodiscard]] std::vector<Received> received() const;
  /// (subscription id, filter), in subscription order.
  std::vector<std::pair<std::uint64_t, api::SubscriptionFilter>> subscriptions;

 private:
  void drain();

  Ops& ops_;
  std::unique_ptr<net::Client> client_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::vector<Received> received_;
  std::thread thread_;  ///< Declared last: starts after the members it uses.
};

// -------------------------------------------------------------- queries --

struct QuerySample {
  api::QueryKind kind = api::QueryKind::kClassOf;
  bgp::Asn asn = 0;
  TimePoint due, done;
  std::optional<core::UsageClass> answer;  ///< kClassOf only.
};

/// A query connection on its own thread. Open loop at `rate_per_s` > 0
/// (kClassOf probes, each timed from its due time), or closed loop with the
/// query_mix blend when `rate_per_s` is 0.
class QueryWorker {
 public:
  QueryWorker(std::uint16_t port, const World& world, std::uint64_t seed, double rate_per_s,
              Ops& ops);
  ~QueryWorker();
  QueryWorker(const QueryWorker&) = delete;
  QueryWorker& operator=(const QueryWorker&) = delete;

  void stop();
  /// Blocks until the worker is between queries and holds it there; an open
  /// loop's schedule moves on by the time spent paused.
  void pause();
  void resume();
  [[nodiscard]] const std::deque<QuerySample>& samples() const { return samples_; }
  [[nodiscard]] double late_ms_max() const { return late_ms_max_; }
  /// Completed queries per second over each stretch between pauses; call
  /// after stop().
  [[nodiscard]] std::vector<double> segment_rates() const;

 private:
  void loop(std::uint64_t seed);
  /// Waits out a pause; returns false once stopping.
  bool wait_while_paused();

  std::uint16_t port_;
  const World& world_;
  double rate_;
  Ops& ops_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool idle_ = false;
  TimePoint paused_at_;
  Clock::duration paused_total_{0};  ///< Guarded by mutex_.
  TimePoint active_from_;
  std::vector<std::pair<TimePoint, TimePoint>> active_;  ///< Stretches between pauses.
  /// Owned by the thread until stop(). A deque grows in small blocks, so
  /// the benchmark's own memory (in peak_rss_mb) follows the query count
  /// instead of jumping when a vector would double.
  std::deque<QuerySample> samples_;
  double late_ms_max_ = 0;
  std::thread thread_;
};

/// Scrapes GET /metrics over plain HTTP every `period`, timing each scrape.
class Scraper {
 public:
  Scraper(std::uint16_t port, std::chrono::milliseconds period, Ops& ops);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;
  void stop();
  [[nodiscard]] const std::vector<double>& scrape_ms() const { return scrape_ms_; }

 private:
  std::uint16_t port_;
  std::chrono::milliseconds period_;
  Ops& ops_;
  std::atomic<bool> stop_{false};
  std::vector<double> scrape_ms_;
  std::thread thread_;
};

// ------------------------------------------------------------- counters --

/// Before/after reads of the public counters: ServiceStats (kStats),
/// Server::stats() and the obs registry, summed per family.
struct Counters {
  api::ServiceStats service;
  net::ServerStats server;
  std::map<std::string, double> registry;

  [[nodiscard]] double reg(const std::string& family) const;
};

[[nodiscard]] Counters read_counters(Daemon& daemon);

// ------------------------------------------------------------- recovery --

struct Recovery {
  double seconds = 0;     ///< Fresh Service + Store::recover until a kClassOf answered.
  double recover_ms = 0;  ///< Store::recover alone.
  bool recovered = false;
  core::CounterMap map;
};

/// A cold restart from `config.store.dir`, served on a fresh net::Server.
[[nodiscard]] Recovery cold_restart(const DaemonConfig& config, bgp::Asn probe, Ops& ops);

// ---------------------------------------------------------------- stats --

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H
