// The three workloads. Each one sets up (several times, timing each), runs
// its timed region for the requested seconds, checks its correctness gates
// after the timed region, and turns what it recorded into metrics.
//
//   bulk_load  closed loop: a whole collector day is drained in large
//              multi-file epochs, then the daemon is cold-restarted.
//   live_tail  open loop: single update files land on a fixed schedule into
//              a windowed engine with many mixed subscriptions.
//   query_mix  closed-loop queries from two connections while update files
//              land at a low fixed rate.
#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>

#include "api/wire.h"
#include "collector/extract.h"
#include "gates.h"
#include "stream/delta.h"
#include "topology/rng.h"

namespace e2e {

namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
/// Open-loop kClassOf probe rate on bulk_load and live_tail.
constexpr double kProbeRate = 50;
constexpr auto kDeliveryTimeout = std::chrono::seconds(30);
/// Cold restarts at each pause of a streaming run (see restart_from_image).
constexpr int kRestartsPerPause = 4;

double seconds_since(TimePoint t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Returns freed set-up memory to the OS and restarts the peak-RSS mark, so
/// peak_rss_mb covers the daemon from the end of set-up on, not the
/// generator's world building. Both steps are best effort (Linux, glibc).
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since reset_peak_rss (VmHWM), else since process start.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

DaemonConfig daemon_config(const std::string& data_dir, std::uint64_t window,
                           std::uint64_t checkpoint_every, bool metrics_http) {
  DaemonConfig config;
  config.service.stream.window_epochs = window;
  config.store.dir = data_dir;
  config.store.sync = store::SyncPolicy::kEpoch;
  config.store.checkpoint_every_epochs = checkpoint_every;
  config.metrics_http = metrics_http;
  return config;
}

/// Everything the metrics are computed from, accumulated over a run.
struct Collected {
  std::vector<double> setup_s;
  std::vector<EpochRecord> epochs;  ///< Timed epochs only.
  std::vector<double> epoch_latency_ms;
  std::vector<double> fanout_lag_ms;
  std::vector<double> loop_mb_per_s;
  std::vector<double> query_us;
  std::vector<double> query_rates;
  std::vector<double> recovery_s;
  std::vector<double> recover_ms;
  std::vector<double> scrape_ms;
  double generator_late_ms = 0;
  std::map<std::string, double> deltas;  ///< Counter deltas over timed regions.
  /// Loop busy ms per MB, for epochs (or reps) with and without spans.
  std::vector<double> traced_ms_per_mb;
  std::vector<double> untraced_ms_per_mb;
  std::vector<Received> events;  ///< Every decoded event (client decode cost).
  std::vector<const MrtFile*> timed_files;  ///< Inputs of the timed region.
  double peak_rss_mb = 0;  ///< From the end of set-up until the oracle gates.
};

void add_deltas(Collected& c, const Counters& before, const Counters& after) {
  const auto add = [&](const std::string& key, double value) { c.deltas[key] += value; };
  add("locked_ns", static_cast<double>(after.service.locked_ns_total -
                                       before.service.locked_ns_total));
  add("index_deltas", static_cast<double>(after.service.index_deltas_applied -
                                          before.service.index_deltas_applied));
  add("index_rebuilds",
      static_cast<double>(after.service.index_rebuilds - before.service.index_rebuilds));
  add("cache_hits", static_cast<double>(after.service.snapshot_cache_hits -
                                        before.service.snapshot_cache_hits));
  add("sweeps",
      static_cast<double>(after.service.snapshot_sweeps - before.service.snapshot_sweeps));
  add("slow_disconnects",
      static_cast<double>(after.server.slow_disconnects - before.server.slow_disconnects));
  add("shed", static_cast<double>((after.server.requests_shed + after.server.busy_rejections) -
                                  (before.server.requests_shed + before.server.busy_rejections)));
  for (const char* family :
       {"bgpcu_store_wal_bytes_total", "bgpcu_net_bytes_out_total",
        "bgpcu_net_fanout_encodes_total", "bgpcu_net_fanout_buffer_reuses_total",
        "bgpcu_api_queries_total", "bgpcu_feed_decode_errors_total"}) {
    add(family, after.reg(family) - before.reg(family));
  }
}

/// Records the loop-stage spans of one traced epoch, right after it ran.
void record_stage_spans(Tracer& tracer, const EpochRecord& r) {
  const std::pair<const char*, std::pair<TimePoint, TimePoint>> stages[] = {
      {"feed.poll", {r.start, r.polled}},
      {"stream.advance_epoch", {r.polled, r.advanced}},
      {"store.wal_batch", {r.advanced, r.wal_batched}},
      {"api.ingest", {r.wal_batched, r.ingested}},
      {"api.publish", {r.ingested, r.published}},
      {"store.wal_delta", {r.published, r.wal_delta_done}},
      {"store.checkpoint", {r.wal_delta_done, r.checkpointed}},
  };
  for (const auto& [name, interval] : stages) {
    tracer.record({r.trace, tracer.next_id(), r.span, name, interval.first, interval.second});
  }
}

/// Matches decoded events to the epochs that produced them: epoch latency
/// (due -> last subscriber decoded), fan-out lag (publish returned -> last
/// decoded), and, for traced epochs, the net.deliver and root epoch spans.
void account_deliveries(Collected& c, const std::vector<EpochRecord>& recs,
                        const std::vector<const Subscriber*>& subs, Tracer& tracer) {
  std::map<stream::Epoch, TimePoint> last;
  for (const auto* sub : subs) {
    for (auto& r : sub->received()) {
      auto [it, inserted] = last.emplace(r.epoch, r.at);
      if (!inserted) it->second = std::max(it->second, r.at);
      c.events.push_back(std::move(r));
    }
  }
  for (const auto& rec : recs) {
    TimePoint end = rec.checkpointed;
    const auto it = last.find(rec.epoch);
    if (!rec.delta.changes.empty() && it != last.end()) {
      c.epoch_latency_ms.push_back(ms_between(rec.due, it->second));
      c.fanout_lag_ms.push_back(ms_between(rec.published, it->second));
      end = std::max(end, it->second);
      if (rec.traced) {
        tracer.record({rec.trace, tracer.next_id(), rec.span, "net.deliver", rec.published,
                       it->second});
      }
    }
    if (rec.traced) tracer.record({rec.trace, rec.span, 0, "epoch", rec.start, end});
    const double mb = static_cast<double>(rec.bytes) / 1e6;
    if (mb > 0) {
      (rec.traced ? c.traced_ms_per_mb : c.untraced_ms_per_mb)
          .push_back(ms_between(rec.start, rec.checkpointed) / mb);
    }
  }
}

/// Query RTTs and completion rates of workers that ran side by side and
/// paused together; their rates add up per stretch between pauses. Call
/// after stop().
void collect_queries(Collected& c, const std::vector<const QueryWorker*>& workers) {
  std::vector<double> rates;
  for (const auto* w : workers) {
    for (const auto& s : w->samples()) {
      c.query_us.push_back(std::chrono::duration<double, std::micro>(s.done - s.due).count());
    }
    const auto segment = w->segment_rates();
    rates.resize(std::max(rates.size(), segment.size()));
    for (std::size_t i = 0; i < segment.size(); ++i) rates[i] += segment[i];
    c.generator_late_ms = std::max(c.generator_late_ms, w->late_ms_max());
  }
  c.query_rates.insert(c.query_rates.end(), rates.begin(), rates.end());
}

/// Waits until every subscriber decoded all events `published` implies for
/// it; a shortfall is a failed op. Call once the loop published everything.
void await_deliveries(const std::vector<const Subscriber*>& subs,
                      const std::vector<api::EpochDelta>& published, Ops& ops) {
  for (const auto* sub : subs) {
    const auto want = expected_events(*sub, published);
    ops.attempt(want);
    if (!sub->wait_for(want, kDeliveryTimeout)) {
      ops.fail("subscriber saw " + std::to_string(sub->received().size()) + " of " +
               std::to_string(want) + " events");
    }
  }
}

void gate_streams(const std::vector<const Subscriber*>& subs,
                  const std::vector<api::EpochDelta>& published, const Options& o,
                  Report& report) {
  for (std::size_t i = 0; i < subs.size(); ++i) {
    std::string why;
    if (!check_stream(*subs[i], published, o.mutate == "drop_event" && i == 0, why)) {
      report.gate_failures.push_back("subscriber stream: " + why);
    }
  }
}

void gate_recovery(const Recovery& r, const core::CounterMap& live, Report& report) {
  if (!r.recovered) report.gate_failures.push_back("recovery found no durable state");
  const auto diff = map_difference(r.map, live);
  if (!diff.empty()) report.gate_failures.push_back("recovered map != live map: " + diff);
}

Recovery restart(const DaemonConfig& config, const World& world, const Options& o, Ops& ops,
                 bool mutate) {
  auto r = cold_restart(config, world.popular_asns.front(), ops);
  if (mutate && o.mutate == "alter_counter" && !r.map.empty()) r.map.begin()->second.t += 1;
  return r;
}

/// Subscription mixes for live_tail's three connections: match-all,
/// transition specs and watchlists, with some filters repeated across and
/// within connections so serialize-once encoding is reused.
std::vector<std::vector<api::SubscriptionFilter>> live_filters(const World& world) {
  const auto watch = [&](std::size_t from, std::size_t n) {
    api::SubscriptionFilter f;
    const auto& asns = world.popular_asns;
    from = std::min(from, asns.size());
    n = std::min(n, asns.size() - from);
    f.watch.assign(asns.begin() + static_cast<std::ptrdiff_t>(from),
                   asns.begin() + static_cast<std::ptrdiff_t>(from + n));
    return f;
  };
  const auto tr = [](const char* spec) { return api::SubscriptionFilter::transition(spec); };
  return {
      {api::SubscriptionFilter{}, tr("*->tc"), tr("tf->*"), tr("*->nn"), watch(0, 64),
       tr("*->tc")},
      {watch(0, 64), watch(64, 128), watch(192, 256), watch(448, 512),
       api::SubscriptionFilter{}, tr("*->sc")},
      {api::SubscriptionFilter{}, tr("*->tc"), tr("tc->*"), tr("*->uu"), watch(0, 64),
       tr("sc->*")},
  };
}

/// The update stream of live_tail and query_mix: each collector's update
/// dump split into `slices` files, interleaved by time slice, and repeated as
/// often as needed (routes are re-announced day after day), with a sequence
/// prefix so name order is landing order.
std::vector<MrtFile> update_stream(const std::vector<MrtFile>& updates, std::size_t count,
                                   std::size_t slices) {
  std::vector<std::vector<MrtFile>> split;
  for (const auto& file : updates) split.push_back(split_records(file, slices));
  std::vector<const MrtFile*> order;
  for (std::size_t j = 0; j < slices; ++j) {
    for (const auto& parts : split) {
      if (j < parts.size()) order.push_back(&parts[j]);
    }
  }
  std::vector<MrtFile> stream;
  for (std::size_t i = 0; i < count && !order.empty(); ++i) {
    const auto& source = *order[i % order.size()];
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "s%06zu.", i);
    stream.push_back({prefix + source.name, source.project, source.rib, source.bytes});
  }
  return stream;
}

/// Sliding window of both streaming workloads, in epochs: smaller than the
/// number of collectors, so ASes seen through few collectors age in and out
/// as the window slides and most epochs publish class changes.
std::uint64_t stream_window(const Options& o) { return o.tiny ? 4 : 16; }

/// Files per collector day in the update stream (update archive rotation).
std::size_t stream_slices(const Options& o) { return o.tiny ? 6 : 12; }


/// A run's inputs and daemon; outlives the workload so the traced-run
/// passes can read the same files afterwards.
struct Inputs {
  std::optional<World> world;
  std::vector<std::vector<MrtFile>> groups;  ///< bulk_load: one group per epoch.
  std::vector<MrtFile> ribs;
  std::vector<MrtFile> stream;
  std::map<std::string, std::uint64_t> sizes;
  /// Inputs of every epoch, indexed by epoch (0 = the RIB load).
  std::vector<std::vector<const MrtFile*>> epoch_files;
  std::vector<EpochRecord> setup_epochs;
  std::unique_ptr<Daemon> daemon;
  DaemonConfig config;
  std::string watch;  ///< The kept daemon's watch directory.
  std::size_t next = 0;  ///< Next stream file to land.
};

void note_epoch_files(Inputs& s, const EpochRecord& rec,
                      const std::vector<const MrtFile*>& landed, Report& report) {
  if (s.epoch_files.size() <= rec.epoch) s.epoch_files.resize(rec.epoch + 1);
  s.epoch_files[rec.epoch] = landed;
  std::multiset<std::string> want, got(rec.files.begin(), rec.files.end());
  for (const auto* f : landed) want.insert(f->name);
  if (want != got) {
    report.gate_failures.push_back("epoch " + std::to_string(rec.epoch) + " polled " +
                                   std::to_string(got.size()) + " file(s), " +
                                   std::to_string(want.size()) + " were landed");
  }
}

/// Set-up shared by live_tail and query_mix: world, MRT emission, and a warm
/// daemon that has loaded the day's RIBs (plus `warm_epochs` update files).
void streaming_setup(Inputs& s, const Options& o, std::size_t stream_files,
                     std::size_t slices, std::size_t warm_epochs, DaemonConfig config,
                     Ops& ops, Report& report, Collected& c) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    s.daemon.reset();
    s.world.reset();
    s.sizes.clear();
    s.epoch_files.clear();
    s.setup_epochs.clear();
    s.next = 0;
    s.world.emplace(make_world(o.seed, o.tiny));
    s.ribs.clear();
    std::vector<MrtFile> updates;
    for (auto& file : emit_day(*s.world)) {
      (file.rib ? s.ribs : updates).push_back(std::move(file));
    }
    s.stream = update_stream(updates, stream_files + warm_epochs, slices);
    for (const auto* files : {&s.ribs, &s.stream}) {
      for (const auto& f : *files) s.sizes[f.name] = f.bytes.size();
    }
    const std::string dir = o.work_dir + "/setup" + std::to_string(rep);
    fresh_dir(dir + "/watch");
    config.store.dir = dir + "/data";
    s.config = config;
    s.watch = dir + "/watch";
    s.daemon = std::make_unique<Daemon>(*s.world, s.watch, config);
    std::vector<const MrtFile*> landed;
    for (const auto& f : s.ribs) {
      land(dir + "/watch", f);
      landed.push_back(&f);
    }
    Ops setup_ops;  // its failures are counted as failed ops of the run below
    for (std::size_t e = 0; e <= warm_epochs; ++e) {
      if (e > 0) {
        landed = {&s.stream[s.next]};
        land(dir + "/watch", s.stream[s.next++]);
      }
      EpochRecord rec;
      if (!run_epoch(*s.daemon, s.sizes, setup_ops, rec)) {
        setup_ops.fail("warm-up poll found nothing");
        break;
      }
      note_epoch_files(s, rec, landed, report);
      s.setup_epochs.push_back(std::move(rec));
    }
    c.setup_s.push_back(seconds_since(t0));
    if (setup_ops.failed() != 0) {
      for (const auto& note : setup_ops.notes()) ops.fail("set-up: " + note);
    }
    if (rep + 1 < kSetupReps) {
      s.daemon.reset();
      fs::remove_all(dir);
    }
  }
  reset_peak_rss();
}

/// The open-loop timed region: stream file i is due at start + i/rate. All
/// files due by the time the loop is free land together, so a loop that
/// fell behind polls them as one backlog batch, as the daemon would; the
/// epoch is timed from the earliest due time in it. Once `pause_at[k]` files
/// have landed the loop calls `on_pause` between epochs and shifts the rest
/// of the schedule by the time it took; pause points at or past the end run
/// after the last epoch.
void open_loop(Inputs& s, const Options& o, double rate, std::size_t max_files,
               const std::vector<std::size_t>& pause_at, const std::function<void()>& on_pause,
               Ops& ops, Tracer& tracer, Report& report, Collected& c) {
  const std::size_t first = s.next;
  const std::size_t last = std::min(s.stream.size(), first + max_files);
  auto start = Clock::now();
  std::size_t pauses = 0;
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                       static_cast<double>(i - first) / rate));
  };
  // Traced runs put spans on a seeded random half of the epochs; the rest
  // are the baseline of bench.trace_overhead_pct. (Alternating would line
  // up with the collector interleave of the stream.)
  topology::Rng coin(o.seed * 97 + 5);
  while (s.next < last) {
    if (pauses < pause_at.size() && s.next - first >= pause_at[pauses]) {
      const auto t0 = Clock::now();
      on_pause();
      start += Clock::now() - t0;
      ++pauses;
      continue;
    }
    const auto next_due = due(s.next);
    if (next_due > Clock::now()) {
      std::this_thread::sleep_until(next_due);
      continue;
    }
    std::vector<const MrtFile*> landed;
    while (s.next < last && due(s.next) <= Clock::now()) {
      land(s.watch, s.stream[s.next]);
      c.generator_late_ms = std::max(c.generator_late_ms, ms_between(due(s.next), Clock::now()));
      landed.push_back(&s.stream[s.next]);
      c.timed_files.push_back(&s.stream[s.next]);
      ++s.next;
    }
    EpochRecord rec;
    rec.due = next_due;
    if (o.trace) {
      rec.traced = coin.chance(0.5);
      rec.trace = tracer.next_id();
      rec.span = tracer.next_id();
    }
    if (!run_epoch(*s.daemon, s.sizes, ops, rec)) {
      ops.fail("poll found none of " + std::to_string(landed.size()) + " landed file(s)");
      continue;
    }
    if (rec.traced) record_stage_spans(tracer, rec);
    note_epoch_files(s, rec, landed, report);
    c.epochs.push_back(std::move(rec));
  }
  for (; pauses < pause_at.size(); ++pauses) on_pause();
}

/// Where a streaming run pauses for its cold restarts: halfway between two
/// checkpoints of the epoch cadence, from the first checkpoint on, so every
/// restart replays a WAL tail of about half a cadence on top of a
/// checkpoint. Timed file i lands about epoch `warm_epochs + i`; a run too
/// short for any such point pauses at its end.
std::vector<std::size_t> pause_points(std::uint64_t checkpoint_every, std::size_t warm_epochs,
                                      std::size_t max_files) {
  std::vector<std::size_t> points;
  for (std::size_t epoch = checkpoint_every + checkpoint_every / 2;
       epoch < warm_epochs + max_files;
       epoch += checkpoint_every) {
    if (epoch > warm_epochs) points.push_back(epoch - warm_epochs);
  }
  if (points.empty()) points.push_back(max_files);
  return points;
}

/// Per-epoch batches extracted by the benchmark itself from the landed files.
std::vector<core::Dataset> epoch_batches(const Inputs& s) {
  std::vector<core::Dataset> batches;
  batches.reserve(s.epoch_files.size());
  for (const auto& files : s.epoch_files) batches.push_back(extract(*s.world, files));
  return batches;
}

/// Checks each published delta in `recs` against diff_classifications over
/// the oracle results (`oracle[e]` is epoch `oracle_first + e`).
void gate_deltas(const std::vector<EpochRecord>& recs,
                 const std::vector<core::InferenceResult>& oracle, stream::Epoch oracle_first,
                 Report& report) {
  for (const auto& rec : recs) {
    if (rec.epoch <= oracle_first || rec.epoch - oracle_first >= oracle.size()) {
      report.gate_failures.push_back("no oracle for epoch " + std::to_string(rec.epoch));
      continue;
    }
    const auto& before = oracle[rec.epoch - oracle_first - 1];
    const auto& after = oracle[rec.epoch - oracle_first];
    if (stream::diff_classifications(before, after) != rec.delta.changes ||
        rec.delta.epoch != rec.epoch) {
      report.gate_failures.push_back("published delta of epoch " + std::to_string(rec.epoch) +
                                     " differs from the oracle's diff");
      return;
    }
  }
}

/// Engine state at epoch `e` under a `window`-epoch window (0 = unbounded):
/// the union of the batches still live. `full` = after ingest(e); otherwise
/// the state between advance_epoch(e) and ingest(e).
core::Dataset window_state(const std::vector<core::Dataset>& batches, std::size_t e,
                           std::uint64_t window, bool full) {
  std::vector<const core::Dataset*> live;
  const std::size_t first = window != 0 && e + 1 > window ? e + 1 - window : 0;
  for (std::size_t k = first; k < e + (full ? 1 : 0); ++k) live.push_back(&batches[k]);
  return union_of(live);
}

/// Cold restarts at a pause of a streaming run. The loop is between epochs
/// and the store syncs every epoch, so a copy of the daemon's data directory
/// is what a crash at this moment would leave: the newest checkpoint the
/// cadence wrote plus the WAL tail since. Each restart recovers its own copy
/// and is checked against the live map. `workers` are held paused meanwhile,
/// so nothing but the restart runs.
void restart_from_image(Inputs& s, const Options& o, const std::vector<QueryWorker*>& workers,
                        Ops& ops, Report& report, Collected& c) {
  for (auto* w : workers) w->pause();
  const auto live =
      s.daemon->service.query({api::QueryKind::kSnapshot}).snapshot->counter_map();
  auto config = s.config;
  config.store.dir = o.work_dir + "/crash-image";
  for (int i = 0; i < kRestartsPerPause; ++i) {
    fs::remove_all(config.store.dir);
    fs::copy(s.config.store.dir, config.store.dir, fs::copy_options::recursive);
    auto recovery = restart(config, *s.world, o, ops, c.recovery_s.empty());
    c.recovery_s.push_back(recovery.seconds);
    c.recover_ms.push_back(recovery.recover_ms);
    gate_recovery(recovery, live, report);
  }
  fs::remove_all(config.store.dir);
  for (auto* w : workers) w->resume();
}

// ------------------------------------------------------------ bulk_load --

void bulk_load(const Options& o, Ops& ops, Tracer& tracer, Report& report, Collected& c,
               Inputs& s) {
  // Set-up: world generation and MRT emission of one collector day, all four
  // projects, RIB plus update dumps, grouped by project (one archive sync
  // lands per epoch).
  auto& world = s.world;
  auto& groups = s.groups;
  auto& sizes = s.sizes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    world.reset();
    groups.clear();
    world.emplace(make_world(o.seed, o.tiny));
    for (auto& file : emit_day(*world)) {
      if (groups.empty() || groups.back().front().project != file.project) groups.emplace_back();
      sizes[file.name] = file.bytes.size();
      groups.back().push_back(std::move(file));
    }
    c.setup_s.push_back(seconds_since(t0));
  }
  reset_peak_rss();
  report.facts.emplace_back("bulk_epochs_per_rep", std::to_string(groups.size()));
  double day_mb = 0;
  for (const auto& [name, size] : sizes) day_mb += static_cast<double>(size) / 1e6;
  report.facts.emplace_back("bulk_day_mb", std::to_string(day_mb));

  std::vector<core::CounterMap> live_maps;
  const auto t_begin = Clock::now();
  const int min_reps = 3;
  for (int rep = 0; rep < min_reps || (seconds_since(t_begin) < o.seconds && rep < 64); ++rep) {
    const std::string dir = o.work_dir + "/rep" + std::to_string(rep);
    const std::string watch = dir + "/watch";
    fresh_dir(watch);
    const auto config = daemon_config(dir + "/data", /*window=*/0, /*checkpoint_every=*/2,
                                      /*metrics_http=*/false);
    // Traced runs alternate spans on/off by rep (baseline of the overhead).
    const bool traced = o.trace && rep % 2 == 0;
    std::vector<EpochRecord> recs;
    std::vector<api::EpochDelta> published;
    core::CounterMap live_map;
    {
      Daemon d(*world, watch, config);
      Subscriber sub(d.port(), {api::SubscriptionFilter{}}, ops);
      QueryWorker probe(d.port(), *world, o.seed * 1000 + static_cast<std::uint64_t>(rep),
                        kProbeRate, ops);
      const auto before = read_counters(d);
      double landing_ms = 0;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto l0 = Clock::now();
        for (const auto& f : groups[g]) land(watch, f);
        EpochRecord rec;
        rec.due = Clock::now();  // closed loop: input is asked for when landed
        if (g > 0) landing_ms += ms_between(l0, rec.due);
        rec.traced = traced;
        if (traced) {
          rec.trace = tracer.next_id();
          rec.span = tracer.next_id();
        }
        if (!run_epoch(d, sizes, ops, rec)) {
          ops.fail("bulk poll found none of the landed files");
          continue;
        }
        if (rec.traced) record_stage_spans(tracer, rec);
        published.push_back(rec.delta);
        recs.push_back(std::move(rec));
      }
      await_deliveries({&sub}, published, ops);
      probe.stop();
      collect_queries(c, {&probe});
      add_deltas(c, before, read_counters(d));
      live_map = d.service.query({api::QueryKind::kSnapshot}).snapshot->counter_map();
      d.server.stop();
      sub.join();

      // Throughput: first poll -> last subscriber decoded the last epoch,
      // minus the generator's landing time between epochs.
      TimePoint last_decoded = recs.empty() ? Clock::now() : recs.back().checkpointed;
      for (const auto& r : sub.received()) last_decoded = std::max(last_decoded, r.at);
      std::uint64_t bytes = 0;
      for (const auto& r : recs) bytes += r.bytes;
      if (!recs.empty()) {
        const double wall_s = ms_between(recs.front().start, last_decoded) / 1e3 -
                              landing_ms / 1e3;
        c.loop_mb_per_s.push_back(static_cast<double>(bytes) / 1e6 / wall_s);
      }
      gate_streams({&sub}, published, o, report);
      account_deliveries(c, recs, {&sub}, tracer);
    }
    // Cold restarts (crash-style: no final checkpoint) from the checkpoint
    // written at epoch 2 plus the WAL tail.
    for (int i = 0; i < 2; ++i) {
      auto recovery = restart(config, *world, o, ops, rep == 0 && i == 0);
      c.recovery_s.push_back(recovery.seconds);
      c.recover_ms.push_back(recovery.recover_ms);
      gate_recovery(recovery, live_map, report);
    }

    live_maps.push_back(std::move(live_map));
    for (auto& r : recs) c.epochs.push_back(std::move(r));
    fs::remove_all(dir);
  }
  c.peak_rss_mb = peak_rss_mb();
  for (const auto& g : groups) {
    for (const auto& f : g) c.timed_files.push_back(&f);
  }
  // Every rep's final snapshot must equal the oracle over the day's files.
  const auto oracle_map = core::ColumnEngine(api::ServiceConfig{}.stream.engine)
                              .run(extract(*world, c.timed_files))
                              .counter_map();
  for (const auto& live : live_maps) {
    const auto diff = map_difference(live, oracle_map);
    if (!diff.empty()) report.gate_failures.push_back("final snapshot != oracle: " + diff);
  }
  report.facts.emplace_back("bulk_reps", std::to_string(c.loop_mb_per_s.size()));
}

// ------------------------------------------------------------ live_tail --

void live_tail(const Options& o, Ops& ops, Tracer& tracer, Report& report, Collected& c,
               Inputs& s) {
  const std::uint64_t window = stream_window(o);
  // Update files per second: at this rate the loop is about half busy on a
  // 4-core Xeon (see the README), so the open loop has headroom but queues.
  const double rate = o.tiny ? 20 : 50;
  // A 15 s run has ~770 epochs: the cadence fires seven times inside it,
  // with a pause for restarts between each two checkpoints. Each restart
  // replays a ~50-epoch WAL tail, so replay work rather than fixed start-up
  // cost sets recovery_s.
  const std::uint64_t checkpoint_every = o.tiny ? 10 : 100;
  const std::size_t slices = stream_slices(o);
  const auto max_files = static_cast<std::size_t>(std::ceil(rate * o.seconds));
  streaming_setup(s, o, max_files, slices, window,
                  daemon_config("", window, checkpoint_every, false), ops, report, c);
  report.facts.emplace_back("live_tail_files_per_s", std::to_string(rate));
  report.facts.emplace_back("window_epochs", std::to_string(window));

  Daemon& d = *s.daemon;
  std::vector<std::unique_ptr<Subscriber>> subs;
  for (const auto& filters : live_filters(*s.world)) {
    subs.push_back(std::make_unique<Subscriber>(d.port(), filters, ops));
  }
  std::vector<const Subscriber*> sub_ptrs;
  for (const auto& sub : subs) sub_ptrs.push_back(sub.get());
  QueryWorker probe(d.port(), *s.world, o.seed * 1000 + 1, kProbeRate, ops);
  const auto before = read_counters(d);

  open_loop(s, o, rate, max_files,
            pause_points(checkpoint_every, s.setup_epochs.size(), max_files),
            [&] { restart_from_image(s, o, {&probe}, ops, report, c); }, ops, tracer, report, c);

  std::vector<api::EpochDelta> published;
  for (const auto& rec : c.epochs) published.push_back(rec.delta);
  await_deliveries(sub_ptrs, published, ops);
  probe.stop();
  collect_queries(c, {&probe});
  add_deltas(c, before, read_counters(d));
  c.peak_rss_mb = peak_rss_mb();
  d.server.stop();
  for (auto& sub : subs) sub->join();
  account_deliveries(c, c.epochs, sub_ptrs, tracer);
  gate_streams(sub_ptrs, published, o, report);
  s.daemon.reset();

  // Oracle at every timed epoch and the one before it.
  if (!c.epochs.empty()) {
    const auto batches = epoch_batches(s);
    const stream::Epoch first = c.epochs.front().epoch - 1;
    const auto oracle = oracle_runs(
        c.epochs.back().epoch - first + 1,
        [&](std::size_t i) { return window_state(batches, first + i, window, true); },
        s.config.service.stream.engine, 4);
    gate_deltas(c.epochs, oracle, first, report);
  }
}

// ------------------------------------------------------------ query_mix --

void query_mix(const Options& o, Ops& ops, Tracer& tracer, Report& report, Collected& c,
               Inputs& s) {
  // Update files/s landing beside the queries. A 15 s run has ~320 epochs:
  // the cadence fires three times inside it, with a pause for restarts
  // between each two checkpoints (a ~40-epoch WAL tail). Three pauses, not
  // two, because restarts get slower as the store ages: the median of all
  // restarts then falls inside the middle pause's group, not between two.
  const double rate = o.tiny ? 10 : 20;
  const std::uint64_t window = stream_window(o);
  const std::uint64_t checkpoint_every = o.tiny ? 10 : 80;
  const auto max_files = static_cast<std::size_t>(std::ceil(rate * o.seconds));
  streaming_setup(s, o, max_files, stream_slices(o), window,
                  daemon_config("", window, checkpoint_every, true), ops, report, c);
  report.facts.emplace_back("query_mix_files_per_s", std::to_string(rate));

  Daemon& d = *s.daemon;
  Subscriber sub(d.port(), {api::SubscriptionFilter{}}, ops);
  Scraper scraper(d.metrics_port(), std::chrono::milliseconds(100), ops);
  QueryWorker q1(d.port(), *s.world, o.seed * 1000 + 1, 0, ops);
  QueryWorker q2(d.port(), *s.world, o.seed * 1000 + 2, 0, ops);
  const auto before = read_counters(d);

  open_loop(s, o, rate, max_files,
            pause_points(checkpoint_every, s.setup_epochs.size(), max_files),
            [&] { restart_from_image(s, o, {&q1, &q2}, ops, report, c); }, ops, tracer, report,
            c);

  q1.stop();
  q2.stop();
  scraper.stop();
  std::vector<api::EpochDelta> published;
  for (const auto& rec : c.epochs) published.push_back(rec.delta);
  await_deliveries({&sub}, published, ops);
  add_deltas(c, before, read_counters(d));
  c.peak_rss_mb = peak_rss_mb();
  d.server.stop();
  sub.join();
  account_deliveries(c, c.epochs, {&sub}, tracer);
  gate_streams({&sub}, published, o, report);
  collect_queries(c, {&q1, &q2});
  c.scrape_ms = scraper.scrape_ms();
  s.daemon.reset();
  c.timed_files.clear();
  for (std::size_t e = 1; e < s.epoch_files.size(); ++e) {
    for (const auto* f : s.epoch_files[e]) c.timed_files.push_back(f);
  }

  // Oracle for every engine state a query could have seen: S(k), epoch k's
  // full state (index k), and A(k), the state between advance_epoch(k) and
  // ingest(k) where the window has evicted but nothing new is in (index
  // E + k - 1).
  std::vector<EpochRecord> all = s.setup_epochs;
  for (const auto& rec : c.epochs) all.push_back(rec);
  const std::size_t epochs = all.size();
  const auto batches = epoch_batches(s);
  const auto oracle = oracle_runs(
      2 * epochs - 1,
      [&](std::size_t i) {
        return i < epochs ? window_state(batches, i, window, true)
                          : window_state(batches, i - epochs + 1, window, false);
      },
      s.config.service.stream.engine, 4);
  gate_deltas(c.epochs, oracle, 0, report);

  // Every kClassOf answer must equal the oracle class in a state that was
  // live while the request was in flight. A snapshot cut lands on one side
  // of each advance_epoch and ingest call, so S(k) is visible from ingest(k)
  // starting until advance_epoch(k+1) returned, and A(k) from advance_epoch(k)
  // starting until ingest(k) returned.
  const auto overlaps = [](TimePoint from, TimePoint to, const QuerySample& q) {
    return from <= q.done && to >= q.due;
  };
  std::size_t checked = 0;
  for (const auto* w : {&q1, &q2}) {
    for (const auto& q : w->samples()) {
      if (!q.answer) continue;
      ++checked;
      bool ok = false;
      for (std::size_t k = 0; k < epochs && !ok; ++k) {
        const TimePoint s_from = k == 0 ? TimePoint::min() : all[k].wal_batched;
        const TimePoint s_to = k + 1 < epochs ? all[k + 1].advanced : TimePoint::max();
        ok = (overlaps(s_from, s_to, q) && oracle[k].usage(q.asn) == *q.answer) ||
             (k > 0 && overlaps(all[k].polled, all[k].ingested, q) &&
              oracle[epochs + k - 1].usage(q.asn) == *q.answer);
      }
      if (!ok) {
        report.gate_failures.push_back("kClassOf AS" + std::to_string(q.asn) + " answered " +
                                       q.answer->code() +
                                       ", no oracle state live during the request agrees");
        break;
      }
    }
  }
  report.facts.emplace_back("class_of_answers_checked", std::to_string(checked));
}

// --------------------------------------------------------------- report --

double sum_ms(const std::vector<EpochRecord>& recs, TimePoint EpochRecord::*from,
              TimePoint EpochRecord::*to) {
  double total = 0;
  for (const auto& r : recs) total += ms_between(r.*from, r.*to);
  return total;
}

std::vector<double> stage_ms(const std::vector<EpochRecord>& recs, TimePoint EpochRecord::*from,
                             TimePoint EpochRecord::*to) {
  std::vector<double> out;
  for (const auto& r : recs) out.push_back(ms_between(r.*from, r.*to));
  return out;
}

/// Self time per span name, the largest layer, and how much of each epoch
/// span its children cover.
void span_report(const Tracer& tracer, Report& report) {
  const auto spans = tracer.spans();
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  std::vector<double> coverage;
  for (const auto& s : spans) {
    const auto it = children.find(s.id);
    const double total = ms_between(s.start, s.end);
    if (it == children.end()) {
      if (s.parent != 0 || s.name != "epoch") self_ms[s.name] += total;
      continue;
    }
    // Union of child intervals clipped to the parent.
    std::vector<std::pair<TimePoint, TimePoint>> iv;
    for (const auto* ch : it->second) {
      iv.emplace_back(std::max(ch->start, s.start), std::min(ch->end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    TimePoint cur_start = iv.front().first, cur_end = iv.front().second;
    for (const auto& [a, b] : iv) {
      if (a > cur_end) {
        covered += ms_between(cur_start, cur_end);
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    covered += ms_between(cur_start, cur_end);
    self_ms[s.name] += total - covered;
    if (total > 0) coverage.push_back(covered / total * 100);
  }
  std::map<std::string, double> by_layer;
  for (const auto& [name, ms] : self_ms) {
    // Layers are src/ modules; the feed lives in src/stream.
    const std::string module = name.substr(0, name.find('.'));
    by_layer[name == "epoch" ? "epoch(self)" : module == "feed" ? "stream" : module] += ms;
    report.facts.emplace_back("self_ms." + name, std::to_string(ms));
  }
  std::string largest;
  double largest_ms = -1;
  for (const auto& [layer, ms] : by_layer) {
    if (ms > largest_ms) {
      largest = layer;
      largest_ms = ms;
    }
  }
  if (!largest.empty()) report.facts.emplace_back("largest_self_time_layer", largest);
  if (!coverage.empty()) {
    report.facts.emplace_back("epoch_span_coverage_min_pct",
                              std::to_string(*std::min_element(coverage.begin(), coverage.end())));
    report.facts.emplace_back("epoch_span_coverage_median_pct", std::to_string(median(coverage)));
  }
}

void assemble(const Options& o, const World& world, Collected& c, Report& report) {
  const auto e2e = [&](const std::string& name, const std::string& unit, double value,
                       std::size_t n, bool higher) {
    report.end_to_end.push_back({name, unit, value, n, higher});
  };
  const auto layer = [&](const std::string& name, const std::string& unit, double value,
                         std::size_t n, bool higher = false) {
    report.per_layer.push_back({name, unit, value, n, higher});
  };
  const auto& ep = c.epochs;
  // End-to-end: identical names on every workload.
  e2e("setup_s", "s", median(c.setup_s), c.setup_s.size(), false);
  e2e("peak_rss_mb", "MB", c.peak_rss_mb, 1, false);
  // Streaming workloads: each epoch's MB ÷ its busy time (the median
  // discounts epochs stretched by a preempted loop thread).
  if (c.loop_mb_per_s.empty()) {
    for (const auto& r : ep) {
      const double busy_ms = ms_between(r.start, r.checkpointed);
      if (r.bytes > 0 && busy_ms > 0) {
        c.loop_mb_per_s.push_back(static_cast<double>(r.bytes) / 1e3 / busy_ms);
      }
    }
  }
  e2e("loop_mb_per_s", "MB/s", median(c.loop_mb_per_s), c.loop_mb_per_s.size(), true);
  e2e("epoch_latency_p50_ms", "ms", median(c.epoch_latency_ms), c.epoch_latency_ms.size(),
        false);
  e2e("recovery_s", "s", median(c.recovery_s), c.recovery_s.size(), false);
  e2e("query_p50_us", "us", median(c.query_us), c.query_us.size(), false);
  e2e("queries_per_s", "1/s", median(c.query_rates), c.query_rates.size(), true);

  // Per layer.
  double mb = 0, busy_ms = 0;
  std::size_t backlog = 0;
  double accepted = 0, changes = 0, decode_errors = 0;
  std::vector<double> checkpoint_ms;
  for (const auto& r : ep) {
    mb += static_cast<double>(r.bytes) / 1e6;
    busy_ms += ms_between(r.start, r.checkpointed);
    backlog = std::max(backlog, r.files.size());
    accepted += static_cast<double>(r.accepted);
    changes += static_cast<double>(r.delta.changes.size());
    decode_errors += static_cast<double>(r.decode_errors);
    if (r.wrote_checkpoint) checkpoint_ms.push_back(ms_between(r.wal_delta_done, r.checkpointed));
  }
  const std::size_t n = ep.size();
  layer("stream.feed_poll_ms", "ms", median(stage_ms(ep, &EpochRecord::start,
                                                       &EpochRecord::polled)), n);
  layer("stream.feed_mb", "MB", mb, n);
  layer("stream.feed_backlog_files_max", "count", static_cast<double>(backlog), n);
  layer("api.ingest_ms", "ms", median(stage_ms(ep, &EpochRecord::wal_batched,
                                                 &EpochRecord::ingested)), n);
  layer("api.ingest_accepted", "count", accepted, n);
  layer("api.publish_ms", "ms", median(stage_ms(ep, &EpochRecord::ingested,
                                                  &EpochRecord::published)), n);
  layer("api.class_changes", "count", changes, n);
  layer("stream.snapshot_locked_ms", "ms", c.deltas["locked_ns"] / 1e6, n);
  layer("stream.index_deltas_applied", "count", c.deltas["index_deltas"], n);
  const double snapshots = c.deltas["cache_hits"] + c.deltas["sweeps"];
  layer("stream.snapshot_cache_hit_ratio", "ratio",
          snapshots > 0 ? c.deltas["cache_hits"] / snapshots : 0,
          static_cast<std::size_t>(snapshots), true);
  const double wal_ms = sum_ms(ep, &EpochRecord::advanced, &EpochRecord::wal_batched) +
                        sum_ms(ep, &EpochRecord::published, &EpochRecord::wal_delta_done);
  layer("store.wal_batch_ms", "ms", median(stage_ms(ep, &EpochRecord::advanced,
                                                      &EpochRecord::wal_batched)), n);
  layer("store.wal_delta_ms", "ms", median(stage_ms(ep, &EpochRecord::published,
                                                      &EpochRecord::wal_delta_done)), n);
  layer("store.wal_mb", "MB", c.deltas["bgpcu_store_wal_bytes_total"] / 1e6, n);
  layer("store.wal_share_pct", "%", busy_ms > 0 ? wal_ms / busy_ms * 100 : 0, n);
  layer("store.checkpoint_ms", "ms", median(checkpoint_ms), checkpoint_ms.size());
  layer("store.recover_ms", "ms", median(c.recover_ms), c.recover_ms.size());
  layer("net.fanout_lag_p50_ms", "ms", median(c.fanout_lag_ms), c.fanout_lag_ms.size());
  layer("net.fanout_lag_p95_ms", "ms", quantile(c.fanout_lag_ms, 0.95), c.fanout_lag_ms.size());
  layer("net.fanout_mb", "MB", c.deltas["bgpcu_net_bytes_out_total"] / 1e6, n);
  layer("net.requests_served", "count", c.deltas["bgpcu_api_queries_total"], n, true);
  layer("bench.generator_late_ms_max", "ms", c.generator_late_ms, n);
  const auto extra = [&](const std::string& name, const std::string& unit, double value,
                         std::size_t n) { report.extra.push_back({name, unit, value, n, false}); };
  extra("stream.feed_decode_errors", "count", decode_errors, n);
  extra("stream.index_rebuilds", "count", c.deltas["index_rebuilds"], n);
  const double encodes = c.deltas["bgpcu_net_fanout_encodes_total"];
  const double reuses = c.deltas["bgpcu_net_fanout_buffer_reuses_total"];
  extra("net.fanout_buffer_reuse_ratio", "ratio",
        encodes + reuses > 0 ? reuses / (encodes + reuses) : 0,
        static_cast<std::size_t>(encodes + reuses));
  extra("net.slow_disconnects", "count", c.deltas["slow_disconnects"], n);
  extra("net.requests_shed", "count", c.deltas["shed"], n);
  extra("obs.scrape_ms", "ms", median(c.scrape_ms), c.scrape_ms.size());
  // Tails demoted from end-to-end: too few samples beyond them on some
  // workloads to repeat within the bound.
  layer("epoch_latency_p95_ms", "ms", quantile(c.epoch_latency_ms, 0.95),
          c.epoch_latency_ms.size());
  layer("query_p99_us", "us", quantile(c.query_us, 0.99), c.query_us.size());

  // Traced-run-only layers: the DatasetBuilder decomposition over the same
  // files, the client-side decode cost of the received events, and the
  // overhead of recording spans.
  if (!o.trace) return;
  double add_ms = 0;
  collector::DatasetBuilder builder(world.topo.registry);
  for (const auto* file : c.timed_files) {
    const auto t0 = Clock::now();
    builder.add_dump(file->bytes);
    add_ms += ms_between(t0, Clock::now());
  }
  const auto t0 = Clock::now();
  const auto bundle = builder.finish();
  const double finish_ms = ms_between(t0, Clock::now());
  const auto files = c.timed_files.size();
  layer("collector.add_dump_ms", "ms", add_ms, files);
  layer("collector.finish_ms", "ms", finish_ms, files);
  layer("collector.tuples_per_entry", "ratio",
        bundle.extraction.entries_total > 0
            ? static_cast<double>(bundle.dataset.size()) /
                  static_cast<double>(bundle.extraction.entries_total)
            : 0,
        static_cast<std::size_t>(bundle.extraction.entries_total));
  double decode_ms = 0;
  for (const auto& ev : c.events) {
    const auto frame = api::encode_event({ev.subscription, {ev.epoch, ev.changes}});
    const auto d0 = Clock::now();
    const auto decoded = api::decode_event(frame);
    decode_ms += ms_between(d0, Clock::now());
    if (decoded.delta.epoch != ev.epoch) report.gate_failures.push_back("event re-decode differs");
  }
  layer("net.client_decode_ms", "ms", decode_ms, c.events.size());
  const double traced = median(c.traced_ms_per_mb);
  const double untraced = median(c.untraced_ms_per_mb);
  layer("bench.trace_overhead_pct", "%", untraced > 0 ? (traced - untraced) / untraced * 100 : 0,
        c.traced_ms_per_mb.size() + c.untraced_ms_per_mb.size());
}

}  // namespace

Report run_workload(const Options& o) {
  const auto origin = Clock::now();
  Report report;
  Ops ops;
  Tracer tracer;
  Collected c;
  Inputs inputs;
  if (o.workload == "bulk_load") {
    bulk_load(o, ops, tracer, report, c, inputs);
  } else if (o.workload == "live_tail") {
    live_tail(o, ops, tracer, report, c, inputs);
  } else if (o.workload == "query_mix") {
    query_mix(o, ops, tracer, report, c, inputs);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  if (c.deltas["slow_disconnects"] > 0) {
    for (int i = 0; i < static_cast<int>(c.deltas["slow_disconnects"]); ++i) {
      ops.fail("server disconnected a slow subscriber");
    }
  }
  assemble(o, *inputs.world, c, report);
  if (o.trace) {
    span_report(tracer, report);
    if (!tracer.write_jsonl(o.spans_path, origin)) {
      report.facts.emplace_back("spans_written", "failed: " + o.spans_path);
    }
  }
  report.attempted = ops.attempted();
  report.failed = ops.failed();
  report.failure_notes = ops.notes();
  return report;
}

}  // namespace e2e
