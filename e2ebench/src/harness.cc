// The in-process daemon, its epoch loop, and the load generators that reach
// it over TCP loopback.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common.h"
#include "net/client.h"
#include "topology/rng.h"

namespace e2e {

// ------------------------------------------------------------------ Ops --

void Ops::fail(const std::string& what) {
  failed_.fetch_add(1);
  const std::lock_guard lock(mutex_);
  if (notes_.size() < 16) notes_.push_back(what);
}

std::vector<std::string> Ops::notes() const {
  const std::lock_guard lock(mutex_);
  return notes_;
}

// --------------------------------------------------------------- Tracer --

void Tracer::record(Span span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path, TimePoint origin) const {
  std::ofstream out(path, std::ios::trunc);
  const auto us = [origin](TimePoint t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  const std::lock_guard lock(mutex_);
  for (const auto& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.trace),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(), us(s.start),
                  us(s.end));
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- Daemon --

Daemon::Daemon(const World& world, const std::string& watch_dir, DaemonConfig config)
    : service(config.service),
      store(config.store),
      feed(watch_dir, world.topo.registry, ".mrt"),
      listener(std::make_shared<net::TcpListener>("127.0.0.1", 0)),
      server(service, listener, net::ServerConfig{}) {
  service.set_history_provider([this](bgp::Asn asn) { return store.history(asn); });
  if (config.metrics_http) metrics.emplace("127.0.0.1", 0, obs::Registry::global());
  server.start();
}

bool run_epoch(Daemon& d, const std::map<std::string, std::uint64_t>& sizes, Ops& ops,
               EpochRecord& rec) {
  rec.start = Clock::now();
  ops.attempt();
  auto poll = d.feed.poll();
  rec.polled = Clock::now();
  for (const auto& path : poll.failed) ops.fail("feed could not read " + path);
  if (poll.empty()) return false;

  if (d.polls > 0) (void)d.service.advance_epoch();
  ++d.polls;
  rec.advanced = Clock::now();
  rec.epoch = d.service.epoch();
  rec.files.clear();
  rec.bytes = 0;
  for (const auto& path : poll.files) {
    auto name = std::filesystem::path(path).filename().string();
    const auto it = sizes.find(name);
    if (it != sizes.end()) rec.bytes += it->second;
    rec.files.push_back(std::move(name));
  }
  rec.decode_errors = poll.extraction.decode_errors;

  ops.attempt();
  if (!d.store.append_epoch_batch(rec.epoch, poll.batch, d.feed.export_marks())) {
    ops.fail("append_epoch_batch returned false at epoch " + std::to_string(rec.epoch));
  }
  rec.wal_batched = Clock::now();
  rec.accepted = d.service.ingest(std::move(poll.batch)).accepted;
  rec.ingested = Clock::now();
  rec.delta = d.service.publish();
  rec.published = Clock::now();
  ops.attempt();
  if (!d.store.append_epoch_delta(rec.delta)) {
    ops.fail("append_epoch_delta returned false at epoch " + std::to_string(rec.epoch));
  }
  rec.wal_delta_done = Clock::now();
  ops.attempt();
  rec.wrote_checkpoint = d.store.maybe_checkpoint(d.service);
  rec.checkpointed = Clock::now();
  // maybe_checkpoint's false means "not due" as well as "failed"; the
  // store's degraded flag tells them apart.
  if (d.store.degraded()) ops.fail("store degraded at epoch " + std::to_string(rec.epoch));
  return true;
}

// ----------------------------------------------------------- Subscriber --

Subscriber::Subscriber(std::uint16_t port, const std::vector<api::SubscriptionFilter>& filters,
                       Ops& ops)
    : ops_(ops),
      client_(std::make_unique<net::Client>(net::tcp_connect("127.0.0.1", port))) {
  for (const auto& filter : filters) {
    subscriptions.emplace_back(client_->subscribe(filter), filter);
  }
  thread_ = std::thread([this] { drain(); });
}

Subscriber::~Subscriber() { join(); }

void Subscriber::drain() {
  try {
    for (;;) {
      auto event = client_->next_event();
      if (!event) break;
      Received r{event->subscription_id, event->delta.epoch, Clock::now(),
                 std::move(event->delta.changes)};
      {
        const std::lock_guard lock(mutex_);
        received_.push_back(std::move(r));
      }
      cv_.notify_all();
    }
  } catch (const std::exception& e) {
    if (!stopping_.load()) ops_.fail(std::string("subscriber: ") + e.what());
  }
}

bool Subscriber::wait_for(std::size_t count, std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] { return received_.size() >= count; });
}

void Subscriber::join() {
  stopping_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::vector<Received> Subscriber::received() const {
  const std::lock_guard lock(mutex_);
  return received_;
}

// ---------------------------------------------------------- QueryWorker --

namespace {
constexpr auto kProbeSpin = std::chrono::microseconds(500);
}  // namespace

QueryWorker::QueryWorker(std::uint16_t port, const World& world, std::uint64_t seed,
                         double rate_per_s, Ops& ops)
    : port_(port), world_(world), rate_(rate_per_s), ops_(ops), active_from_(Clock::now()) {
  thread_ = std::thread([this, seed] {
    loop(seed);
    const std::lock_guard lock(mutex_);
    idle_ = true;  // a worker that gave up never blocks pause()
    cv_.notify_all();
  });
}

QueryWorker::~QueryWorker() { stop(); }

void QueryWorker::stop() {
  if (!thread_.joinable()) return;
  resume();
  stop_.store(true);
  cv_.notify_all();
  thread_.join();
  active_.emplace_back(active_from_, Clock::now());
}

void QueryWorker::pause() {
  std::unique_lock lock(mutex_);
  paused_ = true;
  paused_at_ = Clock::now();
  active_.emplace_back(active_from_, paused_at_);
  cv_.wait(lock, [this] { return idle_ || stop_.load(); });
}

void QueryWorker::resume() {
  {
    const std::lock_guard lock(mutex_);
    if (!paused_) return;
    paused_ = false;
    active_from_ = Clock::now();
    paused_total_ += active_from_ - paused_at_;
  }
  cv_.notify_all();
}

std::vector<double> QueryWorker::segment_rates() const {
  std::vector<double> rates;
  for (const auto& [from, to] : active_) {
    const auto n = std::count_if(samples_.begin(), samples_.end(), [&](const QuerySample& s) {
      return s.done >= from && s.done < to;
    });
    rates.push_back(static_cast<double>(n) / std::chrono::duration<double>(to - from).count());
  }
  return rates;
}

bool QueryWorker::wait_while_paused() {
  std::unique_lock lock(mutex_);
  if (paused_) {
    idle_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !paused_ || stop_.load(); });
    idle_ = false;
  }
  return !stop_.load();
}

void QueryWorker::loop(std::uint64_t seed) {
  topology::Rng rng(seed);
  const auto& asns = world_.popular_asns;
  // Skewed draw: u^3 puts most of the mass on the head of the popularity list.
  const auto draw_asn = [&] {
    const double u = rng.uniform();
    const auto idx = static_cast<std::size_t>(u * u * u * static_cast<double>(asns.size()));
    return asns[std::min(idx, asns.size() - 1)];
  };
  std::unique_ptr<net::Client> client;
  try {
    client = std::make_unique<net::Client>(net::tcp_connect("127.0.0.1", port_));
  } catch (const std::exception& e) {
    ops_.fail(std::string("query connect: ") + e.what());
    return;
  }
  const auto start = Clock::now();
  std::uint64_t n = 0;
  while (wait_while_paused()) {
    QuerySample s;
    if (rate_ > 0) {
      // Open loop: query n is due at start + n/rate whatever happened before,
      // not counting the time the worker was held paused.
      Clock::duration paused;
      {
        const std::lock_guard lock(mutex_);
        paused = paused_total_;
      }
      s.due = start + paused +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(n) / rate_));
      const auto now = Clock::now();
      // Sleep to just before the due time, then spin, so the generator's own
      // timer wake-up is not counted as the server's latency.
      const auto wake = s.due - kProbeSpin;
      if (wake > now) {
        std::this_thread::sleep_until(std::min(wake, now + std::chrono::milliseconds(50)));
        continue;
      }
      if (s.due > now) {
        while (Clock::now() < s.due) {
        }
      } else {
        late_ms_max_ = std::max(late_ms_max_, ms_between(s.due, now));
      }
      s.kind = api::QueryKind::kClassOf;
    } else {
      s.due = Clock::now();
      // The query_mix blend: mostly kClassOf, then live counters, history,
      // stats, and an occasional full snapshot.
      const double u = rng.uniform();
      s.kind = u < 0.80   ? api::QueryKind::kClassOf
               : u < 0.88 ? api::QueryKind::kLiveCounters
               : u < 0.94 ? api::QueryKind::kHistory
               : u < 0.99 ? api::QueryKind::kStats
                          : api::QueryKind::kSnapshot;
    }
    ++n;
    s.asn = draw_asn();
    ops_.attempt();
    try {
      const auto response = client->query({s.kind, s.asn});
      s.done = Clock::now();
      if (s.kind == api::QueryKind::kClassOf) {
        if (!response.asn_class) {
          ops_.fail("kClassOf answered without a class");
          continue;
        }
        s.answer = response.asn_class->usage;
      }
      samples_.push_back(s);
    } catch (const std::exception& e) {
      ops_.fail(std::string("query: ") + e.what());
      if (dynamic_cast<const net::TransportError*>(&e) != nullptr) return;
    }
  }
}

// -------------------------------------------------------------- Scraper --

Scraper::Scraper(std::uint16_t port, std::chrono::milliseconds period, Ops& ops)
    : port_(port), period_(period), ops_(ops) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const auto t0 = Clock::now();
      ops_.attempt();
      try {
        auto conn = net::tcp_connect("127.0.0.1", port_);
        const std::string request = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
        if (!conn->write_all({reinterpret_cast<const std::uint8_t*>(request.data()),
                              request.size()})) {
          throw net::TransportError("write failed");
        }
        std::string body;
        std::vector<std::uint8_t> buf(64 * 1024);
        for (;;) {
          const auto n = conn->read_some(buf);
          if (n == 0) break;
          body.append(reinterpret_cast<const char*>(buf.data()), n);
        }
        if (body.rfind("HTTP/1.", 0) != 0 || body.find(" 200 ") == std::string::npos ||
            body.find("bgpcu_feed_polls_total") == std::string::npos) {
          throw net::TransportError("bad /metrics answer");
        }
        scrape_ms_.push_back(ms_between(t0, Clock::now()));
      } catch (const std::exception& e) {
        ops_.fail(std::string("scrape: ") + e.what());
      }
      std::this_thread::sleep_until(t0 + period_);
    }
  });
}

Scraper::~Scraper() { stop(); }

void Scraper::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

// ------------------------------------------------------------- Counters --

double Counters::reg(const std::string& family) const {
  const auto it = registry.find(family);
  return it == registry.end() ? 0.0 : it->second;
}

Counters read_counters(Daemon& d) {
  Counters c;
  c.service = *d.service.query({api::QueryKind::kStats}).stats;
  c.server = d.server.stats();
  for (const auto& family : obs::Registry::global().collect()) {
    if (family.type == obs::MetricType::kHistogram) continue;
    double sum = 0;
    for (const auto& series : family.series) sum += series.value;
    c.registry[family.name] = sum;
  }
  return c;
}

// ------------------------------------------------------------- recovery --

Recovery cold_restart(const DaemonConfig& config, bgp::Asn probe, Ops& ops) {
  Recovery r;
  const auto t0 = Clock::now();
  api::Service service(config.service);
  store::Store store(config.store);
  const auto rec_start = Clock::now();
  const auto stats = store.recover(service);
  r.recover_ms = ms_between(rec_start, Clock::now());
  r.recovered = stats.recovered;
  service.set_history_provider([&store](bgp::Asn asn) { return store.history(asn); });
  auto listener = std::make_shared<net::TcpListener>("127.0.0.1", 0);
  net::Server server(service, listener, net::ServerConfig{});
  server.start();
  ops.attempt();
  try {
    net::Client client(net::tcp_connect("127.0.0.1", listener->port()));
    const auto answer = client.query({api::QueryKind::kClassOf, probe});
    if (!answer.asn_class) ops.fail("recovered kClassOf answered without a class");
  } catch (const std::exception& e) {
    ops.fail(std::string("recovered server query: ") + e.what());
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  server.stop();
  r.map = service.query({api::QueryKind::kSnapshot}).snapshot->counter_map();
  return r;
}

// ---------------------------------------------------------------- stats --

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

}  // namespace e2e
