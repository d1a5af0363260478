// e2ebench — one end-to-end benchmark from MRT bytes to subscriber.
//
// Usage:
//   e2ebench --workload bulk_load|live_tail|query_mix --seed N --seconds S
//            --trace 0|1 [--tiny] [--mutate drop_event|alter_counter]
//
// Prints a human-readable report (every metric by name, unit and sample
// count, plus provenance), then, as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Scratch files go under .bench_work/ (removed at exit), the
// full record and a traced run's spans under .bench_out/. Exits 1 when a
// correctness gate fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "net/poller.h"
#include "workloads.h"

namespace {

using namespace e2e;

int usage() {
  std::cerr << "usage: e2ebench --workload bulk_load|live_tail|query_mix --seed N --seconds S"
               " --trace 0|1 [--tiny] [--mutate drop_event|alter_counter]\n";
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const auto& m : metrics) {
    std::printf("  %-34s %16.6f %-6s n=%-7zu %s is better\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.higher_is_better ? "higher" : "lower");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const std::string out_dir = ".bench_out";
  o.work_dir = ".bench_work";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const auto v = value();
        if (v != "0" && v != "1") return usage();
        o.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--mutate") {
        o.mutate = value();
        if (o.mutate != "drop_event" && o.mutate != "alter_counter") return usage();
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0)) return usage();

  const std::string tag = o.workload + "-seed" + std::to_string(o.seed) + "-trace" +
                          (o.trace ? "1" : "0");
  o.work_dir += "/" + tag;
  o.spans_path = out_dir + "/" + tag + ".spans.jsonl";
  std::filesystem::remove_all(o.work_dir);
  std::filesystem::create_directories(o.work_dir);
  std::filesystem::create_directories(out_dir);

  Report report;
  try {
    report = run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::filesystem::remove_all(o.work_dir);
    return 1;
  }
  std::filesystem::remove_all(o.work_dir);

  // Provenance: what produced these numbers.
  const std::vector<std::pair<std::string, std::string>> provenance = {
      {"source", env_or("E2E_SOURCE_ID", "unknown")},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", env_or("E2E_CPU_MODEL", "unknown")},
      {"build_type", E2E_BUILD_TYPE},
      {"poller",
       bgpcu::net::default_poller_backend() == bgpcu::net::PollerBackend::kEpoll ? "epoll"
                                                                                 : "poll"},
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"seconds", number(o.seconds)},
      {"trace", o.trace ? "1" : "0"},
      {"scale", o.tiny ? "tiny" : "full"},
  };

  std::printf("e2ebench %s\n", tag.c_str());
  for (const auto& [k, v] : provenance) std::printf("  %-32s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : report.facts) std::printf("  %-32s %s\n", k.c_str(), v.c_str());
  print_metrics("end-to-end:", report.end_to_end);
  print_metrics("per-layer:", report.per_layer);
  print_metrics("per-layer (report only):", report.extra);
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& note : report.failure_notes) std::printf("  failed: %s\n", note.c_str());
  for (const auto& why : report.gate_failures) std::printf("GATE FAILED: %s\n", why.c_str());
  const bool correct = report.gate_failures.empty();
  std::printf("gates: %s\n", correct ? "all passed" : "FAILED");

  // Full record next to the run's other outputs.
  std::ostringstream record;
  record << "{\"provenance\": {";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    record << (i ? ", " : "") << "\"" << provenance[i].first << "\": \""
           << json_escape(provenance[i].second) << "\"";
  }
  record << "}, \"facts\": {";
  for (std::size_t i = 0; i < report.facts.size(); ++i) {
    record << (i ? ", " : "") << "\"" << report.facts[i].first << "\": \""
           << json_escape(report.facts[i].second) << "\"";
  }
  record << "}, \"end_to_end\": " << metrics_json(report.end_to_end)
         << ", \"per_layer\": " << metrics_json(report.per_layer)
         << ", \"extra\": " << metrics_json(report.extra) << ", \"correct\": "
         << (correct ? "true" : "false") << "}\n";
  std::ofstream(out_dir + "/" + tag + ".json", std::ios::trunc) << record.str();

  std::cout.flush();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(o.trace ? report.per_layer : report.end_to_end).c_str());
  return correct ? 0 : 1;
}
