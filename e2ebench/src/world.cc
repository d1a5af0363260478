// The benchmark's inputs: a seeded synthetic Internet and the MRT archives
// its collectors would publish. The program under test only ever sees the
// files landed in its watch directory.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "collector/emit.h"
#include "common.h"
#include "sim/scenario.h"
#include "sim/wild.h"

namespace e2e {

World make_world(std::uint64_t seed, bool tiny) {
  // The AS-level Internet (topology, collector layout, roles, community
  // outputs) is the same for every seed, so every seed offers the same
  // amount of work: generated worlds differ by up to 2x in tuples per MB
  // from seed to seed. The seed drives what the collectors record (see
  // emit_day) and the query draws.
  constexpr std::uint64_t kWorldSeed = 1;
  World world;
  world.seed = seed;
  topology::GeneratorParams gen;
  gen.num_ases = tiny ? 500 : 4000;
  gen.num_tier1 = std::max<std::uint32_t>(6, gen.num_ases / 1000);
  gen.seed = kWorldSeed;
  world.topo = topology::generate(gen);

  collector::ProjectLayoutParams layout;
  layout.total_peers = tiny ? 20 : 80;
  layout.seed = kWorldSeed;
  world.projects = collector::default_projects(world.topo, layout);
  world.substrate = sim::build_substrate(world.topo, collector::all_peers(world.projects));

  sim::WildParams wild;
  wild.seed = kWorldSeed;
  const auto roles = sim::assign_wild_roles(world.topo, wild);
  sim::OutputConfig output;
  output.pollution = wild.pollution;
  world.dataset = sim::generate_dataset(world.topo, world.substrate, roles, output,
                                        kWorldSeed, /*observations=*/3);

  // Query targets: ASes by how many observed paths cross them, so a skewed
  // draw over this list asks mostly about the transit core, as operators do.
  std::unordered_map<bgp::Asn, std::uint64_t> crossings;
  for (const auto& tuple : world.dataset) {
    for (const auto asn : tuple.path) ++crossings[asn];
  }
  std::vector<std::pair<std::uint64_t, bgp::Asn>> ranked;
  ranked.reserve(crossings.size());
  for (const auto& [asn, count] : crossings) ranked.emplace_back(count, asn);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first != b.first ? a.first > b.first
                                                                         : a.second < b.second; });
  for (const auto& entry : ranked) world.popular_asns.push_back(entry.second);
  return world;
}

namespace {

std::string slug(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out.empty() ? std::string("x") : out;
}

}  // namespace

std::vector<MrtFile> emit_day(const World& world) {
  const collector::PathOutputs outputs(world.dataset);
  collector::EmissionConfig emission;
  emission.seed = world.seed;
  std::vector<MrtFile> files;
  for (const auto& project : world.projects) {
    for (auto& emitted :
         collector::emit_project(world.topo, world.substrate, outputs, project, emission)) {
      const std::string base = slug(project.name) + "." + slug(emitted.name);
      if (!emitted.rib_dump.empty()) {
        files.push_back({base + ".rib.mrt", project.name, true, std::move(emitted.rib_dump)});
      }
      if (!emitted.update_dump.empty()) {
        files.push_back(
            {base + ".upd.mrt", project.name, false, std::move(emitted.update_dump)});
      }
    }
  }
  return files;
}

std::vector<MrtFile> split_records(const MrtFile& file, std::size_t parts) {
  // MRT common header: timestamp(4) type(2) subtype(2) length(4), big endian.
  std::vector<std::size_t> starts;
  std::size_t at = 0;
  const auto& b = file.bytes;
  while (at + 12 <= b.size()) {
    starts.push_back(at);
    const std::size_t length = (std::size_t{b[at + 8]} << 24) | (std::size_t{b[at + 9]} << 16) |
                               (std::size_t{b[at + 10]} << 8) | std::size_t{b[at + 11]};
    at += 12 + length;
  }
  if (at != b.size()) throw std::runtime_error("truncated MRT record in " + file.name);
  parts = std::max<std::size_t>(1, std::min(parts, starts.size()));
  std::vector<MrtFile> out;
  const std::string stem = file.name.substr(0, file.name.size() - 4);  // drop ".mrt"
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t first = starts.size() * p / parts;
    const std::size_t last = starts.size() * (p + 1) / parts;
    if (first == last) continue;
    const std::size_t begin = starts[first];
    const std::size_t end = last < starts.size() ? starts[last] : b.size();
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, ".%03zu.mrt", p);
    out.push_back({stem + suffix, file.project, file.rib,
                   std::vector<std::uint8_t>(b.begin() + static_cast<std::ptrdiff_t>(begin),
                                             b.begin() + static_cast<std::ptrdiff_t>(end))});
  }
  return out;
}

void land(const std::string& dir, const MrtFile& file) {
  const auto final_path = std::filesystem::path(dir) / file.name;
  const auto temp_path = std::filesystem::path(dir) / (file.name + ".part");
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.bytes.data()),
              static_cast<std::streamsize>(file.bytes.size()));
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + temp_path.string());
  }
  std::filesystem::rename(temp_path, final_path);
}

}  // namespace e2e
