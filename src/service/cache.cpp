#include "service/cache.h"

#include "graph/graph.h"

namespace satfr::service {

std::uint64_t FingerprintGraph(const graph::Graph& g) {
  // FNV-1a over the vertex count and the sorted edge list. Edges() returns
  // each undirected edge once with u < v in ascending order, so the
  // fingerprint is a function of the graph's structure alone.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(g.num_vertices()));
  for (const auto& [u, v] : g.Edges()) {
    mix(static_cast<std::uint64_t>(u) << 32 | static_cast<std::uint32_t>(v));
  }
  // Avalanche so near-identical graphs (one edge apart) spread across
  // shards.
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

bool CacheKey::operator==(const CacheKey& other) const {
  if (fingerprint != other.fingerprint || width != other.width ||
      encoding != other.encoding || symmetry != other.symmetry ||
      solver != other.solver) {
    return false;
  }
  // Pointer equality is the fast path: callers that share one graph per
  // instance never pay for the structural compare.
  if (graph == other.graph) return true;
  return graph != nullptr && other.graph != nullptr && *graph == *other.graph;
}

std::string CacheKey::ToString() const {
  std::string out = "g";
  out += std::to_string(fingerprint);
  out += "/W";
  out += std::to_string(width);
  out += "/";
  out += encoding;
  out += "/";
  out += symmetry;
  if (!solver.empty()) {
    out += "/";
    out += solver;
  }
  return out;
}

}  // namespace satfr::service
