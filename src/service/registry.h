// Per-node service advertisement registry.
//
// Every node may advertise any number of named services ("resources" in the
// DS-SCN architecture).  The registry interns names to dense ServiceIds,
// keeps the node -> services and service -> providers relations sorted for
// deterministic iteration, and exposes the stable 64-bit Bloom key of each
// service (the FNV-1a digest of its name).
//
// The registry is the *ground truth* the serving engine's clusterheads
// aggregate: each clusterhead inserts its domain members' service keys into
// its Bloom filter and additionally keeps the exact per-domain provider
// row, so Bloom false positives are detected at the candidate clusterhead
// rather than turning into misdelivery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.h"

namespace wcds::service {

using ServiceId = std::uint32_t;
inline constexpr ServiceId kInvalidService = 0xFFFFFFFFu;

class ServiceRegistry {
 public:
  explicit ServiceRegistry(std::size_t node_count);

  // Intern `name`, returning its (stable) ServiceId; idempotent.
  ServiceId intern(std::string_view name);

  // The ServiceId of `name`, or kInvalidService if never interned.
  [[nodiscard]] ServiceId find(std::string_view name) const;

  [[nodiscard]] const std::string& name(ServiceId service) const;

  // The Bloom key of `service` (BloomFilter::key_of of its name), cached.
  [[nodiscard]] std::uint64_t key(ServiceId service) const;

  // Record that `node` provides `service`; idempotent.
  void advertise(NodeId node, ServiceId service);
  void advertise(NodeId node, std::string_view name) {
    advertise(node, intern(name));
  }

  [[nodiscard]] bool provides(NodeId node, ServiceId service) const;

  // Services advertised at `node`, ascending by id.
  [[nodiscard]] std::span<const ServiceId> services_at(NodeId node) const;

  // Nodes advertising `service`, ascending by id.
  [[nodiscard]] std::span<const NodeId> providers_of(ServiceId service) const;

  [[nodiscard]] std::size_t node_count() const { return per_node_.size(); }
  [[nodiscard]] std::size_t service_count() const { return names_.size(); }
  [[nodiscard]] std::size_t advertisement_count() const {
    return advertisements_;
  }

 private:
  std::vector<std::string> names_;            // by ServiceId
  std::vector<std::uint64_t> keys_;           // by ServiceId
  std::map<std::string, ServiceId, std::less<>> ids_;
  std::vector<std::vector<ServiceId>> per_node_;     // sorted unique
  std::vector<std::vector<NodeId>> per_service_;     // sorted unique
  std::size_t advertisements_ = 0;
};

// A deterministic synthetic workload: `universe` services named
// "svc-<i>", each node advertising `services_per_node` distinct services
// drawn uniformly from the universe by a per-node RNG stream seeded from
// (seed, node) — the same registry at any call order or thread count.
[[nodiscard]] ServiceRegistry uniform_registry(std::size_t node_count,
                                               std::size_t universe,
                                               std::size_t services_per_node,
                                               std::uint64_t seed);

}  // namespace wcds::service
