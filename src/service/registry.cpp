#include "service/registry.h"

#include <algorithm>

#include "check/check.h"
#include "geom/rng.h"
#include "service/bloom.h"

namespace wcds::service {

ServiceRegistry::ServiceRegistry(std::size_t node_count)
    : per_node_(node_count) {}

ServiceId ServiceRegistry::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const ServiceId id = static_cast<ServiceId>(names_.size());
  names_.emplace_back(name);
  keys_.push_back(BloomFilter::key_of(name));
  per_service_.emplace_back();
  ids_.emplace(names_.back(), id);
  return id;
}

ServiceId ServiceRegistry::find(std::string_view name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidService : it->second;
}

const std::string& ServiceRegistry::name(ServiceId service) const {
  WCDS_REQUIRE_BOUNDS(service < names_.size(),
                      "ServiceRegistry::name: bad service id");
  return names_[service];
}

std::uint64_t ServiceRegistry::key(ServiceId service) const {
  WCDS_REQUIRE_BOUNDS(service < keys_.size(),
                      "ServiceRegistry::key: bad service id");
  return keys_[service];
}

void ServiceRegistry::advertise(NodeId node, ServiceId service) {
  WCDS_REQUIRE_BOUNDS(node < per_node_.size(),
                      "ServiceRegistry::advertise: bad node");
  WCDS_REQUIRE_BOUNDS(service < names_.size(),
                      "ServiceRegistry::advertise: bad service id");
  auto& services = per_node_[node];
  const auto pos = std::lower_bound(services.begin(), services.end(), service);
  if (pos != services.end() && *pos == service) return;  // idempotent
  services.insert(pos, service);
  auto& providers = per_service_[service];
  providers.insert(std::lower_bound(providers.begin(), providers.end(), node),
                   node);
  ++advertisements_;
}

bool ServiceRegistry::provides(NodeId node, ServiceId service) const {
  WCDS_REQUIRE_BOUNDS(node < per_node_.size(),
                      "ServiceRegistry::provides: bad node");
  const auto& services = per_node_[node];
  return std::binary_search(services.begin(), services.end(), service);
}

std::span<const ServiceId> ServiceRegistry::services_at(NodeId node) const {
  WCDS_REQUIRE_BOUNDS(node < per_node_.size(),
                      "ServiceRegistry::services_at: bad node");
  return per_node_[node];
}

std::span<const NodeId> ServiceRegistry::providers_of(ServiceId service) const {
  WCDS_REQUIRE_BOUNDS(service < per_service_.size(),
                      "ServiceRegistry::providers_of: bad service id");
  return per_service_[service];
}

ServiceRegistry uniform_registry(std::size_t node_count, std::size_t universe,
                                 std::size_t services_per_node,
                                 std::uint64_t seed) {
  WCDS_REQUIRE(universe > 0, "uniform_registry: empty service universe");
  WCDS_REQUIRE(services_per_node <= universe,
               "uniform_registry: more services per node than the universe");
  ServiceRegistry registry(node_count);
  std::string name;
  for (std::size_t s = 0; s < universe; ++s) {
    name = "svc-" + std::to_string(s);
    registry.intern(name);
  }
  for (NodeId u = 0; u < node_count; ++u) {
    // Per-node stream: the draw sequence of node u never depends on other
    // nodes, so the registry is a pure function of (node_count, universe,
    // services_per_node, seed).
    geom::Xoshiro256ss rng(geom::SplitMix64(seed ^ (0x9E3779B97F4A7C15ULL *
                                                    (u + 1)))
                               .next());
    std::size_t picked = 0;
    while (picked < services_per_node) {
      const auto s = static_cast<ServiceId>(rng.next_below(universe));
      if (registry.provides(u, s)) continue;  // distinct draws
      registry.advertise(u, s);
      ++picked;
    }
  }
  return registry;
}

}  // namespace wcds::service
