// wcds — command-line driver for the library.
//
// Subcommands:
//   generate  --n N --degree D [--workload uniform|clustered|grid|corridor|ring]
//             [--seed S] --out points.txt
//       Generate a connected deployment and save it.
//   backbone  --points points.txt [--algorithm 1|2] [--mode central|protocol]
//             [--threads T] [--svg out.svg]
//       Build the WCDS, print statistics, optionally render an SVG.  The
//       protocol mode runs the distributed construction over the sim and
//       accepts disconnected deployments (one backbone per component,
//       component sub-runs sharded across T threads; 0 = WCDS_THREADS env).
//   route     --points points.txt --src A --dst B
//       Build the Algorithm II backbone and route one packet.
//   stats     --points points.txt
//       UDG statistics for a saved deployment.
//   broadcast --points points.txt [--source S]
//       Compare blind flooding with backbone flooding.
//   maintain  --points points.txt [--events N] [--seed S]
//       Churn the deployment and report the localized repairs.
//
// Exit status: 0 on success, 1 on bad usage or failed precondition.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/exact.h"
#include "broadcast/backbone_broadcast.h"
#include "check/audit.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "maintenance/dynamic_wcds.h"
#include "io/svg.h"
#include "io/text_format.h"
#include "mis/mis.h"
#include "parallel/thread_pool.h"
#include "routing/clusterhead_routing.h"
#include "spanner/analysis.h"
#include "udg/udg.h"
#include "facade/build.h"
#include "wcds/verify.h"

namespace {

using namespace wcds;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::runtime_error("expected --flag value pairs, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::runtime_error("missing required --" + key);
    return *v;
  }
  // Numbers parse whole: a sign, trailing characters, a value out of range
  // or a non-finite double is an error, never a wrapped or truncated value.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    std::uint64_t value = 0;
    const char* end = v->data() + v->size();
    const auto [stop, error] = std::from_chars(v->data(), end, value);
    if (error != std::errc{} || stop != end) {
      throw std::runtime_error("--" + key + " expects a non-negative integer, "
                               "got '" + *v + "'");
    }
    return value;
  }
  // A node ID of a deployment with `node_count` nodes.  The range check
  // reads the full 64-bit value, so 2^32 + 1 cannot wrap onto node 1.
  [[nodiscard]] NodeId get_node(const std::string& key, std::uint64_t fallback,
                                std::size_t node_count) const {
    const std::uint64_t id = get_u64(key, fallback);
    if (id >= node_count) {
      throw std::runtime_error("--" + key + " " + std::to_string(id) +
                               " out of range (" + std::to_string(node_count) +
                               " nodes)");
    }
    return static_cast<NodeId>(id);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    double value = 0.0;
    const char* end = v->data() + v->size();
    const auto [stop, error] = std::from_chars(v->data(), end, value);
    if (error != std::errc{} || stop != end || v->front() == '-' ||
        !std::isfinite(value)) {
      throw std::runtime_error("--" + key + " expects a finite non-negative "
                               "number, got '" + *v + "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

geom::WorkloadKind parse_workload(const std::string& name) {
  if (name == "uniform") return geom::WorkloadKind::kUniform;
  if (name == "clustered") return geom::WorkloadKind::kClustered;
  if (name == "grid") return geom::WorkloadKind::kPerturbedGrid;
  if (name == "corridor") return geom::WorkloadKind::kCorridor;
  if (name == "ring") return geom::WorkloadKind::kRing;
  throw std::runtime_error("unknown workload: " + name);
}

int cmd_generate(const Args& args) {
  const std::uint64_t n_arg = args.get_u64("n", 500);
  if (n_arg == 0) throw std::runtime_error("--n must be at least 1");
  if (n_arg > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("--n " + std::to_string(n_arg) +
                             " exceeds the 32-bit node ID space");
  }
  const auto n = static_cast<std::uint32_t>(n_arg);
  const double degree = args.get_double("degree", 12.0);
  const auto kind = parse_workload(args.get("workload").value_or("uniform"));
  std::uint64_t seed = args.get_u64("seed", 1);
  const std::string out = args.require("out");

  geom::WorkloadParams params;
  params.kind = kind;
  params.count = n;
  params.side = geom::side_for_expected_degree(n, degree);
  for (int attempt = 0; attempt < 256; ++attempt) {
    params.seed = seed++;
    const auto points = geom::generate(params);
    const auto g = udg::build_udg(points);
    if (graph::is_connected(g)) {
      io::save_points(out, points);
      std::cout << "wrote " << out << ": " << n << " nodes, "
                << g.edge_count() << " UDG edges (avg degree "
                << g.average_degree() << ")\n";
      return 0;
    }
    params.side *= 0.99;
  }
  std::cerr << "could not generate a connected deployment; raise --degree\n";
  return 1;
}

int cmd_backbone(const Args& args) {
  const std::uint64_t threads = args.get_u64("threads", 0);
  if (threads > parallel::kMaxThreads) {
    throw std::runtime_error("--threads " + std::to_string(threads) +
                             " exceeds the ceiling of " +
                             std::to_string(parallel::kMaxThreads));
  }
  const auto points = io::load_points(args.require("points"));
  const auto g = udg::build_udg(points);
  const std::string mode = args.get("mode").value_or("central");
  const bool protocol = mode == "protocol";
  if (!protocol && mode != "central") {
    std::cerr << "--mode must be central or protocol\n";
    return 1;
  }
  const bool connected = graph::is_connected(g);
  if (!protocol && !connected) {
    std::cerr << "deployment is not connected (use --mode protocol for a "
                 "per-component backbone)\n";
    return 1;
  }
  const auto algorithm = args.get_u64("algorithm", 2);
  core::BuildOptions build_options;
  if (algorithm == 1) {
    build_options.algorithm = protocol
                                  ? core::BuildAlgorithm::kAlgorithm1Protocol
                                  : core::BuildAlgorithm::kAlgorithm1Central;
  } else if (algorithm == 2) {
    build_options.algorithm = protocol
                                  ? core::BuildAlgorithm::kAlgorithm2Protocol
                                  : core::BuildAlgorithm::kAlgorithm2Central;
  } else {
    std::cerr << "--algorithm must be 1 or 2\n";
    return 1;
  }
  build_options.threads = static_cast<std::size_t>(threads);
  const core::BuildReport report = core::build(g, build_options);
  const core::WcdsResult& result = report.result;
  // The WCDS definition judged per component, so one check covers a
  // connected deployment and a disconnected protocol run alike.
  const bool verified = check::sweep_wcds(g, result.mask).ok();
  std::cout << "algorithm " << algorithm << " (" << mode
            << "): |U| = " << result.size() << " ("
            << result.mis_dominators.size() << " MIS + "
            << result.additional_dominators.size() << " additional)\n"
            << "verified WCDS" << (connected ? "" : " (per component)")
            << ": " << std::boolalpha << verified << "\n";
  if (protocol) {
    std::cout << "sim: " << report.stats.transmissions << " transmissions, "
              << "completion time " << report.stats.completion_time << "\n";
  }
  // The spanner/dilation analysis assumes one component; a disconnected
  // protocol run reports per-component structure instead.
  if (connected) {
    const auto spanner = core::extract_spanner(g, result);
    const auto topo = spanner::topological_dilation(g, spanner, 40);
    std::cout << "spanner: " << spanner.edge_count() << " of "
              << g.edge_count() << " edges; topological dilation max "
              << topo.max_ratio << ", mean " << topo.mean_ratio << "\n"
              << "lower bound on opt: "
              << baselines::udg_mwcds_lower_bound(
                     mis::greedy_mis_by_id(g).size())
              << "\n";
  } else {
    std::cout << "components: " << graph::connected_components(g).count
              << " (spanner analysis skipped for disconnected input)\n";
  }
  if (const auto svg = args.get("svg")) {
    io::save_svg(*svg, points, g, result);
    std::cout << "rendered " << *svg << "\n";
  }
  return 0;
}

int cmd_route(const Args& args) {
  const auto points = io::load_points(args.require("points"));
  const auto g = udg::build_udg(points);
  if (!graph::is_connected(g)) {
    std::cerr << "deployment is not connected\n";
    return 1;
  }
  const NodeId src = args.get_node("src", 0, g.node_count());
  const NodeId dst = args.get_node("dst", g.node_count() - 1, g.node_count());
  core::BuildOptions route_options;
  route_options.algorithm = core::BuildAlgorithm::kAlgorithm2Central;
  const core::BuildReport report = core::build(g, route_options);
  const routing::ClusterheadRouter router(g, report.algorithm2_view());
  const auto route = router.route(src, dst);
  if (!route.delivered) {
    std::cerr << "undeliverable\n";
    return 1;
  }
  std::cout << "route (" << route.hops() << " hops, shortest "
            << graph::hop_distance(g, src, dst) << "):";
  for (NodeId hop : route.path) std::cout << ' ' << hop;
  std::cout << "\nclusterheads: src -> " << router.clusterhead(src)
            << ", dst -> " << router.clusterhead(dst) << "\n";
  return 0;
}

int cmd_stats(const Args& args) {
  const auto points = io::load_points(args.require("points"));
  const auto g = udg::build_udg(points);
  const auto stats = udg::analyze(g);
  std::cout << "nodes: " << stats.nodes << "\nedges: " << stats.edges
            << "\navg degree: " << stats.average_degree
            << "\nmax degree: " << stats.max_degree
            << "\ncomponents: " << stats.components << "\n";
  if (stats.components == 1 && stats.nodes > 0) {
    std::cout << "eccentricity(0): " << graph::eccentricity(g, 0) << "\n";
  }
  return 0;
}

int cmd_broadcast(const Args& args) {
  const auto points = io::load_points(args.require("points"));
  const auto g = udg::build_udg(points);
  if (!graph::is_connected(g)) {
    std::cerr << "deployment is not connected\n";
    return 1;
  }
  const NodeId source = args.get_node("source", 0, g.node_count());
  core::BuildOptions broadcast_options;
  broadcast_options.algorithm = core::BuildAlgorithm::kAlgorithm2Central;
  const auto backbone = core::build(g, broadcast_options);
  auto relays = broadcast::relay_set(g, backbone.result.mask);
  relays[source] = true;
  const auto blind = broadcast::blind_flood(g, source);
  const auto bb = broadcast::flood(g, source, relays);
  std::cout << "blind flood:    " << blind.transmissions
            << " transmissions, reached " << blind.reached << "/"
            << g.node_count() << "\n"
            << "backbone flood: " << bb.transmissions
            << " transmissions, reached " << bb.reached << "/"
            << g.node_count() << "\n";
  return blind.reached == g.node_count() && bb.reached == g.node_count() ? 0
                                                                         : 1;
}

int cmd_maintain(const Args& args) {
  auto points = io::load_points(args.require("points"));
  const auto events = args.get_u64("events", 30);
  if (events == 0) throw std::runtime_error("--events must be at least 1");
  geom::Xoshiro256ss rng(args.get_u64("seed", 1));
  geom::BoundingBox box{{0, 0}, {0, 0}};
  if (!points.empty()) {
    box = {points[0], points[0]};
    for (const auto& p : points) box.expand(p);
  }
  maintenance::DynamicWcds net(points);
  std::size_t violations = 0;
  std::size_t demoted = 0;
  std::size_t promoted = 0;
  std::size_t region = 0;
  for (std::uint64_t e = 0; e < events; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(points.size()));
    const auto report = net.move_node(
        u, {rng.next_double(box.min.x, box.max.x),
            rng.next_double(box.min.y, box.max.y)});
    demoted += report.demoted;
    promoted += report.promoted;
    region += report.region_size;
    if (!net.audit().ok()) ++violations;
  }
  std::cout << events << " events: " << demoted << " demotions, " << promoted
            << " promotions, mean repair region "
            << static_cast<double>(region) / static_cast<double>(events)
            << " nodes, " << violations << " invariant violations\n"
            << "final backbone: " << net.dominators().size()
            << " dominators\n";
  return violations == 0 ? 0 : 1;
}

void usage() {
  std::cerr
      << "usage: wcds <generate|backbone|route|stats|broadcast|maintain> "
         "[--flag value ...]\n"
         "  generate  --n N --degree D [--workload KIND] [--seed S] --out F\n"
         "  backbone  --points F [--algorithm 1|2] [--mode central|protocol]"
         " [--threads T] [--svg OUT]\n"
         "  route     --points F --src A --dst B\n"
         "  stats     --points F\n"
         "  broadcast --points F [--source S]\n"
         "  maintain  --points F [--events N] [--seed S]\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "generate") return cmd_generate(args);
    if (command == "backbone") return cmd_backbone(args);
    if (command == "route") return cmd_route(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "broadcast") return cmd_broadcast(args);
    if (command == "maintain") return cmd_maintain(args);
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
