// Pinned digests of full simulator runs.
//
// Every cell below hashes one complete run: each TraceEvent (kind, time,
// src, dst, message type and queue depth), the RunStats, the recorder's
// counters and gauges, and the constructed WCDS.  The table holds the
// digests produced by the event queue this runtime replaced (two-bucket
// calendar, binary heap, timer heap, and the std::map reference queue they
// were differentially tested against), so any change in delivery order,
// timing, queue depth or accounting shows up as a digest mismatch.  The
// Algorithm I cells were re-pinned once since, when the election echo moved
// from RESP unicasts onto the CANDIDATE broadcasts: fewer messages, so
// different traces and stats (algorithm1_differential_test holds the
// unit-delay outcome to the old protocol's).
//
// The cells cover the runtime-queue matrix (8 seeds x 2 algorithms x unit
// and uniform delays, plus the four facade modes), the fault matrix
// (trivial, lossy, chaos-with-crashes, blackout and raw-duplication runs),
// the component-sharding matrix (8 seeds x 2 algorithms x 2 delay models x
// perfect and faulty radios) and the lossless MIS-maintenance scripts.
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "facade/build.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "protocols/mis_maintenance_protocol.h"
#include "sim/runtime.h"
#include "test_util.h"
#include "udg/udg.h"

namespace wcds {
namespace {

using testing::Cells;
using testing::Digest;
using testing::expect_pinned;

void add_trace(Digest& d, const std::vector<obs::TraceEvent>& events) {
  d.add(events.size());
  for (const obs::TraceEvent& e : events) {
    d.add(static_cast<std::uint64_t>(e.kind));
    d.add(e.time);
    d.add(e.src);
    d.add(e.dst);
    d.add(e.message_type);
    d.add(e.queue_depth);
  }
}

void add_stats(Digest& d, const sim::RunStats& s) {
  d.add(s.transmissions);
  d.add(s.deliveries);
  d.add(s.timer_fires);
  d.add(s.completion_time);
  d.add(s.quiescent ? 1 : 0);
  d.add(s.per_type.size());
  for (const auto& [type, count] : s.per_type) {
    d.add(type);
    d.add(count);
  }
}

// Counters and gauges; histograms carry wall-clock phase timings.
void add_metrics(Digest& d, const obs::MetricsSnapshot& snap) {
  d.add(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    d.add(name);
    d.add(value);
  }
  d.add(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    d.add(name);
    std::ostringstream text;
    text.precision(17);
    text << value;
    d.add(text.str());
  }
}

void add_wcds(Digest& d, const core::WcdsResult& r) {
  d.add_all(r.dominators);
  d.add_all(r.mis_dominators);
  d.add_all(r.additional_dominators);
  d.add_all(r.mask);
  // The cells were pinned with a per-node color after the mask: black (2)
  // for a member, gray (1) otherwise.  Hash the same words.
  d.add(r.mask.size());
  for (const bool member : r.mask) d.add(member ? 2 : 1);
}

// Traced protocol build; `faults` null = perfect radio.
std::uint64_t protocol_digest(bool alg1, const graph::Graph& g,
                              const sim::DelayModel& delays,
                              const fault::Plan* faults) {
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  Digest d;
  if (alg1) {
    const auto run =
        protocols::run_algorithm1(g, delays, &recorder, faults, 1);
    add_stats(d, run.stats);
    add_wcds(d, run.wcds);
    d.add(run.leader);
    d.add_all(run.leaders);
    d.add_all(run.levels);
  } else {
    const auto run =
        protocols::run_algorithm2(g, delays, &recorder, faults, 1);
    add_stats(d, run.stats);
    add_wcds(d, run.wcds);
  }
  add_trace(d, sink.events());
  add_metrics(d, recorder.snapshot());
  return d.value();
}

// Traced raw Runtime run (no driver, no hardened wrapper).
std::uint64_t raw_digest(bool alg1, const graph::Graph& g,
                         const sim::DelayModel& delays, sim::FaultHook* hook) {
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  const sim::Runtime::NodeFactory factory =
      alg1 ? sim::Runtime::NodeFactory([](NodeId) {
        return std::make_unique<protocols::Algorithm1Node>();
      })
           : sim::Runtime::NodeFactory([](NodeId) {
               return std::make_unique<protocols::Algorithm2Node>();
             });
  sim::Runtime rt(g, factory, delays, &recorder, hook);
  Digest d;
  add_stats(d, rt.run());
  add_trace(d, sink.events());
  add_metrics(d, recorder.snapshot());
  return d.value();
}

// The sharding suite's fleet: `clusters` separated connected UDGs with node
// ids interleaved round-robin.
graph::Graph multi_component_udg(std::size_t clusters, std::uint32_t per,
                                 double degree, std::uint64_t seed) {
  std::vector<std::vector<geom::Point>> parts(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    auto inst = wcds::testing::connected_udg(per, degree, seed + 101 * i);
    for (auto& p : inst.points) p.x += 1000.0 * static_cast<double>(i);
    parts[i] = std::move(inst.points);
  }
  std::vector<geom::Point> points;
  for (std::uint32_t j = 0; j < per; ++j) {
    for (std::size_t i = 0; i < clusters; ++i) points.push_back(parts[i][j]);
  }
  return udg::build_udg(points);
}

// Session state after one step of a maintenance script.
void add_session(Digest& d, const protocols::MisMaintenanceSession& session,
                 bool quiescent) {
  const auto& s = session.stats();
  d.add(s.transmissions);
  d.add(s.deliveries);
  d.add(s.dropped);
  d.add(session.now());
  d.add(quiescent ? 1 : 0);
  d.add_all(session.mis_mask());
}

// One random node moves by up to `step` per axis, `events` times.
std::uint64_t churn_digest(std::uint32_t n, double degree,
                           std::uint64_t deploy_seed, std::uint64_t move_seed,
                           int events, double step,
                           const sim::DelayModel& delays,
                           std::uint64_t max_events) {
  const double side = geom::side_for_expected_degree(n, degree);
  auto points = geom::uniform_square(n, side, deploy_seed);
  protocols::MisMaintenanceSession session(udg::build_udg(points), delays);
  Digest d;
  add_session(d, session, session.stabilize(max_events));
  geom::Xoshiro256ss rng(move_seed);
  for (int e = 0; e < events; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    points[u].x += rng.next_double(-step, step);
    points[u].y += rng.next_double(-step, step);
    add_session(d, session,
                session.update(udg::build_udg(points), max_events));
  }
  return d.value();
}

const Cells kRuntimeQueuePinned = {
    {"seed1/alg1/async", 0x1b3fb723cbf79b81ULL},
    {"seed1/alg1/unit", 0xa81bef7fcc8f0115ULL},
    {"seed1/alg2/async", 0x58d9547e439be3f3ULL},
    {"seed1/alg2/unit", 0xd60891c0c8313bb2ULL},
    {"seed2/alg1/async", 0x89c5935f0fb0fc0eULL},
    {"seed2/alg1/unit", 0x646ece4ecb7ab3b8ULL},
    {"seed2/alg2/async", 0x2f92540114672c2eULL},
    {"seed2/alg2/unit", 0xbb4ea0be48db393fULL},
    {"seed3/alg1/async", 0x7bb42607a45d5adULL},
    {"seed3/alg1/unit", 0xeb0ca89334a65dd0ULL},
    {"seed3/alg2/async", 0x797c3c421043438eULL},
    {"seed3/alg2/unit", 0x326a2d2837547f1fULL},
    {"seed4/alg1/async", 0xff838e052f57047ULL},
    {"seed4/alg1/unit", 0x34278ca33ae1972eULL},
    {"seed4/alg2/async", 0xdb43125bcfb5552cULL},
    {"seed4/alg2/unit", 0x848ddaa0b3ccf9b6ULL},
    {"seed5/alg1/async", 0xe2e5d158cd9d9f22ULL},
    {"seed5/alg1/unit", 0xfc67372a3eb1f4e1ULL},
    {"seed5/alg2/async", 0x4c976d9ce0ed6cb5ULL},
    {"seed5/alg2/unit", 0x9f7bfbaf959a4d46ULL},
    {"seed6/alg1/async", 0x286157108783af9bULL},
    {"seed6/alg1/unit", 0x7522da77e2f07e69ULL},
    {"seed6/alg2/async", 0x42fad9d71abf98a4ULL},
    {"seed6/alg2/unit", 0xfca1c4ef46456d1bULL},
    {"seed7/alg1/async", 0x733d785bcb9caffeULL},
    {"seed7/alg1/unit", 0xab02f2a74e9fa75eULL},
    {"seed7/alg2/async", 0xb632632a3023353ULL},
    {"seed7/alg2/unit", 0xb3dfbc16109beef1ULL},
    {"seed8/alg1/async", 0x606b6d57cf13e752ULL},
    {"seed8/alg1/unit", 0x9d835a193e8f783ULL},
    {"seed8/alg2/async", 0x7ae998eb370b77e7ULL},
    {"seed8/alg2/unit", 0x46c538e390b2691fULL},
};

const Cells kFacadePinned = {
    {"facade/algorithm1-central", 0x7fe8a4f5a8d7b7a7ULL},
    {"facade/algorithm1-protocol", 0x604d5318435d3e7aULL},
    {"facade/algorithm2-central", 0xc8b37e21b06bfd93ULL},
    {"facade/algorithm2-protocol", 0x75f7b931e1333050ULL},
};

const Cells kFaultPinned = {
    {"blackout", 0x21fc1bfbf0fc969fULL},
    {"chaos/seed1/alg1", 0xa552400c7e124937ULL},
    {"chaos/seed1/alg2", 0xc7ce7229e3fc3705ULL},
    {"chaos/seed2/alg1", 0x218303b7822a2a00ULL},
    {"chaos/seed2/alg2", 0x48a019eb921bffc2ULL},
    {"chaos/seed3/alg1", 0x5a642bdcdad449ebULL},
    {"chaos/seed3/alg2", 0xfe36dcb0f1433956ULL},
    {"chaos/seed4/alg1", 0xb123e6a80b4f14bfULL},
    {"chaos/seed4/alg2", 0x400e5e1004a00271ULL},
    {"chaos/seed5/alg1", 0xea23131ddc1d2029ULL},
    {"chaos/seed5/alg2", 0x9bdbd699720b67edULL},
    {"chaos/seed6/alg1", 0x67f4cc91fa252ab3ULL},
    {"chaos/seed6/alg2", 0xad0b4b408333c864ULL},
    {"chaos/seed7/alg1", 0x401cf2f787a5a39dULL},
    {"chaos/seed7/alg2", 0xd9df88a1ecbe4ddcULL},
    {"chaos/seed8/alg1", 0x440f9880644b78d0ULL},
    {"chaos/seed8/alg2", 0x9599048477562c12ULL},
    {"chaos_async/seed1/alg1", 0xf41f7dbf32031585ULL},
    {"chaos_async/seed1/alg2", 0x86c5e97a0b4c6657ULL},
    {"chaos_async/seed2/alg1", 0x65851c320402f255ULL},
    {"chaos_async/seed2/alg2", 0xb741e751e1a41df3ULL},
    {"chaos_async/seed3/alg1", 0xf2040f9613b32f13ULL},
    {"chaos_async/seed3/alg2", 0xf0e3dc4c7cf31ea6ULL},
    {"chaos_async/seed4/alg1", 0xa28698f6acd168b1ULL},
    {"chaos_async/seed4/alg2", 0x7ac75426e46e0480ULL},
    {"chaos_async/seed5/alg1", 0xe165c3d4af7a984fULL},
    {"chaos_async/seed5/alg2", 0x9f1e2829e2fea462ULL},
    {"chaos_async/seed6/alg1", 0x2d7fcb6135e58c70ULL},
    {"chaos_async/seed6/alg2", 0x6b7b99005a5fe7c5ULL},
    {"chaos_async/seed7/alg1", 0xa40f817989c0918bULL},
    {"chaos_async/seed7/alg2", 0xcc50256ef058c3b6ULL},
    {"chaos_async/seed8/alg1", 0x4b01fb6b28b4e7e1ULL},
    {"chaos_async/seed8/alg2", 0x24e5d3add8134c5aULL},
    {"chaos_facade/alg1", 0x1df777318cd5eec4ULL},
    {"chaos_facade/alg2", 0x6f43306958430d32ULL},
    {"lossy/seed1/alg1", 0x8c47300c8db707bULL},
    {"lossy/seed1/alg2", 0x2353dc7b69ca371bULL},
    {"lossy/seed2/alg1", 0xfd4d39a480f9ba4bULL},
    {"lossy/seed2/alg2", 0x7b5587b56cb53b49ULL},
    {"lossy/seed3/alg1", 0xf3c0d67341dc2448ULL},
    {"lossy/seed3/alg2", 0x5e1c65f3ef3719c0ULL},
    {"lossy/seed4/alg1", 0xf6fe11e4b4269962ULL},
    {"lossy/seed4/alg2", 0x4602b7793e20f6a0ULL},
    {"lossy/seed5/alg1", 0xa89d5b5b0203d1a6ULL},
    {"lossy/seed5/alg2", 0xd413cd3668778a2eULL},
    {"lossy/seed6/alg1", 0xa656bd22d589f4c7ULL},
    {"lossy/seed6/alg2", 0x9ec9f3aa9aed029dULL},
    {"lossy/seed7/alg1", 0x97d9f13c0f5951b1ULL},
    {"lossy/seed7/alg2", 0xe0c2a80f9aeed1fULL},
    {"lossy/seed8/alg1", 0xc386b02041d58a6dULL},
    {"lossy/seed8/alg2", 0xbbb01cccab8cd6aULL},
    {"null/alg1/async", 0xe69c60901f7df1ccULL},
    {"null/alg1/unit", 0x3162c604118682b1ULL},
    {"null/alg2/async", 0x66080574a424f0fcULL},
    {"null/alg2/unit", 0x6ec1bc313deeac2fULL},
    {"raw_duplication", 0xf6d71162c0bc7364ULL},
    {"trivial/alg1/async", 0xe69c60901f7df1ccULL},
    {"trivial/alg1/unit", 0x3162c604118682b1ULL},
    {"trivial/alg2/async", 0x66080574a424f0fcULL},
    {"trivial/alg2/unit", 0x6ec1bc313deeac2fULL},
};

const Cells kShardingPinned = {
    {"blackout_split", 0xb6c1ad03dccd9d74ULL},
    {"seed1/async/faulty/alg1", 0xdfdc0f6645f63182ULL},
    {"seed1/async/faulty/alg2", 0x16960ec08202cbdbULL},
    {"seed1/async/perfect/alg1", 0xe1dc191d442ac0cfULL},
    {"seed1/async/perfect/alg2", 0xf4af861237019e86ULL},
    {"seed1/unit/faulty/alg1", 0x4da79d714cd74626ULL},
    {"seed1/unit/faulty/alg2", 0x5aeed635ff3f1157ULL},
    {"seed1/unit/perfect/alg1", 0x1bbe8d9a7be02dbeULL},
    {"seed1/unit/perfect/alg2", 0xe77a9f3cfaa1c2f7ULL},
    {"seed2/async/faulty/alg1", 0x8cc04a3b71ea2fb2ULL},
    {"seed2/async/faulty/alg2", 0xa74d627f47468c41ULL},
    {"seed2/async/perfect/alg1", 0x50c9b2ac02235f21ULL},
    {"seed2/async/perfect/alg2", 0xccbed949dd40f94eULL},
    {"seed2/unit/faulty/alg1", 0x87e15ef94ababbbaULL},
    {"seed2/unit/faulty/alg2", 0x25c0b15526d59014ULL},
    {"seed2/unit/perfect/alg1", 0x41a718e4ac64b75fULL},
    {"seed2/unit/perfect/alg2", 0xaf21d078dea7ababULL},
    {"seed3/async/faulty/alg1", 0x17b0ce002f500ddbULL},
    {"seed3/async/faulty/alg2", 0xa2bdbf9c54fb222aULL},
    {"seed3/async/perfect/alg1", 0x884b7b87b474ade4ULL},
    {"seed3/async/perfect/alg2", 0xfb2900faa60ef6c8ULL},
    {"seed3/unit/faulty/alg1", 0x3d3840a51d0638f9ULL},
    {"seed3/unit/faulty/alg2", 0xcfd471aa97edb8a0ULL},
    {"seed3/unit/perfect/alg1", 0xaa4b6e8a47cdf77aULL},
    {"seed3/unit/perfect/alg2", 0x6429cee532ab7b0dULL},
    {"seed4/async/faulty/alg1", 0xb9296e290079754aULL},
    {"seed4/async/faulty/alg2", 0x2769cd821ad14318ULL},
    {"seed4/async/perfect/alg1", 0x9afe3290919b06a8ULL},
    {"seed4/async/perfect/alg2", 0x79a8ab7f2efab9c0ULL},
    {"seed4/unit/faulty/alg1", 0xaa83cb807b79faa2ULL},
    {"seed4/unit/faulty/alg2", 0x61b81f1d88e33b6cULL},
    {"seed4/unit/perfect/alg1", 0xbe4656fcc74de5fULL},
    {"seed4/unit/perfect/alg2", 0xd9afe452b6c5ebd0ULL},
    {"seed5/async/faulty/alg1", 0xbc54b96f91e5eb09ULL},
    {"seed5/async/faulty/alg2", 0x833adf38e854aae3ULL},
    {"seed5/async/perfect/alg1", 0x9bae45d277036acfULL},
    {"seed5/async/perfect/alg2", 0xb9e7d2683f75ec8aULL},
    {"seed5/unit/faulty/alg1", 0x53662a0b49e6ab49ULL},
    {"seed5/unit/faulty/alg2", 0x5a778d5db92485f0ULL},
    {"seed5/unit/perfect/alg1", 0x452a146960d035b7ULL},
    {"seed5/unit/perfect/alg2", 0x3f9234bfe3033a35ULL},
    {"seed6/async/faulty/alg1", 0x7f120a56b9cf19eaULL},
    {"seed6/async/faulty/alg2", 0xe005fcaa9c64ca0eULL},
    {"seed6/async/perfect/alg1", 0xb1298475b346fdb2ULL},
    {"seed6/async/perfect/alg2", 0xa28fd934a0b5188ULL},
    {"seed6/unit/faulty/alg1", 0xe5247228a68f2ab8ULL},
    {"seed6/unit/faulty/alg2", 0xfb738eb2d53734dfULL},
    {"seed6/unit/perfect/alg1", 0xbce4ac9fc7243edaULL},
    {"seed6/unit/perfect/alg2", 0x339c44ffdb785067ULL},
    {"seed7/async/faulty/alg1", 0xbfdc3ad6d17a41e2ULL},
    {"seed7/async/faulty/alg2", 0x4610dd776f3171e3ULL},
    {"seed7/async/perfect/alg1", 0x775fb61467cca3a3ULL},
    {"seed7/async/perfect/alg2", 0xa7d2e82d5c53dd0ULL},
    {"seed7/unit/faulty/alg1", 0xe5e28441decb0c61ULL},
    {"seed7/unit/faulty/alg2", 0x863344ef6a70cbaaULL},
    {"seed7/unit/perfect/alg1", 0x7bfb9e88ebb2761aULL},
    {"seed7/unit/perfect/alg2", 0xb4851b86395a234eULL},
    {"seed8/async/faulty/alg1", 0x4bb22b31510cb8b1ULL},
    {"seed8/async/faulty/alg2", 0x1ff51e7ecff412deULL},
    {"seed8/async/perfect/alg1", 0xcea3fa63308ffef7ULL},
    {"seed8/async/perfect/alg2", 0xd7a449157433bdeULL},
    {"seed8/unit/faulty/alg1", 0x84be08a1ce640eb3ULL},
    {"seed8/unit/faulty/alg2", 0xc6e47f54dc8a42b7ULL},
    {"seed8/unit/perfect/alg1", 0xb4185e677064ed87ULL},
    {"seed8/unit/perfect/alg2", 0xdf3e55e2353f8201ULL},
};

const Cells kMaintenancePinned = {
    {"a6b/seed1", 0x4d84148bab2ab8f7ULL},
    {"a6b/seed2", 0xa4aa2b651930b517ULL},
    {"a6b/seed3", 0x2e13e292008b5f30ULL},
    {"a6b/seed4", 0x3b0b34b7262a47ebULL},
    {"a6b/seed5", 0xf066b9a7e558a81bULL},
    {"async_churn", 0x517cc64196c7fab8ULL},
    {"async_churn_budget", 0x47dd6e88c3b58355ULL},
    {"async_initial", 0x46c1c0e5ee186d8bULL},
    {"initial/seed1", 0xf50c5594ebda20e3ULL},
    {"initial/seed2", 0x5efcbedafcd7a102ULL},
    {"initial/seed3", 0x12b0674f35027e40ULL},
    {"initial/seed4", 0xe1de00931c04415bULL},
    {"initial/seed5", 0x68b0a5b1dfda59a2ULL},
    {"link_down_orphan", 0x24bd49fee2478205ULL},
    {"link_up_conflict", 0xeea4147bc631a4a1ULL},
    {"mobility_churn", 0xb04ac6077a1a1382ULL},
    {"repeated_update", 0xb9099201560a225dULL},
    {"t6c/n100", 0xed6b26e7f46084bbULL},
    {"t6c/n250", 0xa07dbd0622a8443fULL},
    {"t6c/n500", 0x25167eb2c70d2214ULL},
};

// runtime_queue_test's matrix: 8 seeds x {Alg I, Alg II} x {unit, uniform
// 1..5}.  The pinned digests are those of the flat queue and of the
// std::map reference queue it was differentially tested against (the two
// agreed cell by cell), so the ring still matches the reference map.
TEST(RuntimeQueueDifferential, FlatMatchesReferenceMapAcrossSeeds) {
  Cells cells;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = wcds::testing::connected_udg(150, 8.0, seed);
    for (const bool alg1 : {true, false}) {
      for (const bool async : {false, true}) {
        const auto delays = async ? sim::DelayModel::uniform(1, 5, seed)
                                  : sim::DelayModel::unit();
        cells["seed" + std::to_string(seed) + (alg1 ? "/alg1" : "/alg2") +
              (async ? "/async" : "/unit")] =
            protocol_digest(alg1, inst.g, delays, nullptr);
      }
    }
  }
  expect_pinned(cells, kRuntimeQueuePinned);
}

// The four facade build modes: RunStats and WCDS match the digests both
// former queue policies produced (central modes trivially — the sim never
// runs; protocol modes are where the queue matters).
TEST(RuntimeQueueDifferential, FacadeModesAgreeAcrossQueuePolicies) {
  Cells cells;
  const auto inst = wcds::testing::connected_udg(120, 8.0, 3);
  for (const auto algorithm :
       {core::BuildAlgorithm::kAlgorithm1Central,
        core::BuildAlgorithm::kAlgorithm2Central,
        core::BuildAlgorithm::kAlgorithm1Protocol,
        core::BuildAlgorithm::kAlgorithm2Protocol}) {
    core::BuildOptions options;
    options.algorithm = algorithm;
    const auto report = core::build(inst.g, options);
    Digest d;
    add_stats(d, report.stats);
    add_wcds(d, report.result);
    cells[std::string("facade/") + core::to_string(algorithm)] = d.value();
  }
  expect_pinned(cells, kFacadePinned);
}

// fault_test's matrix: trivial-plan raw runs, lossy and chaos-with-crashes
// hardened builds across seeds, a region blackout, raw duplication and the
// facade under a chaos plan.
TEST(TraceDigest, FaultMatrixMatchesPinnedDigests) {
  Cells cells;
  {
    const auto inst = wcds::testing::connected_udg(100, 8.0, 2);
    for (const bool alg1 : {true, false}) {
      for (const bool async : {false, true}) {
        const auto delays = async ? sim::DelayModel::uniform(1, 4, 11)
                                  : sim::DelayModel::unit();
        fault::Injector trivial(fault::Plan{}, inst.g.node_count());
        const std::string tag = std::string(alg1 ? "alg1" : "alg2") +
                                (async ? "/async" : "/unit");
        cells["trivial/" + tag] = raw_digest(alg1, inst.g, delays, &trivial);
        cells["null/" + tag] = raw_digest(alg1, inst.g, delays, nullptr);
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = wcds::testing::connected_udg(80, 8.0, seed);
    const fault::Plan plan = fault::Plan::lossy(0.2, seed);
    for (const bool alg1 : {true, false}) {
      cells["lossy/seed" + std::to_string(seed) + (alg1 ? "/alg1" : "/alg2")] =
          protocol_digest(alg1, inst.g, sim::DelayModel::unit(), &plan);
    }
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = wcds::testing::connected_udg(70, 8.0, seed);
    fault::Plan plan = fault::Plan::chaos(0.2, 0.05, 3, seed);
    const auto n = static_cast<NodeId>(inst.g.node_count());
    plan.crash(static_cast<NodeId>(seed % n), 5, 40);
    plan.crash(static_cast<NodeId>((3 * seed + 1) % n), 20, 70);
    for (const bool alg1 : {true, false}) {
      cells["chaos/seed" + std::to_string(seed) + (alg1 ? "/alg1" : "/alg2")] =
          protocol_digest(alg1, inst.g, sim::DelayModel::unit(), &plan);
      cells["chaos_async/seed" + std::to_string(seed) +
            (alg1 ? "/alg1" : "/alg2")] =
          protocol_digest(alg1, inst.g, sim::DelayModel::uniform(1, 4, seed),
                          &plan);
    }
  }
  {
    const auto inst = wcds::testing::connected_udg(100, 9.0, 3);
    fault::Plan plan = fault::Plan::lossy(0.1, 21);
    plan.blackout_region(inst.points, inst.points[inst.g.node_count() / 2],
                         1.0, 10, 60);
    cells["blackout"] =
        protocol_digest(false, inst.g, sim::DelayModel::unit(), &plan);
  }
  {
    const auto inst = wcds::testing::connected_udg(90, 8.0, 6);
    fault::Plan plan;
    plan.duplicate = 0.3;
    plan.seed = 13;
    fault::Injector injector(plan, inst.g.node_count());
    cells["raw_duplication"] =
        raw_digest(false, inst.g, sim::DelayModel::unit(), &injector);
  }
  {
    const auto inst = wcds::testing::connected_udg(60, 8.0, 7);
    const fault::Plan plan = fault::Plan::chaos(0.15, 0.05, 2, 7);
    for (const bool alg1 : {true, false}) {
      cells[std::string("chaos_facade/") + (alg1 ? "alg1" : "alg2")] =
          protocol_digest(alg1, inst.g, sim::DelayModel::unit(), &plan);
    }
  }
  expect_pinned(cells, kFaultPinned);
}

// sharding_test's matrix: 8 seeds x {unit, uniform 1..5} x {perfect,
// chaos radio} x {Alg I, Alg II} over a 4-component fleet, plus the
// blackout that splits a component mid-run.
TEST(TraceDigest, ShardingMatrixMatchesPinnedDigests) {
  Cells cells;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto g = multi_component_udg(4, 25, 8.0, seed);
    for (const bool async : {false, true}) {
      for (const bool faulty : {false, true}) {
        const auto delays = async
                                ? sim::DelayModel::uniform(1, 5, 3 * seed + 1)
                                : sim::DelayModel::unit();
        const fault::Plan plan = fault::Plan::chaos(0.1, 0.05, 3, seed + 101);
        for (const bool alg1 : {true, false}) {
          cells["seed" + std::to_string(seed) + (async ? "/async" : "/unit") +
                (faulty ? "/faulty" : "/perfect") +
                (alg1 ? "/alg1" : "/alg2")] =
              protocol_digest(alg1, g, delays, faulty ? &plan : nullptr);
        }
      }
    }
  }
  const auto g = graph::from_edges(
      10, {{0, 2}, {2, 4}, {4, 6}, {6, 8}, {1, 3}, {3, 5}, {5, 7}, {7, 9}});
  fault::Plan plan;
  plan.seed = 17;
  plan.crash(4, 2, 40);
  cells["blackout_split"] =
      protocol_digest(false, g, sim::DelayModel::unit(), &plan);
  expect_pinned(cells, kShardingPinned);
}

// Lossless MisMaintenanceSession scripts: mis_maintenance_test's sessions,
// T6c's protocol rows, A6b's lossless crash/recover row, and two async
// churn scripts (one quiescent, one whose budget trips so link changes hit
// messages in flight).
TEST(TraceDigest, MaintenanceScriptsMatchPinnedDigests) {
  Cells cells;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = wcds::testing::connected_udg(150, 9.0, seed);
    protocols::MisMaintenanceSession session(inst.g);
    Digest d;
    add_session(d, session, session.stabilize());
    cells["initial/seed" + std::to_string(seed)] = d.value();
  }
  {
    const auto before = graph::from_edges(4, {{0, 1}, {2, 3}});
    protocols::MisMaintenanceSession session(before);
    Digest d;
    add_session(d, session, session.stabilize());
    const auto after = graph::from_edges(4, {{0, 1}, {2, 3}, {0, 2}});
    add_session(d, session, session.update(after));
    cells["link_up_conflict"] = d.value();
  }
  {
    protocols::MisMaintenanceSession session(
        graph::from_edges(3, {{0, 1}, {1, 2}}));
    Digest d;
    add_session(d, session, session.stabilize());
    add_session(d, session, session.update(graph::from_edges(3, {{0, 1}})));
    cells["link_down_orphan"] = d.value();
  }
  cells["mobility_churn"] =
      churn_digest(120, 10.0, 3, 99, 25, 1.0, sim::DelayModel::unit(),
                   10'000'000);
  {
    const auto inst = wcds::testing::connected_udg(100, 9.0, 7);
    protocols::MisMaintenanceSession session(
        inst.g, sim::DelayModel::uniform(1, 5, 17));
    Digest d;
    add_session(d, session, session.stabilize());
    cells["async_initial"] = d.value();
  }
  {
    const auto inst = wcds::testing::connected_udg(80, 9.0, 11);
    protocols::MisMaintenanceSession session(inst.g);
    Digest d;
    add_session(d, session, session.stabilize());
    add_session(d, session, session.update(inst.g));
    cells["repeated_update"] = d.value();
  }
  for (const std::uint32_t pn : {100u, 250u, 500u}) {
    cells["t6c/n" + std::to_string(pn)] = churn_digest(
        pn, 10.0, 13, pn + 7, 30, 0.8, sim::DelayModel::unit(), 10'000'000);
  }
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto inst = wcds::testing::connected_udg(150, 10.0, seed);
    protocols::MisMaintenanceSession session(inst.g);
    Digest d;
    add_session(d, session, session.stabilize());
    const auto victim = static_cast<NodeId>(seed % 150);
    const geom::Point home = inst.points[victim];
    inst.points[victim] = {1e6, 1e6};
    add_session(d, session, session.update(udg::build_udg(inst.points)));
    add_session(d, session, session.watchdog());
    inst.points[victim] = home;
    add_session(d, session, session.update(udg::build_udg(inst.points)));
    add_session(d, session, session.watchdog());
    cells["a6b/seed" + std::to_string(seed)] = d.value();
  }
  cells["async_churn"] = churn_digest(
      120, 10.0, 5, 23, 25, 1.0, sim::DelayModel::uniform(1, 6, 29),
      10'000'000);
  cells["async_churn_budget"] = churn_digest(
      120, 10.0, 6, 31, 40, 1.0, sim::DelayModel::uniform(1, 9, 37), 150);
  expect_pinned(cells, kMaintenancePinned);
}

}  // namespace
}  // namespace wcds
