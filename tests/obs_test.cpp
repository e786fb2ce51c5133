// Observability subsystem: metric registry semantics, nearest-rank
// quantiles against known distributions, JSON round-trips of real run
// recordings, trace-sink wiring, and the null-recorder zero-allocation
// guarantee the hot paths rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "check/check.h"
#include "json_reader.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "test_util.h"

namespace wcds {
namespace {

// --- MetricsRegistry --------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  obs::MetricsRegistry registry;
  registry.add("msgs");
  registry.add("msgs", 4);
  registry.add("other");
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("msgs"), 5u);
  EXPECT_EQ(snap.counters.at("other"), 1u);
}

TEST(Metrics, GaugesLastWriteAndHighWater) {
  obs::MetricsRegistry registry;
  registry.set("level", 3.0);
  registry.set("level", 1.5);
  registry.set_max("peak", 3.0);
  registry.set_max("peak", 1.5);
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("level"), 1.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("peak"), 3.0);
}

TEST(Metrics, ClearAndEmpty) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.add("c");
  registry.observe("h", 1.0);
  EXPECT_FALSE(registry.empty());
  registry.clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_TRUE(registry.snapshot().empty());
}

// --- Quantiles --------------------------------------------------------------

TEST(Metrics, NearestRankQuantileKnownDistribution) {
  // Shuffled 1..100: the nearest-rank q-quantile is exactly the ceil(100q)-th
  // smallest value, i.e. p50 = 50, p95 = 95.
  std::vector<double> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i + 1.0;
  std::shuffle(values.begin(), values.end(), std::mt19937(7));

  obs::MetricsRegistry registry;
  for (const double v : values) registry.observe("h", v);
  const auto h = registry.snapshot().histograms.at("h");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean, 50.5);
  EXPECT_DOUBLE_EQ(h.p50, 50.0);
  EXPECT_DOUBLE_EQ(h.p95, 95.0);
}

TEST(Metrics, NearestRankQuantileEdgeCases) {
  EXPECT_DOUBLE_EQ(obs::nearest_rank_quantile({42.0}, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(obs::nearest_rank_quantile({42.0}, 0.95), 42.0);
  const std::vector<double> two{1.0, 9.0};
  EXPECT_DOUBLE_EQ(obs::nearest_rank_quantile(two, 0.5), 1.0);   // ceil(1)=1st
  EXPECT_DOUBLE_EQ(obs::nearest_rank_quantile(two, 0.95), 9.0);  // ceil(1.9)=2nd
  EXPECT_DOUBLE_EQ(obs::nearest_rank_quantile(two, 1.0), 9.0);
  // The contract is q in (0, 1].
  EXPECT_THROW((void)obs::nearest_rank_quantile(two, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)obs::nearest_rank_quantile(two, 1.5),
               std::invalid_argument);
}

TEST(Metrics, SingleObservationHistogram) {
  obs::MetricsRegistry registry;
  registry.observe("h", 3.25);
  const auto h = registry.snapshot().histograms.at("h");
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.min, 3.25);
  EXPECT_DOUBLE_EQ(h.max, 3.25);
  EXPECT_DOUBLE_EQ(h.mean, 3.25);
  EXPECT_DOUBLE_EQ(h.p50, 3.25);
  EXPECT_DOUBLE_EQ(h.p95, 3.25);
}

// --- PhaseTimer -------------------------------------------------------------

TEST(PhaseTimer, RecordsIntoPhaseHistogram) {
  obs::Recorder recorder;
  {
    obs::PhaseTimer outer(&recorder, "outer");
    obs::PhaseTimer inner(&recorder, "inner");  // nesting is fine
  }
  const auto snap = recorder.snapshot();
  EXPECT_EQ(snap.histograms.at("phase_ms/outer").count, 1u);
  EXPECT_EQ(snap.histograms.at("phase_ms/inner").count, 1u);
  EXPECT_GE(snap.histograms.at("phase_ms/outer").min, 0.0);
}

TEST(PhaseTimer, StopIsIdempotent) {
  obs::Recorder recorder;
  {
    obs::PhaseTimer timer(&recorder, "once");
    timer.stop();
    timer.stop();  // second stop and the destructor must not re-record
  }
  EXPECT_EQ(recorder.snapshot().histograms.at("phase_ms/once").count, 1u);
}

TEST(PhaseTimer, NullRecorderIsNoOp) {
  obs::PhaseTimer timer(nullptr, "ghost");
  timer.stop();  // must not crash; nothing to record into
}

// --- Trace sink -------------------------------------------------------------

TEST(Trace, RuntimeFeedsSinkSendAndDeliverEvents) {
  const auto inst = testing::connected_udg(40, 8.0, 3);
  obs::MemoryTraceSink sink;
  obs::Recorder recorder;
  recorder.set_trace_sink(&sink);

  sim::Runtime runtime(
      inst.g,
      [](NodeId) { return std::make_unique<protocols::Algorithm2Node>(); },
      sim::DelayModel::unit(), &recorder);
  const auto stats = runtime.run();
  ASSERT_TRUE(stats.quiescent);

  std::uint64_t sends = 0;
  std::uint64_t delivers = 0;
  for (const auto& event : sink.events()) {
    if (event.kind == obs::TraceEvent::Kind::kSend) {
      ++sends;
    } else {
      ++delivers;
      EXPECT_NE(event.dst, obs::kTraceBroadcastDst);
    }
    EXPECT_LT(event.src, inst.g.node_count());
  }
  EXPECT_EQ(sends, stats.transmissions);
  EXPECT_EQ(delivers, stats.deliveries);
}

// --- Runtime metrics --------------------------------------------------------

TEST(RuntimeMetrics, CountersMatchRunStats) {
  const auto inst = testing::connected_udg(60, 8.0, 5);
  obs::Recorder recorder;
  const auto run = protocols::run_algorithm2(inst.g, sim::DelayModel::unit(),
                                             &recorder);
  ASSERT_TRUE(run.stats.quiescent);
  const auto snap = recorder.snapshot();
  EXPECT_EQ(snap.counters.at("sim/transmissions"), run.stats.transmissions);
  EXPECT_EQ(snap.counters.at("sim/deliveries"), run.stats.deliveries);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim/completion_time"),
                   static_cast<double>(run.stats.completion_time));
  // Per-message-type counters sum to total transmissions.
  std::uint64_t per_type_sum = 0;
  for (const auto& [name, count] : snap.counters) {
    if (name.rfind("sim/msg_type/", 0) == 0) per_type_sum += count;
  }
  EXPECT_EQ(per_type_sum, run.stats.transmissions);
  // Protocol phase timings were recorded.
  EXPECT_EQ(snap.histograms.at("phase_ms/alg2/total").count, 1u);
  EXPECT_EQ(snap.histograms.at("phase_ms/alg2/protocol_run").count, 1u);
}

// --- JSON -------------------------------------------------------------------

TEST(Json, DumpParsesBackExactly) {
  obs::Json doc = obs::Json::object();
  doc["string"] = "with \"quotes\", \\backslash\\ and \n newline \t tab";
  doc["int"] = 123456789.0;
  doc["neg"] = -7.25;
  doc["tiny"] = 1e-9;
  doc["flag_true"] = true;
  doc["flag_false"] = false;
  doc["nothing"] = nullptr;
  obs::Json& arr = doc["arr"] = obs::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(obs::Json::object());

  for (const int indent : {-1, 0, 2}) {
    const auto parsed = testing::parse_json(doc.dump(indent));
    EXPECT_EQ(parsed.dump(indent), doc.dump(indent)) << "indent " << indent;
    EXPECT_EQ(parsed.at("string").as_string(), doc.at("string").as_string());
    EXPECT_DOUBLE_EQ(parsed.at("tiny").as_number(), 1e-9);
    EXPECT_TRUE(parsed.at("flag_true").as_bool());
    EXPECT_TRUE(parsed.at("nothing").is_null());
    EXPECT_EQ(parsed.at("arr").size(), 3u);
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  obs::Json doc = obs::Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  const auto& object = doc.as_object();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "zebra");
  EXPECT_EQ(object[1].first, "alpha");
  EXPECT_EQ(object[2].first, "mid");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)testing::parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)testing::parse_json("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW((void)testing::parse_json("\"unterminated"), std::invalid_argument);
  EXPECT_THROW((void)testing::parse_json("{\"a\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW((void)testing::parse_json("nul"), std::invalid_argument);
}

TEST(Json, MissingKeyThrowsOutOfRange) {
  obs::Json doc = obs::Json::object();
  doc["present"] = 1;
  EXPECT_TRUE(doc.contains("present"));
  EXPECT_FALSE(doc.contains("absent"));
  EXPECT_THROW((void)doc.at("absent"), std::out_of_range);
}

TEST(Json, RunRecordingRoundTrips) {
  // Record a real protocol run, serialize the snapshot, parse it back and
  // compare field by field — the exporter's end-to-end contract.
  const auto inst = testing::connected_udg(50, 8.0, 9);
  obs::Recorder recorder;
  const auto run = protocols::run_algorithm1(inst.g, sim::DelayModel::unit(),
                                             &recorder);
  ASSERT_TRUE(run.stats.quiescent);
  const auto snap = recorder.snapshot();

  const auto parsed = testing::parse_json(obs::to_json(snap).dump(2));
  for (const auto& [name, count] : snap.counters) {
    EXPECT_DOUBLE_EQ(parsed.at("counters").at(name).as_number(),
                     static_cast<double>(count))
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_DOUBLE_EQ(parsed.at("gauges").at(name).as_number(), value) << name;
  }
  for (const auto& [name, histogram] : snap.histograms) {
    const auto& h = parsed.at("histograms").at(name);
    EXPECT_DOUBLE_EQ(h.at("count").as_number(),
                     static_cast<double>(histogram.count))
        << name;
    EXPECT_DOUBLE_EQ(h.at("min").as_number(), histogram.min) << name;
    EXPECT_DOUBLE_EQ(h.at("max").as_number(), histogram.max) << name;
    EXPECT_DOUBLE_EQ(h.at("mean").as_number(), histogram.mean) << name;
    EXPECT_DOUBLE_EQ(h.at("p50").as_number(), histogram.p50) << name;
    EXPECT_DOUBLE_EQ(h.at("p95").as_number(), histogram.p95) << name;
  }
}

// --- Null-recorder zero-cost guarantee --------------------------------------

TEST(NullRecorder, RunAllocatesNoMetrics) {
  const auto inst = testing::connected_udg(60, 8.0, 11);
  // Warm up: intern whatever ambient metrics a first run may create.
  (void)protocols::run_algorithm2(inst.g);
  const std::uint64_t before = obs::MetricsRegistry::metric_creations();
  const auto run = protocols::run_algorithm2(inst.g);
  ASSERT_TRUE(run.stats.quiescent);
  EXPECT_EQ(obs::MetricsRegistry::metric_creations(), before)
      << "a null-recorder run must not intern any metric";
}

TEST(NullRecorder, GlobalRecorderInstallAndRestore) {
  ASSERT_EQ(obs::global_recorder(), nullptr);
  obs::Recorder recorder;
  obs::Recorder* old = obs::set_global_recorder(&recorder);
  EXPECT_EQ(old, nullptr);
  EXPECT_EQ(obs::global_recorder(), &recorder);
  EXPECT_EQ(obs::recorder_or_global(nullptr), &recorder);
  obs::Recorder local;
  EXPECT_EQ(obs::recorder_or_global(&local), &local);
  obs::set_global_recorder(nullptr);
  EXPECT_EQ(obs::global_recorder(), nullptr);
}

}  // namespace
}  // namespace wcds
