#include "serve/service.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/string_util.h"
#include "core/serialize.h"
#include "mapping/activity.h"
#include "mapping/plan_builder.h"
#include "nn/network_spec.h"
#include "pim/array_geometry.h"
#include "sim/executor.h"

namespace vwsdk {
namespace {

/// RAII: restore the prior value of an environment variable.
class EnvGuard {
 public:
  explicit EnvGuard(std::string name) : name_(std::move(name)) {
    if (const char* prev = std::getenv(name_.c_str())) {
      had_value_ = true;
      saved_ = prev;
    }
  }
  ~EnvGuard() {
    if (had_value_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string saved_;
};

MapQuery lenet_map() {
  MapQuery query;
  query.net = "lenet5";
  return query;
}

TEST(Service, MapMatchesDirectOptimizerRun) {
  ServiceApi api(1);
  const NetworkMappingResult via_service = api.map(lenet_map());

  const NetworkSpec spec = resolve_network_spec("lenet5");
  const auto mapper = make_mapper("vw-sdk");
  const NetworkMappingResult direct = optimize_network(
      *mapper, spec.network, parse_geometry("512x512"), OptimizerOptions{});

  // The service is a routing layer, not a different algorithm: the
  // serialized results (the serve payloads) must be byte-identical.
  EXPECT_EQ(to_json(via_service), to_json(direct));
}

TEST(Service, GeometryResolutionPrefersQueryThenSpecThenDefault) {
  ServiceApi api(1);
  MapQuery query = lenet_map();
  EXPECT_EQ(api.map(query).geometry, parse_geometry("512x512"));
  query.array = "128x128";
  EXPECT_EQ(api.map(query).geometry, parse_geometry("128x128"));
}

TEST(Service, InvalidQueriesThrowTheDocumentedCategories) {
  ServiceApi api(1);
  EXPECT_THROW(api.map(MapQuery{}), InvalidArgument);  // no net
  {
    MapQuery query = lenet_map();
    query.mapper = "frob";
    EXPECT_THROW(api.map(query), NotFound);
  }
  {
    MapQuery query = lenet_map();
    query.objective = "frob";
    EXPECT_THROW(api.map(query), NotFound);
  }
  {
    CompareQuery query;
    query.net = "lenet5";
    query.mappers = {"vw-sdk", "vwsdk"};  // alias duplicate
    EXPECT_THROW(api.compare(query), InvalidArgument);
  }
  {
    ChipQuery query;
    query.net = "lenet5";
    query.arrays_per_chip = 0;
    EXPECT_THROW(api.chip(query), InvalidArgument);
  }
}

TEST(Service, CompareCanonicalizesAliases) {
  ServiceApi api(1);
  CompareQuery query;
  query.net = "lenet5";
  query.mappers = {"im2col", "vwsdk"};  // alias of vw-sdk
  const NetworkComparison cmp = api.compare(query);
  ASSERT_EQ(cmp.results.size(), 2u);
  EXPECT_EQ(cmp.results[1].algorithm, "vw-sdk");
}

TEST(Service, ChipPlansAndReportsInfeasibility) {
  ServiceApi api(1);
  ChipQuery query;
  query.net = "lenet5";
  query.arrays_per_chip = 4;
  const ChipResult result = api.chip(query);
  EXPECT_TRUE(result.plan.feasible);
  EXPECT_EQ(result.mapping.network_name, result.plan.network_name);

  query.max_chips = 1;
  query.arrays_per_chip = 1;  // lenet5 needs more than one array total
  EXPECT_THROW(api.chip(query), Error);
}

TEST(Service, VerifyReportsEveryLayer) {
  // No backend requested: the default applies only while the
  // environment names none.
  EnvGuard guard("VWSDK_REF_BACKEND");
  unsetenv("VWSDK_REF_BACKEND");
  ServiceApi api(1);
  VerifyQuery query;
  query.net = "lenet5";
  const NetworkVerifyResult result = api.verify(query);
  EXPECT_EQ(result.layers.size(), 2u);
  EXPECT_TRUE(result.all_verified());
  EXPECT_EQ(result.backend, "gemm");
}

TEST(Service, TrafficSimulatesThroughTheChipPlanner) {
  ServiceApi api(1);
  TrafficQuery query;
  query.net = "lenet5";
  query.arrays_per_chip = 8;
  query.rate = 50.0;
  query.duration = 1'000'000;
  const TrafficResult result = api.traffic(query);
  EXPECT_FALSE(result.capacity_mode);
  ASSERT_EQ(result.plans.size(), 1u);
  ASSERT_EQ(result.report.networks.size(), 1u);
  const NetworkTraffic& net = result.report.networks.front();
  EXPECT_EQ(net.network, result.plans.front().network_name);
  EXPECT_GT(net.arrivals, 0);
  EXPECT_EQ(net.arrivals, net.completions + net.in_flight + net.rejected);
}

TEST(Service, TrafficValidationCatchesContradictoryQueries) {
  ServiceApi api(1);
  TrafficQuery query;
  query.net = "lenet5";
  query.arrays_per_chip = 8;
  // No source: neither a rate nor a trace.
  EXPECT_THROW(api.traffic(query), InvalidArgument);
  // Both sources at once.
  query.rate = 10.0;
  query.trace = "/tmp/whatever.csv";
  EXPECT_THROW(api.traffic(query), InvalidArgument);
  // SLO mode on a multi-network farm.
  query.trace.clear();
  query.net = "lenet5,alexnet";
  query.slo_p99 = 50'000;
  EXPECT_THROW(api.traffic(query), InvalidArgument);
  // Duplicate network after alias trimming.
  query.slo_p99 = 0;
  query.net = "lenet5, lenet5";
  EXPECT_THROW(api.traffic(query), InvalidArgument);
  // A missing trace file surfaces as NotFound.
  query.net = "lenet5";
  query.rate = 0.0;
  query.trace = "/nonexistent/arrivals.csv";
  EXPECT_THROW(api.traffic(query), NotFound);
}

TEST(Service, StatsCountCacheTraffic) {
  ServiceApi api(1);
  EXPECT_EQ(api.stats().cache_hits, 0);
  EXPECT_EQ(api.stats().cache_misses, 0);
  const Count layers =
      static_cast<Count>(api.map(lenet_map()).layers.size());
  EXPECT_EQ(api.stats().cache_misses, layers);
  (void)api.map(lenet_map());
  EXPECT_EQ(api.stats().cache_hits, layers);
  EXPECT_EQ(api.stats().cache_misses, layers);
  EXPECT_EQ(api.stats().cache_entries, layers);
  EXPECT_GE(api.stats().threads, 1);
}

// The single-flight contract under concurrency: N parallel identical
// map requests must produce byte-identical payloads from exactly one
// search per layer (misses == layers, hits == (N-1) * layers).
TEST(Service, ParallelIdenticalRequestsSingleFlightTheCache) {
  constexpr int kRequests = 8;
  ServiceApi api(2);
  std::vector<std::future<std::string>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(std::async(std::launch::async, [&api] {
      return to_json(api.map(lenet_map()));
    }));
  }
  std::vector<std::string> payloads;
  payloads.reserve(kRequests);
  for (std::future<std::string>& future : futures) {
    payloads.push_back(future.get());
  }
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_EQ(payloads[static_cast<std::size_t>(i)], payloads[0])
        << "response " << i << " differs";
  }
  const ServiceStats stats = api.stats();
  const Count layers = 2;  // lenet5
  EXPECT_EQ(stats.cache_misses, layers);
  EXPECT_EQ(stats.cache_hits, (kRequests - 1) * layers);
  EXPECT_EQ(stats.cache_entries, layers);
}

// Pinning test: ServiceApi::stats() takes ONE MappingCacheStats
// snapshot (hits/misses/entries under a single lock).  The old shape --
// stats() then a separate size() call -- could interleave a concurrent
// layer insert between the two reads and report more entries than
// misses, which a consistent snapshot can never do.
TEST(Service, StatsSnapshotStaysConsistentUnderParallelMaps) {
  ServiceApi api(2);
  const char* arrays[] = {"128x128", "256x256", "512x512", "64x64"};
  std::atomic<int> remaining{static_cast<int>(std::size(arrays))};
  std::vector<std::thread> mappers;
  for (const char* array : arrays) {
    mappers.emplace_back([&api, &remaining, array] {
      MapQuery query = lenet_map();
      query.array = array;
      (void)api.map(query);
      --remaining;
    });
  }
  while (remaining.load() > 0) {
    const ServiceStats snapshot = api.stats();
    ASSERT_LE(snapshot.cache_entries, snapshot.cache_misses)
        << "torn snapshot: an entry exists that no recorded miss created";
  }
  for (std::thread& thread : mappers) {
    thread.join();
  }
  const ServiceStats stats = api.stats();
  EXPECT_EQ(stats.cache_entries, stats.cache_misses);  // no repeats above
}

// Regression for the arithmetic-safety contract (docs/STATIC_ANALYSIS.md):
// an overflow-scale layer must surface as the structured `Overflow`
// error (wire code "overflow", exit 2) through the service facade, never
// as a silently wrapped negative cycle count.  The dims below pass every
// per-field spec bound (each fits Dim), but the im2col product chain
// N_pw x AR x AC is ~7e20 >> INT64_MAX.
TEST(Service, OverflowScaleLayerYieldsStructuredErrorNotNegativeTotal) {
  const std::string path =
      cat(::testing::TempDir(), "overflow_scale_spec.json");
  {
    std::ofstream os(path);
    os << R"({"layers": [{"name": "absurd", "image": 2000001,)"
       << R"( "kernel": 7, "ic": 1000000, "oc": 1000000}]})";
  }
  ServiceApi api(1);
  MapQuery query;
  query.net = path;
  query.mapper = "im2col";  // single analytic candidate: fast at any scale
  try {
    (void)api.map(query);
    FAIL() << "expected Overflow";
  } catch (const Overflow& e) {
    EXPECT_EQ(classify_exception(e), ErrorCode::kOverflow);
    EXPECT_STREQ(error_code_name(ErrorCode::kOverflow), "overflow");
  }

  // The chip planner front door maps first, so it hits the same wall --
  // and reports it structurally rather than planning on garbage.
  ChipQuery chip;
  chip.net = path;
  chip.mapper = "im2col";
  chip.arrays_per_chip = 64;
  EXPECT_THROW((void)api.chip(chip), Overflow);
  std::remove(path.c_str());
}

// SDK maps entire channels (IC_t = IC) and splits a window's rows over AR
// tiles at element granularity.  Scoring such a cost by energy must work
// at AR = 3, and the analytic activity must equal the executed plan's.
TEST(Service, SdkEnergyMapsElementSplitLayers) {
  const std::string path = cat(::testing::TempDir(), "k7_spec.json");
  {
    std::ofstream os(path);
    os << R"({"name": "k7", "layers": [{"name": "c1", "image": 32,)"
       << R"( "kernel": 7, "ic": 24, "oc": 64}]})";
  }
  ServiceApi api(1);
  MapQuery query;
  query.net = path;
  query.mapper = "sdk";
  query.objective = "energy";
  const NetworkMappingResult result = api.map(query);
  std::remove(path.c_str());
  ASSERT_EQ(result.layers.size(), 1u);
  const MappingDecision& decision = result.layers.front().decision;
  ASSERT_EQ(decision.cost.ar_cycles, 3);

  // Activity does not depend on the tensor values: zeros will do.
  const ConvShape& shape = decision.shape;
  const ExecutionResult executed = execute_plan(
      build_plan_for_cost(shape, decision.geometry, decision.cost),
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w),
      Tensord::weights(shape.out_channels, shape.in_channels, shape.kernel_h,
                       shape.kernel_w));
  const EnergyReport analytic =
      analytic_activity(shape, decision.geometry, decision.cost);
  EXPECT_EQ(executed.activity.cycles, analytic.cycles);
  EXPECT_EQ(executed.activity.row_activations, analytic.row_activations);
  EXPECT_EQ(executed.activity.col_reads, analytic.col_reads);
  EXPECT_EQ(executed.activity.cell_macs, analytic.cell_macs);
}

TEST(Service, StatsLinesFormatTheFragment) {
  ServiceStats stats;
  stats.cache_hits = 5;
  stats.cache_misses = 3;
  stats.cache_entries = 3;
  stats.threads = 2;
  EXPECT_EQ(cache_stats_fragment(stats),
            "cache 5 hit(s) / 3 miss(es), 3 distinct search(es)");
  EXPECT_EQ(stats_line(stats),
            "stats: cache 5 hit(s) / 3 miss(es), 3 distinct search(es); "
            "2 thread(s)");
}

}  // namespace
}  // namespace vwsdk
