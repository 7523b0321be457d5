/// @file harness.cpp
/// The in-process half of the repo benchmark (perfbench/run.py drives
/// it).  It links the vwsdk library and runs the generated inputs it is
/// given; it knows nothing of seeds or workloads.  Every mode prints one
/// JSON result object as the last line of its standard output.
///
///   perfbench_harness setup  <input.json>
///       construct the service and resolve the inputs, print "ready"
///   perfbench_harness verify <input.json> <seconds> [trace.json]
///       untraced ServiceApi::verify passes until <seconds> is spent; with
///       a trace path: one untraced pass, then one traced stage-by-stage
///       pass whose results must equal it
///   perfbench_harness sweep  <input.json> <seconds> [trace.json]
///       compare passes, each on a fresh service (cold cache), a
///       one-worker pass moving its calls across the allowed CPUs; with a
///       trace path: one untraced pass, one traced pass, then a traced
///       single-thread search probe over every distinct search
///   perfbench_harness replay <input.json> <payloads.txt> <trace.json>
///       traced, single-request-at-a-time in-process replay of serve
///       request lines: warm the cache, then time parse / service /
///       serialize of every stream request; distinct result payloads go
///       to <payloads.txt>, one per line

#include <dirent.h>
#include <sched.h>
#include <time.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/grouped_conv.h"
#include "core/mapper_registry.h"
#include "core/mapping_context.h"
#include "core/search_trace.h"
#include "core/serialize.h"
#include "mapping/objective.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "nn/network_spec.h"
#include "pim/array_geometry.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/executor.h"
#include "sim/verifier.h"
#include "span_recorder.h"
#include "tensor/exec_backend.h"
#include "tensor/tensor_ops.h"

namespace {

using perfbench::now_ns;
using perfbench::SpanRecorder;
using vwsdk::JsonValue;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return JsonValue::parse(buffer.str());
}

std::vector<std::string> strings(const JsonValue& array) {
  std::vector<std::string> out;
  for (const JsonValue& item : array.items()) {
    out.push_back(item.as_string());
  }
  return out;
}

/// A number printed with all its digits.
std::string num(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

/// FNV-1a, 64 bit, as 16 hex digits: the digest of a result payload.
std::string digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << hash;
  return out.str();
}

/// The sub-convolution a layer is mapped as (one group's shape), as
/// verify_network and the optimizer derive it.
vwsdk::ConvShape group_shape(const vwsdk::ConvLayerDesc& layer) {
  layer.validate();
  vwsdk::GroupedConvShape grouped;
  grouped.base = vwsdk::ConvShape::from_layer(layer);
  grouped.groups = layer.groups;
  grouped.validate();
  return grouped.group_shape();
}

std::string shape_key(const vwsdk::ConvShape& s) {
  std::ostringstream out;
  out << s.ifm_w << ',' << s.ifm_h << ',' << s.kernel_w << ',' << s.kernel_h
      << ',' << s.in_channels << ',' << s.out_channels << ',' << s.stride_w
      << ',' << s.stride_h << ',' << s.pad_w << ',' << s.pad_h;
  return out.str();
}

/// Untraced passes until `seconds` is spent (at least one; exactly one
/// when `once`), as a JSON array.  `pass()` returns (wall seconds, JSON).
template <typename Pass>
std::string timed_passes(double seconds, bool once, Pass pass) {
  std::string out = "[";
  const std::int64_t start = now_ns();
  double last_wall = 0.0;
  do {
    const auto [wall, json] = pass();
    out += (out.size() == 1 ? "" : ",") + json;
    last_wall = wall;
  } while (!once && seconds_since(start) + last_wall <= seconds);
  return out + "]";
}

// ---------------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------------

int run_setup(const JsonValue& input) {
  vwsdk::ServiceApi api(static_cast<int>(input.at("threads").as_int()));
  for (const std::string& net : strings(input.at("nets"))) {
    (void)vwsdk::resolve_network_spec(net);
  }
  for (const std::string& array : strings(input.at("arrays"))) {
    (void)vwsdk::parse_geometry(array);
  }
  std::cout << "{\"ready\":true,\"threads\":" << api.stats().threads << "}"
            << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------------

struct VerifyInput {
  std::vector<std::string> nets;
  std::string array;
  std::string mapper;
  std::string backend;
  std::uint64_t seed = 0;
  int threads = 0;
};

VerifyInput parse_verify_input(const JsonValue& input) {
  VerifyInput in;
  in.nets = strings(input.at("nets"));
  in.array = input.at("array").as_string();
  in.mapper = input.at("mapper").as_string();
  in.backend = input.at("backend").as_string();
  in.seed = static_cast<std::uint64_t>(input.at("seed").as_int());
  in.threads = static_cast<int>(input.at("threads").as_int());
  return in;
}

std::vector<vwsdk::NetworkVerifyResult> verify_untraced(
    vwsdk::ServiceApi& api, const VerifyInput& in) {
  std::vector<vwsdk::NetworkVerifyResult> results;
  for (const std::string& net : in.nets) {
    vwsdk::VerifyQuery query;
    query.net = net;
    query.mapper = in.mapper;
    query.array = in.array;
    query.ref_backend = in.backend;
    query.seed = in.seed;
    results.push_back(api.verify(query));
  }
  return results;
}

/// One network verified stage by stage, each library call in its own
/// span -- the calls verify_network makes, with plan validation split
/// out of execute_plan.
vwsdk::NetworkVerifyResult verify_traced_net(
    SpanRecorder& rec, const VerifyInput& in, const std::string& net,
    const vwsdk::Mapper& mapper, const vwsdk::ArrayGeometry& geometry,
    int& invalid_plans) {
  auto net_span = rec.span("bench.verify.net");
  net_span.label("net", net);
  vwsdk::NetworkSpec spec;
  {
    auto span = rec.span("nn.resolve");
    spec = vwsdk::resolve_network_spec(net);
  }
  vwsdk::NetworkVerifyResult result;
  result.network_name = spec.network.name();
  result.algorithm = mapper.name();
  result.backend = vwsdk::resolve_ref_backend(in.backend);
  result.geometry = geometry;
  result.seed = in.seed;
  vwsdk::ExecutionOptions options;
  options.ref_backend = result.backend;
  options.validate_plan = false;  // timed on its own below

  const std::vector<vwsdk::ConvLayerDesc>& layers = spec.network.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    auto layer_span = rec.span("bench.verify.layer");
    layer_span.label("net", net);
    layer_span.label("layer", layers[i].name);
    vwsdk::LayerVerification lv;
    lv.layer = layers[i];
    vwsdk::ConvShape shape;
    {
      auto span = rec.span("core.group_shape");
      shape = group_shape(layers[i]);
    }
    {
      auto span = rec.span("core.search");
      span.label("net", net);
      vwsdk::SearchTrace trace;
      vwsdk::MappingContext context(shape, geometry);
      context.trace = &trace;
      lv.decision = mapper.map(context);
      span.count("candidates", trace.candidates_visited());
    }
    vwsdk::MappingPlan plan;
    {
      auto span = rec.span("mapping.build");
      span.label("net", net);
      plan = vwsdk::build_plan_for_cost(shape, geometry, lv.decision.cost);
      span.count("cells", plan.programmed_cells());
    }
    {
      auto span = rec.span("mapping.validate");
      span.label("net", net);
      if (!vwsdk::validate_plan(plan).empty()) {
        ++invalid_plans;
      }
      span.count("cells", plan.programmed_cells());
    }
    // The tensors verify_mapping_random draws for layer i.
    vwsdk::Tensord ifm;
    vwsdk::Tensord weights;
    {
      auto span = rec.span("tensor.random");
      vwsdk::Rng rng(in.seed + i);
      ifm = vwsdk::Tensord::feature_map(shape.in_channels, shape.ifm_h,
                                        shape.ifm_w);
      weights = vwsdk::Tensord::weights(shape.out_channels, shape.in_channels,
                                        shape.kernel_h, shape.kernel_w);
      vwsdk::fill_random_int(ifm, rng, 4);
      vwsdk::fill_random_int(weights, rng, 4);
    }
    vwsdk::ExecutionResult executed;
    {
      auto span = rec.span("sim.execute");
      span.label("net", net);
      executed = vwsdk::execute_plan(plan, ifm, weights, options);
      span.count("cycles", executed.cycles);
    }
    vwsdk::Tensord reference;
    {
      auto span = rec.span("tensor.reference");
      span.label("net", net);
      reference = vwsdk::reference_convolution(plan, ifm, weights, options);
      span.count("macs", shape.num_windows() * shape.kernel_w *
                             shape.kernel_h * shape.in_channels *
                             shape.out_channels);
    }
    {
      auto span = rec.span("sim.compare");
      span.label("net", net);
      lv.report = vwsdk::verify_execution(plan, executed, reference);
    }
    result.layers.push_back(std::move(lv));
  }
  return result;
}

/// True when two verify results agree on every serialized byte and on
/// every decision and report field.
bool same_result(const vwsdk::NetworkVerifyResult& a,
                 const vwsdk::NetworkVerifyResult& b) {
  if (vwsdk::to_json(a) != vwsdk::to_json(b) ||
      a.layers.size() != b.layers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const vwsdk::VerificationReport& x = a.layers[i].report;
    const vwsdk::VerificationReport& y = b.layers[i].report;
    if (!(a.layers[i].decision == b.layers[i].decision) ||
        x.exact_match != y.exact_match || x.max_abs_error != y.max_abs_error ||
        x.executed_cycles != y.executed_cycles ||
        x.analytic_cycles != y.analytic_cycles ||
        x.cycles_match != y.cycles_match ||
        x.programmed_cells != y.programmed_cells || x.summary != y.summary) {
      return false;
    }
  }
  return true;
}

std::string verify_pass_json(
    double wall, double cpu,
    const std::vector<vwsdk::NetworkVerifyResult>& results) {
  std::string out = "{\"wall_s\":" + num(wall) + ",\"cpu_s\":" + num(cpu) +
                    ",\"nets\":[";
  for (std::size_t n = 0; n < results.size(); ++n) {
    const vwsdk::NetworkVerifyResult& result = results[n];
    long long cycles = 0;
    long long analytic = 0;
    long long verified = 0;
    for (const vwsdk::LayerVerification& layer : result.layers) {
      cycles += layer.report.executed_cycles;
      analytic += layer.report.analytic_cycles;
      verified +=
          layer.report.exact_match && layer.report.cycles_match ? 1 : 0;
    }
    out += std::string(n == 0 ? "" : ",") + "{\"network\":" +
           vwsdk::json_quote(result.network_name) +
           ",\"executed_cycles\":" + std::to_string(cycles) +
           ",\"analytic_cycles\":" + std::to_string(analytic) +
           ",\"layers\":" + std::to_string(result.layers.size()) +
           ",\"verified_layers\":" + std::to_string(verified) +
           ",\"digest\":\"" + digest(vwsdk::to_json(result)) + "\"}";
  }
  return out + "]}";
}

int run_verify(const JsonValue& input, double seconds,
               const std::string& trace_path) {
  const VerifyInput in = parse_verify_input(input);
  vwsdk::ServiceApi api(in.threads);
  const bool traced = !trace_path.empty();
  std::vector<vwsdk::NetworkVerifyResult> untraced;
  std::string out = "{\"passes\":" + timed_passes(seconds, traced, [&] {
    const std::int64_t t0 = now_ns();
    const double c0 = cpu_seconds();
    untraced = verify_untraced(api, in);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - c0;
    return std::pair(wall, verify_pass_json(wall, cpu, untraced));
  });
  if (traced) {
    SpanRecorder rec(true);
    std::vector<vwsdk::NetworkVerifyResult> results;
    int invalid_plans = 0;
    const std::int64_t t0 = now_ns();
    const double c0 = cpu_seconds();
    {
      auto pass = rec.span("bench.verify.pass", 0);
      vwsdk::ArrayGeometry geometry;
      {
        auto span = rec.span("pim.geometry");
        geometry = vwsdk::parse_geometry(in.array);
      }
      std::unique_ptr<vwsdk::Mapper> mapper;
      {
        auto span = rec.span("core.make_mapper");
        mapper = vwsdk::make_mapper(in.mapper);
      }
      for (const std::string& net : in.nets) {
        results.push_back(
            verify_traced_net(rec, in, net, *mapper, geometry, invalid_plans));
      }
    }
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - c0;
    int mismatched = 0;
    for (std::size_t n = 0; n < results.size(); ++n) {
      mismatched += same_result(results[n], untraced[n]) ? 0 : 1;
    }
    rec.write_chrome_trace(trace_path);
    out += ",\"traced\":" + verify_pass_json(wall, cpu, results) +
           ",\"traced_mismatched_nets\":" + std::to_string(mismatched) +
           ",\"invalid_plans\":" + std::to_string(invalid_plans);
  }
  std::cout << out << "}" << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

struct SweepQuery {
  std::string net;
  std::string array;
  std::string objective;
};

struct SweepInput {
  int threads = 0;
  std::vector<std::string> mappers;
  std::vector<SweepQuery> queries;
};

SweepInput parse_sweep_input(const JsonValue& input) {
  SweepInput in;
  in.threads = static_cast<int>(input.at("threads").as_int());
  in.mappers = strings(input.at("mappers"));
  for (const JsonValue& q : input.at("queries").items()) {
    in.queries.push_back({q.at("net").as_string(), q.at("array").as_string(),
                          q.at("objective").as_string()});
  }
  return in;
}

struct SweepPass {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<vwsdk::NetworkComparison> results;
  std::vector<double> call_wall;  // per query, in query order
  std::vector<double> call_cpu;
  vwsdk::ServiceStats stats;
};

/// Binds every thread of this process to `cpus`, as far as the kernel
/// lets it; a thread it refuses keeps running where it may.
void bind_threads(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    return;
  }
  while (const dirent* entry = readdir(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) {
      (void)sched_setaffinity(tid, sizeof(set), &set);
    }
  }
  closedir(tasks);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

/// One pass: a fresh service (cold cache), then every query's compare.
/// With `cpus`, query q runs with every thread bound to
/// cpus[(q + offset) % size].
SweepPass sweep_pass(SpanRecorder& rec, const SweepInput& in, long long id,
                     const std::vector<int>& cpus = {},
                     std::size_t offset = 0) {
  SweepPass pass;
  const std::int64_t t0 = now_ns();
  const double c0 = cpu_seconds();
  {
    auto pass_span = rec.span("bench.sweep.pass", id);
    vwsdk::ServiceApi api(in.threads);
    for (std::size_t i = 0; i < in.queries.size(); ++i) {
      const SweepQuery& q = in.queries[i];
      if (!cpus.empty()) {
        bind_threads({cpus[(i + offset) % cpus.size()]});
      }
      auto span = rec.span("core.compare");
      span.label("net", q.net);
      span.label("array", q.array);
      span.label("objective", q.objective);
      vwsdk::CompareQuery query;
      query.net = q.net;
      query.mappers = in.mappers;
      query.array = q.array;
      query.objective = q.objective;
      const std::int64_t call_t0 = now_ns();
      const double call_c0 = cpu_seconds();
      pass.results.push_back(api.compare(query));
      pass.call_wall.push_back(seconds_since(call_t0));
      pass.call_cpu.push_back(cpu_seconds() - call_c0);
    }
    pass.stats = api.stats();
  }
  pass.wall = seconds_since(t0);
  pass.cpu = cpu_seconds() - c0;
  return pass;
}

std::string sweep_pass_json(const SweepPass& pass) {
  std::string out = "{\"wall_s\":" + num(pass.wall) +
                    ",\"cpu_s\":" + num(pass.cpu) + ",\"cache_hits\":" +
                    std::to_string(pass.stats.cache_hits) +
                    ",\"cache_misses\":" +
                    std::to_string(pass.stats.cache_misses) + ",\"calls\":[";
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    const vwsdk::NetworkComparison& comparison = pass.results[i];
    out += std::string(i == 0 ? "" : ",") + "{\"wall_s\":" +
           num(pass.call_wall[i]) + ",\"cpu_s\":" + num(pass.call_cpu[i]) +
           ",\"digest\":\"" + digest(vwsdk::to_json(comparison)) +
           "\",\"total_cycles\":{";
    for (std::size_t m = 0; m < comparison.results.size(); ++m) {
      out += std::string(m == 0 ? "" : ",") +
             vwsdk::json_quote(comparison.results[m].algorithm) + ":" +
             std::to_string(comparison.results[m].total_cycles());
    }
    out += "}}";
  }
  return out + "]}";
}

/// Every distinct (mapper, shape, array, objective) search of the sweep,
/// run once, sequentially, with a SearchTrace counting candidates.
/// Returns how many decisions differ from the compare results.
int search_probe(SpanRecorder& rec, const SweepInput& in,
                 const std::vector<vwsdk::NetworkComparison>& results) {
  auto probe = rec.span("bench.sweep.probe", 2);
  int mismatches = 0;
  std::set<std::string> seen;
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    const SweepQuery& query = in.queries[q];
    const vwsdk::NetworkSpec spec = vwsdk::resolve_network_spec(query.net);
    const vwsdk::ArrayGeometry geometry = vwsdk::parse_geometry(query.array);
    const vwsdk::Objective& objective =
        vwsdk::objective_by_name(query.objective);
    const std::vector<vwsdk::ConvLayerDesc>& layers = spec.network.layers();
    for (std::size_t m = 0; m < in.mappers.size(); ++m) {
      const auto mapper = vwsdk::make_mapper(in.mappers[m]);
      for (std::size_t l = 0; l < layers.size(); ++l) {
        const vwsdk::ConvShape shape = group_shape(layers[l]);
        const std::string key = mapper->name() + "|" + shape_key(shape) +
                                "|" + query.array + "|" + query.objective;
        if (!seen.insert(key).second) {
          continue;
        }
        auto span = rec.span("core.search");
        span.label("mapper", mapper->name());
        span.label("objective", query.objective);
        vwsdk::SearchTrace trace;
        vwsdk::MappingContext context(shape, geometry);
        context.objective = &objective;
        context.trace = &trace;
        const vwsdk::MappingDecision decision = mapper->map(context);
        span.count("candidates", trace.candidates_visited());
        if (!(decision == results[q].results[m].layers[l].decision)) {
          ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

int run_sweep(const JsonValue& input, double seconds,
              const std::string& trace_path) {
  const SweepInput in = parse_sweep_input(input);
  const bool traced = !trace_path.empty();
  SpanRecorder off(false);
  // On a VM the vCPUs run at different speeds from moment to moment
  // (whatever shares their host core), so a one-worker pass moves its
  // calls across the allowed CPUs in turn, each pass starting one CPU
  // further on: a pass averages over the CPUs, and run.py's per-call
  // medians over the passes see each call on several of them.
  const std::vector<int> cpus = allowed_cpus();
  const std::vector<int> rotate =
      in.threads == 1 && cpus.size() > 1 ? cpus : std::vector<int>{};
  std::size_t offset = 0;
  std::string out = "{\"passes\":" + timed_passes(seconds, traced, [&] {
    const SweepPass pass = sweep_pass(off, in, 0, rotate, offset++);
    return std::pair(pass.wall, sweep_pass_json(pass));
  });
  if (!rotate.empty()) {
    bind_threads(cpus);
  }
  if (traced) {
    SpanRecorder rec(true);
    const SweepPass pass = sweep_pass(rec, in, 1);
    const int mismatches = search_probe(rec, in, pass.results);
    rec.write_chrome_trace(trace_path);
    out += ",\"traced\":" + sweep_pass_json(pass) +
           ",\"probe_mismatches\":" + std::to_string(mismatches);
  }
  std::cout << out << "}" << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

/// Time one service call in its own span, then serialize its result in
/// a `core.serialize` span; returns the result payload.
template <typename Call, typename Serialize>
std::string call_and_serialize(SpanRecorder& rec, const std::string& name,
                               std::int64_t& service_ns, Call call,
                               Serialize serialize) {
  const std::int64_t t0 = now_ns();
  const auto result = [&] {
    auto span = rec.span(name);
    return call();
  }();
  service_ns = now_ns() - t0;
  auto span = rec.span("core.serialize");
  return serialize(result);
}

/// Execute one parsed request as the daemon's execute_request does.
std::string replay_request(SpanRecorder& rec, vwsdk::ServiceApi& api,
                           const vwsdk::ServeRequest& request,
                           std::int64_t& service_ns, long long& arrivals) {
  using vwsdk::ServeOp;
  const std::string name =
      std::string("serve.service.") + vwsdk::op_name(request.op);
  const auto to_json = [](const auto& result) {
    return vwsdk::to_json(result);
  };
  switch (request.op) {
    case ServeOp::kMap:
      return call_and_serialize(
          rec, name, service_ns, [&] { return api.map(request.map); }, to_json);
    case ServeOp::kCompare:
      return call_and_serialize(
          rec, name, service_ns, [&] { return api.compare(request.compare); },
          to_json);
    case ServeOp::kChip:
      return call_and_serialize(
          rec, name, service_ns, [&] { return api.chip(request.chip); },
          [&](const vwsdk::ChipResult& result) {
            return vwsdk::to_json(result.plan, request.chip.batch);
          });
    case ServeOp::kTraffic:
      return call_and_serialize(
          rec, name, service_ns,
          [&] {
            vwsdk::TrafficResult result = api.traffic(request.traffic);
            arrivals += result.report.total_arrivals();
            return result;
          },
          [](const vwsdk::TrafficResult& result) {
            return result.capacity_mode ? vwsdk::to_json(result.capacity)
                                        : vwsdk::to_json(result.report);
          });
    case ServeOp::kVerify:
      return call_and_serialize(
          rec, name, service_ns, [&] { return api.verify(request.verify); },
          to_json);
    case ServeOp::kStats:
      return call_and_serialize(
          rec, name, service_ns, [&] { return api.stats(); }, to_json);
    default:
      throw std::runtime_error(std::string("replay does not run op ") +
                               vwsdk::op_name(request.op));
  }
}

int run_replay(const JsonValue& input, const std::string& payloads_path,
               const std::string& trace_path) {
  SpanRecorder rec(true);
  vwsdk::ServiceApi api(static_cast<int>(input.at("threads").as_int()));
  const std::int64_t w0 = now_ns();
  for (const JsonValue& line : input.at("warm").items()) {
    const vwsdk::ServeRequest request = vwsdk::parse_request(line.as_string());
    (void)vwsdk::to_json(api.map(request.map));
  }
  const double warm_s = seconds_since(w0);

  std::ofstream payloads(payloads_path);
  std::map<std::string, long long> payload_index;
  long long arrivals = 0;
  std::string records;
  const std::vector<JsonValue>& stream = input.at("stream").items();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto request_span =
        rec.span("bench.serve.request", static_cast<long long>(i));
    const std::int64_t t0 = now_ns();
    vwsdk::ServeRequest request;
    {
      auto span = rec.span("serve.protocol.parse");
      request = vwsdk::parse_request(stream[i].as_string());
    }
    const std::int64_t parse_ns = now_ns() - t0;
    std::int64_t service_ns = 0;
    const std::string payload =
        replay_request(rec, api, request, service_ns, arrivals);
    std::string response;
    {
      auto span = rec.span("core.serialize");
      response = vwsdk::ok_response(request.id, request.op, payload);
    }
    const std::int64_t total_ns = now_ns() - t0;
    request_span.label("op", vwsdk::op_name(request.op));
    const auto [it, inserted] = payload_index.emplace(
        payload, static_cast<long long>(payload_index.size()));
    if (inserted) {
      payloads << payload << '\n';
    }
    records += std::string(i == 0 ? "" : ",") + "[\"" +
               vwsdk::op_name(request.op) + "\"," + std::to_string(parse_ns) +
               "," + std::to_string(service_ns) + "," +
               std::to_string(total_ns - parse_ns - service_ns) + "," +
               std::to_string(it->second) + "]";
  }
  if (!payloads.flush()) {
    throw std::runtime_error("failed writing " + payloads_path);
  }
  rec.write_chrome_trace(trace_path);
  const vwsdk::ServiceStats stats = api.stats();
  std::cout << "{\"warm_s\":" << num(warm_s) << ",\"arrivals\":" << arrivals
            << ",\"cache_hits\":" << stats.cache_hits
            << ",\"cache_misses\":" << stats.cache_misses
            << ",\"requests\":[" << records << "]}" << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_harness setup <input.json>\n"
               "       perfbench_harness verify|sweep <input.json> <seconds> "
               "[trace.json]\n"
               "       perfbench_harness replay <input.json> <payloads.txt> "
               "<trace.json>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) {
    return usage();
  }
  const std::string trace = args.size() > 3 ? args[3] : "";
  try {
    const JsonValue input = load_json(args[1]);
    if (args[0] == "setup") {
      return run_setup(input);
    }
    if (args.size() < 3) {
      return usage();
    }
    if (args[0] == "verify") {
      return run_verify(input, std::stod(args[2]), trace);
    }
    if (args[0] == "sweep") {
      return run_sweep(input, std::stod(args[2]), trace);
    }
    if (args[0] == "replay" && !trace.empty()) {
      return run_replay(input, args[2], trace);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
