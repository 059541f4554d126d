// Microbenchmarks (google-benchmark) of the middleware hot paths: topic
// matching, broker routing through the Figure 3 topology, document-store
// insert and indexed query, and the BLUE analysis as a function of the
// observation batch size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "assim/blue.h"
#include "broker/broker.h"
#include "broker/topic.h"
#include "common/rng.h"
#include "core/goflow_server.h"
#include "docstore/collection.h"
#include "docstore/database.h"
#include "ingest/obs_batch.h"
#include "phone/observation.h"

namespace {

using namespace mps;

void BM_TopicMatch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker::topic_matches("FR75013.*.#", "FR75013.Feedback.mob1.extra"));
  }
}
BENCHMARK(BM_TopicMatch);

void BM_BrokerPublishFigure3(benchmark::State& state) {
  broker::Broker broker;
  broker.declare_exchange("client", broker::ExchangeType::kTopic).throw_if_error();
  broker.declare_exchange("app", broker::ExchangeType::kTopic).throw_if_error();
  broker.declare_exchange("goflow", broker::ExchangeType::kTopic).throw_if_error();
  broker.declare_queue("ingest").throw_if_error();
  broker.bind_exchange("client", "app", "#").throw_if_error();
  broker.bind_exchange("app", "goflow", "#").throw_if_error();
  broker.bind_queue("goflow", "ingest", "#").throw_if_error();
  std::uint64_t consumed = 0;
  broker.subscribe("ingest", [&](const broker::Message&) { ++consumed; })
      .value_or_throw();
  Value payload(Object{{"spl", Value(60.0)}, {"user", Value("u")}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker.publish("client", "soundcity.obs.u", payload, 0));
  }
  state.counters["consumed"] = static_cast<double>(consumed);
}
BENCHMARK(BM_BrokerPublishFigure3);

void BM_BrokerFanout(benchmark::State& state) {
  broker::Broker broker;
  broker.declare_exchange("e", broker::ExchangeType::kTopic).throw_if_error();
  auto queues = state.range(0);
  for (std::int64_t i = 0; i < queues; ++i) {
    std::string q = "q" + std::to_string(i);
    broker.declare_queue(q, {.max_length = 8}).throw_if_error();
    broker.bind_queue("e", q, "#").throw_if_error();
  }
  Value payload(Object{{"n", Value(1)}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.publish("e", "k", payload, 0));
  }
}
BENCHMARK(BM_BrokerFanout)->Arg(1)->Arg(10)->Arg(100);

// Routing-table scaling: N selective topic bindings ("g<i>.obs.#" plus a
// few wildcard-heavy patterns), publishes round-robin over the groups.
// The linear variant forces the pre-trie O(bindings) matcher, so the pair
// measures the compiled fast path's speedup at identical topology.
void setup_routing_topology(broker::Broker& broker, std::int64_t bindings,
                            std::uint64_t& consumed) {
  broker.declare_exchange("e", broker::ExchangeType::kTopic).throw_if_error();
  broker.declare_queue("sink", {.max_length = 4}).throw_if_error();
  broker.subscribe("sink", [&](const broker::Message&) { ++consumed; })
      .value_or_throw();
  for (std::int64_t i = 0; i < bindings; ++i) {
    std::string pattern;
    switch (i % 8) {
      case 0: pattern = "g" + std::to_string(i) + ".obs.#"; break;
      case 1: pattern = "g" + std::to_string(i) + ".*.spl"; break;
      case 2: pattern = "g" + std::to_string(i) + ".obs.*"; break;
      default: pattern = "g" + std::to_string(i) + ".cmd.sync"; break;
    }
    broker.bind_queue("e", "sink", pattern).throw_if_error();
  }
}

void BM_BrokerTopicRouting(benchmark::State& state) {
  broker::Broker broker;
  std::uint64_t consumed = 0;
  setup_routing_topology(broker, state.range(0), consumed);
  Value payload(Object{{"spl", Value(61.0)}});
  std::int64_t key = 0;
  for (auto _ : state) {
    std::string routing = "g" + std::to_string(key % state.range(0)) + ".obs.spl";
    ++key;
    benchmark::DoNotOptimize(broker.publish("e", routing, payload, 0));
  }
  state.counters["consumed"] = static_cast<double>(consumed);
  state.counters["cache_hits"] =
      static_cast<double>(broker.stats().route_cache_hits);
}
BENCHMARK(BM_BrokerTopicRouting)->Arg(100)->Arg(1000);

void BM_DocstoreInsert(benchmark::State& state) {
  docstore::Collection collection("obs");
  collection.create_index("user");
  collection.create_index("captured_at");
  Rng rng(1);
  for (auto _ : state) {
    collection.insert(Value(Object{
        {"user", Value("u" + std::to_string(rng.uniform_int(0, 99)))},
        {"captured_at", Value(rng.uniform_int(0, 1'000'000))},
        {"spl", Value(rng.uniform(30, 90))}}));
  }
  state.counters["docs"] = static_cast<double>(collection.size());
}
BENCHMARK(BM_DocstoreInsert);

void BM_DocstoreIndexedQuery(benchmark::State& state) {
  docstore::Collection collection("obs");
  collection.create_index("user");
  Rng rng(2);
  for (int i = 0; i < 50'000; ++i) {
    collection.insert(Value(Object{
        {"user", Value("u" + std::to_string(rng.uniform_int(0, 999)))},
        {"spl", Value(rng.uniform(30, 90))}}));
  }
  docstore::Query query = docstore::Query::eq("user", Value("u500"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.count(query));
  }
}
BENCHMARK(BM_DocstoreIndexedQuery);

void BM_DocstoreScanQuery(benchmark::State& state) {
  docstore::Collection collection("obs");
  Rng rng(3);
  for (int i = 0; i < 50'000; ++i) {
    collection.insert(Value(Object{
        {"user", Value("u" + std::to_string(rng.uniform_int(0, 999)))},
        {"spl", Value(rng.uniform(30, 90))}}));
  }
  docstore::Query query = docstore::Query::eq("user", Value("u500"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.count(query));
  }
}
BENCHMARK(BM_DocstoreScanQuery);

// Sorted page query (find sorted by captured_at, limit 20): with the
// index the planner walks it in key order and stops at the page
// boundary; without it (planner:0) find materializes and stable_sorts
// every match.
void BM_DocstoreSortedQuery(benchmark::State& state) {
  docstore::Collection collection("obs");
  if (state.range(0) != 0) collection.create_index("captured_at");
  Rng rng(5);
  for (int i = 0; i < 50'000; ++i) {
    collection.insert(Value(Object{
        {"captured_at", Value(rng.uniform_int(0, 1'000'000))},
        {"spl", Value(rng.uniform(30, 90))}}));
  }
  docstore::FindOptions options;
  options.sort_by = "captured_at";
  options.limit = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.find(docstore::Query::all(), options));
  }
}
BENCHMARK(BM_DocstoreSortedQuery)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("planner");

// Batch ingest, client serialization through broker routing, admission,
// dedup and indexed storage against a real server. The document variant
// is the oracle path (nested Value batch, per-observation rehydration);
// the flat variant is the SoA fast path (DESIGN.md §13).
// Fixed iteration counts keep the *_exact counters deterministic.
constexpr std::size_t kIngestObsPerBatch = 64;
constexpr int kIngestBatches = 2000;

/// Broker + docstore + server with one registered client channel.
struct IngestStack {
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server{sim, broker, db};
  std::string exchange;

  IngestStack() {
    auto reg = server.register_app("soundcity").value_or_throw();
    std::string token =
        server
            .register_account(reg.admin_token, "soundcity", "u1",
                              core::Role::kClient)
            .value_or_throw();
    exchange =
        server.login_client(token, "soundcity", "c1").value_or_throw().exchange;
  }
};

/// A fleet-like batch: a few users and models (interning matters), most
/// observations located, monotone capture times so nothing deduplicates.
std::vector<phone::Observation> ingest_batch_observations() {
  Rng rng(6);
  const char* users[] = {"u1", "u2", "u3", "u4"};
  const char* models[] = {"GT-I9300", "iPhone6,2", "GT-I9505", "Nexus 5"};
  std::vector<phone::Observation> obs;
  for (std::size_t i = 0; i < kIngestObsPerBatch; ++i) {
    phone::Observation o;
    o.user = users[i % 4];
    o.model = models[(i / 4) % 4];
    o.spl_db = rng.uniform(35.0, 85.0);
    o.mode = static_cast<phone::SensingMode>(i % 3);
    o.activity = static_cast<phone::Activity>(i % 5);
    if (i % 4 != 3) {
      o.location = phone::LocationFix{
          static_cast<phone::LocationProvider>(i % 3), rng.uniform(0, 20'000),
          rng.uniform(0, 20'000), rng.uniform(3.0, 120.0)};
    }
    obs.push_back(std::move(o));
  }
  return obs;
}

/// Stamps unique capture times and span ids so every row is fresh to
/// the server's (client, span) dedup set.
void restamp(std::vector<phone::Observation>& obs, TimeMs& next_t) {
  for (phone::Observation& o : obs) {
    o.captured_at = next_t;
    o.span_id = static_cast<std::uint64_t>(next_t);
    ++next_t;
  }
}

Value ingest_batch_document(const std::vector<phone::Observation>& obs,
                            const std::string& batch_id) {
  Array observations;
  observations.reserve(obs.size());
  for (const phone::Observation& o : obs) observations.push_back(o.to_document());
  return Value(Object{{"app", Value(std::string("soundcity"))},
                      {"client", Value(std::string("c1"))},
                      {"batch_id", Value(batch_id)},
                      {"sent_at", Value(TimeMs{0})},
                      {"observations", Value(std::move(observations))}});
}

void BM_IngestBatchDocument(benchmark::State& state) {
  IngestStack stack;
  std::vector<phone::Observation> obs = ingest_batch_observations();
  TimeMs next_t = 1;
  int batch_no = 0;
  for (auto _ : state) {
    restamp(obs, next_t);
    Value payload =
        ingest_batch_document(obs, "c1#" + std::to_string(++batch_no));
    benchmark::DoNotOptimize(
        stack.broker.publish(stack.exchange, "soundcity.obs.c1", payload, 0));
  }
  state.counters["obs_per_sec"] = benchmark::Counter(
      static_cast<double>(kIngestObsPerBatch),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["stored_exact"] =
      static_cast<double>(stack.server.total_observations());
  state.counters["sheds_exact"] =
      static_cast<double>(stack.server.admission_sheds());
}
BENCHMARK(BM_IngestBatchDocument)->Iterations(kIngestBatches);

void BM_IngestBatchFlat(benchmark::State& state) {
  IngestStack stack;
  ingest::BatchPool pool;
  std::vector<phone::Observation> obs = ingest_batch_observations();
  TimeMs next_t = 1;
  int batch_no = 0;
  for (auto _ : state) {
    restamp(obs, next_t);
    auto batch = pool.make_batch("soundcity", "c1",
                                 "c1#" + std::to_string(++batch_no), 0, obs);
    benchmark::DoNotOptimize(stack.broker.publish_flat(
        stack.exchange, "soundcity.obs.c1", std::move(batch), 0));
  }
  state.counters["obs_per_sec"] = benchmark::Counter(
      static_cast<double>(kIngestObsPerBatch),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["stored_exact"] =
      static_cast<double>(stack.server.total_observations());
  state.counters["sheds_exact"] =
      static_cast<double>(stack.server.admission_sheds());
  // Allocation behavior: one exact-size block per batch, so the block
  // count is the batch count and the largest block must not grow.
  state.counters["arena_high_water_bytes"] =
      static_cast<double>(pool.stats().largest_block_bytes);
  state.counters["arenas_created_exact"] =
      static_cast<double>(pool.stats().blocks);
}
BENCHMARK(BM_IngestBatchFlat)->Iterations(kIngestBatches);

// The headline ratio the tentpole claims: both paths timed back to back
// over fresh stacks, reported as a single higher-is-better counter so
// the bench gate holds the speedup itself, not just absolute times.
void BM_IngestFlatSpeedup(benchmark::State& state) {
  // Best-of-N alternating rounds: a load spike during one path's run
  // would otherwise skew the ratio, so each path keeps its fastest
  // round (the standard noise-robust estimator for a ratio of times).
  constexpr int kBatches = 500;
  constexpr int kRounds = 3;
  double doc_seconds = 1e300, flat_seconds = 1e300;
  for (auto _ : state) {
    std::vector<phone::Observation> obs = ingest_batch_observations();
    for (int round = 0; round < kRounds; ++round) {
      {
        IngestStack stack;
        TimeMs next_t = 1;
        auto start = std::chrono::steady_clock::now();
        for (int b = 1; b <= kBatches; ++b) {
          restamp(obs, next_t);
          Value payload = ingest_batch_document(obs, "c1#" + std::to_string(b));
          benchmark::DoNotOptimize(stack.broker.publish(
              stack.exchange, "soundcity.obs.c1", payload, 0));
        }
        doc_seconds =
            std::min(doc_seconds, std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count());
      }
      {
        IngestStack stack;
        ingest::BatchPool pool;
        TimeMs next_t = 1;
        auto start = std::chrono::steady_clock::now();
        for (int b = 1; b <= kBatches; ++b) {
          restamp(obs, next_t);
          auto batch = pool.make_batch("soundcity", "c1",
                                       "c1#" + std::to_string(b), 0, obs);
          benchmark::DoNotOptimize(stack.broker.publish_flat(
              stack.exchange, "soundcity.obs.c1", std::move(batch), 0));
        }
        flat_seconds =
            std::min(flat_seconds, std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - start)
                                       .count());
      }
    }
  }
  state.counters["flat_speedup"] =
      flat_seconds > 0.0 ? doc_seconds / flat_seconds : 0.0;
}
BENCHMARK(BM_IngestFlatSpeedup)->Iterations(1);

void BM_BlueAnalysis(benchmark::State& state) {
  assim::Grid background(48, 48, 20'000, 20'000, 50.0);
  Rng rng(4);
  std::vector<assim::AssimObservation> observations;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    observations.push_back({rng.uniform(0, 20'000), rng.uniform(0, 20'000),
                            rng.uniform(40, 70), 3.0});
  }
  assim::BlueParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assim::blue_analysis(background, observations, params));
  }
}
BENCHMARK(BM_BlueAnalysis)->Arg(10)->Arg(100)->Arg(400);

void BM_ObservationSerialization(benchmark::State& state) {
  phone::Observation obs;
  obs.user = "u";
  obs.model = "SAMSUNG GT-I9505";
  obs.captured_at = 123456789;
  obs.spl_db = 61.5;
  phone::LocationFix fix;
  fix.provider = phone::LocationProvider::kNetwork;
  fix.x_m = 1234.5;
  fix.y_m = 6789.0;
  fix.accuracy_m = 35.0;
  obs.location = fix;
  for (auto _ : state) {
    std::string json = obs.to_document().to_json();
    benchmark::DoNotOptimize(
        phone::Observation::from_document(Value::parse_json(json)));
  }
}
BENCHMARK(BM_ObservationSerialization);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out so every run
// leaves a machine-readable report (explicit --benchmark_out flags
// still win). Reports land in $MPS_BENCH_JSON_DIR, or bench/reports/
// under the working directory — never the repo root.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string dir = "bench/reports";
  if (const char* env = std::getenv("MPS_BENCH_JSON_DIR")) dir = env;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) dir = ".";
  std::string out_flag =
      "--benchmark_out=" + dir + "/BENCH_micro_middleware.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
