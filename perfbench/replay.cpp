// Post-run layer replay: the stored observations, regrouped into their
// upload batches, are pushed through each layer's public entry point on
// fresh instances, one timed call sequence per layer. The differences
// between nested replays attribute wall time to the layers that a single
// end-to-end call crosses (core = broker + server + docstore, minus the
// broker and the docstore alone).
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/goflow_server.h"
#include "core/recovery.h"
#include "crowd/ambient.h"
#include "durable/storage.h"
#include "ingest/obs_batch.h"
#include "net/wire.h"
#include "perfbench.h"
#include "phone/device_catalog.h"
#include "shard/fleet.h"

using namespace mps;

namespace perfbench {
namespace {

const AppId kApp = "soundcity";

/// Logs every replayed client in on `srv` (the study's registration
/// sequence) and returns client -> exchange.
std::unordered_map<std::string, std::string> login_all(
    core::GoFlowServer& srv, const std::vector<std::string>& clients) {
  auto reg = srv.register_app(kApp).value_or_throw();
  const std::string token =
      srv.register_account(reg.admin_token, kApp, "study-fleet",
                           core::Role::kClient)
          .value_or_throw();
  std::unordered_map<std::string, std::string> exchanges;
  for (const std::string& c : clients)
    exchanges[c] = srv.login_client(token, kApp, c).value_or_throw().exchange;
  return exchanges;
}

std::string routing_key(const std::string& client) {
  return kApp + ".obs." + client;
}

/// A fresh single-server stack, optionally journaled.
struct Stack {
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server{sim, broker, db};
  durable::MemStorageEnv env;
  std::unique_ptr<core::ServerLifecycle> lifecycle;

  explicit Stack(bool journaled) {
    if (journaled)
      lifecycle = std::make_unique<core::ServerLifecycle>(env, sim, broker, db,
                                                          server);
  }
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::uint64_t read_status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line))
    if (line.compare(0, n, key) == 0)
      return std::strtoull(line.c_str() + n, nullptr, 10);
  return 0;
}

}  // namespace

std::uint64_t vm_rss_bytes() { return read_status_kb("VmRSS:") * 1024; }
std::uint64_t vm_hwm_bytes() { return read_status_kb("VmHWM:") * 1024; }

std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

std::vector<ReplayBatch> regroup(
    const std::vector<const docstore::Collection*>& collections) {
  std::vector<ReplayBatch> batches;
  std::unordered_map<std::string, std::size_t> index;
  for (const docstore::Collection* c : collections) {
    c->for_each([&](const docstore::Document& doc) {
      std::string client = doc.get_string("client");
      const TimeMs received_at = doc.get_int("received_at");
      std::string key = client + '\x1f' + std::to_string(received_at);
      auto [it, fresh] = index.emplace(std::move(key), batches.size());
      if (fresh) batches.push_back({std::move(client), received_at, {}});
      batches[it->second].observations.push_back(
          phone::Observation::from_document(doc));
    });
  }
  return batches;
}

void replay_layers(const Workload& w, const crowd::Population& population,
                   const std::vector<const docstore::Collection*>&
                       final_collections,
                   const std::vector<ReplayBatch>& batches,
                   std::map<std::string, double>& m, std::vector<Span>& spans,
                   Clock::time_point epoch) {
  std::size_t n_obs = 0;
  std::vector<std::string> clients;
  {
    std::unordered_map<std::string, bool> seen;
    for (const ReplayBatch& b : batches) {
      n_obs += b.observations.size();
      if (seen.emplace(b.client, true).second) clients.push_back(b.client);
    }
  }
  if (n_obs == 0) return;
  const double per_obs = 1e9 / static_cast<double>(n_obs);
  const double per_batch = 1e9 / static_cast<double>(batches.size());
  auto timed = [&](const std::string& name, const auto& fn) {
    const Clock::time_point a = Clock::now();
    fn();
    const Clock::time_point b = Clock::now();
    spans.push_back(
        {"replay." + name,
         std::chrono::duration<double, std::micro>(a - epoch).count(),
         std::chrono::duration<double, std::micro>(b - a).count()});
    return seconds_between(a, b);
  };
  // The study's stored form: documents once a journal is attached (one
  // server with a lifecycle, or every fleet node), flat rows otherwise.
  const bool document_form = w.journaled || w.shards > 1;

  // --- crowd: the substrate the clients sample per observation ----------
  std::unordered_map<std::string, const crowd::UserProfile*> profiles;
  for (const crowd::UserProfile& u : population.users()) profiles[u.id] = &u;
  double sink = 0.0;
  const double position_s = timed("crowd.position", [&] {
    for (const ReplayBatch& b : batches) {
      const crowd::UserProfile& p = *profiles.at(b.client);
      for (const phone::Observation& o : b.observations)
        sink += crowd::user_position(p, o.captured_at).first;
    }
  });
  crowd::AmbientModel ambient{crowd::AmbientParams{}};
  const double ambient_s = timed("crowd.ambient", [&] {
    for (const ReplayBatch& b : batches) {
      Rng rng = Rng(profiles.at(b.client)->seed).child("study-ambient");
      for (const phone::Observation& o : b.observations)
        sink += ambient.sample(o.captured_at, rng);
    }
  });
  m["crowd.position_ns"] = position_s * per_obs;
  m["crowd.ambient_ns"] = ambient_s * per_obs;
  m["time.crowd_s"] = position_s + ambient_s;

  // --- ingest: one flat batch per upload --------------------------------
  ingest::BatchPool pool;
  std::vector<std::shared_ptr<const ingest::ObsBatch>> flat;
  flat.reserve(batches.size());
  const double ingest_s = timed("ingest.make_batch", [&] {
    for (std::size_t i = 0; i < batches.size(); ++i)
      flat.push_back(pool.make_batch(kApp, batches[i].client,
                                     batches[i].client + "#r" + std::to_string(i),
                                     batches[i].received_at,
                                     batches[i].observations));
  });
  m["ingest.make_batch_ns_per_obs"] = ingest_s * per_obs;
  m["time.ingest_s"] = ingest_s;

  // --- net: publish-frame encode + decode (socket workloads) ------------
  if (w.socket) {
    std::string body, frame;
    net::wire::PublishFlatMsg decoded;
    bool all_ok = true;
    const double net_s = timed("net.codec", [&] {
      for (std::size_t i = 0; i < flat.size(); ++i) {
        body.clear();
        frame.clear();
        net::wire::encode_publish_flat("x", routing_key(batches[i].client),
                                       batches[i].received_at, *flat[i], body);
        net::wire::encode_frame(net::wire::MsgType::kPublishFlat, i, body,
                                frame);
        net::wire::Frame f;
        all_ok &= net::wire::decode_frame(frame, 0, f) ==
                      net::wire::DecodeResult::kOk &&
                  net::wire::decode_publish_flat(f.body, decoded);
      }
    });
    if (!all_ok) throw std::runtime_error("net codec replay: decode failed");
    m["net.codec_ns_per_batch"] = net_s * per_batch;
    m["time.net_s"] = net_s;
  }

  // Batch documents for the document-form replays (what the server's
  // document path consumes), built outside every timed call.
  std::vector<Value> payloads;
  if (document_form)
    for (const auto& b : flat) payloads.push_back(b->to_batch_document());
  // One upload into `broker`, in the workload's stored form.
  auto publish = [&](broker::Broker& broker, const std::string& exchange,
                     std::size_t i) {
    const std::string key = routing_key(batches[i].client);
    if (document_form)
      broker.publish(exchange, key, payloads[i], batches[i].received_at);
    else
      broker.publish_flat(exchange, key, flat[i], batches[i].received_at);
  };

  // --- broker: Figure-3 topology, no-op consumer on the ingest queue ----
  double broker_s = 0.0;
  {
    Stack s(false);
    auto exchanges = login_all(s.server, clients);
    s.server.crash();  // releases the ingest queue to the no-op consumer
    s.broker.subscribe(s.server.config().ingest_queue,
                       [](const broker::Message&) {});
    broker_s = timed("broker.publish", [&] {
      for (std::size_t i = 0; i < flat.size(); ++i)
        publish(s.broker, exchanges.at(batches[i].client), i);
    });
  }
  m["broker.publish_ns_per_batch"] = broker_s * per_batch;
  m["time.broker_s"] = broker_s;

  // --- docstore: inserts in the workload's stored form ------------------
  // The payload the store keeps is built inside the heap window (a fresh
  // pool's batches in flat form, the documents in document form), so
  // bytes_per_doc counts it; only the insert calls are timed.
  double docstore_s = 0.0;
  {
    Stack s(false);
    docstore::Collection& c =
        s.db.collection(s.server.config().observations_collection);
    const std::uint64_t heap0 = heap_in_use_bytes();
    {
      ingest::BatchPool store_pool;
      std::vector<std::shared_ptr<const ingest::ObsBatch>> store_flat;
      std::vector<docstore::Document> docs;
      if (document_form) {
        docs.reserve(n_obs);
        for (std::size_t i = 0; i < flat.size(); ++i)
          for (std::size_t r = 0; r < flat[i]->size(); ++r)
            docs.push_back(
                flat[i]->storage_document(r, batches[i].received_at));
      } else {
        store_flat.reserve(batches.size());
        for (std::size_t i = 0; i < batches.size(); ++i)
          store_flat.push_back(store_pool.make_batch(
              kApp, batches[i].client,
              batches[i].client + "#r" + std::to_string(i),
              batches[i].received_at, batches[i].observations));
      }
      docstore_s = timed("docstore.insert", [&] {
        if (document_form) {
          for (docstore::Document& d : docs) c.insert(std::move(d));
        } else {
          for (std::size_t i = 0; i < store_flat.size(); ++i)
            c.insert_batch(store_flat[i], 0, store_flat[i]->size(),
                           batches[i].received_at);
        }
      });
    }
    const std::uint64_t heap1 = heap_in_use_bytes();
    m["docstore.bytes_per_doc"] =
        static_cast<double>(heap1 > heap0 ? heap1 - heap0 : 0) /
        static_cast<double>(n_obs);
  }
  m["docstore.insert_ns_per_obs"] = docstore_s * per_obs;
  m["time.docstore_s"] = docstore_s;

  // Direct reads on the run's final collections (p50 of 51 calls each);
  // on a fleet one call goes to every node, as the operator's view of the
  // whole study needs.
  {
    Rng rng = Rng(w.seed).child("perfbench-docstore-reads");
    const auto& catalog = phone::top20_catalog();
    std::vector<double> count_us, group_us, page_us;
    for (int i = 0; i < 51; ++i) {
      const Value model(catalog[static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(
                                           catalog.size()) - 1))]
                            .id);
      const TimeMs from = static_cast<TimeMs>(
          rng.uniform() * static_cast<double>(days(w.days)));
      docstore::FindOptions page;
      page.sort_by = "captured_at";
      page.limit = 50;
      Clock::time_point a = Clock::now();
      for (const docstore::Collection* fc : final_collections)
        sink += static_cast<double>(
            fc->count(docstore::Query::eq("model", model)));
      Clock::time_point b = Clock::now();
      for (const docstore::Collection* fc : final_collections)
        sink += static_cast<double>(fc->group_count("model").size());
      Clock::time_point c = Clock::now();
      for (const docstore::Collection* fc : final_collections)
        sink += static_cast<double>(
            fc->find(docstore::Query::gte("captured_at", Value(from)), page)
                .size());
      Clock::time_point d = Clock::now();
      count_us.push_back(std::chrono::duration<double, std::micro>(b - a).count());
      group_us.push_back(std::chrono::duration<double, std::micro>(c - b).count());
      page_us.push_back(std::chrono::duration<double, std::micro>(d - c).count());
    }
    m["docstore.count_us"] = median_of(count_us);
    m["docstore.group_count_us"] = median_of(group_us);
    m["docstore.find_page_us"] = median_of(page_us);
  }

  // --- core: broker + server + docstore, minus the broker and docstore --
  auto replay_server = [&](const std::string& name, bool journaled) {
    Stack s(journaled);
    auto exchanges = login_all(s.server, clients);
    const double secs = timed(name, [&] {
      for (std::size_t i = 0; i < flat.size(); ++i) {
        // With a journal attached the client's flat batch is what the
        // study publishes; the server reroutes it to the document path.
        if (journaled)
          s.broker.publish_flat(exchanges.at(batches[i].client),
                                routing_key(batches[i].client), flat[i],
                                batches[i].received_at);
        else
          publish(s.broker, exchanges.at(batches[i].client), i);
      }
    });
    if (s.server.total_observations() != n_obs)
      throw std::runtime_error(name + " replay stored " +
                               std::to_string(s.server.total_observations()) +
                               " of " + std::to_string(n_obs));
    return secs;
  };
  const double core_full_s = replay_server("core.ingest", false);
  m["core.ingest_ns_per_obs"] =
      (core_full_s - broker_s - docstore_s) * per_obs;
  m["time.core_s"] = core_full_s - broker_s - docstore_s;

  // --- durable: the study's flat batches into a journaled server, minus
  // the document-form core replay ----------------------------------------
  double core_journaled_s = core_full_s;
  if (document_form) {
    core_journaled_s = replay_server("durable.append", true);
    m["durable.append_ns_per_obs"] = (core_journaled_s - core_full_s) * per_obs;
    m["time.durable_s"] = core_journaled_s - core_full_s;
  }

  // --- shard: the same batches routed through a fresh fleet -------------
  if (w.shards > 1) {
    sim::Simulation sim;
    shard::FleetConfig fc;
    fc.shards = w.shards;
    shard::ShardFleet fleet(sim, fc);
    std::unordered_map<std::string, std::string> exchanges;
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      exchanges = login_all(fleet.node(i).server(), clients);
    const double fleet_s = timed("shard.publish", [&] {
      for (std::size_t i = 0; i < flat.size(); ++i)
        fleet.broker_for(batches[i].client)
            .publish_flat(exchanges.at(batches[i].client),
                          routing_key(batches[i].client), flat[i],
                          batches[i].received_at);
    });
    std::uint64_t stored = 0;
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      stored += fleet.node(i).server().total_observations();
    if (stored != n_obs)
      throw std::runtime_error("shard.publish replay stored " +
                               std::to_string(stored) + " of " +
                               std::to_string(n_obs));
    m["shard.publish_ns_per_obs"] = fleet_s * per_obs;
    m["time.shard_s"] = fleet_s - core_journaled_s;
  }
  volatile double keep = sink;  // the replayed reads must not be elided
  (void)keep;
}

}  // namespace perfbench
