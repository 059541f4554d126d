#include "client/goflow_client.h"

#include <gtest/gtest.h>

#include "ingest/obs_batch.h"

namespace mps::client {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    broker.declare_exchange("E1", broker::ExchangeType::kTopic).throw_if_error();
    broker.declare_queue("sink").throw_if_error();
    broker.bind_queue("E1", "sink", "#").throw_if_error();
  }

  phone::PhoneConfig phone_config(std::uint64_t seed = 1) {
    phone::PhoneConfig c;
    c.model = phone::top20_catalog().front();
    c.user = "u1";
    c.seed = seed;
    c.connectivity = net::ConnectivityParams::always_connected();
    c.horizon = days(2);
    return c;
  }

  GoFlowClient make_client(phone::Phone& phone, ClientConfig config) {
    config.exchange = "E1";
    return GoFlowClient(
        sim, broker, phone, std::move(config), [](TimeMs) { return 55.0; },
        [](TimeMs) { return std::pair<double, double>{100.0, 100.0}; });
  }

  /// Pops every buffered upload; `payloads` receives each as its batch
  /// document (a buffered flat batch stays flat in the queue).
  std::size_t drain_sink(std::vector<Value>* payloads = nullptr) {
    std::size_t n = 0;
    while (auto m = broker.pop("sink")) {
      ++n;
      if (payloads != nullptr)
        payloads->push_back(m->flat != nullptr ? m->flat->to_batch_document()
                                               : m->payload);
    }
    return n;
  }

  sim::Simulation sim;
  broker::Broker broker;
};

TEST_F(ClientTest, OpportunisticSensingAtPeriod) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_2_9("c1", ""));
  client.start();
  sim.run_until(minutes(25));
  EXPECT_EQ(client.stats().observations_recorded, 5u);  // t = 5,10,15,20,25
  EXPECT_EQ(client.stats().uploads, 5u);                // unbuffered
  sim.run_until(minutes(25) + seconds(2));  // let the last transfer land
  EXPECT_EQ(drain_sink(), 5u);
}

TEST_F(ClientTest, StopHaltsSensing) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_2_9("c1", ""));
  client.start();
  sim.run_until(minutes(11));
  client.stop();
  sim.run_until(minutes(60));
  EXPECT_EQ(client.stats().observations_recorded, 2u);
  EXPECT_FALSE(client.running());
}

TEST_F(ClientTest, BufferedVersionBatchesUploads) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 10));
  client.start();
  sim.run_until(minutes(5 * 9));  // 9 observations: below buffer
  EXPECT_EQ(client.stats().uploads, 0u);
  EXPECT_EQ(client.buffered(), 9u);
  sim.run_until(minutes(5 * 10));  // 10th triggers the flush
  EXPECT_EQ(client.stats().uploads, 1u);
  EXPECT_EQ(client.buffered(), 0u);
  std::vector<Value> payloads;
  sim.run_until(minutes(51));  // let the transfer complete
  drain_sink(&payloads);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0].at("observations").as_array().size(), 10u);
  EXPECT_EQ(payloads[0].get_string("client"), "c1");
}

TEST_F(ClientTest, DeferredUploadsRetryNextCycle) {
  // Build a phone with deterministic connectivity: we exploit that
  // always_connected params yield a fully connected trace and instead
  // test deferral by making the device offline through a trace generated
  // with extreme parameters (p_start_connected=0, huge mean_down).
  phone::PhoneConfig pc = phone_config();
  pc.connectivity.p_start_connected = 0.0;
  pc.connectivity.p_long_down = 1.0;
  pc.connectivity.mean_down_long = days(10);  // offline for the whole run
  phone::Phone phone(pc);
  GoFlowClient client = make_client(phone, ClientConfig::v1_2_9("c1", ""));
  client.start();
  sim.run_until(hours(1));
  EXPECT_EQ(client.stats().uploads, 0u);
  EXPECT_GT(client.stats().deferred_uploads, 0u);
  EXPECT_EQ(client.buffered(), client.stats().observations_recorded);
  EXPECT_EQ(drain_sink(), 0u);
}

TEST_F(ClientTest, NoSharingKeepsDataLocal) {
  phone::Phone phone(phone_config());
  ClientConfig config = ClientConfig::v1_2_9("c1", "");
  config.share = false;
  GoFlowClient client = make_client(phone, config);
  client.start();
  sim.run_until(hours(1));
  EXPECT_GT(client.stats().observations_recorded, 0u);
  EXPECT_EQ(client.stats().uploads, 0u);
  EXPECT_EQ(client.stats().dropped_not_shared,
            client.stats().observations_recorded);
  EXPECT_EQ(client.buffered(), 0u);
}

TEST_F(ClientTest, SenseNowRecordsManualObservation) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 5));
  phone::Observation obs = client.sense_now(phone::SensingMode::kManual);
  EXPECT_EQ(obs.mode, phone::SensingMode::kManual);
  EXPECT_EQ(client.buffered(), 1u);
}

TEST_F(ClientTest, FlushForcesPartialBatch) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 10));
  client.sense_now(phone::SensingMode::kManual);
  client.sense_now(phone::SensingMode::kManual);
  EXPECT_EQ(client.buffered(), 2u);
  EXPECT_TRUE(client.flush());
  EXPECT_EQ(client.buffered(), 0u);
  EXPECT_EQ(client.stats().uploads, 1u);
  EXPECT_FALSE(client.flush());  // nothing left
}

TEST_F(ClientTest, DeliveryRecordsTrackDelay) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 10));
  client.start();
  sim.run_until(minutes(5 * 10) + seconds(5));
  ASSERT_EQ(client.deliveries().size(), 10u);
  // First observation captured at 5 min, delivered when the batch flushed
  // at 50 min: delay ~ 45 min.
  const DeliveryRecord& first = client.deliveries().front();
  EXPECT_NEAR(static_cast<double>(first.delay()),
              static_cast<double>(minutes(45)), static_cast<double>(seconds(2)));
  // Last observation flushed immediately: tiny delay (just latency).
  const DeliveryRecord& last = client.deliveries().back();
  EXPECT_LT(last.delay(), seconds(2));
  EXPECT_EQ(first.batch_size, 10u);
}

TEST_F(ClientTest, V11PaysConnectionOverhead) {
  phone::PhoneConfig pc1 = phone_config(3), pc2 = phone_config(3);
  phone::Phone p_v11(pc1), p_v129(pc2);
  GoFlowClient v11 = make_client(p_v11, ClientConfig::v1_1("a", ""));
  GoFlowClient v129 = make_client(p_v129, ClientConfig::v1_2_9("b", ""));
  v11.start();
  v129.start();
  sim.run_until(hours(4));
  EXPECT_GT(p_v11.radio().total_energy_mj(), p_v129.radio().total_energy_mj());
}

TEST_F(ClientTest, BufferingSavesRadioEnergy) {
  // The §5.3 headline: buffered uploads consume much less radio energy.
  phone::PhoneConfig pc1 = phone_config(4), pc2 = phone_config(4);
  pc1.technology = pc2.technology = net::Technology::kCell3G;
  phone::Phone unbuffered_phone(pc1), buffered_phone(pc2);
  ClientConfig unbuffered = ClientConfig::v1_2_9("a", "");
  unbuffered.sense_period = minutes(1);
  ClientConfig buffered = ClientConfig::v1_3("b", "", 10);
  buffered.sense_period = minutes(1);
  GoFlowClient cu = make_client(unbuffered_phone, unbuffered);
  GoFlowClient cb = make_client(buffered_phone, buffered);
  cu.start();
  cb.start();
  sim.run_until(hours(7));
  EXPECT_GT(unbuffered_phone.radio().total_energy_mj(),
            buffered_phone.radio().total_energy_mj() * 3.0);
}

TEST_F(ClientTest, PublishPayloadIsParsableBatch) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_2_9("c9", ""));
  client.sense_now(phone::SensingMode::kJourney);
  sim.run();  // deliver pending transfer event
  std::vector<Value> payloads;
  drain_sink(&payloads);
  ASSERT_EQ(payloads.size(), 1u);
  const Value& batch = payloads[0];
  EXPECT_EQ(batch.get_string("app"), "soundcity");
  const Array& obs = batch.at("observations").as_array();
  ASSERT_EQ(obs.size(), 1u);
  phone::Observation parsed = phone::Observation::from_document(obs[0]);
  EXPECT_EQ(parsed.mode, phone::SensingMode::kJourney);
  EXPECT_EQ(parsed.user, "u1");
}

TEST_F(ClientTest, PiggybackFlushesEarlyOnWarmRadio) {
  phone::PhoneConfig pc = phone_config();
  pc.foreground.sessions_per_hour = 60.0;  // radio warm often
  pc.foreground.mean_session = minutes(2);
  phone::Phone phone(pc);
  ClientConfig config = ClientConfig::v1_3("c1", "", 50);  // huge buffer
  config.piggyback = true;
  GoFlowClient client = make_client(phone, config);
  client.start();
  sim.run_until(hours(6));
  // The buffer threshold (50) was never reached within 6h (72 obs max,
  // but piggyback flushes keep draining it) — uploads happened anyway.
  EXPECT_GT(client.stats().piggyback_uploads, 0u);
  EXPECT_GT(client.stats().uploads, 0u);
}

TEST_F(ClientTest, PiggybackDisabledNeverFlushesEarly) {
  phone::PhoneConfig pc = phone_config();
  pc.foreground.sessions_per_hour = 60.0;
  phone::Phone phone(pc);
  ClientConfig config = ClientConfig::v1_3("c1", "", 50);
  config.piggyback = false;
  GoFlowClient client = make_client(phone, config);
  client.start();
  sim.run_until(hours(3));
  EXPECT_EQ(client.stats().piggyback_uploads, 0u);
  EXPECT_EQ(client.stats().uploads, 0u);  // 36 obs < 50 threshold
  EXPECT_EQ(client.buffered(), client.stats().observations_recorded);
}

TEST_F(ClientTest, PiggybackSavesEnergyVsSamePeriodicFlushing) {
  // Same workload on 3G: piggyback rides warm-radio windows (ramp paid by
  // the foreground app), periodic buffer-10 pays cold ramps.
  phone::PhoneConfig pc1 = phone_config(8), pc2 = phone_config(8);
  pc1.technology = pc2.technology = net::Technology::kCell3G;
  pc1.foreground.sessions_per_hour = 12.0;
  pc2.foreground.sessions_per_hour = 12.0;
  phone::Phone piggy_phone(pc1), periodic_phone(pc2);
  ClientConfig piggy = ClientConfig::v1_3("a", "", 10);
  piggy.piggyback = true;
  ClientConfig periodic = ClientConfig::v1_3("b", "", 10);
  GoFlowClient cp = make_client(piggy_phone, piggy);
  GoFlowClient cq = make_client(periodic_phone, periodic);
  cp.start();
  cq.start();
  sim.run_until(days(1));
  double piggy_per_obs =
      piggy_phone.radio().total_energy_mj() /
      static_cast<double>(cp.stats().observations_uploaded);
  double periodic_per_obs =
      periodic_phone.radio().total_energy_mj() /
      static_cast<double>(cq.stats().observations_uploaded);
  EXPECT_LT(piggy_per_obs, periodic_per_obs);
}

TEST_F(ClientTest, MaxBufferAgeForcesFlush) {
  phone::Phone phone(phone_config());
  ClientConfig config = ClientConfig::v1_3("c1", "", 100);
  config.max_buffer_age = minutes(30);
  GoFlowClient client = make_client(phone, config);
  client.start();
  sim.run_until(hours(2));
  EXPECT_GT(client.stats().age_forced_uploads, 0u);
  // No delivered observation waited much longer than the age bound plus
  // one sensing period.
  for (const DeliveryRecord& r : client.deliveries())
    EXPECT_LE(r.delay(), minutes(36));
}

TEST_F(ClientTest, MobilityGateSkipsStationaryTicks) {
  phone::Phone phone(phone_config());
  ClientConfig config = ClientConfig::v1_2_9("c1", "");
  config.still_backoff = 4;  // stationary device senses every 4th tick
  GoFlowClient client = make_client(phone, config);  // fixed position fn
  client.start();
  sim.run_until(hours(4));  // 48 ticks
  // First tick always senses (no previous position); after that, only
  // every 4th stationary tick.
  EXPECT_GT(client.stats().skipped_still, 30u);
  EXPECT_LT(client.stats().observations_recorded, 16u);
  EXPECT_GT(client.stats().observations_recorded, 8u);
}

TEST_F(ClientTest, MobilityGateDisabledByDefault) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_2_9("c1", ""));
  client.start();
  sim.run_until(hours(1));
  EXPECT_EQ(client.stats().skipped_still, 0u);
  EXPECT_EQ(client.stats().observations_recorded, 12u);
}

TEST_F(ClientTest, MobilityGateSensesWhileMoving) {
  phone::PhoneConfig pc = phone_config();
  phone::Phone phone(pc);
  ClientConfig config = ClientConfig::v1_2_9("c1", "");
  config.exchange = "E1";
  config.still_backoff = 4;
  // A walking user: position advances ~100 m per 5-min tick.
  GoFlowClient client(
      sim, broker, phone, config, [](TimeMs) { return 55.0; },
      [](TimeMs t) {
        return std::pair<double, double>{static_cast<double>(t) / 3000.0, 0.0};
      });
  client.start();
  sim.run_until(hours(2));
  EXPECT_EQ(client.stats().skipped_still, 0u);  // always moving
  EXPECT_EQ(client.stats().observations_recorded, 24u);
}

TEST_F(ClientTest, MobilityGateSavesEnergy) {
  phone::PhoneConfig pc1 = phone_config(5), pc2 = phone_config(5);
  phone::Phone gated_phone(pc1), plain_phone(pc2);
  ClientConfig gated = ClientConfig::v1_2_9("a", "");
  gated.still_backoff = 6;
  ClientConfig plain = ClientConfig::v1_2_9("b", "");
  GoFlowClient cg = make_client(gated_phone, gated);
  GoFlowClient cp = make_client(plain_phone, plain);
  cg.start();
  cp.start();
  sim.run_until(hours(8));
  EXPECT_LT(gated_phone.battery().discrete_drained_mj(),
            plain_phone.battery().discrete_drained_mj() / 2.0);
}

TEST_F(ClientTest, MobilityGateStillRetriesDeferredUploads) {
  phone::PhoneConfig pc = phone_config();
  pc.connectivity.p_start_connected = 0.0;
  pc.connectivity.p_long_down = 1.0;
  pc.connectivity.mean_down_long = hours(2);
  phone::Phone phone(pc);
  ClientConfig config = ClientConfig::v1_2_9("c1", "");
  config.still_backoff = 4;
  GoFlowClient client = make_client(phone, config);
  client.start();
  sim.run_until(hours(8));
  // The device reconnects at some point; everything sensed must have been
  // uploaded by then, even though most ticks were gated off.
  EXPECT_GT(client.stats().observations_recorded, 0u);
  EXPECT_EQ(client.buffered(), 0u);
}

TEST_F(ClientTest, JourneySessionRecordsAtChosenFrequency) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 100));
  // The user picks a 30 s frequency (paper: "defines the sensing
  // frequency").
  client.start_journey(seconds(30)).throw_if_error();
  EXPECT_TRUE(client.journey_active());
  sim.run_until(minutes(5));
  std::size_t recorded = client.stop_journey();
  EXPECT_FALSE(client.journey_active());
  EXPECT_EQ(recorded, 11u);  // t=0 plus 10 ticks over 5 minutes
  // stop_journey flushed the buffer despite it being under the threshold.
  EXPECT_EQ(client.buffered(), 0u);
  EXPECT_EQ(client.stats().uploads, 1u);
  sim.run_until(minutes(10));
  EXPECT_EQ(client.stats().observations_recorded, 11u);  // no more ticks
}

TEST_F(ClientTest, JourneyObservationsAreJourneyMode) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 100));
  client.start_journey(minutes(1)).throw_if_error();
  sim.run_until(minutes(3));
  client.stop_journey();
  sim.run();
  std::vector<Value> payloads;
  drain_sink(&payloads);
  ASSERT_EQ(payloads.size(), 1u);
  for (const Value& doc : payloads[0].at("observations").as_array())
    EXPECT_EQ(doc.get_string("mode"), "journey");
}

TEST_F(ClientTest, ConcurrentJourneyRejected) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_3("c1", "", 100));
  client.start_journey(minutes(1)).throw_if_error();
  Status second = client.start_journey(minutes(1));
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kConflict);
  client.stop_journey();
  // After stopping, a new journey may start.
  EXPECT_TRUE(client.start_journey(minutes(2)).ok());
  client.stop_journey();
  EXPECT_FALSE(client.start_journey(0).ok());  // invalid period
}

TEST_F(ClientTest, JourneyRunsAlongsideOpportunisticSensing) {
  phone::Phone phone(phone_config());
  GoFlowClient client = make_client(phone, ClientConfig::v1_2_9("c1", ""));
  client.start();  // opportunistic every 5 min
  sim.run_until(minutes(7));
  client.start_journey(minutes(1)).throw_if_error();
  sim.run_until(minutes(12));
  client.stop_journey();
  // 2 opportunistic (5, 10) + 6 journey (7..12).
  EXPECT_EQ(client.stats().observations_recorded, 8u);
}

TEST_F(ClientTest, VersionNames) {
  EXPECT_STREQ(app_version_name(AppVersion::kV1_1), "v1.1");
  EXPECT_STREQ(app_version_name(AppVersion::kV1_2_9), "v1.2.9");
  EXPECT_STREQ(app_version_name(AppVersion::kV1_3), "v1.3");
}

TEST_F(ClientTest, FactoriesSetPolicies) {
  ClientConfig v11 = ClientConfig::v1_1("c", "e");
  EXPECT_EQ(v11.version, AppVersion::kV1_1);
  EXPECT_EQ(v11.buffer_size, 1u);
  ClientConfig v13 = ClientConfig::v1_3("c", "e", 20);
  EXPECT_EQ(v13.version, AppVersion::kV1_3);
  EXPECT_EQ(v13.buffer_size, 20u);
  EXPECT_EQ(v13.exchange, "e");
}

}  // namespace
}  // namespace mps::client
