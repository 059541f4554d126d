#include "fault/fault.h"

#include <gtest/gtest.h>

#include <memory>

#include "obs/metrics.h"

namespace mps::fault {
namespace {

std::vector<bool> draw(FaultPlan& plan, FaultSite site, int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(plan.should_fail(site));
  return out;
}

TEST(FaultPlan, DisarmedPlanNeverFails) {
  FaultPlan plan(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(plan.should_fail(FaultSite::kBrokerPublish));
  EXPECT_EQ(plan.total_injected(), 0u);
  EXPECT_EQ(plan.checked(FaultSite::kBrokerPublish), 100u);
}

TEST(FaultPlan, ProbabilityDecisionsAreSeedDeterministic) {
  FaultPlan a(42), b(42), c(43);
  a.set_probability(FaultSite::kBrokerPublish, 0.3);
  b.set_probability(FaultSite::kBrokerPublish, 0.3);
  c.set_probability(FaultSite::kBrokerPublish, 0.3);
  auto da = draw(a, FaultSite::kBrokerPublish, 200);
  auto db = draw(b, FaultSite::kBrokerPublish, 200);
  auto dc = draw(c, FaultSite::kBrokerPublish, 200);
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
  // ~30% of 200 decisions should fire, loosely.
  EXPECT_GT(a.injected(FaultSite::kBrokerPublish), 30u);
  EXPECT_LT(a.injected(FaultSite::kBrokerPublish), 100u);
}

TEST(FaultPlan, SiteStreamsAreIndependent) {
  // Consulting one site must not shift another site's decisions.
  FaultPlan a(9), b(9);
  a.set_probability(FaultSite::kDocstoreInsert, 0.5);
  b.set_probability(FaultSite::kDocstoreInsert, 0.5);
  b.set_probability(FaultSite::kBrokerConsume, 0.5);
  for (int i = 0; i < 50; ++i) b.should_fail(FaultSite::kBrokerConsume);
  EXPECT_EQ(draw(a, FaultSite::kDocstoreInsert, 100),
            draw(b, FaultSite::kDocstoreInsert, 100));
}

TEST(FaultPlan, FailNextScriptsExactFailures) {
  FaultPlan plan(1);
  plan.fail_next(FaultSite::kDocstoreInsert, 3);
  EXPECT_TRUE(plan.should_fail(FaultSite::kDocstoreInsert));
  EXPECT_TRUE(plan.should_fail(FaultSite::kDocstoreInsert));
  EXPECT_TRUE(plan.should_fail(FaultSite::kDocstoreInsert));
  EXPECT_FALSE(plan.should_fail(FaultSite::kDocstoreInsert));
  EXPECT_EQ(plan.injected(FaultSite::kDocstoreInsert), 3u);
}

TEST(FaultPlan, WindowsFailWithExplicitTime) {
  FaultPlan plan(1);
  plan.add_window(FaultSite::kBrokerPublish, minutes(10), minutes(20));
  EXPECT_FALSE(plan.should_fail(FaultSite::kBrokerPublish, minutes(5)));
  EXPECT_TRUE(plan.should_fail(FaultSite::kBrokerPublish, minutes(10)));
  EXPECT_TRUE(plan.should_fail(FaultSite::kBrokerPublish, minutes(19)));
  EXPECT_FALSE(plan.should_fail(FaultSite::kBrokerPublish, minutes(20)));
}

TEST(FaultPlan, WindowsUseAttachedClock) {
  FaultPlan plan(1);
  plan.add_window(FaultSite::kDocstoreInsert, 100, 200);
  TimeMs now = 0;
  plan.set_clock([&now] { return now; });
  now = 50;
  EXPECT_FALSE(plan.should_fail(FaultSite::kDocstoreInsert));
  now = 150;
  EXPECT_TRUE(plan.should_fail(FaultSite::kDocstoreInsert));
}

TEST(FaultPlan, CrashScheduleIsDeterministicPerDevice) {
  FaultPlan plan(11);
  plan.crash_rate_per_day = 3.0;
  auto a1 = plan.crash_schedule("mob1", days(10));
  auto a2 = plan.crash_schedule("mob1", days(10));
  auto b = plan.crash_schedule("mob2", days(10));
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i].at, a2[i].at);
    EXPECT_EQ(a1[i].down_for, a2[i].down_for);
  }
  EXPECT_GT(a1.size(), 10u);  // ~30 expected over 10 days
  bool differs = a1.size() != b.size();
  for (std::size_t i = 0; !differs && i < a1.size(); ++i)
    differs = a1[i].at != b[i].at;
  EXPECT_TRUE(differs);
  TimeMs prev = -1;
  for (const auto& ev : a1) {
    EXPECT_GT(ev.at, prev);
    EXPECT_GT(ev.down_for, 0);
    EXPECT_LT(ev.at, days(10));
    prev = ev.at + ev.down_for;  // restart precedes the next crash
  }
}

TEST(FaultPlan, FlapWindowsSortedDisjointWithinHorizon) {
  FaultPlan plan(5);
  plan.flap_rate_per_day = 6.0;
  plan.flap_duration_mean = minutes(40);
  auto windows = plan.flap_windows("mob1", days(7));
  EXPECT_GT(windows.size(), 10u);
  TimeMs prev_end = -1;
  for (const auto& [from, until] : windows) {
    EXPECT_GT(from, prev_end);
    EXPECT_LT(from, until);
    EXPECT_LE(until, days(7));
    prev_end = until;
  }
}

TEST(FaultPlan, ZeroRatesYieldEmptySchedules) {
  FaultPlan plan(5);
  EXPECT_TRUE(plan.crash_schedule("mob1", days(30)).empty());
  EXPECT_TRUE(plan.flap_windows("mob1", days(30)).empty());
}

TEST(FaultPlan, ProfilesByName) {
  for (const std::string& name : FaultPlan::profile_names()) {
    FaultPlan plan = FaultPlan::profile(name, 3);
    EXPECT_EQ(plan.profile_name(), name);
    EXPECT_EQ(plan.seed(), 3u);
  }
  EXPECT_THROW(FaultPlan::profile("no-such-profile", 1), std::invalid_argument);
  EXPECT_EQ(FaultPlan::none().total_injected(), 0u);
  EXPECT_GT(FaultPlan::lossy_network(1).probability(FaultSite::kBrokerPublish),
            0.0);
  EXPECT_GT(FaultPlan::crashy_client(1).crash_rate_per_day, 0.0);
}

TEST(FaultPlan, MetricsMirrorInjections) {
  obs::Registry registry;
  FaultPlan plan(2);
  plan.set_metrics(&registry);
  plan.fail_next(FaultSite::kBrokerPublish, 2);
  plan.should_fail(FaultSite::kBrokerPublish);
  plan.should_fail(FaultSite::kBrokerPublish);
  plan.should_fail(FaultSite::kBrokerPublish);
  EXPECT_EQ(registry.counter("fault.injected.broker_publish").value(), 2u);
  EXPECT_EQ(registry.counter("fault.checked.broker_publish").value(), 3u);
}

// A plan is a value: copies of an attached plan are not read by the
// registry, and the original's counts survive its destruction.
TEST(FaultPlan, CopiesOfAnAttachedPlanStartDetached) {
  obs::Registry registry;
  auto plan = std::make_unique<FaultPlan>(2);
  plan->set_metrics(&registry);
  plan->fail_next(FaultSite::kBrokerPublish, 1);
  plan->should_fail(FaultSite::kBrokerPublish);
  FaultPlan copy = *plan;
  plan.reset();
  copy.should_fail(FaultSite::kBrokerPublish);
  EXPECT_EQ(copy.checked(FaultSite::kBrokerPublish), 2u);
  EXPECT_EQ(registry.counter("fault.checked.broker_publish").value(), 1u);
  EXPECT_EQ(registry.counter("fault.injected.broker_publish").value(), 1u);

  // Assigning over an attached plan keeps what it counted.
  FaultPlan target(3);
  target.set_metrics(&registry);
  target.should_fail(FaultSite::kBrokerPublish);
  target = copy;
  target.should_fail(FaultSite::kBrokerPublish);
  EXPECT_EQ(registry.counter("fault.checked.broker_publish").value(), 2u);
}

TEST(FaultPoint, DisarmedIsNoOp) {
  FaultPoint point;
  EXPECT_FALSE(point.armed());
  EXPECT_FALSE(point.should_fail());
  EXPECT_FALSE(point.should_fail(minutes(5)));
}

TEST(FaultPoint, ArmedConsultsPlan) {
  FaultPlan plan(1);
  plan.fail_next(FaultSite::kBrokerConsume, 1);
  FaultPoint point(&plan, FaultSite::kBrokerConsume);
  EXPECT_TRUE(point.armed());
  EXPECT_TRUE(point.should_fail());
  EXPECT_FALSE(point.should_fail());
}

TEST(Backoff, DoublesAndCaps) {
  Rng rng(1);
  // No jitter: exact doubling until the cap.
  EXPECT_EQ(backoff_delay(1, seconds(30), minutes(16), 0.0, rng), seconds(30));
  EXPECT_EQ(backoff_delay(2, seconds(30), minutes(16), 0.0, rng), minutes(1));
  EXPECT_EQ(backoff_delay(3, seconds(30), minutes(16), 0.0, rng), minutes(2));
  EXPECT_EQ(backoff_delay(7, seconds(30), minutes(16), 0.0, rng), minutes(16));
  EXPECT_EQ(backoff_delay(50, seconds(30), minutes(16), 0.0, rng),
            minutes(16));
}

TEST(Backoff, JitterStaysBounded) {
  Rng rng(3);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    DurationMs d = backoff_delay(attempt, seconds(10), minutes(30), 0.2, rng);
    DurationMs nominal =
        std::min(seconds(10) * (DurationMs(1) << (attempt - 1)), minutes(30));
    EXPECT_GE(d, static_cast<DurationMs>(0.79 * nominal));
    EXPECT_LE(d, static_cast<DurationMs>(1.21 * nominal));
  }
}

TEST(Backoff, NeverBelowOneMs) {
  Rng rng(4);
  EXPECT_GE(backoff_delay(1, 0, 0, 0.5, rng), 1);
}

TEST(TransientErrorTest, CarriesSite) {
  TransientError e(FaultSite::kDocstoreUpdate, "boom");
  EXPECT_EQ(e.site(), FaultSite::kDocstoreUpdate);
  EXPECT_STREQ(e.what(), "boom");
}

TEST(FaultSiteNames, AllDistinct) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i)
    for (std::size_t j = i + 1; j < kFaultSiteCount; ++j)
      EXPECT_STRNE(fault_site_name(static_cast<FaultSite>(i)),
                   fault_site_name(static_cast<FaultSite>(j)));
}

}  // namespace
}  // namespace mps::fault
