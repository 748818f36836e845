// Observability layer tests (docs/OBSERVABILITY.md):
//  - Timer percentiles stay within the histogram's documented error bound;
//  - metrics snapshots are byte-identical across two same-seed runs;
//  - a single update wrapped in a Trace produces one span tree covering the
//    service, backend, spanner, rtcache AND frontend layers, including the
//    asynchronous notification leg resumed across the Changelog hop;
//  - retry.attempts mirrors injected fault fires exactly, and give-ups are
//    counted on budget exhaustion;
//  - FirestoreService::DebugDump() exposes both metrics and fault points.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "backend/types.h"
#include "common/clock.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "firestore/model/document.h"
#include "firestore/query/query.h"
#include "service/service.h"
#include "tests/test_support.h"

namespace firestore {
namespace {

using backend::Mutation;
using model::Value;
using ::firestore::testing::CounterValue;
using ::firestore::testing::Path;

constexpr char kDb[] = "projects/p/databases/obs";

TEST(MetricsTest, CounterGaugeAndLabels) {
  MetricRegistry::Global().ResetForTest();
  Counter& c = FS_METRIC_COUNTER("obs.test.counter");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5);
  // The macro returns the same registry entry at every evaluation.
  EXPECT_EQ(&FS_METRIC_COUNTER("obs.test.counter"), &c);

  FS_METRIC_GAUGE("obs.test.gauge").Set(7);
  FS_METRIC_GAUGE("obs.test.gauge").Add(-2);
  EXPECT_EQ(MetricRegistry::Global().GetGauge("obs.test.gauge").value(), 5);

  FS_METRIC_COUNTER_FOR("obs.test.labeled", "a").Increment();
  FS_METRIC_COUNTER_FOR("obs.test.labeled", "b").Increment(2);
  EXPECT_EQ(MetricRegistry::Global().GetCounter("obs.test.labeled", "a")
                .value(),
            1);
  EXPECT_EQ(MetricRegistry::Global().GetCounter("obs.test.labeled", "b")
                .value(),
            2);
}

TEST(MetricsTest, TimerPercentilesWithinHistogramErrorBound) {
  MetricRegistry::Global().ResetForTest();
  Timer& t = FS_METRIC_TIMER("obs.test.timer");
  for (int i = 1; i <= 1000; ++i) t.Record(i);
  EXPECT_EQ(t.count(), 1000);
  EXPECT_EQ(t.min(), 1);
  EXPECT_EQ(t.max(), 1000);
  // Logarithmic bucketing guarantees <2% relative error on percentiles.
  EXPECT_NEAR(t.Quantile(0.5), 500, 500 * 0.02 + 1);
  EXPECT_NEAR(t.Quantile(0.95), 950, 950 * 0.02 + 1);
  EXPECT_NEAR(t.Quantile(0.99), 990, 990 * 0.02 + 1);
  EXPECT_NEAR(t.Mean(), 500.5, 500.5 * 0.02 + 1);
}

TEST(MetricsTest, ScopedTimerUsesInjectedClock) {
  MetricRegistry::Global().ResetForTest();
  ManualClock clock(1000);
  Timer& t = FS_METRIC_TIMER("obs.test.scoped_timer");
  {
    ScopedTimer timer(t, &clock);
    clock.AdvanceBy(250);
  }
  EXPECT_EQ(t.count(), 1);
  EXPECT_EQ(t.max(), 250);
}

// One seeded pass over the service API; returns the full snapshot text.
std::string RunSeededWorkload() {
  MetricRegistry::Global().ResetForTest();
  ManualClock clock(1'000'000);
  service::FirestoreService service(&clock);
  FS_CHECK_OK(service.CreateDatabase(kDb));
  for (int i = 0; i < 8; ++i) {
    FS_CHECK(service
                 .Commit(kDb, {Mutation::Set(
                                  Path("/docs/d" + std::to_string(i)),
                                  {{"v", Value::Integer(i)}})})
                 .ok());
    clock.AdvanceBy(1000);
  }
  FS_CHECK(service.Get(kDb, Path("/docs/d3")).ok());
  query::Query q(model::ResourcePath(), "docs");
  FS_CHECK(service.RunQuery(kDb, q).ok());
  service.Pump();
  return MetricRegistry::Global().Snapshot().ToText();
}

TEST(MetricsTest, SnapshotIsDeterministicAcrossSameSeedRuns) {
  std::string first = RunSeededWorkload();
  std::string second = RunSeededWorkload();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("counter service.commits 8"), std::string::npos)
      << first;
}

TEST(MetricsTest, SnapshotRendersAllKindsSorted) {
  MetricRegistry::Global().ResetForTest();
  FS_METRIC_COUNTER_FOR("obs.test.labeled", "z").Increment();
  MetricsSnapshot snap = MetricRegistry::Global().Snapshot();
  ASSERT_FALSE(snap.samples.empty());
  for (size_t i = 1; i < snap.samples.size(); ++i) {
    const MetricSample& a = snap.samples[i - 1];
    const MetricSample& b = snap.samples[i];
    EXPECT_LE(std::tie(a.name, a.label), std::tie(b.name, b.label));
  }
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"obs.test.labeled\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"z\""), std::string::npos);
}

// The acceptance-criterion test: one YCSB-style update traced end to end.
// The trace must cover >= 4 modules and include the async notification leg
// (rtcache release -> match -> frontend delivery) with correct parenting.
TEST(TraceTest, SingleUpdateTraceCoversCommitAndNotificationPipeline) {
  ManualClock clock(1'000'000);
  service::FirestoreService service(&clock);
  FS_CHECK_OK(service.CreateDatabase(kDb));

  query::Query q(model::ResourcePath(), "games");
  auto conn = service.frontend().OpenPrivilegedConnection(kDb);
  int snapshots = 0;
  ASSERT_TRUE(service.frontend()
                  .Listen(conn, q,
                          [&snapshots](const frontend::QuerySnapshot&) {
                            ++snapshots;
                          })
                  .ok());
  EXPECT_EQ(snapshots, 1);  // initial snapshot
  clock.AdvanceBy(1'000'000);

  Trace trace(&clock, "ycsb.update");
  {
    TraceScope scope(trace);
    ASSERT_TRUE(service
                    .Commit(kDb, {Mutation::Set(Path("/games/final"),
                                                {{"v", Value::Integer(1)}})})
                    .ok());
  }
  // The committing scope is gone; the notification leg is delivered later
  // from the pump, resumed via the context stored on the DocumentChange.
  service.Pump();
  service.Pump();
  trace.Finish();
  ASSERT_EQ(snapshots, 2) << "listener should see the update";

  std::map<std::string, TraceSpan> by_name;
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_NE(span.end, 0) << span.name << " left open";
    by_name[span.name] = span;
  }
  for (const char* name :
       {"ycsb.update", "service.commit", "backend.commit",
        "backend.commit.read_set", "backend.commit.prepare",
        "backend.commit.spanner", "backend.commit.accept", "spanner.commit",
        "rtcache.release", "rtcache.match", "frontend.deliver"}) {
    EXPECT_TRUE(by_name.count(name) != 0u) << name << " missing:\n"
                                           << trace.Dump();
  }

  // >= 4 modules, counted by span-name prefix.
  std::set<std::string> modules;
  for (const auto& [name, span] : by_name) {
    modules.insert(name.substr(0, name.find('.')));
  }
  EXPECT_GE(modules.size(), 5u) << trace.Dump();

  // Parenting: the synchronous commit chain...
  EXPECT_EQ(by_name["service.commit"].parent_id, by_name["ycsb.update"].id);
  EXPECT_EQ(by_name["backend.commit"].parent_id,
            by_name["service.commit"].id);
  EXPECT_EQ(by_name["spanner.commit"].parent_id,
            by_name["backend.commit.spanner"].id);
  // ...and the async legs re-parent at the span that captured the context
  // (step 4 of the commit runs inside backend.commit).
  EXPECT_EQ(by_name["rtcache.release"].parent_id,
            by_name["backend.commit"].id);
  EXPECT_EQ(by_name["rtcache.match"].parent_id,
            by_name["rtcache.release"].id);
  EXPECT_EQ(by_name["frontend.deliver"].parent_id,
            by_name["backend.commit"].id);

  std::string dump = trace.Dump();
  EXPECT_NE(dump.find("trace \"ycsb.update\""), std::string::npos);
  EXPECT_NE(dump.find("frontend.deliver"), std::string::npos);
}

TEST(TraceTest, SpansNoOpWithoutAmbientTrace) {
  ManualClock clock;
  // No TraceScope installed: FS_SPAN must be inert (and cheap).
  { FS_SPAN("obs.test.untraced"); }
  Trace trace(&clock, "outer");
  {
    TraceScope scope(trace);
    FS_SPAN("obs.test.traced");
  }
  trace.Finish();
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].name, "obs.test.traced");
}

// Chaos cross-check: every injected retryable failure is one counted retry
// attempt — the metric mirrors the fault registry exactly.
TEST(RetryMetricsTest, AttemptsMatchInjectedFaultFires) {
  ManualClock clock(1'000'000);
  service::FirestoreService service(&clock);
  FS_CHECK_OK(service.CreateDatabase(kDb));

  const int64_t attempts0 =
      CounterValue("retry.attempts", "backend.run_transaction");
  const int64_t give_ups0 =
      CounterValue("retry.give_ups", "backend.run_transaction");
  const int64_t fires0 = CounterValue("fault.fires", "committer.commit");
  {
    FaultConfig config;
    config.action = FaultAction::Fail(AbortedError("injected"));
    config.max_fires = 2;
    ScopedFault fault("committer.commit", config);
    auto result = service.RunTransaction(
        kDb, [](spanner::ReadWriteTransaction&)
                 -> StatusOr<std::vector<Mutation>> {
          return std::vector<Mutation>{Mutation::Set(
              Path("/retry/doc"), {{"v", Value::Integer(1)}})};
        });
    ASSERT_TRUE(result.ok()) << result.status().message();
  }
  EXPECT_EQ(CounterValue("fault.fires", "committer.commit") - fires0, 2);
  EXPECT_EQ(
      CounterValue("retry.attempts", "backend.run_transaction") - attempts0,
      2);
  EXPECT_EQ(
      CounterValue("retry.give_ups", "backend.run_transaction") - give_ups0,
      0);

  // Unbounded failure: the retry budget runs out and one give-up lands.
  const int64_t give_ups1 =
      CounterValue("retry.give_ups", "backend.run_transaction");
  {
    FaultConfig config;
    config.action = FaultAction::Fail(AbortedError("injected, always"));
    ScopedFault fault("committer.commit", config);
    auto result = service.RunTransaction(
        kDb, [](spanner::ReadWriteTransaction&)
                 -> StatusOr<std::vector<Mutation>> {
          return std::vector<Mutation>{Mutation::Set(
              Path("/retry/doc"), {{"v", Value::Integer(2)}})};
        });
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(
      CounterValue("retry.give_ups", "backend.run_transaction") - give_ups1,
      1);
}

TEST(DebugDumpTest, ExposesMetricsAndFaultPoints) {
  ManualClock clock(1'000'000);
  service::FirestoreService service(&clock);
  FS_CHECK_OK(service.CreateDatabase(kDb));
  FS_CHECK(service
               .Commit(kDb, {Mutation::Set(Path("/dump/doc"),
                                           {{"v", Value::Integer(1)}})})
               .ok());
  // Arm (probability 0, never fires) so the point is known to the registry.
  FaultConfig config;
  config.probability = 0.0;
  ScopedFault fault("committer.commit", config);
  std::string dump = service.DebugDump();
  EXPECT_NE(dump.find("== metrics =="), std::string::npos);
  EXPECT_NE(dump.find("service.commits"), std::string::npos);
  EXPECT_NE(dump.find("== fault points =="), std::string::npos);
  EXPECT_NE(dump.find("committer.commit"), std::string::npos) << dump;
}

}  // namespace
}  // namespace firestore
