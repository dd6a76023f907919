// The obs metrics layer: registry semantics, histogram quantile accuracy,
// snapshot merging, report rendering, QuorumSpec parsing, and the key
// property the whole design hangs on -- recording metrics perturbs nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "workload/experiment.h"
#include "workload/quorum_spec.h"
#include "workload/report.h"

namespace dq::workload {
namespace {

// --------------------------------------------------------------------------
// Registry semantics
// --------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("a");
  c1.inc(3);
  // Registering more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  obs::Counter& c2 = reg.counter("a");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(MetricsRegistry, GaugeTracksValueAndHighWaterMark) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("depth");
  g.add(+5);
  g.add(+2);
  g.add(-6);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max(), 7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(g.max(), 7);
}

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

// The documented bound: a reported quantile is the midpoint of a bucket no
// wider than 2^-kSubBits of its lower edge, so it is off by at most half
// of that.
constexpr double kRelErr = 1.0 / (2 << obs::HistogramData::kSubBits);

TEST(Histogram, ObserveTracksCountSumExtrema) {
  obs::Histogram h;
  h.observe(1.0);
  h.observe(4.0);
  h.observe(0.0);
  const auto d = h.merged();
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 5.0);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.max, 4.0);
  EXPECT_NEAR(d.mean(), 5.0 / 3.0, 1e-12);
}

TEST(Histogram, QuantilesAreExactAtExtremesAndBucketAccurateBetween) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);   // bucket of 1 ms
  for (int i = 0; i < 100; ++i) h.observe(64.0);  // much larger bucket
  const auto d = h.merged();
  EXPECT_DOUBLE_EQ(d.quantile(0.0), d.min);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), d.max);
  // p25 lives in the 1 ms bucket, p75 in the 64 ms one; each estimate is
  // within the bucket error of the true value and never outside [min, max].
  EXPECT_NEAR(d.quantile(0.25), 1.0, 1.0 * kRelErr);
  EXPECT_NEAR(d.quantile(0.75), 64.0, 64.0 * kRelErr);
  EXPECT_LE(d.quantile(0.75), 64.0);
}

TEST(Histogram, EmptyIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(h.merged().quantile(q), 0.0);
  }
}

// Zero-duration samples (fresh reads' staleness age, the suppressed-write
// fast path) must report exactly 0, alone or mixed with nonzero values.
TEST(Histogram, ZeroSamplesReportExactlyZero) {
  obs::Histogram zeros;
  for (int i = 0; i < 50; ++i) zeros.observe(0.0);
  EXPECT_EQ(zeros.p50(), 0.0);
  EXPECT_EQ(zeros.p95(), 0.0);
  EXPECT_EQ(zeros.p99(), 0.0);

  obs::Histogram mixed;
  for (int i = 0; i < 60; ++i) mixed.observe(0.0);
  for (int i = 0; i < 40; ++i) mixed.observe(90.7);
  EXPECT_EQ(mixed.merged().quantile(0.01), 0.0);
  EXPECT_EQ(mixed.p50(), 0.0);
  EXPECT_NEAR(mixed.p95(), 90.7, 90.7 * kRelErr);
  EXPECT_NEAR(mixed.p99(), 90.7, 90.7 * kRelErr);
}

// Against exact nearest-rank quantiles of the same samples (the
// ceil(q*n)-th smallest), on uniform, log-uniform and Pareto-tailed data.
TEST(Histogram, QuantilesMatchExactNearestRankWithinBound) {
  using Draw = std::function<double(std::mt19937_64&)>;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::pair<const char*, Draw> kDists[] = {
      {"uniform", [&](std::mt19937_64& g) { return 0.001 + unit(g) * 1000.0; }},
      // 1 us .. 10^6 ms.
      {"log-uniform",
       [&](std::mt19937_64& g) {
         return std::exp(std::log(1e-3) + unit(g) * std::log(1e9));
       }},
      // x_m = 1 ms, alpha = 1.1: a heavy tail with rare huge values.
      {"pareto",
       [&](std::mt19937_64& g) {
         return 1.0 / std::pow(1.0 - unit(g), 1.0 / 1.1);
       }},
  };
  const double kQs[] = {0.01, 0.05, 0.1, 0.25, 0.5,
                        0.75, 0.9,  0.95, 0.99, 0.999};
  std::mt19937_64 rng(2005);
  for (const auto& [name, draw] : kDists) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 1 + rng() % 5000;
      obs::Histogram h;
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = draw(rng);
        h.observe(x);
      }
      std::sort(xs.begin(), xs.end());
      const obs::HistogramData d = h.merged();
      EXPECT_EQ(d.quantile(0.0), xs.front()) << name;
      EXPECT_EQ(d.quantile(1.0), xs.back()) << name;
      for (const double q : kQs) {
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
        const double exact = xs[rank - 1];
        EXPECT_LE(std::abs(d.quantile(q) - exact), 0.005 * exact)
            << name << " n=" << n << " q=" << q;
      }
      // Memory follows the largest value, not the sample count: more
      // samples inside the observed range add no buckets.
      const std::size_t size = d.buckets.size();
      for (std::size_t i = 0; i < 4 * n; ++i) {
        h.observe(xs[i % n]);
      }
      EXPECT_EQ(h.merged().buckets.size(), size) << name;
    }
  }
}

// The partitioned engine gives each partition its own lane; folding the
// lanes must give exactly the histogram one lane would have built.
TEST(Histogram, LaneFoldEqualsOneLane) {
  obs::Histogram one;
  obs::Histogram four(4);
  std::mt19937_64 rng(17);
  std::exponential_distribution<double> exp_ms(1.0 / 40.0);
  for (int i = 0; i < 3000; ++i) {
    const double x = exp_ms(rng);
    obs::set_current_lane(static_cast<std::uint32_t>(rng() % 4));
    four.observe(x);
    one.observe(x);
  }
  obs::set_current_lane(0);
  const obs::HistogramData a = one.merged();
  const obs::HistogramData b = four.merged();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * a.sum);
  EXPECT_EQ(a.buckets, b.buckets);

  // Same for snapshots of independent registries.
  obs::MetricsRegistry ra, rb, both;
  for (int i = 0; i < 2000; ++i) {
    const double x = exp_ms(rng);
    (i % 3 == 0 ? ra : rb).histogram("h").observe(x);
    both.histogram("h").observe(x);
  }
  obs::MetricsSnapshot s = ra.snapshot();
  s.merge(rb.snapshot());
  const obs::HistogramData& m = s.histograms.at("h");
  const obs::MetricsSnapshot whole = both.snapshot();
  const obs::HistogramData& w = whole.histograms.at("h");
  EXPECT_EQ(m.count, w.count);
  EXPECT_EQ(m.min, w.min);
  EXPECT_EQ(m.max, w.max);
  EXPECT_NEAR(m.sum, w.sum, 1e-9 * w.sum);
  EXPECT_EQ(m.buckets, w.buckets);
}

// --------------------------------------------------------------------------
// Snapshot merge
// --------------------------------------------------------------------------

TEST(MetricsSnapshot, MergeAddsCountersAndHistogramsMaxesGauges) {
  obs::MetricsRegistry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(5);
  b.counter("only_b").inc(1);
  a.gauge("g").add(3);
  b.gauge("g").add(9);
  a.histogram("h").observe(1.0);
  b.histogram("h").observe(3.0);

  obs::MetricsSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.counter("c"), 7u);
  EXPECT_EQ(s.counter("only_b"), 1u);
  EXPECT_EQ(s.counter("missing"), 0u);
  EXPECT_EQ(s.gauges.at("g").value, 9);
  EXPECT_EQ(s.gauges.at("g").max, 9);
  const obs::HistogramData* h = s.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 4.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
}

TEST(MetricsSnapshot, CountersWithPrefixStripsThePrefix) {
  obs::MetricsRegistry reg;
  reg.counter(obs::node_metric("iqs.load", 0)).inc(4);
  reg.counter(obs::node_metric("iqs.load", 3)).inc(9);
  reg.counter("iqs.writes").inc(1);
  const auto loads = reg.snapshot().counters_with_prefix("iqs.load.");
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads.at("n0"), 4u);
  EXPECT_EQ(loads.at("n3"), 9u);
}

// --------------------------------------------------------------------------
// QuorumSpec
// --------------------------------------------------------------------------

TEST(QuorumSpec, ParseRoundTripsDescribe) {
  for (const char* s : {"majority:5", "grid:3x3", "read-one:9"}) {
    const auto spec = QuorumSpec::parse(s);
    ASSERT_TRUE(spec.has_value()) << s;
    EXPECT_EQ(spec->describe(), s);
  }
  // Bare number = majority.
  const auto bare = QuorumSpec::parse("7");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->describe(), "majority:7");
  for (const char* bad : {"", "grid:9", "grid:3x", "majority:", "majority:0",
                          "ring:5", "3x3"}) {
    EXPECT_FALSE(QuorumSpec::parse(bad).has_value()) << bad;
  }
}

TEST(QuorumSpec, BuildProducesIntersectingSystems) {
  std::vector<NodeId> nine;
  for (std::uint32_t i = 0; i < 9; ++i) nine.emplace_back(i);
  for (const QuorumSpec& spec :
       {QuorumSpec::majority(9), QuorumSpec::grid(3, 3),
        QuorumSpec::read_one(9)}) {
    ASSERT_EQ(spec.size(), 9u);
    const auto sys = spec.build(nine);
    ASSERT_NE(sys, nullptr);
    const auto report = quorum::check_intersection(*sys);
    EXPECT_TRUE(report.read_write_ok) << spec.describe();
    EXPECT_TRUE(report.write_write_ok) << spec.describe();
  }
}

TEST(QuorumSpec, ParamsCarryTheSpecDirectly) {
  ExperimentParams p;
  EXPECT_EQ(p.iqs.describe(), "majority:5");  // the default spec
  p.iqs = QuorumSpec::majority(7);
  EXPECT_EQ(p.iqs.describe(), "majority:7");
  p.iqs = QuorumSpec::grid(3, 3);
  EXPECT_EQ(p.iqs.describe(), "grid:3x3");
}

// --------------------------------------------------------------------------
// End-to-end: experiments populate the snapshot; recording changes nothing
// --------------------------------------------------------------------------

ExperimentParams small_dqvl(std::uint64_t seed) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.write_ratio = 0.3;
  p.requests_per_client = 60;
  p.loss = 0.02;
  p.lease_length = sim::milliseconds(900);
  p.seed = seed;
  p.choose_object = [](Rng& rng) { return ObjectId(rng.below(3)); };
  return p;
}

TEST(MetricsEndToEnd, DqvlRunPopulatesCoreInstruments) {
  const auto r = run_experiment(small_dqvl(5));
  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_GT(m.counter("net.sent"), 0u);
  EXPECT_GT(m.counter("net.delivered"), 0u);
  EXPECT_GT(m.counter("qrpc.calls"), 0u);
  EXPECT_GT(m.counter("iqs.writes"), 0u);
  EXPECT_GT(m.counter("oqs.read.hits") + m.counter("oqs.read.misses"), 0u);
  EXPECT_FALSE(m.counters_with_prefix("iqs.load.").empty());
  // Every completed write is classified into exactly one phase.
  const auto* sup = m.histogram("dqvl.write.suppress_ms");
  const auto* inv = m.histogram("dqvl.write.invalidate_ms");
  const auto* lw = m.histogram("dqvl.write.lease_wait_ms");
  ASSERT_NE(sup, nullptr);
  ASSERT_NE(inv, nullptr);
  ASSERT_NE(lw, nullptr);
  EXPECT_GT(sup->count + inv->count + lw->count, 0u);
  // QRPC in-flight gauge must drain back to zero by the end of the run.
  EXPECT_EQ(m.gauges.at("qrpc.inflight").value, 0);
  EXPECT_GT(m.gauges.at("qrpc.inflight").max, 0);
}

TEST(MetricsEndToEnd, BaselineRunsPopulateProtocolCounters) {
  ExperimentParams p;
  p.requests_per_client = 40;
  p.write_ratio = 0.2;
  p.seed = 11;
  p.protocol = "majority";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.majority.writes"), 0u);
  p.protocol = "pb";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.pb.reads"), 0u);
  p.protocol = "rowa";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.rowa.reads"), 0u);
  p.protocol = "rowa-async";
  EXPECT_GT(run_experiment(p).metrics.counter("proto.rowa_async.writes"), 0u);
}

// The determinism assertion the whole layer is designed around: a run that
// snapshots / inspects metrics produces bit-for-bit the same schedule,
// timestamps, and message counts as one that never touches them.
TEST(MetricsEndToEnd, MetricsDoNotPerturbTheSimulation) {
  // Run A: plain run, ignore metrics entirely.
  const auto a = run_experiment(small_dqvl(77));

  // Run B: same seed, but aggressively exercise the metrics surface
  // mid-run (snapshots allocate, quantiles do float math -- none of it may
  // touch the event schedule).
  Deployment dep(small_dqvl(77));
  dep.start_clients();
  obs::MetricsSnapshot probe;
  while (!dep.clients_done()) {
    dep.world().run_for(sim::seconds(1));  // same stepping as run()
    probe = dep.world().metrics().snapshot();
    for (const auto& [name, h] : probe.histograms) {
      (void)h.quantile(0.5);
    }
  }
  const auto b = dep.collect();

  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.message_table, b.message_table);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history.ops()[i].invoked, b.history.ops()[i].invoked);
    EXPECT_EQ(a.history.ops()[i].completed, b.history.ops()[i].completed);
  }
  // And the metric streams themselves are reproducible.
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

// --------------------------------------------------------------------------
// Report rendering
// --------------------------------------------------------------------------

TEST(Report, JsonContainsTheSchemaSections) {
  const auto p = small_dqvl(3);
  const auto r = run_experiment(p);
  const std::string json = report::to_json(p, r);
  for (const char* needle :
       {"\"schema\":\"dq.report.v1\"", "\"protocol\":\"DQVL\"",
        "\"iqs\":\"majority:5\"", "\"latency_ms\"", "\"write_phases\"",
        "\"suppress\"", "\"invalidate\"", "\"lease_wait\"", "\"iqs_load\"",
        "\"metrics\"", "\"sim_duration_ms\"", "\"violations\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace dq::workload
