// The partitioned (conservative parallel) world engine's contract:
//
//   1. WORKER-THREAD COUNT IS UNOBSERVABLE.  The partition plan is a pure
//      function of the topology, cross-partition mail merges in a fixed
//      (deliver_time, global_seq, dst_node) order, and every shared metrics
//      instrument is laned -- so a dq.report.v1 document rendered at
//      --world-threads 8 must be byte-identical to one from --world-threads
//      1 (same partitioned schedule, different concurrency).
//   2. THE SCHEDULE IS REPRODUCIBLE.  A golden report generated at
//      --world-threads 4 is checked in; every run at any thread count must
//      keep matching it byte for byte.
//
//   3. FAULTS AND CRASHES ARE BARRIER EVENTS.  Injector transitions run on
//      the coordinating thread between rounds, so a crash-injected report
//      is just as thread-count-independent, and a golden pins it.
//
// A multi-partition schedule legitimately differs from the one-partition
// schedule (different rng stream assignment, different cross-partition
// interleaving), so there is no cross-partition-count equality test, only
// cross-thread-count.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_params.h"
#include "sim/parallel_world.h"
#include "sim/world.h"
#include "workload/experiment.h"
#include "workload/report.h"

namespace dq::sim {
namespace {

using workload::ExperimentParams;

// The golden cell: DQVL over a 12-server deployment with jitter, loss, and
// writes, so the run exercises retries, reordering, drops, and lease renewal
// across every partition boundary.  These parameters must not change --
// tests/golden/report_dqvl_world4_seed7.json was generated from them (at
// --world-threads 4).
ExperimentParams world_golden_params() {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 12;
  p.topo.num_clients = 6;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 80;
  p.loss = 0.02;
  p.seed = 7;
  p.world_threads = 1;  // overridden per test
  return p;
}

std::string report_at(ExperimentParams p, std::size_t world_threads) {
  p.world_threads = world_threads;
  const auto result = workload::run_experiment(p);
  return workload::report::to_json(p, result);
}

TEST(ParallelWorld, ReportsByteIdenticalAcrossWorldThreadCounts) {
  const ExperimentParams p = world_golden_params();
  const std::string at1 = report_at(p, 1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(at1, report_at(p, threads))
        << "dq.report.v1 diverges at --world-threads " << threads;
  }
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(DQ_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ParallelWorld, ReportMatchesCheckedInGolden) {
  // The generator wrote the document with a trailing newline.
  EXPECT_EQ(report_at(world_golden_params(), 4) + "\n",
            read_golden("report_dqvl_world4_seed7.json"))
      << "partitioned-engine report no longer matches its checked-in golden";
}

TEST(ParallelWorld, CrashReportMatchesGoldenAtOneAndFourThreads) {
  // The crash-heavy DQVL cell on the topology-derived plan: crash/restart
  // transitions are barrier events applied between rounds.
  const ExperimentParams p = golden::crash_golden_params("dqvl", 13);
  const std::string golden =
      read_golden("report_dqvl_crash_world4_seed13.json");
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(report_at(p, threads) + "\n", golden)
        << "crash-injected report diverges at --world-threads " << threads;
  }
}

TEST(ParallelWorld, MajorityProtocolIdenticalAcrossThreadCounts) {
  ExperimentParams p = world_golden_params();
  p.protocol = "majority";
  p.seed = 11;
  EXPECT_EQ(report_at(p, 1), report_at(p, 4));
}

// --- engine-level tests on a bare World --------------------------------------

class Echo final : public Actor {
 public:
  void on_message(const Envelope& env) override {
    log.push_back(env.src.value());
    if (!env.is_reply) world().reply(id(), env, msg::DqRead{ObjectId(0)});
  }
  std::vector<std::uint32_t> log;
};

TEST(ParallelWorld, CrossPartitionDeliveryOrderIsDeterministic) {
  Topology::Params tp;
  tp.num_servers = 8;
  tp.num_clients = 0;
  tp.jitter = 0.2;  // jittered delays exercise the merge's time ordering
  auto run_once = [&](std::size_t threads) {
    World::Parallelism par{8, threads};
    World w(Topology(tp), 99, par);
    std::vector<Echo> actors(8);
    for (std::uint32_t i = 0; i < 8; ++i) w.attach(NodeId(i), actors[i]);
    // Every server pings every other server: 56 cross-partition requests
    // (plan is one partition per server) plus 56 replies.
    for (std::uint32_t s = 0; s < 8; ++s) {
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        w.set_timer(NodeId(s), milliseconds(s + 1), [&w, s, d] {
          w.send(NodeId(s), NodeId(d), w.fresh_rpc_id(),
                 msg::DqRead{ObjectId(s * 8 + d)});
        });
      }
    }
    w.run_all();
    std::vector<std::uint32_t> all;
    for (const Echo& a : actors) {
      all.insert(all.end(), a.log.begin(), a.log.end());
    }
    return all;
  };
  const auto at1 = run_once(1);
  EXPECT_EQ(at1.size(), 112u);  // 56 requests + 56 replies, none lost
  EXPECT_EQ(at1, run_once(4));
  EXPECT_EQ(at1, run_once(8));
}

TEST(ParallelWorld, RunUntilAdvancesEveryPartitionClock) {
  Topology::Params tp;
  tp.num_servers = 4;
  tp.num_clients = 0;
  World w(Topology(tp), 1, World::Parallelism{4, 2});
  std::vector<Echo> actors(4);
  for (std::uint32_t i = 0; i < 4; ++i) w.attach(NodeId(i), actors[i]);
  w.run_until(seconds(5));
  EXPECT_EQ(w.now(), seconds(5));  // idle partitions still reach the deadline
  w.send(NodeId(0), NodeId(3), RequestId(1), msg::DqRead{ObjectId(1)});
  w.run_for(seconds(1));
  ASSERT_EQ(actors[3].log.size(), 1u);
}

// Records when each message arrives.
class Clocked final : public Actor {
 public:
  void on_message(const Envelope&) override { log.push_back(world().now()); }
  std::vector<Time> log;
};

TEST(ParallelWorld, BarrierEventsRunBeforePartitionEventsAtEqualTimes) {
  Topology::Params tp;
  tp.num_servers = 4;
  tp.num_clients = 0;
  for (const std::size_t partitions : {1u, 4u}) {
    World w(Topology(tp), 3, World::Parallelism{partitions, 2});
    std::vector<Clocked> actors(4);
    for (std::uint32_t i = 0; i < 4; ++i) w.attach(NodeId(i), actors[i]);
    std::vector<std::string> order;
    w.set_timer(NodeId(2), milliseconds(50), [&] { order.push_back("timer"); });
    w.schedule_global(milliseconds(50), [&] {
      order.push_back("barrier");
      // A barrier event may act for any node.  Every partition clock stands
      // at its time, so each send below lands exactly one link later.
      for (std::uint32_t i = 0; i < 4; ++i) {
        w.send(NodeId(i), NodeId((i + 1) % 4), RequestId(i + 1),
               msg::DqRead{ObjectId(i)});
      }
    });
    w.run_until(milliseconds(200));
    EXPECT_EQ(order, (std::vector<std::string>{"barrier", "timer"}))
        << "partitions=" << partitions;
    for (const Clocked& a : actors) {
      EXPECT_EQ(a.log, std::vector<Time>{milliseconds(90)})
          << "partitions=" << partitions;
    }
    EXPECT_EQ(w.now(), milliseconds(200));
  }
}

TEST(ParallelWorld, BarrierEventsSurviveCrashesAndStopAtTheDeadline) {
  Topology::Params tp;
  tp.num_servers = 3;
  tp.num_clients = 0;
  World w(Topology(tp), 3, World::Parallelism{3, 1});
  std::vector<Clocked> actors(3);
  for (std::uint32_t i = 0; i < 3; ++i) w.attach(NodeId(i), actors[i]);
  w.schedule_global(seconds(1), [&] { w.crash(NodeId(1)); });
  // Unlike a node timer, a barrier event is not poisoned by the crash.
  w.schedule_global(seconds(2), [&] { w.restart(NodeId(1)); });
  EXPECT_EQ(w.run_until(seconds(1) - 1), 0u);
  EXPECT_FALSE(w.is_crashed(NodeId(1)));
  EXPECT_EQ(w.run_until(seconds(1)), 1u);  // a barrier at the deadline runs
  EXPECT_TRUE(w.is_crashed(NodeId(1)));
  w.run_all();
  EXPECT_FALSE(w.is_crashed(NodeId(1)));
  EXPECT_EQ(w.executed_events(), 2u);
}

TEST(ParallelWorld, PartitionCountNeverFollowsThreadCount) {
  Topology::Params tp;
  tp.num_servers = 6;
  tp.num_clients = 3;
  for (const std::size_t threads : {1u, 2u, 16u}) {
    World w(Topology(tp), 5,
            World::Parallelism{par::default_partition_count(Topology(tp)),
                               threads});
    EXPECT_EQ(w.partition_plan().count, 6u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dq::sim
