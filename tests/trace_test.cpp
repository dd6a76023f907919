// Tracing subsystem tests: the tracer itself, the world's network/fault
// events, and the protocol decision points that tests and examples rely on.
// Decisions are asserted as TraceKind counts; the rendered text of three
// scripted scenarios is held byte for byte to tests/golden/trace_*.txt.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "golden_params.h"
#include "protocols/dq_adapter.h"
#include "workload/experiment.h"

namespace dq::workload {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(DQ_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string dump_all(sim::World& w) {
  std::ostringstream os;
  w.tracer().dump(os);
  return os.str();
}

using sim::TraceKind;

TEST(Tracer, DisabledByDefaultAndFree) {
  sim::Tracer t;
  EXPECT_FALSE(t.enabled());
  t.emit({0, NodeId(1), TraceKind::kReadHit, {}, 5, 0});
  EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, RecordsFiltersCountsAndDumps) {
  sim::Tracer t;
  t.enable();
  t.emit({sim::milliseconds(1), NodeId(1), TraceKind::kReadHit, {}, 5, 0});
  t.emit({sim::milliseconds(2), NodeId(2), TraceKind::kWriteThrough, {}, 5,
          0});
  t.emit({sim::milliseconds(3), NodeId(1), TraceKind::kReadMiss, {}, 6, 0});
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.count("read"), 2u);
  EXPECT_EQ(t.count("write"), 1u);
  EXPECT_EQ(t.count(TraceKind::kReadMiss), 1u);
  EXPECT_EQ(t.filter("read").size(), 2u);
  EXPECT_EQ(t.filter("").size(), 3u);
  EXPECT_EQ(t.filter("write").front().node, NodeId(2));

  std::ostringstream os;
  t.dump(os, "read", 1);  // only the most recent read event
  EXPECT_EQ(os.str(), "[         3 ms] n1 read: miss obj 6\n");

  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, WorldRecordsNetworkAndFaultEvents) {
  sim::Topology::Params tp;
  tp.num_servers = 2;
  tp.num_clients = 0;
  sim::World w{sim::Topology(tp), 1};
  w.tracer().enable();

  struct Sink final : sim::Actor {
    void on_message(const sim::Envelope&) override {}
  } a, b;
  w.attach(NodeId(0), a);
  w.attach(NodeId(1), b);

  w.send(NodeId(0), NodeId(1), RequestId(1), msg::DqRead{ObjectId(1)});
  w.crash(NodeId(1));
  w.restart(NodeId(1));
  EXPECT_EQ(w.tracer().count("net"), 1u);
  EXPECT_EQ(w.tracer().count("fault"), 2u);
  const sim::TraceEvent& sent = w.tracer().events()[0];
  EXPECT_EQ(sent.kind, TraceKind::kNetSend);
  EXPECT_EQ(sent.peer, NodeId(1));
  std::ostringstream os;
  w.tracer().dump(os, "net");
  EXPECT_EQ(os.str(), "[         0 ms] n0 net: send DqRead -> n1\n");
}

// Protocol decision points: drive one miss/hit/write cycle and assert the
// recorded decisions directly.
TEST(Trace, DqvlDecisionsAreRecorded) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  w.tracer().enable();

  auto client = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(0), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(0).add_handler(
      [client](const sim::Envelope& e) { return client->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  bool done = false;
  writer->write(ObjectId(7), "v1", [&](bool, LogicalClock) { done = true; });
  spin(done);
  // Cold write: suppressed on every IQS node that processed it.
  EXPECT_GT(w.tracer().count(TraceKind::kWriteSuppress), 0u);
  EXPECT_EQ(w.tracer().count(TraceKind::kWriteThrough), 0u);

  done = false;
  client->read(ObjectId(7), [&](bool, VersionedValue) { done = true; });
  spin(done);
  done = false;
  client->read(ObjectId(7), [&](bool, VersionedValue) { done = true; });
  spin(done);
  const auto reads = w.tracer().filter("read");
  ASSERT_GE(reads.size(), 2u);
  EXPECT_EQ(reads.front().kind, TraceKind::kReadMiss);
  EXPECT_EQ(reads.back().kind, TraceKind::kReadHit);
  EXPECT_EQ(reads.back().a, 7u);

  // A write after the read goes through somewhere.
  done = false;
  writer->write(ObjectId(7), "v2", [&](bool, LogicalClock) { done = true; });
  spin(done);
  EXPECT_GT(w.tracer().count(TraceKind::kWriteThrough), 0u);

  // Lease grants were recorded for the renewals.
  EXPECT_GT(w.tracer().count(TraceKind::kLeaseGrant), 0u);

  EXPECT_EQ(dump_all(w), read_golden("trace_dqvl_decisions.txt"));
}

// An IQS node with a group-commit WAL crashes while holding leases and
// restarts: the fault, the recovery, and the per-lease epoch bumps it does
// on replay are all recorded, and the whole run renders byte for byte.
TEST(Trace, CrashRecoveryEventsMatchGolden) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(1);
  p.requests_per_client = 0;
  p.wal = store::WalParams{};
  Deployment dep(p);
  auto& w = dep.world();
  w.tracer().enable();

  auto reader = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(2), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(2).add_handler(
      [reader](const sim::Envelope& e) { return reader->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  auto write_then_read = [&](std::uint64_t k, const char* v) {
    bool d1 = false, d2 = false;
    writer->write(ObjectId(k), v, [&](bool, LogicalClock) { d1 = true; });
    spin(d1);
    reader->read(ObjectId(k), [&](bool, VersionedValue) { d2 = true; });
    spin(d2);
  };
  for (std::uint64_t k = 0; k < 2; ++k) write_then_read(k, "v1");
  const NodeId victim = w.topology().server(0);
  w.crash(victim);
  w.run_for(sim::milliseconds(200));
  w.restart(victim);
  for (std::uint64_t k = 0; k < 2; ++k) write_then_read(k, "v2");

  EXPECT_EQ(w.tracer().count(TraceKind::kFaultCrash), 1u);
  EXPECT_EQ(w.tracer().count(TraceKind::kFaultRestart), 1u);
  EXPECT_EQ(w.tracer().count(TraceKind::kRecovery), 1u);
  EXPECT_GT(w.tracer().count(TraceKind::kEpochBump), 0u);
  EXPECT_EQ(dump_all(w), read_golden("trace_dqvl_crash_recovery.txt"));
}

// The partition plan fixes the folded trace order; the thread count must
// not: a crash-injected WAL run traces identically at 1 and 4 threads.
TEST(Trace, FoldedTraceIsIndependentOfWorldThreads) {
  auto trace_at = [](std::size_t threads) {
    ExperimentParams p = golden::crash_golden_params("dqvl", 13);
    p.requests_per_client = 40;
    p.world_threads = threads;
    Deployment dep(p);
    EXPECT_GT(dep.world().partition_plan().count, 1u);
    dep.world().tracer().enable();
    (void)dep.run();
    EXPECT_GT(dep.world().tracer().count(TraceKind::kFaultCrash), 0u);
    EXPECT_GT(dep.world().tracer().count(TraceKind::kRecovery), 0u);
    return dump_all(dep.world());
  };
  const std::string at1 = trace_at(1);
  EXPECT_EQ(at1, trace_at(4));
}

TEST(Trace, DelayedInvalAndEpochEventsAreRecorded) {
  ExperimentParams p;
  p.protocol = "dqvl";
  p.lease_length = sim::seconds(1);
  p.max_delayed_per_volume = 2;
  p.iqs = workload::QuorumSpec::majority(1);  // single IQS node sees every write: deterministic GC
  p.requests_per_client = 0;
  Deployment dep(p);
  auto& w = dep.world();
  w.tracer().enable();

  // The singleton IQS lives on server 0; keep the reader elsewhere so we
  // can partition it without taking the IQS down.
  auto reader = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(2), dep.dq_config());
  auto writer = std::make_shared<protocols::DqServiceClient>(
      w, w.topology().server(1), dep.dq_config());
  dep.server_node(2).add_handler(
      [reader](const sim::Envelope& e) { return reader->on_message(e); });
  dep.server_node(1).add_handler(
      [writer](const sim::Envelope& e) { return writer->on_message(e); });

  auto spin = [&](bool& f) {
    while (!f) w.run_for(sim::milliseconds(10));
  };
  for (std::uint64_t k = 0; k < 4; ++k) {
    bool d1 = false, d2 = false;
    writer->write(ObjectId(k), "v1", [&](bool, LogicalClock) { d1 = true; });
    spin(d1);
    reader->read(ObjectId(k), [&](bool, VersionedValue) { d2 = true; });
    spin(d2);
  }
  w.set_up(w.topology().server(2), false);
  for (std::uint64_t k = 0; k < 4; ++k) {
    bool d = false;
    writer->write(ObjectId(k), "v2", [&](bool, LogicalClock) { d = true; });
    spin(d);
  }
  EXPECT_GT(w.tracer().count(TraceKind::kDelayedInval), 0u);
  EXPECT_GT(w.tracer().count(TraceKind::kEpochBump), 0u);
  EXPECT_EQ(dump_all(w), read_golden("trace_dqvl_delayed_inval.txt"));
}

}  // namespace
}  // namespace dq::workload
