// Threaded smoke over the partitioned (conservative parallel) world engine:
// under the tsan preset every translation unit carries -fsanitize=thread, so
// any data race inside a single parallel World -- partition workers touching
// each other's queues, an unlaned metrics instrument, a mailbox read before
// the round barrier, a barrier event (crash/restart) applied while a round
// is still running -- aborts the ctest run.  In the default build it
// degrades to a fast --world-threads 1 vs 4 golden-comparison determinism
// check (the same property tests/parallel_world_test.cpp holds in-depth).
#include <cstdio>
#include <string>

#include "workload/experiment.h"
#include "workload/report.h"

namespace {

dq::workload::ExperimentParams smoke_params(const std::string& proto) {
  dq::workload::ExperimentParams p;
  p.protocol = proto;
  p.topo.num_servers = 12;
  p.topo.num_clients = 6;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 40;
  p.loss = 0.02;
  p.seed = 7;
  return p;
}

std::string render_at(dq::workload::ExperimentParams p,
                      std::size_t world_threads) {
  p.world_threads = world_threads;
  return dq::workload::report::to_json(p, dq::workload::run_experiment(p));
}

// Crash/restart injection: the transitions are barrier events, run on the
// coordinating thread between rounds, and the recovery hooks they trigger
// reach into every partition's queues.
dq::workload::ExperimentParams with_crashes(dq::workload::ExperimentParams p) {
  dq::store::WalParams w;
  w.policy = dq::store::SyncPolicy::kGroupCommit;
  p.wal = w;
  dq::sim::CrashInjector::Params c;
  c.mean_time_to_crash = dq::sim::seconds(3);
  c.mean_downtime = dq::sim::milliseconds(500);
  p.crashes = c;
  p.lease_length = dq::sim::seconds(1);
  return p;
}

// Open-loop generators emit into partition-local queues from worker
// threads, so they are exactly the code the tsan preset should watch: the
// batch timers, the shared (const) alias table, and the per-site metric
// lanes all run inside the worker pool.
dq::workload::ExperimentParams open_loop_smoke_params() {
  dq::workload::ExperimentParams p;
  p.protocol = "dqvl";
  p.topo.num_servers = 6;
  p.topo.num_clients = 3;
  p.topo.jitter = 0.1;
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.loss = 0.02;
  p.seed = 7;
  dq::workload::OpenLoopParams ol;
  ol.clients_per_site = 500;
  ol.client_rate_hz = 0.1;
  ol.objects = 512;
  ol.diurnal_amplitude = 0.4;
  ol.diurnal_period = dq::sim::seconds(1);
  ol.horizon = dq::sim::seconds(1);
  p.open_loop = ol;
  return p;
}

// Reports at --world-threads 1 and 4 must be byte-identical.
bool identical_at_1_and_4(const dq::workload::ExperimentParams& p,
                          const char* what) {
  if (render_at(p, 1) == render_at(p, 4)) return true;
  std::fprintf(stderr,
               "tsan_world_smoke: %s --world-threads 1 and 4 reports differ "
               "-- the partitioned engine's schedule leaked thread "
               "scheduling\n",
               what);
  return false;
}

}  // namespace

int main() {
  // DQVL exercises the dual-quorum machinery; Hermes and Dynamo are the
  // registry baselines with the most timer/retry traffic (engine
  // retransmissions, replay timers, handoff loops) under the partitioned
  // engine.
  for (const char* proto : {"dqvl", "hermes", "dynamo"}) {
    if (!identical_at_1_and_4(smoke_params(proto), proto)) return 1;
  }
  if (!identical_at_1_and_4(open_loop_smoke_params(), "open-loop") ||
      !identical_at_1_and_4(with_crashes(smoke_params("dqvl")),
                            "crash-injected dqvl") ||
      !identical_at_1_and_4(with_crashes(open_loop_smoke_params()),
                            "crash-injected open-loop")) {
    return 1;
  }
  std::printf(
      "tsan_world_smoke: dq.report.v1 byte-identical at --world-threads 1 "
      "and 4 for dqvl, hermes, dynamo, the open-loop workload, and both "
      "with crash injection\n");
  return 0;
}
