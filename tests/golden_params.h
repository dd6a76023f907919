// Parameter sets behind the checked-in golden reports in tests/golden/.
// These must not change: the goldens were generated from them, and several
// test binaries hold reports to those files byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "workload/experiment.h"

namespace dq::golden {

// The loss-only matrix cells: enough loss and jitter that the run exercises
// retries, reordering, and drops (report_{dqvl,majority}_seed{7,11}.json).
inline workload::ExperimentParams golden_params(std::string proto,
                                                std::uint64_t seed) {
  workload::ExperimentParams p;
  p.protocol = std::move(proto);
  p.write_ratio = 0.2;
  p.locality = 0.9;
  p.requests_per_client = 120;
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.seed = seed;
  return p;
}

// Crash-heavy cells: WAL (group commit, torn-tail faults on) plus an
// exponential crash/restart process over every server.  Crash scheduling,
// WAL replay, and torn-tail sampling all draw from the seeded rng
// (report_*_crash_seed*.json, and report_dqvl_crash_world4_seed13.json at
// --world-threads 4).
inline workload::ExperimentParams crash_golden_params(std::string proto,
                                                      std::uint64_t seed) {
  workload::ExperimentParams p;
  p.protocol = std::move(proto);
  p.write_ratio = 0.3;
  p.locality = 0.85;
  p.requests_per_client = 100;
  p.lease_length = sim::seconds(1);
  p.loss = 0.02;
  p.topo.jitter = 0.1;
  p.op_deadline = sim::seconds(25);
  store::WalParams w;
  w.policy = store::SyncPolicy::kGroupCommit;
  w.torn_tail_faults = true;
  p.wal = w;
  sim::CrashInjector::Params c;
  c.mean_time_to_crash = sim::seconds(10);
  c.mean_downtime = sim::seconds(1);
  p.crashes = c;
  p.seed = seed;
  return p;
}

}  // namespace dq::golden
