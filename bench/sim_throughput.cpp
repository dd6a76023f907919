// Simulator throughput: how fast the substrate itself runs.
//
// Two measurements, both recorded in a dq.bench.v1 envelope
// (BENCH_sim_throughput.json, checked in as the reference baseline):
//
//   * scheduler events/sec -- raw schedule+fire throughput of the slab-pool
//     event core (plus a cancel-heavy variant exercising lazy heap
//     deletion), the number the ISSUE's >=2x acceptance bar is measured on;
//   * trial-suite scaling -- a fixed 8-trial suite run through the parallel
//     runner at every jobs in {1, 2, 4, 8}, with per-point speedups (on a
//     single-hardware-thread host the table is recorded anyway, with a
//     warning: regenerate on a multi-core machine).
//
// Timing a simulator takes a wall clock, so unlike every other bench this
// one's numbers vary run to run; the dq.report.v1 documents it records (the
// serial suite's reports) stay byte-identical at any --jobs.
#include <chrono>
#include <cstdint>

#include "bench_util.h"
#include "sim/scheduler.h"

using namespace dq;
using namespace dq::bench;

namespace {

double wall_ms() {
  // dqlint:allow(det-wall-clock): this bench measures real elapsed time by
  // design; the dq.report.v1 documents it emits stay seed-deterministic.
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clk::now().time_since_epoch())
      .count();
}

// Events/sec through schedule_at + run_all in the steady state -- one
// scheduler reused across batches, the regime a real trial runs in (a World
// pushes millions of events through a single scheduler, so construction
// cost amortizes to nothing and the slab pool recycles hot slots).
// Measured over ~0.3 s.
double scheduler_events_per_sec(bool cancel_half) {
  constexpr int kBatch = 1000;
  sim::Scheduler s;
  int sink = 0;
  std::vector<sim::TimerToken> tokens;
  tokens.reserve(kBatch / 2);
  std::uint64_t fired = 0;
  const double t0 = wall_ms();
  double t1 = t0;
  while (t1 - t0 < 300.0) {
    tokens.clear();
    for (int i = 0; i < kBatch; ++i) {
      auto tok = s.schedule_at(s.now() + i, [&sink] { ++sink; });
      if (cancel_half && i % 2 == 0) tokens.push_back(tok);
    }
    for (auto& tok : tokens) tok.cancel();
    s.run_all();
    fired += kBatch;  // cancelled events count: cancel+skip is the work
    t1 = wall_ms();
  }
  return fired / ((t1 - t0) / 1000.0);
}

std::vector<workload::ExperimentParams> suite() {
  std::vector<workload::ExperimentParams> trials;
  for (auto proto :
       {"dqvl", "majority"}) {
    for (std::uint64_t seed : {7u, 11u, 23u, 42u}) {
      workload::ExperimentParams p;
      p.protocol = proto;
      p.write_ratio = 0.2;
      p.locality = 0.9;
      p.requests_per_client = 150;
      p.seed = seed;
      trials.push_back(p);
    }
  }
  return trials;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) json_path = a.substr(7);
  }
  const auto hw = static_cast<unsigned>(run::resolve_jobs(0));

  header("Throughput", "event-core and trial-suite performance");

  const double sched = scheduler_events_per_sec(/*cancel_half=*/false);
  const double sched_cancel = scheduler_events_per_sec(/*cancel_half=*/true);
  row({"scheduler", "events/sec", fmt_sci(sched)}, 16);
  row({"  50% cancelled", "events/sec", fmt_sci(sched_cancel)}, 16);

  // Trial-suite scaling table: the same fixed suite at every jobs value (the
  // thread count is passed through raw, deliberately bypassing the --jobs
  // hardware clamp, so the table measures the machine as configured).
  const auto trials = suite();
  struct ScalePoint {
    std::size_t jobs;
    double ms;
    double speedup;
  };
  std::vector<ScalePoint> scale;
  std::vector<workload::ExperimentResult> serial;
  double serial_ms = 0.0;
  row({"suite (8 trials)", "jobs", "ms", "speedup"}, 16);
  for (const std::size_t j : {1u, 2u, 4u, 8u}) {
    const double t0 = wall_ms();
    auto rs = run::run_experiments(trials, j);
    const double ms = wall_ms() - t0;
    if (j == 1) {
      serial = std::move(rs);
      serial_ms = ms;
    } else {
      // Determinism check rides along: every fanned-out suite must
      // reproduce the jobs=1 reports byte for byte.
      for (std::size_t i = 0; i < trials.size(); ++i) {
        if (workload::report::to_json(trials[i], serial[i]) !=
            workload::report::to_json(trials[i], rs[i])) {
          std::fprintf(stderr, "FAIL: trial %zu differs at --jobs=%zu\n", i,
                       j);
          return 1;
        }
      }
    }
    scale.push_back({j, ms, serial_ms / ms});
    row({"", std::to_string(j), fmt(ms, 1), fmt(serial_ms / ms, 2) + "x"},
        16);
  }
  std::printf("hardware threads: %u\n", hw);
  const bool single_core = hw == 1;
  if (single_core) {
    std::fprintf(stderr,
                 "warning: this host has a single hardware thread; the "
                 "scaling table cannot show parallel speedup -- regenerate "
                 "%s on a multi-core machine\n",
                 json_path.c_str());
  }

  const HostInfo host = host_info();
  const bool comparable = baseline_comparable("sim_throughput", host);
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    return 0;
  }
  std::fprintf(f, "{\"schema\":\"dq.bench.v1\",\"bench\":\"sim_throughput\"");
  std::fprintf(f, ",\"host\":%s", host_json(host, comparable).c_str());
  std::fprintf(f,
               ",\"throughput\":{\"scheduler_events_per_sec\":%.0f,"
               "\"scheduler_events_per_sec_cancel_heavy\":%.0f,"
               "\"suite_trials\":%zu,\"suite_serial_ms\":%.1f,"
               "\"hardware_threads\":%u",
               sched, sched_cancel, trials.size(), serial_ms, hw);
  std::fprintf(f, ",\"suite_scaling\":[");
  for (std::size_t i = 0; i < scale.size(); ++i) {
    std::fprintf(f, "%s{\"jobs\":%zu,\"ms\":%.1f,\"speedup\":%.2f}",
                 i == 0 ? "" : ",", scale[i].jobs, scale[i].ms,
                 scale[i].speedup);
  }
  std::fprintf(f, "]");
  if (single_core) {
    std::fprintf(f,
                 ",\"warning\":\"single hardware thread: speedups are not "
                 "meaningful; regenerate on a multi-core machine\"");
  }
  std::fprintf(f, "}");
  std::fprintf(f, ",\"runs\":[");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",",
                 workload::report::to_json(trials[i], serial[i]).c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu runs)\n", json_path.c_str(), trials.size());
  return 0;
}
