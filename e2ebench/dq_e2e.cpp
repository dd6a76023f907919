// Full-stack DQVL benchmark: one workload per process.
//
//   dq_e2e --workload <openloop_zipf|closedloop_paper|crash_writes>
//          --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced trials of the workload until --seconds have
// passed and reports the end-to-end metrics (medians over trials).
// --trace 1 alternates untraced and traced ("dqvl-traced") trials of the same
// seed and reports the per-layer split.  Every trial is gated on zero
// regular-semantics violations and on attempted == offered (open loop) or
// clients x requests (closed loop); every traced trial must render a
// dq.report.v1 byte-identical to its untraced twin (the passivity gate).  The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the exit code is nonzero when a gate fails.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "span.h"
#include "traced_dqvl.h"
#include "workload/experiment.h"
#include "workload/open_loop.h"
#include "workload/report.h"

namespace {

using namespace dq;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Shortest text that reads back as the same double: "all its digits".
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// --- workloads ---------------------------------------------------------------

// Open loop always runs the partitioned engine; this sizes its worker pool.
// One thread, not two: on a shared 4-core host the 2-thread round barrier
// made req_per_s spread 5.6-7.7% (IQR/median over seeds) against 3.0% here.
constexpr std::size_t kOpenLoopThreads = 1;
constexpr std::size_t kPaperRequestsPerClient = 100000;
constexpr std::size_t kCrashRequestsPerClient = 10000;
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;

std::optional<workload::ExperimentParams> workload_params(
    const std::string& name, std::uint64_t seed) {
  workload::ExperimentParams p;
  p.protocol = "dqvl";
  p.iqs = workload::QuorumSpec::majority(5);
  p.seed = seed;
  if (name == "openloop_zipf") {
    p.topo.num_servers = 6;
    p.topo.num_clients = 3;  // edge sites
    p.write_ratio = 0.1;
    p.locality = 0.9;
    workload::OpenLoopParams ol;
    ol.clients_per_site = 8000;
    ol.client_rate_hz = 0.5;
    ol.zipf_s = 0.99;
    ol.objects = 100000;
    ol.horizon = sim::seconds(10);
    p.open_loop = ol;
    p.world_threads = kOpenLoopThreads;
  } else if (name == "closedloop_paper") {
    p.topo.num_servers = 9;
    p.topo.num_clients = 3;
    p.write_ratio = 0.05;
    p.locality = 0.9;
    p.requests_per_client = kPaperRequestsPerClient;
  } else if (name == "crash_writes") {
    p.topo.num_servers = 9;
    p.topo.num_clients = 9;
    p.write_ratio = 0.5;
    p.locality = 0.5;
    p.requests_per_client = kCrashRequestsPerClient;
    store::WalParams wal;
    wal.policy = store::SyncPolicy::kGroupCommit;
    p.wal = wal;
    sim::CrashInjector::Params crashes;
    crashes.mean_time_to_crash = sim::seconds(60);
    crashes.mean_downtime = sim::seconds(2);
    p.crashes = crashes;
  } else {
    return std::nullopt;
  }
  return p;
}

// --- one trial ---------------------------------------------------------------

struct Trial {
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;      // start_clients() through collect()
  double loop_s = 0;     // start_clients() through the last run step
  double collect_s = 0;  // collect(), checker included
  double checker_s = 0;  // a second check_regular() over the same history
  double report_s = 0;   // report::to_json
  std::uint64_t attempted = 0, expected = 0, failed = 0, violations = 0;
  std::uint64_t events = 0;
  std::size_t pending_reads_max = 0;
  std::size_t max_ops_per_object = 0;
  std::size_t read_count = 0, write_count = 0;
  double read_p50 = 0, read_p99 = 0, write_p50 = 0, write_p99 = 0;
  double msgs_per_req = 0, bytes_per_req = 0;
  obs::MetricsSnapshot metrics;
  e2e::LayerTotals layers;
  std::string report;
};

Trial run_trial(workload::ExperimentParams p, bool traced) {
  Trial t;
  t.traced = traced;
  if (traced) p.protocol = e2e::kTracedProtocol;

  const auto t0 = Clock::now();
  workload::Deployment dep(p);
  const auto t1 = Clock::now();
  t.setup_s = seconds_between(t0, t1);
  e2e::SpanLanes::instance().reset();

  const auto start = Clock::now();
  dep.start_clients();
  sim::World& world = dep.world();
  // The loop of Deployment::run(), kept step for step so the report's
  // sim_duration is the same; traced trials sample OQS queues between steps.
  while (!dep.clients_done() && world.now() < p.max_sim_time) {
    t.events += world.run_for(sim::seconds(1));
    if (traced) {
      for (NodeId n : world.topology().servers()) {
        if (const core::OqsServer* oqs = dep.oqs_server(n)) {
          t.pending_reads_max = std::max(t.pending_reads_max,
                                         oqs->pending_reads());
        }
      }
    }
  }
  const auto loop_end = Clock::now();
  workload::ExperimentResult r = dep.collect();
  const auto end = Clock::now();
  t.loop_s = seconds_between(start, loop_end);
  t.collect_s = seconds_between(loop_end, end);
  t.run_s = seconds_between(start, end);
  if (traced) t.layers = e2e::SpanLanes::instance().totals();

  t.attempted = r.total_requests();
  t.failed = r.rejected_reads + r.rejected_writes;
  t.violations = r.violations.size();
  if (p.open_loop) {
    for (std::size_t i = 0; i < dep.num_sites(); ++i) {
      t.expected += dep.site(i).offered();
    }
  } else {
    t.expected = dep.num_clients() * p.requests_per_client;
  }
  t.read_count = r.read_ms.count();
  t.write_count = r.write_ms.count();
  t.read_p50 = r.read_ms.p50();
  t.read_p99 = r.read_ms.p99();
  t.write_p50 = r.write_ms.p50();
  t.write_p99 = r.write_ms.p99();
  t.msgs_per_req = r.messages_per_request;
  t.bytes_per_req = r.bytes_per_request;
  t.metrics = r.metrics;

  const auto rep0 = Clock::now();
  t.report = workload::report::to_json(p, r);
  t.report_s = seconds_between(rep0, Clock::now());

  if (traced) {
    // collect() ran the checker inside its span; time a second pass alone.
    const auto c0 = Clock::now();
    const auto violations = r.history.check_regular();
    t.checker_s = seconds_between(c0, Clock::now());
    if (violations.size() != t.violations) ++t.violations;  // not repeatable
    std::map<ObjectId, std::size_t> per_object;
    for (const workload::OpRecord& op : r.history.ops()) {
      t.max_ops_per_object =
          std::max(t.max_ops_per_object, ++per_object[op.object]);
    }
  }
  return t;
}

// Pure Deployment construction (teardown untimed), for the setup_s median.
double time_setup(const workload::ExperimentParams& p) {
  const auto t0 = Clock::now();
  const auto dep = std::make_unique<workload::Deployment>(p);
  return seconds_between(t0, Clock::now());
}

// The open-loop generator's two sampling layers, replayed on the
// openloop_zipf parameters: ns per generated request, median of 5 replays.
double generator_ns_per_req(std::uint64_t seed) {
  const auto p = workload_params("openloop_zipf", seed);
  const workload::OpenLoopParams& ol = *p->open_loop;
  const workload::ZipfAliasTable zipf(ol.zipf_s, ol.objects);
  const workload::RateModel rate(ol.site_rate_hz(), ol.diurnal_amplitude,
                                 ol.diurnal_period, ol.flash);
  std::vector<sim::Time> arrivals;
  std::vector<std::uint64_t> objects;
  std::vector<double> ns_per_draw;
  std::uint64_t checksum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t drawn = 0;
    const auto t0 = Clock::now();
    for (std::size_t site = 0; site < p->topo.num_clients; ++site) {
      Rng rng(seed + site);
      for (sim::Time w = 0; w < ol.horizon; w += ol.batch_window) {
        arrivals.clear();
        objects.clear();
        rate.draw_arrivals(rng, w, w + ol.batch_window, arrivals);
        zipf.sample_many(rng, arrivals.size(), objects);
        drawn += arrivals.size();
        for (std::uint64_t o : objects) checksum += o;
      }
    }
    ns_per_draw.push_back(ratio(seconds_between(t0, Clock::now()) * 1e9,
                                static_cast<double>(drawn)));
  }
  // Consume the draws, so the replay cannot be optimized away.
  if (checksum == 0) std::fprintf(stderr, "note: empty generator replay\n");
  return median(ns_per_draw);
}

// --- reporting ---------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dq_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const auto params = workload_params(args.workload, args.seed);
  if (!params) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  e2e::register_traced_dqvl();

  const auto begin = Clock::now();
  const auto elapsed = [&] { return seconds_between(begin, Clock::now()); };
  std::vector<std::string> failures;
  std::vector<Trial> trials;
  std::vector<double> setups;

  // --trace 0: untraced trials only.  --trace 1: untraced/traced pairs.
  // Trial k runs the workload on seed + k * kSeedStride, so a run's medians
  // average over workload instances as well as over host noise; trial 0 runs
  // --seed itself (reproducible with dqsim --seed).  Peak RSS is read after
  // the first trial: later trials reuse (and fragment) the same heap, so the
  // lifetime peak would depend on how many trials fit in --seconds.
  double rss_mb = 0;
  for (std::uint64_t k = 0; trials.empty() || elapsed() < args.seconds; ++k) {
    workload::ExperimentParams p = *params;
    p.seed = args.seed + k * kSeedStride;
    trials.push_back(run_trial(p, false));
    if (k == 0) rss_mb = peak_rss_mb();
    if (args.trace) trials.push_back(run_trial(p, true));
  }
  if (!args.trace) {
    // Construction takes microseconds to milliseconds against seconds of
    // run, so one per trial is too few for a steady median: construct more,
    // for about a quarter second (15 to 400 constructions in all).
    for (const Trial& t : trials) setups.push_back(t.setup_s);
    double spent = 0;
    while (setups.size() < 400 && (setups.size() < 15 || spent < 0.25)) {
      setups.push_back(time_setup(*params));
      spent += setups.back();
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    const std::string tag = "trial " + std::to_string(i) +
                            (t.traced ? " (traced)" : " (untraced)");
    attempted += t.attempted;
    failed += t.failed;
    if (t.violations != 0) {
      failures.push_back(tag + ": " + std::to_string(t.violations) +
                         " regular-semantics violations");
    }
    if (t.attempted != t.expected) {
      failures.push_back(tag + ": attempted " + std::to_string(t.attempted) +
                         " != offered " + std::to_string(t.expected));
    }
    // Passivity: a traced trial follows the untraced trial of its seed.
    if (t.traced && t.report != trials[i - 1].report) {
      failures.push_back(tag +
                         ": traced dq.report.v1 differs from the untraced "
                         "run of the same seed (passivity)");
    }
  }

  std::vector<double> untraced_rps, untraced_run, traced_run;
  for (const Trial& t : trials) {
    (t.traced ? traced_run : untraced_run).push_back(t.run_s);
    if (!t.traced) {
      untraced_rps.push_back(static_cast<double>(t.attempted) / t.run_s);
    }
  }
  const Trial& first = trials.front();
  const double req = static_cast<double>(first.attempted);
  // Threads that execute events: the serial engine's one, or the
  // partitioned engine's world_threads (the coordinator is one of them).
  const std::size_t threads = std::max<std::size_t>(1, params->world_threads);

  std::printf("workload   %s\n", args.workload.c_str());
  std::printf("host       cpu=\"%s\" nproc=%u\n", cpu_model().c_str(),
              std::thread::hardware_concurrency());
  std::printf("seed       %llu   world_threads=%zu   trials=%zu\n",
              static_cast<unsigned long long>(args.seed),
              params->world_threads,
              trials.size());
  std::printf("requests   %llu per trial (%llu offered), %llu failed\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.expected),
              static_cast<unsigned long long>(first.failed));

  // Simulated latencies: deterministic per seed, printed in both modes.
  const auto print_sim = [](const char* name, double v, std::size_t n) {
    std::printf("%-16s %s sim_ms (n=%zu)\n", name, num(v).c_str(), n);
  };
  print_sim("sim_read_p50_ms", first.read_p50, first.read_count);
  print_sim("sim_read_p99_ms", first.read_p99, first.read_count);
  print_sim("sim_write_p50_ms", first.write_p50, first.write_count);
  print_sim("sim_write_p99_ms", first.write_p99, first.write_count);

  std::vector<Metric> out;
  if (!args.trace) {
    // All eight end-to-end metrics for the reader (the four sim_* above);
    // the JSON line carries the ones BENCHMARK.json declares.
    std::printf("req_per_s        %.1f req/s (median of %zu trials:",
                median(untraced_rps), untraced_rps.size());
    for (double v : untraced_rps) std::printf(" %.0f", v);
    std::printf(")\n");
    std::printf("setup_s          %.6f s (median of %zu constructions)\n",
                median(setups), setups.size());
    std::printf("peak_rss_mb      %.1f MB (after the first trial)\n", rss_mb);
    std::printf("failed_frac      %.6f ratio (%llu failed of %llu)\n",
                ratio(static_cast<double>(first.failed), req),
                static_cast<unsigned long long>(first.failed),
                static_cast<unsigned long long>(first.attempted));
    out = {{"req_per_s", median(untraced_rps), "req/s"},
           {"setup_s", median(setups), "s"},
           {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    // Per-layer metrics: timings are medians over traced trials, counts come
    // from the first traced trial (they repeat exactly; the report gate
    // above already proved the trials computed the same thing).
    const Trial* ft = nullptr;
    for (const Trial& t : trials) {
      if (t.traced) {
        ft = &t;
        break;
      }
    }
    const auto per_req = [&](auto field) {
      std::vector<double> v;
      for (const Trial& t : trials) {
        if (t.traced) {
          v.push_back(field(t) * 1e9 / static_cast<double>(t.attempted));
        }
      }
      return median(v);
    };
    const auto self_s = [](const Trial& t, e2e::Layer l) {
      return static_cast<double>(t.layers.self_ns[l]) * 1e-9;
    };
    const auto calls = [&](e2e::Layer l) {
      return static_cast<double>(ft->layers.calls[l]) / req;
    };
    const obs::MetricsSnapshot& m = ft->metrics;
    const auto c = [&](const char* name) {
      return static_cast<double>(m.counter(name));
    };
    const auto gauge_max = [&](const char* name) {
      const auto it = m.gauges.find(name);
      return it == m.gauges.end() ? 0.0 : static_cast<double>(it->second.max);
    };
    const obs::HistogramData* lease_wait =
        m.histogram("dqvl.write.lease_wait_ms");

    out = {
        {"core.oqs.self_ns_per_req",
         per_req([&](const Trial& t) { return self_s(t, e2e::kOqs); }),
         "ns/req"},
        {"core.oqs.calls_per_req", calls(e2e::kOqs), "1/req"},
        {"core.oqs.pending_reads_max",
         static_cast<double>(ft->pending_reads_max), "count"},
        {"core.oqs.read_hit_frac",
         ratio(c("oqs.read.hits"), c("oqs.read.hits") + c("oqs.read.misses")),
         "ratio"},
        {"core.oqs.invalidations_per_req", c("oqs.invalidations") / req,
         "1/req"},
        {"quorum.calls_per_req", calls(e2e::kQuorum), "1/req"},
        {"quorum.ns_per_req",
         per_req([&](const Trial& t) { return self_s(t, e2e::kQuorum); }),
         "ns/req"},
        {"core.iqs.self_ns_per_req",
         per_req([&](const Trial& t) { return self_s(t, e2e::kIqs); }),
         "ns/req"},
        {"core.iqs.calls_per_req", calls(e2e::kIqs), "1/req"},
        {"core.iqs.renewals_per_req", c("iqs.renewals") / req, "1/req"},
        {"core.iqs.writes_suppressed_frac",
         ratio(c("iqs.writes_suppressed"), c("iqs.writes")), "ratio"},
        {"core.iqs.delayed_queue_max", gauge_max("iqs.delayed_queue.depth"),
         "count"},
        {"core.iqs.recoveries", c("iqs.recoveries"), "count"},
        {"core.iqs.lease_wait_count",
         lease_wait == nullptr ? 0.0 : static_cast<double>(lease_wait->count),
         "count"},
        {"core.frontend.self_ns_per_req",
         per_req([&](const Trial& t) { return self_s(t, e2e::kFrontend); }),
         "ns/req"},
        {"core.frontend.calls_per_req", calls(e2e::kFrontend), "1/req"},
        {"rpc.qrpc.calls_per_req", c("qrpc.calls") / req, "1/req"},
        {"rpc.qrpc.rounds_per_call", ratio(c("qrpc.rounds"), c("qrpc.calls")),
         "1/call"},
        {"rpc.qrpc.retries_per_call",
         ratio(c("qrpc.retries"), c("qrpc.calls")), "1/call"},
        {"rpc.qrpc.inflight_max", gauge_max("qrpc.inflight"), "count"},
        {"store.wal.appends_per_req", c("wal.appends") / req, "1/req"},
        {"store.wal.syncs_per_req", c("wal.syncs") / req, "1/req"},
        {"store.wal.replay_records_per_recovery",
         ratio(c("wal.replay.records"), c("iqs.recoveries")), "1/recovery"},
        {"sim.engine.ns_per_req", per_req([&](const Trial& t) {
           double handlers = 0;
           for (std::size_t l = 0; l < e2e::kLayers; ++l) {
             handlers += self_s(t, static_cast<e2e::Layer>(l));
           }
           return t.loop_s * static_cast<double>(threads) - handlers;
         }),
         "ns/req"},
        {"sim.events_per_req", static_cast<double>(ft->events) / req,
         "1/req"},
        {"sim.net.msgs_per_req", ft->msgs_per_req, "1/req"},
        {"sim.net.bytes_per_req", ft->bytes_per_req, "B/req"},
        {"workload.checker.ns_per_req",
         per_req([](const Trial& t) { return t.checker_s; }), "ns/req"},
        {"workload.checker.max_ops_per_object",
         static_cast<double>(ft->max_ops_per_object), "count"},
        {"workload.collect.ns_per_req", per_req([](const Trial& t) {
           return std::max(0.0, t.collect_s - t.checker_s);
         }),
         "ns/req"},
        {"workload.report.ns_per_req",
         per_req([](const Trial& t) { return t.report_s; }), "ns/req"},
        {"workload.generator.ns_per_req", generator_ns_per_req(args.seed),
         "ns/req"},
        {"trace.overhead_frac",
         ratio(median(traced_run), median(untraced_run)) - 1.0, "ratio"},
    };
    std::printf("traced     %zu traced / %zu untraced trials; median run "
                "%.3f s traced, %.3f s untraced\n",
                traced_run.size(), untraced_run.size(), median(traced_run),
                median(untraced_run));
    for (const Metric& x : out) {
      std::printf("%-38s %14.4f %s\n", x.name.c_str(), x.value,
                  x.unit.c_str());
    }
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
