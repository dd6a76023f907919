// Open-loop workload scale: how fast the aggregated generators emit.
//
// The headline trial aggregates >= 1M logical clients over >= 100k objects
// (8 sites x 131072 clients, Zipf over 131072 objects) into 8 SiteGenerator
// rate processes driving sink servers on the partitioned engine, and
// measures emitted requests per wall second against the raw scheduler
// ceiling re-measured in the same binary (the same measurement
// BENCH_sim_throughput.json records).  The acceptance bar is a ceiling
// ratio of ~2x: an emitted open-loop request costs about one scheduler
// event plus sampling and network accounting.
//
// A second trial demonstrates the rate shaping (diurnal sinusoid + flash
// crowd) by snapshotting per-phase offered counts, and a tiny full-stack
// DQVL open-loop run is recorded as the envelope's dq.report.v1 document.
//
// Tiny-parameter mode for CI smokes:
//   --sites=N --clients-per-site=N --objects=N --seconds=S --json=PATH
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/parallel_world.h"
#include "sim/scheduler.h"
#include "workload/open_loop.h"

using namespace dq;
using namespace dq::bench;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double wall_ms() {
  // dqlint:allow(det-wall-clock): this bench measures real elapsed time by
  // design; the dq.report.v1 document it records stays seed-deterministic.
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clk::now().time_since_epoch())
      .count();
}

// The same steady-state measurement BENCH_sim_throughput.json records,
// re-run here so the ceiling ratio compares numbers from one binary on one
// host (~0.3 s).
double scheduler_events_per_sec() {
  constexpr int kBatch = 1000;
  sim::Scheduler s;
  int sink = 0;
  std::uint64_t fired = 0;
  const double t0 = wall_ms();
  double t1 = t0;
  while (t1 - t0 < 300.0) {
    for (int i = 0; i < kBatch; ++i) {
      s.schedule_at(s.now() + i, [&sink] { ++sink; });
    }
    s.run_all();
    fired += kBatch;
    t1 = wall_ms();
  }
  return fired / ((t1 - t0) / 1000.0);
}

// Servers that swallow requests: the bench measures emission, not protocol
// execution.
class SinkServer final : public sim::Actor {
 public:
  void on_message(const sim::Envelope&) override {}
};

struct ScaleConfig {
  std::size_t sites = 8;
  std::size_t clients_per_site = 131072;
  std::size_t objects = 131072;
  double seconds = 4.0;
  double client_rate_hz = 1.0;
  double diurnal = 0.0;
  std::optional<workload::FlashCrowd> flash;
};

// A sink world with one generator per site; returns per-site offered counts
// sampled at each requested sim time (cumulative).
struct ScaleRun {
  std::uint64_t emitted = 0;
  std::size_t events = 0;
  double wall = 0.0;  // ms
  std::vector<std::uint64_t> per_site;
  std::vector<std::uint64_t> phase_offered;  // cumulative at each phase mark
};

ScaleRun run_scale(const ScaleConfig& cfg,
                   const std::vector<sim::Time>& phase_marks) {
  sim::Topology::Params tp;
  tp.num_servers = cfg.sites;
  tp.num_clients = cfg.sites;  // client i homes at server i
  tp.jitter = 0.0;
  sim::Topology topo(tp);
  sim::World::Parallelism par;
  par.partitions = sim::par::default_partition_count(topo);
  par.threads = 1;
  sim::World world(std::move(topo), /*seed=*/42, par);

  std::vector<std::unique_ptr<SinkServer>> sinks;
  for (std::size_t i = 0; i < cfg.sites; ++i) {
    auto s = std::make_unique<SinkServer>();
    world.attach(world.topology().server(i), *s);
    sinks.push_back(std::move(s));
  }

  workload::OpenLoopParams ol;
  ol.clients_per_site = cfg.clients_per_site;
  ol.client_rate_hz = cfg.client_rate_hz;
  ol.objects = cfg.objects;
  ol.zipf_s = 0.99;
  ol.diurnal_amplitude = cfg.diurnal;
  ol.flash = cfg.flash;
  ol.horizon = sim::milliseconds(static_cast<std::int64_t>(cfg.seconds * 1e3));
  ol.track_replies = false;  // fire-and-forget: pure emission throughput

  auto zipf = std::make_shared<const workload::ZipfAliasTable>(ol.zipf_s,
                                                               ol.objects);
  std::vector<std::unique_ptr<workload::SiteGenerator>> gens;
  for (std::size_t i = 0; i < cfg.sites; ++i) {
    workload::SiteGenerator::Params gp;
    gp.ol = ol;
    gp.write_ratio = 0.0;
    gp.locality = 1.0;
    gp.site = i;
    gp.seed = 42;
    gp.zipf = zipf;
    auto g = std::make_unique<workload::SiteGenerator>(std::move(gp));
    world.attach(world.topology().client(i), *g);
    gens.push_back(std::move(g));
  }
  for (auto& g : gens) g->start();

  ScaleRun out;
  const double t0 = wall_ms();
  std::uint64_t last_total = 0;
  for (const sim::Time mark : phase_marks) {
    world.run_until(mark);
    std::uint64_t total = 0;
    for (const auto& g : gens) total += g->offered();
    out.phase_offered.push_back(total);
    last_total = total;
  }
  world.run_until(ol.horizon + sim::seconds(1));  // drain in-flight deliveries
  out.wall = wall_ms() - t0;
  (void)last_total;
  for (const auto& g : gens) {
    out.per_site.push_back(g->offered());
    out.emitted += g->offered();
  }
  out.events = world.executed_events();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleConfig cfg;
  std::string json_path = "BENCH_open_loop_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&a](const char* pfx) -> const char* {
      const std::size_t n = std::strlen(pfx);
      return a.rfind(pfx, 0) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--json=")) json_path = v;
    if (const char* v = val("--sites=")) cfg.sites = std::strtoul(v, nullptr, 10);
    if (const char* v = val("--clients-per-site=")) {
      cfg.clients_per_site = std::strtoul(v, nullptr, 10);
    }
    if (const char* v = val("--objects=")) {
      cfg.objects = std::strtoul(v, nullptr, 10);
    }
    if (const char* v = val("--seconds=")) cfg.seconds = std::atof(v);
  }

  header("Open-loop scale",
         "aggregated generators vs the raw scheduler ceiling");

  // Headline: flat rate, maximum emission pressure.  The ceiling and the
  // trial are measured in alternating passes and compared median-to-median:
  // on a frequency-throttled host a single (ceiling, trial) pair can land on
  // opposite sides of a thermal step and skew the ratio 1.5x either way.
  // The trial itself is seed-deterministic, so only its wall time varies.
  constexpr int kPasses = 3;
  std::vector<double> ceilings;
  std::vector<double> walls;
  ScaleRun peak;
  for (int p = 0; p < kPasses; ++p) {
    ceilings.push_back(scheduler_events_per_sec());
    peak = run_scale(cfg, {});
    walls.push_back(peak.wall);
  }
  const double ceiling = median(ceilings);
  const double wall = median(walls);
  row({"scheduler", "events/sec", fmt_sci(ceiling)}, 18);
  const double emitted_per_sec = peak.emitted / (wall / 1e3);
  const double events_per_sec = peak.events / (wall / 1e3);
  const double ratio = emitted_per_sec > 0 ? ceiling / emitted_per_sec : 0.0;
  row({"open-loop", "requests", std::to_string(peak.emitted)}, 18);
  row({"", "requests/sec", fmt_sci(emitted_per_sec)}, 18);
  row({"", "events/sec", fmt_sci(events_per_sec)}, 18);
  row({"", "ceiling ratio", fmt(ratio, 2) + "x"}, 18);
  std::uint64_t max_site = 0;
  for (const std::uint64_t v : peak.per_site) {
    max_site = v > max_site ? v : max_site;
  }
  const double mean_site =
      peak.per_site.empty()
          ? 0.0
          : static_cast<double>(peak.emitted) /
                static_cast<double>(peak.per_site.size());
  const double skew =
      mean_site > 0 ? static_cast<double>(max_site) / mean_site : 0.0;
  row({"", "load skew", fmt(skew, 3)}, 18);

  // Rate-shaping demo: diurnal sinusoid + a mid-run flash crowd, offered
  // counts snapshotted before / during / after the flash window.
  ScaleConfig shaped = cfg;
  shaped.client_rate_hz = cfg.client_rate_hz / 8.0;
  shaped.diurnal = 0.4;
  workload::FlashCrowd flash;
  const double fs = cfg.seconds * 0.5, fd = cfg.seconds * 0.25;
  flash.start = sim::milliseconds(static_cast<std::int64_t>(fs * 1e3));
  flash.duration = sim::milliseconds(static_cast<std::int64_t>(fd * 1e3));
  flash.multiplier = 5.0;
  shaped.flash = flash;
  const ScaleRun demo =
      run_scale(shaped, {flash.start, flash.start + flash.duration});
  const std::uint64_t before = demo.phase_offered.at(0);
  const std::uint64_t during = demo.phase_offered.at(1) - before;
  const double base_rate = fs > 0 ? before / fs : 0.0;
  const double flash_rate = fd > 0 ? during / fd : 0.0;
  const double observed_mult = base_rate > 0 ? flash_rate / base_rate : 0.0;
  row({"flash crowd", "base req/s", fmt_sci(base_rate)}, 18);
  row({"", "flash req/s", fmt_sci(flash_rate)}, 18);
  row({"", "multiplier", fmt(observed_mult, 2) + "x"}, 18);

  // A tiny full-stack DQVL open-loop trial: the envelope's dq.report.v1
  // document (exercises the report's open_loop section end to end).
  workload::ExperimentParams rp;
  rp.protocol = "dqvl";
  rp.topo.num_servers = 9;
  rp.topo.num_clients = 3;
  rp.write_ratio = 0.1;
  rp.seed = 7;
  workload::OpenLoopParams rol;
  rol.clients_per_site = 1000;
  rol.client_rate_hz = 0.1;
  rol.objects = 4096;
  rol.horizon = sim::seconds(2);
  rp.open_loop = rol;
  const workload::ExperimentResult rr = workload::run_experiment(rp);
  const std::string report = workload::report::to_json(rp, rr);

  const HostInfo host = host_info();
  const bool comparable = baseline_comparable("open_loop_scale", host);
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    return 0;
  }
  std::fprintf(f, "{\"schema\":\"dq.bench.v1\",\"bench\":\"open_loop_scale\"");
  std::fprintf(f, ",\"host\":%s", host_json(host, comparable).c_str());
  std::fprintf(
      f,
      ",\"open_loop_scale\":{\"sites\":%zu,\"clients_per_site\":%zu,"
      "\"logical_clients\":%zu,\"objects\":%zu,\"sim_seconds\":%.2f,"
      "\"emitted\":%llu,\"wall_ms\":%.1f,\"emitted_per_sec\":%.0f,"
      "\"executed_events\":%zu,\"events_per_sec\":%.0f,"
      "\"scheduler_events_per_sec\":%.0f,\"ceiling_ratio\":%.2f,"
      "\"load_skew\":%.3f",
      cfg.sites, cfg.clients_per_site, cfg.sites * cfg.clients_per_site,
      cfg.objects, cfg.seconds,
      static_cast<unsigned long long>(peak.emitted), wall,
      emitted_per_sec, peak.events, events_per_sec, ceiling, ratio, skew);
  std::fprintf(f, ",\"passes\":%d,\"ceiling_samples\":[", kPasses);
  for (int p = 0; p < kPasses; ++p) {
    std::fprintf(f, "%s%.0f", p == 0 ? "" : ",", ceilings[p]);
  }
  std::fprintf(f, "],\"wall_ms_samples\":[");
  for (int p = 0; p < kPasses; ++p) {
    std::fprintf(f, "%s%.1f", p == 0 ? "" : ",", walls[p]);
  }
  std::fprintf(f, "]");
  std::fprintf(f, ",\"per_site_offered\":[");
  for (std::size_t i = 0; i < peak.per_site.size(); ++i) {
    std::fprintf(f, "%s%llu", i == 0 ? "" : ",",
                 static_cast<unsigned long long>(peak.per_site[i]));
  }
  std::fprintf(f, "]");
  std::fprintf(f,
               ",\"flash_demo\":{\"diurnal\":%.2f,\"multiplier\":%.1f,"
               "\"base_req_per_sec\":%.0f,\"flash_req_per_sec\":%.0f,"
               "\"observed_multiplier\":%.2f}",
               shaped.diurnal, flash.multiplier, base_rate, flash_rate,
               observed_mult);
  std::fprintf(f, "}");
  std::fprintf(f, ",\"runs\":[%s]}\n", report.c_str());
  std::fclose(f);
  std::printf("\nwrote %s (1 run)\n", json_path.c_str());
  return 0;
}
